"""Reference route for universal genus polynomials, used as a test oracle.

This is the direct monomial route: expand the product of a factor
sum_j a_j t^j over n formal variables t_1..t_n into all monomials up to
a total degree (C(2k, k) of them at degree k over k variables), then
rewrite the symmetric result in elementary symmetric functions by the
classical greedy algorithm on the lex-leading monomial.  It shares no
code with the partition-basis engine in ``ellcob.genera`` and is far
slower, so the tests only run it at small weights.

Coefficients may be Fractions or scalar QSeries.  Results are, per
weight, dicts from partitions (non-increasing tuples naming products of
elementary symmetric functions) to nonzero coefficients.

The per-root products at the end multiply one ring-valued factor per
stable root, with no series powers; they are the oracle for the roots
routes in ``ellcob``, which group equal roots.
"""
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import factorial

from ellcob.algebra import QSeries
from ellcob.errors import ConsistencyError
from ellcob.genera import CharacteristicSeries, twist_character
from ellcob.manifolds import pair


def _mvp_mul(p, q, kmax):
    out = {}
    for e1, c1 in p.items():
        d1 = sum(e1)
        for e2, c2 in q.items():
            if d1 + sum(e2) > kmax:
                continue
            mono = tuple(a + b for a, b in zip(e1, e2))
            term = c1 * c2
            cur = out.get(mono)
            out[mono] = term if cur is None else cur + term
    return {e: c for e, c in out.items() if c}


def expand_symmetric_product(factor, nvars, kmax):
    """Expansion of prod_i (sum_j factor[j] t_i^j) truncated at total degree kmax."""
    poly = {(0,) * nvars: Fraction(1)}
    for i in range(nvars):
        new = {}
        for exps, c in poly.items():
            room = kmax - sum(exps)
            for j, fj in enumerate(factor):
                if j > room:
                    break
                if not fj:
                    continue
                mono = exps[:i] + (exps[i] + j,) + exps[i + 1:]
                term = c * fj
                cur = new.get(mono)
                new[mono] = term if cur is None else cur + term
        poly = {e: c for e, c in new.items() if c}
    return poly


@lru_cache(maxsize=None)
def _elementary_product(nvars, partition):
    """Expansion of the product over parts j of e_j, as a monomial table."""
    poly = {(0,) * nvars: Fraction(1)}
    weight = sum(partition)
    for j in partition:
        e_j = {}
        for subset in combinations(range(nvars), j):
            e_j[tuple(1 if i in subset else 0 for i in range(nvars))] = Fraction(1)
        poly = _mvp_mul(poly, e_j, weight)
    return tuple(sorted(poly.items()))


def symmetric_to_partitions(poly, nvars):
    """Rewrite a symmetric polynomial in the elementary symmetric basis, per weight."""
    by_weight = {}
    for exps, c in poly.items():
        by_weight.setdefault(sum(exps), {})[exps] = c
    out = {}
    for w, work in sorted(by_weight.items()):
        res = {}
        work = dict(work)
        while work:
            lam = max(work)
            if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
                raise ConsistencyError("symmetric reduction met a non-symmetric leading term")
            c = work.pop(lam)
            parts = []
            padded = tuple(lam) + (0,)
            for j in range(len(lam)):
                parts.extend([j + 1] * (padded[j] - padded[j + 1]))
            partition = tuple(sorted(parts, reverse=True))
            res[partition] = c
            for exps, q in _elementary_product(nvars, partition):
                if exps == lam:
                    continue
                term = c * q
                cur = work.get(exps)
                acc = -term if cur is None else cur - term
                if acc:
                    work[exps] = acc
                else:
                    work.pop(exps, None)
        out[w] = res
    return out


def k_polynomials(series, max_weight):
    """Weight -> partition table of prod f(x_i) over max_weight variables."""
    factor = list(series.coeffs[: max_weight + 1])
    return symmetric_to_partitions(expand_symmetric_product(factor, max_weight, max_weight), max_weight)


def twisted_ahat_top(k):
    """Top-weight table of A-hat times dim + sum over variables of 2/(2r)! t_i^r."""
    ah = CharacteristicSeries.ahat_genus(k + 1)
    aclass = expand_symmetric_product(list(ah.coeffs[: k + 1]), k, k)
    ch = {(0,) * k: Fraction(4 * k)}
    for i in range(k):
        for r in range(1, k + 1):
            mono = tuple(r if idx == i else 0 for idx in range(k))
            ch[mono] = ch.get(mono, Fraction(0)) + Fraction(2, factorial(2 * r))
    return symmetric_to_partitions(_mvp_mul(aclass, ch, k), k).get(k, {})


def elliptic_top(k, order):
    """Per power of q, the top-weight table of the elliptic factor
    f_ahat(t) g(t, q) over k variables times g(0, q)^k for the rest of
    the 2k stable root pairs."""
    tw = twist_character(order, k + 1)
    ah = CharacteristicSeries.ahat_genus(k + 1)
    factor = []
    for j in range(k + 1):
        acc = QSeries.constant(Fraction(0), order)
        for i in range(j + 1):
            if ah.coeffs[i]:
                acc = acc + tw.x2_coeffs[j - i] * ah.coeffs[i]
        factor.append(acc)
    top = symmetric_to_partitions(expand_symmetric_product(factor, k, k), k).get(k, {})
    correction = tw.scalar_part() ** k
    series = {lam: c * correction for lam, c in top.items()}
    return [{lam: s.coeffs[n] for lam, s in series.items() if s.coeffs[n]} for n in range(order + 1)]


# ---------------------------------------------------------------------------
# per-root products


def _series_at(coeffs, x):
    """sum_j coeffs[j] (x^2)^j, one power of x^2 at a time."""
    t = x * x
    acc, tp = x.ring.scalar(coeffs[0]), x.ring.one()
    for c in coeffs[1:]:
        tp = tp * t
        if c:
            acc = acc + tp * c
    return acc


def total_pontryagin_per_root(m):
    total = m.ring.one()
    for x in m.tangent.roots:
        total = total * (m.ring.one() + x * x)
    return total


def genus_per_root(m, series):
    total = m.ring.one()
    for x in m.tangent.roots:
        total = total * _series_at(series.coeffs, x)
    return pair(m, total)


def twisted_ahat_per_root(m):
    """A-hat(M) ch(T_C M) with ch = dim - 2 #roots + sum_i 2 cosh(x_i)."""
    x2_order = m.real_dimension // 4 + 1
    ah = CharacteristicSeries.ahat_genus(x2_order).coeffs
    two_cosh = [Fraction(2, factorial(2 * r)) for r in range(x2_order + 1)]
    aclass = m.ring.one()
    ch = m.ring.scalar(m.real_dimension - 2 * len(m.tangent.roots))
    for x in m.tangent.roots:
        aclass = aclass * _series_at(ah, x)
        ch = ch + _series_at(two_cosh, x)
    return pair(m, aclass * ch)


def elliptic_per_root(m, order):
    """q-coefficients of A-hat(M) times prod_i g(x_i, q), with the rank
    correction g(0, q)^(dim/2 - #roots) lifted into the ring."""
    x2_order = m.real_dimension // 4 + 1
    tw = twist_character(order, x2_order)
    ah = CharacteristicSeries.ahat_genus(x2_order).coeffs
    one = m.ring.one()
    aclass = one
    acc = QSeries([one] + [m.ring.zero()] * order)
    for x in m.tangent.roots:
        aclass = aclass * _series_at(ah, x)
        acc = acc * QSeries([_series_at([s.coeffs[n] for s in tw.x2_coeffs], x) for n in range(order + 1)])
    correction = tw.scalar_part() ** (m.real_dimension // 2 - len(m.tangent.roots))
    acc = acc * QSeries([one * c for c in correction.coeffs])
    return [pair(m, aclass * c) for c in acc.coeffs]
