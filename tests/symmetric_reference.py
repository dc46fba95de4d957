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

The per-root products multiply one ring-valued factor per Pontryagin
root t = x^2, a root of multiplicity m listed m times, with no series
powers and no logarithm; they are the oracle for the roots route in
``ellcob``, which exponentiates the ring power sums sum m t^j.  Their
q-series of ring elements are plain coefficient lists multiplied by
``series_product`` here, not library series.  They have no inverse, so
a model with a virtual root (m < 0, as on HP^n) is rejected.
``pontryagin_classes_by_degree`` takes one: it expands (1 + t)^m as
sum_j C(m, j) t^j with the generalized binomial and multiplies the roots
degree by degree, so it reads neither ring powers nor a homogeneous split.
``elliptic_by_roots`` runs the library's roots route alone, scaled like
the public elliptic values.

A product model in the library has no ring: its numbers and genera are
read off its factors.  ``product_ring`` builds the ring it would have,
the tensor product of its factors' rings, with their roots embedded by
``embed``, and ``ring_model`` wraps that as one prime model, the oracle
that the fold of a product's Pontryagin numbers is compared with.
``full_class`` is the full class prod f(t)^m of a series on a list of
roots, in every degree, exponentiated in the ring by the library's
``_exp`` recurrence (plain sums and products, so ring elements serve as
well as rationals).  ``genus_on_own_ring`` pairs it on a model's own
ring, a product's ``ring_model`` included, where the roots route reads a
product's factors and pairs only the power-sum monomials of top degree.

``twist_character_dense`` builds g(x, q) by dense products over a grid
of q- and x-degrees, odd powers of x included; it is the oracle for
``twist_character``, which builds g from its logarithm.  Powers of
g(0, q), negative ones included, come from ``_scalar_power`` here, by
repeated products and a long-division inverse, not from the library.
"""
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations
from math import factorial, prod
from operator import mul

from ellcob.algebra import QSeries, RingSpec
from ellcob.errors import ConsistencyError
from ellcob.genera import CharacteristicSeries, _elliptic_sequence, _exp, _roots_route, twist_character
from ellcob.manifolds import ManifoldModel, pair


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


def _scalar_power(series, n):
    """series ** n for a q-series of Fractions, n < 0 through the inverse
    by long division (the constant term must be nonzero), as a QSeries."""
    coeffs = list(series.coeffs)
    if n < 0:
        inv = [1 / coeffs[0]]
        for r in range(1, len(coeffs)):
            inv.append(-sum(coeffs[i] * inv[r - i] for i in range(1, r + 1)) / coeffs[0])
        coeffs, n = inv, -n
    out = [Fraction(1)] + [Fraction(0)] * (len(coeffs) - 1)
    for _ in range(n):
        out = [sum(out[i] * coeffs[r - i] for i in range(r + 1)) for r in range(len(coeffs))]
    return QSeries(out)


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
                acc = acc + tw[j - i] * ah.coeffs[i]
        factor.append(acc)
    top = symmetric_to_partitions(expand_symmetric_product(factor, k, k), k).get(k, {})
    correction = _scalar_power(tw[0], k)
    series = {lam: c * correction for lam, c in top.items()}
    return [{lam: s.coeffs[n] for lam, s in series.items() if s.coeffs[n]} for n in range(order + 1)]


# ---------------------------------------------------------------------------
# per-root products


def _pontryagin_roots(m):
    """Every Pontryagin root t of m, listed once per unit of multiplicity."""
    roots = []
    for t, mult in m.roots:
        if mult < 0:
            raise ValueError(f"{m.name} has a virtual Pontryagin root; the per-root products take none")
        roots += [t] * mult
    return roots


def _series_at(coeffs, t):
    """sum_j coeffs[j] t^j, one power of t at a time."""
    acc, tp = t.ring.scalar(coeffs[0]), t.ring.one()
    for c in coeffs[1:]:
        tp = tp * t
        if c:
            acc = acc + tp * c
    return acc


def total_pontryagin_per_root(m):
    total = m.ring.one()
    for t in _pontryagin_roots(m):
        total = total * (m.ring.one() + t)
    return total


def pontryagin_classes_by_degree(m):
    """[p_1, ..., p_k] of m, k = dim/4.  Each root t, of degree 4, gives
    the degree-4j pieces C(mult, j) t^j of (1 + t)^mult, the generalized
    binomial C(m, j) = m (m - 1) ... (m - j + 1) / j! inverting a virtual
    root with no series; the list of degree pieces of the total class is
    multiplied by each root's list, degree by degree."""
    k, ring = m.real_dimension // 4, m.ring
    classes = [ring.one()] + [ring.zero()] * k
    for t, mult in m.roots:
        powers = [ring.one()]
        for _ in range(k):
            powers.append(powers[-1] * t)
        factor = [powers[j] * Fraction(prod(range(mult - j + 1, mult + 1)), factorial(j)) for j in range(k + 1)]
        classes = [sum((classes[d - j] * factor[j] for j in range(d + 1)), ring.zero()) for d in range(k + 1)]
    return classes[1:]


def genus_per_root(m, series):
    total = m.ring.one()
    for t in _pontryagin_roots(m):
        total = total * _series_at(series.coeffs, t)
    return pair(m, total)


def twisted_ahat_per_root(m):
    """A-hat(M) ch(T_C M) with ch = dim - 2 #roots + sum_i 2 cosh(x_i)."""
    x2_order = m.real_dimension // 4 + 1
    ah = CharacteristicSeries.ahat_genus(x2_order).coeffs
    two_cosh = [Fraction(2, factorial(2 * r)) for r in range(x2_order + 1)]
    roots = _pontryagin_roots(m)
    aclass = m.ring.one()
    ch = m.ring.scalar(m.real_dimension - 2 * len(roots))
    for t in roots:
        aclass = aclass * _series_at(ah, t)
        ch = ch + _series_at(two_cosh, t)
    return pair(m, aclass * ch)


def series_product(a, b):
    """The product of two truncated power series given as coefficient
    lists (rationals, scalar q-series or ring elements), truncated at the
    shorter one's order."""
    n = min(len(a), len(b))
    out = []
    for r in range(n):
        acc = a[0] * b[r]
        for i in range(1, r + 1):
            acc = acc + a[i] * b[r - i]
        out.append(acc)
    return out


def elliptic_per_root(m, order):
    """q-coefficients of A-hat(M) times prod_i g(x_i, q), with the rank
    correction g(0, q)^(dim/2 - #roots) lifted into the ring."""
    x2_order = m.real_dimension // 4 + 1
    tw = twist_character(order, x2_order)
    ah = CharacteristicSeries.ahat_genus(x2_order).coeffs
    roots = _pontryagin_roots(m)
    one = m.ring.one()
    aclass = one
    acc = [one] + [m.ring.zero()] * order
    for t in roots:
        aclass = aclass * _series_at(ah, t)
        acc = series_product(acc, [_series_at([s.coeffs[n] for s in tw], t) for n in range(order + 1)])
    correction = _scalar_power(tw[0], m.real_dimension // 2 - len(roots))
    acc = series_product(acc, [m.ring.scalar(c) for c in correction.coeffs])
    return [pair(m, aclass * c) for c in acc]


def elliptic_by_roots(m, order):
    """q-coefficients 0..order of q^(k/2) phi(m) from the library's roots
    route alone: g(0, q)^(2k) times the genus of F."""
    k = m.real_dimension // 4
    value = _roots_route(m, _elliptic_sequence(k, order).source)
    return value.coeffs


# ---------------------------------------------------------------------------
# the ring of a product


def embed(element, target, offset):
    """element in target, its generator i becoming target's offset + i: each
    code re-coded in target's place values.  target's bases are no smaller
    than the factor's, so the exponents stay inside them."""
    exponents, places = element.ring.exponents, target._places[offset:]
    raw = {sum(map(mul, exponents(c), places)): n for c, n in element.num.items()}
    return target._normal(element.den, raw)


def product_ring(factors):
    """The ring of a product of prime models, in one pass over them, and their roots embedded in it.
    Generator g of the i-th factor is g_i, unique as the text after its last underscore is i."""
    offsets = list(accumulate((f.ring.ngens for f in factors), initial=0))
    gens, rules = [], {}
    for i, (f, offset) in enumerate(zip(factors, offsets), 1):
        names = [f"{g}_{i}" for g in f.ring.generators]
        gens += zip(names, f.ring.degrees)
        left, right = (0,) * offset, (0,) * (offsets[-1] - offset - f.ring.ngens)
        for g, (power, rhs) in f.ring.rules.items():
            rules[names[g]] = (power, {left + exps + right: c for exps, c in rhs.items()})
    ring = RingSpec(gens, sum(f.real_dimension for f in factors), rules)
    return ring, tuple((embed(t, ring, offset), mult) for f, offset in zip(factors, offsets) for t, mult in f.roots)


def ring_model(m):
    """m itself when prime; a product as one prime model on product_ring of its factors, the
    pairing monomial the factors' concatenated."""
    if not m.factors:
        return m
    ring, roots = product_ring(m.factors)
    pairing = sum((f.pairing_exponents for f in m.factors), ())
    return ManifoldModel(m.name, m.real_dimension, ring, roots, pairing, m.spin, m.curvature_certificate)


def full_class(series, roots):
    """prod f(t)^m over Pontryagin roots (t, m), t a nilpotent ring
    element: entry n is the q^n coefficient, one entry for a rational
    series.  The full class in every degree; the roots route pairs
    only its top-degree part, by the power-sum monomials.

    The product is exp(sum_j logs[j] P_j) in the ring power sums
    P_j = sum m t^j, taken while some t^j is nonzero; the series must
    carry every such j.  The q^0 part of the exponent is nilpotent and
    is exponentiated by weight up to the ring's top weight (the P_j can
    stop below it), the rest in q."""
    if not roots:
        raise ValueError("full_class needs at least one root, whose ring it works in")
    ring = roots[0][0].ring
    mults = [m for _, m in roots]
    sums = [ring.zero()]  # stands for P_0, which logs[0] = 0 never reads
    powers = [t for t, _ in roots]
    while any(powers):
        sums.append(_combine(mults, powers))
        powers = [tp * t for tp, (t, _) in zip(powers, roots)]
    if len(sums) - 1 > series.order:
        raise ValueError(f"series {series.name} carries x^2-order {series.order}, need {len(sums) - 1}")
    # rows[n]: the q^n coefficients of the logs
    rows = list(zip(*(c.coeffs for c in series.logs))) if isinstance(series.logs[0], QSeries) else [series.logs]
    parts = _exp(ring.one(), [c * p for c, p in zip(rows[0], sums)], ring.truncation_dimension // 4)
    return _exp(sum(parts[1:], parts[0]), [None] + [_combine(row, sums) for row in rows[1:]], len(rows) - 1)


def _combine(coeffs, powers):
    """sum_j coeffs[j] powers[j] over the nonzero coefficients."""
    acc = powers[0].ring.zero()
    for c, tp in zip(coeffs, powers):
        if c:
            acc = acc + tp * c
    return acc


def genus_on_own_ring(m, series):
    """The genus of series on m from the exp of the power sums of m's own
    Pontryagin roots, paired in m's own ring: on a product, in its
    ``ring_model``.  With no roots every Pontryagin class is zero, so only
    a point has a nonzero genus."""
    m = ring_model(m)
    if not m.roots:
        return series.one if m.real_dimension == 0 else series.logs[0]  # logs[0]: the zero of the series' kind
    total = [pair(m, c) for c in full_class(series, m.roots)]
    return QSeries(total) if isinstance(series.one, QSeries) else total[0]


# ---------------------------------------------------------------------------
# dense bivariate construction of the twist character


def _bimul(a, b, nmax, rmax):
    out = [[Fraction(0)] * (rmax + 1) for _ in range(nmax + 1)]
    for n1, row in enumerate(a):
        for r1, c1 in enumerate(row):
            if not c1:
                continue
            for n2 in range(nmax + 1 - n1):
                brow = b[n2]
                for r2 in range(rmax + 1 - r1):
                    c2 = brow[r2]
                    if c2:
                        out[n1 + n2][r1 + r2] += c1 * c2
    return out


def twist_character_dense(q_order, x2_order):
    """g(x, q) from its 2 * q_order factors (1 - q^n e^(+-x))^(+-1), each
    expanded in x; entry [j][n] is the coefficient of x^(2j) q^n.  The
    odd powers of x must cancel."""
    n_max, r_max = q_order, 2 * x2_order
    grid = [[Fraction(0)] * (r_max + 1) for _ in range(n_max + 1)]
    grid[0][0] = Fraction(1)

    def exp_row(rate):
        return [Fraction(rate ** r, factorial(r)) for r in range(r_max + 1)]

    for n in range(1, n_max + 1):
        for sign in (1, -1):
            f = [[Fraction(0)] * (r_max + 1) for _ in range(n_max + 1)]
            if n % 2:
                # 1 - q^n e^(sign x)
                f[0][0] = Fraction(1)
                for r, c in enumerate(exp_row(sign)):
                    f[n][r] -= c
            else:
                # (1 - q^n e^(sign x))^(-1) = sum_j q^(nj) e^(sign j x)
                for j in range(n_max // n + 1):
                    for r, c in enumerate(exp_row(sign * j)):
                        f[n * j][r] += c
            grid = _bimul(grid, f, n_max, r_max)

    for n in range(n_max + 1):
        for r in range(1, r_max + 1, 2):
            if grid[n][r]:
                raise ConsistencyError("twist factor failed to be even in x")
    return [[grid[n][2 * j] for n in range(n_max + 1)] for j in range(x2_order + 1)]
