"""Multiplicative genera and the twisted Dirac q-expansion.

A genus is its logarithm: a :class:`CharacteristicSeries` is given by the
coefficients l_j of log f for f(t) = exp(l_1 t + l_2 t^2 + ...) in
t = x^2, rationals from Bernoulli numbers (the L-genus x/tanh(x), the
A-hat genus (x/2)/sinh(x/2)) or scalar q-series from divisor sums (the
elliptic factor F below).  The series stores log f alone; the
coefficients of f are derived on read.  One recurrence, :func:`_exp`,
exponentiates a series in t with rational or scalar q-series
coefficients: f itself and the twist character.  The two routes below
exponentiate in other bases: the roots route
(:meth:`CharacteristicSeries.evaluate_at`) by the closed form for
c_lambda, the universal route by the recurrence on the weight parts E_w
in the partition basis.

The product of f over the variables t_i is exp(sum_r l_r s_r), where
s_r = sum_i t_i^r are the power sums (Milnor-Stasheff, *Characteristic
Classes*, 19; Hirzebruch-Berger-Jung, *Manifolds and Modular Forms*, 6).
A genus is computed on a manifold by evaluating that one formula two
independent ways, which share only the l_r:

* roots route: the power sums are elements of the cohomology ring,
  P_r = sum m t^r over the Pontryagin roots (t, m); a negative m (a
  virtual summand such as the (4u, -1) of HP^n) needs no inverse.  Only
  the weight-k part of the exponential reaches the fundamental class of
  a 4k-manifold, and it is sum_lambda c_lambda P_lambda over the
  partitions lambda of k, c_lambda = prod_r l_r^(m_r) / m_r! for m_r
  the multiplicity of r in lambda (Macdonald, I.2).  The monomials
  P_lambda are paired once per model, and the rationals are dotted with
  the c_lambda, a table cached per series and weight, so no exponential
  is taken in the ring and the ring work does not grow with the q-order.
  A genus is a ring homomorphism on the rational cobordism ring
  (Hirzebruch, *Topological Methods*, 10), so on a product this is done
  on each prime factor's own ring and the values are multiplied; a factor
  of dimension not divisible by 4 pairs to 0, and one with no roots to 0
  unless it is a point;
* universal route: the power sums are symmetric functions, rewritten in
  the Pontryagin classes (:class:`MultiplicativeSequence`), and the
  result is dotted with the Pontryagin numbers from
  :func:`pontryagin_products`: a prime's paired in its own ring, a
  product's folded from its factors' by the Whitney product formula.

Both routes run on every model and must agree exactly; a mismatch
raises :class:`ConsistencyError`.  On a product the check therefore
compares the fold with the product of the factors' roots-route values.
With rational coefficients the value is a rational, with q-series
coefficients a q-series of rationals.

The universal polynomials are computed in the partition basis
(Macdonald, *Symmetric Functions*, I.2).  The weight parts E_w of
exp(sum_r l_r s_r) obey w E_w = sum_r r l_r s_r E_(w-r), and Newton's
identities write each s_r in the elementary symmetric functions, so every
intermediate is indexed by the partitions of the weight: p(k) entries
instead of the C(2k, k) monomials of an expansion over k variables.

The elliptic genus is the index of the Dirac operator twisted by the
standard exterior/symmetric power tower.  Per stable root pair its
factor is f_ahat(t) g(t, q), with g from :func:`twist_character`, where
the q^N coefficient of log g(x, q) is sum_(d|N) (-1)^(N/d) (2/d) cosh(dx)
(Zagier, *Note on the Landweber-Stong elliptic genus*, LNM 1326;
Hirzebruch-Berger-Jung, *Manifolds and Modular Forms*, 6).  F =
f_ahat(t) g(t, q) / g(0, q) has constant term 1, so a trivial stable
summand contributes F(0) = 1 and the character of T_C M keeps rank dim M
whatever the number of roots.  The elliptic genus of a 4k-manifold is
g(0, q)^(2k) times the genus of F, which is the genus of F(g(0, q)^2 t):
t -> lambda t multiplies the weight-k part by lambda^k.  That series is
:meth:`CharacteristicSeries.elliptic`, so both routes give the elliptic
genus itself and nothing is applied after the cross-check.  q^(-k/2) is
never materialized: all functions return the coefficients of
q^(k/2) * phi(M), indexed 0..N, so coefficient 0 is the A-hat genus and
coefficient 1 is minus the A-hat genus twisted by the complexified
tangent bundle.
"""
from __future__ import annotations

import warnings
from collections.abc import Mapping, Sequence
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from types import MappingProxyType

from .algebra import _ZERO, QSeries, Record, as_rational
from .errors import ConsistencyError, brief
from .manifolds import ManifoldModel, _own_ring, _pair_monomials, pontryagin_products

__all__ = [
    "CharacteristicSeries",
    "MultiplicativeSequence",
    "universal_k_polynomials",
    "l_sequence",
    "ahat_sequence",
    "evaluate_genus",
    "signature",
    "ahat",
    "twisted_ahat_polynomial",
    "twisted_ahat_tangent",
    "twist_character",
    "elliptic_polynomials",
    "elliptic_q_coefficients",
]

# a genus coefficient: a rational, or a scalar q-series
Coefficient = Fraction | QSeries


def _exp(first: Coefficient, logs: Sequence[Coefficient], order: int) -> list[Coefficient]:
    """Coefficients 0..order of first * exp(sum_(j>=1) logs[j] t^j), logs[j] = 0
    past the end: g_0 = first, r g_r = sum_(j=1..r) j logs[j] g_(r-j).  The
    values are all Fractions or all scalar q-series; logs[0] is not read."""
    weighted = [(j, logs[j] * j) for j in range(1, min(order, len(logs) - 1) + 1) if logs[j]]
    out = [first]
    zero = first * 0
    for r in range(1, order + 1):
        acc = zero
        for j, w in weighted:
            if j > r:
                break
            acc = acc + w * out[r - j]
        out.append(acc * Fraction(1, r))
    return out


@lru_cache(maxsize=None)
def _bernoulli(n: int) -> tuple[Fraction, ...]:
    """B_0..B_n (B_1 = -1/2), from sum_(i=0..m) C(m+1, i) B_i = 0 for m >= 1."""
    b = [Fraction(1)]
    for m in range(1, n + 1):
        b.append(-sum(comb(m + 1, i) * b[i] for i in range(m)) / (m + 1))
    return tuple(b)


def _nonnegative(what: str, order: int) -> int:
    if order < 0:
        raise ValueError(f"{what} must be nonnegative, not {order}")
    return order


def _twist_logs(q_order: int, x2_order: int) -> list[list[Fraction]]:
    """log g(x, q) by rows: [j][N] is sum_(d|N) (-1)^(N/d) 2 d^(2j-1) / (2j)!,
    the x^(2j) q^N coefficient of sum_(N, d|N) q^N (-1)^(N/d) (2/d) cosh(dx);
    row 0 is log g(0, q)."""
    _nonnegative("q-order", q_order)
    _nonnegative("x^2-order", x2_order)
    def coefficient(j: int, n: int) -> Fraction:
        return sum(Fraction((-1) ** (n // d) * 2 * d ** (2 * j), d) for d in range(1, n + 1) if n % d == 0)
    return [[Fraction(0)] + [coefficient(j, n) / factorial(2 * j) for n in range(1, q_order + 1)]
            for j in range(x2_order + 1)]


def _kind(c: Coefficient) -> str:
    return f"a q-series of q-order {c.order}" if isinstance(c, QSeries) else "a rational"


class CharacteristicSeries:
    """The power series f(t) = exp(sum_(j>=1) logs[j] t^j) in t = x^2
    defining a genus, stored as log f alone.  logs[j], the coefficient of
    x^(2j) in log f, is a Fraction for every j or a scalar q-series of one
    q-order for every j, and logs[0] must be zero; one = f(0) is the unit
    of that kind.  coeffs[j], the coefficient of x^(2j) in f, is derived
    from the logs on each read."""

    __slots__ = ("name", "logs", "one")
    # read-only fields as a Record has, but not its equality and hash: a
    # series is a cache key by identity
    _fill, __setattr__, __delattr__ = Record._fill, Record.__setattr__, Record.__delattr__

    def __init__(self, name: str, logs: Sequence[Coefficient]) -> None:
        logs = tuple(c if isinstance(c, QSeries) else as_rational(c) for c in logs)
        if not logs or logs[0]:
            raise ValueError("a characteristic series needs log f with constant term 0")
        kind = _kind(logs[0])
        for j, c in enumerate(logs):
            if _kind(c) != kind:
                raise ValueError(f"log f coefficient {j} is {brief(repr(c))}, not {kind} like coefficient 0")
        one = QSeries.constant(Fraction(1), logs[0].order) if isinstance(logs[0], QSeries) else Fraction(1)
        self._fill(name, logs, one)

    def __reduce__(self) -> tuple:  # copy and pickle rebuild through __init__
        return type(self), (self.name, self.logs)

    @property
    def coeffs(self) -> tuple[Coefficient, ...]:
        return tuple(_exp(self.one, self.logs, self.order))

    @property
    def order(self) -> int:
        return len(self.logs) - 1

    @classmethod
    def l_genus(cls, order: int) -> "CharacteristicSeries":
        # log(x/tanh x) = sum_(j>=1) 4^j (4^j - 2) B_2j t^j / (2j (2j)!)
        b = _bernoulli(2 * _nonnegative("x^2-order", order))
        logs = [4 ** j * (4 ** j - 2) * b[2 * j] / (2 * j * factorial(2 * j)) for j in range(1, order + 1)]
        return cls("signature", [Fraction(0)] + logs)

    @classmethod
    def ahat_genus(cls, order: int) -> "CharacteristicSeries":
        # log((x/2)/sinh(x/2)) = -sum_(j>=1) B_2j t^j / (2j (2j)!)
        b = _bernoulli(2 * _nonnegative("x^2-order", order))
        return cls("ahat", [Fraction(0)] + [-b[2 * j] / (2 * j * factorial(2 * j)) for j in range(1, order + 1)])

    @classmethod
    def elliptic(cls, q_order: int, order: int) -> "CharacteristicSeries":
        """F(g(0, q)^2 t) for F(t) = f_ahat(t) g(t, q) / g(0, q), the series
        whose genus is the elliptic genus, coefficients truncated at
        q^q_order: the t^j coefficient of log F, log f_ahat in the q^0
        place where log g has 0 plus row j of log g, times g(0, q)^(2j)."""
        ahat, twist = cls.ahat_genus(order).logs, _twist_logs(q_order, order)
        g0 = twist_character(q_order, 0)[0]
        square, scale = g0 * g0, QSeries.constant(Fraction(1), q_order)
        logs = [QSeries.constant(Fraction(0), q_order)]
        for j in range(1, order + 1):
            scale = scale * square
            logs.append(QSeries([ahat[j]] + twist[j][1:]) * scale)
        return cls("elliptic", logs)

    def evaluate_at(self, m: ManifoldModel) -> Coefficient:
        """<exp(sum_j l_j P_j), [M]> in m's own ring, P_j = sum mult t^j over
        its Pontryagin roots (t, mult): sum_lambda c_lambda <P_lambda, [M]>
        over the partitions lambda of k on a 4k-manifold, and 0 in another
        dimension.  A root is a degree-4 class, so P_lambda has degree
        4 |lambda| and no other weight reaches the fundamental class; with no
        roots only the empty partition, in dimension 0, pairs to nonzero.
        A product has no ring of its own, a ValueError: the roots route
        multiplies its factors' values."""
        ring, zero = _own_ring(m), self.logs[0]
        if m.real_dimension % 4:
            return zero
        k = m.real_dimension // 4
        table = _power_sum_coefficients(self, k)
        sums, powers = [], [t for t, _ in m.roots]  # P_1..P_k
        for j in range(k):
            if j:
                powers = [tp * t for tp, (t, _) in zip(powers, m.roots)]
            sums.append(sum((tp * mult for tp, (_, mult) in zip(powers, m.roots)), ring.zero()))
        numbers = _pair_monomials(m, sums, [lam for lam, _ in table])
        return sum((c * n for (_, c), n in zip(table, numbers) if n), zero)

    def __repr__(self) -> str:
        return f"CharacteristicSeries({self.name}, order={self.order})"


# ---------------------------------------------------------------------------
# the partition basis: symmetric polynomials in t_i = x_i^2
#
# A symmetric polynomial is a dict from partitions (non-increasing tuples)
# to coefficients; the partition (j1, j2, ...) names the monomial
# e_j1 e_j2 ... of elementary symmetric functions, i.e. p_j1 p_j2 ... in
# Pontryagin classes, of weight j1 + j2 + ... (degree 4 times that).


def _merge(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sorted(a + b, reverse=True))


@lru_cache(maxsize=None)
def _power_sum(r: int) -> dict[tuple[int, ...], int]:
    """s_r = sum_i t_i^r in the e-basis, by Newton's identities
    s_r = sum_(0<i<r) (-1)^(i-1) e_i s_(r-i) + (-1)^(r-1) r e_r."""
    out = {(r,): (-1) ** (r - 1) * r}
    for i in range(1, r):
        for lam, c in _power_sum(r - i).items():
            key = _merge(lam, (i,))
            out[key] = out.get(key, 0) + (-1) ** (i - 1) * c
    return {lam: c for lam, c in out.items() if c}


def _add_power_sum_times(out: dict, r: int, poly: Mapping, scale) -> None:
    """out += scale * s_r * poly."""
    s_r = _power_sum(r).items()
    for lam, c in poly.items():
        c = c * scale
        for mu, d in s_r:
            key = _merge(lam, mu)
            term = c * d
            cur = out.get(key)
            out[key] = term if cur is None else cur + term


def _symmetric_expansion(one: Coefficient, logs: Sequence[Coefficient], max_weight: int) -> list[dict]:
    """Weight parts E_0..E_max_weight of prod_i f(t_i) in the e-basis, for
    f(t) = exp(sum_r logs[r] t^r) with unit coefficient one.

    Coefficients may be Fractions or scalar QSeries.  The weight parts
    obey w E_w = sum_r r logs[r] s_r E_(w-r).
    """
    parts: list[dict] = [{(): one}]
    for w in range(1, max_weight + 1):
        out: dict = {}
        for r in range(1, w + 1):
            if logs[r]:
                _add_power_sum_times(out, r, parts[w - r], logs[r] * Fraction(r, w))
        parts.append({lam: c for lam, c in out.items() if c})
    return parts


# ---------------------------------------------------------------------------
# universal polynomials in Pontryagin classes


class MultiplicativeSequence:
    """K_0, K_1, ..., K_max for a characteristic series: K_j is a
    polynomial in p_1..p_j stored as partition -> coefficient.  The
    fields and tables are read-only, as the cached sequences are shared."""

    __slots__ = ("name", "max_weight", "weights", "source")
    # read-only fields as a Record has, but not its equality and hash, as
    # for a CharacteristicSeries
    _fill, __setattr__, __delattr__ = Record._fill, Record.__setattr__, Record.__delattr__

    def __init__(self, weights: Mapping[int, Mapping[tuple[int, ...], Coefficient]],
                 source: CharacteristicSeries) -> None:
        tables = MappingProxyType({w: MappingProxyType(dict(table)) for w, table in weights.items()})
        self._fill(source.name, len(weights) - 1, tables, source)

    def __reduce__(self) -> tuple:  # copy and pickle rebuild through __init__
        return type(self), ({w: dict(table) for w, table in self.weights.items()}, self.source)

    def polynomial(self, weight: int) -> dict[tuple[int, ...], Coefficient]:
        if not 0 <= weight <= self.max_weight:
            raise ValueError(f"{self.name} sequence only carries weights 0..{self.max_weight}")
        return dict(self.weights[weight])

    def evaluate_top(self, numbers: Mapping[tuple[int, ...], Fraction], weight: int) -> Coefficient:
        """sum_I K_weight[I] * numbers[I], given the Pontryagin numbers
        <p_I, [M]> of a 4*weight-manifold for the partitions I of K_weight."""
        acc = self.source.logs[0]  # the zero of the coefficient kind
        for partition, coeff in self.weights[weight].items():
            number = numbers[partition]
            if number:
                acc = acc + coeff * number
        return acc

    def __repr__(self) -> str:
        return f"MultiplicativeSequence({self.name}, max_weight={self.max_weight})"


def universal_k_polynomials(series: CharacteristicSeries, max_weight: int) -> MultiplicativeSequence:
    """prod f(x_i) as polynomials in the Pontryagin classes, weight by weight;
    the partition basis is stable in the number of variables by construction."""
    if max_weight < 0:
        raise ValueError(f"a multiplicative sequence needs a nonnegative max weight, not {max_weight}")
    if series.order < max_weight:
        raise ValueError(f"series {series.name} carries x^2-order {series.order}, need {max_weight}")
    weights = dict(enumerate(_symmetric_expansion(series.one, series.logs, max_weight)))
    return MultiplicativeSequence(weights, series)


@lru_cache(maxsize=None)
def l_sequence(max_weight: int) -> MultiplicativeSequence:
    return universal_k_polynomials(CharacteristicSeries.l_genus(max_weight + 1), max_weight)


@lru_cache(maxsize=None)
def ahat_sequence(max_weight: int) -> MultiplicativeSequence:
    return universal_k_polynomials(CharacteristicSeries.ahat_genus(max_weight + 1), max_weight)


@lru_cache(maxsize=None)
def _elliptic_sequence(k: int, order: int) -> MultiplicativeSequence:
    """The universal polynomials of the elliptic series F(g(0, q)^2 t),
    F = f_ahat g / g(0, q), up to weight k, coefficients truncated at
    q^order; the weight-k table is the elliptic genus of a 4k-manifold."""
    return universal_k_polynomials(CharacteristicSeries.elliptic(order, k + 1), k)


# ---------------------------------------------------------------------------
# the two routes


_POWER_SUM_TABLES = 64  # how many (series, weight) tables _power_sum_coefficients keeps


@lru_cache(maxsize=_POWER_SUM_TABLES)
def _power_sum_coefficients(series: CharacteristicSeries,
                            k: int) -> tuple[tuple[tuple[int, ...], Coefficient], ...]:
    """The weight-k part of exp(sum_j l_j P_j) as pairs (lambda, c_lambda)
    over the partitions lambda of k, parts non-increasing, c_lambda =
    prod_j l_j^(m_j) / m_j! for m_j the multiplicity of j in lambda
    (Macdonald, *Symmetric Functions*, I.2); a part j with l_j = 0 gives
    c_lambda = 0, and such lambda are left out.  Keyed by the series
    object, which is read-only."""
    if series.order < k:
        raise ValueError(f"series {series.name} carries x^2-order {series.order}, need {k}")
    # partitions of weight <= k into the parts seen so far, largest first
    table = {(): series.one}
    for j in range(k, 0, -1):
        l_j = series.logs[j]
        if not l_j:
            continue
        for lam, c in list(table.items()):
            for mult in range(1, (k - sum(lam)) // j + 1):
                c = c * l_j * Fraction(1, mult)
                table[lam + (j,) * mult] = c
    return tuple((lam, c) for lam, c in table.items() if sum(lam) == k)


def _roots_route(m: ManifoldModel, series: CharacteristicSeries) -> Coefficient:
    """The genus of series on m from its Pontryagin roots, the power-sum
    monomials paired with the fundamental class; on a product, the
    product of those values on its prime factors, never its own ring.  A
    zero is the shared ``_ZERO``, wherever the product made it."""
    value = None
    for factor in m.factors or (m,):
        total = series.evaluate_at(factor)
        value = total if value is None else value * total
    return value if isinstance(value, QSeries) else value or _ZERO


def _universal_route(m: ManifoldModel, seq: MultiplicativeSequence) -> Coefficient:
    """The genus of seq.source on m from its Pontryagin numbers: a prime's paired in its own
    ring, a product's folded from its factors' by :func:`pontryagin_products`."""
    k = m.real_dimension // 4
    partitions = list(seq.weights[k])
    return seq.evaluate_top(dict(zip(partitions, pontryagin_products(m, partitions))), k)


def _cross_checked(m: ManifoldModel, what: str, seq: MultiplicativeSequence) -> Coefficient:
    """The value on m by both routes, which must agree.  The roots route's
    is returned: its zeros, read off by ``pair`` or mapped after a product
    of factors, share one Fraction."""
    value = _universal_route(m, seq)
    direct = _roots_route(m, seq.source)
    if direct != value:
        raise ConsistencyError(
            f"{what} pipelines disagree on {m.name}: universal {value}, roots {direct}"
        )
    return direct


# ---------------------------------------------------------------------------
# genus evaluation


def evaluate_genus(m: ManifoldModel, seq: MultiplicativeSequence) -> Fraction:
    """Genus of m under seq; 0 (with a warning) when dim is not a multiple of 4.

    The value is computed through both routes and they must agree exactly.
    """
    return _genus(m, seq)


def _genus(m: ManifoldModel, seq: MultiplicativeSequence) -> Fraction:
    """evaluate_genus, called from each public genus function, so the
    warning points at that function's caller."""
    dim = m.real_dimension
    if dim % 4:
        warnings.warn(
            f"{brief(m.name)} has dimension {dim}, not divisible by 4; genus is 0 by convention",
            stacklevel=3,
        )
        return Fraction(0)
    k = dim // 4
    if seq.max_weight < k:
        raise ValueError(f"sequence {seq.name} carries weight <= {seq.max_weight}, need {k}")
    return _cross_checked(m, "genus", seq)


def signature(m: ManifoldModel) -> Fraction:
    return _genus(m, l_sequence(m.real_dimension // 4))


def ahat(m: ManifoldModel) -> Fraction:
    return _genus(m, ahat_sequence(m.real_dimension // 4))


# ---------------------------------------------------------------------------
# the q-twist


@lru_cache(maxsize=None)
def twist_character(q_order: int, x2_order: int) -> tuple[QSeries, ...]:
    """The per-root-pair factor of the exterior/symmetric power tower,
    g(x, q) = prod over odd n of (1 - q^n e^x)(1 - q^n e^-x) times the
    inverses of the same expressions over even n, truncated at q^q_order.
    It is even in x: entry j is the scalar q-series multiplying x^(2j),
    and entry 0 is g(0, q).  Both come from log g by the one recurrence:
    g(0, q) in q, then g(0, q) exp(sum_(j>=1) log g_j t^j) in t."""
    logs = _twist_logs(q_order, x2_order)
    g0 = QSeries(_exp(Fraction(1), logs[0], q_order))
    return tuple(_exp(g0, [QSeries(row) for row in logs], x2_order))


@lru_cache(maxsize=None)
def elliptic_polynomials(k: int, order: int) -> tuple[Mapping[tuple[int, ...], Fraction], ...]:
    """The q-coefficients 0..order of q^(k/2) * phi as polynomials in the
    Pontryagin classes of a 4k-manifold, one partition table per power of q:
    the weight-k universal polynomial of the elliptic series, split by q."""
    top = [(lam, s.coeffs) for lam, s in _elliptic_sequence(k, order).weights[k].items()]  # each read builds a list
    return tuple(MappingProxyType({lam: c[n] for lam, c in top if c[n]}) for n in range(order + 1))


def elliptic_q_coefficients(m: ManifoldModel, order: int | None = None) -> list[Fraction]:
    """Coefficients 0..N of q^(k/2) * phi(M), all exact rationals.

    Coefficient 0 is the A-hat genus; coefficient 1 is minus the A-hat
    genus twisted by the complexified tangent bundle.  For spin models
    every coefficient is an integer.  Both routes run and must agree
    exactly.
    """
    dim = m.real_dimension
    if dim % 4:
        raise ValueError(f"{brief(m.name)} has dimension {dim}; the expansion needs a multiple of 4")
    k = dim // 4
    return _cross_checked(m, "elliptic genus", _elliptic_sequence(k, k if order is None else order)).coeffs


# ---------------------------------------------------------------------------
# twisted A-hat: minus the q^1 coefficient of the elliptic genus


@lru_cache(maxsize=None)
def twisted_ahat_polynomial(k: int) -> Mapping[tuple[int, ...], Fraction]:
    """A-hat(M) ch(T_C M) of a 4k-manifold as a polynomial in its
    Pontryagin classes, rank(T_C M) = dim M."""
    return MappingProxyType({lam: -c for lam, c in elliptic_polynomials(k, 1)[1].items()})


def twisted_ahat_tangent(m: ManifoldModel) -> Fraction:
    """A-hat genus twisted by ch of the complexified tangent bundle, whose
    rank is dim M however many Pontryagin roots the model lists."""
    dim = m.real_dimension
    if dim % 4:
        raise ValueError(f"{brief(m.name)} has dimension {dim}; the twisted genus needs a multiple of 4")
    return -_cross_checked(m, "twisted A-hat", _elliptic_sequence(dim // 4, 1)).coeffs[1]
