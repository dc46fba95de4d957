"""Multiplicative genera and the twisted Dirac q-expansion.

A genus is encoded by an even power series f(x) = 1 + f_2 x^2 + f_4 x^4
+ ... ; its value on a manifold can be computed two independent ways:

* root pipeline: evaluate the product of f over the stable tangent
  roots and pair the result (only for root-split tangent data);
* universal pipeline: write the product of f over formal variables as a
  polynomial in their elementary symmetric functions, i.e. in the
  Pontryagin classes, and pair its Pontryagin monomials.

The universal polynomials are computed in the partition basis
(Milnor-Stasheff, *Characteristic Classes*, 19; Macdonald, *Symmetric
Functions*, I.2).  With t = x^2 and f(t) = f_0 * exp(sum_r l_r t^r),
the product over the variables t_i is f_0^n * exp(sum_r l_r s_r), where
s_r = sum_i t_i^r are the power sums.  Its weight parts obey the
recursion w E_w = sum_r r l_r s_r E_(w-r), and Newton's identities write
each s_r in the elementary symmetric functions, so every intermediate
is indexed by the partitions of the weight: p(k) entries instead of the
C(2k, k) monomials of an expansion over k variables.  The arithmetic
only adds and multiplies coefficients, which are rationals for
ordinary genera and scalar q-series for the twisted ones.

Both routes are run whenever root data is available and must agree
exactly; a mismatch raises :class:`ConsistencyError`.

The q-expansion of the Dirac operator twisted by the standard exterior/
symmetric power tower is handled the same way.  The fractional leading
exponent q^(-k/2) is never materialized: all functions return the
coefficients of q^(k/2) * phi(M), indexed 0..N, so coefficient 0 is the
A-hat genus and coefficient 1 is minus the A-hat genus twisted by the
complexified tangent bundle.  Trivial stable summands enter through an
explicit rank-correction factor so the character of T_C M keeps rank
equal to dim M.
"""
from __future__ import annotations

import warnings
from fractions import Fraction
from functools import lru_cache
from math import factorial
from types import MappingProxyType
from typing import Callable, Mapping, Sequence

from .algebra import GradedElement, QSeries, as_rational
from .errors import ConsistencyError
from .manifolds import (
    ExplicitPontryagin,
    ManifoldModel,
    StableRoots,
    pair,
    pontryagin_classes,
)

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
    "TwistCharacter",
    "twist_character",
    "elliptic_polynomials",
    "elliptic_q_coefficients",
]


# ---------------------------------------------------------------------------
# one-variable even series over Q (coefficient index j <-> x^(2j))


def _mul_even(a: Sequence[Fraction], b: Sequence[Fraction], order: int) -> list[Fraction]:
    out = [Fraction(0)] * (order + 1)
    for i, ai in enumerate(a[: order + 1]):
        if not ai:
            continue
        for j in range(order + 1 - i):
            if b[j]:
                out[i + j] += ai * b[j]
    return out


def _inv_even(a: Sequence[Fraction], order: int) -> list[Fraction]:
    if a[0] != 1:
        raise ValueError("series inversion here assumes constant term 1")
    out = [Fraction(1)] + [Fraction(0)] * order
    for n in range(1, order + 1):
        acc = Fraction(0)
        for i in range(1, n + 1):
            if i < len(a) and a[i]:
                acc += a[i] * out[n - i]
        out[n] = -acc
    return out


class CharacteristicSeries:
    """The even power series f(x) defining a genus; coeffs[j] is the
    coefficient of x^(2j), and coeffs[0] must be 1."""

    __slots__ = ("name", "coeffs")

    def __init__(self, name: str, coeffs: Sequence[Fraction]) -> None:
        coeffs = tuple(as_rational(c) for c in coeffs)
        if not coeffs or coeffs[0] != 1:
            raise ValueError("a characteristic series starts with constant term 1")
        self.name = name
        self.coeffs = coeffs

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def l_genus(cls, order: int) -> "CharacteristicSeries":
        # x/tanh(x) = cosh(x) / (sinh(x)/x), both even in x
        sinh_over_x = [Fraction(1, factorial(2 * j + 1)) for j in range(order + 1)]
        cosh = [Fraction(1, factorial(2 * j)) for j in range(order + 1)]
        return cls("signature", _mul_even(cosh, _inv_even(sinh_over_x, order), order))

    @classmethod
    def ahat_genus(cls, order: int) -> "CharacteristicSeries":
        # (x/2)/sinh(x/2) = 1 / (sinh(u)/u) at u = x/2
        s = [Fraction(1, 4 ** j * factorial(2 * j + 1)) for j in range(order + 1)]
        return cls("ahat", _inv_even(s, order))

    def evaluate_at(self, x: GradedElement) -> GradedElement:
        """f(x) for a nilpotent degree-2 ring element x."""
        t = x * x
        acc = x.ring.scalar(self.coeffs[0])
        tp = x.ring.one()
        for j in range(1, len(self.coeffs)):
            tp = tp * t
            if tp.is_zero:
                break
            if self.coeffs[j]:
                acc = acc + tp * self.coeffs[j]
        return acc

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


def _symmetric_expansion(factor: Sequence, max_weight: int) -> list[dict]:
    """Weight parts E_0..E_max_weight of prod_i F(t_i) in the e-basis,
    for F(t) = sum_j factor[j] t^j with factor[0] the unit coefficient.

    Coefficients may be Fractions or scalar QSeries.  With
    log F = sum_r l_r t^r, the values m[r] = r l_r come from
    t F'(t) = t (log F)'(t) F(t), and the weight parts from
    w E_w = sum_r m[r] s_r E_(w-r).
    """
    m = [None]
    for r in range(1, max_weight + 1):
        acc = factor[r] * r
        for j in range(1, r):
            acc = acc - m[j] * factor[r - j]
        m.append(acc)
    parts: list[dict] = [{(): factor[0]}]
    for w in range(1, max_weight + 1):
        out: dict = {}
        for r in range(1, w + 1):
            if m[r]:
                _add_power_sum_times(out, r, parts[w - r], m[r] * Fraction(1, w))
        parts.append({lam: c for lam, c in out.items() if c})
    return parts


# ---------------------------------------------------------------------------
# universal polynomials in Pontryagin classes


class MultiplicativeSequence:
    """K_0, K_1, ..., K_max for a characteristic series: K_j is a
    polynomial in p_1..p_j stored as partition -> coefficient."""

    __slots__ = ("name", "max_weight", "weights", "source")

    def __init__(
        self,
        name: str,
        max_weight: int,
        weights: Mapping[int, Mapping[tuple[int, ...], Fraction]],
        source: CharacteristicSeries,
    ) -> None:
        self.name = name
        self.max_weight = max_weight
        self.weights = {w: dict(weights.get(w, {})) for w in range(max_weight + 1)}
        self.source = source

    def polynomial(self, weight: int) -> dict[tuple[int, ...], Fraction]:
        if weight > self.max_weight:
            raise ValueError(f"{self.name} sequence only carries weights <= {self.max_weight}")
        return dict(self.weights[weight])

    def evaluate_top(self, p: Sequence[GradedElement], weight: int, ring) -> GradedElement:
        acc = ring.zero()
        for partition, coeff in self.weights[weight].items():
            mono = ring.scalar(coeff)
            for part in partition:
                mono = mono * p[part - 1]
            acc = acc + mono
        return acc

    def __repr__(self) -> str:
        return f"MultiplicativeSequence({self.name}, max_weight={self.max_weight})"


def universal_k_polynomials(
    series: CharacteristicSeries,
    max_weight: int,
    num_vars: int | None = None,
) -> MultiplicativeSequence:
    """prod f(x_i) as polynomials in the Pontryagin classes, weight by weight.

    The number of formal variables defaults to max_weight; anything
    >= max_weight gives the same answer (stability), fewer variables
    cannot see all elementary symmetric functions and is rejected.
    """
    if series.order < max_weight:
        raise ValueError(
            f"series {series.name} carries x^2-order {series.order}, need {max_weight}"
        )
    nvars = max_weight if num_vars is None else num_vars
    if nvars < max_weight:
        raise ValueError("need at least as many formal variables as the weight")
    weights = dict(enumerate(_symmetric_expansion(series.coeffs, max_weight)))
    return MultiplicativeSequence(series.name, max_weight, weights, series)


@lru_cache(maxsize=None)
def l_sequence(max_weight: int) -> MultiplicativeSequence:
    return universal_k_polynomials(CharacteristicSeries.l_genus(max_weight + 1), max_weight)


@lru_cache(maxsize=None)
def ahat_sequence(max_weight: int) -> MultiplicativeSequence:
    return universal_k_polynomials(CharacteristicSeries.ahat_genus(max_weight + 1), max_weight)


# ---------------------------------------------------------------------------
# genus evaluation


def _cross_checked(m: ManifoldModel, what: str, universal: Callable, roots: Callable):
    """The universal value on m, confirmed by the roots route whenever m
    carries tangent roots."""
    value = universal(m)
    if isinstance(m.tangent, StableRoots):
        direct = roots(m)
        if direct != value:
            raise ConsistencyError(
                f"{what} pipelines disagree on {m.name}: universal {value}, roots {direct}"
            )
    return value


def _pontryagin_dot(m: ManifoldModel, polys: Sequence[Mapping[tuple[int, ...], Fraction]]) -> list[Fraction]:
    """sum_I poly[I] * <p_I, [m]> for each poly, in one Pontryagin-number pass."""
    p = pontryagin_classes(m)
    values = [Fraction(0)] * len(polys)
    for partition in dict.fromkeys(I for poly in polys for I in poly):
        mono = m.ring.one()
        for part in partition:
            mono = mono * p[part - 1]
        pnum = pair(m, mono)
        if pnum:
            for j, poly in enumerate(polys):
                if partition in poly:
                    values[j] += poly[partition] * pnum
    return values


def evaluate_genus(m: ManifoldModel, seq: MultiplicativeSequence) -> Fraction:
    """Genus of m under seq; 0 (with a warning) when dim is not a multiple of 4.

    When the model carries tangent roots the value is computed through
    both pipelines and they must agree exactly.
    """
    dim = m.real_dimension
    if dim % 4:
        warnings.warn(
            f"{m.name} has dimension {dim}, not divisible by 4; genus is 0 by convention",
            stacklevel=2,
        )
        return Fraction(0)
    k = dim // 4
    if seq.max_weight < k:
        raise ValueError(f"sequence {seq.name} carries weight <= {seq.max_weight}, need {k}")

    def roots(m: ManifoldModel) -> Fraction:
        total = m.ring.one()
        for x in m.tangent.roots:
            total = total * seq.source.evaluate_at(x)
        return pair(m, total)

    return _cross_checked(
        m, "genus", lambda m: pair(m, seq.evaluate_top(pontryagin_classes(m), k, m.ring)), roots
    )


def signature(m: ManifoldModel) -> Fraction:
    return evaluate_genus(m, l_sequence(m.real_dimension // 4))


def ahat(m: ManifoldModel) -> Fraction:
    return evaluate_genus(m, ahat_sequence(m.real_dimension // 4))


# ---------------------------------------------------------------------------
# the q-twist


class TwistCharacter:
    """Per-root-pair factor of the exterior/symmetric power tower.

    g(x, q) = prod over odd n of (1 - q^n e^x)(1 - q^n e^-x) times the
    inverses of the same expressions over even n, truncated at the given
    q-order.  The result is even in x; x2_coeffs[j] is the scalar
    q-series multiplying x^(2j).  g(0, q) governs the rank correction
    for stable trivial summands.
    """

    __slots__ = ("q_order", "x2_order", "x2_coeffs")

    def __init__(self, q_order: int, x2_order: int, x2_coeffs: Sequence[QSeries]) -> None:
        self.q_order = q_order
        self.x2_order = x2_order
        self.x2_coeffs = tuple(x2_coeffs)

    def scalar_part(self) -> QSeries:
        return self.x2_coeffs[0]

    def __repr__(self) -> str:
        return f"TwistCharacter(q_order={self.q_order}, x2_order={self.x2_order})"


def _bimul(a: list[list[Fraction]], b: list[list[Fraction]], nmax: int, rmax: int) -> list[list[Fraction]]:
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


@lru_cache(maxsize=None)
def twist_character(q_order: int, x2_order: int) -> TwistCharacter:
    n_max, r_max = q_order, 2 * x2_order
    grid = [[Fraction(0)] * (r_max + 1) for _ in range(n_max + 1)]
    grid[0][0] = Fraction(1)

    def exp_row(rate: int) -> list[Fraction]:
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
    coeffs = [QSeries([grid[n][2 * j] for n in range(n_max + 1)]) for j in range(x2_order + 1)]
    return TwistCharacter(q_order, x2_order, coeffs)


def _lift_scalar_series(s: QSeries, ring) -> QSeries:
    one = ring.one()
    return QSeries([one * c for c in s.coeffs])


def _elliptic_roots(m: ManifoldModel, order: int) -> list[Fraction]:
    k = m.real_dimension // 4
    x2_order = k + 1
    tw = twist_character(order, x2_order)
    ah = CharacteristicSeries.ahat_genus(x2_order)
    one = m.ring.one()
    roots = m.tangent.roots
    aclass = one
    acc = QSeries([one] + [m.ring.zero()] * order)
    for x in roots:
        t = x * x
        tpowers = [one]
        for _ in range(x2_order):
            tpowers.append(tpowers[-1] * t)
        aclass = aclass * _poly_at(ah.coeffs, tpowers, m)
        g_coeffs = []
        for n in range(order + 1):
            coeff = m.ring.zero()
            for j, tp in enumerate(tpowers):
                scal = tw.x2_coeffs[j].coeffs[n]
                if scal and not tp.is_zero:
                    coeff = coeff + tp * scal
            g_coeffs.append(coeff)
        acc = acc * QSeries(g_coeffs)
    correction = tw.scalar_part() ** (m.real_dimension // 2 - len(roots))
    acc = acc * _lift_scalar_series(correction, m.ring)
    return [pair(m, aclass * acc.coeffs[n]) for n in range(order + 1)]


def _poly_at(coeffs: Sequence[Fraction], tpowers: Sequence[GradedElement], m: ManifoldModel) -> GradedElement:
    acc = m.ring.zero()
    for j, c in enumerate(coeffs):
        if j < len(tpowers) and c and not tpowers[j].is_zero:
            acc = acc + tpowers[j] * c
    return acc


@lru_cache(maxsize=None)
def elliptic_polynomials(k: int, order: int) -> tuple[Mapping[tuple[int, ...], Fraction], ...]:
    """The q-coefficients 0..order of q^(k/2) * phi as polynomials in the
    Pontryagin classes of a 4k-manifold, one partition table per power of q.

    Per root pair the factor is F(t, q) = f_ahat(t) * g(t, q); its
    constant term g(0, q) is factored out before the expansion and put
    back once per stable root pair, dim/2 = 2k times in all.
    """
    if order < 0:
        raise ValueError("q-order must be nonnegative")
    tw = twist_character(order, k + 1)
    ah = CharacteristicSeries.ahat_genus(k + 1)
    g0 = tw.scalar_part()
    unit = g0.inverse()
    factor = []
    for j in range(k + 1):
        acc = QSeries.constant(Fraction(0), order)
        for i in range(j + 1):
            if ah.coeffs[i]:
                acc = acc + tw.x2_coeffs[j - i] * ah.coeffs[i]
        factor.append(acc * unit)
    top = _symmetric_expansion(factor, k)[k]
    correction = g0 ** (2 * k)
    series = {lam: c * correction for lam, c in top.items()}
    return tuple(
        MappingProxyType({lam: s.coeffs[n] for lam, s in series.items() if s.coeffs[n]})
        for n in range(order + 1)
    )


def _elliptic_universal(m: ManifoldModel, order: int) -> list[Fraction]:
    return _pontryagin_dot(m, elliptic_polynomials(m.real_dimension // 4, order))


def elliptic_q_coefficients(m: ManifoldModel, order: int | None = None) -> list[Fraction]:
    """Coefficients 0..N of q^(k/2) * phi(M), all exact rationals.

    Coefficient 0 is the A-hat genus; coefficient 1 is minus the A-hat
    genus twisted by the complexified tangent bundle.  For spin models
    every coefficient is an integer.  Root-split models are computed
    through both pipelines, which must agree exactly.
    """
    dim = m.real_dimension
    if dim % 4:
        raise ValueError(f"{m.name} has dimension {dim}; the expansion needs a multiple of 4")
    if order is None:
        order = dim // 4
    return _cross_checked(
        m, "elliptic genus",
        lambda m: _elliptic_universal(m, order), lambda m: _elliptic_roots(m, order),
    )


# ---------------------------------------------------------------------------
# twisted A-hat


@lru_cache(maxsize=None)
def twisted_ahat_polynomial(k: int) -> Mapping[tuple[int, ...], Fraction]:
    """A-hat(M) ch(T_C M) of a 4k-manifold as a polynomial in its
    Pontryagin classes: the A-hat expansion times the character
    dim + sum_r 2/(2r)! s_r, which keeps rank(T_C M) = dim M."""
    parts = ahat_sequence(k).weights
    out = {lam: c * (4 * k) for lam, c in parts[k].items()}
    for r in range(1, k + 1):
        _add_power_sum_times(out, r, parts[k - r], Fraction(2, factorial(2 * r)))
    return MappingProxyType({lam: c for lam, c in out.items() if c})


def _twisted_roots(m: ManifoldModel) -> Fraction:
    x2_order = m.real_dimension // 4 + 1
    ah = CharacteristicSeries.ahat_genus(x2_order)
    one = m.ring.one()
    aclass = one
    ch = m.ring.scalar(m.real_dimension - 2 * len(m.tangent.roots))
    for x in m.tangent.roots:
        t = x * x
        tpowers = [one]
        for _ in range(x2_order):
            tpowers.append(tpowers[-1] * t)
        aclass = aclass * _poly_at(ah.coeffs, tpowers, m)
        term = m.ring.scalar(2)
        for r in range(1, x2_order + 1):
            if not tpowers[r].is_zero:
                term = term + tpowers[r] * Fraction(2, factorial(2 * r))
        ch = ch + term
    return pair(m, aclass * ch)


def twisted_ahat_tangent(m: ManifoldModel) -> Fraction:
    """A-hat genus twisted by ch of the complexified tangent bundle.

    The character keeps rank(T_C M) = dim M: stable root lists longer
    than dim/2 are compensated by an explicit constant correction.
    """
    dim = m.real_dimension
    if dim % 4:
        raise ValueError(f"{m.name} has dimension {dim}; the twisted genus needs a multiple of 4")
    return _cross_checked(
        m, "twisted A-hat",
        lambda m: _pontryagin_dot(m, [twisted_ahat_polynomial(dim // 4)])[0], _twisted_roots,
    )
