"""Cohomology models of the manifolds the calculator knows how to build.

A manifold model is a truncated cohomology ring, a tangent description,
and the pairing monomial that evaluates a top-degree class against the
fundamental class.  The tangent description is one tuple of Pontryagin
roots ``(t, m)``: t is a degree-4 class and m a nonzero integer, and the
total Pontryagin class is the product of (1 + t)^m.  A negative m marks
a virtual summand.

* A complex root x of the stable tangent bundle gives t = x^2.  CP^n
  has (b^2, n+1) from the splitting T + C = (n+1) H.  A projectivized
  sum of line bundles P(E) over CP^l has (b^2, l+1) from the base plus
  ((a + d b)^2, m) along the fibres for each distinct twist d, m the
  number of summands twisted by d.  P(E) is spin when the first Chern
  class r a + (l+1+sum d_i) b is even.
* Quaternionic projective space HP^n has (u, 2n+2) and (4u, -1), read
  off p(HP^n) = (1+u)^(2n+2) (1+4u)^(-1) (Borel-Hirzebruch, Amer. J.
  Math. 80, 1958).

The list is stable: trivial summands are not listed, as they add nothing
to the Pontryagin class and every genus series has constant term 1.  A
product records its prime factors, nested products flattened, and is
nothing more: it has no ring, roots or pairing monomial of its own.  Its
Pontryagin numbers are folded from its factors' (Whitney product formula,
Milnor-Stasheff, *Characteristic Classes*, 15).  Models are immutable:
each attribute is set once.

A family scan builds a few equal rings many times, and a ring's
reduction table is its one memo, so the builders hand out one ring per
input they keep building (``_ring``).  The first build of an input
leaves only its key, and its model owns the ring; the second build's
ring is kept, and from the third build on that ring is returned and no
ring is built.  One registry holds the 128 inputs built last, one-off
and kept together, least recently built forgotten first, so memory stays
bounded however many models a caller builds; it is read and updated
under one lock.  An input is its integers after ``index()``, so a float
is refused as it always was.  A ring built by hand shares nothing.
"""
from __future__ import annotations

from _thread import allocate_lock
from collections import Counter
from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import lru_cache
from operator import index

from .algebra import _ZERO, GradedElement, Record, RingSpec
from .errors import brief

__all__ = [
    "LineBundleSum",
    "ManifoldModel",
    "build_point",
    "build_cp",
    "build_hp",
    "build_proj_bundle",
    "product",
    "total_pontryagin",
    "pontryagin_classes",
    "pontryagin_products",
    "pair",
    "is_spin",
]


class LineBundleSum(Record):
    """A sum of powers of the tautological line bundle over CP^base_dim,
    plus trivial summands encoded as degree 0."""

    __slots__ = ("base_dim", "degrees")

    def __init__(self, base_dim: int, degrees: Sequence[int]) -> None:
        base_dim = index(base_dim)
        if base_dim < 1:
            raise ValueError("base projective space must have positive dimension")
        if not degrees:
            raise ValueError("the bundle needs at least one summand")
        self._fill(base_dim, tuple(map(index, degrees)))

    @property
    def rank(self) -> int:
        return len(self.degrees)


class ManifoldModel:
    """Everything the genus and cobordism machinery needs about one manifold.

    factors is empty on a prime model and lists a product's prime factors, in order; a product's ring
    and roots are None and its pairing monomial is empty, as everything is read off its factors.
    Attributes are read-only; models are equal only when identical."""

    __slots__ = ("name", "real_dimension", "ring", "roots", "pairing_exponents", "spin",
                 "curvature_certificate", "factors")
    # read-only fields as a Record has, but not its equality and hash: the roots are unhashable
    _fill, __setattr__, __delattr__ = Record._fill, Record.__setattr__, Record.__delattr__

    def __init__(
        self,
        name: str,
        real_dimension: int,
        ring: RingSpec | None,
        roots: Sequence[tuple[GradedElement, int]] | None,
        pairing_exponents: tuple[int, ...],
        spin: bool,
        curvature_certificate: str | None = None,
        factors: Sequence[ManifoldModel] = (),
    ) -> None:
        if real_dimension < 0 or real_dimension % 2:
            raise ValueError("models here all have even nonnegative dimension")
        if factors:
            if ring is not None or roots is not None or pairing_exponents or any(f.factors for f in factors) \
                    or real_dimension != sum(f.real_dimension for f in factors):
                raise ValueError("a product has prime factors, their dimension and no ring, roots or pairing monomial")
        elif len(pairing_exponents) != ring.ngens:
            raise ValueError("pairing monomial does not match the ring")
        elif ring.degree_of(pairing_exponents) != real_dimension:
            raise ValueError("pairing monomial degree must equal the real dimension")
        self._fill(name, real_dimension, ring, None if factors else tuple(roots), tuple(pairing_exponents),
                   bool(spin), curvature_certificate, tuple(factors))

    def __reduce__(self) -> tuple:  # copy and pickle rebuild through __init__, a product from its factors
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self) -> str:
        return f"ManifoldModel({self.name}, dim={self.real_dimension})"


# ---------------------------------------------------------------------------
# builders

_KEPT = 128  # how many inputs _RINGS remembers, least recently built first
_RINGS: dict[tuple, RingSpec | None] = {}  # builder input -> None once built, then the ring its builds share
_BUILDING = allocate_lock()  # _ring reads and updates _RINGS at once


def _ring(generators: tuple, top: int, rules: dict) -> RingSpec:
    """RingSpec(generators, top, rules), kept for an input built again (module docstring).  A
    builder passes its integers after ``index()``: a float compares equal to the int it spells,
    so a lookup by it would skip the checks that refuse it."""
    key = (generators, top, tuple((g, p, tuple(rhs.items())) for g, (p, rhs) in rules.items()))
    with _BUILDING:
        built = key in _RINGS
        ring = _RINGS.pop(key, None)  # popped to go back last
        if ring is None:
            ring = RingSpec(generators, top, rules)
        _RINGS[key] = ring if built else None  # kept from the second build on
        if len(_RINGS) > _KEPT:
            del _RINGS[next(iter(_RINGS))]
    return ring


def build_point() -> ManifoldModel:
    ring = RingSpec([], 0)
    return ManifoldModel("pt", 0, ring, (), (), spin=True)


def build_cp(n: int) -> ManifoldModel:
    """Complex projective space CP^n: ring Q[b]/(b^(n+1)), Pontryagin root b^2 of multiplicity n+1."""
    n = index(n)
    if n < 1:
        raise ValueError("CP^n needs n >= 1")
    ring = _ring((("b", 2),), 2 * n, {"b": (n + 1, {})})
    b = ring.gen("b")
    # first Chern class of the stable splitting is (n+1) b
    return ManifoldModel(
        f"cp:{n}", 2 * n, ring, ((b * b, n + 1),), (n,), spin=(n % 2 == 1),
        curvature_certificate="symmetric space metric",
    )


def build_hp(n: int) -> ManifoldModel:
    """Quaternionic projective space HP^n: ring Q[u]/(u^(n+1)), Pontryagin
    roots u of multiplicity 2n+2 and 4u of multiplicity -1."""
    n = index(n)
    if n < 1:
        raise ValueError("HP^n needs n >= 1")
    ring = _ring((("u", 4),), 4 * n, {"u": (n + 1, {})})
    u = ring.gen("u")
    return ManifoldModel(
        f"hp:{n}", 4 * n, ring, ((u, 2 * n + 2), (u * 4, -1)), (n,), spin=True,
        curvature_certificate="symmetric space metric",
    )


def build_proj_bundle(bundle: LineBundleSum) -> ManifoldModel:
    """Projectivization P(E) of a sum of line bundles E over CP^l.

    With a the first Chern class of the tautological quotient line
    bundle and b the base hyperplane class, the cohomology ring is
    generated by a, b subject to b^(l+1) = 0 and the defining relation
    a^r = -sum_{i>=1} e_i(d) a^(r-i) b^i, where the e_i are the
    elementary symmetric functions of the twisting degrees d.  The
    stable complex tangent roots are (l+1) copies of b from the base
    plus a + d_i b from the bundle along the fibres; their squares are
    the Pontryagin roots, one per distinct d.  For r >= 2 the roots
    a + d b are distinct, and for r = 1 the ring rewrites a to -d b.
    """
    l, degrees, r = bundle.base_dim, bundle.degrees, bundle.rank
    dim = 2 * (l + r - 1)
    e = [1]  # coefficients of prod (1 + d x), so e[i] = e_i(d)
    for d in degrees:
        e = [a + d * b for a, b in zip(e + [0], [0] + e)]
    rhs = {(r - i, i): -e[i] for i in range(1, r + 1) if e[i]}
    ring = _ring((("a", 2), ("b", 2)), dim, {"a": (r, rhs), "b": (l + 1, {})})
    a, b = ring.gen("a"), ring.gen("b")
    roots = [(b ** 2, l + 1)] + [((a + b * d) ** 2, m) for d, m in Counter(degrees).items()]
    c1 = a * r + b * (l + 1 + sum(degrees))  # the sum of the complex roots
    name = f"pb:{l}:[{','.join(str(d) for d in degrees)}]"
    cert = f"T^2 quotient of S^{2 * l + 1} x S^{2 * r - 1}"
    spin = c1.den == 1 and all(n % 2 == 0 for n in c1.num.values())
    return ManifoldModel(name, dim, ring, roots, (r - 1, l), spin=spin, curvature_certificate=cert)


# ---------------------------------------------------------------------------
# products


def product(m1: ManifoldModel, m2: ManifoldModel) -> ManifoldModel:
    """Cartesian product of the prime factors of both sides (a prime model stands for itself), so
    it does not depend on nesting."""
    factors = (m1.factors or (m1,)) + (m2.factors or (m2,))
    cert = (f"product: {m1.curvature_certificate} x {m2.curvature_certificate}"
            if m1.curvature_certificate and m2.curvature_certificate else None)
    return ManifoldModel(f"prod({m1.name},{m2.name})", m1.real_dimension + m2.real_dimension, None, None, (),
                         m1.spin and m2.spin, cert, factors)


# ---------------------------------------------------------------------------
# characteristic data


def total_pontryagin(m: ManifoldModel) -> GradedElement:
    """1 + p_1 + p_2 + ... = the product of (1 + t)^m over the Pontryagin
    roots; for m < 0 the power inverts the unit 1 + t.  A product has none: a ValueError."""
    one = _own_ring(m).one()
    total = None
    for t, mult in m.roots:
        factor = (one + t) ** mult
        total = factor if total is None else total * factor
    return one if total is None else total


def pontryagin_classes(m: ManifoldModel) -> list[GradedElement]:
    """[p_1, ..., p_k] with k = dim/4 (empty when dim < 4).  A product has none: a ValueError."""
    parts, zero = total_pontryagin(m).homogeneous_parts(), m.ring.zero()
    return [parts.get(4 * i, zero) for i in range(1, m.real_dimension // 4 + 1)]


def pontryagin_products(m: ManifoldModel, partitions: Iterable[Sequence[int]]) -> list[Fraction]:
    """<p_I, [M]> for each partition I, in order.  Every part must lie in
    1..k, k = dim/4; another is a ValueError.  A product's are folded from its prime factors' own."""
    partitions, k = [tuple(I) for I in partitions], m.real_dimension // 4
    for I in partitions:
        if not all(0 < part <= k for part in I):
            raise ValueError(f"partition {I} has a part outside 1..{k}")
    values = _folded(m.factors or (m,), [tuple(sorted(I, reverse=True)) for I in partitions])
    return [Fraction(v) if v else _ZERO for v in values]


def _folded(factors: Sequence[ManifoldModel], partitions: list[tuple[int, ...]]) -> list[int | Fraction]:
    """<p_I, [F_1 x ... x F_r]> for each non-increasing I, an int where it is one, two factors
    at a time: <p_I, [M x N]> = sum n <p_A, [M]> <p_B, [N]> over _splits."""
    *rest, last = factors
    if not rest:
        return [int(v) if v.denominator == 1 else v for v in _pair_monomials(last, pontryagin_classes(last), partitions)]
    k1, k2 = sum(f.real_dimension for f in rest) // 4, last.real_dimension // 4
    terms = [_splits(I, k1, k2) for I in partitions]
    left, right = ({AB[side]: None for split in terms for AB in split} for side in (0, 1))
    left, right = dict(zip(left, _folded(rest, list(left)))), dict(zip(right, _folded((last,), list(right))))
    return [sum(n * left[A] * right[B] for A, B, n in split) for split in terms]


@lru_cache(maxsize=1024)  # (I, k1, k2) term tables: dimension 32 needs under 500
def _splits(I: tuple[int, ...], k1: int, k2: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...], int], ...]:
    """The terms (A, B, n) of p_I = sum n p_A x p_B on a 4k1- times a 4k2-manifold: each part i
    of I splits into a + (i - a), a in 0..i, A and B collect the nonzero a's and (i - a)'s, and n
    counts the splits giving (A, B).  Built part by part, equal states (sorted a's, (i - a)'s) merged."""
    states = {((), ()): 1}
    for i in I:
        merged = {}
        for (A, B), n in states.items():
            for a in range(max(0, i - k2 + sum(B)), min(i, k1 - sum(A)) + 1):
                key = tuple(sorted(A + (a,))), tuple(sorted(B + (i - a,)))
                merged[key] = merged.get(key, 0) + n
        states = merged
    return tuple((tuple(filter(None, A[::-1])), tuple(filter(None, B[::-1])), n)
                 for (A, B), n in states.items() if sum(A) == k1 and sum(B) == k2)


def _pair_monomials(m: ManifoldModel, classes: Sequence[GradedElement],
                    partitions: Iterable[tuple[int, ...]]) -> list[Fraction]:
    """<x_I, [M]> for each partition I, in order, where x_I is the product
    of classes[i - 1] over the parts i of I (x_() = 1).  A product starts
    from its first class, and products of shared prefixes are formed once;
    the last product of a partition with two or more parts is paired
    without forming it."""
    prefixes: dict[tuple[int, ...], GradedElement] = {(): m.ring.one()}

    def monomial(parts: tuple[int, ...]) -> GradedElement:
        x = prefixes.get(parts)
        if x is None:
            last = classes[parts[-1] - 1]
            x = last if len(parts) == 1 else monomial(parts[:-1]) * last
            prefixes[parts] = x
        return x

    top = m.pairing_exponents
    return [pair(m, monomial(I)) if len(I) < 2
            else monomial(I[:-1]).product_coefficient(classes[I[-1] - 1], top)
            for I in partitions]


def pair(m: ManifoldModel, x: GradedElement) -> Fraction:
    """Evaluate a class against the fundamental class: the coefficient of
    the pairing monomial in normal form.  A product has none: a ValueError."""
    if x.ring != _own_ring(m):
        raise ValueError(f"class does not live in the cohomology of {m.name}")
    return x.coefficient(m.pairing_exponents)


def _own_ring(m: ManifoldModel) -> RingSpec:
    """m's cohomology ring; a product has none of its own, and asking is a ValueError."""
    if m.factors:
        raise ValueError(f"{brief(m.name)} is a product and has no ring of its own; "
                         f"its factors are {brief(', '.join(f.name for f in m.factors))}")
    return m.ring


def is_spin(m: ManifoldModel) -> bool:
    return m.spin
