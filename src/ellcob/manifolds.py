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
  ((a + d_i b)^2, 1) along the fibres; ``root_groups`` collects equal
  squares.  The spin flag is read off the complex roots at build time.
* Quaternionic projective space HP^n has (u, 2n+2) and (4u, -1), read
  off p(HP^n) = (1+u)^(2n+2) (1+4u)^(-1) (Borel-Hirzebruch, Amer. J.
  Math. 80, 1958).

The list is stable: trivial summands are not listed, and rank
corrections downstream account for them.  Products concatenate the
Pontryagin roots of both factors.  Models are immutable; build functions
are pure.
"""
from __future__ import annotations

from fractions import Fraction
from dataclasses import dataclass
from typing import Iterable, Sequence

from .algebra import GradedElement, RingSpec, as_rational

__all__ = [
    "LineBundleSum",
    "ManifoldModel",
    "build_point",
    "build_cp",
    "build_hp",
    "build_proj_bundle",
    "product",
    "root_groups",
    "total_pontryagin",
    "pontryagin_classes",
    "pontryagin_products",
    "pair",
    "is_spin",
]


@dataclass(frozen=True)
class LineBundleSum:
    """A sum of powers of the tautological line bundle over CP^base_dim,
    plus trivial summands encoded as degree 0."""

    base_dim: int
    degrees: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.base_dim < 1:
            raise ValueError("base projective space must have positive dimension")
        if not self.degrees:
            raise ValueError("the bundle needs at least one summand")
        object.__setattr__(self, "degrees", tuple(int(d) for d in self.degrees))

    @property
    def rank(self) -> int:
        return len(self.degrees)


class ManifoldModel:
    """Everything the genus and cobordism machinery needs about one manifold."""

    __slots__ = ("name", "real_dimension", "ring", "roots", "pairing_exponents", "spin", "curvature_certificate")

    def __init__(
        self,
        name: str,
        real_dimension: int,
        ring: RingSpec,
        roots: Sequence[tuple[GradedElement, int]],
        pairing_exponents: tuple[int, ...],
        spin: bool,
        curvature_certificate: str | None = None,
    ) -> None:
        if real_dimension < 0 or real_dimension % 2:
            raise ValueError("models here all have even nonnegative dimension")
        if len(pairing_exponents) != ring.ngens:
            raise ValueError("pairing monomial does not match the ring")
        if ring.degree_of(pairing_exponents) != real_dimension:
            raise ValueError("pairing monomial degree must equal the real dimension")
        self.name = name
        self.real_dimension = real_dimension
        self.ring = ring
        self.roots = tuple(roots)
        self.pairing_exponents = tuple(pairing_exponents)
        self.spin = bool(spin)
        self.curvature_certificate = curvature_certificate

    def __repr__(self) -> str:
        return f"ManifoldModel({self.name}, dim={self.real_dimension})"


# ---------------------------------------------------------------------------
# builders


def build_point() -> ManifoldModel:
    ring = RingSpec([], 0)
    return ManifoldModel("pt", 0, ring, (), (), spin=True)


def build_cp(n: int) -> ManifoldModel:
    """Complex projective space CP^n: ring Q[b]/(b^(n+1)), Pontryagin root b^2 of multiplicity n+1."""
    if n < 1:
        raise ValueError("CP^n needs n >= 1")
    ring = RingSpec([("b", 2)], 2 * n, {"b": (n + 1, {})})
    b = ring.gen("b")
    # first Chern class of the stable splitting is (n+1) b
    return ManifoldModel(f"cp:{n}", 2 * n, ring, ((b * b, n + 1),), (n,), spin=(n % 2 == 1))


def build_hp(n: int) -> ManifoldModel:
    """Quaternionic projective space HP^n: ring Q[u]/(u^(n+1)), Pontryagin
    roots u of multiplicity 2n+2 and 4u of multiplicity -1."""
    if n < 1:
        raise ValueError("HP^n needs n >= 1")
    ring = RingSpec([("u", 4)], 4 * n, {"u": (n + 1, {})})
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
    the Pontryagin roots.
    """
    l, degrees, r = bundle.base_dim, bundle.degrees, bundle.rank
    dim = 2 * (l + r - 1)
    e = [1]  # coefficients of prod (1 + d x), so e[i] = e_i(d)
    for d in degrees:
        e = [a + d * b for a, b in zip(e + [0], [0] + e)]
    rhs = {(r - i, i): -e[i] for i in range(1, r + 1) if e[i]}
    ring = RingSpec([("a", 2), ("b", 2)], dim, {"a": (r, rhs), "b": (l + 1, {})})
    a, b = ring.gen("a"), ring.gen("b")
    roots = [b] * (l + 1) + [a + b * d for d in degrees]
    name = f"pb:{l}:[{','.join(str(d) for d in degrees)}]"
    cert = f"T^2 quotient of S^{2 * l + 1} x S^{2 * r - 1}"
    spin = _has_even_root_sum(roots)
    return ManifoldModel(name, dim, ring, root_groups(roots), (r - 1, l), spin=spin,
                         curvature_certificate=cert)


def _has_even_root_sum(roots: Sequence[GradedElement]) -> bool:
    """True when every coefficient of the sum of roots (the first Chern
    class of the stable complex tangent structure) is an even integer."""
    if not roots:
        return True
    total = roots[0].ring.zero()
    for x in roots:
        total = total + x
    return total.den == 1 and not any(n % 2 for n in total.num.values())


# ---------------------------------------------------------------------------
# products


def _embed(element: GradedElement, target: RingSpec, offset: int) -> GradedElement:
    pad_left = offset
    pad_right = target.ngens - offset - element.ring.ngens
    terms = {
        (0,) * pad_left + exps + (0,) * pad_right: coeff
        for exps, coeff in element.terms.items()
    }
    return GradedElement(target, terms)


def product(m1: ManifoldModel, m2: ManifoldModel) -> ManifoldModel:
    """Cartesian product.  Generators are renamed with factor suffixes,
    so repeated factors never collide; the Pontryagin roots concatenate."""
    gens = [(f"{n}1", d) for n, d in zip(m1.ring.generators, m1.ring.degrees)]
    gens += [(f"{n}2", d) for n, d in zip(m2.ring.generators, m2.ring.degrees)]
    dim = m1.real_dimension + m2.real_dimension
    n1 = m1.ring.ngens
    rules: dict[str, tuple[int, dict[tuple[int, ...], Fraction]]] = {}
    for g, (power, rhs) in m1.ring.rules.items():
        rules[f"{m1.ring.generators[g]}1"] = (
            power,
            {exps + (0,) * m2.ring.ngens: c for exps, c in rhs.items()},
        )
    for g, (power, rhs) in m2.ring.rules.items():
        rules[f"{m2.ring.generators[g]}2"] = (
            power,
            {(0,) * n1 + exps: c for exps, c in rhs.items()},
        )
    ring = RingSpec(gens, dim, rules)
    pairing = m1.pairing_exponents + m2.pairing_exponents
    roots = [(_embed(t, ring, 0), mult) for t, mult in m1.roots]
    roots += [(_embed(t, ring, n1), mult) for t, mult in m2.roots]
    cert = None
    if m1.curvature_certificate and m2.curvature_certificate:
        cert = f"product: {m1.curvature_certificate} x {m2.curvature_certificate}"
    return ManifoldModel(
        f"prod({m1.name},{m2.name})", dim, ring, roots, pairing,
        spin=m1.spin and m2.spin, curvature_certificate=cert,
    )


# ---------------------------------------------------------------------------
# characteristic data


def _grouped(pairs) -> tuple[tuple[GradedElement, int], ...]:
    """Pairs (element, count) with equal elements merged, in order of first
    appearance, keyed by the canonical numerators and denominator."""
    groups: dict[tuple, tuple[GradedElement, int]] = {}
    for x, count in pairs:
        key = (x.den, frozenset(x.num.items()))
        first, total = groups.get(key, (x, 0))
        groups[key] = (first, total + count)
    return tuple(groups.values())


def root_groups(roots: Sequence[GradedElement]) -> tuple[tuple[GradedElement, int], ...]:
    """The Pontryagin roots of a list of complex roots x: ``(x^2, m)``
    pairs, one per distinct square, m counting the roots with that square
    (x and -x share one).  Each distinct root is squared once."""
    return _grouped((x * x, m) for x, m in _grouped((x, 1) for x in roots))


def total_pontryagin(m: ManifoldModel) -> GradedElement:
    """1 + p_1 + p_2 + ... = the product of (1 + t)^m over the Pontryagin
    roots; for m < 0 the power inverts the unit 1 + t."""
    one = m.ring.one()
    total = None
    for t, mult in m.roots:
        factor = (one + t) ** mult
        total = factor if total is None else total * factor
    return one if total is None else total


def pontryagin_classes(m: ManifoldModel) -> list[GradedElement]:
    """[p_1, ..., p_k] with k = dim/4 (empty when dim < 4)."""
    k = m.real_dimension // 4
    total = total_pontryagin(m)
    return [total.homogeneous_part(4 * i) for i in range(1, k + 1)]


def pontryagin_products(m: ManifoldModel, partitions: Iterable[Sequence[int]]) -> list[Fraction]:
    """<p_I, [M]> for each partition I, in order.  A product starts from
    its first class, and products of shared prefixes are formed once."""
    p = pontryagin_classes(m)
    prefixes: dict[tuple[int, ...], GradedElement] = {(): m.ring.one()}

    def monomial(parts: tuple[int, ...]) -> GradedElement:
        x = prefixes.get(parts)
        if x is None:
            last = p[parts[-1] - 1]
            x = last if len(parts) == 1 else monomial(parts[:-1]) * last
            prefixes[parts] = x
        return x

    return [pair(m, monomial(tuple(I))) for I in partitions]


def pair(m: ManifoldModel, x: GradedElement) -> Fraction:
    """Evaluate a class against the fundamental class: the coefficient of
    the pairing monomial in normal form."""
    if x.ring != m.ring:
        raise ValueError(f"class does not live in the cohomology of {m.name}")
    return x.coefficient(m.pairing_exponents)


def is_spin(m: ManifoldModel) -> bool:
    return m.spin
