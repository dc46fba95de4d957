"""Cohomology models of the manifolds the calculator knows how to build.

A manifold model is a truncated cohomology ring, a tangent description,
and the pairing monomial that evaluates a top-degree class against the
fundamental class.  Tangent data comes in two kinds:

* ``StableRoots``: a list of degree-2 elements x_i such that the stable
  complex tangent bundle splits as a sum of line bundles with first
  Chern classes x_i.  Complex projective spaces use the classical
  splitting T + C = (n+1) H; a projectivized sum of line bundles P(E)
  over CP^l uses pullback roots of the base plus the roots a + d_i b of
  the twisted bundle along the fibres.  The list is stable: it may be
  longer than half the real dimension, the surplus being trivial
  summands accounted for explicitly by rank corrections downstream.
  Roots repeat (b appears l+1 times); ``root_groups`` collects equal
  roots with their multiplicities.

* ``ExplicitPontryagin``: the total Pontryagin class is stored directly.
  Quaternionic projective space HP^n carries
  p(HP^n) = (1+u)^(2n+2) * (1+4u)^(-1), which does not come from a
  complex root list.

Products concatenate root lists when both factors have them and fall
back to the Whitney product of total Pontryagin classes otherwise.
Models are immutable; build functions are pure.
"""
from __future__ import annotations

from fractions import Fraction
from dataclasses import dataclass
from itertools import combinations
from math import prod
from typing import Sequence, Union

from .algebra import GradedElement, RingSpec, as_rational

__all__ = [
    "LineBundleSum",
    "StableRoots",
    "ExplicitPontryagin",
    "TangentData",
    "ManifoldModel",
    "build_point",
    "build_cp",
    "build_hp",
    "build_proj_bundle",
    "product",
    "root_groups",
    "total_pontryagin",
    "pontryagin_classes",
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


class StableRoots:
    """Stable splitting of the complexified tangent bundle into line bundles."""

    __slots__ = ("roots",)

    def __init__(self, roots: Sequence[GradedElement]) -> None:
        self.roots = tuple(roots)


class ExplicitPontryagin:
    """Pontryagin classes p_1..p_k given directly (k = dim/4)."""

    __slots__ = ("classes",)

    def __init__(self, classes: Sequence[GradedElement]) -> None:
        self.classes = tuple(classes)


TangentData = Union[StableRoots, ExplicitPontryagin]


class ManifoldModel:
    """Everything the genus and cobordism machinery needs about one manifold."""

    __slots__ = ("name", "real_dimension", "ring", "tangent", "pairing_exponents", "spin", "curvature_certificate")

    def __init__(
        self,
        name: str,
        real_dimension: int,
        ring: RingSpec,
        tangent: TangentData,
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
        self.tangent = tangent
        self.pairing_exponents = tuple(pairing_exponents)
        self.spin = bool(spin)
        self.curvature_certificate = curvature_certificate

    def __repr__(self) -> str:
        return f"ManifoldModel({self.name}, dim={self.real_dimension})"


# ---------------------------------------------------------------------------
# builders


def build_point() -> ManifoldModel:
    ring = RingSpec([], 0)
    return ManifoldModel("pt", 0, ring, StableRoots([]), (), spin=True)


def build_cp(n: int) -> ManifoldModel:
    """Complex projective space CP^n: ring Q[b]/(b^(n+1)), roots (n+1) copies of b."""
    if n < 1:
        raise ValueError("CP^n needs n >= 1")
    ring = RingSpec([("b", 2)], 2 * n, {"b": (n + 1, {})})
    b = ring.gen("b")
    tangent = StableRoots([b] * (n + 1))
    # first Chern class of the stable splitting is (n+1) b
    return ManifoldModel(f"cp:{n}", 2 * n, ring, tangent, (n,), spin=(n % 2 == 1))


def build_hp(n: int) -> ManifoldModel:
    """Quaternionic projective space HP^n with its explicit total Pontryagin class."""
    if n < 1:
        raise ValueError("HP^n needs n >= 1")
    ring = RingSpec([("u", 4)], 4 * n, {"u": (n + 1, {})})
    u = ring.gen("u")
    # (1 + 4u)^(-1) = sum (-4u)^j, exact because u is nilpotent
    geom = ring.zero()
    for j in range(n + 1):
        geom = geom + (u ** j) * Fraction(-4) ** j
    total = (ring.one() + u) ** (2 * n + 2) * geom
    classes = [total.homogeneous_part(4 * i) for i in range(1, n + 1)]
    return ManifoldModel(
        f"hp:{n}", 4 * n, ring, ExplicitPontryagin(classes), (n,), spin=True,
        curvature_certificate="symmetric space metric",
    )


def _elementary_symmetric(values: Sequence[int], i: int) -> int:
    return sum(prod(c) for c in combinations(values, i))


def build_proj_bundle(bundle: LineBundleSum) -> ManifoldModel:
    """Projectivization P(E) of a sum of line bundles E over CP^l.

    With a the first Chern class of the tautological quotient line
    bundle and b the base hyperplane class, the cohomology ring is
    generated by a, b subject to b^(l+1) = 0 and the defining relation
    a^r = -sum_{i>=1} e_i(d) a^(r-i) b^i, where the e_i are the
    elementary symmetric functions of the twisting degrees d.  The
    stable tangent roots are (l+1) copies of b from the base plus
    a + d_i b from the bundle along the fibres.
    """
    l, degrees, r = bundle.base_dim, bundle.degrees, bundle.rank
    dim = 2 * (l + r - 1)
    rhs: dict[tuple[int, int], Fraction] = {}
    for i in range(1, r + 1):
        e_i = _elementary_symmetric(degrees, i)
        if e_i:
            rhs[(r - i, i)] = Fraction(-e_i)
    ring = RingSpec([("a", 2), ("b", 2)], dim, {"a": (r, rhs), "b": (l + 1, {})})
    a, b = ring.gen("a"), ring.gen("b")
    roots = [b] * (l + 1) + [a + b * d for d in degrees]
    name = f"pb:{l}:[{','.join(str(d) for d in degrees)}]"
    cert = f"T^2 quotient of S^{2 * l + 1} x S^{2 * r - 1}"
    spin = _has_even_root_sum(roots)
    return ManifoldModel(name, dim, ring, StableRoots(roots), (r - 1, l), spin=spin,
                         curvature_certificate=cert)


def _has_even_root_sum(roots: Sequence[GradedElement]) -> bool:
    """True when every coefficient of the sum of roots (the first Chern
    class of the stable complex tangent structure) is an even integer."""
    if not roots:
        return True
    total = roots[0].ring.zero()
    for x in roots:
        total = total + x
    for coeff in total.terms.values():
        if coeff.denominator != 1 or coeff.numerator % 2:
            return False
    return True


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
    so repeated factors never collide; root lists concatenate when both
    factors carry them, otherwise the total Pontryagin classes multiply."""
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
    if isinstance(m1.tangent, StableRoots) and isinstance(m2.tangent, StableRoots):
        roots = [_embed(x, ring, 0) for x in m1.tangent.roots]
        roots += [_embed(x, ring, n1) for x in m2.tangent.roots]
        tangent: TangentData = StableRoots(roots)
    else:
        total = _embed(total_pontryagin(m1), ring, 0) * _embed(total_pontryagin(m2), ring, n1)
        tangent = ExplicitPontryagin(
            [total.homogeneous_part(4 * i) for i in range(1, dim // 4 + 1)]
        )
    cert = None
    if m1.curvature_certificate and m2.curvature_certificate:
        cert = f"product: {m1.curvature_certificate} x {m2.curvature_certificate}"
    return ManifoldModel(
        f"prod({m1.name},{m2.name})", dim, ring, tangent, pairing,
        spin=m1.spin and m2.spin, curvature_certificate=cert,
    )


# ---------------------------------------------------------------------------
# characteristic data


def root_groups(roots: Sequence[GradedElement]) -> tuple[tuple[GradedElement, int], ...]:
    """Equal roots collected once: ``(root, multiplicity)`` pairs in order
    of first appearance, keyed by normal-form terms."""
    groups: dict[frozenset, tuple[GradedElement, int]] = {}
    for x in roots:
        key = frozenset(x.terms.items())
        root, mult = groups.get(key, (x, 0))
        groups[key] = (root, mult + 1)
    return tuple(groups.values())


def total_pontryagin(m: ManifoldModel) -> GradedElement:
    """1 + p_1 + p_2 + ...; from roots this is the product of (1 + x_i^2),
    one power (1 + x^2)^m per distinct root x of multiplicity m."""
    if isinstance(m.tangent, StableRoots):
        total = m.ring.one()
        for x, mult in root_groups(m.tangent.roots):
            total = total * (m.ring.one() + x * x) ** mult
        return total
    total = m.ring.one()
    for cls in m.tangent.classes:
        total = total + cls
    return total


def pontryagin_classes(m: ManifoldModel) -> list[GradedElement]:
    """[p_1, ..., p_k] with k = dim/4 (empty when dim < 4)."""
    k = m.real_dimension // 4
    total = total_pontryagin(m)
    return [total.homogeneous_part(4 * i) for i in range(1, k + 1)]


def pair(m: ManifoldModel, x: GradedElement) -> Fraction:
    """Evaluate a class against the fundamental class: the coefficient of
    the pairing monomial in normal form."""
    if x.ring != m.ring:
        raise ValueError(f"class does not live in the cohomology of {m.name}")
    return x.coefficient(m.pairing_exponents)


def is_spin(m: ManifoldModel) -> bool:
    return m.spin
