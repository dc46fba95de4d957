"""Rational cobordism bookkeeping: Pontryagin-number vectors, genus
functionals, elliptic spans, and polynomial behaviour along families.

Rationally, an oriented cobordism class in dimension 4k is determined by
its Pontryagin numbers, one per partition of k, and products of even
complex projective spaces form a basis.  Everything here is exact
linear algebra over that partition-indexed coordinate system.
"""
from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations
from operator import index, mul

from .algebra import RationalMatrix, Record, as_rational, interpolate_polynomial
from .errors import ConsistencyError, brief, quote
from .manifolds import (
    LineBundleSum,
    ManifoldModel,
    build_cp,
    build_hp,
    build_proj_bundle,
    pontryagin_products,
    product,
)
from .genera import elliptic_polynomials

__all__ = [
    "Partition",
    "partitions_of",
    "CharNumberVector",
    "Functional",
    "pontryagin_numbers",
    "basis_manifolds",
    "genus_as_functional",
    "elliptic_span",
    "span_membership",
    "FamilySpec",
    "family_values",
    "family_polynomial",
    "family_fit",
    "VerdictResult",
    "unbounded_verdict",
    "DistinctnessResult",
    "distinct_cobordism_types",
    "x12",
    "y16",
    "z20",
    "standard_family",
    "designated_families",
]


class Partition(tuple):
    """A partition of an integer: a non-increasing tuple of positive parts."""

    def __new__(cls, parts: Sequence[int]) -> "Partition":
        parts = tuple(sorted(map(index, parts), reverse=True))
        if any(p < 1 for p in parts):
            raise ValueError("partition parts must be positive")
        return super().__new__(cls, parts)

    @property
    def weight(self) -> int:
        return sum(self)

    def key(self) -> str:
        """Serialized form, e.g. 'p1^3', 'p1*p2', 'p3'."""
        bits = []
        for part in sorted(set(self)):
            mult = self.count(part)
            bits.append(f"p{part}" if mult == 1 else f"p{part}^{mult}")
        return "*".join(bits) if bits else "1"


@lru_cache(maxsize=None)
def partitions_of(k: int) -> tuple[Partition, ...]:
    """All partitions of k in a fixed deterministic order."""
    if k < 0:
        raise ValueError("partitions of a negative integer do not exist")

    def gen(n: int, mx: int) -> list[tuple[int, ...]]:
        if n == 0:
            return [()]
        out = []
        for p in range(min(n, mx), 0, -1):
            for rest in gen(n - p, p):
                out.append((p,) + rest)
        return out

    return tuple(sorted(Partition(p) for p in gen(k, k)))


class CharNumberVector(Record):
    """All Pontryagin numbers of one manifold: ``row[i]`` is the number of
    ``partitions_of(dimension // 4)[i]``, an int where it is integral (on
    a closed manifold, always) and a Fraction otherwise.  A row of ints,
    not a dict of Fractions, because callers keep many vectors and the
    dict and the Fractions would be most of their size.  Every accessor
    hands out Fractions."""

    __slots__ = ("dimension", "row")

    def __init__(self, dimension: int, row: tuple[int | Fraction, ...]) -> None:
        # not _fill, which is slower: family scans build one per pontryagin_numbers call
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "row", row)

    @property
    def values(self) -> dict[Partition, Fraction]:
        return dict(zip(partitions_of(self.dimension // 4), self.as_row()))

    def get(self, partition: Sequence[int]) -> Fraction:
        return self.values.get(Partition(partition), Fraction(0))

    def as_row(self) -> list[Fraction]:
        return [Fraction(v) for v in self.row]

    def __repr__(self) -> str:
        return f"CharNumberVector(dimension={self.dimension!r}, values={self.values!r})"


class Functional(Record):
    """A rational linear combination of Pontryagin numbers in one dimension 4k, k >= 0."""

    __slots__ = ("dimension", "coefficients")

    def __init__(self, dimension: int, coefficients: Mapping[Partition, Fraction]) -> None:
        dimension = index(dimension)
        if dimension < 0 or dimension % 4:
            raise ValueError(f"a functional needs a nonnegative dimension divisible by 4, not {brief(str(dimension))}")
        clean = {}
        for partition, c in coefficients.items():
            partition = Partition(partition)
            if 4 * partition.weight != dimension:
                raise ValueError(f"{partition.key()} has weight {partition.weight}, "
                                 f"dimension {dimension} needs {dimension // 4}")
            c = as_rational(c)
            if c:
                clean[partition] = c
        self._fill(dimension, clean)

    @classmethod
    def from_polynomial(cls, dim: int, poly: Mapping[tuple[int, ...], Fraction]) -> "Functional":
        """The functional M -> <poly(p_1, p_2, ...), [M]> for a polynomial in
        Pontryagin classes given as partition -> coefficient."""
        # partitions_of order first, then any key of another weight for the constructor to refuse
        return cls(dim, {**dict.fromkeys(partitions_of(dim // 4), 0), **poly})

    def evaluate(self, vec: CharNumberVector) -> Fraction:
        if vec.dimension != self.dimension:
            raise ValueError("functional and vector dimensions differ")
        return sum((c * v for c, v in zip(self.as_row(), vec.row)), Fraction(0))

    def as_row(self) -> list[Fraction]:
        return [self.coefficients.get(I, Fraction(0)) for I in partitions_of(self.dimension // 4)]

    def to_expression(self) -> str:
        """Render in the grammar the command line parses back."""
        if not self.coefficients:
            return f"0*p{self.dimension // 4}"
        return signed_sum((self.coefficients.get(I, 0), I.key()) for I in partitions_of(self.dimension // 4))


def signed_sum(terms: Iterable[tuple[Fraction, str | None]]) -> str:
    """Render (coefficient, body) pairs as 'a - 2*b + 1/3': zero terms are
    skipped, a unit coefficient is dropped, a body of None is a constant,
    and nothing left renders as '0'."""
    bits = []
    for c, body in terms:
        if not c:
            continue
        mag = abs(c)
        if body is None:
            term = str(mag)
        else:
            term = body if mag == 1 else f"{mag}*{body}"
        if bits:
            term = f"+ {term}" if c > 0 else f"- {term}"
        elif c < 0:
            term = f"-{term}"
        bits.append(term)
    return " ".join(bits) or "0"


# ---------------------------------------------------------------------------
# Pontryagin numbers and the projective-space basis


def pontryagin_numbers(m: ManifoldModel) -> CharNumberVector:
    dim = m.real_dimension
    if dim % 4:
        raise ValueError(f"{brief(m.name)} has dimension {dim}; Pontryagin numbers need a multiple of 4")
    values = pontryagin_products(m, partitions_of(dim // 4))
    return CharNumberVector(dim, tuple(v.numerator if v.denominator == 1 else v for v in values))


@lru_cache(maxsize=None)
def _basis_data(dim: int) -> tuple[tuple[ManifoldModel, ...], RationalMatrix]:
    if dim % 4 or dim < 4:
        raise ValueError("basis manifolds exist in positive dimensions divisible by 4")
    k = dim // 4
    manifolds = []
    for I in partitions_of(k):
        factors = [build_cp(2 * part) for part in I]
        manifolds.append(reduce(product, factors))
    rows = [pontryagin_numbers(b).as_row() for b in manifolds]
    matrix = RationalMatrix(rows)
    if matrix.rank() != len(partitions_of(k)):
        raise ConsistencyError(
            f"projective-space products fail to span rational cobordism in dimension {dim}"
        )
    return tuple(manifolds), matrix


def basis_manifolds(dim: int) -> tuple[ManifoldModel, ...]:
    """Products of even complex projective spaces forming a rational
    cobordism basis in the given dimension; invertibility is checked."""
    return _basis_data(dim)[0]


def genus_as_functional(evaluator: Callable[[ManifoldModel], Fraction], dim: int) -> Functional:
    """Express a genus as a linear combination of Pontryagin numbers by
    exact solve against the projective-space basis."""
    manifolds, matrix = _basis_data(dim)
    values = [as_rational(evaluator(b)) for b in manifolds]
    lam = matrix.solve(values)
    if lam is None:
        raise ConsistencyError("genus evaluation is not consistent with any Pontryagin functional")
    coeffs = dict(zip(partitions_of(dim // 4), lam))
    return Functional(dim, coeffs)


# ---------------------------------------------------------------------------
# the elliptic span


def elliptic_span(dim: int, q_order: int) -> tuple[list[Functional], int]:
    """Functionals of the q-coefficients 0..q_order of q^(k/2)*phi and
    the rank of their span, read off the universal elliptic polynomials."""
    if dim % 4 or dim < 4:
        raise ValueError(f"the elliptic span needs a positive dimension divisible by 4, not {dim}")
    functionals = [Functional.from_polynomial(dim, poly) for poly in elliptic_polynomials(dim // 4, q_order)]
    rows = [f.as_row() for f in functionals]
    return functionals, RationalMatrix(rows).rank()


def span_membership(f: Functional, span: Sequence[Functional]) -> bool:
    """True when f is a rational linear combination of the span."""
    if not span:
        return not f.coefficients
    if any(g.dimension != f.dimension for g in span):
        raise ValueError("span and functional dimensions differ")
    columns = list(zip(*(g.as_row() for g in span)))
    return RationalMatrix(columns).solve(f.as_row()) is not None


# ---------------------------------------------------------------------------
# families


class FamilySpec(Record):
    """A one-parameter family of manifolds.  The builder already applies
    whatever substitution (e.g. doubling for spin) the family needs, so
    every integer parameter is admissible.  ``dimension`` is a nonnegative
    multiple of 4 and ``max_degree`` a nonnegative int, both read with
    ``operator.index``.  Equality and hash skip the builder."""

    __slots__ = ("name", "dimension", "builder", "substitution", "max_degree")

    def __init__(self, name: str, dimension: int, builder: Callable[[int], ManifoldModel],
                 substitution: str = "c -> c", max_degree: int = 7) -> None:
        dimension, max_degree = index(dimension), index(max_degree)
        if dimension < 0 or dimension % 4:
            raise ValueError(f"a family needs a nonnegative dimension divisible by 4, not {brief(str(dimension))}")
        if max_degree < 0:
            raise ValueError(f"a family needs a nonnegative max_degree, not {brief(str(max_degree))}")
        self._fill(name, dimension, builder, substitution, max_degree)

    def _key(self) -> tuple:
        return self.name, self.dimension, self.substitution, self.max_degree

    def build(self, c: int) -> ManifoldModel:
        m = self.builder(c)
        if m.real_dimension != self.dimension:
            raise ConsistencyError(f"family {self.name} built dimension {m.real_dimension}")
        return m


def family_values(fam: FamilySpec, f: Functional, params: Iterable[int]) -> list[Fraction]:
    """f(fam(c)) for each c in params, in order, each member pairing only
    the Pontryagin numbers f reads."""
    if f.dimension != fam.dimension:
        raise ValueError(f"family {fam.name} lives in dimension {fam.dimension}, functional in {f.dimension}")
    partitions, coefficients = list(f.coefficients), f.coefficients.values()
    return [sum(map(mul, coefficients, pontryagin_products(fam.build(c), partitions)), Fraction(0))
            for c in params]


def family_polynomial(fam: FamilySpec, f: Functional) -> list[Fraction]:
    """Coefficients (ascending degree) of the polynomial c -> f(fam(c)).

    Exact interpolation through max_degree+2 samples; a nonzero top
    coefficient means the family is not polynomial of the declared degree
    and is an internal failure.
    """
    return family_fit(fam, f, ())[1]


def family_fit(fam: FamilySpec, f: Functional, params: Iterable[int]) -> tuple[list[Fraction], list[Fraction]]:
    """(family_values(fam, f, params), family_polynomial(fam, f)), each value checked, each member computed once."""
    params, samples = list(params), range(1, fam.max_degree + 3)
    members = sorted({*params, *samples})
    value_of = dict(zip(members, family_values(fam, f, members)))
    coeffs = interpolate_polynomial([(c, value_of[c]) for c in samples])
    if coeffs[-1]:
        raise ConsistencyError(
            f"family {fam.name} is not polynomial of degree <= {fam.max_degree} under {f.coefficients}"
        )
    while len(coeffs) > 1 and not coeffs[-1]:
        coeffs.pop()
    for c in params:
        if (fitted := sum(coeff * c ** i for i, coeff in enumerate(coeffs))) != value_of[c]:
            raise ConsistencyError(
                f"family {fam.name} at c = {c} has value {value_of[c]}, its polynomial gives {fitted}")
    return [value_of[c] for c in params], coeffs


class VerdictResult(Record):
    __slots__ = ("unbounded", "witness", "polynomial", "per_family")

    def __init__(self, unbounded: bool, witness: str | None, polynomial: tuple[Fraction, ...] | None,
                 per_family: Mapping[str, tuple[Fraction, ...]]) -> None:
        self._fill(unbounded, witness, polynomial, per_family)


def unbounded_verdict(f: Functional, families: Sequence[FamilySpec]) -> VerdictResult:
    """Decide whether f is unbounded on one of the given families: any
    nonzero coefficient in positive degree is a certificate."""
    polynomials = [(fam.name, tuple(family_polynomial(fam, f))) for fam in families]
    witness, polynomial = next(((name, p) for name, p in polynomials if any(p[1:])), (None, None))
    return VerdictResult(witness is not None, witness, polynomial, dict(polynomials))


class DistinctnessResult(Record):
    """Pairwise certificates over the sorted parameters: entry k of
    ``pair_separators`` is a partition whose Pontryagin numbers differ on
    the k-th pair of ``combinations(params, 2)``, or None for a collision.
    A tuple, not a dict keyed by pairs, because callers keep many results;
    ``separators`` and ``collisions`` are built on access."""

    __slots__ = ("params", "pair_separators")

    def __init__(self, params: tuple[int, ...], pair_separators: tuple[Partition | None, ...]) -> None:
        self._fill(params, pair_separators)

    @property
    def distinct(self) -> bool:
        return None not in self.pair_separators

    @property
    def separators(self) -> dict[tuple[int, int], Partition]:
        pairs = combinations(self.params, 2)
        return {pair: I for pair, I in zip(pairs, self.pair_separators) if I is not None}

    @property
    def collisions(self) -> tuple[tuple[int, int], ...]:
        pairs = combinations(self.params, 2)
        return tuple(pair for pair, I in zip(pairs, self.pair_separators) if I is None)

    def __repr__(self) -> str:
        return (f"DistinctnessResult(distinct={self.distinct!r}, separators={self.separators!r}, "
                f"collisions={self.collisions!r})")


def distinct_cobordism_types(fam: FamilySpec, params: Sequence[int]) -> DistinctnessResult:
    """Pairwise-distinguish family members by their Pontryagin numbers.

    For every pair of parameters the certificate is a partition whose
    Pontryagin numbers differ; a pair with identical full vectors is a
    collision and the family members are rationally cobordant.
    """
    if len(set(params)) != len(params):
        raise ValueError("family parameters must be distinct")
    vectors = {c: pontryagin_numbers(fam.build(c)) for c in params}
    partitions = partitions_of(fam.dimension // 4)
    ordered = tuple(sorted(params))
    return DistinctnessResult(ordered, tuple(
        next((I for I, a, b in zip(partitions, vectors[c1].row, vectors[c2].row) if a != b), None)
        for c1, c2 in combinations(ordered, 2)
    ))


# ---------------------------------------------------------------------------
# the standard families


def x12(c: int) -> ManifoldModel:
    """The 12-dimensional bundle member: lines in (c)+trivial^3 over CP^3."""
    return build_proj_bundle(LineBundleSum(3, (c, 0, 0, 0)))


def y16(c: int) -> ManifoldModel:
    """The 16-dimensional member: lines in (c,2c,-3c,0) over CP^5; the
    degree vector sums to zero, so every member is spin."""
    return build_proj_bundle(LineBundleSum(5, (c, 2 * c, -3 * c, 0)))


def z20(c: int) -> ManifoldModel:
    """The 20-dimensional bundle member: lines in (c)+trivial^3 over CP^7."""
    return build_proj_bundle(LineBundleSum(7, (c, 0, 0, 0)))


def standard_family(name: str) -> FamilySpec:
    """Families the verdict machinery knows by name.

    X12 and Z20 take the doubled parameter so every member is spin;
    Y16 is spin for every parameter.  X12xHP:<n> is the product of the
    doubled 12-dimensional family with quaternionic projective space.
    """
    if name == "X12":
        return FamilySpec("X12", 12, lambda c: x12(2 * c), "c -> 2c (spin)", 3)
    if name == "Y16":
        return FamilySpec("Y16", 16, y16, "c -> c", 5)
    if name == "Z20":
        return FamilySpec("Z20", 20, lambda c: z20(2 * c), "c -> 2c (spin)", 7)
    if name.startswith("X12xHP:"):
        suffix = name.split(":", 1)[1]
        # ASCII digits only: int() would also take '1_0' and non-ASCII digits
        if not (suffix.isascii() and suffix.isdigit()):
            raise ValueError(f"bad quaternionic factor in family name {quote(name)}")
        n = int(suffix)
        if n < 1:
            raise ValueError("the quaternionic factor needs positive dimension")
        return FamilySpec(
            f"X12xHP:{n}", 12 + 4 * n,
            lambda c: product(x12(2 * c), build_hp(n)),
            "c -> 2c (spin)", 3,
        )
    raise ValueError(f"unknown family {quote(name)}")


def designated_families(dim: int) -> list[FamilySpec]:
    """The families the verdict subcommand consults per dimension."""
    table = {12: ["X12"], 16: ["Y16"], 20: ["Z20", "X12xHP:2"]}
    if dim not in table:
        raise ValueError(f"no designated families in dimension {dim}")
    return [standard_family(name) for name in table[dim]]
