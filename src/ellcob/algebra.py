"""Exact scalars, truncated graded rings, q-series and rational matrices.

Every scalar this package hands out is a ``fractions.Fraction``; nothing
here rounds, ever.  The central object is :class:`GradedElement`, a sparse
polynomial in named even-degree generators kept in normal form with
respect to single-head-generator rewrite rules (``a**r -> lower order``)
and truncated above the ring's top dimension; products run over integer
numerators and reduce through a per-ring table.  :class:`QSeries`
carries truncated power series with scalar, ring or scalar-series
coefficients.
:class:`RationalMatrix` does exact rank and solve.

Elements, series and matrices are immutable and all operations are pure.
Each :class:`RingSpec` carries a reduction cache, filled idempotently
(an entry depends only on its key), so everything is safe to share.
"""
from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import lcm
from operator import add
from typing import Mapping, Sequence, Union

__all__ = [
    "Rational",
    "as_rational",
    "RingSpec",
    "GradedElement",
    "QSeries",
    "RationalMatrix",
    "interpolate_polynomial",
]

Rational = Fraction
Scalar = Union[int, Fraction]


def as_rational(value: Scalar) -> Fraction:
    """Coerce an exact scalar to Fraction; floats are rejected outright."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"exact rational expected, got {type(value).__name__}")


class RingSpec:
    """A truncated graded-commutative polynomial ring over the rationals.

    Generators all sit in even degree, so the ring is honestly
    commutative and monomials are plain exponent tuples.  Rewrite rules
    have the single-head-generator shape ``g**power = rhs`` where every
    monomial of ``rhs`` has the same degree as ``g**power`` and a
    strictly smaller exponent of ``g``; together with the head
    generators being listed first this makes reduction terminate under
    the lexicographic order, and the result is independent of rewrite
    order.  Elements of degree above ``truncation_dimension`` are zero.
    """

    __slots__ = ("generators", "degrees", "truncation_dimension", "rules", "_index", "_signature", "_table")

    def __init__(
        self,
        generators: Sequence[tuple[str, int]],
        truncation_dimension: int,
        rewrite_rules: Mapping[str, tuple[int, Mapping[tuple[int, ...], Scalar]]] | None = None,
    ) -> None:
        names = tuple(name for name, _ in generators)
        degs = tuple(int(d) for _, d in generators)
        if len(set(names)) != len(names):
            raise ValueError("generator names must be unique")
        for name, d in zip(names, degs):
            if d <= 0 or d % 2:
                raise ValueError(f"generator {name!r} must have positive even degree, got {d}")
        if truncation_dimension < 0 or truncation_dimension % 2:
            raise ValueError("truncation dimension must be a nonnegative even integer")
        self.generators = names
        self.degrees = degs
        self.truncation_dimension = int(truncation_dimension)
        self._index = {name: i for i, name in enumerate(names)}
        rules: dict[int, tuple[int, dict[tuple[int, ...], Fraction]]] = {}
        for name, (power, rhs) in (rewrite_rules or {}).items():
            if name not in self._index:
                raise ValueError(f"rewrite rule for unknown generator {name!r}")
            g = self._index[name]
            power = int(power)
            if power <= 0:
                raise ValueError(f"rewrite rule power for {name!r} must be positive")
            head_degree = power * degs[g]
            clean: dict[tuple[int, ...], Fraction] = {}
            for exps, coeff in rhs.items():
                exps = tuple(int(e) for e in exps)
                if len(exps) != len(names) or any(e < 0 for e in exps):
                    raise ValueError(f"malformed monomial {exps} in rule for {name!r}")
                c = as_rational(coeff)
                if not c:
                    continue
                if self.degree_of(exps) != head_degree:
                    raise ValueError(
                        f"rewrite rule for {name}^{power} is not degree-homogeneous: "
                        f"monomial {exps} has degree {self.degree_of(exps)}, head has {head_degree}"
                    )
                if exps[g] >= power:
                    raise ValueError(
                        f"rewrite rule for {name}^{power} does not decrease the head exponent"
                    )
                clean[exps] = clean.get(exps, Fraction(0)) + c
            rules[g] = (power, {e: c for e, c in clean.items() if c})
        self.rules = rules
        self._signature = (
            names,
            degs,
            self.truncation_dimension,
            tuple(sorted((g, p, tuple(sorted(rhs.items()))) for g, (p, rhs) in rules.items())),
        )
        self._table: dict[tuple[int, ...], tuple] = {}  # raw monomial -> its normal form

    # -- identity -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RingSpec) and self._signature == other._signature

    def __hash__(self) -> int:
        return hash(self._signature)

    def __repr__(self) -> str:
        gens = ", ".join(f"{n}:{d}" for n, d in zip(self.generators, self.degrees))
        return f"RingSpec([{gens}], dim<={self.truncation_dimension})"

    # -- monomial helpers ---------------------------------------------

    @property
    def ngens(self) -> int:
        return len(self.generators)

    def degree_of(self, exps: tuple[int, ...]) -> int:
        return sum(e * d for e, d in zip(exps, self.degrees))

    def index(self, name: str) -> int:
        return self._index[name]

    # -- reduction ----------------------------------------------------

    def normalize_terms(self, terms: Mapping[tuple[int, ...], Scalar]) -> dict[tuple[int, ...], Fraction]:
        """Rewrite an arbitrary term dict into normal form.

        Worklist reduction: apply any applicable head rule, drop
        monomials above the truncation dimension, accumulate the rest.
        Each rule application strictly decreases the head exponent while
        leaving exponents of lex-greater generators untouched, so the
        lex measure decreases and reduction terminates.
        """
        out: dict[tuple[int, ...], Fraction] = {}
        stack: list[tuple[tuple[int, ...], Fraction]] = []
        for exps, coeff in terms.items():
            exps = tuple(int(e) for e in exps)
            if len(exps) != self.ngens or any(e < 0 for e in exps):
                raise ValueError(f"malformed monomial {exps}")
            c = as_rational(coeff)
            if c:
                stack.append((exps, c))
        while stack:
            exps, coeff = stack.pop()
            if self.degree_of(exps) > self.truncation_dimension:
                continue
            for g, (power, rhs) in self.rules.items():
                if exps[g] >= power:
                    base = list(exps)
                    base[g] -= power
                    if not rhs:
                        break
                    for rexps, rcoeff in rhs.items():
                        mono = tuple(b + r for b, r in zip(base, rexps))
                        stack.append((mono, coeff * rcoeff))
                    break
            else:
                out[exps] = out.get(exps, Fraction(0)) + coeff
        return {e: c for e, c in out.items() if c}

    def _reduce(self, exps: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], Scalar], ...]:
        """Tabled normal form of one monomial: ``(exps, int or Fraction)`` pairs."""
        reduced = tuple(
            (e, c.numerator if c.denominator == 1 else c)
            for e, c in self.normalize_terms({exps: 1}).items()
        )
        self._table[exps] = reduced
        return reduced

    # -- element constructors ------------------------------------------

    def element(self, terms: Mapping[tuple[int, ...], Scalar]) -> "GradedElement":
        return GradedElement(self, terms)

    def zero(self) -> "GradedElement":
        return GradedElement(self, {}, _trusted=True)

    def one(self) -> "GradedElement":
        return self.scalar(1)

    def scalar(self, value: Scalar) -> "GradedElement":
        c = as_rational(value)
        if not c:
            return self.zero()
        return GradedElement(self, {(0,) * self.ngens: c}, _trusted=True)

    def gen(self, name: str) -> "GradedElement":
        exps = [0] * self.ngens
        exps[self.index(name)] = 1
        return self.element({tuple(exps): 1})


class GradedElement:
    """A normal-form element of a :class:`RingSpec`.  Immutable."""

    __slots__ = ("ring", "terms")

    def __init__(
        self,
        ring: RingSpec,
        terms: Mapping[tuple[int, ...], Scalar],
        _trusted: bool = False,
    ) -> None:
        self.ring = ring
        if _trusted:
            self.terms = dict(terms)
        else:
            self.terms = ring.normalize_terms(terms)

    # -- inspection ----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exps: tuple[int, ...]) -> Fraction:
        return self.terms.get(tuple(exps), Fraction(0))

    def constant(self) -> Fraction:
        return self.coefficient((0,) * self.ring.ngens)

    def homogeneous_part(self, d: int) -> "GradedElement":
        picked = {e: c for e, c in self.terms.items() if self.ring.degree_of(e) == d}
        return GradedElement(self.ring, picked, _trusted=True)

    # -- arithmetic -----------------------------------------------------

    def _check_ring(self, other: "GradedElement") -> None:
        if self.ring != other.ring:
            raise ValueError("elements of different rings cannot be combined")

    def __add__(self, other: "GradedElement") -> "GradedElement":
        if not isinstance(other, GradedElement):
            return NotImplemented
        self._check_ring(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            acc = terms.get(e, Fraction(0)) + c
            if acc:
                terms[e] = acc
            else:
                terms.pop(e, None)
        return GradedElement(self.ring, terms, _trusted=True)

    def __sub__(self, other: "GradedElement") -> "GradedElement":
        if not isinstance(other, GradedElement):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "GradedElement":
        return GradedElement(self.ring, {e: -c for e, c in self.terms.items()}, _trusted=True)

    def __mul__(self, other: Union["GradedElement", Scalar]) -> "GradedElement":
        if isinstance(other, GradedElement):
            self._check_ring(other)
            den1, num1 = _over_common_denominator(self.terms)
            den2, num2 = _over_common_denominator(other.terms)
            raw: dict[tuple[int, ...], int] = {}
            for e1, c1 in num1:
                for e2, c2 in num2:
                    mono = tuple(map(add, e1, e2))
                    raw[mono] = raw.get(mono, 0) + c1 * c2
            # normalize is linear, so reducing each raw monomial gives the normal form
            table = self.ring._table
            acc: dict[tuple[int, ...], Scalar] = {}
            for mono, c in raw.items():
                if not c:
                    continue
                reduced = table.get(mono)
                if reduced is None:
                    reduced = self.ring._reduce(mono)
                for e, r in reduced:
                    acc[e] = acc.get(e, 0) + c * r
            den = den1 * den2
            return GradedElement(
                self.ring, {e: Fraction(c, den) for e, c in acc.items() if c}, _trusted=True
            )
        if isinstance(other, (int, Fraction)):
            c = as_rational(other)
            if not c:
                return self.ring.zero()
            return GradedElement(self.ring, {e: k * c for e, k in self.terms.items()}, _trusted=True)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "GradedElement":
        """Integer powers; a negative power needs constant term 1, where
        the inverse of 1 + y (y nilpotent) is the finite sum of (-y)^j."""
        if not isinstance(n, int):
            raise ValueError("ring elements only take integer powers")
        base = self
        if n < 0:
            if self.constant() != 1:
                raise ValueError("negative powers need constant term 1")
            minus_y = self.ring.one() - self
            base, term, n = self.ring.one(), minus_y, -n
            while term:
                base = base + term
                term = term * minus_y
        result = None
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        return self.ring.one() if result is None else result

    # -- comparison -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GradedElement)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for exps in sorted(self.terms, key=lambda e: (self.ring.degree_of(e), e)):
            coeff = self.terms[exps]
            mono = "*".join(
                (name if k == 1 else f"{name}^{k}")
                for name, k in zip(self.ring.generators, exps)
                if k
            )
            if mono:
                bits.append(f"{coeff}*{mono}" if coeff != 1 else mono)
            else:
                bits.append(str(coeff))
        return " + ".join(bits).replace("+ -", "- ")


def _over_common_denominator(terms: Mapping[tuple[int, ...], Fraction]) -> tuple[int, list]:
    """``(d, [(exps, n)])`` with every coefficient equal to ``n / d``."""
    # no lcm(*...): its argument tuples pile up on the interpreter's tuple
    # free lists, and peak RSS creeps with the number of products
    den = reduce(lcm, (c.denominator for c in terms.values()), 1)
    return den, [(e, c.numerator * (den // c.denominator)) for e, c in terms.items()]


# ---------------------------------------------------------------------------
# q-series


def _zero_like(value):
    """The zero of value's kind, scalar, ring or series, built without a product."""
    if isinstance(value, GradedElement):
        return value.ring.zero()
    if isinstance(value, QSeries):
        return QSeries([Fraction(0)] * len(value.coeffs))
    return Fraction(0)


def _coeff_kind(value) -> tuple:
    if isinstance(value, (int, Fraction)):
        return ("scalar",)
    if isinstance(value, GradedElement):
        return ("ring", value.ring)
    if isinstance(value, QSeries) and isinstance(value.coeffs[0], Fraction):
        return ("series",)
    raise TypeError(f"unsupported series coefficient {type(value).__name__}")


class QSeries:
    """Power series in q truncated at a fixed order, exact coefficients.

    Coefficients are all scalars, all elements of one ring, or all
    scalar series (a series in a second variable, such as t = x^2, whose
    coefficients are q-series); index i holds the coefficient of q**i,
    so ``order == len(coeffs)-1``.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence) -> None:
        coeffs = list(coeffs)
        if not coeffs:
            raise ValueError("a series needs at least the q^0 coefficient")
        kinds = {_coeff_kind(c)[0] for c in coeffs}
        if len(kinds) > 1:
            raise TypeError("series coefficients must be all scalars, all ring elements or all series")
        if kinds == {"scalar"}:
            coeffs = [as_rational(c) for c in coeffs]
        elif kinds == {"ring"} and len({c.ring for c in coeffs}) != 1:
            raise ValueError("series coefficients must live in a single ring")
        self.coeffs = coeffs

    @classmethod
    def constant(cls, value, order: int) -> "QSeries":
        return cls([value] + [_zero_like(value)] * order)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def _zero_coeff(self):
        return _zero_like(self.coeffs[0])

    def coefficient(self, i: int):
        return self.coeffs[i] if i <= self.order else self._zero_coeff()

    def truncated(self, order: int) -> "QSeries":
        zero = self._zero_coeff()
        coeffs = [self.coeffs[i] if i <= self.order else zero for i in range(order + 1)]
        return QSeries(coeffs)

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, QSeries) and self.coeffs == other.coeffs

    def __add__(self, other: "QSeries") -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return QSeries([self.coeffs[i] + other.coeffs[i] for i in range(n + 1)])

    def __sub__(self, other: "QSeries") -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return QSeries([self.coeffs[i] - other.coeffs[i] for i in range(n + 1)])

    def __neg__(self) -> "QSeries":
        return QSeries([-c for c in self.coeffs])

    def __mul__(self, other) -> "QSeries":
        if isinstance(other, (int, Fraction, GradedElement)):
            return self.scale(other)
        if not isinstance(other, QSeries):
            return NotImplemented
        n = min(self.order, other.order)
        # a scalar coefficient times a ring element is a ring element
        ring_valued = isinstance(self.coeffs[0], GradedElement)
        out = [(self if ring_valued else other)._zero_coeff()] * (n + 1)
        for i, a in enumerate(self.coeffs[: n + 1]):
            if not a:
                continue
            for j in range(n + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] = out[i + j] + a * b
        return QSeries(out)

    __rmul__ = __mul__

    def scale(self, value) -> "QSeries":
        return QSeries([c * value for c in self.coeffs])

    def inverse(self) -> "QSeries":
        """Multiplicative inverse; the constant term must be an invertible
        scalar, or the scalar series 1, which is its own inverse."""
        a0 = self.coeffs[0]
        if isinstance(a0, QSeries) and a0 == QSeries.constant(Fraction(1), a0.order):
            inv0, out = Fraction(1), [a0]
        elif isinstance(a0, Fraction) and a0:
            inv0 = 1 / a0
            out = [inv0]
        else:
            raise ValueError("series inverse needs a nonzero scalar or unit series constant term")
        for n in range(1, self.order + 1):
            acc = _zero_like(a0)
            for i in range(1, n + 1):
                if self.coeffs[i]:
                    acc = acc + self.coeffs[i] * out[n - i]
            out.append(acc * -inv0)
        return QSeries(out)

    def __pow__(self, n: int) -> "QSeries":
        """Integer powers of a series with scalar or scalar-series coefficients."""
        if not isinstance(n, int):
            raise TypeError("series powers must be integers")
        a0 = self.coeffs[0]
        if isinstance(a0, GradedElement):
            raise TypeError("integer powers are only supported for scalar and scalar-series coefficients")
        base = self if n >= 0 else self.inverse()
        n = abs(n)
        result = None
        while n:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if n:
                base = base * base
        if result is None:
            one = Fraction(1) if isinstance(a0, Fraction) else QSeries.constant(Fraction(1), a0.order)
            result = QSeries.constant(one, self.order)
        return result

    def __repr__(self) -> str:
        return f"QSeries({self.coeffs!r})"


# ---------------------------------------------------------------------------
# exact linear algebra


class RationalMatrix:
    """A dense matrix of Fractions with exact rank and solve."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence[Scalar]]) -> None:
        rows = [[as_rational(v) for v in row] for row in entries]
        if not rows or not rows[0]:
            raise ValueError("matrix must have positive dimensions")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("matrix rows must all have the same length")
        self.rows = len(rows)
        self.cols = width
        self.entries = rows

    def rank(self) -> int:
        return len(_rref([row[:] for row in self.entries], self.cols))

    def solve(self, rhs: Sequence[Scalar]) -> list[Fraction] | None:
        """One exact solution of self * x = rhs, or None if inconsistent.

        Free variables, if any, are set to zero.
        """
        if len(rhs) != self.rows:
            raise ValueError("right-hand side length does not match matrix height")
        aug = [row[:] + [as_rational(b)] for row, b in zip(self.entries, rhs)]
        pivots = _rref(aug, self.cols)
        if any(aug[i][self.cols] for i in range(len(pivots), self.rows)):
            return None
        x = [Fraction(0)] * self.cols
        for row, col in enumerate(pivots):
            x[col] = aug[row][self.cols]
        return x

    def __repr__(self) -> str:
        return f"RationalMatrix({self.rows}x{self.cols})"


def _rref(rows: list[list[Fraction]], ncols: int) -> list[int]:
    """Gauss-Jordan on the first ``ncols`` columns of ``rows``, in place.

    Returns the pivot column of each leading row, in row order; rows
    past the last pivot are zero in those columns.
    """
    pivots: list[int] = []
    for col in range(ncols):
        r = len(pivots)
        if r == len(rows):
            break
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][col]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
    return pivots


def interpolate_polynomial(points: Sequence[tuple[Scalar, Scalar]]) -> list[Fraction]:
    """Coefficients (by ascending degree) of the unique polynomial of
    degree < len(points) through the given points.  Exact Vandermonde solve."""
    xs = [as_rational(x) for x, _ in points]
    ys = [as_rational(y) for _, y in points]
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation nodes must be distinct")
    n = len(xs)
    vand = RationalMatrix([[x ** j for j in range(n)] for x in xs])
    coeffs = vand.solve(ys)
    if coeffs is None:  # a Vandermonde system with distinct nodes is never inconsistent
        raise RuntimeError("unreachable: singular Vandermonde system")
    return coeffs
