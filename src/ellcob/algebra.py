"""Exact scalars, truncated graded rings, q-series, rational matrices and
the base class of the immutable records.

Every scalar this package hands out is a ``fractions.Fraction``; nothing
here rounds, ever.  The central object is :class:`GradedElement`, a sparse
polynomial in named even-degree generators kept in normal form with
respect to single-head-generator rewrite rules (``a**r -> lower order``)
and truncated above the ring's top dimension.  A :class:`QSeries`, a
power series in q truncated at q^N, is an element of Q[q]/(q^(N+1)).
:class:`RationalMatrix` does exact rank and solve.
:func:`interpolate_polynomial` fits n points by Newton's divided
differences in O(n^2) operations, with no elimination.  A fit through
one point more than a degree bound checks the bound: it holds exactly
when the top coefficient is zero.

Ring arithmetic runs on integers, and it is the only arithmetic on
q-series: q has degree 2 and that ring truncates above degree 2N.

* Monomial codes.  A ring of top degree D gives generator i of degree
  d_i the base b_i = 2 D // d_i + 1 and the place value
  b_0 b_1 ... b_(i-1); a monomial with exponents e_i < b_i is the integer
  sum e_i * place_i.  A normal monomial has e_i <= D // d_i, so the
  exponents of a product of two stay below their bases and the product's
  code is the sum of the two codes.
* Canonical form.  An element is ``num``, a dict from code to nonzero
  int, over ``den``, a positive int, with gcd(den, all numerators) = 1
  and den = 1 for zero.  Equal elements therefore have equal ``den`` and
  ``num``.  Sums, scalar multiples and products stay in ints and divide
  out one gcd per result; ``terms`` (exponent tuple -> Fraction) is a
  read-only view built on demand.
* One rewrite engine.  A ring's reduction table maps a raw monomial code
  to its normal form.  An entry is filled on first use by one rewrite
  step on codes from lower entries, filled the same way when missing
  (:meth:`RingSpec._reduce`, the only code that applies a rule).  A
  product sums codes pairwise and the constructor codes its terms; both
  then read every raw code's normal form from the table.  Pairing, the
  third reader, sums codes as a product does but keeps only one
  monomial's share of each entry
  (:meth:`GradedElement.product_coefficient`), so the last product of a
  characteristic number is never formed.
* One table per ring, the only memo a ring keeps.  Equal rings built
  apart fill tables apart, so rings are shared where they are built
  again: the model builders hand out one ring object for an input they
  keep building (``ellcob.manifolds``), and ``_q_ring`` one per q-order.

Elements, series and matrices are immutable and all operations are pure.
Table entries are filled idempotently (an entry depends only on its
key), so a ring and its table are safe to share between threads.
"""
from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from functools import lru_cache, reduce
from math import gcd, lcm, prod
from operator import index, mul
from types import MappingProxyType

__all__ = [
    "as_rational",
    "RingSpec",
    "GradedElement",
    "QSeries",
    "RationalMatrix",
    "interpolate_polynomial",
]

Scalar = int | Fraction
_ZERO = Fraction(0)  # shared: a Fraction is immutable


class Record:
    """Base of the small immutable records: a subclass names its fields in
    ``__slots__`` and sets them once through :meth:`_fill`.  Repr, equality, hash,
    pickle and copy act as a frozen dataclass's, without importing ``dataclasses``."""

    __slots__ = ()

    def _fill(self, *values: object) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:  # the fields equality and hash compare
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"field {name!r} of {type(self).__name__} is read-only")

    __delattr__ = __setattr__

    def __eq__(self, other: object) -> bool:
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"


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
    monomial of ``rhs`` has the same degree as ``g**power``, a strictly
    smaller exponent of ``g`` and exponent 0 in every generator listed
    before ``g``, which the constructor checks.  Each rewrite then
    lowers the exponent vector lexicographically, so reduction
    terminates, and the result is independent of rewrite order.
    Elements of degree above ``truncation_dimension`` are zero.
    """

    __slots__ = ("generators", "degrees", "truncation_dimension", "rules", "_index", "_signature",
                 "_bases", "_places", "_integral", "_steps", "_table")

    def __init__(
        self,
        generators: Sequence[tuple[str, int]],
        truncation_dimension: int,
        rewrite_rules: Mapping[str, tuple[int, Mapping[tuple[int, ...], Scalar]]] | None = None,
    ) -> None:
        names = tuple(name for name, _ in generators)
        degs = tuple(index(d) for _, d in generators)
        top = index(truncation_dimension)
        if len(set(names)) != len(names):
            raise ValueError("generator names must be unique")
        for name, d in zip(names, degs):
            if d <= 0 or d % 2:
                raise ValueError(f"generator {name!r} must have positive even degree, got {d}")
        if top < 0 or top % 2:
            raise ValueError("truncation dimension must be a nonnegative even integer")
        self.generators = names
        self.degrees = degs
        self.truncation_dimension = top
        self._index = {name: i for i, name in enumerate(names)}
        rules: dict[int, tuple[int, dict[tuple[int, ...], Fraction]]] = {}
        for name, (power, rhs) in (rewrite_rules or {}).items():
            if name not in self._index:
                raise ValueError(f"rewrite rule for unknown generator {name!r}")
            g = self._index[name]
            power = index(power)
            if power <= 0:
                raise ValueError(f"rewrite rule power for {name!r} must be positive")
            head_degree = power * degs[g]
            clean: dict[tuple[int, ...], Scalar] = {}
            for exps, coeff in rhs.items():
                exps = tuple(map(index, exps))
                if len(exps) != len(names) or any(e < 0 for e in exps):
                    raise ValueError(f"malformed monomial {exps} in rule for {name!r}")
                c = coeff if type(coeff) is int else as_rational(coeff)  # an int needs no Fraction
                if not c:
                    continue
                degree = self.degree_of(exps)
                if degree != head_degree:
                    raise ValueError(
                        f"rewrite rule for {name}^{power} is not degree-homogeneous: "
                        f"monomial {exps} has degree {degree}, head has {head_degree}"
                    )
                if exps[g] >= power:
                    raise ValueError(
                        f"rewrite rule for {name}^{power} does not decrease the head exponent"
                    )
                if any(exps[:g]):
                    raise ValueError(
                        f"rewrite rule for {name}^{power} uses a generator listed before {name!r}, "
                        f"so reduction need not terminate"
                    )
                clean[exps] = clean[exps] + c if exps in clean else c
            rules[g] = (power, {e: as_rational(c) for e, c in clean.items() if c})
        self.rules = rules
        self._signature = (
            names,
            degs,
            top,
            tuple(sorted((g, p, tuple((e, c.numerator, c.denominator) for e, c in sorted(rhs.items())))
                         for g, (p, rhs) in rules.items())),
        )  # ints and strs only, so hashing and comparing it runs no Python code
        # a normal monomial has e_i <= top // deg_i, a product of two at most
        # twice that, so every such exponent is one digit below its base
        self._bases = tuple(2 * top // d + 1 for d in degs)
        self._places = tuple(prod(self._bases[:i]) for i in range(len(degs)))
        self._integral = all(c.denominator == 1 for _, rhs in rules.values() for c in rhs.values())
        # each rule once on codes, (g, power, power * place_g, rhs pairs); a
        # head above the top fires on no monomial of degree <= top, and its
        # right-hand side may hold exponents outside the bases
        self._steps = tuple(
            (g, power, power * self._places[g],
             tuple((self.code(e), c.numerator if c.denominator == 1 else c) for e, c in rhs.items()))
            for g, (power, rhs) in rules.items()
            if power * degs[g] <= top
        )
        self._table = {}  # raw monomial code -> its normal form, filled on first use; the ring's one memo

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
        return sum(map(mul, exps, self.degrees))

    def code(self, exps: Sequence[int]) -> int | None:
        """The integer code sum e_i * place_i of a monomial, or None when an
        exponent lies outside [0, base_i), where no normal monomial and no
        product of two has one."""
        if len(exps) != len(self._bases):
            return None
        code = 0
        for e, base, place in zip(exps, self._bases, self._places):
            if not 0 <= e < base:
                return None
            code += e * place
        return code

    def exponents(self, code: int) -> tuple[int, ...]:
        """The exponent tuple of a monomial code."""
        out = []
        for base in self._bases:
            code, e = divmod(code, base)
            out.append(e)
        return tuple(out)

    # -- reduction ----------------------------------------------------

    def normalize_terms(self, terms: Mapping[tuple[int, ...], Scalar]) -> tuple[int, dict[int, int]]:
        """The canonical ``(den, num)`` of an arbitrary term dict.

        Monomials above the truncation dimension are dropped; the rest
        are coded, put over one common denominator and reduced through
        the table like the raw monomials of a product.
        """
        top, places = self.truncation_dimension, self._places
        coded: dict[int, Scalar] = {}
        for exps, coeff in terms.items():
            exps = tuple(map(index, exps))
            if len(exps) != self.ngens or any(e < 0 for e in exps):
                raise ValueError(f"malformed monomial {exps}")
            c = coeff if type(coeff) is int else as_rational(coeff)  # an int needs no Fraction
            if c and self.degree_of(exps) <= top:
                k = sum(map(mul, exps, places))  # a degree <= top keeps each exponent below its base
                coded[k] = coded[k] + c if k in coded else c
        den = reduce(lcm, (c.denominator for c in coded.values()), 1)
        x = self._normal(den, {k: c.numerator * (den // c.denominator) for k, c in coded.items()})
        return x.den, x.num

    def _reduce(self, code: int) -> tuple[tuple[int, Scalar], ...]:
        """Tabled normal form of one monomial: ``(code, int or Fraction)`` pairs.

        One rewrite step on codes: a monomial above the top is zero, one
        no head rule applies to is its own normal form, and otherwise the
        first applicable rule g**power = sum c_r r gives sum c_r *
        table[code - power * place_g + code(r)].  Those monomials have the
        same degree, at most the top, so their exponents stay inside the
        bases, and they are lex-smaller, so the recursion filling any
        missing one ends.
        """
        exps = self.exponents(code)
        if self.degree_of(exps) > self.truncation_dimension:
            reduced: tuple = ()
        else:
            for g, power, step, rhs in self._steps:
                if exps[g] >= power:
                    table, base = self._table, code - step
                    acc: dict[int, Scalar] = {}
                    get = acc.get
                    for rcode, rc in rhs:
                        lower = table.get(base + rcode)
                        if lower is None:
                            lower = self._reduce(base + rcode)
                        for c, v in lower:
                            acc[c] = get(c, 0) + rc * v
                    reduced = tuple((c, v) for c, v in acc.items() if v)
                    break
            else:
                reduced = ((code, 1),)
        self._table[code] = reduced
        return reduced

    def _normal(self, den: int, raw: dict[int, int]) -> "GradedElement":
        """The element raw / den, raw mapping codes with exponents inside
        the bases to ints.  Normal form is linear, so each raw monomial is
        replaced by its table entry."""
        table = self._table
        acc: dict[int, Scalar] = {}
        get = acc.get
        for k, n in raw.items():
            if n:
                reduced = table.get(k)
                if reduced is None:
                    reduced = self._reduce(k)
                for c, r in reduced:
                    acc[c] = get(c, 0) + n * r
        return _canonical(self, den, acc)

    # -- element constructors ------------------------------------------

    def element(self, terms: Mapping[tuple[int, ...], Scalar]) -> "GradedElement":
        return GradedElement(self, terms)

    def zero(self) -> "GradedElement":
        return _element(self, 1, {})

    def one(self) -> "GradedElement":
        return _element(self, 1, {0: 1})

    def scalar(self, value: Scalar) -> "GradedElement":
        c = as_rational(value)
        if not c:
            return self.zero()
        return _element(self, c.denominator, {0: c.numerator})

    def gen(self, name: str) -> "GradedElement":
        g = self._index[name]
        if self.degrees[g] > self.truncation_dimension:  # above 2 * top the base is 1 and the code aliases
            return self.zero()
        return self._normal(1, {self._places[g]: 1})


class GradedElement:
    """A normal-form element of a :class:`RingSpec`: the integer numerators
    ``num`` (monomial code -> nonzero int) over the positive denominator
    ``den``, kept canonical.  Immutable."""

    __slots__ = ("ring", "den", "num")

    def __init__(self, ring: RingSpec, terms: Mapping[tuple[int, ...], Scalar]) -> None:
        self.ring = ring
        self.den, self.num = ring.normalize_terms(terms)

    # -- inspection ----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.num)

    @property
    def terms(self) -> Mapping[tuple[int, ...], Fraction]:
        """Read-only view, exponent tuple -> Fraction, built on each access."""
        exponents, den = self.ring.exponents, self.den
        return MappingProxyType({exponents(c): Fraction(n, den) for c, n in self.num.items()})

    def coefficient(self, exps: tuple[int, ...]) -> Fraction:
        n = self.num.get(self.ring.code(tuple(exps)))  # a code of None finds nothing
        return Fraction(n, self.den) if n else _ZERO

    def constant(self) -> Fraction:
        return self.coefficient((0,) * self.ring.ngens)

    def homogeneous_parts(self) -> dict[int, "GradedElement"]:
        """The nonzero homogeneous parts, degree -> part, split in one pass
        that decodes each monomial's degree once."""
        ring, split = self.ring, {}
        for c, n in self.num.items():
            split.setdefault(ring.degree_of(ring.exponents(c)), {})[c] = n
        return {d: _canonical(ring, self.den, num) for d, num in split.items()}

    # -- arithmetic -----------------------------------------------------

    def _check_ring(self, other: "GradedElement") -> None:
        if self.ring is not other.ring and self.ring != other.ring:
            raise ValueError("elements of different rings cannot be combined")

    def __add__(self, other: "GradedElement") -> "GradedElement":
        if not isinstance(other, GradedElement):
            return NotImplemented
        self._check_ring(other)
        if not other.num:
            return self
        if not self.num:
            return other
        d1, d2 = self.den, other.den
        if d1 == d2:
            den, num = d1, dict(self.num)
            for c, n in other.num.items():
                num[c] = num.get(c, 0) + n
        else:
            den = d1 // gcd(d1, d2) * d2
            m1, m2 = den // d1, den // d2
            num = {c: n * m1 for c, n in self.num.items()}
            for c, n in other.num.items():
                num[c] = num.get(c, 0) + n * m2
        return _canonical(self.ring, den, num)

    def __sub__(self, other: "GradedElement") -> "GradedElement":
        if not isinstance(other, GradedElement):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "GradedElement":
        return _element(self.ring, self.den, {c: -n for c, n in self.num.items()})

    def _raw_product(self, other: "GradedElement") -> dict[int, int]:
        """The numerators of self * other over self.den * other.den before
        reduction: exponents of normal monomials add without carries, so
        codes add pairwise."""
        self._check_ring(other)
        raw: dict[int, int] = {}
        get = raw.get
        pairs = other.num.items()
        for c1, n1 in self.num.items():
            for c2, n2 in pairs:
                k = c1 + c2
                raw[k] = get(k, 0) + n1 * n2
        return raw

    def product_coefficient(self, other: "GradedElement", exps: tuple[int, ...]) -> Fraction:
        """``(self * other).coefficient(exps)`` without forming the product.
        Normal form is linear, so each distinct raw code contributes the
        target's share of its table entry and nothing else is kept."""
        raw, ring = self._raw_product(other), self.ring
        target = ring.code(tuple(exps))  # None matches no entry
        table, total = ring._table, 0
        for k, n in raw.items():
            if n:
                reduced = table.get(k)
                if reduced is None:
                    reduced = ring._reduce(k)
                for c, r in reduced:
                    if c == target:
                        total += n * r
                        break
        return Fraction(total, self.den * other.den) if total else _ZERO

    def __mul__(self, other: GradedElement | Scalar) -> "GradedElement":
        if isinstance(other, GradedElement):
            return self.ring._normal(self.den * other.den, self._raw_product(other))
        if isinstance(other, (int, Fraction)):
            if not other:
                return self.ring.zero()
            p = other.numerator
            return _canonical(self.ring, self.den * other.denominator, {c: n * p for c, n in self.num.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "GradedElement":
        """Integer powers, the exponent read with ``operator.index``; a
        negative power needs constant term 1, where the inverse of 1 + y
        (y nilpotent) is the finite sum of (-y)^j."""
        n = index(n)
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
            and self.den == other.den
            and self.num == other.num
        )

    def __repr__(self) -> str:
        terms = self.terms
        if not terms:
            return "0"
        bits = []
        for exps in sorted(terms, key=lambda e: (self.ring.degree_of(e), e)):
            coeff = terms[exps]
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


def _element(ring: RingSpec, den: int, num: dict[int, int]) -> GradedElement:
    """An element from numerators already in canonical form."""
    x = object.__new__(GradedElement)
    x.ring, x.den, x.num = ring, den, num
    return x


def _canonical(ring: RingSpec, den: int, acc: dict[int, Scalar]) -> GradedElement:
    """The element acc / den: zeros dropped, Fraction entries (only from a
    ring with rational rules) cleared into den, and the common gcd of den
    and the numerators divided out."""
    num = {c: n for c, n in acc.items() if n}
    if not num:
        return ring.zero()
    if not ring._integral:
        d = reduce(lcm, (n.denominator for n in num.values()), 1)
        num = {c: n.numerator * (d // n.denominator) for c, n in num.items()}
        den *= d
    if den != 1:
        g = den
        for n in num.values():
            g = gcd(g, n)
            if g == 1:
                break
        else:
            den //= g
            num = {c: n // g for c, n in num.items()}
    return _element(ring, den, num)


# ---------------------------------------------------------------------------
# q-series


@lru_cache(maxsize=64)  # one ring per order, room for the q-orders 0..32 the CLI allows, so series share it
def _q_ring(order: int) -> RingSpec:  # Q[q]/(q^(order+1)): q has degree 2, and the truncation kills q^(order+1)
    return RingSpec([("q", 2)], 2 * order)


class QSeries:
    """Power series in q truncated at a fixed order, rational coefficients:
    an element of the ring Q[q]/(q^(order+1)), whose arithmetic it uses;
    index i of ``coeffs`` holds the coefficient of q**i, so ``order == len(coeffs)-1``."""

    __slots__ = ("element",)

    def __init__(self, coeffs: Iterable[Scalar]) -> None:
        coeffs = [as_rational(c) for c in coeffs]
        if not coeffs:
            raise ValueError("a series needs at least the q^0 coefficient")
        self.element = _q_ring(len(coeffs) - 1).element({(i,): c for i, c in enumerate(coeffs)})

    @classmethod
    def constant(cls, value: Scalar, order: int) -> "QSeries":
        if order < 0:
            raise ValueError(f"q-order must be nonnegative, not {order}")
        return cls([value] + [_ZERO] * order)

    @property
    def order(self) -> int:
        return self.element.ring.truncation_dimension // 2

    @property
    def coeffs(self) -> list[Fraction]:  # built on each read, as GradedElement.terms is
        num, den = self.element.num, self.element.den
        return [Fraction(num[i], den) if i in num else _ZERO for i in range(self.order + 1)]

    def _at(self, order: int) -> GradedElement:  # truncated at q^order <= q^self.order
        return self.element if order == self.order else QSeries(self.coeffs[: order + 1]).element

    def __bool__(self) -> bool:
        return bool(self.element)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, QSeries) and self.element == other.element

    def __add__(self, other: "QSeries") -> "QSeries":
        if not isinstance(other, QSeries):
            return NotImplemented
        n = min(self.order, other.order)
        return _series(self._at(n) + other._at(n))

    def __sub__(self, other: "QSeries") -> "QSeries":
        return self + -other if isinstance(other, QSeries) else NotImplemented

    def __neg__(self) -> "QSeries":
        return _series(-self.element)

    def __mul__(self, other: QSeries | Scalar) -> "QSeries":
        if isinstance(other, QSeries):
            n = min(self.order, other.order)
            return _series(self._at(n) * other._at(n))
        return _series(self.element * other) if isinstance(other, (int, Fraction)) else NotImplemented

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"QSeries({self.coeffs!r})"


def _series(x: GradedElement) -> QSeries:
    s = object.__new__(QSeries)
    s.element = x
    return s


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
        x = [_ZERO] * self.cols  # callers keep solutions, and many entries are zero
        for row, col in enumerate(pivots):
            if aug[row][self.cols]:
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
    """Coefficients (by ascending degree) of the unique polynomial of degree
    < len(points) through the given points: Newton's divided differences."""
    xs = [as_rational(x) for x, _ in points]
    c = [as_rational(y) for _, y in points]
    if not xs:
        raise ValueError("interpolation needs at least one point")
    if len(set(xs)) != len(xs):
        raise ValueError("interpolation nodes must be distinct")
    for j in range(1, len(xs)):  # c[i] becomes the divided difference over xs[i-j..i]
        c[j:] = [(b - a) / (x - w) for x, w, a, b in zip(xs[j:], xs, c[j - 1:], c[j:])]
    coeffs: list[Fraction] = []
    for x, d in zip(reversed(xs), reversed(c)):  # Horner's rule: coeffs * (t - x) + d
        coeffs = [a - x * b for a, b in zip([d] + coeffs, coeffs + [0])]
    return [a if a else _ZERO for a in coeffs]  # callers keep coefficients, and many are zero
