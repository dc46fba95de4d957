"""Exact-arithmetic kernel: graded rings with rewrite rules, truncated
power series, and rational linear algebra.

Oracles: hand-reduced normal forms for a small quotient ring, classical
power-series identities, and sympy (test-only) for matrix ranks.
"""
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from ellcob.algebra import (
    GradedElement,
    QSeries,
    RationalMatrix,
    RingSpec,
    as_rational,
    interpolate_polynomial,
    series_mul,
)
from ellcob.manifolds import LineBundleSum, build_proj_bundle

F = Fraction


def small_ring() -> RingSpec:
    """Rank-2 projectivization shape over a one-generator base:
    a has a^2 -> -2ab (head rewrite), degrees above 8 truncate to zero."""
    return RingSpec(
        generators=(("a", 2), ("b", 2)),
        truncation_dimension=8,
        rewrite_rules={"a": (2, {(1, 1): F(-2)})},
    )


class TestAsRational:
    def test_int_and_fraction_pass(self):
        assert as_rational(3) == F(3)
        assert as_rational(F(1, 2)) == F(1, 2)

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            as_rational(0.5)

    def test_bool_coerces_like_int(self):
        # bool is an int subclass; it rides along as 0/1
        assert as_rational(True) == F(1)


class TestRingSpecValidation:
    def test_odd_degree_rejected(self):
        with pytest.raises(ValueError):
            RingSpec(generators=(("a", 3),), truncation_dimension=8, rewrite_rules={})

    def test_rule_must_preserve_degree(self):
        with pytest.raises(ValueError):
            RingSpec(
                generators=(("a", 2), ("b", 2)),
                truncation_dimension=8,
                rewrite_rules={"a": (2, {(0, 1): F(1)})},
            )

    def test_rule_head_exponent_must_drop(self):
        with pytest.raises(ValueError):
            RingSpec(
                generators=(("a", 2), ("b", 2)),
                truncation_dimension=8,
                rewrite_rules={"a": (2, {(2, 0): F(1)})},
            )


class TestNormalization:
    def test_head_rewrite_chain(self):
        # a^2 -> -2ab, so a^3 -> 4ab^2 and a^4 -> -8ab^3 (degree 8, inside truncation)
        ring = small_ring()
        a = ring.gen("a")
        assert (a * a).terms == {(1, 1): F(-2)}
        assert (a * a * a).terms == {(1, 2): F(4)}
        assert (a ** 4).terms == {(1, 3): F(-8)}
        assert (a ** 5).terms == {}

    def test_truncation(self):
        ring = small_ring()
        b = ring.gen("b")
        assert (b ** 3).terms == {(0, 3): F(1)}
        assert (b ** 4).terms == {(0, 4): F(1)}
        assert (b ** 5).terms == {}

    def test_idempotent(self):
        ring = small_ring()
        a, b = ring.gen("a"), ring.gen("b")
        x = (a + 2 * b) ** 3
        again = GradedElement(ring, dict(x.terms))
        assert again.terms == x.terms

    def test_scalar_arithmetic(self):
        ring = small_ring()
        a = ring.gen("a")
        assert (3 * a - a - a - a).terms == {}
        assert (F(1, 2) * (a + a)).terms == a.terms


@st.composite
def ring_elements(draw):
    ring = small_ring()
    coeffs = draw(
        st.lists(
            st.tuples(
                st.integers(0, 2),
                st.integers(0, 3),
                st.integers(-4, 4),
            ),
            max_size=5,
        )
    )
    terms = {}
    for i, j, c in coeffs:
        terms[(i, j)] = terms.get((i, j), F(0)) + F(c)
    return ring.element(terms)


class TestRingProperties:
    @settings(max_examples=60, deadline=None)
    @given(ring_elements(), ring_elements())
    def test_commutative(self, x, y):
        assert (x * y).terms == (y * x).terms

    @settings(max_examples=60, deadline=None)
    @given(ring_elements(), ring_elements(), ring_elements())
    def test_associative(self, x, y, z):
        assert ((x * y) * z).terms == (x * (y * z)).terms

    @settings(max_examples=60, deadline=None)
    @given(ring_elements(), ring_elements(), ring_elements())
    def test_distributive(self, x, y, z):
        assert (x * (y + z)).terms == (x * y + x * z).terms

    @settings(max_examples=60, deadline=None)
    @given(ring_elements())
    def test_one_is_identity(self, x):
        ring = x.ring
        assert (x * ring.one()).terms == x.terms


# -- the tabled product against the worklist route -------------------------

rationals = st.builds(F, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def rule_rings(draw):
    """1-3 generators of degree 2 or 4 and single-head rules with rational
    coefficients.  The rule for generator i only uses generators >= i and
    lowers the exponent of i, so reduction terminates."""
    degs = draw(st.lists(st.sampled_from([2, 4]), min_size=1, max_size=3))
    n = len(degs)
    rules = {}
    for i in range(n):
        if not draw(st.booleans()):
            continue
        power = draw(st.integers(1, 3))
        head = power * degs[i]
        monos = [
            (0,) * i + rest
            for rest in product(range(power), *[range(head // d + 1) for d in degs[i + 1:]])
            if sum(e * d for e, d in zip(rest, degs[i:])) == head
        ]
        picked = draw(st.lists(st.sampled_from(monos), unique=True, max_size=3)) if monos else []
        rules[f"g{i}"] = (power, {m: draw(rationals) for m in picked})
    top = draw(st.integers(0, 8)) * 2
    return RingSpec([(f"g{i}", d) for i, d in enumerate(degs)], top, rules)


def raw_terms(draw, ring):
    """Unreduced terms: small exponents, rational coefficients."""
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        exps = tuple(draw(st.integers(0, 3)) for _ in range(ring.ngens))
        terms[exps] = terms.get(exps, F(0)) + draw(rationals)
    return terms


def worklist_product(x, y):
    """The unreduced exponent-sum product, normalized by the worklist."""
    raw = {}
    for e1, c1 in x.terms.items():
        for e2, c2 in y.terms.items():
            mono = tuple(a + b for a, b in zip(e1, e2))
            raw[mono] = raw.get(mono, F(0)) + c1 * c2
    return GradedElement(x.ring, raw)


@st.composite
def rule_ring_pairs(draw):
    ring = draw(rule_rings())
    return GradedElement(ring, raw_terms(draw, ring)), GradedElement(ring, raw_terms(draw, ring))


@st.composite
def bundle_ring_pairs(draw):
    base = draw(st.integers(1, 3))
    degrees = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=4))
    ring = build_proj_bundle(LineBundleSum(base, tuple(degrees))).ring
    return GradedElement(ring, raw_terms(draw, ring)), GradedElement(ring, raw_terms(draw, ring))


class TestTabledProduct:
    @settings(max_examples=150, deadline=None)
    @given(rule_ring_pairs())
    def test_matches_worklist(self, pair):
        x, y = pair
        xy = x * y
        assert xy == worklist_product(x, y)
        assert all(type(c) is Fraction for c in xy.terms.values())

    @settings(max_examples=60, deadline=None)
    @given(bundle_ring_pairs())
    def test_matches_worklist_on_bundles(self, pair):
        x, y = pair
        assert x * y == worklist_product(x, y)

    @settings(max_examples=60, deadline=None)
    @given(rule_ring_pairs())
    def test_equal_rings_give_equal_products(self, pair):
        x, y = pair
        ring = x.ring
        twin = RingSpec(
            list(zip(ring.generators, ring.degrees)),
            ring.truncation_dimension,
            {ring.generators[g]: (p, rhs) for g, (p, rhs) in ring.rules.items()},
        )
        assert twin == ring and twin is not ring
        xy = x * y
        assert GradedElement(twin, x.terms) * GradedElement(twin, y.terms) == xy
        assert xy.terms == (x * y).terms  # the filled table gives the same answer again


class TestHomogeneousParts:
    def test_split_and_reassemble(self):
        ring = small_ring()
        a, b = ring.gen("a"), ring.gen("b")
        x = (ring.one() + a + b) ** 2
        pieces = [x.homogeneous_part(d) for d in range(0, 10, 2)]
        total = pieces[0]
        for piece in pieces[1:]:
            total = total + piece
        assert total.terms == x.terms

    def test_coefficient_lookup(self):
        ring = small_ring()
        a, b = ring.gen("a"), ring.gen("b")
        x = a * b + 5 * b * b
        assert x.coefficient((1, 1)) == F(1)
        assert x.coefficient((0, 2)) == F(5)
        assert x.coefficient((2, 0)) == F(0)


class TestQSeries:
    def test_geometric_inverse(self):
        # (1 - q)^-1 = 1 + q + q^2 + ...
        one_minus_q = QSeries([F(1), F(-1), F(0), F(0), F(0), F(0)])
        inv = one_minus_q.inverse()
        assert [inv.coefficient(j) for j in range(6)] == [F(1)] * 6

    def test_product_truncates_to_min_order(self):
        s = QSeries([F(1), F(1), F(0), F(0)])
        t = QSeries([F(1), F(0), F(0)])
        assert (s * t).order == 2

    def test_pow_matches_repeated_mul(self):
        s = QSeries([F(1), F(2), F(-1), F(0), F(0)])
        assert (s ** 3).coeffs == (s * s * s).coeffs

    def test_negative_power(self):
        s = QSeries([F(2), F(1), F(0), F(0), F(0)])
        assert (s ** -1 * s).coeffs == QSeries.constant(F(1), 4).coeffs

    def test_series_mul_function(self):
        s = QSeries([F(1), F(1), F(0), F(0), F(0)])
        assert series_mul(s, s, 4).coefficient(2) == F(1)

    def test_scalar_multiplication(self):
        s = QSeries([F(0), F(3), F(0), F(0), F(0)])
        assert (2 * s).coefficient(1) == F(6)
        assert (s * F(1, 3)).coefficient(1) == F(1)


class TestRingValuedSeriesProduct:
    """A ring-valued series product makes one ring product per pair of
    nonzero coefficients, and builds its zeros without a product."""

    def _series(self):
        ring = RingSpec([("x", 2)], 8)
        x, one, zero = ring.gen("x"), ring.one(), ring.zero()
        return ring, QSeries([one, x, zero, x * x]), QSeries([x, zero, one, x, one])

    def test_one_ring_product_per_nonzero_pair(self, monkeypatch):
        ring, a, b = self._series()
        x = ring.gen("x")
        # nonzero q-degrees 0, 1, 3 and 0, 2, 3, 4 at order 3:
        # (0,0) (0,2) (0,3) (1,0) (1,2) (3,0)
        calls = []
        original = GradedElement.__mul__

        def counting(self, other):
            calls.append(other)
            return original(self, other)

        monkeypatch.setattr(GradedElement, "__mul__", counting)
        product = a * b
        monkeypatch.undo()
        assert len(calls) == 6
        assert all(isinstance(other, GradedElement) for other in calls)
        assert product.coeffs == [x, x * x, ring.one(), x * 2 + x * x * x]

    def test_zero_coefficients_keep_their_kind(self):
        ring, a, _ = self._series()
        sparse = QSeries([ring.gen("x"), ring.zero(), ring.zero()])
        assert (sparse * sparse).coeffs[1:] == [ring.zero(), ring.zero()]
        assert QSeries.constant(ring.one(), 2).coeffs[1:] == [ring.zero(), ring.zero()]
        assert a.truncated(5).coeffs[4:] == [ring.zero(), ring.zero()]
        scalar = QSeries([F(0), F(1)]) * QSeries([F(0), F(1)])
        assert scalar.coeffs == [F(0), F(0)] and all(type(c) is Fraction for c in scalar.coeffs)


class TestRationalMatrix:
    def test_rank_oracle_sympy(self):
        import sympy

        rows = [
            [F(1), F(2), F(3)],
            [F(2), F(4), F(6)],
            [F(0), F(1), F(1)],
        ]
        ours = RationalMatrix(rows).rank()
        theirs = sympy.Matrix([[sympy.Rational(x) for x in r] for r in rows]).rank()
        assert ours == theirs == 2

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(-5, 5), min_size=3, max_size=3),
            min_size=1,
            max_size=4,
        )
    )
    def test_rank_matches_sympy(self, int_rows):
        import sympy

        rows = [[F(x) for x in r] for r in int_rows]
        assert RationalMatrix(rows).rank() == sympy.Matrix(int_rows).rank()

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.lists(st.integers(-5, 5), min_size=3, max_size=3), min_size=3, max_size=3),
        st.lists(st.integers(-5, 5), min_size=3, max_size=3),
    )
    def test_solve_round_trip(self, int_rows, int_sol):
        rows = [[F(x) for x in r] for r in int_rows]
        sol = [F(x) for x in int_sol]
        rhs = RationalMatrix(rows).matvec(sol)
        found = RationalMatrix(rows).solve(rhs)
        assert found is not None
        assert RationalMatrix(rows).matvec(found) == rhs

    def test_inconsistent_system_returns_none(self):
        m = RationalMatrix([[F(1), F(1)], [F(1), F(1)]])
        assert m.solve([F(0), F(1)]) is None

    def test_solve_exact_values(self):
        m = RationalMatrix([[F(2), F(0)], [F(0), F(4)]])
        assert m.solve([F(1), F(1)]) == [F(1, 2), F(1, 4)]


class TestInterpolation:
    def test_cubic(self):
        # f(c) = -8c^3 sampled at 1..4
        pts = [(F(c), F(-8 * c ** 3)) for c in range(1, 5)]
        assert interpolate_polynomial(pts) == [F(0), F(0), F(0), F(-8)]

    def test_constant(self):
        assert interpolate_polynomial([(F(1), F(7))]) == [F(7)]

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(-9, 9), min_size=1, max_size=5))
    def test_round_trip(self, int_coeffs):
        coeffs = [F(x) for x in int_coeffs]
        pts = []
        for c in range(1, len(coeffs) + 1):
            val = sum((coeffs[j] * F(c) ** j for j in range(len(coeffs))), F(0))
            pts.append((F(c), val))
        found = interpolate_polynomial(pts)
        padded = found + [F(0)] * (len(coeffs) - len(found))
        assert padded[: len(coeffs)] == coeffs
