"""Exact-arithmetic kernel: graded rings with monomial relations,
truncated power series, and rational linear algebra.

Oracles: hand-computed normal forms for a small quotient ring, a filter
on exponent tuples (independent of the codes and the memo the library
uses), classical power-series identities, and sympy (test-only) for
matrix ranks.
"""
import random
import re
from fractions import Fraction
from itertools import product
from math import gcd
from operator import index

import pytest
from hypothesis import given, settings, strategies as st

import symmetric_reference as ref
from ellcob import algebra
from ellcob.algebra import (
    GradedElement,
    QSeries,
    RationalMatrix,
    RingSpec,
    as_rational,
    interpolate_polynomial,
)
from ellcob.cobordism import pontryagin_numbers
from ellcob.genera import signature
from ellcob.manifolds import LineBundleSum, build_cp, build_hp, build_proj_bundle, pair, product as manifold_product

F = Fraction


def small_ring() -> RingSpec:
    """Two generators of degree 2 with a^3 = 0; degrees above 8 truncate to zero."""
    return RingSpec(
        generators=(("a", 2), ("b", 2)),
        truncation_dimension=8,
        rewrite_rules={"a": (3, {})},
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

    def test_a_relation_with_a_right_hand_side_is_refused(self):
        # a relation is g**p = 0; a^2 = -2ab is not one, even with a zero coefficient spelled out
        for rhs in ({(1, 1): F(-2)}, {(1, 1): 0}):
            with pytest.raises(ValueError, match=re.escape("relation for a^2 must be a^2 = 0")):
                RingSpec([("a", 2), ("b", 2)], 8, {"a": (2, rhs)})
        with pytest.raises(ValueError, match="relation for unknown generator 'c'"):
            RingSpec([("a", 2), ("b", 2)], 8, {"c": (2, {})})
        with pytest.raises(ValueError, match="relation power for 'a' must be positive"):
            RingSpec([("a", 2), ("b", 2)], 8, {"a": (0, {})})

    def test_a_relation_above_the_top_is_the_truncation(self):
        # b^5 has degree 10 > 8, so b^5 = 0 adds nothing and the two rings are one
        ring = RingSpec([("a", 2), ("b", 2)], 8, {"b": (5, {})})
        assert ring == RingSpec([("a", 2), ("b", 2)], 8) and hash(ring) == hash(RingSpec([("a", 2), ("b", 2)], 8))
        assert ring != RingSpec([("a", 2), ("b", 2)], 8, {"b": (4, {})})

    @pytest.mark.parametrize("where", ["degree", "top", "power"])
    def test_float_rejected(self, where):
        # 2.0 equals 2 and hashes alike, and is refused all the same
        ints = {"degree": 2, "top": 8, "power": 2}

        def build(**spelled):
            v = {**ints, **spelled}
            return RingSpec([("a", v["degree"]), ("b", 2)], v["top"], {"a": (v["power"], {})})

        build()  # the int spelling is a ring
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            build(**{where: float(ints[where])})

    @pytest.mark.parametrize("gens, top", [([("u", 4)], 0), ([("a", 2), ("u", 8)], 2)])
    def test_generator_above_the_top_is_zero(self, gens, top):
        # with degree above twice the top, u's base is 1 and its code would alias another digit
        ring = RingSpec(gens, top)
        assert ring.gen("u") == ring.zero() and not ring.gen("u").num


class TestNormalization:
    def test_relation_kills_powers(self):
        # a^3 = 0, so a^2 survives, (a + b)^3 loses its a^3 and a^2 b^2 (degree 8) is the top
        ring = small_ring()
        a, b = ring.gen("a"), ring.gen("b")
        assert (a * a).terms == {(2, 0): F(1)}
        assert (a ** 3).terms == {}
        assert ((a + b) ** 3).terms == {(2, 1): F(3), (1, 2): F(3), (0, 3): F(1)}
        assert (a ** 2 * b ** 2).terms == {(2, 2): F(1)}
        assert (a ** 2 * b ** 3).terms == {}

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


# -- the coded product against the filter on exponent tuples ----------------

rationals = st.builds(F, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def relation_rings(draw):
    """1-3 generators of degree 2 or 4, some with a relation g**p = 0, p in 1..4."""
    degs = draw(st.lists(st.sampled_from([2, 4]), min_size=1, max_size=3))
    relations = {f"g{i}": (draw(st.integers(1, 4)), {}) for i in range(len(degs)) if draw(st.booleans())}
    top = draw(st.integers(0, 8)) * 2
    return RingSpec([(f"g{i}", d) for i, d in enumerate(degs)], top, relations)


def raw_terms(draw, ring):
    """Unreduced terms: small exponents, rational coefficients."""
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        exps = tuple(draw(st.integers(0, 3)) for _ in range(ring.ngens))
        terms[exps] = terms.get(exps, F(0)) + draw(rationals)
    return terms


def fresh_twin(ring):
    """A ring equal to ``ring``, built apart from it, so with an empty memo of its own."""
    return RingSpec(
        list(zip(ring.generators, ring.degrees)),
        ring.truncation_dimension,
        {ring.generators[g]: (p, {}) for g, p in ring._powers},
    )


def filter_normal_form(ring, terms):
    """The normal form of an arbitrary term dict, exponent tuple ->
    Fraction: coefficients of equal monomials summed, and a monomial
    dropped when its degree is above the top or a generator reaches the
    power of its relation."""
    out = {}
    for exps, coeff in terms.items():
        exps = tuple(map(index, exps))
        if len(exps) != ring.ngens or any(e < 0 for e in exps):
            raise ValueError(f"malformed monomial {exps}")
        c = as_rational(coeff)
        if ring.degree_of(exps) <= ring.truncation_dimension and all(exps[g] < p for g, p in ring._powers):
            out[exps] = out.get(exps, F(0)) + c
    return {e: c for e, c in out.items() if c}


def filter_product(ring, x_terms, y_terms):
    """The exponent-sum product of two term dicts, normalized by the filter."""
    raw = {}
    for e1, c1 in x_terms.items():
        for e2, c2 in y_terms.items():
            mono = tuple(a + b for a, b in zip(e1, e2))
            raw[mono] = raw.get(mono, F(0)) + c1 * c2
    return filter_normal_form(ring, raw)


@st.composite
def relation_ring_pairs(draw):
    ring = draw(relation_rings())
    return GradedElement(ring, raw_terms(draw, ring)), GradedElement(ring, raw_terms(draw, ring))


@st.composite
def bundle_rings(draw):
    base = draw(st.integers(1, 3))
    degrees = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=4))
    return build_proj_bundle(LineBundleSum(base, tuple(degrees))).ring


@st.composite
def bundle_ring_pairs(draw):
    ring = draw(bundle_rings())
    return GradedElement(ring, raw_terms(draw, ring)), GradedElement(ring, raw_terms(draw, ring))


@st.composite
def raw_ring_terms(draw):
    """A relation ring or projective-bundle ring and unreduced terms on it:
    exponents up to 3 put monomials above the top and reach relations, and
    the coefficients are rational, with integral ones sometimes plain ints."""
    ring = draw(st.one_of(relation_rings(), bundle_rings()))
    terms = raw_terms(draw, ring)
    if draw(st.booleans()):
        terms = {e: c.numerator if c.denominator == 1 else c for e, c in terms.items()}
    return ring, terms


class TestConstructor:
    @settings(max_examples=150, deadline=None)
    @given(raw_ring_terms())
    def test_matches_the_filter(self, case):
        ring, terms = case
        x = GradedElement(ring, terms)
        assert_canonical(x)
        assert dict(x.terms) == filter_normal_form(ring, terms)

    def test_keys_naming_one_monomial_add_up(self):
        # a range and a tuple are different keys for the same exponents
        ring = small_ring()
        terms = {(1, 2): F(1, 2), range(1, 3): 1, (3, 0): F(1, 3)}
        x = GradedElement(ring, terms)
        assert dict(x.terms) == filter_normal_form(ring, terms) == {(1, 2): F(3, 2)}

    def test_input_is_checked_before_truncation(self):
        ring = small_ring()
        with pytest.raises(ValueError, match=r"malformed monomial \(1,\)"):
            ring.element({(1,): 1})
        with pytest.raises(ValueError, match=r"malformed monomial \(9, -1\)"):
            ring.element({(9, -1): 1})
        with pytest.raises(TypeError, match="exact rational expected, got float"):
            ring.element({(9, 0): 0.5})
        with pytest.raises(TypeError):
            ring.element({(1.0, 0): 1})


SMALL_PRIMES = (lambda: build_cp(1), lambda: build_cp(2), lambda: build_hp(1),
                lambda: build_proj_bundle(LineBundleSum(1, (1, -2))), lambda: build_proj_bundle(LineBundleSum(2, (0, 1))))


def random_element(rng, ring):
    """Up to eight normal-range monomials with small rational coefficients."""
    terms = {}
    for _ in range(rng.randint(1, 8)):
        exps = tuple(rng.randint(0, ring.truncation_dimension // d) for d in ring.degrees)
        terms[exps] = F(rng.randint(-5, 5), rng.randint(1, 3))
    return GradedElement(ring, terms)


def dimension_limit_model(name):
    """A dim-32 model: a rank-16 bundle over CP^1, a rank-2 bundle over
    CP^15, or four bundles on the eight generators of the ring their
    product would have."""
    if name == "rank16":
        return build_proj_bundle(LineBundleSum(1, (1, 2, 3, -1, -2, -3, 0, 1, 2, 3, -1, -2, -3, 0, 1, 2)))
    if name == "cp15":
        return build_proj_bundle(LineBundleSum(15, (3, -3)))
    model = build_proj_bundle(LineBundleSum(2, (1, 0, 1)))
    for degrees in ((1, 3, -2), (2, 1, -1), (1, -1, 2)):
        model = manifold_product(build_proj_bundle(LineBundleSum(2, degrees)), model)
    return ref.ring_model(model)


class TestProduct:
    @settings(max_examples=150, deadline=None)
    @given(relation_ring_pairs())
    def test_matches_the_filter(self, pair):
        x, y = pair
        xy = x * y
        assert dict(xy.terms) == filter_product(x.ring, x.terms, y.terms)
        assert all(type(c) is Fraction for c in xy.terms.values())

    @settings(max_examples=60, deadline=None)
    @given(bundle_ring_pairs())
    def test_matches_the_filter_on_bundles(self, pair):
        x, y = pair
        assert dict((x * y).terms) == filter_product(x.ring, x.terms, y.terms)

    @settings(max_examples=60, deadline=None)
    @given(relation_ring_pairs())
    def test_equal_rings_give_equal_products(self, pair):
        x, y = pair
        ring = x.ring
        twin = fresh_twin(ring)
        assert twin == ring and twin is not ring
        xy = x * y
        assert GradedElement(twin, x.terms) * GradedElement(twin, y.terms) == xy
        assert xy.terms == (x * y).terms  # the filled memo gives the same answer again

    def test_a_product_never_normalizes_terms(self, monkeypatch):
        ring = build_proj_bundle(LineBundleSum(3, (1, -2, 0, 2))).ring
        x = ring.element({(1, 2): F(1, 3), (0, 1): 2, (0, 0): 1})
        y = ring.element({(2, 1): -1, (1, 0): F(5, 2), (0, 3): 1})
        calls = []
        original = RingSpec.normalize_terms

        def counting(self, terms):
            calls.append(terms)
            return original(self, terms)

        monkeypatch.setattr(RingSpec, "normalize_terms", counting)
        xy = x * y * x * y
        monkeypatch.undo()
        assert calls == []
        xt, yt = x.terms, y.terms
        assert dict(xy.terms) == filter_product(ring, filter_product(ring, filter_product(ring, xt, yt), xt), yt)

    @pytest.mark.parametrize("name", ["rank16", "cp15", "product8"])
    def test_dimension_limit_models(self, name):
        model = dimension_limit_model(name)
        ring = model.ring
        assert ring.truncation_dimension == 32
        signature(model)
        pontryagin_numbers(model)
        rng = random.Random(name)
        for _ in range(10):
            x, y = random_element(rng, ring), random_element(rng, ring)
            assert dict((x * y).terms) == filter_product(ring, x.terms, y.terms)


@st.composite
def three_factor_rings(draw):
    a, b, c = (draw(st.sampled_from(SMALL_PRIMES))() for _ in range(3))
    return ref.product_ring((a, b, c))[0]


@st.composite
def product_coefficient_cases(draw):
    """Two elements of a P(E) ring, a three-factor product ring or a
    relation ring, and weights on some of its monomials, any of the three
    sometimes zero."""
    ring = draw(st.one_of(bundle_rings(), three_factor_rings(), relation_rings()))
    x, y, weights = (ring.zero() if draw(st.integers(0, 4)) == 0 else GradedElement(ring, raw_terms(draw, ring))
                     for _ in range(3))
    return x, y, weights


class TestProductCoefficient:
    """product_coefficient dots two elements' product with weights without
    forming the product; normal form is a filter, so it reads the product's
    coefficients."""

    @settings(max_examples=150, deadline=None)
    @given(product_coefficient_cases())
    def test_matches_the_formed_product(self, case):
        x, y, weights = case
        got = x.product_coefficient(y, weights)
        xy = x * y
        assert got == sum((w * xy.coefficient(e) for e, w in weights.terms.items()), F(0))
        assert type(got) is Fraction

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), st.lists(st.integers(-5, 5), min_size=1, max_size=5), st.data())
    def test_with_the_integral_pairs_the_product(self, l, degrees, data):
        m = build_proj_bundle(LineBundleSum(l, tuple(degrees)))
        x, y = (GradedElement(m.ring, raw_terms(data.draw, m.ring)) for _ in range(2))
        assert x.product_coefficient(y, m.integral) == pair(m, x * y)

    def test_denominators_and_monomials_the_ring_kills(self):
        # the raw product holds a^3 b and b^5, which the ring kills; weights never sit on them
        ring = small_ring()
        x = ring.element({(1, 0): F(1, 3), (0, 1): F(5, 2), (2, 0): F(-2, 7)})
        y = ring.element({(1, 1): F(2, 7), (2, 1): 1, (0, 3): F(-1, 5), (0, 4): 3})
        weights = ring.element({e: F(i + 1, 3) for i, e in enumerate(product(range(3), range(5)))})
        assert x.den != 1 and y.den != 1 and weights.den != 1
        xy = x * y
        assert x.product_coefficient(y, weights) == sum(w * xy.coefficient(e) for e, w in weights.terms.items())
        for e in product(range(3), range(5)):
            assert x.product_coefficient(y, ring.element({e: 1})) == xy.coefficient(e)

    def test_zero_is_the_shared_zero(self):
        ring = small_ring()
        x, top = ring.element({(1, 1): F(1, 3)}), ring.element({(2, 2): 1})
        assert x.product_coefficient(ring.zero(), top) is algebra._ZERO
        assert ring.zero().product_coefficient(x, top) is algebra._ZERO
        assert x.product_coefficient(x, ring.zero()) is algebra._ZERO
        assert x.product_coefficient(x, top) == F(1, 9)

    def test_elements_of_different_rings_are_refused(self):
        x, other = small_ring().gen("a"), RingSpec([("a", 2), ("b", 2)], 8).gen("a")
        with pytest.raises(ValueError, match="different rings"):
            x.product_coefficient(other, x)
        with pytest.raises(ValueError, match="different rings"):
            x.product_coefficient(x, other)


class TestHomogeneousParts:
    def test_split_and_reassemble(self):
        ring = small_ring()
        a, b = ring.gen("a"), ring.gen("b")
        x = (ring.one() + a + b) ** 2
        pieces = x.homogeneous_parts()
        assert sorted(pieces) == [0, 2, 4]
        assert sum(pieces.values(), ring.zero()).terms == x.terms

    @settings(max_examples=80, deadline=None)
    @given(relation_rings(), st.data())
    def test_parts_are_homogeneous_and_sum_back(self, ring, data):
        x = GradedElement(ring, raw_terms(data.draw, ring))
        parts = x.homogeneous_parts()
        for d, part in parts.items():
            assert_canonical(part)
            assert part and all(ring.degree_of(exps) == d for exps in part.terms)
        assert sum(parts.values(), ring.zero()) == x
        assert ring.zero().homogeneous_parts() == {}

    def test_coefficient_lookup(self):
        ring = small_ring()
        a, b = ring.gen("a"), ring.gen("b")
        x = a * b + 5 * b * b
        assert x.coefficient((1, 1)) == F(1)
        assert x.coefficient((0, 2)) == F(5)
        assert x.coefficient((2, 0)) == F(0)


class TestNegativeRingPowers:
    def test_inverse_of_a_unit(self):
        ring = small_ring()
        a, b = ring.gen("a"), ring.gen("b")
        unit = ring.one() + a * b * 4 - b * b + a * a * b * b
        for n in (1, 2, 5):
            assert unit ** -n * unit ** n == ring.one(), n
        assert unit ** -1 == ring.one() - (a * b * 4 - b * b + a * a * b * b) + (a * b * 4 - b * b) ** 2

    def test_constant_term_must_be_one(self):
        ring = small_ring()
        with pytest.raises(ValueError):
            (ring.scalar(2) + ring.gen("b")) ** -1

    @pytest.mark.parametrize("n", [0.5, 2.0, F(2), "2"], ids=["half", "float", "fraction", "string"])
    def test_exponent_is_read_as_an_exact_integer(self, n):
        b = small_ring().gen("b")
        with pytest.raises(TypeError):
            b ** n


class TestQSeries:
    def test_product_truncates_to_min_order(self):
        s = QSeries([F(1), F(1), F(0), F(0)])
        t = QSeries([F(1), F(0), F(0)])
        assert (s * t).order == 2

    def test_scalar_multiplication(self):
        s = QSeries([F(0), F(3), F(0), F(0), F(0)])
        assert (2 * s).coeffs[1] == F(6)
        assert (s * F(1, 3)).coeffs[1] == F(1)

    def test_constant_refuses_a_negative_order(self):
        with pytest.raises(ValueError, match="q-order must be nonnegative, not -1"):
            QSeries.constant(1, -1)
        assert QSeries.constant(1, 0) == QSeries([F(1)])

    def test_zero_coefficients_keep_their_kind(self):
        scalar = QSeries([F(0), F(1)]) * QSeries([F(0), F(1)])
        assert scalar.coeffs == [F(0), F(0)] and all(type(c) is Fraction for c in scalar.coeffs)
        constant = QSeries.constant(1, 2)
        assert constant.coeffs == [F(1), F(0), F(0)] and all(type(c) is Fraction for c in constant.coeffs)

    def test_ring_coefficients_are_refused(self):
        ring = RingSpec([("x", 2)], 8)
        with pytest.raises(TypeError, match="exact rational expected, got GradedElement"):
            QSeries([ring.one(), ring.gen("x")])
        with pytest.raises(TypeError):
            QSeries([F(1), F(2)]) * ring.gen("x")
        with pytest.raises(TypeError):
            ring.gen("x") * QSeries([F(1), F(2)])

    def test_floats_are_refused(self):
        with pytest.raises(TypeError, match="exact rational expected, got float"):
            QSeries([F(1), 0.5])
        with pytest.raises(TypeError):
            QSeries([F(1), F(2)]) * 0.5

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(QSeries([F(1)]))


def schoolbook_product(a: list, b: list) -> list:
    """The truncated Cauchy product over Fractions, to the shorter order."""
    n = min(len(a), len(b))
    return [sum((a[i] * b[k - i] for i in range(k + 1)), F(0)) for k in range(n)]


coefficient_lists = st.lists(
    st.one_of(st.just(F(0)), st.fractions(min_value=-40, max_value=40, max_denominator=12)), min_size=1, max_size=9)


class TestQSeriesAgainstSchoolbook:
    """The ring-backed series against the coefficient-list arithmetic
    written out here: sums, differences and products truncate to the
    shorter order, and every coefficient read is a Fraction."""

    @staticmethod
    def check(series: QSeries, expected: list) -> None:
        assert series.order == len(expected) - 1
        assert series.coeffs == expected
        assert all(type(c) is Fraction for c in series.coeffs)
        assert all(c is algebra._ZERO for c in series.coeffs if not c)  # zeros share one object
        assert series == QSeries(expected) and bool(series) == any(expected)

    @settings(max_examples=120, deadline=None)
    @given(coefficient_lists, coefficient_lists)
    def test_binary_operations(self, a, b):
        s, t = QSeries(a), QSeries(b)
        n = min(len(a), len(b))
        self.check(s * t, schoolbook_product(a, b))
        self.check(s + t, [x + y for x, y in zip(a[:n], b[:n])])
        self.check(s - t, [x - y for x, y in zip(a[:n], b[:n])])
        assert s * t == t * s and s + t == t + s

    @settings(max_examples=80, deadline=None)
    @given(coefficient_lists, st.one_of(st.integers(-30, 30), st.fractions(max_denominator=9)))
    def test_negation_and_scalars(self, a, c):
        s = QSeries(a)
        self.check(-s, [-x for x in a])
        self.check(s * c, [x * c for x in a])
        self.check(c * s, [x * c for x in a])

    def test_order_zero(self):
        s = QSeries([F(3, 2)])
        self.check(s * s, [F(9, 4)])
        self.check(s * QSeries([F(1), F(5), F(7)]), [F(3, 2)])
        self.check(s - s, [F(0)])

    def test_zero_series(self):
        zero, s = QSeries([0, 0, 0]), QSeries([F(1, 3), F(-2), F(5)])
        assert not zero and zero.coeffs == [F(0)] * 3
        self.check(zero * s, [F(0)] * 3)
        self.check(zero + s, s.coeffs)
        self.check(s * 0, [F(0)] * 3)

    def test_generator_input(self):
        s = QSeries(F(k, k + 1) for k in range(5))
        self.check(s, [F(k, k + 1) for k in range(5)])
        assert QSeries.constant(2, 4) == QSeries(iter([2, 0, 0, 0, 0]))

    def test_equality_across_orders_is_false(self):
        assert QSeries([F(1), F(0)]) != QSeries([F(1), F(0), F(0)])
        assert QSeries([F(0)]) != QSeries([F(0), F(0)])
        assert QSeries([F(1), F(2)]) != [F(1), F(2)]

    def test_mixed_orders_truncate_to_the_shorter(self):
        long, short = QSeries([F(1), F(1), F(1), F(1)]), QSeries([F(2), F(3)])
        for value in (long * short, short * long, long + short, short - long):
            assert value.order == 1
        self.check(long * short, [F(2), F(5)])
        self.check(long - short, [F(-1), F(-2)])



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
        def times(v):
            return [sum((a * x for a, x in zip(row, v)), F(0)) for row in rows]

        rhs = times(sol)
        found = RationalMatrix(rows).solve(rhs)
        assert found is not None
        assert times(found) == rhs

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



def lagrange_coefficients(points):
    """Reference fit, independent of the library: the Lagrange form
    sum_i y_i prod_(j != i) (t - x_j) / (x_i - x_j), expanded factor by
    factor into ascending coefficients."""
    total = [F(0)] * len(points)
    for i, (xi, yi) in enumerate(points):
        basis = [F(1)]
        for j, (xj, _) in enumerate(points):
            if j != i:  # basis * (t - xj) / (xi - xj)
                shifted = [F(0)] + basis
                basis = [(a - xj * b) / (xi - xj) for a, b in zip(shifted, basis + [F(0)])]
        total = [t + yi * b for t, b in zip(total, basis)]
    return total


nodes = st.fractions(min_value=-12, max_value=12, max_denominator=7)


class TestNewtonInterpolation:
    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.tuples(nodes, st.fractions(min_value=-50, max_value=50, max_denominator=9)),
                    min_size=1, max_size=10, unique_by=lambda point: point[0]))
    def test_matches_lagrange_form(self, points):
        found = interpolate_polynomial(points)
        assert found == lagrange_coefficients(points)
        assert all(type(c) is Fraction for c in found)
        assert all(c is algebra._ZERO for c in found if not c)  # zeros share one object

    def test_integer_input_gives_fractions(self):
        found = interpolate_polynomial([(-1, 2), (0, 1), (2, 5)])
        assert found == [F(1), F(0), F(1)] and all(type(c) is Fraction for c in found)

    def test_no_points_is_its_own_value_error(self):
        with pytest.raises(ValueError, match="^interpolation needs at least one point$"):
            interpolate_polynomial([])

    def test_duplicate_node_is_value_error(self):
        with pytest.raises(ValueError, match="nodes must be distinct"):
            interpolate_polynomial([(F(1), F(2)), (F(2, 2), F(3))])

    def test_float_node_is_type_error(self):
        with pytest.raises(TypeError):
            interpolate_polynomial([(1.0, F(2)), (F(2), F(3))])

# -- the integer kernel: canonical numerators against the Fraction oracle ----


def assert_canonical(x):
    """Integer numerators, none zero, over a positive denominator sharing
    no factor with all of them; zero has denominator 1."""
    assert type(x.den) is int and x.den > 0
    assert all(type(c) is int and type(n) is int and n for c, n in x.num.items())
    assert gcd(x.den, *x.num.values()) == 1
    if not x.num:
        assert x.den == 1


def oracle_sum(x_terms, y_terms, ring):
    acc = dict(x_terms)
    for e, c in y_terms.items():
        acc[e] = acc.get(e, F(0)) + c
    return filter_normal_form(ring, acc)


@st.composite
def kernel_cases(draw):
    """Two elements of a random relation ring or projective-bundle ring, a
    rational scalar and a small power."""
    x, y = draw(st.one_of(relation_ring_pairs(), bundle_ring_pairs()))
    return x, y, draw(st.one_of(rationals, st.integers(-5, 5))), draw(st.integers(0, 4))


class TestIntegerKernel:
    @settings(max_examples=150, deadline=None)
    @given(kernel_cases())
    def test_every_operation_is_canonical_and_matches_the_oracle(self, case):
        x, y, s, n = case
        ring = x.ring
        xt, yt = dict(x.terms), dict(y.terms)
        assert_canonical(x)
        assert_canonical(y)
        results = [
            (x + y, oracle_sum(xt, yt, ring)),
            (x - y, oracle_sum(xt, {e: -c for e, c in yt.items()}, ring)),
            (-x, {e: -c for e, c in xt.items()}),
            (x * s, filter_normal_form(ring, {e: c * s for e, c in xt.items()})),
            (s * y, filter_normal_form(ring, {e: c * s for e, c in yt.items()})),
            (x * y, filter_product(ring, xt, yt)),
        ]
        power = filter_normal_form(ring, {(0,) * ring.ngens: 1})
        for _ in range(n):
            power = filter_product(ring, power, xt)
        results.append((x ** n, power))
        for got, want in results:
            assert_canonical(got)
            assert dict(got.terms) == want
            assert all(type(c) is Fraction for c in got.terms.values())

    @settings(max_examples=60, deadline=None)
    @given(kernel_cases())
    def test_negative_powers_are_canonical(self, case):
        x, _, _, n = case
        ring = x.ring
        unit = ring.one() + (x - ring.scalar(x.constant()))  # constant term 1, the rest nilpotent
        inverse = unit ** -(n + 1)
        assert_canonical(inverse)
        assert inverse * unit ** (n + 1) == ring.one()

    @settings(max_examples=60, deadline=None)
    @given(relation_rings(), st.data())
    def test_code_round_trip(self, ring, data):
        exps = tuple(data.draw(st.integers(0, b - 1)) for b in ring._bases)
        code = ring.code(exps)
        assert ring.exponents(code) == exps

    def test_codes_of_normal_monomials_add(self):
        ring = build_proj_bundle(LineBundleSum(3, (1, -2, 0))).ring
        top = ring.truncation_dimension
        normal = [e for e in product(*(range(top // d + 1) for d in ring.degrees)) if ring.degree_of(e) <= top]
        for e1 in normal:
            for e2 in normal:
                total = tuple(a + b for a, b in zip(e1, e2))
                assert ring.code(e1) + ring.code(e2) == ring.code(total)

    def test_out_of_range_coefficient_is_zero(self):
        ring = small_ring()
        x = (ring.gen("a") + ring.gen("b") + ring.one()) ** 3
        beyond = tuple(b for b in ring._bases)  # every exponent at its base
        assert ring.code(beyond) is None
        assert x.coefficient(beyond) == 0
        assert x.coefficient((-1, 0)) == 0
        assert x.coefficient((0, 0, 0)) == 0
        assert x.coefficient((0, 1)) == 3

    @settings(max_examples=60, deadline=None)
    @given(relation_ring_pairs())
    def test_equal_signature_rings_give_equal_elements(self, pair):
        x, _ = pair
        ring = x.ring
        twin = fresh_twin(ring)
        copy = GradedElement(twin, x.terms)
        assert copy == x and (copy.den, copy.num) == (x.den, x.num)

    def test_products_and_sums_build_no_fraction(self, monkeypatch):
        ring = build_proj_bundle(LineBundleSum(3, (1, 2, -1))).ring
        a, b = ring.gen("a"), ring.gen("b")
        x, y = (a + b * 3) ** 2 * F(1, 6), a * F(5, 4) + b * b
        x * y  # fill the memo
        built = []
        original = Fraction.__new__

        def counting(cls, *args, **kwargs):
            built.append(args)
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counting)
        xy, total = x * y, x + y
        monkeypatch.undo()
        assert built == []
        assert_canonical(xy)
        assert_canonical(total)

    def test_terms_is_read_only(self):
        x = small_ring().gen("a")
        with pytest.raises(TypeError):
            x.terms[(0, 0)] = F(1)
