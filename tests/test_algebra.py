"""Exact-arithmetic kernel: graded rings with rewrite rules, truncated
power series, and rational linear algebra.

Oracles: hand-reduced normal forms for a small quotient ring, a rewrite
worklist on exponent tuples (independent of the reduction table the
library uses), classical power-series identities, and sympy (test-only)
for matrix ranks.
"""
import random
import sys
import threading
from fractions import Fraction
from itertools import count, product
from math import gcd, prod
from operator import index

import pytest
from hypothesis import given, settings, strategies as st

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
from ellcob.manifolds import LineBundleSum, build_proj_bundle, product as manifold_product

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

    def test_rule_must_not_use_an_earlier_generator(self):
        # a^2 -> b^2 and b^2 -> a^2 rewrite each other forever; the rule
        # for b uses a, listed before b, so the ring is refused
        rules = {"a": (2, {(0, 2): 1}), "b": (2, {(2, 0): 1})}
        with pytest.raises(ValueError, match="listed before 'b'"):
            RingSpec([("a", 2), ("b", 2)], 8, rules)
        # the rule for a alone uses only b, listed after a, and is fine
        ring = RingSpec([("a", 2), ("b", 2)], 8, {"a": rules["a"]})
        assert ring.gen("a") ** 2 == ring.gen("b") ** 2


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


def fresh_twin(ring):
    """A ring equal to ``ring``, built apart from it.  From the second build
    of a signature on, equal rings share one reduction table, so the twin
    may start with ``ring``'s entries or with an empty table of its own."""
    return RingSpec(
        list(zip(ring.generators, ring.degrees)),
        ring.truncation_dimension,
        {ring.generators[g]: (p, rhs) for g, (p, rhs) in ring.rules.items()},
    )


def worklist_normal_form(ring, terms):
    """Rewrite an arbitrary term dict into normal form, exponent tuple ->
    Fraction.

    Worklist reduction: apply any applicable head rule, drop
    monomials above the truncation dimension, accumulate the rest.
    Each rule application strictly decreases the head exponent while
    leaving exponents of lex-greater generators untouched, so the
    lex measure decreases and reduction terminates.
    """
    out = {}
    stack = []
    for exps, coeff in terms.items():
        exps = tuple(map(index, exps))
        if len(exps) != ring.ngens or any(e < 0 for e in exps):
            raise ValueError(f"malformed monomial {exps}")
        c = as_rational(coeff)
        if c:
            stack.append((exps, c))
    while stack:
        exps, coeff = stack.pop()
        if ring.degree_of(exps) > ring.truncation_dimension:
            continue
        for g, (power, rhs) in ring.rules.items():
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
            out[exps] = out[exps] + coeff if exps in out else coeff
    return {e: c for e, c in out.items() if c}


def worklist_product(ring, x_terms, y_terms):
    """The unreduced exponent-sum product of two term dicts, normalized
    by the worklist."""
    raw = {}
    for e1, c1 in x_terms.items():
        for e2, c2 in y_terms.items():
            mono = tuple(a + b for a, b in zip(e1, e2))
            raw[mono] = raw.get(mono, F(0)) + c1 * c2
    return worklist_normal_form(ring, raw)


@st.composite
def rule_ring_pairs(draw):
    ring = draw(rule_rings())
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
    """A rule ring or projective-bundle ring and unreduced terms on it:
    exponents up to 3 put monomials above the top and fire heads, and the
    coefficients are rational, with integral ones sometimes plain ints."""
    ring = draw(st.one_of(rule_rings(), bundle_rings()))
    terms = raw_terms(draw, ring)
    if draw(st.booleans()):
        terms = {e: c.numerator if c.denominator == 1 else c for e, c in terms.items()}
    return ring, terms


class TestConstructor:
    @settings(max_examples=150, deadline=None)
    @given(raw_ring_terms())
    def test_matches_worklist(self, case):
        ring, terms = case
        x = GradedElement(ring, terms)
        assert_canonical(x)
        assert dict(x.terms) == worklist_normal_form(ring, terms)

    def test_keys_naming_one_monomial_add_up(self):
        # a range and a tuple are different keys for the same exponents
        ring = small_ring()
        terms = {(1, 2): F(1, 2), range(1, 3): 1, (3, 0): F(1, 3)}
        x = GradedElement(ring, terms)
        assert dict(x.terms) == worklist_normal_form(ring, terms) == {(1, 2): F(3, 2) + F(4, 3)}

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


class TestTabledProduct:
    @settings(max_examples=150, deadline=None)
    @given(rule_ring_pairs())
    def test_matches_worklist(self, pair):
        x, y = pair
        xy = x * y
        assert dict(xy.terms) == worklist_product(x.ring, x.terms, y.terms)
        assert all(type(c) is Fraction for c in xy.terms.values())

    @settings(max_examples=60, deadline=None)
    @given(bundle_ring_pairs())
    def test_matches_worklist_on_bundles(self, pair):
        x, y = pair
        assert dict((x * y).terms) == worklist_product(x.ring, x.terms, y.terms)

    @settings(max_examples=60, deadline=None)
    @given(rule_ring_pairs())
    def test_equal_rings_give_equal_products(self, pair):
        x, y = pair
        ring = x.ring
        twin = fresh_twin(ring)
        assert twin == ring and twin is not ring
        xy = x * y
        assert GradedElement(twin, x.terms) * GradedElement(twin, y.terms) == xy
        assert xy.terms == (x * y).terms  # the filled table gives the same answer again


def random_element(rng, ring):
    """Up to eight normal-range monomials with small rational coefficients."""
    terms = {}
    for _ in range(rng.randint(1, 8)):
        exps = tuple(rng.randint(0, ring.truncation_dimension // d) for d in ring.degrees)
        terms[exps] = F(rng.randint(-5, 5), rng.randint(1, 3))
    return GradedElement(ring, terms)


def dimension_limit_model(name):
    """A fresh dim-32 model: a rank-16 bundle over CP^1, a rank-2 bundle
    over CP^15, or a product of four bundles on eight generators."""
    if name == "rank16":
        return build_proj_bundle(LineBundleSum(1, (1, 2, 3, -1, -2, -3, 0, 1, 2, 3, -1, -2, -3, 0, 1, 2)))
    if name == "cp15":
        return build_proj_bundle(LineBundleSum(15, (3, -3)))
    model = build_proj_bundle(LineBundleSum(2, (1, 0, 1)))
    for degrees in ((1, 3, -2), (2, 1, -1), (1, -1, 2)):
        model = manifold_product(build_proj_bundle(LineBundleSum(2, degrees)), model)
    return model


class TestTableFill:
    """Table entries are filled by one rewrite step from lower entries;
    each must equal the worklist normal form of its monomial."""

    @settings(max_examples=60, deadline=None)
    @given(rule_rings(), st.booleans())
    def test_every_code_fills_to_the_worklist_normal_form(self, ring, descending):
        codes = range(prod(ring._bases))
        for code in reversed(codes) if descending else codes:
            if code not in ring._table:
                ring._reduce(code)
        assert len(ring._table) == len(codes)
        for code, entry in ring._table.items():
            assert {ring.exponents(c): F(v) for c, v in entry} == worklist_normal_form(ring, {ring.exponents(code): 1})
            assert all(v for _, v in entry)

    def test_a_product_never_runs_the_worklist(self, monkeypatch):
        ring = build_proj_bundle(LineBundleSum(3, (1, -2, 0, 2))).ring
        x = ring.element({(1, 2): F(1, 3), (0, 1): 2, (0, 0): 1})
        y = ring.element({(2, 1): -1, (1, 0): F(5, 2), (0, 3): 1})
        ring._table.clear()  # the model and the constructors filled it; the product starts cold
        calls = []
        original = RingSpec.normalize_terms

        def counting(self, terms):
            calls.append(terms)
            return original(self, terms)

        monkeypatch.setattr(RingSpec, "normalize_terms", counting)
        xy = x * y * x * y
        monkeypatch.undo()
        assert calls == []
        assert ring._table
        xt, yt = x.terms, y.terms
        assert dict(xy.terms) == worklist_product(ring, worklist_product(ring, worklist_product(ring, xt, yt), xt), yt)

    @pytest.mark.parametrize("name", ["rank16", "cp15", "product8"])
    def test_dimension_limit_models(self, name):
        model = dimension_limit_model(name)
        ring = model.ring
        assert ring.truncation_dimension == 32
        signature(model)  # no RecursionError while filling from a cold table
        pontryagin_numbers(model)
        rng = random.Random(name)
        for _ in range(10):
            x, y = random_element(rng, ring), random_element(rng, ring)
            assert dict((x * y).terms) == worklist_product(ring, x.terms, y.terms)


TAGS = count()


def tagged_ring(tag, coefficient=-2, second="b"):
    """small_ring's shape under a first generator name no other ring uses."""
    first = f"shared{tag}"
    return RingSpec([(first, 2), (second, 2)], 8, {first: (2, {(1, 1): F(coefficient)})})


class TestSharedTables:
    """Equal rings built again share one reduction table and code-degree
    cache, kept under the full signature in ``_BUILT``; a ring built once
    keeps its own, and its entry there holds no table."""

    def test_a_ring_built_once_leaves_no_table(self):
        ring = tagged_ring(next(TAGS))
        assert ring.gen(ring.generators[0]) ** 3 == ring.element({(1, 2): 4})
        assert ring._table and algebra._BUILT[ring._signature] is None
        assert all(ring._table is not tables[0] for tables in algebra._BUILT.values() if tables)

    def test_a_one_off_entry_holds_no_table(self):
        tag = next(TAGS)
        first = tagged_ring(tag)
        first.gen(first.generators[0]) ** 3  # fills the private table
        assert algebra._BUILT[first._signature] is None
        second = tagged_ring(tag)
        assert first._table and not second._table and not second._code_degrees
        assert algebra._BUILT[first._signature] == (second._table, second._code_degrees)

    def test_equal_rings_share_from_the_third_build_on(self):
        tag = next(TAGS)
        first, second, third, fourth = (tagged_ring(tag) for _ in range(4))
        shared = algebra._BUILT[first._signature]
        assert first._table is not second._table and first._code_degrees is not second._code_degrees
        assert second._table is third._table is fourth._table is shared[0]
        assert second._code_degrees is third._code_degrees is fourth._code_degrees is shared[1]

    def test_rings_differing_in_a_coefficient_or_a_name_never_share(self):
        tag = next(TAGS)
        variants = [{}, {"coefficient": -3}, {"second": "c"}]
        built = [[tagged_ring(tag, **variant) for _ in range(3)] for variant in variants]
        for rings in built:
            assert rings[1]._table is rings[2]._table
        assert len({id(rings[2]._table) for rings in built}) == len(variants)
        for rings, coefficient in zip(built, (-2, -3, -2)):
            a = rings[2].gen(rings[2].generators[0])
            assert dict((a * a).terms) == {(1, 1): F(coefficient)}

    def test_the_cache_holds_at_most_the_bound(self):
        bound = algebra._SHARED_RINGS
        signatures = []
        for _ in range(3 * bound):
            tag = next(TAGS)
            signatures.append(tagged_ring(tag)._signature)
            tagged_ring(tag)
        assert len(algebra._BUILT) == bound
        assert set(algebra._BUILT) == set(signatures[-bound:])
        assert all(tables is not None for tables in algebra._BUILT.values())

    def test_the_bound_counts_one_off_and_shared_signatures_together(self):
        bound = algebra._SHARED_RINGS
        tags = [next(TAGS) for _ in range(bound)]
        shared = [[tagged_ring(tag) for _ in range(2)][1]._signature for tag in tags]
        one_off = [tagged_ring(next(TAGS))._signature for _ in range(bound // 2)]
        assert len(algebra._BUILT) == bound
        assert list(algebra._BUILT) == shared[bound // 2:] + one_off
        assert all(algebra._BUILT[key] is None for key in one_off)
        assert all(algebra._BUILT[key] is not None for key in shared[bound // 2:])

    def test_the_ring_built_least_recently_is_forgotten_first(self):
        tags = [next(TAGS) for _ in range(algebra._SHARED_RINGS + 1)]
        admitted = [[tagged_ring(tag) for _ in range(2)][1]._signature for tag in tags[:-1]]
        kept, dropped = admitted[:2]
        tagged_ring(tags[0])  # built again, kept becomes the newest
        tagged_ring(tags[-1]), tagged_ring(tags[-1])  # one signature past the bound
        assert kept in algebra._BUILT and dropped not in algebra._BUILT

    @settings(max_examples=60, deadline=None)
    @given(rule_ring_pairs())
    def test_products_on_a_filled_shared_table_match_worklist(self, pair):
        x, y = pair
        first, second = fresh_twin(x.ring), fresh_twin(x.ring)
        assert first._table is second._table
        for code in range(prod(first._bases)):
            if code not in first._table:
                first._reduce(code)
        product_on_second = GradedElement(second, x.terms) * GradedElement(second, y.terms)
        assert dict(product_on_second.terms) == worklist_product(second, x.terms, y.terms)

    def test_threads_building_equal_and_unequal_rings(self):
        # bundles no other test builds, so their shared tables fill while the threads run
        specs = [(2, (5, -4, 1)), (3, (4, -5, 2, 0)), (1, (6, -3)), (2, (-5, 3, 4))]
        rng = random.Random("threads")
        cases = []
        for spec in specs:
            ring = build_proj_bundle(LineBundleSum(*spec)).ring
            x, y = ({tuple(rng.randint(0, 4) for _ in ring.generators): F(rng.randint(-5, 5), rng.randint(1, 3))
                     for _ in range(6)} for _ in range(2))
            expected = worklist_product(ring, worklist_normal_form(ring, x), worklist_normal_form(ring, y))
            cases.append((spec, x, y, expected))
        rounds, results, errors = 12, [], []

        def work(worker):
            try:
                for r in range(rounds):
                    spec, x, y, expected = cases[(worker + r) % len(cases)]
                    ring = build_proj_bundle(LineBundleSum(*spec)).ring
                    results.append(dict((GradedElement(ring, x) * GradedElement(ring, y)).terms) == expected)
                    tag = next(TAGS)  # two builds of a new ring admit it and evict the oldest
                    a = [tagged_ring(tag), tagged_ring(tag)][worker % 2].gen(f"shared{tag}")
                    results.append(dict((a * a).terms) == {(1, 1): F(-2)})
            except Exception as error:  # reported below; a thread cannot raise into the test
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(worker,)) for worker in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert results == [True] * (2 * rounds * len(threads))


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
    return worklist_normal_form(ring, acc)


@st.composite
def kernel_cases(draw):
    """Two elements of a random rule ring or projective-bundle ring, a
    rational scalar and a small power."""
    x, y = draw(st.one_of(rule_ring_pairs(), bundle_ring_pairs()))
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
            (x * s, worklist_normal_form(ring, {e: c * s for e, c in xt.items()})),
            (s * y, worklist_normal_form(ring, {e: c * s for e, c in yt.items()})),
            (x * y, worklist_product(ring, xt, yt)),
        ]
        power = worklist_normal_form(ring, {(0,) * ring.ngens: 1})
        for _ in range(n):
            power = worklist_product(ring, power, xt)
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
    @given(rule_rings(), st.data())
    def test_code_round_trip(self, ring, data):
        exps = tuple(data.draw(st.integers(0, b - 1)) for b in ring._bases)
        code = ring.code(exps)
        assert ring.exponents(code) == exps
        assert ring.code_degree(code) == ring.degree_of(exps)

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
    @given(rule_ring_pairs())
    def test_equal_signature_rings_give_equal_elements(self, pair):
        x, _ = pair
        ring = x.ring
        twin = fresh_twin(ring)
        copy = GradedElement(twin, x.terms)
        assert copy == x and (copy.den, copy.num) == (x.den, x.num)

    def test_integral_rules_build_no_fraction(self, monkeypatch):
        ring = build_proj_bundle(LineBundleSum(3, (1, 2, -1))).ring
        a, b = ring.gen("a"), ring.gen("b")
        x, y = (a + b * 3) ** 2 * F(1, 6), a * F(5, 4) + b * b
        x * y  # fill the reduction table
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
