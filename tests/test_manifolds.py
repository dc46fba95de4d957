"""Manifold models: projective spaces, projectivized line-bundle sums,
and products.

Oracles: hand-expanded Pontryagin classes from the root description
(frozen below), classical total Pontryagin classes of quaternionic
projective space recomputed here with independent list arithmetic,
classical spin criteria, for a product, which has no ring, the ring it
would have (``ring_model`` in ``symmetric_reference``), and for a ring the
builders keep, an equal ring built by hand with a cold table.
"""
import copy
import pickle
import random
import re
import sys
import threading
from fractions import Fraction
from itertools import combinations, count
from math import comb, prod

import pytest
from hypothesis import given, settings, strategies as st

import symmetric_reference as ref
from ellcob import manifolds
from ellcob.algebra import GradedElement, RingSpec
from ellcob.cobordism import Partition, basis_manifolds, x12
from ellcob.genera import elliptic_q_coefficients, signature
from ellcob.manifolds import (
    LineBundleSum,
    ManifoldModel,
    build_cp,
    build_hp,
    build_point,
    build_proj_bundle,
    is_spin,
    pair,
    pontryagin_classes,
    pontryagin_products,
    product,
    total_pontryagin,
)

F = Fraction


class TestBuilders:
    def test_point(self):
        pt = build_point()
        assert pt.real_dimension == 0 and is_spin(pt)

    def test_cp_basics(self):
        m = build_cp(3)
        assert m.real_dimension == 6
        assert m.name == "cp:3"
        # pairing monomial is the top power of the hyperplane class
        x = m.ring.gen(m.ring.generators[0])
        assert pair(m, x ** 3) == F(1)
        assert pair(m, x ** 2) == F(0)

    def test_cp_total_pontryagin(self):
        # p(CP^n) = (1+x^2)^(n+1); for CP^2: 1 + 3x^2 (x^4 truncates)
        m = build_cp(2)
        x = m.ring.gen(m.ring.generators[0])
        assert total_pontryagin(m).terms == (m.ring.one() + 3 * x * x).terms

    def test_hp_oracle_by_list_arithmetic(self):
        # p(HP^n) = (1+u)^(2n+2) (1+4u)^(-1) with u of degree 4.
        # Independent computation with plain coefficient lists mod u^(n+1).
        from math import comb

        for n in (1, 2, 3):
            order = n + 1
            binom = [comb(2 * n + 2, j) for j in range(order)]
            inv_geo = [(-4) ** j for j in range(order)]  # 1/(1+4u)
            expected = [
                sum(binom[i] * inv_geo[j - i] for i in range(j + 1))
                for j in range(order)
            ]
            m = build_hp(n)
            u = m.ring.gen(m.ring.generators[0])
            total = total_pontryagin(m)
            for j in range(order):
                assert total.coefficient((j,)) == F(expected[j]), (n, j)

    def test_hp3_frozen(self):
        # the list arithmetic above gives 1 + 4u + 12u^2 + 8u^3
        m = build_hp(3)
        total = total_pontryagin(m)
        assert [total.coefficient((j,)) for j in range(4)] == [F(1), F(4), F(12), F(8)]

    def test_hp_pairing(self):
        m = build_hp(2)
        u = m.ring.gen(m.ring.generators[0])
        assert pair(m, u * u) == F(1)


FRESH = count(1000)  # inputs no other test builds: n of CP^n and HP^n, twists d of P(L^d + 1) over CP^1
FRESH_BUILDS = {"cp": build_cp, "hp": build_hp, "pb": lambda d: build_proj_bundle(LineBundleSum(1, (d, 0)))}


def fresh_bundle():
    """P(L^d + 1) over CP^1 for a d no other build uses; its ring has the rule a^2 = -d a b."""
    return LineBundleSum(1, (next(FRESH), 0))


def newest():
    """The registry's newest entry: (input, None or the ring its builds share)."""
    return next(reversed(manifolds._RINGS.items()))


def kept_rings():
    return [ring for ring in manifolds._RINGS.values() if ring is not None]


@pytest.fixture
def inits(monkeypatch):
    """The arguments of every RingSpec built from here on, in order."""
    calls, init = [], RingSpec.__init__
    monkeypatch.setattr(RingSpec, "__init__", lambda ring, *args: calls.append(args) or init(ring, *args))
    return calls


def cold_twin(ring):
    """A ring equal to ``ring`` built by hand, so with a cold table of its own."""
    return RingSpec(list(zip(ring.generators, ring.degrees)), ring.truncation_dimension,
                    {ring.generators[g]: (p, rhs) for g, (p, rhs) in ring.rules.items()})


class TestSharedRings:
    """The builders hand out one ring per input they keep building: the first build of an input
    leaves only its key in ``manifolds._RINGS``, the second build's ring is kept there, and every
    later build returns that ring and builds none.  The registry keeps the inputs built last."""

    def test_a_one_off_input_keeps_only_its_key(self):
        bundle = fresh_bundle()
        m = build_proj_bundle(bundle)
        a, b = m.ring.gen("a"), m.ring.gen("b")
        assert a * a == b * a * -bundle.degrees[0] and m.ring._table  # the model's own table is filled
        assert newest()[1] is None
        assert all(ring is not m.ring for ring in kept_rings())

    @pytest.mark.parametrize("builder", FRESH_BUILDS)
    def test_the_third_build_returns_the_second_builds_ring(self, builder, inits):
        n = next(FRESH)
        first, second, third, fourth = (FRESH_BUILDS[builder](n) for _ in range(4))
        assert len(inits) == 2  # the first two builds; the third and fourth build no ring
        assert first.ring == second.ring and first.ring is not second.ring
        assert second.ring is third.ring is fourth.ring is newest()[1]
        assert first.ring._table is not second.ring._table
        assert third is not fourth and pair(fourth, fourth.ring.element({fourth.pairing_exponents: 1})) == 1

    @pytest.mark.parametrize("build", [build_cp, build_hp, lambda n: build_proj_bundle(LineBundleSum(3, (n, 0)))],
                             ids=["cp", "hp", "pb"])
    def test_a_float_is_refused_after_its_int_was_built_three_times(self, build):
        # 2.0 equals 2 and hashes alike: a lookup by it would serve the ring kept for 2
        built = [build(2) for _ in range(3)]
        assert built[1].ring is built[2].ring
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            build(2.0)

    def test_rings_differing_in_a_twist_or_a_builder_never_share(self):
        d = next(FRESH)
        builds = [lambda: build_cp(d), lambda: build_hp(d), lambda: build_proj_bundle(LineBundleSum(1, (d, 0))),
                  lambda: build_proj_bundle(LineBundleSum(1, (-d, 0))), lambda: build_proj_bundle(LineBundleSum(1, (0, d)))]
        rings = [[build().ring for _ in range(3)][1:] for build in builds]
        assert all(second is third for second, third in rings)
        assert len({id(second) for second, _ in rings}) == 4
        # P(L^d + 1) and P(1 + L^d) give the builder one ring input, so the second is its fourth build
        assert rings[2][0] is rings[4][0] and rings[2][0] != rings[3][0]

    def test_the_registry_holds_at_most_the_bound(self):
        bound, kept = manifolds._KEPT, []
        for _ in range(3 * bound):
            bundle = fresh_bundle()
            build_proj_bundle(bundle)
            kept.append(build_proj_bundle(bundle).ring)
        assert len(manifolds._RINGS) == bound
        assert all(ring is last for ring, last in zip(manifolds._RINGS.values(), kept[-bound:], strict=True))

    def test_the_bound_counts_one_off_and_kept_inputs_together(self):
        bound, kept = manifolds._KEPT, []
        for _ in range(bound):
            bundle = fresh_bundle()
            kept.append([build_proj_bundle(bundle) for _ in range(2)][1].ring)
        for _ in range(bound // 2):
            build_proj_bundle(fresh_bundle())
        rings = list(manifolds._RINGS.values())
        assert len(rings) == bound and rings[bound // 2:] == [None] * (bound // 2)
        assert all(ring is last for ring, last in zip(rings[:bound // 2], kept[bound // 2:], strict=True))

    def test_the_input_built_least_recently_is_forgotten_first(self, inits):
        bound = manifolds._KEPT
        bundles = [fresh_bundle() for _ in range(bound)]
        kept = [[build_proj_bundle(bundle) for _ in range(2)][1].ring for bundle in bundles]
        # built again, the oldest input becomes the newest
        assert build_proj_bundle(bundles[0]).ring is kept[0] is newest()[1]
        build_proj_bundle(fresh_bundle())  # one input past the bound
        rings = list(manifolds._RINGS.values())
        assert rings[-2:] == [kept[0], None]
        assert any(ring is kept[0] for ring in rings) and all(ring is not kept[1] for ring in rings)
        # a forgotten input starts again from its first build
        built = len(inits)
        again = build_proj_bundle(bundles[1]).ring
        assert len(inits) == built + 1 and again == kept[1] and again is not kept[1] and newest()[1] is None

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3), st.lists(st.integers(-3, 3), min_size=1, max_size=4), st.randoms(use_true_random=False))
    def test_products_on_a_kept_ring_filled_by_earlier_models_match_a_cold_ring(self, l, degrees, rng):
        bundle = LineBundleSum(l, tuple(degrees))
        ring = [build_proj_bundle(bundle) for _ in range(3)][2].ring
        for code in range(prod(ring._bases)):  # an earlier model fills every entry
            if code not in ring._table:
                ring._reduce(code)
        assert build_proj_bundle(bundle).ring is ring
        twin = cold_twin(ring)
        x, y = ({tuple(rng.randint(0, 3) for _ in ring.generators): F(rng.randint(-5, 5), rng.randint(1, 3))
                 for _ in range(5)} for _ in range(2))
        on_kept = GradedElement(ring, x) * GradedElement(ring, y)
        assert dict(on_kept.terms) == dict((GradedElement(twin, x) * GradedElement(twin, y)).terms)

    def test_threads_building_equal_rings_at_once(self):
        # inputs no other test builds, each built once here and then once by every worker, all
        # workers on one input at a time: every worker's build returns the ring the second build kept
        bundles = [fresh_bundle() for _ in range(16)]
        rng = random.Random("threads")
        cases = []
        for bundle in bundles:
            twin = cold_twin(build_proj_bundle(bundle).ring)
            x, y = ({(rng.randint(0, 2), rng.randint(0, 2)): F(rng.randint(-5, 5), rng.randint(1, 3))
                     for _ in range(4)} for _ in range(2))
            cases.append((bundle, x, y, GradedElement(twin, x) * GradedElement(twin, y)))
        workers, built, errors = 8, [[] for _ in bundles], []
        together = threading.Barrier(workers, timeout=60)

        def work():
            try:
                for i, (bundle, x, y, expected) in enumerate(cases):
                    together.wait()
                    ring = build_proj_bundle(bundle).ring
                    built[i].append((ring, (GradedElement(ring, x) * GradedElement(ring, y)).terms == expected.terms))
            except Exception as error:  # reported below; a thread cannot raise into the test
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        for rings in built:
            assert len(rings) == workers and all(ok for _, ok in rings)
            assert all(ring is rings[0][0] for ring, _ in rings)
            assert any(ring is rings[0][0] for ring in kept_rings())


class TestProjBundle:
    def test_bundle_validation(self):
        with pytest.raises(ValueError):
            LineBundleSum(0, (1,))
        with pytest.raises(ValueError):
            LineBundleSum(2, ())

    def test_dimension_and_name(self):
        m = build_proj_bundle(LineBundleSum(3, (2, 0, 0, 0)))
        assert m.real_dimension == 12
        assert m.name == "pb:3:[2,0,0,0]"

    def test_first_pontryagin_frozen(self):
        # roots: 4 copies of b and a+cb, a, a, a; hence
        # p1 = 4b^2 + (a+cb)^2 + 3a^2 = 4a^2 + 2c ab + (4+c^2) b^2
        for c in (-3, 0, 1, 2, 5):
            m = build_proj_bundle(LineBundleSum(3, (c, 0, 0, 0)))
            p1 = pontryagin_classes(m)[0]
            expected = {(2, 0): F(4), (1, 1): F(2 * c), (0, 2): F(4 + c * c)}
            expected = {e: v for e, v in expected.items() if v}
            assert p1.terms == expected, c

    def test_defining_relation(self):
        # a^4 = -c a^3 b for degrees (c,0,0,0): e_1 = c, higher e_i vanish
        m = build_proj_bundle(LineBundleSum(3, (2, 0, 0, 0)))
        a = m.ring.gen("a")
        assert (a ** 4).terms == {(3, 1): F(-2)}

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(-10 ** 30, 10 ** 30), min_size=1, max_size=8))
    def test_relation_coefficients_are_elementary_symmetric(self, degrees):
        # a^r = -sum e_i(d) a^(r-i) b^i, each e_i summed here over all i-subsets of the degrees
        r = len(degrees)
        m = build_proj_bundle(LineBundleSum(1, tuple(degrees)))
        e = {i: sum(prod(subset) for subset in combinations(degrees, i)) for i in range(1, r + 1)}
        assert m.ring.rules[0] == (r, {(r - i, i): F(-e[i]) for i in e if e[i]})

    @pytest.mark.parametrize("d", [1, -7, 10 ** 100])
    def test_relation_coefficients_of_sixteen_equal_degrees(self, d):
        m = build_proj_bundle(LineBundleSum(1, (d,) * 16))
        assert m.ring.rules[0] == (16, {(16 - i, i): F(-comb(16, i) * d ** i) for i in range(1, 17)})

    def test_pairing_normalization(self):
        # <a^(r-1) b^l> = 1: the fibre-times-base fundamental monomial
        m = build_proj_bundle(LineBundleSum(3, (2, 0, 0, 0)))
        a, b = m.ring.gen("a"), m.ring.gen("b")
        assert pair(m, a ** 3 * b ** 3) == F(1)

    def test_normal_monomial_basis(self):
        # normal monomials a^i b^j, i <= r-1, j <= l: free module of rank r(l+1)
        m = build_proj_bundle(LineBundleSum(3, (2, 0, 0, 0)))
        normal = [
            (i, j)
            for i in range(10)
            for j in range(10)
            if m.ring.element({(i, j): 1}).terms == {(i, j): F(1)}
        ]
        assert len(normal) == 16
        assert all(i <= 3 and j <= 3 for i, j in normal)

    def test_tangent_data_read_off_the_twist_degrees(self):
        # seeded bundles over CP^1..CP^8 of rank 1..8, rank-1 bundles over
        # each base, and bundles over CP^1, where b^2 = 0 and, on
        # pb:1:[1,1], (a + b)^2 = 0 too: equal squares in two groups
        rng = random.Random(15)
        cases = [(l, (d,)) for l in range(1, 9) for d in (-3, 0, 1, 2)]
        cases += [(1, (1, 1)), (1, (0, 2, 1)), (1, (3, -1, 1, 1))]
        while len(cases) < 320:
            l, r = rng.randint(1, 8), rng.randint(1, 8)
            cases.append((l, tuple(rng.randint(-4, 4) for _ in range(r))))
        spins = set()
        for l, degrees in cases:
            m = build_proj_bundle(LineBundleSum(l, degrees))
            a, b = m.ring.gen("a"), m.ring.gen("b")
            # one Pontryagin root (a + d b)^2 per distinct twist d, first seen first
            counts = {}
            for d in degrees:
                counts[d] = counts.get(d, 0) + 1
            fibre = tuple(((a + b * d) * (a + b * d), n) for d, n in counts.items())
            assert m.roots == ((b * b, l + 1),) + fibre, (l, degrees)
            # spin iff the sum of all l + 1 + r complex roots has even integer coefficients
            c1 = m.ring.zero()
            for x in [b] * (l + 1) + [a + b * d for d in degrees]:
                c1 = c1 + x
            even = all(c.denominator == 1 and c.numerator % 2 == 0 for c in c1.terms.values())
            assert is_spin(m) == even, (l, degrees)
            spins.add(even)
        assert spins == {True, False}

    def test_curvature_certificate_present(self):
        m = build_proj_bundle(LineBundleSum(3, (2, 0, 0, 0)))
        assert m.curvature_certificate is not None


class TestSpin:
    def test_cp_spin_iff_odd(self):
        for n in range(1, 7):
            assert is_spin(build_cp(n)) == (n % 2 == 1)

    def test_hp_always_spin(self):
        for n in range(1, 5):
            assert is_spin(build_hp(n))

    def test_bundle_spin_parity(self):
        # base CP^3: root sum 4a + (4+c)b, spin iff c even
        for c in range(-4, 5):
            m = build_proj_bundle(LineBundleSum(3, (c, 0, 0, 0)))
            assert is_spin(m) == (c % 2 == 0), c

    def test_balanced_degrees_always_spin(self):
        # degrees (c,2c,-3c,0) sum to zero: root sum 4a + 6b, always even
        for c in range(-3, 4):
            m = build_proj_bundle(LineBundleSum(5, (c, 2 * c, -3 * c, 0)))
            assert is_spin(m), c

    def test_odd_root_sum_not_spin(self):
        m = build_proj_bundle(LineBundleSum(2, (1, 1)))
        assert not is_spin(m)

    def test_product_spin_is_conjunction(self):
        assert is_spin(product(build_cp(3), build_hp(1)))
        assert not is_spin(product(build_cp(2), build_hp(1)))


class TestProducts:
    def test_cp2_squared_frozen(self):
        m = product(build_cp(2), build_cp(2))
        assert pontryagin_products(m, [(1, 1), (2,)]) == [F(18), F(9)]

    def test_product_with_point_is_identity(self):
        m = build_cp(2)
        mp = product(m, build_point())
        assert mp.real_dimension == 4
        assert pontryagin_products(mp, [(1,)]) == pontryagin_products(m, [(1,)]) == [F(3)]

    def test_product_commutes_on_numbers(self):
        a = product(build_cp(2), build_hp(1))
        b = product(build_hp(1), build_cp(2))
        assert pontryagin_products(a, [(1, 1), (2,)]) == pontryagin_products(b, [(1, 1), (2,)])

    def test_repeated_factor_names_do_not_collide(self):
        # in the ring the product would have, the oracle for its numbers
        m = ref.ring_model(product(build_cp(2), build_cp(2)))
        assert len(set(m.ring.generators)) == m.ring.ngens == 2

    def test_hp_times_cp_is_whitney_product(self):
        # HP^2 has a virtual Pontryagin root, CP^2 none; with u^2 x^2 the top class, p1 = 2u + 3x^2,
        # p2 = 7u^2 + 6u x^2 and p3 = 21 u^2 x^2 give p3 = 21, p1 p2 = 21 + 12 = 33, p1^3 = 3 * 4 * 3 = 36
        hp, cp = build_hp(2), build_cp(2)
        m = product(hp, cp)
        assert pontryagin_products(m, [(3,), (2, 1), (1, 1, 1)]) == [21, 33, 36]
        # the oracle's ring: its concatenated roots give the Whitney product of the totals
        own = ref.ring_model(m)
        whitney = ref.embed(total_pontryagin(hp), own.ring, 0) * ref.embed(total_pontryagin(cp), own.ring, 1)
        assert total_pontryagin(own) == whitney
        assert pontryagin_classes(own)[0].terms == {(1, 0): F(2), (0, 2): F(3)}

    @pytest.mark.parametrize("nesting", ["right", "left"])
    def test_embedding_recodes_every_root_of_the_eight_generator_product(self, nesting):
        a, b, c, d = (build_proj_bundle(LineBundleSum(2, degrees))
                      for degrees in ((1, -1, 2), (2, 1, -1), (1, 3, -2), (1, 0, 1)))
        m = product(a, product(b, product(c, d))) if nesting == "right" else product(product(product(a, b), c), d)
        own = ref.ring_model(m)
        ring, n = own.ring, own.ring.ngens
        assert n == 8
        embedded, offset = [], 0
        for f in m.factors:
            one_third = f.ring.scalar(F(1, 3))
            for t, mult in f.roots:
                for x in (t, t * one_third + f.ring.scalar(F(5, 2))):
                    padded = {(0,) * offset + e + (0,) * (n - offset - f.ring.ngens): v for e, v in x.terms.items()}
                    assert ref.embed(x, ring, offset) == GradedElement(ring, padded)
                embedded.append((ref.embed(t, ring, offset), mult))
            offset += f.ring.ngens
        assert list(own.roots) == embedded

    def test_pairing_against_wrong_ring_rejected(self):
        m1, m2 = build_cp(2), build_cp(3)
        with pytest.raises(ValueError):
            pair(m1, m2.ring.one())

    def test_curvature_certificate_on_cp_and_its_products(self):
        # Fubini-Study is a symmetric-space metric, so every product of CP's carries one
        assert build_cp(2).curvature_certificate == build_hp(2).curvature_certificate
        for dim in range(4, 21, 4):
            for m in basis_manifolds(dim):
                assert m.curvature_certificate is not None, m.name
        assert product(x12(2), build_cp(2)).curvature_certificate is not None


class TestModelValidation:
    def test_pairing_monomial_must_match_dimension(self):
        ring = build_cp(2).ring
        with pytest.raises(ValueError):
            ManifoldModel("bad", 4, ring, (), (1,), spin=False)

    def test_odd_dimension_rejected(self):
        ring = build_cp(2).ring
        with pytest.raises(ValueError):
            ManifoldModel("bad", 3, ring, (), (2,), spin=False)

    @pytest.mark.parametrize("value", [0.5, Fraction(5, 2), "7"], ids=["float", "fraction", "str"])
    @pytest.mark.parametrize("build", [
        lambda v: RingSpec([("a", v)], 4),
        lambda v: RingSpec([("a", 2)], v),
        lambda v: RingSpec([("a", 2)], 4, {"a": (v, {})}),
        lambda v: RingSpec([("a", 2)], 4, {"a": (2, {(v,): 1})}),
        lambda v: RingSpec([("a", 2)], 4).element({(v,): 1}),
        lambda v: LineBundleSum(3, (v, 0, 0, 0)),
        lambda v: Partition([v, 2]),
        lambda v: x12(v),
        lambda v: LineBundleSum(v, (1, 0)),
        lambda v: build_cp(v),
        lambda v: build_hp(v),
    ], ids=["degree", "truncation", "rule_power", "rule_exponent", "exponent", "bundle_degree", "part", "x12",
            "base_dim", "cp", "hp"])
    def test_non_integer_is_type_error(self, build, value):
        # int() would truncate a float or Fraction and parse a str, building a wrong model
        with pytest.raises(TypeError):
            build(value)

    @pytest.mark.parametrize("build", [
        lambda: build_cp(2.0),
        lambda: build_hp(1.0),
        lambda: build_proj_bundle(LineBundleSum(Fraction(5, 2), (1, 0))),
    ], ids=["cp", "hp", "base_dim"])
    def test_non_integer_dimension_fails_in_the_ring(self, build):
        # integral floats too: the builders read n and base_dim before building the ring
        with pytest.raises(TypeError):
            build()


class TestModelCopies:
    """Copy and pickle rebuild a model through its constructor, so the
    read-only fields are set once, as on a model built by hand."""

    @pytest.mark.parametrize("round_trip", [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
                             ids=["copy", "deepcopy", "pickle"])
    @pytest.mark.parametrize("build", [lambda: build_cp(2), lambda: build_hp(2), lambda: product(x12(2), build_hp(1))],
                             ids=["cp2", "hp2", "x12_times_hp1"])
    def test_round_trip_keeps_every_genus(self, build, round_trip):
        m = build()
        t = round_trip(m)
        assert type(t) is ManifoldModel and t is not m
        assert (t.name, t.real_dimension, t.pairing_exponents, t.spin, t.curvature_certificate) == (
            m.name, m.real_dimension, m.pairing_exponents, m.spin, m.curvature_certificate)
        assert t.ring == m.ring and len(t.factors) == len(m.factors)
        assert signature(t) == signature(m)
        assert elliptic_q_coefficients(t, 4) == elliptic_q_coefficients(m, 4)
        with pytest.raises(AttributeError):
            t.name = "renamed"

    @pytest.mark.parametrize("round_trip", [copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
                             ids=["deepcopy", "pickle"])
    def test_deep_round_trip_builds_its_own_ring(self, round_trip):
        m = x12(2)
        t = round_trip(m)
        assert t.ring == m.ring and t.ring is not m.ring
        assert all(r.ring is t.ring for r, _ in t.roots)  # the roots stay in the copy's ring

    def test_shallow_copy_shares_the_fields(self):
        m = build_cp(2)
        t = copy.copy(m)
        assert t.ring is m.ring and t.roots is m.roots


class TestPontryaginProducts:
    def test_hp2_numbers(self):
        # p1^2 = 4 and p2 = 7 on HP^2; a shared prefix is formed once and reused
        assert pontryagin_products(build_hp(2), [(1, 1), (2,), (1, 1)]) == [4, 7, 4]

    @pytest.mark.parametrize("partition", [(0,), (-1,), (3,), (1, 3)], ids=["zero", "negative", "above_k", "tail"])
    def test_part_outside_1_to_k_is_value_error(self, partition):
        # p[part - 1] unchecked reads p2 for part 0 and p1 for part -1, and 3 is past the list
        with pytest.raises(ValueError, match=re.escape(f"partition {partition} has a part outside 1..2")):
            pontryagin_products(build_hp(2), [(2,), partition])


    @pytest.mark.parametrize("m", [build_hp(3), build_proj_bundle(LineBundleSum(4, (1, 2, 3))),
                                   product(build_hp(2), build_cp(2)), product(build_cp(2), product(build_cp(2), build_cp(2)))],
                             ids=lambda m: m.name)
    def test_every_partition_matches_the_formed_monomial(self, m):
        # unsorted partitions, partitions of weight below 3 (which pair to 0)
        # and the empty one, against the monomial formed in full and paired,
        # a product's in the ring it would have
        own = ref.ring_model(m)
        p = pontryagin_classes(own)
        partitions = [(1, 2), (2, 1), (3,), (1, 1, 1), (1,), (2,), (1, 1), ()]
        formed = [pair(own, prod((p[i - 1] for i in I), start=own.ring.one())) for I in partitions]
        assert pontryagin_products(m, partitions) == formed
        assert formed[0] == formed[1] != 0 and formed[4:] == [0, 0, 0, 0]

    def test_the_point_pairs_the_empty_partition_to_one(self):
        assert pontryagin_products(build_point(), [()]) == [pair(build_point(), build_point().ring.one())] == [1]

    @pytest.mark.parametrize("partition", [(4, 1), (2, 1, 0), (1, -1, 3)])
    def test_a_multi_part_partition_outside_1_to_k_is_value_error(self, partition):
        with pytest.raises(ValueError, match=re.escape(f"partition {partition} has a part outside 1..3")):
            pontryagin_products(build_hp(3), [(1, 2), partition])


@settings(max_examples=25, deadline=None)
@given(
    st.integers(1, 3),
    st.lists(st.integers(-3, 3), min_size=2, max_size=3),
)
def test_bundle_pontryagin_classes_have_integer_coefficients(l, degrees):
    m = build_proj_bundle(LineBundleSum(l, tuple(degrees)))
    for p in pontryagin_classes(m):
        assert all(c.denominator == 1 for c in p.terms.values())
