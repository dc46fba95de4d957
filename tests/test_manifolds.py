"""Manifold models: projective spaces, projectivized line-bundle sums,
and products.

Oracles: hand-expanded Pontryagin classes from the root description
(frozen below), classical total Pontryagin classes of quaternionic
projective space recomputed here with independent list arithmetic,
classical spin criteria, for a product, which has no ring, the ring it
would have (``ring_model`` in ``symmetric_reference``), and for the
integral of P(E), the relation it must kill and its normalization, read
off the elementary symmetric functions of the twists.
"""
import copy
import pickle
import random
import re
import sys
import threading
from fractions import Fraction
from itertools import combinations
from math import comb, prod

import pytest
from hypothesis import given, settings, strategies as st

import symmetric_reference as ref
from ellcob import manifolds
from ellcob.algebra import GradedElement, RationalMatrix, RingSpec
from ellcob.cobordism import Partition, basis_manifolds, partitions_of, pontryagin_numbers, x12
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
        # the integral reads the top power of the hyperplane class
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

    def test_models_of_one_shape_share_a_ring(self):
        # a ring depends on the base and the rank alone: the twists live in the integral and roots
        bundles = [build_proj_bundle(LineBundleSum(2, degrees)) for degrees in ((1, 0), (0, 1), (3, -7), (5, 5))]
        assert all(m.ring is bundles[0].ring for m in bundles)
        assert bundles[0].integral == bundles[1].integral != bundles[2].integral != bundles[3].integral
        assert build_cp(3).ring is build_cp(3).ring and build_hp(2).ring is build_hp(2).ring
        others = [build_proj_bundle(LineBundleSum(2, (1, 0, 0))).ring, build_proj_bundle(LineBundleSum(3, (1, 0))).ring,
                  build_cp(2).ring, build_hp(1).ring, bundles[0].ring]
        assert len({id(ring) for ring in others}) == len(set(others)) == 5

    @pytest.mark.parametrize("build", [build_cp, build_hp, lambda n: build_proj_bundle(LineBundleSum(n, (1, 0)))],
                             ids=["cp", "hp", "pb"])
    def test_a_float_is_refused_after_its_int_was_built(self, build):
        # 2.0 equals 2 and hashes alike: a lookup by it would serve the ring shared by 2
        assert build(2).ring is build(2).ring
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            build(2.0)

    def test_the_shape_cache_is_bounded(self):
        bound = manifolds._shape_ring.cache_info().maxsize
        rings = [build_cp(n).ring for n in range(1, bound + 11)]
        assert manifolds._shape_ring.cache_info().currsize == bound
        assert build_cp(bound + 10).ring is rings[-1] and build_cp(1).ring == rings[0]

    def test_threads_building_one_shape_at_once(self):
        # every worker builds the same fresh shapes at once and fills their memos together
        bundles = [LineBundleSum(4, (d, 0, 1)) for d in range(-3, 5)]
        expected = [pontryagin_numbers(build_proj_bundle(bundle)) for bundle in bundles]
        manifolds._shape_ring.cache_clear()
        workers, results, errors = 4, [], []
        together = threading.Barrier(workers, timeout=60)

        def work():
            try:
                together.wait()
                results.append([pontryagin_numbers(build_proj_bundle(bundle)) for bundle in bundles])
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
        assert not any(thread.is_alive() for thread in threads) and errors == []
        assert results == [expected] * workers


class TestProjBundle:
    def test_bundle_validation(self):
        with pytest.raises(ValueError):
            LineBundleSum(0, (1,))
        with pytest.raises(ValueError):
            LineBundleSum(2, ())

    def test_empty_iterator_of_degrees_is_refused(self):
        # emptiness is read off the tuple: an iterator is truthy before it is consumed
        with pytest.raises(ValueError, match="^the bundle needs at least one summand$"):
            LineBundleSum(2, (d for d in ()))
        assert LineBundleSum(2, (d for d in (1, 0))).degrees == (1, 0)

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

    @staticmethod
    def seeded_bundles(r):
        """Rank-r bundles over CP^1..CP^6, four each with twists small, large and huge."""
        rng = random.Random(r)
        for bound in (3, 10 ** 3, 10 ** 30):
            for _ in range(4):
                yield LineBundleSum(rng.randint(1, 6), tuple(rng.randint(-bound, bound) for _ in range(r)))

    @pytest.mark.parametrize("r", range(1, 9))
    def test_the_integral_kills_the_defining_relation(self, r):
        # a^r + sum e_i(d) a^(r-i) b^i = 0 in H*(P(E)), each e_i summed here over all i-subsets of
        # the degrees, so the integral kills it times every monomial of complementary degree
        for bundle in self.seeded_bundles(r):
            l, degrees = bundle.base_dim, bundle.degrees
            m = build_proj_bundle(bundle)
            relation = m.ring.element({(r - i, i): sum(map(prod, combinations(degrees, i))) for i in range(r + 1)})
            for j in range(l):
                assert pair(m, relation * m.ring.element({(j, l - 1 - j): 1})) == 0, (bundle, j)

    @pytest.mark.parametrize("r", range(1, 9))
    def test_the_integral_of_the_fibre_times_the_base_is_one(self, r):
        # <a^(r-1) b^l> = 1: a^(r-1) restricts to the fibre's top class, b^l is the base's
        for bundle in self.seeded_bundles(r):
            m = build_proj_bundle(bundle)
            assert pair(m, m.ring.element({(r - 1, bundle.base_dim): 1})) == 1, bundle

    @pytest.mark.parametrize("d", [1, -7, 10 ** 100])
    def test_the_integral_of_sixteen_equal_degrees(self, d):
        # h_j of sixteen equal twists d is C(15 + j, j) d^j
        m = build_proj_bundle(LineBundleSum(4, (d,) * 16))
        assert m.integral.terms == {(15 + j, 4 - j): F((-1) ** j * comb(15 + j, j) * d ** j) for j in range(5)}

    @pytest.mark.parametrize("l", range(1, 9))
    def test_a_rank_one_bundle_is_the_base(self, l):
        # P(L^d) = CP^l, with a = -d b; every partition of weight up to dim/4, the Pontryagin numbers
        # among them when 4 | 2l
        cp = build_cp(l)
        partitions = [tuple(I) for k in range(l // 2 + 1) for I in partitions_of(k)]
        for d in (-3, 0, 2, 7):
            m = build_proj_bundle(LineBundleSum(l, (d,)))
            assert is_spin(m) == is_spin(cp), (l, d)
            assert pontryagin_products(m, partitions) == pontryagin_products(cp, partitions), (l, d)

    def test_pairing_normalization(self):
        # <a^(r-1) b^l> = 1: the fibre-times-base fundamental monomial
        m = build_proj_bundle(LineBundleSum(3, (2, 0, 0, 0)))
        a, b = m.ring.gen("a"), m.ring.gen("b")
        assert pair(m, a ** 3 * b ** 3) == F(1)

    @pytest.mark.parametrize("l, degrees", [(3, (2, 0, 0, 0)), (1, (5,)), (2, (1, -3, 4)), (4, (0, 0))])
    def test_the_integral_pairs_with_rank_r_times_l_plus_1(self, l, degrees):
        # Poincare duality: H*(P(E)) is free of rank r(l+1), so the pairing <x y> on the monomials
        # a^i b^j of Q[a, b]/(b^(l+1)) up to the top has that rank, its kernel the defining relation
        m = build_proj_bundle(LineBundleSum(l, degrees))
        r = len(degrees)
        monomials = [m.ring.element({(i, j): 1}) for j in range(l + 1) for i in range(l + r - j)]
        rows = [[pair(m, x * y) for y in monomials] for x in monomials]
        assert RationalMatrix(rows).rank() == r * (l + 1)

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
            # spin iff the sum of all l + 1 + r complex roots has even integer coefficients,
            # with a = -d b substituted on a rank-1 bundle
            fibre_class = b * -degrees[0] if len(degrees) == 1 else a
            c1 = m.ring.zero()
            for x in [b] * (l + 1) + [fibre_class + b * d for d in degrees]:
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
    def test_integral_must_be_a_top_class_of_the_ring(self):
        cp2 = build_cp(2)
        b = cp2.ring.gen("b")
        for integral, reason in ((b, "of degree the real dimension"), (b * b + b, "of degree the real dimension"),
                                 (cp2.ring.zero(), "nonzero"), ((1,), "not an element of the ring"),
                                 (build_cp(3).ring.gen("b") ** 2, "not an element of the ring")):
            with pytest.raises(ValueError, match=reason):
                ManifoldModel("bad", 4, cp2.ring, (), integral, spin=False)
        assert pair(ManifoldModel("twice", 4, cp2.ring, (), b * b * 2, spin=False), b * b) == 2

    def test_odd_dimension_rejected(self):
        ring = build_cp(2).ring
        with pytest.raises(ValueError):
            ManifoldModel("bad", 3, ring, (), ring.gen("b") ** 2, spin=False)

    @pytest.mark.parametrize("ring,roots", [(None, ()), ("cp2", None)], ids=["no_ring", "no_roots"])
    def test_prime_without_ring_or_roots_is_value_error(self, ring, roots):
        # refused like a product of the wrong shape, not by an AttributeError or TypeError on None
        ring = build_cp(2).ring if ring == "cp2" else ring
        with pytest.raises(ValueError, match="^a prime model has a ring and roots$"):
            ManifoldModel("bad", 4, ring, roots, build_cp(2).integral, spin=False)

    @pytest.mark.parametrize("value", [0.5, Fraction(5, 2), "7"], ids=["float", "fraction", "str"])
    @pytest.mark.parametrize("build", [
        lambda v: RingSpec([("a", v)], 4),
        lambda v: RingSpec([("a", 2)], v),
        lambda v: RingSpec([("a", 2)], 4, {"a": (v, {})}),
        lambda v: RingSpec([("a", 2)], 4).element({(v,): 1}),
        lambda v: LineBundleSum(3, (v, 0, 0, 0)),
        lambda v: Partition([v, 2]),
        lambda v: x12(v),
        lambda v: LineBundleSum(v, (1, 0)),
        lambda v: build_cp(v),
        lambda v: build_hp(v),
    ], ids=["degree", "truncation", "rule_power", "exponent", "bundle_degree", "part", "x12",
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
        assert (t.name, t.real_dimension, t.integral, t.spin, t.curvature_certificate) == (
            m.name, m.real_dimension, m.integral, m.spin, m.curvature_certificate)
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
