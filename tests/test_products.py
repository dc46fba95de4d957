"""Genera of products by multiplicativity.

A genus is a ring homomorphism on the rational cobordism ring, so
phi(M x N) = phi(M) phi(N).  A product model records its prime factors
and nothing more: no ring, no roots.  The roots route multiplies its
factors' values, and the universal route reads its Pontryagin numbers,
folded from its factors' own by the Whitney product formula.  The
cross-check then compares the fold with the factors' roots: a fault in
the fold must surface as a ConsistencyError (exit 3 on the CLI).

The oracle for both is the ring the product would have, the tensor
product of its factors' rings, built in ``symmetric_reference``
(``ring_model``): ``genus_on_own_ring`` runs ``full_class`` on its
embedded roots, and the fold is compared with its own pairing.
"""
import copy
import pickle
import random
import re
from collections import Counter
from fractions import Fraction
from itertools import product as tuples

import pytest

import ellcob.manifolds as manifolds
import symmetric_reference as ref
from ellcob import algebra
from ellcob.algebra import QSeries, RingSpec
from ellcob.cli import main, parse_manifold
from ellcob.cobordism import partitions_of, pontryagin_numbers, standard_family
from ellcob.errors import ConsistencyError
from ellcob.genera import (
    CharacteristicSeries,
    _elliptic_sequence,
    _roots_route,
    ahat,
    ahat_sequence,
    elliptic_q_coefficients,
    l_sequence,
    signature,
    twisted_ahat_tangent,
)
from ellcob.manifolds import (
    LineBundleSum,
    ManifoldModel,
    _pair_monomials,
    _splits,
    build_cp,
    build_hp,
    build_point,
    build_proj_bundle,
    pair,
    pontryagin_classes,
    pontryagin_products,
    product,
    total_pontryagin,
)


class TestFactors:
    def test_prime_models_have_no_factors(self):
        for m in (build_point(), build_cp(2), build_hp(1), build_proj_bundle(LineBundleSum(2, (1, -1, 2)))):
            assert m.factors == ()

    def test_nested_products_flatten(self):
        a, b, c = build_cp(1), build_hp(1), build_cp(2)
        assert product(a, b).factors == (a, b)
        assert product(product(a, b), c).factors == (a, b, c)
        assert product(a, product(b, c)).factors == (a, b, c)
        assert product(product(a, b), product(c, a)).factors == (a, b, c, a)

    def test_parsed_product_lists_its_primes(self):
        m, _ = parse_manifold("prod(cp:2,prod(hp:1,pb:1:[1,0]))")
        assert [f.name for f in m.factors] == ["cp:2", "hp:1", "pb:1:[1,0]"]


class TestReadOnlyModel:
    FIELDS = ManifoldModel.__slots__

    @pytest.mark.parametrize("field", FIELDS)
    def test_assignment_and_deletion_raise(self, field):
        m = product(build_cp(2), build_hp(1))
        before = getattr(m, field)
        with pytest.raises(AttributeError, match="read-only"):
            setattr(m, field, None)
        with pytest.raises(AttributeError, match="read-only"):
            delattr(m, field)
        assert getattr(m, field) is before

    def test_new_attribute_raises(self):
        with pytest.raises(AttributeError):
            build_cp(2).extra = 1

    def test_equality_is_identity(self):
        m = build_cp(2)
        assert m == m and m != build_cp(2)
        assert len({m, m, build_cp(2)}) == 2


class TestSharedZero:
    """A product of factor values that is 0, or a q-coefficient that
    cancels, is the one shared zero that ``pair`` hands out."""

    @pytest.mark.parametrize("text", ["prod(cp:1,cp:3)", "prod(hp:1,cp:2)", "prod(hp:2,cp:2)",
                                      "prod(cp:2,prod(cp:2,hp:1))"])
    def test_elliptic_zeros_are_shared(self, text):
        m, _ = parse_manifold(text)
        coefficients = elliptic_q_coefficients(m, 6)
        assert any(not c for c in coefficients)
        assert all(c is algebra._ZERO for c in coefficients if not c)

    @pytest.mark.parametrize("text", ["prod(cp:1,cp:3)", "prod(hp:1,cp:2)", "prod(cp:1,prod(cp:1,hp:1))"])
    def test_signature_and_ahat_zeros_are_shared(self, text):
        m, _ = parse_manifold(text)
        assert signature(m) is algebra._ZERO
        assert ahat(m) is algebra._ZERO

    def test_cancelling_q_coefficient_is_shared(self):
        # on CP^2 the genus of exp(l_1 t + ...) is 3 l_1, here 3 + 6q - 6q^2; on
        # CP^2 x CP^2 its square's q^2 coefficient is -18 + 36 - 18, a sum that cancels
        series = CharacteristicSeries("cancelling", [QSeries([0, 0, 0]), QSeries([1, 2, -2]), QSeries([0, 0, 0])])
        value = _roots_route(product(build_cp(2), build_cp(2)), series)
        assert value.coeffs == [9, 36, 0]
        assert value.coeffs[2] is algebra._ZERO


class TestProductConstructionIsChecked:
    """One more split in the first term of every fold table for a partition
    with two or more parts skews a product's numbers only; its factors'
    roots stay right."""

    @pytest.fixture
    def skewed_fold(self, monkeypatch):
        original = manifolds._splits

        def skewed(I, k1, k2):
            table = original(I, k1, k2)
            if len(I) < 2 or not table:
                return table
            (A, B, n), *rest = table
            return ((A, B, n + 1), *rest)

        monkeypatch.setattr(manifolds, "_splits", skewed)

    @pytest.mark.parametrize("text", ["prod(hp:2,cp:2)", "prod(cp:2,cp:4)"])
    def test_library_raises(self, text, skewed_fold):
        m, _ = parse_manifold(text)
        with pytest.raises(ConsistencyError, match="^genus pipelines disagree"):
            signature(m)
        with pytest.raises(ConsistencyError, match="^elliptic genus pipelines disagree"):
            elliptic_q_coefficients(m, 2)

    def test_cli_exits_3(self, capsys, skewed_fold):
        code = main(["genus", "--manifold", "prod(hp:2,cp:2)", "--which", "sign"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert "internal consistency failure: genus pipelines disagree on prod(hp:2,cp:2)" in captured.err


def _random_factor(rng: random.Random, odd: bool):
    """cp:1 or cp:3 when odd, whose dimension is 2 mod 4; else a cp, hp
    or pb of dimension divisible by 4 whose genera are not all 0 (they
    all vanish on HP^1 and on a CP^1-bundle over CP^1)."""
    if odd:
        return build_cp(rng.choice((1, 3)))
    kind = rng.choice(("cp", "hp", "pb", "pb"))
    if kind == "cp":
        return build_cp(rng.choice((2, 4)))
    if kind == "hp":
        return build_hp(2)
    return build_proj_bundle(LineBundleSum(2, tuple(rng.randint(-2, 2) for _ in range(3))))


def _random_product(seed: int, max_dim: int = 20):
    """A product of 2 to 4 random factors of total dimension at most
    max_dim, nested in random order; in about a quarter of them two
    factors have dimension 2 mod 4."""
    rng = random.Random(f"products-{seed}")
    count = rng.randint(2, 4)
    odd = 2 if rng.random() < 0.25 else 0
    while True:
        factors = [_random_factor(rng, i < odd) for i in range(count)]
        if sum(f.real_dimension for f in factors) <= max_dim:
            break
    rng.shuffle(factors)
    m = factors[0]
    for f in factors[1:]:
        m = product(m, f) if rng.random() < 0.5 else product(f, m)
    return m


SERIES = {
    "L": lambda k: l_sequence(k).source,
    "ahat": lambda k: ahat_sequence(k).source,
    "elliptic": lambda k: _elliptic_sequence(k, 6).source,
}


@pytest.mark.parametrize("genus", SERIES)
@pytest.mark.parametrize("seed", range(24))
def test_factorwise_value_equals_the_product_ring(seed, genus):
    m = _random_product(seed)
    series = SERIES[genus](m.real_dimension // 4)
    assert len(m.factors) >= 2
    assert _roots_route(m, series) == ref.genus_on_own_ring(m, series), m.name


@pytest.mark.parametrize("text", ["prod(cp:1,cp:3)", "prod(cp:3,prod(cp:1,cp:2))", "prod(cp:1,cp:1)",
                                  "prod(hp:1,prod(cp:3,cp:3))"])
@pytest.mark.parametrize("genus", SERIES)
def test_odd_complex_dimension_factors(text, genus):
    m, _ = parse_manifold(text)
    series = SERIES[genus](m.real_dimension // 4)
    assert _roots_route(m, series) == ref.genus_on_own_ring(m, series)


def _random_prime(rng: random.Random):
    kind = rng.choice(("cp", "hp", "pb"))
    if kind == "cp":
        return build_cp(rng.randint(1, 3))
    if kind == "hp":
        return build_hp(rng.randint(1, 2))
    rank = rng.randint(2, 3)
    return build_proj_bundle(LineBundleSum(rng.randint(1, 2), tuple(rng.randint(-2, 2) for _ in range(rank))))


def _random_triple(seed: int):
    """Three prime cp, hp or pb models of total dimension 4k <= 20."""
    rng = random.Random(f"nesting-{seed}")
    while True:
        triple = [_random_prime(rng) for _ in range(3)]
        dim = sum(f.real_dimension for f in triple)
        if dim % 4 == 0 and dim <= 20:
            return triple


class TestNesting:
    """A product is its prime factors, so both nestings of a triple are
    one list of factors and every number and genus agrees."""

    @pytest.mark.parametrize("seed", range(12))
    def test_both_nestings_agree(self, seed):
        a, b, c = _random_triple(seed)
        left, right = product(product(a, b), c), product(a, product(b, c))
        assert left.factors == right.factors == (a, b, c)
        assert pontryagin_numbers(left) == pontryagin_numbers(right)
        for genus in (signature, ahat, twisted_ahat_tangent, lambda m: elliptic_q_coefficients(m, 4)):
            assert genus(left) == genus(right), (left.name, genus)

    def test_eleven_factors_keep_distinct_generator_names(self):
        # the oracle's ring: with plain digit suffixes the first factor's b1 and the eleventh's b would both be b11
        ring = RingSpec([("b1", 2)], 2, {"b1": (2, {})})
        b1 = ring.gen("b1")
        m = ManifoldModel("hand-built cp:1", 2, ring, ((b1 * b1, 2),), b1, spin=True)
        for _ in range(10):
            m = product(m, build_cp(1))
        own = ref.ring_model(m)
        assert own.ring.generators[0] == "b1_1" and own.ring.generators[-1] == "b_11"
        assert len(set(own.ring.generators)) == own.ring.ngens == len(m.factors) == 11
        top = own.ring.one()
        for g in own.ring.generators:
            top = top * own.ring.gen(g)
        assert pair(own, top) == 1


def test_products_with_a_point():
    cp = build_cp(2)
    for m in (product(cp, build_point()), product(build_point(), cp)):
        assert signature(m) == signature(cp) == Fraction(1)
        assert elliptic_q_coefficients(m, 3) == elliptic_q_coefficients(cp, 3)


EIGHT_GENERATORS = "prod(pb:2:[1,-1,2],prod(pb:2:[2,1,-1],prod(pb:2:[1,3,-2],pb:2:[1,0,1])))"


def _ring_numbers(m, partitions):
    """The oracle: the numbers paired in the ring the product would have."""
    m = ref.ring_model(m)
    return _pair_monomials(m, pontryagin_classes(m), partitions)


def _nestings(factors):
    """The left- and the right-nested product of the factors."""
    left, right = factors[0], factors[-1]
    for f in factors[1:]:
        left = product(left, f)
    for f in reversed(factors[:-1]):
        right = product(f, right)
    return left, right


def _all_partitions(k):
    """Every partition of k, those of lower weight, and each of them unsorted."""
    partitions = [tuple(I) for j in range(k + 1) for I in partitions_of(j)]
    return partitions + [I[::-1] for I in partitions if I != I[::-1]]


class TestFold:
    """A product's numbers, folded from its factors, equal those of the ring it would have."""

    def assert_fold_is_the_ring(self, m):
        partitions = _all_partitions(m.real_dimension // 4)
        folded = pontryagin_products(m, partitions)
        assert folded == _ring_numbers(m, partitions), m.name
        assert all(v is algebra._ZERO for v in folded if not v)

    @pytest.mark.parametrize("seed", range(24))
    def test_seeded_products_in_both_nestings(self, seed):
        factors = _random_product(seed).factors
        for m in _nestings(factors):
            assert m.factors == factors
            self.assert_fold_is_the_ring(m)

    @pytest.mark.parametrize("text", ["prod(cp:1,cp:3)", "prod(cp:3,prod(cp:1,cp:2))", "prod(cp:1,hp:1)",
                                      "prod(hp:1,prod(cp:3,cp:3))", "prod(cp:3,prod(hp:1,cp:1))"])
    def test_odd_complex_dimension_factors(self, text):
        self.assert_fold_is_the_ring(parse_manifold(text)[0])

    def test_point_factors(self):
        pt, hp = build_point(), build_hp(2)
        for m in (product(pt, hp), product(hp, pt), product(pt, product(build_cp(2), pt)), product(pt, pt)):
            self.assert_fold_is_the_ring(m)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_x12_times_hp(self, n):
        self.assert_fold_is_the_ring(standard_family(f"X12xHP:{n}").build(2))

    def test_eight_generator_product(self):
        self.assert_fold_is_the_ring(parse_manifold(EIGHT_GENERATORS)[0])

    def test_parts_are_still_checked(self):
        m = product(build_hp(1), build_cp(2))
        with pytest.raises(ValueError, match="outside 1..2"):
            pontryagin_products(m, [(3,)])
        with pytest.raises(ValueError, match="outside 1..2"):
            pontryagin_products(m, [(1, 0)])


@pytest.mark.parametrize("k1, k2", [(k1, k - k1) for k in range(9) for k1 in range(k + 1)])
def test_split_table_is_brute_force_enumeration(k1, k2):
    for I in partitions_of(k1 + k2):
        expected = Counter()
        for split in tuples(*(range(i + 1) for i in I)):
            A = tuple(sorted((a for a in split if a), reverse=True))
            B = tuple(sorted((i - a for i, a in zip(I, split) if i - a), reverse=True))
            if sum(A) == k1:
                expected[A, B] += 1
        table = _splits(tuple(I), k1, k2)
        assert len(table) == len(expected)
        assert {(A, B): n for A, B, n in table} == expected


class TestProductIsItsFactors:
    """product() builds no ring: a product carries none and no roots, and
    its numbers and genera are read off its prime factors."""

    @pytest.mark.parametrize("read", [pontryagin_classes, total_pontryagin, lambda m: pair(m, build_cp(2).ring.one())],
                             ids=["pontryagin_classes", "total_pontryagin", "pair"])
    def test_ring_readers_refuse_a_product(self, read):
        m = parse_manifold("prod(cp:2,prod(hp:1,pb:1:[1,0]))")[0]
        assert m.ring is None and m.roots is None and m.integral is None
        with pytest.raises(ValueError, match=re.escape("is a product and has no ring of its own; "
                                                       "its factors are cp:2, hp:1, pb:1:[1,0]")):
            read(m)

    def test_a_product_is_checked_against_its_factors(self):
        cp, hp = build_cp(2), build_hp(1)  # dimension 4 + 4
        for dim, ring, roots, integral in ((8, cp.ring, None, None), (8, None, (), None), (8, None, None, cp.integral),
                                           (10, None, None, None)):
            with pytest.raises(ValueError, match="a product has prime factors, their dimension"):
                ManifoldModel("bad", dim, ring, roots, integral, spin=False, factors=(cp, hp))
        # product() flattens nested products; a hand-built model with a product among its factors is refused
        with pytest.raises(ValueError, match="a product has prime factors"):
            ManifoldModel("nested", 12, None, None, None, spin=False, factors=(cp, product(cp, hp)))
        assert ManifoldModel("good", 8, None, None, None, spin=False, factors=(cp, hp)).factors == (cp, hp)

    def test_parsing_numbers_and_genera_build_only_the_primes(self, monkeypatch):
        # rings the builders ask for, shared or not, and rings built (the builders share one ring
        # per shape, so what ran before decides how many of theirs are built)
        requested, built = [], []
        ring, init = manifolds._shape_ring, RingSpec.__init__

        def counting(r, generators, *args):
            init(r, generators, *args)
            if r.generators != ("q",):  # a q-series ring, built once per q-order
                built.append(r.ngens)

        monkeypatch.setattr(manifolds, "_shape_ring", lambda generators, *args: requested.append(len(generators))
                            or ring(generators, *args))
        monkeypatch.setattr(RingSpec, "__init__", counting)
        m, _ = parse_manifold(EIGHT_GENERATORS)
        assert requested == [2, 2, 2, 2]
        pontryagin_numbers(m)
        signature(m)
        elliptic_q_coefficients(m, 32)
        assert requested == [2, 2, 2, 2]
        assert all(n == 2 for n in built)  # no product ring, on 8 generators

    def test_unknown_attribute_raises(self):
        for m in (build_cp(2), product(build_cp(2), build_hp(1))):
            with pytest.raises(AttributeError, match="no attribute 'missing'"):
                m.missing

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_copy_and_pickle_rebuild_from_the_factors(self, clone):
        m, _ = parse_manifold(EIGHT_GENERATORS)
        c = clone(m)
        assert type(c) is ManifoldModel and c is not m
        assert (c.name, c.real_dimension, c.ring, c.roots, c.integral, c.spin, c.curvature_certificate) == \
            (m.name, m.real_dimension, None, None, None, m.spin, m.curvature_certificate)
        assert [f.name for f in c.factors] == [f.name for f in m.factors]
        assert pontryagin_numbers(c) == pontryagin_numbers(m)
        for genus in (signature, ahat, twisted_ahat_tangent, lambda m: elliptic_q_coefficients(m, 4)):
            assert genus(c) == genus(m)
