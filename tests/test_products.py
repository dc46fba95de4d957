"""Genera of products by multiplicativity.

A genus is a ring homomorphism on the rational cobordism ring, so
phi(M x N) = phi(M) phi(N).  A product model records its prime factors,
and the roots route multiplies their values, while the universal route
reads the Pontryagin numbers of the product ring.  The cross-check then
compares the product ring with its factors: a fault in the product
construction must surface as a ConsistencyError (exit 3 on the CLI),
where it used to pass because both routes read the same ring.

The oracle for the factorwise values is ``genus_on_own_ring`` in
``symmetric_reference``: ``evaluate_at`` on the product's own embedded
roots, paired in the product ring.

A product's Pontryagin numbers are folded from its factors' own numbers
by the Whitney product formula, and its ring is built only when read;
the oracle for the fold is the product ring's own pairing.
"""
import copy
import pickle
import random
import sys
import threading
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
    """Doubling the embedded roots of the second factor of every product
    skews the product ring only; its factors stay right."""

    @pytest.fixture
    def doubled_second_factor(self, monkeypatch):
        original = manifolds._embed
        monkeypatch.setattr(manifolds, "_embed",
                            lambda element, ring, offset: original(element, ring, offset) * (2 if offset else 1))

    @pytest.mark.parametrize("text", ["prod(hp:2,cp:2)", "prod(cp:2,cp:4)"])
    def test_library_raises(self, text, doubled_second_factor):
        m, _ = parse_manifold(text)
        with pytest.raises(ConsistencyError, match="^genus pipelines disagree"):
            signature(m)
        with pytest.raises(ConsistencyError, match="^elliptic genus pipelines disagree"):
            elliptic_q_coefficients(m, 2)

    def test_cli_exits_3(self, capsys, doubled_second_factor):
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
    """A product's ring is built from its prime factors, so both nestings
    of a triple give one ring and every number and genus agrees."""

    @pytest.mark.parametrize("seed", range(12))
    def test_both_nestings_agree(self, seed):
        a, b, c = _random_triple(seed)
        left, right = product(product(a, b), c), product(a, product(b, c))
        assert left.ring == right.ring
        assert left.factors == right.factors == (a, b, c)
        assert pontryagin_numbers(left) == pontryagin_numbers(right)
        for genus in (signature, ahat, twisted_ahat_tangent, lambda m: elliptic_q_coefficients(m, 4)):
            assert genus(left) == genus(right), (left.name, genus)

    def test_eleven_factors_keep_distinct_generator_names(self):
        # with plain digit suffixes the first factor's b1 and the eleventh's b would both be b11
        ring = RingSpec([("b1", 2)], 2, {"b1": (2, {})})
        b1 = ring.gen("b1")
        m = ManifoldModel("hand-built cp:1", 2, ring, ((b1 * b1, 2),), (1,), spin=True)
        for _ in range(10):
            m = product(m, build_cp(1))
        assert m.ring.generators[0] == "b1_1" and m.ring.generators[-1] == "b_11"
        assert len(set(m.ring.generators)) == m.ring.ngens == len(m.factors) == 11
        top = m.ring.one()
        for g in m.ring.generators:
            top = top * m.ring.gen(g)
        assert pair(m, top) == 1


def test_products_with_a_point():
    cp = build_cp(2)
    for m in (product(cp, build_point()), product(build_point(), cp)):
        assert signature(m) == signature(cp) == Fraction(1)
        assert elliptic_q_coefficients(m, 3) == elliptic_q_coefficients(cp, 3)


EIGHT_GENERATORS = "prod(pb:2:[1,-1,2],prod(pb:2:[2,1,-1],prod(pb:2:[1,3,-2],pb:2:[1,0,1])))"


def _ring_numbers(m, partitions):
    """The oracle: the numbers paired in the product ring itself."""
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
    """A product's numbers, folded from its factors, equal those of its ring."""

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


class TestLazyProductRing:
    """product() builds no ring: the ring and its embedded roots are built
    together, from the factors, on first read."""

    def test_numbers_do_not_read_the_product_ring(self, monkeypatch):
        expected = pontryagin_numbers(parse_manifold("prod(hp:2,cp:2)")[0])
        original = manifolds._embed
        monkeypatch.setattr(manifolds, "_embed",
                            lambda element, ring, offset: original(element, ring, offset) * (2 if offset else 1))
        m, _ = parse_manifold("prod(hp:2,cp:2)")
        assert pontryagin_numbers(m) == expected
        partitions = partitions_of(3)
        assert _ring_numbers(m, partitions) != pontryagin_products(m, partitions)

    def test_parsing_and_numbers_build_only_the_primes(self, monkeypatch):
        built = []
        original = RingSpec.__init__

        def counting(ring, *args, **kwargs):
            original(ring, *args, **kwargs)
            built.append(ring.ngens)

        monkeypatch.setattr(RingSpec, "__init__", counting)
        m, _ = parse_manifold(EIGHT_GENERATORS)
        assert built == [2, 2, 2, 2]
        pontryagin_numbers(m)
        assert built == [2, 2, 2, 2]
        assert m.ring.ngens == 8 and built == [2, 2, 2, 2, 8]

    def test_ring_and_roots_come_from_one_build(self):
        m = product(build_cp(2), build_hp(1))
        roots = m.roots  # read before the ring
        assert m.roots is roots and all(t.ring is m.ring for t, _ in roots)

    def test_threads_see_one_build(self):
        # each product is fresh, so the threads race to build and store its ring and roots
        products = [product(build_cp(2), product(build_hp(1), build_cp(2))) for _ in range(12)]
        seen, errors = [], []

        def work(worker):
            try:
                for m in products:
                    if worker % 2:  # half the threads read the roots first
                        roots, ring = m.roots, m.ring
                    else:
                        ring, roots = m.ring, m.roots
                    seen.append((m, ring, roots))
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
        assert errors == [] and len(seen) == 8 * len(products)
        for m, ring, roots in seen:
            assert ring is m.ring and roots is m.roots
            assert all(t.ring is ring for t, _ in roots)

    def test_unknown_attribute_raises(self):
        for m in (build_cp(2), product(build_cp(2), build_hp(1))):
            with pytest.raises(AttributeError, match="no attribute 'missing'"):
                m.missing

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))])
    def test_copy_and_pickle_an_unread_product(self, clone):
        m, _ = parse_manifold("prod(cp:2,prod(hp:1,pb:1:[1,0]))")
        with pytest.raises(AttributeError):  # the slot is still unset
            object.__getattribute__(m, "ring")
        c = clone(m)
        assert (c.name, c.real_dimension, c.pairing_exponents, c.spin, c.curvature_certificate) == \
            (m.name, m.real_dimension, m.pairing_exponents, m.spin, m.curvature_certificate)
        assert [f.name for f in c.factors] == [f.name for f in m.factors]
        assert c.ring == m.ring
        assert pontryagin_numbers(c) == pontryagin_numbers(m)
        assert signature(c) == signature(m)
