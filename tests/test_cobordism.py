"""Partition-indexed characteristic numbers, the projective-space
basis, genus functionals, elliptic spans, family polynomials, and the
boundedness/distinctness engines.

Oracles:
  * closed-form polynomials for all Pontryagin numbers of the three
    bundle families (frozen below and checked as exact polynomial
    identities in the parameter via interpolation);
  * product characteristic numbers derived in-test from bilinearity
    (splitting the pairing across the two factors) rather than frozen
    blindly;
  * classical L/A-hat functional coefficients (cross-checked in
    test_genera against sympy).
"""
import random
from fractions import Fraction
from functools import reduce

import pytest

from ellcob.algebra import RationalMatrix
from ellcob.cobordism import (
    CharNumberVector,
    FamilySpec,
    Functional,
    Partition,
    basis_manifolds,
    designated_families,
    distinct_cobordism_types,
    elliptic_span,
    family_polynomial,
    genus_as_functional,
    partitions_of,
    pontryagin_numbers,
    span_membership,
    standard_family,
    unbounded_verdict,
    x12,
    y16,
    z20,
)
from ellcob.errors import ConsistencyError
from ellcob.genera import ahat, elliptic_q_coefficients, signature
from ellcob.manifolds import build_cp, build_hp, build_point, product

F = Fraction


def poly(*coeffs: int) -> list[Fraction]:
    """Ascending-degree coefficient list with trailing zeros trimmed."""
    out = [F(c) for c in coeffs]
    while len(out) > 1 and not out[-1]:
        out.pop()
    return out


class TestPartitions:
    def test_counts(self):
        for k, count in [(1, 1), (2, 2), (3, 3), (4, 5), (5, 7), (6, 11), (7, 15)]:
            assert len(partitions_of(k)) == count, k

    def test_keys_dimension_12(self):
        assert [I.key() for I in partitions_of(3)] == ["p1^3", "p1*p2", "p3"]

    def test_keys_dimension_20(self):
        assert [I.key() for I in partitions_of(5)] == [
            "p1^5", "p1^3*p2", "p1*p2^2", "p1^2*p3", "p2*p3", "p1*p4", "p5",
        ]

    def test_canonical_ordering(self):
        assert Partition((1, 2)) == Partition((2, 1)) == (2, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            Partition((0, 1))
        with pytest.raises(ValueError):
            partitions_of(-1)

    def test_weight(self):
        assert Partition((3, 2, 1)).weight == 6


class TestPontryaginNumbers:
    def test_bundle_12_frozen(self):
        # closed forms: p1^3 = -8c^3, p1*p2 = -6c^3, p3 = -c^3
        for c in (-3, -1, 1, 2, 3):
            v = pontryagin_numbers(x12(c))
            assert v.get(Partition((1, 1, 1))) == F(-8 * c ** 3)
            assert v.get(Partition((2, 1))) == F(-6 * c ** 3)
            assert v.get(Partition((3,))) == F(-c ** 3)

    def test_bundle_16_frozen_at_one(self):
        v = pontryagin_numbers(y16(1))
        expected = {
            "p1^4": 52224, "p1^2*p2": 27264, "p1*p3": 4704, "p2^2": 11520, "p4": 288,
        }
        assert {I.key(): v.get(I) for I in partitions_of(4)} == {
            k: F(n) for k, n in expected.items()
        }

    def test_bundle_20_frozen_at_one(self):
        v = pontryagin_numbers(z20(1))
        expected = {
            "p1^5": -7232, "p1^3*p2": -3950, "p1*p2^2": -2099, "p1^2*p3": -1305,
            "p2*p3": -679, "p1*p4": -256, "p5": -28,
        }
        assert {I.key(): v.get(I) for I in partitions_of(5)} == {
            k: F(n) for k, n in expected.items()
        }

    def test_vector_complete_and_integral(self):
        models = [
            build_cp(4), build_hp(2), x12(3), y16(-2),
            product(build_cp(2), build_hp(2)),
        ]
        for m in models:
            v = pontryagin_numbers(m)
            keys = set(v.values)
            assert keys == set(partitions_of(m.real_dimension // 4)), m.name
            assert all(x.denominator == 1 for x in v.values.values()), m.name

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            pontryagin_numbers(build_cp(3))

    def test_vector_row_and_repr(self):
        # the repr is what the benchmark's reference digests were taken of
        v = pontryagin_numbers(x12(2))
        assert v.row == (-64, -48, -8) and v.as_row() == [F(-64), F(-48), F(-8)]
        assert v.get((1, 2)) == F(-48) and v.get((4,)) == 0
        assert repr(v) == (
            "CharNumberVector(dimension=12, values={(1, 1, 1): Fraction(-64, 1), "
            "(2, 1): Fraction(-48, 1), (3,): Fraction(-8, 1)})"
        )


class TestBasis:
    def test_small_dimensions(self):
        assert [m.name for m in basis_manifolds(4)] == ["cp:2"]
        names8 = [m.name for m in basis_manifolds(8)]
        assert names8 == ["prod(cp:2,cp:2)", "cp:4"]
        assert len(basis_manifolds(12)) == 3
        assert len(basis_manifolds(20)) == 7

    def test_rank_is_full(self):
        for dim in (4, 8, 12, 16):
            ms = basis_manifolds(dim)
            rows = [pontryagin_numbers(m).as_row() for m in ms]
            assert RationalMatrix(rows).rank() == len(ms)

    def test_bad_dimension_rejected(self):
        for dim in (0, 6, -4):
            with pytest.raises(ValueError, match="positive dimensions divisible by 4"):
                basis_manifolds(dim)
            with pytest.raises(ValueError, match="positive dimensions divisible by 4"):
                genus_as_functional(signature, dim)


class TestGenusFunctionals:
    def test_signature_dim4(self):
        f = genus_as_functional(signature, 4)
        assert f.coefficients == {Partition((1,)): F(1, 3)}

    def test_ahat_dim4(self):
        f = genus_as_functional(ahat, 4)
        assert f.coefficients == {Partition((1,)): F(-1, 24)}

    def test_signature_dim12_is_l3(self):
        f = genus_as_functional(signature, 12)
        assert f.coefficients == {
            Partition((3,)): F(62, 945),
            Partition((2, 1)): F(-13, 945),
            Partition((1, 1, 1)): F(2, 945),
        }

    def test_round_trip_on_products(self):
        # the functional recomputes the genus on manifolds far from the basis solve
        f12 = genus_as_functional(signature, 12)
        a12 = genus_as_functional(ahat, 12)
        samples = [
            product(build_cp(2), build_hp(2)),
            product(build_hp(1), build_hp(2)),
            product(build_cp(2), product(build_cp(2), build_cp(2))),
            x12(1), x12(2), x12(-2),
        ]
        for m in samples:
            v = pontryagin_numbers(m)
            assert f12.evaluate(v) == signature(m), m.name
            assert a12.evaluate(v) == ahat(m), m.name

    def test_functional_weight_validation(self):
        with pytest.raises(ValueError):
            Functional(12, {Partition((2,)): F(1)})

    def test_from_polynomial_refuses_a_term_of_another_weight(self):
        with pytest.raises(ValueError, match="^p1 has weight 1, dimension 12 needs 3$"):
            Functional.from_polynomial(12, {(1,): 5, (3,): 1})

    def test_from_polynomial_keeps_the_partition_order(self):
        f = Functional.from_polynomial(12, {(3,): F(-8), (2, 1): 0, (1, 1, 1): F(1, 2)})
        assert list(f.coefficients) == [(1, 1, 1), (3,)]
        assert f == Functional(12, {(1, 1, 1): F(1, 2), (3,): F(-8)})

    @pytest.mark.parametrize("dimension,error", [
        (4.0, TypeError), (F(4), TypeError), ("4", TypeError),
        (5, ValueError), (-4, ValueError), (2, ValueError),
    ])
    def test_functional_dimension_is_a_nonnegative_multiple_of_4(self, dimension, error):
        with pytest.raises(error):
            Functional(dimension, {})
        if error is ValueError:
            with pytest.raises(ValueError, match="divisible by 4"):
                Functional(dimension, {Partition((1,)): 1})

    def test_functional_in_dimension_0_pairs_with_a_point(self):
        f = Functional(0, {Partition(()): F(3)})
        assert f.evaluate(pontryagin_numbers(build_point())) == 3

    @pytest.mark.parametrize("name", ["X12", "Y16", "Z20"])
    def test_evaluate_is_the_sum_of_coefficient_times_number(self, name):
        fam = standard_family(name)
        rng = random.Random(name)
        choices = [0, 0, 1, -3, F(2, 7), F(-5, 3), F(10 ** 20 + 1, 3)]
        for c in range(-2, 3):
            vec = pontryagin_numbers(fam.build(c))
            for _ in range(4):
                coefficients = {I: rng.choice(choices) for I in partitions_of(fam.dimension // 4)}
                value = Functional(fam.dimension, coefficients).evaluate(vec)
                assert type(value) is Fraction
                assert value == sum((F(a) * vec.get(I) for I, a in coefficients.items()), F(0))

    def test_evaluate_dimension_mismatch(self):
        f = Functional(12, {Partition((3,)): F(1)})
        with pytest.raises(ValueError):
            f.evaluate(pontryagin_numbers(build_cp(2)))

    def test_expression_round_trip_format(self):
        f = Functional(12, {Partition((3,)): F(-8), Partition((1, 1, 1)): F(1, 2)})
        assert f.to_expression() == "1/2*p1^3 - 8*p3"

    @pytest.mark.parametrize("coefficients,text", [
        ({Partition((3,)): F(0)}, "0*p3"),
        ({Partition((1, 1, 1)): F(-1), Partition((2, 1)): F(3), Partition((3,)): F(-1, 3)},
         "-p1^3 + 3*p1*p2 - 1/3*p3"),
    ], ids=["zero", "negative_leading"])
    def test_expression_signs(self, coefficients, text):
        assert Functional(12, coefficients).to_expression() == text


class TestEllipticSpan:
    def test_ranks(self):
        assert elliptic_span(12, 3)[1] == 2
        assert elliptic_span(16, 4)[1] == 3
        assert elliptic_span(20, 5)[1] == 3

    def test_rank_stabilizes(self):
        assert elliptic_span(12, 4)[1] == 2
        assert elliptic_span(16, 5)[1] == 3
        assert elliptic_span(20, 6)[1] == 3

    def test_rank_nondecreasing_in_order(self):
        ranks = [elliptic_span(12, n)[1] for n in range(5)]
        assert ranks == sorted(ranks)
        assert ranks[0] == 1  # order 0 alone: the A-hat functional

    def test_zeroth_functional_is_ahat(self):
        for dim in (12, 16):
            fns, _ = elliptic_span(dim, dim // 4)
            assert fns[0].as_row() == genus_as_functional(ahat, dim).as_row()

    def test_membership(self):
        span12, _ = elliptic_span(12, 3)
        assert span_membership(genus_as_functional(signature, 12), span12)
        assert span_membership(genus_as_functional(ahat, 12), span12)
        assert not span_membership(Functional(12, {Partition((3,)): F(1)}), span12)
        assert span_membership(Functional(12, {}), span12)

    def test_membership_dimension_mismatch(self):
        span12, _ = elliptic_span(12, 3)
        with pytest.raises(ValueError):
            span_membership(Functional(16, {Partition((4,)): F(1)}), span12)

    def test_membership_in_empty_span(self):
        assert span_membership(Functional(12, {}), [])
        assert not span_membership(Functional(12, {Partition((3,)): F(1)}), [])

    def test_membership_agrees_with_rank_criterion(self):
        # f lies in the span exactly when adding it leaves the rank unchanged;
        # spans mix the elliptic functionals, rational combinations of them
        # (dependent rows) and random rows
        rng = random.Random(0)

        def ratio():
            return F(rng.randint(-6, 6), rng.randint(1, 5))

        seen = set()
        for _ in range(60):
            dim = rng.choice([12, 16, 20])
            elliptic, _ = elliptic_span(dim, dim // 4)
            rows = [g.as_row() for g in elliptic]
            rows += [[sum((ratio() * r[i] for r in rows), F(0)) for i in range(len(rows[0]))]
                     for _ in range(rng.randint(0, 3))]
            rows += [[ratio() for _ in rows[0]] for _ in range(rng.randint(0, 1))]
            rng.shuffle(rows)
            if rng.random() < 0.5:  # a combination of the rows: inside
                f_row = [sum((ratio() * r[i] for r in rows), F(0)) for i in range(len(rows[0]))]
            else:
                f_row = [ratio() for _ in rows[0]]
            k = dim // 4
            span = [Functional(dim, dict(zip(partitions_of(k), r))) for r in rows]
            f = Functional(dim, dict(zip(partitions_of(k), f_row)))
            expected = RationalMatrix(rows).rank() == RationalMatrix(rows + [f_row]).rank()
            assert span_membership(f, span) == expected, (dim, rows, f_row)
            seen.add(expected)
        assert seen == {True, False}

    def test_ranks_through_dimension_32(self):
        # the rank of the span at q-order k + 4 is floor(k/2) + 1, k = dim/4
        ranks = [elliptic_span(dim, dim // 4 + 4)[1] for dim in range(12, 33, 4)]
        assert ranks == [2, 3, 3, 4, 4, 5]


def raw_family(name: str, dim: int, builder, max_degree: int) -> FamilySpec:
    return FamilySpec(name, dim, builder, "c -> c", max_degree)


class TestFamilyPolynomials:
    def test_bundle_12_closed_forms(self):
        fam = raw_family("raw12", 12, x12, 3)
        expected = {
            (1, 1, 1): poly(0, 0, 0, -8),
            (2, 1): poly(0, 0, 0, -6),
            (3,): poly(0, 0, 0, -1),
        }
        for parts, want in expected.items():
            f = Functional(12, {Partition(parts): F(1)})
            assert family_polynomial(fam, f) == want, parts

    def test_bundle_16_closed_forms(self):
        fam = raw_family("raw16", 16, y16, 5)
        expected = {
            (1, 1, 1, 1): poly(0, 0, 0, 9216, 0, 43008),
            (2, 1, 1): poly(0, 0, 0, 5760, 0, 21504),
            (3, 1): poly(0, 0, 0, 2016, 0, 2688),
            (2, 2): poly(0, 0, 0, 3456, 0, 8064),
            (4,): poly(0, 0, 0, 288),
        }
        for parts, want in expected.items():
            f = Functional(16, {Partition(parts): F(1)})
            assert family_polynomial(fam, f) == want, parts

    def test_bundle_20_closed_forms(self):
        fam = raw_family("raw20", 20, z20, 7)
        expected = {
            (1, 1, 1, 1, 1): poly(0, 0, 0, -5120, 0, -1920, 0, -192),
            (2, 1, 1, 1): poly(0, 0, 0, -2912, 0, -960, 0, -78),
            (2, 2, 1): poly(0, 0, 0, -1616, 0, -456, 0, -27),
            (3, 1, 1): poly(0, 0, 0, -1056, 0, -240, 0, -9),
            (3, 2): poly(0, 0, 0, -580, 0, -96, 0, -3),
            (4, 1): poly(0, 0, 0, -232, 0, -24),
            (5,): poly(0, 0, 0, -28),
        }
        for parts, want in expected.items():
            f = Functional(20, {Partition(parts): F(1)})
            assert family_polynomial(fam, f) == want, parts

    def test_doubled_families_rescale(self):
        # the spin families substitute c -> 2c; degree-j coefficients scale by 2^j
        fam = standard_family("X12")
        f = Functional(12, {Partition((3,)): F(1)})
        assert family_polynomial(fam, f) == poly(0, 0, 0, -8)  # -(2c)^3 = -8c^3

    def test_product_family_rows_by_bilinearity(self):
        """Characteristic numbers of (12-bundle x HP^2) follow from the
        12-dimensional rows and the HP^2 numbers p1^2 = 4, p2 = 7 by
        splitting each product class across the two factors:

          p5       -> p3[X]*p2[H]
          p1*p4    -> p3[X]*p1^2[H] + p1p2[X]*p2[H]
          p2*p3    -> p3[X]*p2[H] + p1p2[X]*(p1^2[H] + p2[H])
          p1^2*p3  -> p3[X]*p1^2[H] + 2*p1p2[X]*p1^2[H] + p1^3[X]*p2[H]
        """
        p13, p1p2, p3 = F(-8), F(-6), F(-1)  # per c^3 of the 12-dim member
        h11, h2 = F(4), F(7)
        per_c3 = {
            (5,): p3 * h2,
            (4, 1): p3 * h11 + p1p2 * h2,
            (3, 2): p3 * h2 + p1p2 * (h11 + h2),
            (3, 1, 1): p3 * h11 + 2 * p1p2 * h11 + p13 * h2,
        }
        assert per_c3 == {
            (5,): F(-7), (4, 1): F(-46), (3, 2): F(-73), (3, 1, 1): F(-108),
        }
        fam = standard_family("X12xHP:2")  # doubled: c^3 coefficient scales by 8
        for parts, value in per_c3.items():
            f = Functional(20, {Partition(parts): F(1)})
            assert family_polynomial(fam, f) == poly(0, 0, 0, 8 * value), parts

    def test_dimension_mismatch_rejected(self):
        fam = standard_family("X12")
        with pytest.raises(ValueError):
            family_polynomial(fam, Functional(16, {Partition((4,)): F(1)}))

    def test_family_beyond_its_degree_fails(self):
        # c -> 2^c is no polynomial; the extra sample at c = max_degree + 2 catches it
        steep = FamilySpec("steep", 12, lambda c: x12(2 ** c), "c -> 2^c", 3)
        p3 = Functional(12, {Partition((3,)): F(1)})
        with pytest.raises(ConsistencyError, match="steep is not polynomial of degree <= 3"):
            family_polynomial(steep, p3)

    def test_declared_degree_is_checked(self):
        # X12 doubled gives -8c^3 under p3: degree 3 is accepted, degree 2 is not
        p3 = Functional(12, {Partition((3,)): F(1)})
        assert family_polynomial(FamilySpec("X12", 12, lambda c: x12(2 * c), "c -> 2c", 3), p3) == poly(0, 0, 0, -8)
        with pytest.raises(ConsistencyError, match="X12 is not polynomial of degree <= 2"):
            family_polynomial(FamilySpec("X12", 12, lambda c: x12(2 * c), "c -> 2c", 2), p3)

    def test_wrong_builder_dimension_fails(self):
        fam = FamilySpec("broken", 12, lambda c: build_cp(4), "c -> c", 1)
        with pytest.raises(ConsistencyError):
            fam.build(1)

    @pytest.mark.parametrize("dimension,max_degree,error,match", [
        (16.0, 5, TypeError, None), (F(16), 5, TypeError, None), ("16", 5, TypeError, None),
        (16, 5.0, TypeError, None), (16, F(5), TypeError, None), (16, None, TypeError, None),
        (18, 5, ValueError, "divisible by 4, not 18"), (-4, 5, ValueError, "divisible by 4, not -4"),
        (10 ** 300 + 2, 5, ValueError, "divisible by 4, not '"), (16, -1, ValueError, "max_degree, not -1"),
    ], ids=["float_dim", "fraction_dim", "str_dim", "float_degree", "fraction_degree", "none_degree",
            "dim_18", "negative_dim", "huge_dim_quoted", "negative_degree"])
    def test_family_integers_are_checked(self, dimension, max_degree, error, match):
        with pytest.raises(error, match=match):
            FamilySpec("Y16", dimension, y16, "c -> c", max_degree)

    def test_family_integers_are_read_exactly(self):
        class Sixteen:
            def __index__(self):
                return 16

        spec = FamilySpec("Y16", Sixteen(), y16, "c -> c", True)
        assert (type(spec.dimension), spec.dimension, type(spec.max_degree), spec.max_degree) == (int, 16, int, 1)
        assert spec == FamilySpec("Y16", 16, y16, "c -> c", 1)

    def test_degree_0_family_is_valid_and_checked(self):
        p4 = Functional(16, {Partition((4,)): F(1)})
        with pytest.raises(ConsistencyError, match="Y16 is not polynomial of degree <= 0"):
            family_polynomial(FamilySpec("Y16", 16, y16, "c -> c", 0), p4)


STANDARD_FAMILIES = ("X12", "Y16", "Z20", "X12xHP:1", "X12xHP:2", "X12xHP:3")


def vandermonde_family_polynomial(fam: FamilySpec, f: Functional, vectors) -> list[Fraction]:
    """The fit family_polynomial replaced: f on the full Pontryagin vectors at
    c = 1..d+1, a Vandermonde solve, then the prediction checked at c = d+2."""
    d = fam.max_degree
    values = [f.evaluate(v) for v in vectors]
    coeffs = RationalMatrix([[F(c) ** j for j in range(d + 1)] for c in range(1, d + 2)]).solve(values[:-1])
    assert sum(a * F(d + 2) ** j for j, a in enumerate(coeffs)) == values[-1]
    return poly(*coeffs)


def seeded_functionals(dim: int, seed: int) -> list[Functional]:
    rng = random.Random(f"family-route/{dim}/{seed}")
    parts = partitions_of(dim // 4)
    out = []
    for _ in range(4):
        picks = rng.sample(parts, rng.randint(1, len(parts)))
        out.append(Functional(dim, {I: F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 6)) for I in picks}))
    return out


class TestFamilyPolynomialRoutes:
    @pytest.mark.parametrize("name", STANDARD_FAMILIES)
    def test_matches_the_vandermonde_route(self, name):
        fam = standard_family(name)
        vectors = [pontryagin_numbers(fam.build(c)) for c in range(1, fam.max_degree + 3)]
        singles = [Functional(fam.dimension, {I: F(1)}) for I in partitions_of(fam.dimension // 4)]
        functionals = singles + seeded_functionals(fam.dimension, 0) + [Functional(fam.dimension, {})]
        for f in functionals:
            assert family_polynomial(fam, f) == vandermonde_family_polynomial(fam, f, vectors), f.to_expression()
        assert family_polynomial(fam, functionals[-1]) == [F(0)]

    def test_only_the_last_sample_deviating_fails(self):
        # -8c^3 at c = 1..4 and anything else at c = 5: the degree-3 fit is
        # exact on the first four samples, so only the check sample can catch it
        fam = FamilySpec("kinked", 12, lambda c: x12(2 * c if c < 5 else 2 * c + 1), "c -> 2c", 3)
        p3 = Functional(12, {Partition((3,)): F(1)})
        with pytest.raises(ConsistencyError, match="kinked is not polynomial of degree <= 3"):
            family_polynomial(fam, p3)


class TestVerdicts:
    def test_p3_unbounded_in_dim_12(self):
        f = Functional(12, {Partition((3,)): F(1)})
        result = unbounded_verdict(f, designated_families(12))
        assert result.unbounded and result.witness == "X12"
        assert list(result.polynomial) == poly(0, 0, 0, -8)

    def test_signature_bounded_in_dim_12(self):
        result = unbounded_verdict(
            genus_as_functional(signature, 12), designated_families(12)
        )
        assert not result.unbounded
        assert all(coeffs == (F(0),) for coeffs in result.per_family.values())

    def test_dim16_pair_combinations_unbounded(self):
        # f = a*p1^4 + b*p4 evaluates on the 16-family to
        # c^3 * (768*(12 + 56c^2)*a + 288*b)
        for a, b in [(1, 0), (0, 1), (1, -32), (-2, 5), (1, 1)]:
            f = Functional(16, {
                Partition((1, 1, 1, 1)): F(a), Partition((4,)): F(b),
            })
            result = unbounded_verdict(f, designated_families(16))
            assert result.unbounded, (a, b)
            assert list(result.polynomial) == poly(
                0, 0, 0, 9216 * a + 288 * b, 0, 43008 * a
            ), (a, b)

    def test_dim20_lambda_system_has_zero_joint_kernel(self):
        """Requiring boundedness on both designated 20-dimensional
        families forces every coefficient on the four partitions
        p1^2*p3, p2*p3, p1*p4, p5 to vanish: the matrix of polynomial
        coefficients has full column rank 4."""
        partitions = [(3, 1, 1), (3, 2), (4, 1), (5,)]
        columns = []
        for parts in partitions:
            f = Functional(20, {Partition(parts): F(1)})
            column: list[Fraction] = []
            for fam in designated_families(20):
                coeffs = family_polynomial(fam, f)
                coeffs = coeffs + [F(0)] * (8 - len(coeffs))
                column.extend(coeffs)
            columns.append(column)
        rows = [list(row) for row in zip(*columns)]
        assert RationalMatrix(rows).rank() == 4

    def test_elliptic_span_functionals_bounded_on_families(self):
        # anything inside the span vanishes identically along every family
        for dim in (12, 16, 20):
            span, _ = elliptic_span(dim, dim // 4)
            for j, f in enumerate(span):
                result = unbounded_verdict(f, designated_families(dim))
                assert not result.unbounded, (dim, j)
                assert all(
                    coeffs == (F(0),) for coeffs in result.per_family.values()
                ), (dim, j)

    def test_dimension_mismatch_rejected(self):
        f = Functional(16, {Partition((4,)): F(1)})
        with pytest.raises(ValueError):
            unbounded_verdict(f, designated_families(12))

    def test_witness_is_first_unbounded_family(self):
        f = Functional(12, {Partition((3,)): F(1)})  # -c^3 on x12(c)
        constant = raw_family("constant", 12, lambda c: x12(1), 3)
        plain = raw_family("plain", 12, x12, 3)
        doubled = raw_family("doubled", 12, lambda c: x12(2 * c), 3)
        for families, witness, polynomial in [
            ([constant, plain], "plain", poly(0, 0, 0, -1)),
            ([plain, constant], "plain", poly(0, 0, 0, -1)),
            ([plain, doubled], "plain", poly(0, 0, 0, -1)),
            ([doubled, plain], "doubled", poly(0, 0, 0, -8)),
        ]:
            result = unbounded_verdict(f, families)
            assert result.unbounded and result.witness == witness
            assert list(result.polynomial) == polynomial
            assert list(result.per_family) == [fam.name for fam in families]
        result = unbounded_verdict(f, [constant])
        assert not result.unbounded and result.witness is None and result.polynomial is None
        assert result.per_family == {"constant": (F(-1),)}


class TestDistinctness:
    def test_bundle_12_members_distinct(self):
        result = distinct_cobordism_types(standard_family("X12"), [1, 2, 3, 4, 5])
        assert result.distinct and not result.collisions
        assert all(I.weight == 3 for I in result.separators.values())

    def test_bundle_16_members_distinct(self):
        result = distinct_cobordism_types(standard_family("Y16"), [1, 2, 3, 4, 5])
        assert result.distinct

    def test_product_families_distinct(self):
        for n in (2, 3):
            fam = standard_family(f"X12xHP:{n}")
            result = distinct_cobordism_types(fam, [1, 2, 3])
            assert result.distinct, n

    def test_constant_family_collides(self):
        cube = product(build_cp(2), product(build_cp(2), build_cp(2)))
        fam = FamilySpec("const", 12, lambda c: cube, "c -> c", 0)
        result = distinct_cobordism_types(fam, [1, 2, 3])
        assert not result.distinct
        assert set(result.collisions) == {(1, 2), (1, 3), (2, 3)}

    def test_views_and_repr(self):
        # one separator per pair of the sorted parameters; the repr is what
        # the benchmark's reference digests were taken of
        x = distinct_cobordism_types(standard_family("X12"), [2, 0, 1])
        assert x.params == (0, 1, 2) and x.pair_separators == (Partition((1, 1, 1)),) * 3
        assert repr(x) == (
            "DistinctnessResult(distinct=True, separators={(0, 1): (1, 1, 1), (0, 2): (1, 1, 1), "
            "(1, 2): (1, 1, 1)}, collisions=())"
        )
        mixed = FamilySpec("mixed", 12, lambda c: x12(2 * min(c, 1)), "c -> c", 3)
        result = distinct_cobordism_types(mixed, [0, 1, 2])
        assert result.separators == {(0, 1): Partition((1, 1, 1)), (0, 2): Partition((1, 1, 1))}
        assert result.collisions == ((1, 2),) and not result.distinct

    @pytest.mark.parametrize("params", [[1, 1, 2], [1, 2, 1]])
    def test_repeated_parameters_are_refused(self, params):
        # a member is not a second family member cobordant to itself
        with pytest.raises(ValueError, match="family parameters must be distinct"):
            distinct_cobordism_types(standard_family("X12"), params)


class TestStandardFamilies:
    def test_known_names(self):
        assert standard_family("X12").dimension == 12
        assert standard_family("Y16").dimension == 16
        assert standard_family("Z20").dimension == 20
        assert standard_family("X12xHP:3").dimension == 24

    def test_spin_members(self):
        assert standard_family("X12").build(3).spin
        assert standard_family("Y16").build(3).spin
        assert standard_family("Z20").build(1).spin
        assert standard_family("X12xHP:2").build(2).spin

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            standard_family("W24")
        with pytest.raises(ValueError):
            standard_family("X12xHP:0")
        with pytest.raises(ValueError):
            standard_family("X12xHP:x")

    def test_designated_families_per_dimension(self):
        assert [f.name for f in designated_families(12)] == ["X12"]
        assert [f.name for f in designated_families(16)] == ["Y16"]
        assert [f.name for f in designated_families(20)] == ["Z20", "X12xHP:2"]
        with pytest.raises(ValueError):
            designated_families(24)


class TestEllipticVanishingOnFamilies:
    def test_all_three_families_vanish(self):
        for member in (x12(2), x12(4), y16(1), y16(2), z20(2)):
            coeffs = elliptic_q_coefficients(member, 3)
            assert coeffs == [F(0)] * 4, member.name

    def test_product_member_vanishes(self):
        m = product(x12(2), build_hp(2))
        assert elliptic_q_coefficients(m, 3) == [F(0)] * 4
