"""Acceptance gate: the ten end-to-end checks this artifact must pass.

Every comparison is exact (tolerance 0) — the pipeline is rational
arithmetic throughout, so there is nothing to round.  Each criterion
prints one `[ACCEPTANCE] criterion N: PASS|FAIL` line; a FAIL line is
always accompanied by the assertion error itself.
"""
import contextlib
from fractions import Fraction

from ellcob.algebra import RationalMatrix
from ellcob.cobordism import (
    Functional,
    Partition,
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
from ellcob.genera import (
    _elliptic_sequence,
    _roots_route,
    _universal_route,
    ahat,
    elliptic_q_coefficients,
    signature,
)
from ellcob.manifolds import (
    build_cp,
    build_hp,
    is_spin,
    product,
)

F = Fraction


@contextlib.contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[ACCEPTANCE] criterion {number}: FAIL — {label}")
        raise
    print(f"[ACCEPTANCE] criterion {number}: PASS — {label}")


def test_criterion_01_twelve_dimensional_numbers():
    with criterion(1, "12-dim bundle Pontryagin numbers match closed forms"):
        for c in range(-3, 4):
            v = pontryagin_numbers(x12(c))
            assert v.get(Partition((1, 1, 1))) == F(-8 * c ** 3)
            assert v.get(Partition((2, 1))) == F(-6 * c ** 3)
            assert v.get(Partition((3,))) == F(-c ** 3)


def test_criterion_02_sixteen_dimensional_numbers():
    with criterion(2, "16-dim bundle Pontryagin numbers match closed forms"):
        for c in range(-2, 3):
            v = pontryagin_numbers(y16(c))
            c3 = c ** 3
            assert v.get(Partition((1, 1, 1, 1))) == F(768 * c3 * (12 + 56 * c * c))
            assert v.get(Partition((2, 1, 1))) == F(384 * c3 * (15 + 56 * c * c))
            assert v.get(Partition((3, 1))) == F(48 * c3 * (42 + 56 * c * c))
            assert v.get(Partition((2, 2))) == F(144 * c3 * (24 + 56 * c * c))
            assert v.get(Partition((4,))) == F(288 * c3)


def test_criterion_03_twenty_dimensional_numbers():
    with criterion(3, "20-dim bundle Pontryagin numbers match closed forms"):
        for c in range(-2, 3):
            v = pontryagin_numbers(z20(c))
            c2, c3, c4 = c * c, c ** 3, c ** 4
            assert v.get(Partition((1, 1, 1, 1, 1))) == F(-64 * c3 * (3 * c4 + 30 * c2 + 80))
            assert v.get(Partition((2, 1, 1, 1))) == F(-2 * c3 * (39 * c4 + 480 * c2 + 1456))
            assert v.get(Partition((3, 1, 1))) == F(-3 * c3 * (3 * c4 + 80 * c2 + 352))
            assert v.get(Partition((2, 2, 1))) == F(-c3 * (27 * c4 + 456 * c2 + 1616))
            assert v.get(Partition((4, 1))) == F(-8 * c3 * (3 * c2 + 29))
            assert v.get(Partition((3, 2))) == F(-c3 * (3 * c4 + 96 * c2 + 580))
            assert v.get(Partition((5,))) == F(-28 * c3)


def test_criterion_04_spin_parities():
    with criterion(4, "spin criteria across the three families"):
        for c in range(-4, 5):
            assert is_spin(x12(c)) == (c % 2 == 0), ("12-dim", c)
            assert is_spin(y16(c)), ("16-dim", c)
            assert is_spin(z20(c)) == (c % 2 == 0), ("20-dim", c)


def test_criterion_05_elliptic_vanishing():
    with criterion(5, "elliptic genus vanishes on all spin family members"):
        zero4 = [F(0)] * 4
        for c in (1, 2, 3):
            assert elliptic_q_coefficients(x12(2 * c), 3) == zero4, ("12-dim", c)
            assert elliptic_q_coefficients(y16(c), 3) == zero4, ("16-dim", c)
            assert elliptic_q_coefficients(z20(2 * c), 3) == zero4, ("20-dim", c)
        assert elliptic_q_coefficients(product(x12(2), build_hp(2)), 3) == zero4


def test_criterion_06_span_ranks():
    with criterion(6, "elliptic-coefficient span ranks are 2, 3, 3"):
        assert elliptic_span(12, 3)[1] == 2
        assert elliptic_span(16, 4)[1] == 3
        assert elliptic_span(20, 5)[1] == 3


def test_criterion_07_unboundedness_engine():
    with criterion(7, "membership + boundedness reproduce the three arguments"):
        # dimension 12: p3 is outside the span and unbounded, -8c^3
        span12, _ = elliptic_span(12, 3)
        p3 = Functional(12, {Partition((3,)): F(1)})
        assert not span_membership(p3, span12)
        verdict12 = unbounded_verdict(p3, designated_families(12))
        assert verdict12.unbounded and verdict12.witness == "X12"
        assert list(verdict12.polynomial) == [F(0), F(0), F(0), F(-8)]

        # dimension 16: every nonzero (a, b) combination of p1^4 and p4
        # is unbounded with polynomial c^3 (768(12 + 56c^2) a + 288 b)
        for a, b in [(1, 0), (0, 1), (1, -32), (3, 7), (-1, 4)]:
            f = Functional(16, {
                Partition((1, 1, 1, 1)): F(a), Partition((4,)): F(b),
            })
            result = unbounded_verdict(f, designated_families(16))
            assert result.unbounded, (a, b)
            expected = [F(0), F(0), F(0), F(9216 * a + 288 * b), F(0), F(43008 * a)]
            while len(expected) > 1 and not expected[-1]:
                expected.pop()
            assert list(result.polynomial) == expected, (a, b)

        # dimension 20: boundedness on both designated families forces the
        # coefficients of p1^2*p3, p2*p3, p1*p4, p5 all to zero — the
        # stacked polynomial-coefficient matrix has full column rank.
        columns = []
        for parts in [(3, 1, 1), (3, 2), (4, 1), (5,)]:
            f = Functional(20, {Partition(parts): F(1)})
            column = []
            for fam in designated_families(20):
                coeffs = family_polynomial(fam, f)
                column.extend(coeffs + [F(0)] * (8 - len(coeffs)))
            columns.append(column)
        rows = [list(r) for r in zip(*columns)]
        assert RationalMatrix(rows).rank() == 4


def test_criterion_08_distinct_cobordism_types():
    with criterion(8, "family members are pairwise non-cobordant"):
        for name in ("X12", "Y16", "X12xHP:2", "X12xHP:3"):
            result = distinct_cobordism_types(standard_family(name), [1, 2, 3, 4, 5])
            assert result.distinct and not result.collisions, name


def test_criterion_09_genus_oracles():
    with criterion(9, "classical genus values"):
        for i in (1, 2, 3):
            assert signature(build_cp(2 * i)) == F(1), i
        assert ahat(build_cp(2)) == F(-1, 8)
        assert signature(build_hp(2)) == F(1)
        assert ahat(build_hp(2)) == F(0)


def test_criterion_10_property_suites():
    with criterion(10, "cross-pipeline, integrality, multiplicativity"):
        # dual pipelines agree on every model, HP factors included
        root_models = [build_cp(2), build_cp(4), x12(1), x12(2), y16(1),
                       product(build_cp(2), build_cp(2)), build_hp(2),
                       product(x12(2), build_hp(2))]
        for m in root_models:
            seq = _elliptic_sequence(m.real_dimension // 4, 2)
            assert _roots_route(m, seq.source) == _universal_route(m, seq), m.name
            signature(m)  # internally asserts both genus pipelines agree

        # characteristic numbers are integers on every constructed model
        integer_zoo = root_models + [z20(1), z20(2)]
        for m in integer_zoo:
            if m.real_dimension % 4:
                continue
            for value in pontryagin_numbers(m).values.values():
                assert value.denominator == 1, m.name

        # elliptic coefficients are integers on spin models
        for m in (build_hp(1), build_hp(2), x12(2), y16(2)):
            assert m.spin
            for coeff in elliptic_q_coefficients(m, 2):
                assert coeff.denominator == 1, m.name

        # signature, A-hat, and the elliptic expansion are multiplicative
        pairs = [(build_cp(2), build_cp(2)), (build_cp(2), build_hp(2))]
        for m1, m2 in pairs:
            m = product(m1, m2)
            assert signature(m) == signature(m1) * signature(m2)
            assert ahat(m) == ahat(m1) * ahat(m2)
            c1 = elliptic_q_coefficients(m1, 2)
            c2 = elliptic_q_coefficients(m2, 2)
            cm = elliptic_q_coefficients(m, 2)
            for j in range(3):
                assert cm[j] == sum(c1[i] * c2[j - i] for i in range(j + 1))
