"""The partition-basis engine behind every universal genus polynomial.

Oracles:
  * the monomial expansion with greedy elementary-symmetric rewrite in
    ``symmetric_reference`` (an independent implementation, exact
    equality of every table);
  * the projective-space basis solve (``genus_as_functional``) fed with
    roots-route genus values, for the span and the named functionals;
  * classical signatures at weight 12, out of reach of the monomial
    route.
"""
from fractions import Fraction
from functools import lru_cache

import pytest

import symmetric_reference as ref
from ellcob.cli import parse_functional, parse_manifold
from ellcob.cobordism import Functional, basis_manifolds, elliptic_span, genus_as_functional, pontryagin_numbers
from ellcob.genera import (
    CharacteristicSeries,
    _roots_route,
    ahat_sequence,
    elliptic_polynomials,
    elliptic_q_coefficients,
    l_sequence,
    signature,
    twisted_ahat_polynomial,
    twisted_ahat_tangent,
)
from ellcob.manifolds import build_cp, build_hp

DIMS = (4, 8, 12, 16, 20)


class TestAgainstMonomialRoute:
    @pytest.mark.parametrize("name,sequence", [("l_genus", l_sequence), ("ahat_genus", ahat_sequence)])
    def test_k_polynomials_up_to_weight_6(self, name, sequence):
        expected = ref.k_polynomials(getattr(CharacteristicSeries, name)(7), 6)
        for w in range(7):
            assert sequence(w).weights == {v: expected[v] for v in range(w + 1)}, w

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_twisted_ahat_factor(self, k):
        assert dict(twisted_ahat_polynomial(k)) == ref.twisted_ahat_top(k)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_elliptic_factor(self, k):
        assert [dict(t) for t in elliptic_polynomials(k, k)] == ref.elliptic_top(k, k)


def _roots_genus(series):
    return lambda m: _roots_route(m, series)


@lru_cache(maxsize=None)
def _basis_elliptic(dim, order):
    return {b.name: ref.elliptic_by_roots(b, order) for b in basis_manifolds(dim)}


def _oracle(dim, name, q_index=None):
    """The named genus as a functional by basis solve over roots-route values."""
    k = dim // 4
    if name == "sign":
        return genus_as_functional(_roots_genus(CharacteristicSeries.l_genus(k + 1)), dim)
    if name == "ahat":
        return genus_as_functional(_roots_genus(CharacteristicSeries.ahat_genus(k + 1)), dim)
    if name == "ahat_t":
        return genus_as_functional(lambda m: -ref.elliptic_by_roots(m, 1)[1], dim)
    values = _basis_elliptic(dim, max(k, q_index))
    return genus_as_functional(lambda m: values[m.name][q_index], dim)


class TestAgainstBasisSolve:
    @pytest.mark.parametrize("dim", DIMS)
    def test_elliptic_span(self, dim):
        functionals, _ = elliptic_span(dim, dim // 4)
        for j, f in enumerate(functionals):
            # reprs show every coefficient exactly and in order
            assert repr(f) == repr(_oracle(dim, "ell", j)), j

    @pytest.mark.parametrize("dim", DIMS)
    def test_named_functionals(self, dim):
        for name in ("sign", "ahat", "ahat_t"):
            assert repr(parse_functional(name, dim)) == repr(_oracle(dim, name)), name
        for j in range(dim // 4 + 2):
            assert repr(parse_functional(f"ell[{j}]", dim)) == repr(_oracle(dim, "ell", j)), j


ROUTE_MODELS = ("cp:2", "hp:2", "hp:3", "X12:c=2", "Y16:c=1", "prod(cp:2,hp:1)", "pb:5:[1,-2,0,3]",
                "X12xHP:1:c=3", "prod(pb:3:[1,2],cp:4)")


class TestTablesAgainstValues:
    """The universal tables (span, member, ell[j]) dotted with a model's
    Pontryagin numbers give the cross-checked values, at every q-order."""

    @pytest.mark.parametrize("text", ROUTE_MODELS)
    def test_elliptic_at_every_q_order(self, text):
        m, _ = parse_manifold(text)
        dim, k = m.real_dimension, m.real_dimension // 4
        numbers = pontryagin_numbers(m)
        for order in range(k + 3):
            tables, values = elliptic_polynomials(k, order), elliptic_q_coefficients(m, order)
            assert len(tables) == len(values) == order + 1, order
            for j, (table, value) in enumerate(zip(tables, values)):
                assert Functional.from_polynomial(dim, table).evaluate(numbers) == value, (order, j)

    @pytest.mark.parametrize("text", ROUTE_MODELS)
    def test_twisted_ahat(self, text):
        m, _ = parse_manifold(text)
        table = twisted_ahat_polynomial(m.real_dimension // 4)
        assert Functional.from_polynomial(m.real_dimension, table).evaluate(pontryagin_numbers(m)) == twisted_ahat_tangent(m)


class TestWeightTwelve:
    def test_signature_of_hp12(self):
        assert signature(build_hp(12)) == Fraction(1)

    def test_signature_of_cp24_both_routes(self):
        assert signature(build_cp(24)) == Fraction(1)
