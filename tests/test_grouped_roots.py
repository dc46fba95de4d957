"""The roots route reads the genus off the ring power sums of the roots.

A Pontryagin root t = x^2 of multiplicity m enters the roots route once,
as m t^j in the ring power sums P_j, and the genus is the pairing of
exp(sum_j log f_j P_j), rational or q-series valued.  The oracle is the
per-root product in ``symmetric_reference``, one factor f(t) per unit of
multiplicity, compared by exact equality, on models whose roots repeat
in many patterns: projective bundles with twisting degrees in
{-1, 0, 1}, complex projective spaces (every root equal), the rings that
products with X12 would have (``ring_model``, as a product has no ring
of its own), explicit complex root lists in a small ring (x and -x give two
equal squares, left ungrouped), and one model with no repeated root.
``pontryagin_classes`` is checked the same way against binomial
expansions multiplied degree by degree, on those models, on HP^1..HP^8
and CP^1..CP^16, and on the rings of products with an HP factor, whose
root (4u, -1) is virtual.

``TestPowerSums`` checks the oracle's full class (``full_class``) on
whole root lists: it equals the q-product of its single-root values,
negative multiplicities included, and it exponentiates up to the ring's
top weight even where the power sums stop below it.
``TestPowerSumMonomials`` checks the route's own form of that pairing,
``CharacteristicSeries.evaluate_at``, the monomials P_lambda dotted with
the weight-k coefficients of the exponential, against ``full_class``, and
that its ring work does not grow with the q-order.

The last class checks that the cross-check still guards the grouped
route: a multiplicity off by one in either direction must surface as
a ConsistencyError in the library and as exit code 3 on the CLI.
"""
import pytest
from hypothesis import example, given, settings, strategies as st

import symmetric_reference as ref
from ellcob.algebra import GradedElement, QSeries, RingSpec
from ellcob.cli import main, parse_manifold
from ellcob.cobordism import x12
from ellcob.errors import ConsistencyError
from ellcob.genera import (
    CharacteristicSeries,
    _elliptic_sequence,
    _roots_route,
    ahat_sequence,
    elliptic_q_coefficients,
    l_sequence,
    signature,
    twisted_ahat_tangent,
)
from ellcob.manifolds import (
    LineBundleSum,
    ManifoldModel,
    build_cp,
    build_hp,
    build_proj_bundle,
    pair,
    pontryagin_classes,
    product,
    total_pontryagin,
)

_AB = RingSpec([("a", 2), ("b", 2)], 8, {"a": (3, {}), "b": (3, {})})
_A, _B = _AB.gen("a"), _AB.gen("b")
_ROOT_CHOICES = (_A, _B, _A + _B, _A - _B, _A * 2, -_B)


def _explicit(roots) -> ManifoldModel:
    """A dim-8 model on Q[a, b]/(a^3, b^3) with the given complex roots,
    one Pontryagin root each, repeated squares left ungrouped."""
    return ManifoldModel("explicit", 8, _AB, [(x * x, 1) for x in roots], _AB.element({(2, 2): 1}), spin=False)


NO_REPEATED_ROOT = _explicit([_A, _B, _A + _B, _A - _B])
ALL_ROOTS_EQUAL = build_cp(6)


def _degrees(max_rank):
    return st.lists(st.sampled_from((-1, 0, 1)), min_size=1, max_size=max_rank).map(tuple)


def _bundles(max_base, max_rank):
    return st.builds(lambda l, d: build_proj_bundle(LineBundleSum(l, d)), st.integers(1, max_base), _degrees(max_rank))


MODELS = st.one_of(
    _bundles(3, 4),
    st.builds(build_cp, st.integers(1, 8)),
    st.builds(lambda c, m: ref.ring_model(product(x12(c), m)), st.integers(-2, 2),
              st.one_of(st.builds(build_cp, st.integers(1, 2)), _bundles(1, 2))),
    st.builds(_explicit, st.lists(st.sampled_from(_ROOT_CHOICES), min_size=1, max_size=6)),
)

# the rings of products with an HP factor, on either side, carry its virtual root (4u, -1)
HP_PRODUCTS = st.builds(
    lambda hp, other, first: ref.ring_model(product(hp, other) if first else product(other, hp)),
    st.builds(build_hp, st.integers(1, 3)),
    st.one_of(_bundles(2, 3), st.builds(build_cp, st.integers(1, 4)), st.builds(build_hp, st.integers(1, 2))),
    st.booleans(),
)


class TestGroups:
    def test_multiplicities_count_every_root(self):
        # complex roots b (4 times), a + b, a (3 times): squares in that order
        m = build_proj_bundle(LineBundleSum(3, (1, 0, 0, 0)))
        a, b = m.ring.gen("a"), m.ring.gen("b")
        assert m.roots == ((b * b, 4), ((a + b) * (a + b), 1), (a * a, 3))

    def test_no_repeated_root_and_all_equal(self):
        assert [mult for _, mult in NO_REPEATED_ROOT.roots] == [1, 1, 1, 1]
        assert [mult for _, mult in ALL_ROOTS_EQUAL.roots] == [7]


class TestAgainstPerRootProducts:
    @settings(max_examples=40, deadline=None)
    @given(MODELS)
    @example(NO_REPEATED_ROOT)
    @example(ALL_ROOTS_EQUAL)
    def test_total_pontryagin(self, m):
        assert total_pontryagin(m) == ref.total_pontryagin_per_root(m)

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(MODELS, HP_PRODUCTS))
    @example(NO_REPEATED_ROOT)
    @example(ref.ring_model(product(build_hp(2), build_hp(1))))
    def test_pontryagin_classes(self, m):
        assert pontryagin_classes(m) == ref.pontryagin_classes_by_degree(m)

    @pytest.mark.parametrize("text", [f"hp:{n}" for n in range(1, 9)] + [f"cp:{n}" for n in range(1, 17)])
    def test_pontryagin_classes_of_projective_spaces(self, text):
        m = parse_manifold(text)[0]
        assert pontryagin_classes(m) == ref.pontryagin_classes_by_degree(m)

    @settings(max_examples=30, deadline=None)
    @given(MODELS.filter(lambda m: m.real_dimension % 4 == 0))
    @example(NO_REPEATED_ROOT)
    @example(build_cp(8))
    def test_l_and_ahat_roots_route(self, m):
        k = m.real_dimension // 4
        for seq in (l_sequence(k), ahat_sequence(k)):
            assert _roots_route(m, seq.source) == ref.genus_per_root(m, seq.source), seq.name

    @settings(max_examples=30, deadline=None)
    @given(MODELS.filter(lambda m: m.real_dimension % 4 == 0))
    @example(NO_REPEATED_ROOT)
    @example(build_cp(8))
    def test_twisted_roots_route(self, m):
        assert -ref.elliptic_by_roots(m, 1)[1] == ref.twisted_ahat_per_root(m)

    @settings(max_examples=20, deadline=None)
    @given(MODELS.filter(lambda m: m.real_dimension % 4 == 0), st.integers(0, 2))
    @example(NO_REPEATED_ROOT, 2)
    @example(build_cp(8), 2)
    def test_elliptic_roots_route(self, m, order):
        assert ref.elliptic_by_roots(m, order) == ref.elliptic_per_root(m, order)


# signed root lists in Q[a, b]/(a^3, b^3), and the roots of models with
# an HP factor, whose (4u, -1) is a virtual root, a product's in its ring_model
SIGNED_ROOTS = st.lists(
    st.tuples(st.sampled_from(_ROOT_CHOICES), st.sampled_from((-2, -1, 1, 2))), min_size=1, max_size=5
).map(lambda pairs: tuple((x * x, mult) for x, mult in pairs))
HP_ROOTS = st.sampled_from(["hp:2", "prod(hp:1,cp:2)", "prod(cp:2,hp:2)", "X12xHP:1:c=1", "prod(hp:1,hp:2)"]).map(
    lambda text: ref.ring_model(parse_manifold(text)[0]).roots
)


class TestPowerSums:
    @settings(max_examples=40, deadline=None)
    @given(st.one_of(SIGNED_ROOTS, HP_ROOTS, MODELS.map(lambda m: m.roots)))
    @example(NO_REPEATED_ROOT.roots)
    @example(((_A * _A, -1), (_B * _B, 2), (_A * _A, 1)))
    def test_root_list_is_the_product_of_single_roots(self, roots):
        top = roots[0][0].ring.truncation_dimension // 4
        for series in (l_sequence(top).source, ahat_sequence(top).source, _elliptic_sequence(top, 2).source):
            expected = ref.full_class(series, roots[:1])
            for root in roots[1:]:
                expected = ref.series_product(expected, ref.full_class(series, [root]))
            assert ref.full_class(series, roots) == expected, series.name

    def test_power_sums_stopping_below_the_top_weight(self):
        # in the ring of CP^2 x CP^2 every t^2 is zero, so P_j = 0 for j >= 2,
        # while the top weight is 2: exp(l_1 P_1) still needs its square
        m = product(build_cp(2), build_cp(2))
        own = ref.ring_model(m)
        assert _roots_route(own, l_sequence(2).source) == signature(m) == 1
        assert ref.elliptic_by_roots(own, 2) == elliptic_q_coefficients(m, 2) == ref.elliptic_per_root(own, 2)


def _by_exponential(m, series):
    """The genus of series on m from the full class prod f(t)^mult,
    ``full_class`` on m's own roots, paired per q-coefficient."""
    paired = [pair(m, c) for c in ref.full_class(series, m.roots)]
    return QSeries(paired) if isinstance(series.one, QSeries) else paired[0]


def _series(k):
    """L, A-hat and the elliptic series at q-orders 0-6, carrying x^2-order k."""
    return [CharacteristicSeries.l_genus(k), CharacteristicSeries.ahat_genus(k)] + [
        CharacteristicSeries.elliptic(q, k) for q in range(7)
    ]


class TestPowerSumMonomials:
    """The roots route pairs the monomials P_lambda of the ring power sums
    and dots them with the weight-k coefficients of exp(sum_j l_j P_j); its
    oracle is the full exponential ``full_class`` in the ring."""

    @settings(max_examples=30, deadline=None)
    @given(st.one_of(MODELS, st.builds(build_hp, st.integers(1, 4))))
    @example(NO_REPEATED_ROOT)
    @example(build_hp(3))
    @example(ref.ring_model(parse_manifold("prod(hp:1,cp:2)")[0]))
    @example(build_cp(3))
    @example(build_proj_bundle(LineBundleSum(2, (1, 0))))
    def test_equals_the_paired_exponential(self, m):
        # dimensions 4k + 2 (cp:3, pb:2:[1,0]) pair to 0 both ways
        for series in _series(m.real_dimension // 4 + 1):
            value = series.evaluate_at(m)
            assert value == _by_exponential(m, series), series
            if m.real_dimension % 4:
                assert not value

    def test_series_shorter_than_the_weight(self):
        with pytest.raises(ValueError, match="^series signature carries x\\^2-order 1, need 2$"):
            CharacteristicSeries.l_genus(1).evaluate_at(build_cp(4))
        assert CharacteristicSeries.l_genus(2).evaluate_at(build_cp(4)) == 1

    def test_a_product_is_refused(self):
        # a product has no ring or roots: the roots route multiplies its factors' values
        with pytest.raises(ValueError, match="is a product and has no ring of its own"):
            CharacteristicSeries.l_genus(2).evaluate_at(product(build_cp(2), build_cp(2)))

    def test_ring_multiplies_do_not_grow_with_the_q_order(self, monkeypatch):
        m = parse_manifold("pb:5:[1,-2,0,3]")[0]
        original, counts = GradedElement.__mul__, []

        def counted(self, other):
            if self.ring == m.ring:  # a q-series product runs in a ring of its own
                counts[-1] += 1
            return original(self, other)

        monkeypatch.setattr(GradedElement, "__mul__", counted)
        for q_order in (2, 32):
            series = CharacteristicSeries.elliptic(q_order, m.real_dimension // 4 + 1)
            counts.append(0)
            _roots_route(m, series)
        assert counts[0] == counts[1] > 0


# CP^2-bundle over CP^2, complex roots b, b, b, a + b, a, a.  Every genus
# of the X12 family vanishes, whatever the multiplicities, so it cannot
# show a skew.
GUARDED = "pb:2:[1,0,0]"


def _guarded() -> ManifoldModel:
    return build_proj_bundle(LineBundleSum(2, (1, 0, 0)))


@pytest.fixture(params=[1, -1], ids=["one_more", "one_fewer"])
def skewed_groups(request, monkeypatch):
    """The roots route sees the first root's multiplicity (b^2, 3) off by
    one; the universal route reads the model's roots unchanged."""
    first = _guarded().roots[0][0]
    original = CharacteristicSeries.evaluate_at

    def skewed(series, m):
        roots = [(t, mult + request.param if t == first else mult) for t, mult in m.roots]
        return original(series, ManifoldModel(m.name, m.real_dimension, m.ring, roots, m.integral, m.spin))

    monkeypatch.setattr(CharacteristicSeries, "evaluate_at", skewed)


@pytest.mark.usefixtures("skewed_groups")
class TestCrossCheckGuardsGroups:
    def test_elliptic_raises(self):
        with pytest.raises(ConsistencyError, match="elliptic genus pipelines disagree"):
            elliptic_q_coefficients(_guarded(), 2)

    def test_signature_raises(self):
        with pytest.raises(ConsistencyError, match="genus pipelines disagree"):
            signature(_guarded())

    def test_twisted_ahat_raises(self):
        with pytest.raises(ConsistencyError, match="twisted A-hat pipelines disagree"):
            twisted_ahat_tangent(_guarded())

    @pytest.mark.parametrize("argv", [
        ["elliptic", "--manifold", GUARDED],
        ["genus", "--manifold", GUARDED, "--which", "sign"],
    ], ids=["elliptic", "genus"])
    def test_cli_exits_3(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert "internal consistency failure" in captured.err


def test_unskewed_model_passes_the_cross_check():
    m = _guarded()
    assert signature(m) == ref.genus_per_root(m, l_sequence(2).source) == 1
    assert twisted_ahat_tangent(m) == ref.twisted_ahat_per_root(m)
    assert elliptic_q_coefficients(m, 2) == ref.elliptic_per_root(m, 2)
