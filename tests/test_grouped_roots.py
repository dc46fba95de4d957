"""Roots routes that multiply once per distinct root.

A root x of multiplicity m enters the roots routes as (f^m)(x), the
power taken on the scalar series.  The oracle is the per-root product
in ``symmetric_reference``, compared by exact equality, on models whose
roots repeat in many patterns: projective bundles with twisting degrees
in {-1, 0, 1}, complex projective spaces (every root equal), products
with X12, explicit root lists in a small ring, and one model with no
repeated root.

The last class checks that the cross-check still guards the grouped
routes: a multiplicity off by one in either direction must surface as
a ConsistencyError in the library and as exit code 3 on the CLI.
"""
import pytest
from hypothesis import example, given, settings, strategies as st

import symmetric_reference as ref
import ellcob.genera as genera
from ellcob.algebra import RingSpec
from ellcob.cli import main
from ellcob.cobordism import x12
from ellcob.errors import ConsistencyError
from ellcob.genera import (
    _elliptic_roots,
    _genus_roots,
    _twisted_roots,
    ahat_sequence,
    elliptic_q_coefficients,
    l_sequence,
    signature,
    twisted_ahat_tangent,
)
from ellcob.manifolds import (
    LineBundleSum,
    ManifoldModel,
    StableRoots,
    build_cp,
    build_proj_bundle,
    product,
    root_groups,
    total_pontryagin,
)

_AB = RingSpec([("a", 2), ("b", 2)], 8, {"a": (3, {}), "b": (3, {})})
_A, _B = _AB.gen("a"), _AB.gen("b")
_ROOT_CHOICES = (_A, _B, _A + _B, _A - _B, _A * 2, -_B)


def _explicit(roots) -> ManifoldModel:
    """A dim-8 model on Q[a, b]/(a^3, b^3) with the given stable roots."""
    return ManifoldModel("explicit", 8, _AB, StableRoots(roots), (2, 2), spin=False)


NO_REPEATED_ROOT = _explicit([_A, _B, _A + _B, _A - _B])
ALL_ROOTS_EQUAL = build_cp(6)


def _degrees(max_rank):
    return st.lists(st.sampled_from((-1, 0, 1)), min_size=1, max_size=max_rank).map(tuple)


def _bundles(max_base, max_rank):
    return st.builds(lambda l, d: build_proj_bundle(LineBundleSum(l, d)), st.integers(1, max_base), _degrees(max_rank))


MODELS = st.one_of(
    _bundles(3, 4),
    st.builds(build_cp, st.integers(1, 8)),
    st.builds(lambda c, m: product(x12(c), m), st.integers(-2, 2),
              st.one_of(st.builds(build_cp, st.integers(1, 2)), _bundles(1, 2))),
    st.builds(_explicit, st.lists(st.sampled_from(_ROOT_CHOICES), min_size=1, max_size=6)),
)


class TestGroups:
    def test_multiplicities_count_every_root(self):
        m = build_proj_bundle(LineBundleSum(3, (1, 0, 0, 0)))
        groups = root_groups(m.tangent.roots)
        assert [mult for _, mult in groups] == [4, 1, 3]
        assert sum(mult for _, mult in groups) == len(m.tangent.roots)

    def test_no_repeated_root_and_all_equal(self):
        assert [mult for _, mult in root_groups(NO_REPEATED_ROOT.tangent.roots)] == [1, 1, 1, 1]
        assert [mult for _, mult in root_groups(ALL_ROOTS_EQUAL.tangent.roots)] == [7]


class TestAgainstPerRootProducts:
    @settings(max_examples=40, deadline=None)
    @given(MODELS)
    @example(NO_REPEATED_ROOT)
    @example(ALL_ROOTS_EQUAL)
    def test_total_pontryagin(self, m):
        assert total_pontryagin(m) == ref.total_pontryagin_per_root(m)

    @settings(max_examples=30, deadline=None)
    @given(MODELS.filter(lambda m: m.real_dimension % 4 == 0))
    @example(NO_REPEATED_ROOT)
    @example(build_cp(8))
    def test_l_and_ahat_roots_route(self, m):
        k = m.real_dimension // 4
        for seq in (l_sequence(k), ahat_sequence(k)):
            assert _genus_roots(m, seq.source) == ref.genus_per_root(m, seq.source), seq.name

    @settings(max_examples=30, deadline=None)
    @given(MODELS.filter(lambda m: m.real_dimension % 4 == 0))
    @example(NO_REPEATED_ROOT)
    @example(build_cp(8))
    def test_twisted_roots_route(self, m):
        assert _twisted_roots(m) == ref.twisted_ahat_per_root(m)

    @settings(max_examples=20, deadline=None)
    @given(MODELS.filter(lambda m: m.real_dimension % 4 == 0), st.integers(0, 2))
    @example(NO_REPEATED_ROOT, 2)
    @example(build_cp(8), 2)
    def test_elliptic_roots_route(self, m, order):
        assert _elliptic_roots(m, order) == ref.elliptic_per_root(m, order)


@pytest.fixture(params=[1, -1], ids=["one_more", "one_fewer"])
def skewed_groups(request, monkeypatch):
    """The roots routes see the first root's multiplicity off by one."""
    original = genera.root_groups

    def skewed(roots):
        (x, mult), *rest = original(roots)
        return ((x, mult + request.param), *rest)

    monkeypatch.setattr(genera, "root_groups", skewed)


# CP^2-bundle over CP^2, roots b, b, b, a + b, a, a.  Every genus of the
# X12 family vanishes, whatever the multiplicities, so it cannot show a skew.
GUARDED = "pb:2:[1,0,0]"


def _guarded() -> ManifoldModel:
    return build_proj_bundle(LineBundleSum(2, (1, 0, 0)))


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
