"""Multiplicative genera: characteristic power series, universal
polynomials in Pontryagin classes, classical genus values, the twisted
Dirac-index genus, and the elliptic-genus q-expansion.

Oracles:
  * classical closed forms of the L- and A-hat-polynomials (frozen);
  * a fully independent sympy recomputation of the symmetric-function
    expansion (series -> product over formal roots -> elementary
    symmetric basis);
  * hand-computed twisted values A-hat(CP^2; T_C) = 5/2 and
    A-hat(HP^2; T_C) = -1 (each derived twice by different routes
    before being frozen here);
  * classical signature/A-hat values of projective spaces;
  * the dense bivariate construction of the twist character in
    ``symmetric_reference``.
"""
import copy
import pickle
import re
from fractions import Fraction
from functools import lru_cache

import pytest

import ellcob.cli as cli
import ellcob.cobordism as cobordism
import ellcob.genera as genera
import symmetric_reference as ref
from ellcob.algebra import QSeries, RingSpec
from ellcob.genera import (
    CharacteristicSeries,
    MultiplicativeSequence,
    _bernoulli,
    _elliptic_sequence,
    _roots_route,
    _universal_route,
    ahat,
    ahat_sequence,
    elliptic_q_coefficients,
    evaluate_genus,
    l_sequence,
    signature,
    twist_character,
    twisted_ahat_tangent,
    universal_k_polynomials,
)
from ellcob.cli import main, parse_manifold
from ellcob.errors import ConsistencyError
from ellcob.manifolds import (
    LineBundleSum,
    ManifoldModel,
    build_cp,
    build_hp,
    build_point,
    build_proj_bundle,
    pontryagin_products,
    product,
)

F = Fraction


def bundle_12(c: int):
    return build_proj_bundle(LineBundleSum(3, (c, 0, 0, 0)))


class TestCharacteristicSeries:
    def test_l_series_frozen(self):
        # x/tanh x = 1 + x^2/3 - x^4/45 + 2x^6/945 - x^8/4725 + ...
        s = CharacteristicSeries.l_genus(4)
        assert list(s.coeffs[:5]) == [F(1), F(1, 3), F(-1, 45), F(2, 945), F(-1, 4725)]

    def test_ahat_series_frozen(self):
        # (x/2)/sinh(x/2) = 1 - x^2/24 + 7x^4/5760 - 31x^6/967680 + ...
        s = CharacteristicSeries.ahat_genus(3)
        assert list(s.coeffs[:4]) == [F(1), F(-1, 24), F(7, 5760), F(-31, 967680)]

    def test_full_class_ring_element(self):
        m = build_cp(2)
        x = m.ring.gen(m.ring.generators[0])
        s = CharacteristicSeries.l_genus(2)
        # 1 + x^2/3 at the Pontryagin root t = x^2 (higher powers truncate in CP^2)
        value, = ref.full_class(s, [(x * x, 1)])
        assert value.terms == {(0,): F(1), (2,): F(1, 3)}

    def test_full_class_negative_multiplicity(self):
        # f(4u)^(-1) on HP^3, u^4 = 0: the inverse series at order 3
        u = build_hp(3).ring.gen("u")
        s = CharacteristicSeries.l_genus(5)
        (inverse,), (value,) = ref.full_class(s, [(u * 4, -1)]), ref.full_class(s, [(u * 4, 1)])
        assert inverse * value == u.ring.one()


def _one(series, order):
    zero = series.coeffs[0] * 0
    return [series.coeffs[0]] + [zero] * order


def _at(coeffs, t):
    """sum_j coeffs[j] t^j per power of q, the shape ref.full_class returns:
    one ring element for rational coefficients, one per q^n for q-series."""
    if isinstance(coeffs[0], QSeries):
        return [ref._series_at([c.coeffs[n] for c in coeffs], t) for n in range(coeffs[0].order + 1)]
    return [ref._series_at(coeffs, t)]


POWER_SERIES = {
    "L": lambda: CharacteristicSeries.l_genus(5),
    "A-hat": lambda: CharacteristicSeries.ahat_genus(5),
    **{f"F(q-order {q})": (lambda q=q: CharacteristicSeries.elliptic(q, 5)) for q in range(5)},
}

# t = b^2 on CP^10 has t^5 != 0 = t^6; on CP^5, t^2 != 0 = t^3
_T = build_cp(10).ring.gen("b") ** 2
_T_SHORT = build_cp(5).ring.gen("b") ** 2


class TestSeriesPowers:
    """f^m = exp(m log f) at one Pontryagin root, ref.full_class(f, [(t, m)]),
    against repeated products of f evaluated at t, for rational and
    q-series coefficients alike."""

    def test_geometric_inverse(self):
        # exp(sum_j t^j / j) = 1 / (1 - t)
        s = CharacteristicSeries("geometric", [F(0)] + [F(1, j) for j in range(1, 6)])
        assert list(s.coeffs) == [F(1)] * 6
        assert ref.full_class(s, [(_T, -1)]) == [_T.ring.one() - _T]

    def test_pow_matches_repeated_mul(self):
        for name, build in POWER_SERIES.items():
            s = build()
            short = CharacteristicSeries(s.name, s.logs[:3])  # enough at a root with t^3 = 0
            acc = _one(s, s.order)
            for m in range(1, 5):
                acc = ref.series_product(acc, list(s.coeffs))
                assert ref.full_class(s, [(_T, m)]) == _at(acc, _T), (name, m)
                assert ref.full_class(short, [(_T_SHORT, m)]) == _at(acc[:3], _T_SHORT), (name, m)

    def test_negative_power(self):
        for name, build in POWER_SERIES.items():
            s = build()
            one = _at(_one(s, s.order), _T)
            assert ref.full_class(s, [(_T, 0)]) == one, name
            for m in (1, 2, 5):
                assert ref.series_product(ref.full_class(s, [(_T, -m)]), ref.full_class(s, [(_T, m)])) == one, (name, m)

    def test_negative_power_with_series_coefficients(self):
        # the elliptic factor F, whose constant term is the q-series 1
        s = CharacteristicSeries.elliptic(3, 5)
        assert isinstance(s.coeffs[0], QSeries) and s.coeffs[0] == QSeries([F(1), F(0), F(0), F(0)])
        inverse = ref.full_class(s, [(_T, -1)])
        assert ref.series_product(inverse, inverse) == ref.full_class(s, [(_T, -2)])
        assert ref.series_product(ref.series_product(inverse, inverse), inverse) == ref.full_class(s, [(_T, -3)])

    def test_bernoulli_frozen(self):
        assert list(_bernoulli(16)) == [
            F(1), F(-1, 2), F(1, 6), F(0), F(-1, 30), F(0), F(1, 42), F(0), F(-1, 30),
            F(0), F(5, 66), F(0), F(-691, 2730), F(0), F(7, 6), F(0), F(-3617, 510),
        ]

    def test_too_short_series_raises(self):
        # t = x^2 on CP^4 has t^2 != 0, so f must carry t^2
        m = build_cp(4)
        roots = [(m.ring.gen("b") ** 2, 1)]
        with pytest.raises(ValueError, match="x\\^2-order 1, need 2"):
            ref.full_class(CharacteristicSeries.l_genus(1), roots)
        assert ref.full_class(CharacteristicSeries.l_genus(2), roots) == ref.full_class(CharacteristicSeries.l_genus(5), roots)
        with pytest.raises(ValueError):
            CharacteristicSeries("bad", [F(1), F(1)])

    @pytest.mark.parametrize("logs,message", [
        ([0, QSeries([1, 2]), F(1, 2)], r"^log f coefficient 1 is QSeries\(.*\), not a rational like coefficient 0$"),
        ([QSeries([0, 0]), F(1, 2), QSeries([1, 2])],
         r"^log f coefficient 1 is Fraction\(1, 2\), not a q-series of q-order 1 like coefficient 0$"),
        # accepted, q-orders 1, 2 and 0 would cut every universal polynomial to q^0
        ([QSeries([0, 0]), QSeries([1, 2, 3]), QSeries([5])],
         r"^log f coefficient 1 is QSeries\(.*\), not a q-series of q-order 1 like coefficient 0$"),
    ], ids=["series_after_rational", "rational_after_series", "unequal_q_orders"])
    def test_mixed_coefficient_kinds_rejected(self, logs, message):
        with pytest.raises(ValueError, match=message):
            CharacteristicSeries("mixed", logs)

    def test_no_roots_raises(self):
        with pytest.raises(ValueError, match="needs at least one root"):
            ref.full_class(CharacteristicSeries.l_genus(2), [])


class TestUniversalPolynomials:
    def test_l_polynomials_frozen(self):
        seq = l_sequence(3)
        assert seq.polynomial(1) == {(1,): F(1, 3)}
        assert seq.polynomial(2) == {(2,): F(7, 45), (1, 1): F(-1, 45)}
        assert seq.polynomial(3) == {
            (3,): F(62, 945),
            (2, 1): F(-13, 945),
            (1, 1, 1): F(2, 945),
        }

    def test_ahat_polynomials_frozen(self):
        seq = ahat_sequence(3)
        assert seq.polynomial(1) == {(1,): F(-1, 24)}
        assert seq.polynomial(2) == {(2,): F(-1, 1440), (1, 1): F(7, 5760)}
        assert seq.polynomial(3) == {
            (3,): F(-1, 60480),
            (2, 1): F(11, 241920),
            (1, 1, 1): F(-31, 967680),
        }

    def test_weight_zero_is_one(self):
        seq = l_sequence(2)
        assert seq.polynomial(0) == {(): F(1)}

    @pytest.mark.parametrize("build", [
        lambda: universal_k_polynomials(CharacteristicSeries.l_genus(2), -1),
        lambda: l_sequence(-1),
    ], ids=["universal_k_polynomials", "l_sequence"])
    def test_negative_weight_rejected(self, build):
        with pytest.raises(ValueError, match="^a multiplicative sequence needs a nonnegative max weight, not -1$"):
            build()

    @pytest.mark.parametrize("weight", [-1, 3])
    def test_polynomial_outside_the_weights_rejected(self, weight):
        with pytest.raises(ValueError, match=r"^signature sequence only carries weights 0\.\.2$"):
            l_sequence(2).polynomial(weight)

    def test_short_series_rejected(self):
        series = CharacteristicSeries.l_genus(1)
        with pytest.raises(ValueError):
            universal_k_polynomials(series, 3)

    @pytest.mark.parametrize(
        "series_name,weight",
        [("l", 2), ("l", 3), ("ahat", 2)],
    )
    def test_sympy_symmetric_expansion_oracle(self, series_name, weight):
        """Recompute K_w completely independently with sympy.

        Expand the defining even series symbolically, multiply over
        `weight` formal square-roots y_i, take the weight-w part, and
        compare with our partition coefficients rebuilt as a polynomial
        in the elementary symmetric functions of the y_i.
        """
        import sympy

        x = sympy.Symbol("x")
        f = x / sympy.tanh(x) if series_name == "l" else (x / 2) / sympy.sinh(x / 2)
        ser = sympy.series(f, x, 0, 2 * weight + 2).removeO()
        a = [ser.coeff(x, 2 * j) for j in range(weight + 1)]

        ys = sympy.symbols(f"y0:{weight}")
        prod = sympy.expand(sympy.prod(
            sum(a[j] * yi ** j for j in range(weight + 1)) for yi in ys
        ))
        poly = sympy.Poly(prod, *ys)
        expected = sum(
            (coeff * sympy.prod([yi ** e for yi, e in zip(ys, exps)])
             for exps, coeff in poly.as_dict().items() if sum(exps) == weight),
            sympy.Integer(0),
        )

        def elementary(j):
            from itertools import combinations

            return sum(
                (sympy.prod(sub) for sub in combinations(ys, j)), sympy.Integer(0)
            )

        seq = (l_sequence if series_name == "l" else ahat_sequence)(weight)
        claimed = sympy.Integer(0)
        for partition, coeff in seq.polynomial(weight).items():
            term = sympy.Rational(coeff.numerator, coeff.denominator)
            for part in partition:
                term *= elementary(part)
            claimed += term
        assert sympy.expand(expected - claimed) == 0


class TestClassicalGenusValues:
    def test_signature_of_even_projective_spaces(self):
        for n in (1, 2, 3):
            assert signature(build_cp(2 * n)) == F(1), n

    def test_signature_of_quaternionic_spaces(self):
        assert signature(build_hp(2)) == F(1)
        assert signature(build_hp(3)) == F(0)

    def test_ahat_values(self):
        assert ahat(build_cp(2)) == F(-1, 8)
        assert ahat(build_cp(4)) == F(3, 128)
        assert ahat(build_hp(2)) == F(0)
        assert ahat(build_hp(3)) == F(0)

    def test_spin_models_have_vanishing_ahat_families(self):
        # A-hat of the spin bundle members is an integer (here: always 0
        # follows later from elliptic vanishing; integrality checked now)
        for c in (2, 4):
            value = ahat(bundle_12(c))
            assert value.denominator == 1

    def test_dimension_not_multiple_of_four_warns_and_returns_zero(self):
        m = build_cp(3)  # dim 6
        with pytest.warns(UserWarning):
            assert signature(m) == F(0)

    def test_warning_quotes_a_long_name_in_part(self):
        degrees = tuple(10 ** 99 + i for i in (1, 2, 3))
        m = build_proj_bundle(LineBundleSum(1, degrees))  # dim 6, a 309-character name
        with pytest.warns(UserWarning) as record:
            assert signature(m) == F(0)
        message = str(record[0].message)
        assert m.name not in message and message.startswith("'pb:1:[1000") and len(message) < 160

    @pytest.mark.parametrize("call", [signature, ahat, lambda m: evaluate_genus(m, l_sequence(0))],
                             ids=["signature", "ahat", "evaluate_genus"])
    def test_warning_points_at_the_caller(self, call):
        # under the default filter a warning shows once per location, so one
        # inside the library would show once per process
        with pytest.warns(UserWarning) as record:
            call(build_cp(1))
        assert record[0].filename == __file__

    def test_signature_multiplicative(self):
        pairs = [
            (build_cp(2), build_cp(2)),
            (build_cp(2), build_hp(2)),
            (build_hp(2), build_hp(2)),
        ]
        for m1, m2 in pairs:
            assert signature(product(m1, m2)) == signature(m1) * signature(m2)

    def test_ahat_multiplicative(self):
        pairs = [
            (build_cp(2), build_cp(2)),
            (build_cp(2), build_hp(2)),
            (build_cp(4), build_cp(2)),
        ]
        for m1, m2 in pairs:
            assert ahat(product(m1, m2)) == ahat(m1) * ahat(m2)


class TestTwistedAhat:
    def test_cp2_frozen(self):
        assert twisted_ahat_tangent(build_cp(2)) == F(5, 2)

    def test_hp2_frozen(self):
        assert twisted_ahat_tangent(build_hp(2)) == F(-1)

    def test_agrees_with_elliptic_coefficient(self):
        for m in (build_cp(2), build_hp(2), build_cp(4), bundle_12(1)):
            coeffs = elliptic_q_coefficients(m, 1)
            assert coeffs[1] == -twisted_ahat_tangent(m), m.name


class TestEllipticExpansion:
    def test_zeroth_coefficient_is_ahat(self):
        for m in (build_cp(2), build_hp(2), build_cp(4), bundle_12(2)):
            assert elliptic_q_coefficients(m, 0)[0] == ahat(m), m.name

    def test_point_is_one_and_a_fresh_list(self):
        coeffs = elliptic_q_coefficients(build_point(), 2)
        assert coeffs == [F(1), F(0), F(0)]
        coeffs[0] = F(5)  # the caller's list, not a cached series' unit
        assert elliptic_q_coefficients(build_point(), 2) == [F(1), F(0), F(0)]

    def test_vanishes_on_spin_bundle_members(self):
        for c in (2, 4):
            assert elliptic_q_coefficients(bundle_12(c), 3) == [F(0)] * 4

    def test_does_not_vanish_on_non_spin(self):
        coeffs = elliptic_q_coefficients(build_cp(2), 2)
        assert any(coeffs)

    def test_multiplicative_under_products(self):
        # with the q^(k/2) normalization the coefficient lists convolve
        a, b = build_cp(2), build_hp(2)
        ca = elliptic_q_coefficients(a, 2)
        cb = elliptic_q_coefficients(b, 2)
        cab = elliptic_q_coefficients(product(a, b), 2)
        for j in range(3):
            assert cab[j] == sum(ca[i] * cb[j - i] for i in range(j + 1)), j

    def test_multiplicative_second_pair(self):
        a = build_cp(2)
        ca = elliptic_q_coefficients(a, 2)
        cab = elliptic_q_coefficients(product(a, a), 2)
        for j in range(3):
            assert cab[j] == sum(ca[i] * ca[j - i] for i in range(j + 1)), j

    def test_root_and_universal_pipelines_agree(self):
        for m in (bundle_12(1), bundle_12(2), build_cp(2), build_cp(4)):
            seq = _elliptic_sequence(m.real_dimension // 4, 2)
            assert _roots_route(m, seq.source) == _universal_route(m, seq), m.name

    def test_integrality_on_spin_models(self):
        spin_models = (build_hp(1), build_hp(2), bundle_12(2), product(build_hp(1), build_hp(1)))
        for m in spin_models:
            assert m.spin
            for c in elliptic_q_coefficients(m, 2):
                assert c.denominator == 1, m.name

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            elliptic_q_coefficients(build_cp(3), 2)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            elliptic_q_coefficients(build_cp(2), -1)

    def test_default_order_is_quarter_dimension(self):
        coeffs = elliptic_q_coefficients(build_cp(2))
        assert len(coeffs) == 2  # dim 4 -> k = 1 -> orders 0..1


class TestTwistCharacter:
    @pytest.mark.parametrize("q_order", range(7))
    def test_equals_dense_bivariate_product(self, q_order):
        for x2_order in range(8):
            tw = twist_character(q_order, x2_order)
            assert [s.coeffs for s in tw] == ref.twist_character_dense(q_order, x2_order), x2_order


class TestNegativeOrders:
    @pytest.mark.parametrize("build,args,text", [
        (CharacteristicSeries.l_genus, (-3,), "x^2-order must be nonnegative, not -3"),
        (CharacteristicSeries.ahat_genus, (-1,), "x^2-order must be nonnegative, not -1"),
        (CharacteristicSeries.elliptic, (2, -1), "x^2-order must be nonnegative, not -1"),
        (CharacteristicSeries.elliptic, (-1, 2), "q-order must be nonnegative, not -1"),
        (twist_character, (-1, 2), "q-order must be nonnegative, not -1"),
        (twist_character, (2, -1), "x^2-order must be nonnegative, not -1"),
        (_elliptic_sequence, (2, -1), "q-order must be nonnegative, not -1"),
    ], ids=["l_genus", "ahat_genus", "elliptic_x2", "elliptic_q", "twist_q", "twist_x2", "sequence_q"])
    def test_a_negative_order_is_refused(self, build, args, text):
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            build(*args)

    def test_order_zero_is_still_allowed(self):
        assert CharacteristicSeries.l_genus(0).order == 0
        assert CharacteristicSeries.elliptic(0, 0).order == 0


class TestCrossCheck:
    """Every genus runs both routes on every model; a skew in either route
    surfaces as a ConsistencyError carrying the genus's label.  On CP^2
    every one of the four genera is nonzero (see the frozen values above),
    so doubling one route's value always shows.  On models with an HP
    factor A-hat vanishes (A-hat(HP^n) = 0), so a doubling cannot show
    there; the other three genera are nonzero on hp:2 and
    prod(cp:2,hp:2) and take the same negative-multiplicity path."""

    GENERA = {
        "signature": (signature, "^genus pipelines disagree"),
        "ahat": (ahat, "^genus pipelines disagree"),
        "twisted_ahat": (twisted_ahat_tangent, "^twisted A-hat pipelines disagree"),
        "elliptic": (lambda m: elliptic_q_coefficients(m, 2), "^elliptic genus pipelines disagree"),
    }
    ROUTES = {
        # the value on each prime factor, a rational or a q-series
        "roots": (CharacteristicSeries, "evaluate_at", lambda value: value * 2),
        "universal": (MultiplicativeSequence, "evaluate_top", lambda value: value * 2),
    }
    HP_MODELS = {
        "hp:2": lambda: build_hp(2),
        "prod(cp:2,hp:2)": lambda: product(build_cp(2), build_hp(2)),
    }

    def _perturb(self, route, monkeypatch):
        owner, name, double = self.ROUTES[route]
        original = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda self, *args: double(original(self, *args)))

    @pytest.mark.parametrize("genus", GENERA)
    @pytest.mark.parametrize("route", ROUTES)
    def test_perturbed_route_raises(self, route, genus, monkeypatch):
        self._perturb(route, monkeypatch)
        evaluate, label = self.GENERA[genus]
        with pytest.raises(ConsistencyError, match=label):
            evaluate(build_cp(2))

    @pytest.mark.parametrize("genus", ["signature", "twisted_ahat", "elliptic"])
    @pytest.mark.parametrize("route", ROUTES)
    @pytest.mark.parametrize("model", HP_MODELS)
    def test_perturbed_route_raises_with_an_hp_factor(self, model, route, genus, monkeypatch):
        m = self.HP_MODELS[model]()
        self._perturb(route, monkeypatch)
        evaluate, label = self.GENERA[genus]
        with pytest.raises(ConsistencyError, match=label):
            evaluate(m)

    def test_cli_exits_3_on_hp(self, capsys, monkeypatch):
        self._perturb("roots", monkeypatch)
        code = main(["genus", "--manifold", "hp:2", "--which", "sign"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert "internal consistency failure: genus pipelines disagree on hp:2" in captured.err

    @pytest.mark.parametrize("text", ["hp:2", "X12xHP:2:c=1", "prod(hp:1,cp:2)"])
    def test_roots_route_runs_once_per_genus(self, text, monkeypatch):
        calls = []
        original = genera._roots_route
        monkeypatch.setattr(genera, "_roots_route", lambda m, series: calls.append(m.name) or original(m, series))
        m, _ = parse_manifold(text)
        for evaluate, _ in self.GENERA.values():
            evaluate(m)
        assert calls == [m.name] * len(self.GENERA)


class TestQuaternionicRootsRoute:
    """The roots route alone, on the virtual root (4u, -1) of HP^n."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_signature_and_ahat(self, n):
        m = build_hp(n)
        assert _roots_route(m, l_sequence(n).source) == (1 if n % 2 == 0 else 0)
        assert _roots_route(m, ahat_sequence(n).source) == 0

    def test_twisted_ahat_of_hp2(self):
        assert -ref.elliptic_by_roots(build_hp(2), 1)[1] == F(-1)


class TestEvaluateGenusErrors:
    def test_sequence_weight_too_small(self):
        with pytest.raises(ValueError):
            evaluate_genus(build_cp(4), l_sequence(1))


def _library_values():
    """Every public genus on the point and on cp, hp, pb and product
    models, one elliptic span and one family polynomial."""
    models = (build_point(), build_cp(2), build_hp(2), bundle_12(1), product(build_cp(2), build_hp(1)),
              product(build_hp(1), bundle_12(2)))
    values = [(signature(m), ahat(m), twisted_ahat_tangent(m), elliptic_q_coefficients(m, 3)) for m in models]
    functionals, rank = cobordism.elliptic_span(12, 3)
    family = cobordism.family_polynomial(cobordism.standard_family("X12"), cli.parse_functional("sign", 12))
    return values, [repr(f) for f in functionals], rank, family


class TestSeriesStoresLogsOnly:
    """A series keeps log f; f's coefficients are derived on read, and no
    library route reads them, so none pays for the expansion."""

    def test_routes_never_read_coeffs(self, monkeypatch):
        expected = _library_values()

        def refuse(self):
            raise AssertionError(f"coefficients of {self.name} read")

        monkeypatch.setattr(CharacteristicSeries, "coeffs", property(refuse))
        # fresh caches, so every series and sequence is built under the patch
        for module in (genera, cobordism, cli):
            for name, value in vars(module).items():
                if hasattr(value, "cache_clear") and value.__module__ == "ellcob.genera":
                    monkeypatch.setattr(module, name, lru_cache(maxsize=None)(value.__wrapped__))
        assert _library_values() == expected

    @pytest.mark.parametrize("field", CharacteristicSeries.__slots__)
    def test_fields_are_read_only(self, field):
        # a cached power-sum table is keyed by the series object, so no
        # field may change under it
        s = CharacteristicSeries.elliptic(2, 3)
        before = getattr(s, field)
        with pytest.raises(AttributeError, match="read-only"):
            setattr(s, field, before)
        with pytest.raises(AttributeError, match="read-only"):
            delattr(s, field)
        assert getattr(s, field) is before

    @pytest.mark.parametrize("round_trip", [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_copies_rebuild_the_series(self, round_trip):
        s = CharacteristicSeries.elliptic(2, 3)
        t = round_trip(s)
        assert (t.name, t.logs, t.one) == (s.name, s.logs, s.one)

    def test_coeffs_is_read_only(self):
        s = CharacteristicSeries.l_genus(2)
        with pytest.raises(AttributeError):
            s.coeffs = (F(1),) * 3
        assert s.coeffs == (F(1), F(1, 3), F(-1, 45))


class TestCachedSequencesAreReadOnly:
    """l_sequence, ahat_sequence and _elliptic_sequence are cached, so every
    caller shares one sequence: an edit to its fields or tables would
    change every later genus and functional read from it."""

    SEQUENCES = {"L": lambda: l_sequence(3), "ahat": lambda: ahat_sequence(3),
                 "elliptic": lambda: _elliptic_sequence(3, 2)}

    @pytest.mark.parametrize("field", MultiplicativeSequence.__slots__)
    def test_fields_are_read_only(self, field):
        seq = l_sequence(3)
        before = getattr(seq, field)
        with pytest.raises(AttributeError, match="read-only"):
            setattr(seq, field, before)
        with pytest.raises(AttributeError, match="read-only"):
            delattr(seq, field)
        assert getattr(seq, field) is before

    @pytest.mark.parametrize("sequence", SEQUENCES)
    def test_tables_are_read_only(self, sequence):
        seq = self.SEQUENCES[sequence]()
        partition, coeff = next(iter(seq.weights[3].items()))
        with pytest.raises(TypeError):
            seq.weights[3] = {}
        with pytest.raises(TypeError):
            seq.weights[3][partition] = coeff + 1
        with pytest.raises(TypeError):
            del seq.weights[3][partition]
        assert seq.weights[3][partition] == coeff

    def test_sign_functional_is_unchanged(self):
        before = cli.parse_functional("sign", 12)
        table = l_sequence(3).weights[3]
        with pytest.raises(TypeError):
            table[(3,)] = table[(3,)] + 1
        assert cli.parse_functional("sign", 12) == before
        assert before.coefficients[(3,)] == F(62, 945)

    @pytest.mark.parametrize("round_trip", [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
                             ids=["copy", "deepcopy", "pickle"])
    @pytest.mark.parametrize("sequence", SEQUENCES)
    def test_copies_evaluate_alike(self, sequence, round_trip):
        seq = self.SEQUENCES[sequence]()
        copied = round_trip(seq)
        assert (copied.name, copied.max_weight, copied.weights) == (seq.name, seq.max_weight, seq.weights)
        for m in (build_hp(3), bundle_12(2), product(build_cp(2), build_hp(2))):
            numbers = dict(zip(seq.weights[3], pontryagin_products(m, seq.weights[3])))
            assert copied.evaluate_top(numbers, 3) == seq.evaluate_top(numbers, 3), m.name


def _parallelizable_s2_s2() -> ManifoldModel:
    """S^2 x S^2 with a stably trivial tangent bundle: no Pontryagin roots."""
    ring = RingSpec([("a", 2), ("b", 2)], 4, {"a": (2, {}), "b": (2, {})})
    return ManifoldModel("s2xs2", 4, ring, [], ring.element({(1, 1): 1}), spin=True)


class TestModelWithoutRoots:
    """A model with no Pontryagin roots has every Pontryagin class zero, so
    every genus vanishes on it in positive dimension, alone or as a
    product factor; only the point has the genus f(0) = 1."""

    @pytest.mark.parametrize("build", [_parallelizable_s2_s2, lambda: product(_parallelizable_s2_s2(), build_cp(2))],
                             ids=["alone", "times_cp2"])
    def test_every_genus_vanishes(self, build):
        m = build()
        assert signature(m) == ahat(m) == twisted_ahat_tangent(m) == 0
        assert elliptic_q_coefficients(m, 3) == [0] * 4

    @pytest.mark.parametrize("series", [CharacteristicSeries.l_genus(2), CharacteristicSeries.elliptic(3, 2)],
                             ids=["L", "elliptic"])
    @pytest.mark.parametrize("build", [_parallelizable_s2_s2, lambda: product(_parallelizable_s2_s2(), build_cp(2))],
                             ids=["alone", "times_cp2"])
    def test_oracle_agrees_with_the_roots_route(self, build, series):
        m = build()
        value = _roots_route(m, series)
        assert ref.genus_on_own_ring(m, series) == value == series.logs[0]
        assert not value

    def test_oracle_gives_the_point_its_unit(self):
        series = CharacteristicSeries.elliptic(3, 2)
        assert ref.genus_on_own_ring(build_point(), series) == _roots_route(build_point(), series) == series.one
