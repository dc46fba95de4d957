"""Command-line layer: both expression grammars, canonical output,
and exit-code policy.

Golden outputs below were captured from the library calls the commands
wrap and then frozen byte-for-byte; the CLI is a thin adapter, so any
drift in these bytes is a real interface change.
"""
import contextlib
import csv
import io
import json
import re
import sys
import warnings
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from ellcob.cli import _poly_string, entrypoint, main, parse_functional, parse_manifold
from ellcob.cobordism import Partition, genus_as_functional, partitions_of, pontryagin_numbers, standard_family
from ellcob.errors import ConsistencyError, FunctionalParseError
from ellcob.genera import ahat, elliptic_q_coefficients, signature

F = Fraction


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFunctionalGrammar:
    def test_single_monomial(self):
        f = parse_functional("p3", 12)
        assert f.coefficients == {Partition((3,)): F(1)}

    def test_rational_prefix_and_products(self):
        f = parse_functional("45*p1*p2 - 1/3 * p1^3", 12)
        assert f.coefficients == {
            Partition((2, 1)): F(45),
            Partition((1, 1, 1)): F(-1, 3),
        }

    def test_leading_minus(self):
        f = parse_functional("-p3", 12)
        assert f.coefficients == {Partition((3,)): F(-1)}

    def test_whitespace_insignificant(self):
        assert (
            parse_functional("  2 * p1 ^ 3+p3", 12).coefficients
            == parse_functional("2*p1^3 + p3", 12).coefficients
        )
        assert parse_functional("3 /4 * p1 ^ 3", 12) == parse_functional("3/4*p1^3", 12)
        assert parse_functional("ell [ 2 ] - 2 * p1 ^3", 12) == parse_functional("ell[2]-2*p1^3", 12)

    def test_named_genera_resolve(self):
        assert (
            parse_functional("sign", 12).as_row()
            == genus_as_functional(signature, 12).as_row()
        )
        assert (
            parse_functional("ell[0]", 12).as_row()
            == genus_as_functional(ahat, 12).as_row()
        )

    def test_mixed_expression(self):
        f = parse_functional("sign - 45*p1*p2", 12)
        assert f.coefficients[Partition((2, 1))] == F(-13, 945) - 45

    def test_terms_accumulate(self):
        f = parse_functional("p3 + p3 - 2*p3", 12)
        assert f.coefficients == {}

    def test_weight_mismatch_message_and_position(self):
        with pytest.raises(FunctionalParseError, match="weight 2.*needs 3"):
            parse_functional("p1^2", 12)
        try:
            parse_functional("p3 + p1^2", 12)
        except FunctionalParseError as exc:
            assert exc.position == 5
        else:
            pytest.fail("expected a parse error")

    def test_genus_must_stand_alone(self):
        with pytest.raises(FunctionalParseError, match="stand alone"):
            parse_functional("sign*p1", 4)

    def test_unknown_atom_position(self):
        try:
            parse_functional("p1 + junk", 4)
        except FunctionalParseError as exc:
            assert exc.position == 5
        else:
            pytest.fail("expected a parse error")

    def test_dangling_operator(self):
        with pytest.raises(FunctionalParseError):
            parse_functional("p1 +", 4)

    def test_zero_denominator(self):
        with pytest.raises(FunctionalParseError):
            parse_functional("1/0*p1", 4)

    def test_bad_dimension(self):
        with pytest.raises(FunctionalParseError):
            parse_functional("p1", 6)

    @pytest.mark.parametrize("text,message", [
        ("3 p3", "expected '*' in '3 p3' (at position 2)"),
        ("- p3 p1", "expected '+' or '-' in '- p3 p1' (at position 5)"),
        (" - sign * p1", "a named genus must stand alone in its term in ' - sign * p1' (at position 2)"),
        ("p1*p1 *sign", "a named genus must stand alone in its term in 'p1*p1 *sign' (at position 0)"),
        ("3 / 0 * p3", "zero denominator in '3 / 0 * p3' (at position 5)"),
        ("p3 +", "unknown atom '' in 'p3 +' (at position 4)"),
    ], ids=["coefficient", "sign", "leading_sign_genus", "trailing_genus", "denominator", "dangling"])
    def test_whitespace_error_lines(self, capsys, text, message):
        # a term starts where its sign ends, before any whitespace; other errors sit past the whitespace
        code, out, err = run(capsys, ["member", "--dim", "12", f"--functional={text}"])
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    def test_span_output_round_trips(self):
        from ellcob.cobordism import elliptic_span

        span, _ = elliptic_span(12, 3)
        for f in span:
            again = parse_functional(f.to_expression(), 12)
            assert again.as_row() == f.as_row()


class TestManifoldGrammar:
    def test_descriptors(self):
        for text, dim in [
            ("cp:3", 6),
            ("hp:2", 8),
            ("pb:3:[2,0,0,0]", 12),
            ("prod(cp:2,cp:2)", 8),
            ("prod(X12:c=2, hp:2)", 20),
            ("X12:c=2", 12),
            ("Y16:c=-1", 16),
            ("Z20:c=4", 20),
            ("X12xHP:2:c=2", 20),
        ]:
            m, _ = parse_manifold(text)
            assert m.real_dimension == dim, text

    def test_spin_parity_warnings(self):
        _, warnings = parse_manifold("X12:c=3")
        assert warnings and "not spin" in warnings[0]
        _, warnings = parse_manifold("Y16:c=3")
        assert not warnings
        _, warnings = parse_manifold("Z20:c=1")
        assert warnings
        _, warnings = parse_manifold("X12xHP:2:c=1")
        assert warnings

    def test_nested_products(self):
        m, _ = parse_manifold("prod(prod(cp:2,cp:2),cp:2)")
        assert m.real_dimension == 12

    def test_garbage_rejected(self):
        for text in ("nonsense", "cp:", "pb:3:[", "prod(cp:2", "cp:2 extra"):
            with pytest.raises(FunctionalParseError):
                parse_manifold(text)


GOLDEN_PONTRYAGIN = (
    '{\n  "dimension": 12,\n  "manifold": "pb:3:[2,0,0,0]",\n  "values": {\n'
    '    "p1*p2": "-48",\n    "p1^3": "-64",\n    "p3": "-8"\n  }\n}\n'
)

GOLDEN_ELLIPTIC = (
    '{\n  "coefficients": [\n    "0",\n    "0",\n    "0",\n    "0"\n  ],\n'
    '  "dimension": 12,\n  "manifold": "pb:3:[2,0,0,0]",\n'
    '  "normalization": "coefficients of q^(k/2)*phi, k = dim/4",\n  "q_order": 3\n}\n'
)

GOLDEN_MEMBER = (
    '{\n  "dimension": 12,\n  "functional": {\n    "coefficients": {\n'
    '      "p3": "1"\n    },\n    "expression": "p3"\n  },\n  "in_span": false,\n'
    '  "q_order": 3,\n  "span_rank": 2,\n  "verdict": "not-in-span"\n}\n'
)

GOLDEN_SPIN = '{\n  "manifold": "hp:2",\n  "spin": true\n}\n'

GOLDEN_GENUS = (
    '{\n  "dimension": 4,\n  "genus": "ahat",\n  "manifold": "cp:2",\n'
    '  "value": "-1/8"\n}\n'
)

GOLDEN_SPAN = """\
{
  "dimension": 12,
  "functionals": [
    {
      "coefficients": {
        "p1*p2": "11/241920",
        "p1^3": "-31/967680",
        "p3": "-1/60480"
      },
      "expression": "-31/967680*p1^3 + 11/241920*p1*p2 - 1/60480*p3"
    },
    {
      "coefficients": {
        "p1*p2": "31/20160",
        "p1^3": "-11/80640",
        "p3": "-41/5040"
      },
      "expression": "-11/80640*p1^3 + 31/20160*p1*p2 - 41/5040*p3"
    },
    {
      "coefficients": {
        "p1*p2": "899/40320",
        "p1^3": "521/161280",
        "p3": "-1609/10080"
      },
      "expression": "521/161280*p1^3 + 899/40320*p1*p2 - 1609/10080*p3"
    },
    {
      "coefficients": {
        "p1*p2": "3893/30240",
        "p1^3": "-18073/120960",
        "p3": "3197/7560"
      },
      "expression": "-18073/120960*p1^3 + 3893/30240*p1*p2 + 3197/7560*p3"
    }
  ],
  "q_order": 3,
  "rank": 2
}
"""

GOLDEN_SCAN = """\
{
  "dimension": 12,
  "family": "X12",
  "functional": {
    "coefficients": {
      "p3": "1"
    },
    "expression": "p3"
  },
  "polynomial": [
    "0",
    "0",
    "0",
    "-8"
  ],
  "polynomial_string": "-8*c^3",
  "substitution": "c -> 2c (spin)",
  "values": [
    {
      "c": 1,
      "value": "-8"
    },
    {
      "c": 2,
      "value": "-64"
    },
    {
      "c": 3,
      "value": "-216"
    }
  ]
}
"""

GOLDEN_VERDICT = """\
{
  "dimension": 12,
  "families": {
    "X12": {
      "polynomial": [
        "0",
        "0",
        "0",
        "-8"
      ],
      "polynomial_string": "-8*c^3",
      "substitution": "c -> 2c (spin)"
    }
  },
  "functional": {
    "coefficients": {
      "p3": "1"
    },
    "expression": "p3"
  },
  "verdict": "unbounded",
  "witness": "X12",
  "witness_polynomial": [
    "0",
    "0",
    "0",
    "-8"
  ]
}
"""

GOLDEN_DISTINCT = """\
{
  "collisions": [],
  "dimension": 20,
  "distinct": true,
  "family": "X12xHP:2",
  "range": [
    1,
    4
  ],
  "separators": [
    {
      "pair": [
        1,
        2
      ],
      "partition": "p1^5"
    },
    {
      "pair": [
        1,
        3
      ],
      "partition": "p1^5"
    },
    {
      "pair": [
        1,
        4
      ],
      "partition": "p1^5"
    },
    {
      "pair": [
        2,
        3
      ],
      "partition": "p1^5"
    },
    {
      "pair": [
        2,
        4
      ],
      "partition": "p1^5"
    },
    {
      "pair": [
        3,
        4
      ],
      "partition": "p1^5"
    }
  ],
  "substitution": "c -> 2c (spin)"
}
"""


class TestGoldenOutputs:
    def test_pontryagin(self, capsys):
        code, out, _ = run(capsys, ["pontryagin", "--manifold", "X12:c=2"])
        assert code == 0 and out == GOLDEN_PONTRYAGIN

    def test_elliptic(self, capsys):
        code, out, _ = run(capsys, ["elliptic", "--manifold", "X12:c=2", "--q-order", "3"])
        assert code == 0 and out == GOLDEN_ELLIPTIC

    def test_member(self, capsys):
        code, out, _ = run(capsys, ["member", "--dim", "12", "-f", "p3"])
        assert code == 0 and out == GOLDEN_MEMBER

    def test_spin(self, capsys):
        code, out, _ = run(capsys, ["spin", "--manifold", "hp:2"])
        assert code == 0 and out == GOLDEN_SPIN

    def test_genus(self, capsys):
        code, out, _ = run(capsys, ["genus", "--manifold", "cp:2", "--which", "ahat"])
        assert code == 0 and out == GOLDEN_GENUS

    @pytest.mark.parametrize("argv,golden", [
        (["span", "--dim", "12", "--q-order", "3"], GOLDEN_SPAN),
        (["scan", "--family", "X12", "-f", "p3", "--range", "1..3"], GOLDEN_SCAN),
        (["verdict", "--dim", "12", "-f", "p3"], GOLDEN_VERDICT),
        (["distinct", "--family", "X12xHP:2", "--range", "1..4"], GOLDEN_DISTINCT),
    ], ids=["span", "scan", "verdict", "distinct"])
    def test_family_and_span_commands(self, capsys, argv, golden):
        assert run(capsys, argv) == (0, golden, "")

    def test_byte_identical_repeat(self, capsys):
        _, first, _ = run(capsys, ["span", "--dim", "12", "--q-order", "2"])
        _, second, _ = run(capsys, ["span", "--dim", "12", "--q-order", "2"])
        assert first == second

    def test_pontryagin_csv(self, capsys):
        code, out, _ = run(capsys, ["pontryagin", "--manifold", "X12:c=2", "--csv"])
        assert code == 0 and out == "p1^3,p1*p2,p3\n-64,-48,-8\n"

    def test_elliptic_csv(self, capsys):
        code, out, _ = run(
            capsys, ["elliptic", "--manifold", "hp:1", "--q-order", "1", "--csv"]
        )
        assert code == 0 and out.splitlines()[0] == "q^0,q^1"

    def test_scan_csv(self, capsys):
        code, out, _ = run(
            capsys, ["scan", "--family", "X12", "-f", "p3", "--range", "1..2", "--csv"]
        )
        assert code == 0 and out == "c,value\n1,-8\n2,-64\n"


def _csv_writer_text(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


class TestCsvRendering:
    """--csv output equals what csv.writer renders for the same header and rows."""

    @pytest.mark.parametrize("text", ["Y16:c=-3", "pb:2:[1,-1,2]", "prod(cp:2,hp:1)"])
    def test_pontryagin(self, capsys, text):
        vec = pontryagin_numbers(parse_manifold(text)[0])
        header = [I.key() for I in partitions_of(vec.dimension // 4)]
        expected = _csv_writer_text(header, [[str(v) for v in vec.as_row()]])
        assert run(capsys, ["pontryagin", "--manifold", text, "--csv"]) == (0, expected, "")

    @pytest.mark.parametrize("text", ["pb:2:[1,-1,2]", "cp:2", "prod(cp:2,pb:1:[1,-2])"])
    def test_elliptic(self, capsys, text):
        coeffs = elliptic_q_coefficients(parse_manifold(text)[0], 4)
        expected = _csv_writer_text([f"q^{j}" for j in range(5)], [[str(c) for c in coeffs]])
        assert run(capsys, ["elliptic", "--manifold", text, "--q-order", "4", "--csv"]) == (0, expected, "")

    @pytest.mark.parametrize("family,text", [("X12", "1/3*p3 - 2/5*p1^3"), ("Y16", "sign - 3/7*p2^2")])
    def test_scan(self, capsys, family, text):
        fam = standard_family(family)
        f = parse_functional(text, fam.dimension)
        rows = [[str(c), str(f.evaluate(pontryagin_numbers(fam.build(c))))] for c in range(-3, 4)]
        expected = _csv_writer_text(["c", "value"], rows)
        assert run(capsys, ["scan", "--family", family, "-f", text, "--range=-3..3", "--csv"]) == (0, expected, "")


class TestCommandBehaviour:
    def test_verdict_unbounded(self, capsys):
        code, out, _ = run(capsys, ["verdict", "--dim", "12", "-f", "p3"])
        payload = json.loads(out)
        assert code == 0
        assert payload["verdict"] == "unbounded"
        assert payload["witness"] == "X12"
        assert payload["witness_polynomial"] == ["0", "0", "0", "-8"]
        assert payload["families"]["X12"]["substitution"] == "c -> 2c (spin)"

    def test_verdict_bounded(self, capsys):
        code, out, _ = run(capsys, ["verdict", "--dim", "12", "-f", "sign"])
        payload = json.loads(out)
        assert code == 0 and payload["verdict"] == "bounded_on_families"
        assert payload["witness"] is None

    def test_member_in_span(self, capsys):
        code, out, _ = run(capsys, ["member", "--dim", "12", "--f", "sign"])
        payload = json.loads(out)
        assert code == 0 and payload["verdict"] == "in-span"

    def test_member_not_in_span_dim16(self, capsys):
        code, out, _ = run(capsys, ["member", "--dim", "16", "-f", "p1^4"])
        payload = json.loads(out)
        assert code == 0 and payload["verdict"] == "not-in-span"

    def test_span_rank(self, capsys):
        code, out, _ = run(capsys, ["span", "--dim", "16", "--q-order", "4"])
        payload = json.loads(out)
        assert code == 0 and payload["rank"] == 3
        assert len(payload["functionals"]) == 5

    def test_scan_values_and_polynomial(self, capsys):
        code, out, _ = run(
            capsys, ["scan", "--family", "Y16", "--f", "p4", "--range", "1..3"]
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["polynomial"] == ["0", "0", "0", "288"]
        assert payload["polynomial_string"] == "288*c^3"
        assert payload["values"] == [
            {"c": 1, "value": "288"},
            {"c": 2, "value": "2304"},
            {"c": 3, "value": "7776"},
        ]

    @pytest.mark.parametrize("coeffs,text", [
        ([0], "0"),
        ([-3], "-3"),
        ([1], "1"),
        ([0, 1], "c"),
        ([0, -1], "-c"),
        ([F(-1, 2), 0, 1], "c^2 - 1/2"),
        ([2, -1, 0, 288], "288*c^3 - c + 2"),
    ])
    def test_polynomial_string(self, coeffs, text):
        assert _poly_string([F(c) for c in coeffs]) == text

    def test_distinct(self, capsys):
        code, out, _ = run(capsys, ["distinct", "--family", "X12", "--range", "1..4"])
        payload = json.loads(out)
        assert code == 0 and payload["distinct"] is True
        assert payload["collisions"] == []
        assert {"pair": [1, 2], "partition": "p1^3"} in payload["separators"]

    def test_warning_goes_to_stderr(self, capsys):
        code, out, err = run(capsys, ["spin", "--manifold", "X12:c=3"])
        assert code == 0 and "not spin" in err and "not spin" not in out

    def test_quiet_suppresses_warning(self, capsys):
        _, _, err = run(capsys, ["spin", "--manifold", "X12:c=3", "--quiet"])
        assert err == ""


class TestExitCodes:
    def test_parse_error_is_2(self, capsys):
        code, _, err = run(capsys, ["member", "--dim", "12", "-f", "p1^2"])
        assert code == 2 and "weight" in err

    def test_bad_manifold_is_2(self, capsys):
        code, _, err = run(capsys, ["pontryagin", "--manifold", "bogus"])
        assert code == 2 and "descriptor" in err

    def test_validation_error_is_2(self, capsys):
        # dimension 6 has no Pontryagin numbers
        code, _, err = run(capsys, ["pontryagin", "--manifold", "cp:3"])
        assert code == 2

    def test_bad_range_is_2(self, capsys):
        code, _, _ = run(capsys, ["scan", "--family", "X12", "-f", "p3", "--range", "5"])
        assert code == 2

    def test_unknown_family_is_2(self, capsys):
        code, _, _ = run(capsys, ["distinct", "--family", "W24", "--range", "1..2"])
        assert code == 2

    def test_argparse_error_is_2(self, capsys):
        code, _, _ = run(capsys, ["no-such-command"])
        assert code == 2

    @pytest.mark.parametrize("argv,code", [(["spin", "--manifold", "cp:2"], 0), (["spin", "--manifold", "cp:0"], 2)])
    def test_console_script_exits_with_mains_code(self, capsys, monkeypatch, argv, code):
        # the ellcob console script of pyproject.toml
        monkeypatch.setattr(sys, "argv", ["ellcob", *argv])
        with pytest.raises(SystemExit) as exc:
            entrypoint()
        assert exc.value.code == code
        assert capsys.readouterr().err.startswith("error: ") == (code == 2)

    def test_help_is_0(self, capsys):
        code, _, _ = run(capsys, ["--help"])
        assert code == 0

    @pytest.mark.parametrize("command,flags", [
        ("pontryagin", ["--manifold", "--quiet", "--csv"]),
        ("genus", ["--manifold", "--quiet", "--which"]),
        ("elliptic", ["--manifold", "--quiet", "--q-order", "--csv"]),
        ("spin", ["--manifold", "--quiet"]),
        ("span", ["--dim", "--q-order"]),
        ("member", ["--dim", "-f", "--f", "--functional", "--q-order"]),
        ("scan", ["--family", "-f", "--f", "--functional", "--range", "--csv"]),
        ("verdict", ["--dim", "-f", "--f", "--functional"]),
        ("distinct", ["--family", "--range"]),
    ])
    def test_subcommand_help_names_its_flags(self, capsys, command, flags):
        code, out, err = run(capsys, [command, "--help"])
        assert code == 0 and err == ""
        assert set(re.findall(r"(?<![\w-])--?[a-z][a-z-]*", out)) == {"-h", "--help", *flags}

    def test_json_flag_is_refused(self, capsys):
        # JSON is the default output; there is no flag for it
        code, out, err = run(capsys, ["pontryagin", "--manifold", "cp:2", "--json"])
        assert code == 2 and out == ""
        assert err.endswith("ellcob: error: unrecognized arguments: --json\n")

    @pytest.mark.parametrize("dim", ["0", "6", "-4"])
    @pytest.mark.parametrize(
        "argv,subject",
        [(["span"], "the elliptic span needs"), (["member", "-f", "p1"], "functionals need")],
        ids=["span", "member"],
    )
    def test_dimension_not_positive_multiple_of_4_is_2(self, capsys, argv, subject, dim):
        code, out, err = run(capsys, argv + ["--dim", dim])
        assert code == 2 and out == ""
        assert err == f"error: {subject} a positive dimension divisible by 4, not {dim}\n"

    @pytest.mark.parametrize("which", ["sign", "ahat", "ahat_t"])
    @pytest.mark.parametrize("n", [1, 3])
    def test_genus_dimension_not_multiple_of_4_is_2(self, capsys, n, which):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a UserWarning would escape main() and fail here
            code, out, err = run(capsys, ["genus", "--manifold", f"cp:{n}", "--which", which])
        assert code == 2 and out == ""
        assert err == f"error: cp:{n} has dimension {2 * n}; the genus {which} needs a multiple of 4\n"

    def test_elliptic_pipeline_disagreement_is_3(self, capsys, monkeypatch):
        from ellcob.genera import CharacteristicSeries

        # every q-coefficient doubled; every X12 genus vanishes, so the model is CP^2
        original = CharacteristicSeries.evaluate_at
        monkeypatch.setattr(CharacteristicSeries, "evaluate_at", lambda series, m: original(series, m) * 2)
        code, out, err = run(capsys, ["elliptic", "--manifold", "cp:2"])
        assert code == 3 and out == ""
        assert "internal consistency failure: elliptic genus pipelines disagree" in err

    @pytest.mark.parametrize("exponent", ["1000000000000", "99999999999999999999"])
    def test_huge_exponent_is_2(self, capsys, exponent):
        # rejected by weight before a parts list as long as the exponent exists
        code, out, err = run(capsys, ["member", "--dim", "12", f"--functional=p1^{exponent}"])
        assert code == 2 and out == ""
        assert err == f"error: p1^{exponent} has weight {exponent}, dim 12 needs 3 in 'p1^{exponent}' (at position 0)\n"

    @pytest.mark.parametrize("argv,message", [
        (["member", "--dim", "12", "-f", "p\u00b2"], "unknown atom 'p\u00b2' in 'p\u00b2' (at position 0)"),
        (["pontryagin", "--manifold", "cp:\u00b2"], "expected an integer in 'cp:\u00b2' (at position 3)"),
        (["scan", "--family", "X12", "-f", "p3", "--range=1_0..1_1"], "expected '..' in '1_0..1_1' (at position 1)"),
        (["scan", "--family", "X12", "-f", "p3", "--range=\u0661..\u0662"],
         "expected an integer in '\u0661..\u0662' (at position 0)"),
        (["span", "--dim", "1_2", "--q-order", "\u0661"], "trailing input after integer in '1_2' (at position 1)"),
        (["span", "--dim", "12", "--q-order", "\u0661"], "expected an integer in '\u0661' (at position 0)"),
        (["distinct", "--family", "X12xHP:1_0", "--range=1..2"], "bad quaternionic factor in family name 'X12xHP:1_0'"),
    ], ids=["functional", "manifold", "range_underscore", "range_arabic_indic", "dim", "q_order", "family"])
    def test_non_ascii_digit_is_2(self, capsys, argv, message):
        # '\u00b2' (superscript two) passes str.isdigit() but not int(); int()
        # takes '1_0' and '\u0661' (Arabic-Indic one), which the CLI refuses
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    def test_consistency_error_is_3(self, capsys, monkeypatch):
        def boom(_):
            raise ConsistencyError("pipelines disagreed")

        monkeypatch.setattr("ellcob.cli.pontryagin_numbers", boom)
        code, _, err = run(capsys, ["pontryagin", "--manifold", "cp:2"])
        assert code == 3 and "consistency" in err

    def test_scan_value_off_the_fitted_polynomial_is_3(self, capsys, monkeypatch):
        from ellcob.cobordism import FamilySpec, x12

        # the member at c = -2 is x12(-2), not x12(-4); the fit reads c = 1..5 only
        wrong = FamilySpec("X12", 12, lambda c: x12(-2 if c == -2 else 2 * c), "c -> 2c (spin)", 3)
        monkeypatch.setattr("ellcob.cli.standard_family", lambda name: wrong)
        code, out, _ = run(capsys, ["scan", "--family", "X12", "-f", "p3", "--range=-1..1"])
        assert code == 0 and json.loads(out)["polynomial"] == ["0", "0", "0", "-8"]
        code, out, err = run(capsys, ["scan", "--family", "X12", "-f", "p3", "--range=-3..0"])
        assert code == 3 and out == ""
        assert err == "internal consistency failure: family X12 at c = -2 has value 8, its polynomial gives 64\n"

    def test_scan_builds_each_member_once(self, capsys, monkeypatch):
        from ellcob.cobordism import FamilySpec

        z20 = standard_family("Z20")
        built = []

        def counting(c):
            built.append(c)
            return z20.builder(c)

        counted = FamilySpec(z20.name, z20.dimension, counting, z20.substitution, z20.max_degree)
        monkeypatch.setattr("ellcob.cli.standard_family", lambda name: counted)
        code, _, _ = run(capsys, ["scan", "--family", "Z20", "-f", "p5", "--range", "1..9"])
        assert code == 0 and sorted(built) == list(range(1, 10))
        built.clear()  # nothing outlives the request: a second scan builds again
        assert run(capsys, ["scan", "--family", "Z20", "-f", "p5", "--range", "1..2"])[0] == 0
        assert sorted(built) == list(range(1, z20.max_degree + 3))

    def test_scan_computes_each_member_once(self, capsys, monkeypatch):
        # the fit's samples c = 1..max_degree+2 lie in the range here, so each is paired for both
        import ellcob.cobordism as cobordism

        paired, original = [], cobordism.pontryagin_products
        monkeypatch.setattr(cobordism, "pontryagin_products",
                            lambda m, partitions: paired.append(m) or original(m, partitions))
        code, _, _ = run(capsys, ["scan", "--family", "X12xHP:5", "-f", "p1^8", "--range=0..10"])
        samples = range(1, standard_family("X12xHP:5").max_degree + 3)
        assert code == 0 and len(paired) == len({*range(11), *samples}) == 11


def _exit_is_0_or_2(argv):
    """main(argv) exits 0, or 2 with exactly one 'error: ' line; every stderr
    line stays under 250 bytes of UTF-8 either way."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2)
    lines = err.getvalue().splitlines()
    if code == 2:
        assert len(lines) == 1 and lines[0].startswith("error: ")
    assert all(len(line.encode()) < 250 for line in lines) and "set_int_max_str_digits" not in err.getvalue()


# digit runs of 4000-5000 digits: past any limit, and past int()'s own 4300
# for most draws, so each must be refused before int() reads it
_OVERLONG = st.builds(str.__mul__, st.sampled_from("019"), st.integers(4000, 5000))

# -f strings: well-formed expressions, and soups of grammar tokens and
# junk.  A ']' only closes an ell[j] token with j <= 8, so no string asks
# for a large q-order.
_NUMBER = st.one_of(st.integers(0, 10 ** 25).map(str), _OVERLONG)
_GENUS = st.one_of(st.sampled_from(["sign", "ahat", "ahat_t"]), st.builds("ell[{}]".format, st.integers(0, 8)))
_PONTRYAGIN = st.one_of(
    st.builds("p{}".format, st.integers(1, 5)),
    st.builds("p{}^{}".format, st.integers(1, 5), st.integers(1, 5)),
    st.builds("p{}^{}".format, _NUMBER, _NUMBER),
)
_MONOMIAL = st.lists(_PONTRYAGIN, min_size=1, max_size=3).map("*".join)
_COEFFICIENT = st.one_of(st.just(""), st.builds("{}*".format, _NUMBER), st.builds("{}/{}*".format, _NUMBER, _NUMBER))
_TERM = st.builds("{}{}".format, _COEFFICIENT, st.one_of(_GENUS, _MONOMIAL))
_EXPRESSION = st.lists(st.tuples(st.sampled_from(["", "+", "-", " - "]), _TERM), min_size=1, max_size=4).map(
    lambda terms: "".join(sign + term for sign, term in terms)
)
_TOKEN = st.one_of(
    st.sampled_from(["p", "^", "*", "/", "+", "-", " ", "[", "sign", "ahat", "ahat_t", "ell"]),
    _NUMBER,
    st.builds("p{}".format, _NUMBER),
    st.builds("p{}^{}".format, _NUMBER, _NUMBER),
    st.builds("ell[{}]".format, st.integers(0, 8)),
    st.characters(blacklist_categories=("Cs",), blacklist_characters="]"),
)


class TestFunctionalFuzz:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        command=st.sampled_from(["member", "verdict"]),
        dim=st.sampled_from([12, 16, 20]),
        text=st.one_of(_EXPRESSION, st.lists(_TOKEN, max_size=10).map("".join)),
    )
    @example(command="member", dim=12, text="p1^99999999999999999999")
    @example(command="verdict", dim=16, text="p\u00b2")
    @example(command="member", dim=20, text="3/4*ell[8] - 10000000000000000000000000*p5")
    @example(command="member", dim=12, text="\u00e9" * 3000)
    @example(command="member", dim=12, text="\t" * 40 + "x" * 200)
    @example(command="member", dim=16, text="p1" + "\u3000" * 30 + "*p1")
    @example(command="member", dim=16, text="p1\n*p1")
    @example(command="member", dim=16, text="p1\r*p1")
    @example(command="member", dim=16, text="p1\u0085*p1")
    @example(command="member", dim=16, text="p1\u2028*p1")
    def test_exit_is_0_or_2(self, command, dim, text):
        _exit_is_0_or_2([command, "--dim", str(dim), f"--functional={text}"])

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        command=st.sampled_from(["member", "verdict"]),
        dim=st.sampled_from([12, 16, 20]),
        terms=st.lists(
            st.tuples(st.sampled_from([1, -1, 10 ** 99]), st.integers(10 ** 98, 10 ** 100).map(lambda n: n | 1)),
            min_size=20, max_size=60, unique_by=lambda term: term[1],
        ),
    )
    @example(command="member", dim=12, terms=[(1, 10 ** 99 + 2 * i + 1) for i in range(50)])
    def test_long_sums_exit_0_or_2(self, command, dim, terms):
        # distinct odd denominators of 99-100 digits: from about 44 terms on one partition their lcm
        # passes int()'s 4300-digit limit
        text = " + ".join(f"{a}/{d}*p{dim // 4}" for a, d in terms)
        _exit_is_0_or_2([command, "--dim", str(dim), f"--functional={text}"])


def _argparse_error_is_2(argv):
    """main(argv) exits 2 with argparse's usage and error lines, each under 250 bytes."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 2 and err.getvalue().startswith("usage: ")
    assert all(len(line.encode()) < 250 for line in err.getvalue().splitlines())


# argv that argparse itself refuses: a valid request for each command plus a
# long --which value, a stray positional token or an unknown --flag, drawn
# from printable ASCII and from every character but surrogates, so that
# escapes and wide characters meet the byte bound of each quoted excerpt.
_VALID = {
    "pontryagin": ["--manifold=cp:2"], "genus": ["--manifold=cp:2", "--which=sign"],
    "elliptic": ["--manifold=cp:2"], "spin": ["--manifold=cp:2"], "span": ["--dim=12"],
    "member": ["--dim=12", "-f", "p3"], "scan": ["--family=X12", "-f", "p3", "--range=0..1"],
    "verdict": ["--dim=12", "-f", "p3"], "distinct": ["--family=X12", "--range=0..1"],
}
_LONG = st.text(st.one_of(st.characters(min_codepoint=0x20, max_codepoint=0x7E),
                          st.characters(blacklist_categories=("Cs",))),
                min_size=100, max_size=5000)
_STRAY = st.one_of(
    st.builds("--which={}".format, _LONG),
    _LONG.filter(lambda text: not text.startswith("-")),
    st.builds("--{}".format, _LONG.map(lambda text: text.replace("=", "_"))),
)


# --range, --family, --dim and --q-order strings.  Well-formed draws stay
# cheap (|c| <= 4, dims 12/16/20, q-order <= 8); the rest are near misses
# and digit-free junk, so no string asks for a large model or order.
_JUNK = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="0123456789"), max_size=6)
_BAD_INT = st.sampled_from(["", "-", "+1", " 1", "1_0", "\u0661", "4\u00b2", "1.5", "0x1", "--1"])
_BOUND = st.one_of(st.integers(-4, 4).map(str), _BAD_INT, _OVERLONG)
_RANGE = st.one_of(
    st.builds("{}{}{}".format, _BOUND, st.sampled_from(["..", ".", "...", "", " .. "]), _BOUND),
    _JUNK,
)
_FAMILY = st.one_of(
    st.sampled_from(["X12", "Y16", "Z20", "X12xHP:1", "X12xHP:2", "X12xHP:01"]),
    st.builds("X12xHP:{}".format, st.one_of(_BAD_INT, st.just("0"), _JUNK, _OVERLONG)),
    _JUNK,
    _OVERLONG,
)
_DIM = st.one_of(st.sampled_from(["12", "16", "20", "0", "6", "-4"]), _BAD_INT, _JUNK, _OVERLONG)
_Q_ORDER = st.one_of(st.none(), st.integers(-1, 8).map(str), _BAD_INT, _JUNK, _OVERLONG)


class TestArgumentFuzz:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(command=st.sampled_from(["scan", "distinct"]), family=_FAMILY, text=_RANGE)
    @example(command="scan", family="X12", text="1_0..1_1")
    @example(command="distinct", family="X12xHP:1_0", text="1..2")
    @example(command="scan", family="X12xHP:2", text="-4..4")
    @example(command="distinct", family="X12xHP:" + "0" * 4400 + "1", text="1..2")
    def test_range_and_family(self, command, family, text):
        argv = [command, f"--family={family}", f"--range={text}"]
        _exit_is_0_or_2(argv + (["-f", "sign"] if command == "scan" else []))

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(dim=_DIM, q_order=_Q_ORDER)
    @example(dim="1_2", q_order="\u0661")
    @example(dim="12", q_order="\u0661")
    @example(dim="20", q_order="8")
    def test_dim_and_q_order(self, dim, q_order):
        _exit_is_0_or_2(["span", f"--dim={dim}"] + ([] if q_order is None else [f"--q-order={q_order}"]))


class TestArgparseFuzz:
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(command=st.sampled_from(sorted(_VALID)), stray=_STRAY)
    @example(command="genus", stray="--which=" + "x" * 3000)
    @example(command="spin", stray="y" * 3000)
    @example(command="span", stray="--bogus" + "z" * 3000)
    @example(command="genus", stray="--which=" + "\U0001f600" * 70)
    @example(command="genus", stray="--which=" + "\U0001f600" * 3000)
    def test_exit_is_2_with_short_lines(self, command, stray):
        _argparse_error_is_2([command, *_VALID[command], stray])


def _left_nested_cp1(leaves):
    """prod(...prod(prod(cp:1,cp:1),cp:1)...,cp:1) with the given number of leaves."""
    text = "cp:1"
    for _ in range(leaves - 1):
        text = f"prod({text},cp:1)"
    return text


class TestLimits:
    """Requests beyond a documented limit exit 2 at once with a message that
    names the limit; the largest allowed requests still run."""

    @pytest.mark.parametrize("argv,message", [
        (["span", "--dim", "10000"], "--dim 10000 is above the dimension limit 32"),
        (["member", "--dim", "36", "-f", "p9"], "--dim 36 is above the dimension limit 32"),
        (["elliptic", "--manifold", "cp:2", "--q-order", "100000"], "--q-order 100000 is above the q-order limit 32"),
        (["span", "--dim", "12", "--q-order", "33"], "--q-order 33 is above the q-order limit 32"),
        (["member", "--dim", "12", "-f", "ell[200]"],
         "ell[200] is above the q-order limit 32 in 'ell[200]' (at position 0)"),
        (["member", "--dim", "12", "-f", "p3 - ell[33]"],
         "ell[33] is above the q-order limit 32 in 'p3 - ell[33]' (at position 5)"),
        (["pontryagin", "--manifold", "cp:100000"],
         "cp:100000 has dimension 200000, above the dimension limit 32 in 'cp:100000' (at position 0)"),
        (["pontryagin", "--manifold", "cp:17"],
         "cp:17 has dimension 34, above the dimension limit 32 in 'cp:17' (at position 0)"),
        (["spin", "--manifold", "hp:9"], "hp:9 has dimension 36, above the dimension limit 32 in 'hp:9' (at position 0)"),
        (["spin", "--manifold", "pb:16:[1,2]"],
         "pb:16:[1,2] has dimension 34, above the dimension limit 32 in 'pb:16:[1,2]' (at position 0)"),
        (["pontryagin", "--manifold", "prod(cp:2, prod(cp:16,cp:1))"],
         "prod(cp:16,cp:1) has dimension 34, above the dimension limit 32 in 'prod(cp:2, prod(cp:16,cp:1))' "
         "(at position 11)"),
        (["pontryagin", "--manifold", "X12xHP:6:c=2"],
         "X12xHP:6 has dimension 36, above the dimension limit 32 in 'X12xHP:6:c=2' (at position 0)"),
        (["scan", "--family", "X12xHP:6", "-f", "p1^9", "--range=0..1"],
         "family X12xHP:6 has dimension 36, above the dimension limit 32"),
        (["distinct", "--family", "X12", "--range=0..101"],
         "range '0..101' has 102 parameters, above the range limit 101"),
    ], ids=["span_dim", "member_dim", "q_order_huge", "q_order", "ell_huge", "ell", "cp_huge", "cp", "hp", "pb",
            "prod", "x12xhp", "family", "range"])
    def test_oversized_request_is_2(self, capsys, argv, message):
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("argv", [
        ["pontryagin", "--manifold", "cp:16"],
        ["spin", "--manifold", "hp:8"],
        ["pontryagin", "--manifold", "prod(pb:3:[1,2],prod(hp:2,pb:6:[0,1,1]))"],
        ["pontryagin", "--manifold", "X12xHP:5:c=2"],
        ["member", "--dim", "12", "-f", "ell[32]"],
        ["span", "--dim", "32"],
        ["distinct", "--family", "X12", "--range=0..100"],
        ["spin", "--manifold", _left_nested_cp1(16)],
        # genus coefficients have at most 35 digits through dimension 32: 100 + 35 stay under the sum limit
        *(["member", "--dim", "32", "-f", f"{'9' * 100}/{'7' * 100}*{genus}"]
          for genus in ["sign", "ahat", "ahat_t", "ell[32]"]),
    ], ids=["cp", "hp", "prod", "x12xhp", "ell", "span", "range", "nested_prod",
            "sum_sign", "sum_ahat", "sum_ahat_t", "sum_ell"])
    def test_largest_allowed_request_is_0(self, capsys, argv):
        code, out, _ = run(capsys, argv)
        assert code == 0 and out

    def test_deeply_nested_product_is_2(self, capsys):
        # refused before the parser recurses, which would overflow the stack
        code, out, err = run(capsys, ["spin", "--manifold", "prod(" * 2000])
        assert code == 2 and out == ""
        assert err.startswith("error: products nested more than 15 deep exceed the dimension limit 32 in ")

    @pytest.mark.parametrize("argv,message", [
        (["spin", "--manifold", "prod(" * 2000],
         "products nested more than 15 deep exceed the dimension limit 32 in ...'" + "prod(" * 16 + "'... "
         "(at position 75)"),
        (["member", "--dim", "12", "-f", "p3+" * 3000 + "?"],
         "unknown atom '?' in ...'+" + "p3+" * 26 + "?' (at position 9000)"),
        (["member", "--dim", "12", "-f", "p3 + " + "x" * 5000],
         "unknown atom '" + "x" * 80 + "'... in 'p3 + " + "x" * 75 + "'... (at position 5)"),
        (["distinct", "--family", "X12", "--range=" + "0" * 100 + "5..4"], "empty range '" + "0" * 80 + "'..."),
    ], ids=["nested_prod", "functional", "atom", "range"])
    def test_oversized_input_is_quoted_in_part(self, capsys, argv, message):
        # an error line quotes at most 80 characters of the input, around the error
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n" and len(err) < 250

    @pytest.mark.parametrize("argv,message", [
        (["span", "--dim", "9" * 3000],
         "--dim with 3000 digits is above the dimension limit 32 in '" + "9" * 80 + "'... (at position 0)"),
        (["spin", "--manifold", "pb:1:[" + ",".join(["1"] * 3000) + "]"],
         "the model has dimension 6000, above the dimension limit 32 in 'pb:1:[" + "1," * 37 + "'... (at position 0)"),
        (["distinct", "--family", "X12", "--range=0.." + "1" * 4000],
         "range bound with 4000 digits is above the digit limit 100 in '0.." + "1" * 77 + "'... (at position 3)"),
        (["member", "--dim", "12", "-f", "ell[" + "9" * 4000 + "]"],
         "ell[j] with 4000 digits is above the q-order limit 32 in 'ell[" + "9" * 76 + "'... (at position 4)"),
        (["member", "--dim", "12", "-f", "p1^" + "9" * 4000],
         "exponent with 4000 digits is above the dimension limit 32 in 'p1^" + "9" * 77 + "'... (at position 3)"),
        (["scan", "--family", "X12xHP:" + "1" * 4000, "-f", "p3", "--range=0..1"],
         "X12xHP:n with 4000 digits is above the dimension limit 32 in 'X12xHP:" + "1" * 73 + "'... (at position 7)"),
        (["pontryagin", "--manifold", "cp:" + "1" * 5000],
         "cp:N with 5000 digits is above the dimension limit 32 in 'cp:" + "1" * 77 + "'... (at position 3)"),
        (["member", "--dim", "12", "-f", "p" + "1" * 5000],
         "p<i> with 5000 digits is above the dimension limit 32 in 'p" + "1" * 79 + "'... (at position 1)"),
        (["spin", "--manifold", "X12:c=" + "1" * 5000],
         "c with 5000 digits is above the digit limit 100 in 'X12:c=" + "1" * 74 + "'... (at position 6)"),
        (["distinct", "--family", "1" * 5000, "--range=0..1"], "unknown family '" + "1" * 80 + "'..."),
    ], ids=["dim", "pb", "range", "ell", "exponent", "family", "cp", "p", "c", "unknown_family"])
    def test_overlong_number_is_2(self, capsys, argv, message):
        # a long digit run is refused before int() reads it, with a bounded quote
        code, out, err = run(capsys, argv)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n" and len(err) < 250

    @pytest.mark.parametrize("terms,field", [
        ([f"1/{10 ** 99 + 2 * i + 1}*p3" for i in range(50)], "denominator"),
        ([f"{10 ** 100 - 1}/{10 ** 99 + 2 * i + 1}*p3" for i in range(2)], "numerator"),
    ], ids=["denominator", "numerator"])
    def test_summed_coefficient_over_the_digit_limit_is_2(self, capsys, terms, field):
        # refused as the second term is added, before a number too long to print exists
        code, out, err = run(capsys, ["member", "--dim", "12", "-f", " + ".join(terms)])
        assert code == 2 and out == ""
        assert err.startswith(f"error: the summed coefficient of p3 has a {field} above the digit limit 150 in ")
        assert err.endswith(f"(at position {len(terms[0]) + 3})\n") and len(err) < 250

    @pytest.mark.parametrize("argv,line", [
        (["genus", "--manifold", "cp:2", "--which", "x" * 3000],
         "ellcob genus: error: argument --which: invalid choice: '" + "x" * 80 + "'... (choose from 'ahat', 'ahat_t', 'sign')"),
        (["genus", "--manifold", "cp:2", "--which=" + "x" * 3000],
         "ellcob genus: error: argument --which: invalid choice: '" + "x" * 80 + "'... (choose from 'ahat', 'ahat_t', 'sign')"),
        (["spin", "--manifold", "cp:2", "y" * 3000], "ellcob: error: unrecognized arguments: '" + "y" * 80 + "'..."),
        (["span", "--dim", "12", "--bogus" + "z" * 3000],
         "ellcob: error: unrecognized arguments: '--bogus" + "z" * 73 + "'..."),
        (["spin", "--manifold", "cp:2"] + ["a"] * 3000, "ellcob: error: unrecognized arguments: '" + "a " * 40 + "'..."),
        (["spin", "--manifold", "cp:2", "--quiet=" + "q" * 3000],
         "ellcob spin: error: argument --quiet: ignored explicit argument '" + "q" * 80 + "'..."),
        (["spin", "--manifold", "cp:2", "-h" + "x" * 3000],
         "ellcob spin: error: argument -h/--help: ignored explicit argument '" + "x" * 80 + "'..."),
        (["elliptic", "--manifold", "cp:2", "--q=" + "1" * 3000],
         "ellcob elliptic: error: ambiguous option: '--q=" + "1" * 76 + "'... could match --quiet, --q-order"),
    ], ids=["which", "which_equals", "positional", "flag", "many_tokens", "flag_value", "help_value", "ambiguous"])
    def test_overlong_argument_is_quoted_in_part(self, capsys, argv, line):
        # argparse's own error lines repeat an argument; a long one is quoted as the grammars quote it
        code, out, err = run(capsys, argv)
        assert code == 2 and out == "" and err.startswith("usage: ellcob")
        assert err.splitlines()[-1] == line
        assert all(len(text.encode()) < 250 for text in err.splitlines())

    @pytest.mark.parametrize("argv,err", [
        (["spin", "--manifold"],
         "usage: ellcob spin [-h] --manifold MANIFOLD [--quiet]\n"
         "ellcob spin: error: argument --manifold: expected one argument\n"),
        (["genus", "--manifold", "cp:2", "--which", "x" * 80],
         "usage: ellcob genus [-h] --manifold MANIFOLD [--quiet] --which\n                    {ahat,ahat_t,sign}\n"
         "ellcob genus: error: argument --which: invalid choice: '" + "x" * 80 + "' (choose from 'ahat', 'ahat_t', 'sign')\n"),
        (["spin", "--manifold", "cp:2", "a", "b"],
         "usage: ellcob [-h]\n              {pontryagin,genus,elliptic,spin,span,member,scan,verdict,distinct}\n"
         "              ...\nellcob: error: unrecognized arguments: a b\n"),
    ], ids=["missing", "which", "positional"])
    def test_short_argparse_error_is_argparse_own(self, capsys, argv, err):
        # an offending text of at most 80 characters is repeated whole, as argparse words it
        assert run(capsys, argv) == (2, "", err)

    def test_lone_double_dash_value_is_2(self, capsys):
        # argparse reads --range=-- as an empty list, not as the string '--'
        code, out, err = run(capsys, ["scan", "--family", "X12", "-f", "p3", "--range=--"])
        assert code == 2 and out == ""
        assert err == "error: --range needs a value, not '--'\n"


# --manifold strings: every descriptor kind, sizes from 0 to far past the
# dimension limit, nested products, near misses and junk.  The limit keeps
# every accepted draw at dimension 32 or less, so each one runs in well
# under a second.
_SMALL = st.integers(0, 10).map(str)
_SIZE = st.one_of(_SMALL, _SMALL, _SMALL, st.integers(0, 10 ** 6).map(str), _BAD_INT, _OVERLONG)
_DEGREES = st.one_of(
    st.lists(st.integers(-3, 3).map(str), min_size=1, max_size=6),
    st.lists(st.one_of(st.integers(-3, 3).map(str), _BAD_INT), max_size=18),
).map(",".join)
_LEAF = st.one_of(
    st.builds("cp:{}".format, _SIZE),
    st.builds("hp:{}".format, _SIZE),
    st.builds("pb:{}:[{}]".format, _SIZE, _DEGREES),
    st.builds("{}:c={}".format, st.sampled_from(["X12", "Y16", "Z20"]), st.integers(-4, 4)),
    st.builds("X12xHP:{}:c={}".format, _SIZE, st.integers(-4, 4)),
)
_MANIFOLD = st.one_of(
    st.recursive(_LEAF, lambda inner: st.builds("prod({},{})".format, inner, inner), max_leaves=4),
    _JUNK,
)


class TestManifoldFuzz:
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(command=st.sampled_from(["pontryagin", "spin", "genus"]), text=_MANIFOLD)
    @example(command="pontryagin", text="cp:100000")
    @example(command="genus", text="prod(pb:15:[1],hp:4)")
    @example(command="spin", text="pb:1:[0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0]")
    @example(command="spin", text="prod(" * 1200)
    @example(command="spin", text="\U0001f600" * 100)
    def test_exit_is_0_or_2(self, command, text):
        argv = [command, f"--manifold={text}", "--quiet"] + (["--which", "sign"] if command == "genus" else [])
        _exit_is_0_or_2(argv)
