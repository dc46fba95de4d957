"""Command-line front end.

Two small grammars (manifold descriptors and linear functionals in
Pontryagin numbers / named genera) plus one subcommand per library
operation.  All output is canonical JSON — sorted keys, rationals as
"num/den" strings — or, where tables make sense, CSV.

Exit codes: 0 success, 2 bad input (parse or validation, or a request
beyond one of the limits below), 3 internal consistency failure (two
computation routes disagreed — a bug).
"""
from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Callable, Mapping, Sequence
from fractions import Fraction

from .cobordism import (
    FamilySpec,
    Functional,
    Partition,
    designated_families,
    distinct_cobordism_types,
    elliptic_span,
    family_polynomial,
    partitions_of,
    pontryagin_numbers,
    signed_sum,
    span_membership,
    standard_family,
    unbounded_verdict,
    x12,
    y16,
    z20,
)
from .errors import QUOTE_BYTES, QUOTE_CHARS, ConsistencyError, FunctionalParseError, brief, quote
from .genera import (
    ahat,
    ahat_sequence,
    elliptic_polynomials,
    elliptic_q_coefficients,
    l_sequence,
    signature,
    twisted_ahat_polynomial,
    twisted_ahat_tangent,
)
from .manifolds import (
    LineBundleSum,
    ManifoldModel,
    build_cp,
    build_hp,
    build_proj_bundle,
    is_spin,
    product,
)

__all__ = ["parse_functional", "parse_manifold", "main", "entrypoint"]

# Request limits, so that an oversized request exits 2 at once instead of
# running for minutes; the README lists the largest allowed requests and
# their times.
MAX_DIMENSION = 32  # real dimension of a --manifold model (cp:N, hp:N, pb:L, products), --dim, --family
MAX_Q_ORDER = 32  # --q-order and the j of ell[j]
MAX_RANGE = 101  # parameters in a --range
MAX_DIGITS = 100  # significant digits of a number with no limit above: a coefficient, c=, a bundle degree, a range bound
MAX_LIMITED_DIGITS = 20  # significant digits of a number with a limit above: more than any allowed value has
MAX_SUM_DIGITS = 150  # digits of a numerator or denominator of a functional coefficient, its terms added up


# ---------------------------------------------------------------------------
# serialization


def _functional_payload(f: Functional) -> dict:
    return {
        "coefficients": {I.key(): str(c) for I, c in f.coefficients.items()},
        "expression": f.to_expression(),
    }


def _poly_string(coeffs: Sequence[Fraction]) -> str:
    powers = [{0: None, 1: "c"}.get(j, f"c^{j}") for j in range(len(coeffs))]
    return signed_sum(zip(reversed(coeffs), reversed(powers)))


def _family_payload(fam: FamilySpec, poly: Sequence[Fraction]) -> dict:
    return {
        "polynomial": [str(c) for c in poly],
        "polynomial_string": _poly_string(poly),
        "substitution": fam.substitution,
    }


# ---------------------------------------------------------------------------
# scanning primitives shared by both grammars


class _Scanner:
    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0

    def error(self, message: str, position: int | None = None) -> FunctionalParseError:
        position = self.pos if position is None else position
        return FunctionalParseError(f"{message} in {quote(self.text, position)}", position)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def at_end(self) -> bool:
        return self.pos >= len(self.text)

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def eat(self, literal: str) -> bool:
        if self.text.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def eat_after_ws(self, literal: str) -> bool:
        """Skip whitespace, then eat ``literal`` if it follows."""
        self.skip_ws()
        return self.eat(literal)

    def expect(self, literal: str) -> None:
        if not self.eat(literal):
            raise self.error(f"expected {literal!r}")

    def at_digit(self, offset: int = 0) -> bool:
        """Whether the character ``offset`` places ahead is an ASCII digit;
        str.isdigit() also takes digits that int() rejects, such as '²'."""
        i = self.pos + offset
        return i < len(self.text) and self.text[i] in "0123456789"

    def unsigned_int(self, field: str, limit: str | None = None) -> int:
        """An int from ASCII digits.  A run longer than any value the field
        allows, MAX_LIMITED_DIGITS significant digits where ``limit`` names its
        documented limit and MAX_DIGITS elsewhere, is refused before int() reads it."""
        start = self.pos
        while self.at_digit():
            self.pos += 1
        if self.pos == start:
            raise self.error("expected an integer", start)
        digits = self.text[start:self.pos].lstrip("0")
        if len(digits) > (MAX_LIMITED_DIGITS if limit else MAX_DIGITS):
            limit = limit or f"digit limit {MAX_DIGITS}"
            raise self.error(f"{field} with {len(digits)} digits is above the {limit}", start)
        return int(digits or "0")

    def signed_int(self, field: str, limit: str | None = None) -> int:
        sign = -1 if self.eat("-") else 1
        return sign * self.unsigned_int(field, limit)

    def subject(self, start: int, noun: str) -> str:
        """The input from ``start`` to here where it is printable ASCII short
        enough to repeat beside the quote, else ``noun``."""
        text = self.text[start:self.pos].strip()
        return text if len(text) <= QUOTE_CHARS // 2 and text.isascii() and text.isprintable() else noun

    def word(self) -> str:
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] == "_"
        ):
            self.pos += 1
        return self.text[start:self.pos]


# ---------------------------------------------------------------------------
# functional expressions


# each named genus: its value on a model, its polynomial in the Pontryagin classes of a 4k-manifold
_GENERA: dict[str, tuple[Callable[[ManifoldModel], Fraction], Callable[[int], Mapping]]] = {
    "sign": (signature, lambda k: l_sequence(k).polynomial(k)),
    "ahat": (ahat, lambda k: ahat_sequence(k).polynomial(k)),
    "ahat_t": (twisted_ahat_tangent, twisted_ahat_polynomial),
}


def _parse_atom(sc: _Scanner, dim: int) -> tuple[int, int] | dict[Partition, Fraction]:
    """One atom: a Pontryagin power p_i^e as (i, e), or a named genus as its
    table {partition: coefficient} in dimension ``dim``."""
    sc.skip_ws()
    start = sc.pos
    if sc.peek() == "p" and sc.at_digit(1):
        sc.pos += 1
        index = sc.unsigned_int("p<i>", f"dimension limit {MAX_DIMENSION}")
        if index < 1:
            raise sc.error("p0 is not a Pontryagin class", start)
        if not sc.eat_after_ws("^"):
            return index, 1
        sc.skip_ws()
        exponent = sc.unsigned_int("exponent", f"dimension limit {MAX_DIMENSION}")
        if exponent < 1:
            raise sc.error("exponent must be positive", start)
        return index, exponent
    word = sc.word()
    if word in _GENERA:
        return Functional.from_polynomial(dim, _GENERA[word][1](dim // 4)).coefficients
    if word == "ell":
        sc.skip_ws()
        sc.expect("[")
        sc.skip_ws()
        q_index = sc.unsigned_int("ell[j]", f"q-order limit {MAX_Q_ORDER}")
        if q_index > MAX_Q_ORDER:
            raise sc.error(f"ell[{q_index}] is above the q-order limit {MAX_Q_ORDER}", start)
        sc.skip_ws()
        sc.expect("]")
        k = dim // 4
        return Functional.from_polynomial(dim, elliptic_polynomials(k, max(k, q_index))[q_index]).coefficients
    raise sc.error(f"unknown atom {quote(word or sc.peek())}", start)


def _parse_term(sc: _Scanner, dim: int) -> dict[Partition, Fraction]:
    """One term as its table {partition: coefficient}.  Grammar: [rational '*'] atom ('*' atom)*."""
    start = sc.pos
    sc.skip_ws()
    coeff = Fraction(1)
    if sc.at_digit():
        coeff = Fraction(sc.unsigned_int("coefficient"))
        if sc.eat_after_ws("/"):
            sc.skip_ws()
            den = sc.unsigned_int("coefficient")
            if den == 0:
                raise sc.error("zero denominator")
            coeff /= den
        sc.skip_ws()
        sc.expect("*")
    atoms = [_parse_atom(sc, dim)]
    while sc.eat_after_ws("*"):
        atoms.append(_parse_atom(sc, dim))
    if any(isinstance(atom, dict) for atom in atoms):
        if len(atoms) != 1:
            raise sc.error("a named genus must stand alone in its term", start)
        return {partition: coeff * c for partition, c in atoms[0].items()}
    # checked before the parts list is built: it is as long as the exponents
    weight = sum(index * exponent for index, exponent in atoms)
    if 4 * weight != dim:
        raise sc.error(f"{sc.subject(start, 'the term')} has weight {weight}, dim {dim} needs {dim // 4}", start)
    return {Partition([index for index, exponent in atoms for _ in range(exponent)]): coeff}


def parse_functional(text: str, dim: int) -> Functional:
    """Parse a linear combination of Pontryagin monomials and named genera.

    Grammar::

        expr     := ['+'|'-'] term (('+'|'-') term)*
        term     := [rational '*'] atom ('*' atom)*
        rational := int ['/' int]
        atom     := 'sign' | 'ahat' | 'ahat_t' | 'ell[' int ']' | pontry
        pontry   := 'p' int ['^' int]

    A named genus must be the only atom of its term; a Pontryagin
    monomial's weight must be dim/4.
    """
    if dim % 4 or dim < 4:
        raise FunctionalParseError(f"functionals need a positive dimension divisible by 4, not {dim}")
    sc = _Scanner(text)
    sc.skip_ws()
    if sc.at_end():
        raise sc.error("empty expression")
    coefficients: dict[Partition, Fraction] = {}
    sign = -1 if sc.eat("-") else 1
    if sign == 1:
        sc.eat("+")
    while True:
        start = sc.pos
        for partition, c in _parse_term(sc, dim).items():
            total = coefficients[partition] = coefficients.get(partition, 0) + sign * c
            for field in ("numerator", "denominator"):
                if abs(getattr(total, field)) >= 10 ** MAX_SUM_DIGITS:
                    raise sc.error(f"the summed coefficient of {partition.key()} has a {field} "
                                   f"above the digit limit {MAX_SUM_DIGITS}", start)
        sc.skip_ws()
        if sc.at_end():
            return Functional(dim, coefficients)
        sign = {"+": 1, "-": -1}.get(sc.peek())
        if sign is None:
            raise sc.error("expected '+' or '-'")
        sc.pos += 1
        sc.skip_ws()


# ---------------------------------------------------------------------------
# manifold descriptors


_DESCRIPTORS = "cp:N | hp:N | pb:L:[d,...] | prod(a,b) | X12:c=N | Y16:c=N | Z20:c=N | X12xHP:n:c=N"


def _within_dimension_limit(sc: _Scanner, start: int, dim: int) -> None:
    """Refuse a model of real dimension above MAX_DIMENSION before it is built."""
    if dim > MAX_DIMENSION:
        raise sc.error(
            f"{sc.subject(start, 'the model')} has dimension {dim}, above the dimension limit {MAX_DIMENSION}",
            start,
        )


def _parse_manifold_expr(sc: _Scanner, warnings: list[str], depth: int = 0) -> ManifoldModel:
    sc.skip_ws()
    start = sc.pos
    if sc.eat("prod("):
        # every leaf has dimension >= 2, so a model within the limit nests
        # at most MAX_DIMENSION // 2 - 1 products; refuse before recursing
        if depth >= MAX_DIMENSION // 2 - 1:
            raise sc.error(f"products nested more than {MAX_DIMENSION // 2 - 1} deep exceed "
                           f"the dimension limit {MAX_DIMENSION}", start)
        first = _parse_manifold_expr(sc, warnings, depth + 1)
        sc.skip_ws()
        sc.expect(",")
        second = _parse_manifold_expr(sc, warnings, depth + 1)
        sc.skip_ws()
        sc.expect(")")
        _within_dimension_limit(sc, start, first.real_dimension + second.real_dimension)
        return product(first, second)
    if sc.eat("cp:"):
        n = sc.unsigned_int("cp:N", f"dimension limit {MAX_DIMENSION}")
        _within_dimension_limit(sc, start, 2 * n)
        return build_cp(n)
    if sc.eat("hp:"):
        n = sc.unsigned_int("hp:N", f"dimension limit {MAX_DIMENSION}")
        _within_dimension_limit(sc, start, 4 * n)
        return build_hp(n)
    if sc.eat("pb:"):
        base = sc.unsigned_int("pb:L", f"dimension limit {MAX_DIMENSION}")
        sc.expect(":")
        sc.expect("[")
        degrees = [sc.signed_int("bundle degree")]
        while sc.eat(","):
            degrees.append(sc.signed_int("bundle degree"))
        sc.expect("]")
        _within_dimension_limit(sc, start, 2 * (base + len(degrees) - 1))
        return build_proj_bundle(LineBundleSum(base, tuple(degrees)))
    if sc.eat("X12xHP:"):
        n = sc.unsigned_int("X12xHP:n", f"dimension limit {MAX_DIMENSION}")
        _within_dimension_limit(sc, start, 12 + 4 * n)
        sc.expect(":c=")
        c = sc.signed_int("c")
        return _family_member(product(x12(c), build_hp(n)), f"X12xHP:{n}", c, warnings)
    for name, builder in (("X12", x12), ("Y16", y16), ("Z20", z20)):
        if sc.eat(name + ":c="):
            c = sc.signed_int("c")
            return _family_member(builder(c), name, c, warnings)
    raise sc.error(f"expected a manifold descriptor ({_DESCRIPTORS})", start)


def _family_member(m: ManifoldModel, family: str, c: int, warnings: list[str]) -> ManifoldModel:
    """m, with a note when the member is not spin (odd c on X12, Z20 and X12xHP)."""
    if not m.spin:
        warnings.append(f"{family}:c={c} is not spin; even c gives spin members")
    return m


def parse_manifold(text: str) -> tuple[ManifoldModel, list[str]]:
    """Parse a manifold descriptor; returns the model plus spin-parity warnings."""
    sc = _Scanner(text)
    warnings: list[str] = []
    m = _parse_manifold_expr(sc, warnings)
    sc.skip_ws()
    if not sc.at_end():
        raise sc.error("trailing input after manifold descriptor")
    return m, warnings


def _load_manifold(args: argparse.Namespace) -> ManifoldModel:
    m, warnings = parse_manifold(args.manifold)
    if not args.quiet:
        for w in warnings:
            print(f"note: {w}", file=sys.stderr)
    return m


# ---------------------------------------------------------------------------
# subcommands: each returns its answer, a dict written as JSON or a list of
# CSV rows, header first


def _cmd_pontryagin(args: argparse.Namespace) -> dict | list[list[str]]:
    m = _load_manifold(args)
    vec = pontryagin_numbers(m)
    if args.csv:
        return [[I.key() for I in partitions_of(vec.dimension // 4)], [str(v) for v in vec.as_row()]]
    return {
        "dimension": vec.dimension,
        "manifold": m.name,
        "values": {I.key(): str(v) for I, v in vec.values.items()},
    }


def _cmd_genus(args: argparse.Namespace) -> dict:
    m = _load_manifold(args)
    if m.real_dimension % 4:  # the library's evaluate_genus would warn and return 0
        raise ValueError(
            f"{brief(m.name)} has dimension {m.real_dimension}; the genus {args.which} needs a multiple of 4"
        )
    value = _GENERA[args.which][0](m)
    return {
        "dimension": m.real_dimension,
        "genus": args.which,
        "manifold": m.name,
        "value": str(value),
    }


def _cmd_elliptic(args: argparse.Namespace) -> dict | list[list[str]]:
    m = _load_manifold(args)
    order = args.q_order if args.q_order is not None else m.real_dimension // 4
    coeffs = elliptic_q_coefficients(m, order)
    if args.csv:
        return [[f"q^{j}" for j in range(order + 1)], [str(c) for c in coeffs]]
    return {
        "coefficients": [str(c) for c in coeffs],
        "dimension": m.real_dimension,
        "manifold": m.name,
        "normalization": "coefficients of q^(k/2)*phi, k = dim/4",
        "q_order": order,
    }


def _cmd_spin(args: argparse.Namespace) -> dict:
    m = _load_manifold(args)
    return {"manifold": m.name, "spin": is_spin(m)}


def _cmd_span(args: argparse.Namespace) -> dict:
    order = args.q_order if args.q_order is not None else args.dim // 4
    functionals, rank = elliptic_span(args.dim, order)
    return {
        "dimension": args.dim,
        "functionals": [_functional_payload(f) for f in functionals],
        "q_order": order,
        "rank": rank,
    }


def _cmd_member(args: argparse.Namespace) -> dict:
    f = parse_functional(args.functional, args.dim)
    order = args.q_order if args.q_order is not None else args.dim // 4
    span, rank = elliptic_span(args.dim, order)
    inside = span_membership(f, span)
    return {
        "dimension": args.dim,
        "functional": _functional_payload(f),
        "in_span": inside,
        "q_order": order,
        "span_rank": rank,
        "verdict": "in-span" if inside else "not-in-span",
    }


def _parse_range(text: str) -> tuple[int, int]:
    """Bounds a..b, each an optionally signed integer in ASCII digits."""
    sc = _Scanner(text)
    a = sc.signed_int("range bound")
    sc.expect("..")
    b = sc.signed_int("range bound")
    if not sc.at_end():
        raise sc.error("trailing input after range")
    if a > b:
        raise FunctionalParseError(f"empty range {quote(text)}")
    if b - a >= MAX_RANGE:
        raise FunctionalParseError(f"range {quote(text)} has {b - a + 1} parameters, above the range limit {MAX_RANGE}")
    return a, b


def _family(name: str) -> FamilySpec:
    sc = _Scanner(name)
    if sc.eat("X12xHP:") and sc.at_digit():  # read here: standard_family's int() takes any length
        n = sc.unsigned_int("X12xHP:n", f"dimension limit {MAX_DIMENSION}")
        if sc.at_end():
            name = f"X12xHP:{n}"
    fam = standard_family(name)
    if fam.dimension > MAX_DIMENSION:
        raise FunctionalParseError(
            f"family {fam.name} has dimension {fam.dimension}, above the dimension limit {MAX_DIMENSION}"
        )
    return fam


def _cmd_scan(args: argparse.Namespace) -> dict | list[list[str]]:
    fam = _family(args.family)
    f = parse_functional(args.functional, fam.dimension)
    a, b = _parse_range(args.range)
    values = [(c, f.evaluate(pontryagin_numbers(fam.build(c)))) for c in range(a, b + 1)]
    poly = family_polynomial(fam, f)
    if args.csv:
        return [["c", "value"], *([str(c), str(v)] for c, v in values)]
    return {
        "dimension": fam.dimension,
        "family": fam.name,
        "functional": _functional_payload(f),
        **_family_payload(fam, poly),
        "values": [{"c": c, "value": str(v)} for c, v in values],
    }


def _cmd_verdict(args: argparse.Namespace) -> dict:
    f = parse_functional(args.functional, args.dim)
    families = designated_families(args.dim)
    result = unbounded_verdict(f, families)
    return {
        "dimension": args.dim,
        "families": {fam.name: _family_payload(fam, result.per_family[fam.name]) for fam in families},
        "functional": _functional_payload(f),
        "verdict": "unbounded" if result.unbounded else "bounded_on_families",
        "witness": result.witness,
        "witness_polynomial": (
            None if result.polynomial is None else [str(c) for c in result.polynomial]
        ),
    }


def _cmd_distinct(args: argparse.Namespace) -> dict:
    fam = _family(args.family)
    a, b = _parse_range(args.range)
    result = distinct_cobordism_types(fam, list(range(a, b + 1)))
    return {
        "collisions": [list(pair) for pair in result.collisions],
        "dimension": fam.dimension,
        "distinct": result.distinct,
        "family": fam.name,
        "range": [a, b],
        "separators": [
            {"pair": list(pair), "partition": I.key()}
            for pair, I in sorted(result.separators.items())
        ],
        "substitution": fam.substitution,
    }


# ---------------------------------------------------------------------------
# parser assembly


# each option: its flags and argparse settings
_OPTIONS: dict[str, tuple[tuple[str, ...], dict]] = {
    "manifold": (("--manifold",), {"required": True, "help": _DESCRIPTORS}),
    "quiet": (("--quiet",), {"action": "store_true", "help": "suppress informational warnings"}),
    "csv": (("--csv",), {"action": "store_true", "help": "CSV output"}),
    "which": (("--which",), {"required": True, "choices": sorted(_GENERA)}),
    "dim": (("--dim",), {"required": True}),
    "q_order": (("--q-order",), {"help": "highest q power (default dim/4)"}),
    "functional": (("-f", "--f", "--functional"), {"dest": "functional", "required": True}),
    "family": (("--family",), {"required": True, "help": "X12 | Y16 | Z20 | X12xHP:<n>"}),
    "range": (("--range",), {"required": True, "help": "parameter range a..b"}),
}

_MODEL = ("manifold", "quiet")  # every subcommand that loads a manifold takes both

# each subcommand: its handler, its help line and its options, in the order its usage line shows them
_COMMANDS: dict[str, tuple[Callable, str, tuple[str, ...]]] = {
    "pontryagin": (_cmd_pontryagin, "all Pontryagin numbers of a manifold", (*_MODEL, "csv")),
    "genus": (_cmd_genus, "evaluate a named genus", (*_MODEL, "which")),
    "elliptic": (_cmd_elliptic, "q-expansion coefficients of the elliptic genus", (*_MODEL, "q_order", "csv")),
    "spin": (_cmd_spin, "whether the manifold is spin", _MODEL),
    "span": (_cmd_span, "elliptic-coefficient functionals and their rank", ("dim", "q_order")),
    "member": (_cmd_member, "is a functional in the elliptic span?", ("dim", "functional", "q_order")),
    "scan": (_cmd_scan, "evaluate a functional along a family", ("family", "functional", "range", "csv")),
    "verdict": (_cmd_verdict, "bounded or unbounded on the designated families", ("dim", "functional")),
    "distinct": (_cmd_distinct, "are family members pairwise non-cobordant?", ("family", "range")),
}


class _ArgumentParser(argparse.ArgumentParser):
    """argparse, with the over-long arguments its error lines repeat quoted in part."""

    def parse_known_args(self, args=None, namespace=None):
        self.arg_strings = sys.argv[1:] if args is None else list(args)
        return super().parse_known_args(args, namespace)

    def parse_args(self, args=None, namespace=None):
        namespace, extras = self.parse_known_args(args, namespace)
        if extras:  # argparse would repeat them all, whole
            self.error(f"unrecognized arguments: {brief(' '.join(extras))}")
        return namespace

    def error(self, message: str):
        # argparse repeats an argument, or its part after '=' or after a one-dash
        # flag, bare or as its repr; a value whose repr is over the budget, or
        # that would break the line, is quoted in part
        parts = {v for arg in self.arg_strings for v in (arg, arg.partition("=")[2], arg[2:])}
        to_quote = (v for v in parts if len(repr(v).encode()) > QUOTE_BYTES or not v.isprintable())
        for value in sorted(to_quote, key=len, reverse=True):
            message = message.replace(repr(value), quote(value)).replace(value, quote(value))
        super().error(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="ellcob",
        description="Exact characteristic numbers, genera, and rational-cobordism "
                    "linear algebra for projective-bundle manifolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, help_text, options) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for option in options:
            flags, settings = _OPTIONS[option]
            p.add_argument(*flags, **settings)
        p.set_defaults(func=handler)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        for name, value in vars(args).items():
            if value in ([], "--"):  # a lone '--' value, as in --range=--: [] before Python 3.13, '--' after
                raise FunctionalParseError(f"--{name.replace('_', '-')} needs a value, not '--'")
        # read here rather than by argparse, whose int() takes '1_2' and '١'
        for name, limit, what in (("dim", MAX_DIMENSION, "dimension"), ("q_order", MAX_Q_ORDER, "q-order")):
            if getattr(args, name, None) is not None:
                flag = f"--{name.replace('_', '-')}"
                sc = _Scanner(getattr(args, name))
                value = sc.signed_int(flag, f"{what} limit {limit}")
                if not sc.at_end():
                    raise sc.error("trailing input after integer")
                if value > limit:
                    raise FunctionalParseError(f"{flag} {value} is above the {what} limit {limit}")
                setattr(args, name, value)
        answer = args.func(args)
        if isinstance(answer, dict):
            sys.stdout.write(json.dumps(answer, sort_keys=True, indent=2) + "\n")
        else:  # no field (partition keys, q^j, c, value, ints and fractions) holds a comma, quote or newline
            sys.stdout.write("".join(",".join(row) + "\n" for row in answer))
        return 0
    except ConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 3
    except (FunctionalParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
