"""The correctness gate: reference digests plus independent checks.

Every answer is verified exactly.  For the default seed each answer's
digest must match the table in ``reference.json``, made on a commit
whose answers were cross-checked.  For every seed the answer must also
pass checks that do not reuse the request's own call path:

* Pontryagin numbers are recomputed here with plain integers: a bundle
  P(H^d1 + ... + H^dr) over CP^l pairs a^(r-1+j) b^(l-j) to
  (-1)^j h_j(d), a Segre-class identity, and products use the
  coproduct of the total Pontryagin class.
* Signature, A-hat, twisted A-hat and elliptic coefficients must equal
  their genus functionals applied to those numbers; signatures, and the
  A-hat and elliptic coefficients of spin models, must be integers.  The
  functionals come from ``genus_as_functional`` / ``elliptic_span`` on
  the basis manifolds; they are stored in ``reference.json`` with the
  digests, so a change that skews a genus and its functional alike is
  still caught, and the self-check recomputes them.
* Family polynomials must reproduce independently evaluated values,
  verdicts must follow from them, and distinctness must match a direct
  comparison of the Pontryagin-number vectors.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
from fractions import Fraction
from functools import lru_cache
from itertools import product as cartesian
from math import comb

from workloads import FAMILY_DIM, Request, _partitions, partition_key, spec_dim

DEFAULT_SEED = 0


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def key_digest(req: Request) -> str:
    return digest(req.key)


def answer_digest(answer) -> str:
    """Digest of an answer: the cli's stdout, or the repr of a library result."""
    return digest(answer if isinstance(answer, str) else repr(answer))


# ---------------------------------------------------------------------------
# independent Pontryagin numbers


def _expand(s: tuple) -> tuple:
    """Rewrite named members into plain bundles and products."""
    kind = s[0]
    if kind == "x12":
        return ("pb", 3, (s[1], 0, 0, 0))
    if kind == "y16":
        return ("pb", 5, (s[1], 2 * s[1], -3 * s[1], 0))
    if kind == "z20":
        return ("pb", 7, (s[1], 0, 0, 0))
    if kind == "x12hp":
        return ("prod", ("pb", 3, (s[2], 0, 0, 0)), ("hp", s[1]))
    if kind == "prod":
        return ("prod", _expand(s[1]), _expand(s[2]))
    return s


def _complete_homogeneous(degrees: tuple[int, ...], top: int) -> list[int]:
    """h_0..h_top of the degrees: coefficients of prod 1/(1 - d t)."""
    h = [1] + [0] * top
    for d in degrees:
        for j in range(1, top + 1):
            h[j] += d * h[j - 1]
    return h


def _bundle_numbers(base: int, degrees: tuple[int, ...]) -> dict[tuple, int]:
    r = len(degrees)
    n = base + r - 1  # complex dimension
    if n % 2:
        return {}

    def mul(p, q):
        out: dict[tuple[int, int], int] = {}
        for (i1, j1), c1 in p.items():
            for (i2, j2), c2 in q.items():
                i, j = i1 + i2, j1 + j2
                if j <= base and i + j <= n:
                    out[(i, j)] = out.get((i, j), 0) + c1 * c2
        return out

    # total Pontryagin class: (1 + b^2)^(l+1) * prod (1 + (a + d b)^2), monomials a^i b^j
    total = {(0, 0): 1}
    for _ in range(base + 1):
        total = mul(total, {(0, 0): 1, (0, 2): 1})
    for d in degrees:
        total = mul(total, {(0, 0): 1, (2, 0): 1, (1, 1): 2 * d, (0, 2): d * d})
    classes = {k: {m: c for m, c in total.items() if sum(m) == 2 * k} for k in range(1, n // 2 + 1)}
    h = _complete_homogeneous(degrees, n)

    def integrate(poly) -> int:
        acc = 0
        for (i, j), c in poly.items():
            if i + j == n and i >= r - 1 and j <= base:
                acc += c * (-1) ** (i - r + 1) * h[i - r + 1]
        return acc

    out = {}
    for parts in _partitions(n // 2):
        poly = {(0, 0): 1}
        for part in parts:
            poly = mul(poly, classes[part])
        out[parts] = integrate(poly)
    return out


def _hp_numbers(n: int) -> dict[tuple, int]:
    # p(HP^n) = (1+u)^(2n+2) (1+4u)^(-1); a Pontryagin number is a product of classes
    p = [sum(comb(2 * n + 2, i - j) * (-4) ** j for j in range(i + 1)) for i in range(n + 1)]
    out = {}
    for parts in _partitions(n):
        value = 1
        for part in parts:
            value *= p[part]
        out[parts] = value
    return out


def _cp_numbers(n: int) -> dict[tuple, int]:
    if n % 2:
        return {}
    out = {}
    for parts in _partitions(n // 2):
        value = 1
        for part in parts:
            value *= comb(n + 1, part)
        out[parts] = value
    return out


def _product_numbers(s1: tuple, s2: tuple) -> dict[tuple, int]:
    d1, d2 = spec_dim(s1), spec_dim(s2)
    if (d1 + d2) % 4:
        return {}
    k = (d1 + d2) // 4
    if d1 % 4:  # no Pontryagin monomial reaches the top class of either factor
        return {parts: 0 for parts in _partitions(k)}
    n1, n2 = pontryagin_numbers(s1), pontryagin_numbers(s2)
    n1[()] = n2[()] = 1
    out = {}
    for parts in _partitions(k):
        value = 0
        for split in cartesian(*(range(p + 1) for p in parts)):
            if sum(split) != d1 // 4:
                continue
            left = tuple(sorted((a for a in split if a), reverse=True))
            right = tuple(sorted((p - a for p, a in zip(parts, split) if p - a), reverse=True))
            value += n1[left] * n2[right]
        out[parts] = value
    return out


@lru_cache(maxsize=4096)
def _numbers(s: tuple) -> tuple:
    kind = s[0]
    if kind == "cp":
        table = _cp_numbers(s[1])
    elif kind == "hp":
        table = _hp_numbers(s[1])
    elif kind == "pb":
        table = _bundle_numbers(s[1], s[2])
    else:
        table = _product_numbers(s[1], s[2])
    return tuple(table.items())


def pontryagin_numbers(spec: tuple) -> dict[tuple, int]:
    """All Pontryagin numbers of a spec, partition (descending parts) -> int."""
    return dict(_numbers(_expand(spec)))


def is_spin(spec: tuple) -> bool:
    """Stable-roots criterion: every coefficient of the first Chern class
    r*a + (l + 1 + sum d)*b of a bundle is even; CP^n needs n odd."""
    s = _expand(spec)
    kind = s[0]
    if kind == "cp":
        return s[1] % 2 == 1
    if kind == "hp":
        return True
    if kind == "pb":
        return len(s[2]) % 2 == 0 and (s[1] + 1 + sum(s[2])) % 2 == 0
    return is_spin(s[1]) and is_spin(s[2])


def family_spec(family: str, c: int) -> tuple:
    """The spec of a family member under the cli's spin substitution."""
    if family == "Y16":
        return ("y16", c)
    if family == "X12":
        return ("x12", 2 * c)
    if family == "Z20":
        return ("z20", 2 * c)
    return ("x12hp", int(family.split(":")[1]), 2 * c)


# ---------------------------------------------------------------------------
# exact linear algebra, written out again so the checks share no code with the library


def rank(rows: list[list[Fraction]]) -> int:
    m = [list(r) for r in rows]
    r = 0
    for col in range(len(m[0]) if m else 0):
        pivot = next((i for i in range(r, len(m)) if m[i][col]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        for i in range(r + 1, len(m)):
            if m[i][col]:
                f = m[i][col] / m[r][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def _poly_at(coeffs, c) -> Fraction:
    return sum((Fraction(a) * c ** j for j, a in enumerate(coeffs)), Fraction(0))


class GateFailure(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise GateFailure(message)


class Oracle:
    """Per-run gate over a reference table: the genus functionals, computed
    by ``compute_functionals`` on a cross-checked commit and frozen so the
    gate does not depend on the code under test, and the answer digests of
    the default seed."""

    def __init__(self, reference: dict, seed: int) -> None:
        self.digests = reference["digests"] if seed == DEFAULT_SEED else {}
        self._functionals = {}
        for key, coefficients in reference["functionals"].items():
            name, dim = key.split()
            self._functionals[(name, int(dim))] = {
                self._partition(k): Fraction(v) for k, v in coefficients.items()
            }

    # -- genus functionals --------------------------------------------------

    def functional(self, name: str, dim: int) -> dict[tuple, Fraction]:
        """partition -> coefficient for sign, ahat, ahat_t or ell[j] in dim."""
        try:
            return self._functionals[(name, dim)]
        except KeyError:
            raise GateFailure(f"the reference has no functional {name} in dim {dim}") from None

    def apply(self, name: str, spec: tuple) -> Fraction:
        numbers = pontryagin_numbers(spec)
        f = self.functional(name, spec_dim(spec))
        return sum((c * numbers[I] for I, c in f.items()), Fraction(0))

    def expected_functional(self, terms: tuple, dim: int) -> dict[tuple, Fraction]:
        acc: dict[tuple, Fraction] = {}
        for c, atom in terms:
            part = self.functional(atom, dim) if isinstance(atom, str) else {atom: Fraction(1)}
            for I, v in part.items():
                acc[I] = acc.get(I, Fraction(0)) + c * v
        return {I: v for I, v in acc.items() if v}

    # -- the gate -----------------------------------------------------------

    def check(self, req: Request, answer) -> None:
        """Raise GateFailure unless the answer is exactly right."""
        expected = self.digests.get(key_digest(req))
        if expected is not None:
            _require(answer_digest(answer) == expected, "answer differs from the reference digest")
        if req.workload == "cli-session":
            self._check_cli(req, answer)
        elif req.workload == "genus-batch":
            self._check_genus(req, answer)
        else:
            self._check_family(req, answer)

    def _check_genus(self, req: Request, answer) -> None:
        spec = req.spec
        if req.op == "pontryagin_numbers":
            got = {tuple(I): v for I, v in answer.values.items()}
            _require(got == pontryagin_numbers(spec), "Pontryagin numbers differ from the Segre route")
            return
        if req.op == "elliptic_q_coefficients":
            values = list(answer)
            _require(len(values) == spec_dim(spec) // 4 + 1, "wrong number of q-coefficients")
            names = [f"ell[{j}]" for j in range(len(values))]
        else:
            values = [answer]
            names = ["sign" if req.op == "signature" else "ahat"]
        self._check_values(spec, names, values)

    def _check_values(self, spec: tuple, names: list[str], values: list) -> None:
        for name, value in zip(names, values):
            _require(value == self.apply(name, spec), f"{name} differs from its functional")
            if name == "sign" or is_spin(spec):
                _require(Fraction(value).denominator == 1, f"{name} is not an integer")

    def _family_values(self, family: str, terms: tuple, cs) -> list[Fraction]:
        out = []
        for c in cs:
            numbers = pontryagin_numbers(family_spec(family, c))
            out.append(sum((coeff * numbers[p] for coeff, p in terms), Fraction(0)))
        return out

    def _check_family(self, req: Request, answer) -> None:
        cs = range(req.lo, req.hi + 1) if req.lo is not None else ()
        if req.op == "range_values":
            _require(list(answer) == self._family_values(req.family, req.terms, cs), "range values differ")
        elif req.op == "family_polynomial":
            want = self._family_values(req.family, req.terms, cs)
            _require([_poly_at(answer, c) for c in cs] == want, "polynomial misses the sampled values")
        elif req.op == "distinct_cobordism_types":
            self._check_distinct(req.family, list(cs), answer.collisions,
                                 {pair: tuple(I) for pair, I in answer.separators.items()})
        else:
            self._check_verdict(req.dim, req.terms, answer.per_family, answer.unbounded, answer.witness)

    def _check_distinct(self, family: str, cs: list[int], collisions, separators) -> None:
        k = FAMILY_DIM[family] // 4
        order = sorted(_partitions(k))  # the library's partitions_of order
        vectors = {c: pontryagin_numbers(family_spec(family, c)) for c in cs}
        want_coll, want_sep = [], {}
        for i, c1 in enumerate(cs):
            for c2 in cs[i + 1:]:
                sep = next((I for I in order if vectors[c1][I] != vectors[c2][I]), None)
                if sep is None:
                    want_coll.append((c1, c2))
                else:
                    want_sep[(c1, c2)] = sep
        _require([tuple(p) for p in collisions] == want_coll, "collisions differ from a direct comparison")
        _require(separators == want_sep, "separators differ from a direct comparison")

    def _check_verdict(self, dim: int, terms: tuple, per_family, unbounded, witness) -> None:
        families = {12: ["X12"], 16: ["Y16"], 20: ["Z20", "X12xHP:2"]}[dim]
        _require(sorted(per_family) == sorted(families), "verdict consulted the wrong families")
        want_witness = None
        for fam in families:
            poly = per_family[fam]
            cs = range(-2, 3)
            _require([_poly_at(poly, c) for c in cs] == self._family_values(fam, terms, cs),
                     f"verdict polynomial of {fam} misses sampled values")
            if want_witness is None and any(Fraction(a) for a in list(poly)[1:]):
                want_witness = fam
        _require(witness == want_witness and bool(unbounded) == (want_witness is not None),
                 "verdict does not follow from the family polynomials")

    # -- cli answers ----------------------------------------------------------

    def _check_cli(self, req: Request, out: str) -> None:
        op = req.op
        if op == "pontryagin":
            if req.csv:
                header, row = list(csv.reader(io.StringIO(out)))
                got = dict(zip(header, row))
            else:
                got = json.loads(out)["values"]
            want = {partition_key(I): v for I, v in pontryagin_numbers(req.spec).items()}
            _require({k: Fraction(v) for k, v in got.items()} == want, "Pontryagin numbers differ")
            return
        data = json.loads(out)
        if op == "spin":
            _require(data["spin"] == is_spin(req.spec), "spin verdict differs from the root criterion")
        elif op == "genus":
            self._check_values(req.spec, [req.which], [Fraction(data["value"])])
        elif op == "elliptic":
            values = [Fraction(v) for v in data["coefficients"]]
            _require(len(values) == spec_dim(req.spec) // 4 + 1, "wrong number of q-coefficients")
            self._check_values(req.spec, [f"ell[{j}]" for j in range(len(values))], values)
        elif op == "span":
            rows = [self._row(f["coefficients"], req.dim) for f in data["functionals"]]
            order = req.dim // 4 if req.q_order is None else req.q_order
            _require(len(rows) == order + 1, "wrong number of span functionals")
            _require(data["rank"] == rank(rows), "span rank differs from an independent rank")
            _require(rows[0] == self._row(self.functional("ahat", req.dim), req.dim),
                     "ell[0] is not the A-hat functional")
        elif op == "member":
            got = self._row(data["functional"]["coefficients"], req.dim)
            _require(got == self._row(self.expected_functional(req.terms, req.dim), req.dim),
                     "parsed functional differs")
            span = [self._row(self.functional(f"ell[{j}]", req.dim), req.dim) for j in range(req.dim // 4 + 1)]
            inside = rank(span + [got]) == rank(span)
            _require(data["in_span"] == inside and data["span_rank"] == rank(span), "membership differs")
        elif op == "scan":
            cs = range(req.lo, req.hi + 1)
            want = self._family_values(req.family, req.terms, cs)
            _require([Fraction(v["value"]) for v in data["values"]] == want, "scan values differ")
            poly = [Fraction(a) for a in data["polynomial"]]
            _require([_poly_at(poly, c) for c in cs] == want, "scan polynomial misses its values")
        elif op == "verdict":
            per_family = {name: [Fraction(a) for a in v["polynomial"]] for name, v in data["families"].items()}
            self._check_verdict(req.dim, req.terms, per_family, data["verdict"] == "unbounded", data["witness"])
        elif op == "distinct":
            separators = {tuple(s["pair"]): self._partition(s["partition"]) for s in data["separators"]}
            self._check_distinct(req.family, list(range(req.lo, req.hi + 1)), data["collisions"], separators)
        else:
            raise GateFailure(f"no check for {op}")

    def _row(self, coefficients: dict, dim: int) -> list[Fraction]:
        by_key = {(k if isinstance(k, str) else partition_key(k)): Fraction(v) for k, v in coefficients.items()}
        return [by_key.get(partition_key(I), Fraction(0)) for I in _partitions(dim // 4)]

    @staticmethod
    def _partition(key: str) -> tuple:
        parts = []
        for atom in key.split("*"):
            index, _, mult = atom[1:].partition("^")
            parts += [int(index)] * int(mult or 1)
        return tuple(sorted(parts, reverse=True))


def load_reference(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


FUNCTIONAL_DIMS = range(4, 29, 4)  # sign and ahat; ahat_t and ell[j] stop at 24


def compute_functionals(E) -> dict[str, dict[str, str]]:
    """Every genus functional the generators can ask for, through the library:
    ``genus_as_functional`` for sign, ahat, ahat_t and ``elliptic_span`` for ell[j]."""
    out = {}

    def put(key, f):
        out[key] = {partition_key(tuple(I)): str(c) for I, c in f.coefficients.items()}

    for dim in FUNCTIONAL_DIMS:
        put(f"sign {dim}", E.genus_as_functional(E.signature, dim))
        put(f"ahat {dim}", E.genus_as_functional(E.ahat, dim))
        if dim <= 24:
            put(f"ahat_t {dim}", E.genus_as_functional(E.twisted_ahat_tangent, dim))
            span, _ = E.elliptic_span(dim, dim // 4)
            for j, f in enumerate(span):
                put(f"ell[{j}] {dim}", f)
    return out

