"""Seeded request streams for the three benchmark workloads.

A stream is a sequence of rounds.  Every round has the same composition
of request classes; the seed only picks the parameters inside each class
(twisting degrees, family parameters, functionals, ranges) and the order
of the requests within the round.  Runs with different seeds therefore
issue the same mix of work, which keeps throughput and the latency
percentiles comparable from seed to seed.

Model specs are nested tuples, kept free of library objects so that the
independent checks in ``oracle.py`` can read them too:

    ("cp", n)  ("hp", n)  ("pb", l, (d1, ..., dr))  ("prod", A, B)
    ("x12", c)  ("y16", c)  ("z20", c)  ("x12hp", n, c)   the named members
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

WORKLOADS = ("cli-session", "genus-batch", "family-scan")
FAMILIES = ("X12", "Y16", "Z20", "X12xHP:1", "X12xHP:2", "X12xHP:3")
FAMILY_DIM = {"X12": 12, "Y16": 16, "Z20": 20, "X12xHP:1": 16, "X12xHP:2": 20, "X12xHP:3": 24}
VERDICT_DIMS = (12, 16, 20)  # dimensions that have designated families


@dataclass(frozen=True)
class Request:
    """One request.  ``op`` names the subcommand (cli-session) or the
    library call (in-process workloads); the other fields are its inputs."""

    workload: str
    cls: str
    op: str
    spec: tuple | None = None
    dim: int | None = None
    which: str | None = None
    q_order: int | None = None
    terms: tuple = ()  # ((coefficient, partition-or-genus-name), ...)
    expr: str | None = None  # -f text of a cli request
    family: str | None = None
    lo: int | None = None
    hi: int | None = None
    csv: bool = False

    @property
    def argv(self) -> list[str]:
        """Arguments after ``python -m ellcob.cli`` (cli-session only)."""
        args = [self.op]
        if self.spec is not None:
            args += ["--manifold", spec_text(self.spec)]
        if self.which is not None:
            args += ["--which", self.which]
        if self.family is not None:
            args += ["--family", self.family]
        if self.dim is not None and self.spec is None and self.family is None:
            args += ["--dim", str(self.dim)]
        if self.expr is not None:
            # argparse takes "-f -3*p1" for a missing argument, as it does for ranges
            args += [f"--functional={self.expr}"] if self.expr.startswith("-") else ["-f", self.expr]
        if self.q_order is not None:
            args += ["--q-order", str(self.q_order)]
        if self.lo is not None:
            # argparse reads "--range -3..2" as a missing argument
            args.append(f"--range={self.lo}..{self.hi}")
        if self.csv:
            args.append("--csv")
        return args

    @property
    def key(self) -> str:
        """Canonical text of the request; reference digests are keyed by it."""
        if self.workload == "cli-session":
            return "cli " + " ".join(self.argv)
        bits = [self.workload, self.op]
        if self.spec is not None:
            bits.append(spec_text(self.spec))
        if self.family is not None:
            bits.append(self.family)
        if self.dim is not None and self.family is None:
            bits.append(f"dim={self.dim}")
        if self.terms:
            bits.append("f=" + functional_text(self.terms))
        if self.lo is not None:
            bits.append(f"range={self.lo}..{self.hi}")
        return " ".join(bits)


# ---------------------------------------------------------------------------
# model specs


NAMED = {"x12": ("X12", 12), "y16": ("Y16", 16), "z20": ("Z20", 20)}


def spec_dim(s: tuple) -> int:
    kind = s[0]
    if kind in NAMED:
        return NAMED[kind][1]
    if kind == "x12hp":
        return 12 + 4 * s[1]
    if kind == "cp":
        return 2 * s[1]
    if kind == "hp":
        return 4 * s[1]
    if kind == "pb":
        return 2 * (s[1] + len(s[2]) - 1)
    return spec_dim(s[1]) + spec_dim(s[2])


def spec_text(s: tuple) -> str:
    """The cli descriptor of a spec."""
    kind = s[0]
    if kind in ("cp", "hp"):
        return f"{kind}:{s[1]}"
    if kind == "pb":
        return f"pb:{s[1]}:[{','.join(map(str, s[2]))}]"
    if kind in NAMED:
        return f"{NAMED[kind][0]}:c={s[1]}"
    if kind == "x12hp":
        return f"X12xHP:{s[1]}:c={s[2]}"
    return f"prod({spec_text(s[1])},{spec_text(s[2])})"


def build(E, s: tuple):
    """The library model of a spec, through the public builders."""
    kind = s[0]
    if kind == "cp":
        return E.build_cp(s[1])
    if kind == "hp":
        return E.build_hp(s[1])
    if kind == "pb":
        return E.build_proj_bundle(E.LineBundleSum(s[1], s[2]))
    if kind in NAMED:
        return getattr(E, kind)(s[1])
    if kind == "x12hp":
        return E.product(E.x12(s[2]), E.build_hp(s[1]))
    return E.product(build(E, s[1]), build(E, s[2]))


def _degrees(rng: random.Random, r: int) -> tuple[int, ...]:
    return tuple(rng.randint(-3, 3) for _ in range(r))


def _pb(rng: random.Random, base: int, rank: int) -> tuple:
    return ("pb", base, _degrees(rng, rank))


# ---------------------------------------------------------------------------
# functionals


def _partitions(k: int, largest: int | None = None) -> list[tuple[int, ...]]:
    largest = k if largest is None else largest
    if k == 0:
        return [()]
    return [(p,) + rest for p in range(min(k, largest), 0, -1) for rest in _partitions(k - p, p)]


def partition_key(parts: tuple[int, ...]) -> str:
    """'p1^3', 'p1*p2', ... as the cli prints and parses them."""
    return "*".join(
        f"p{p}" if parts.count(p) == 1 else f"p{p}^{parts.count(p)}" for p in sorted(set(parts))
    )


def functional_text(terms: tuple) -> str:
    """Render ((coefficient, atom), ...) in the cli's functional grammar."""
    out = []
    for i, (c, atom) in enumerate(terms):
        name = atom if isinstance(atom, str) else partition_key(atom)
        mag = abs(c)
        body = name if mag == 1 else f"{mag}*{name}"
        sign = "-" if c < 0 else ("+" if i else "")
        out.append(f"{sign} {body}".strip() if i else f"{sign}{body}")
    return " ".join(out)


def _random_terms(rng: random.Random, dim: int) -> tuple:
    """One to three Pontryagin monomials of weight dim/4 with random
    nonzero rational coefficients."""
    parts = _partitions(dim // 4)
    picks = rng.sample(parts, min(len(parts), rng.randint(1, 3)))
    return tuple(
        (Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4)), p) for p in picks
    )


def _member_functional(rng: random.Random, dim: int, choice: int) -> tuple:
    """Functional kind ``choice`` (0-4): sign, ahat, ahat_t, an elliptic
    coefficient or a random p-monomial combination."""
    if choice == 4:
        return _random_terms(rng, dim)
    name = ("sign", "ahat", "ahat_t", f"ell[{rng.randint(0, dim // 4)}]")[choice]
    return ((Fraction(1), name),)


def _range(rng: random.Random) -> tuple[int, int]:
    lo = rng.randint(-3, -1)
    return lo, lo + 4


# ---------------------------------------------------------------------------
# cli-session: fresh `python -m ellcob.cli` children, cold caches


def _light_spec(rng: random.Random, dim4: bool = True) -> tuple:
    """A cheap model: projective spaces, small bundles, products, named members."""
    c = rng.randint(-3, 3)
    options = [
        lambda: ("cp", rng.choice((2, 4, 6, 8)) if dim4 else rng.randint(1, 9)),
        lambda: ("hp", rng.randint(1, 4)),
        lambda: _pb(rng, rng.choice((1, 3, 5)), 4),
        lambda: _pb(rng, 3, rng.choice((2, 4, 6))),
        lambda: ("prod", ("cp", 2), _pb(rng, 3, 2)),
        lambda: ("prod", ("hp", rng.randint(1, 2)), ("cp", 2)),
        lambda: ("x12", c),
        lambda: ("y16", c),
        lambda: ("z20", c),
        lambda: ("x12hp", rng.randint(1, 2), c),
    ]
    return rng.choice(options)()


def _cli(cls: str, op: str, **kw) -> Request:
    return Request("cli-session", cls, op, **kw)


def _cli_round(rng: random.Random, index: int) -> list[Request]:
    """Families, dimensions and functional kinds of the costlier light
    requests rotate with the round index, so every seed issues the same
    mix of them and p50 does not move with the seed."""
    reqs: list[Request] = []
    # light: about 0.05-0.3 s here, start-up and import dominate
    for _ in range(2):
        reqs.append(_cli("light", "pontryagin", spec=_light_spec(rng), csv=rng.random() < 0.3))
    reqs.append(_cli("light", "spin", spec=_light_spec(rng, dim4=False)))
    for _ in range(3):
        spec = _light_spec(rng)
        while spec_dim(spec) > 16:
            spec = _light_spec(rng)
        reqs.append(_cli("light", "genus", spec=spec, which=rng.choice(("sign", "ahat", "ahat_t"))))
    for _ in range(2):
        spec = _light_spec(rng)
        while spec_dim(spec) > 16:
            spec = _light_spec(rng)
        reqs.append(_cli("light", "elliptic", spec=spec))
    dim = (12, 16)[index % 2]
    reqs.append(_cli("light", "span", dim=dim, q_order=rng.choice((None, dim // 4 - 1))))
    for j, dim in enumerate((12, 16)):
        terms = _member_functional(rng, dim, (2 * index + j) % 5)
        reqs.append(_cli("light", "member", dim=dim, terms=terms, expr=functional_text(terms)))
    for j in range(3):
        fam = FAMILIES[(3 * index + j) % len(FAMILIES)]
        terms = _random_terms(rng, FAMILY_DIM[fam])
        lo, hi = _range(rng)
        reqs.append(_cli("light", "scan", family=fam, terms=terms, expr=functional_text(terms), lo=lo, hi=hi))
    for j in range(2):
        dim = VERDICT_DIMS[(2 * index + j) % len(VERDICT_DIMS)]
        terms = _random_terms(rng, dim)
        reqs.append(_cli("light", "verdict", dim=dim, terms=terms, expr=functional_text(terms)))
    for j in range(3):
        lo, hi = _range(rng)
        reqs.append(_cli("light", "distinct", family=FAMILIES[(3 * index + j + 3) % len(FAMILIES)], lo=lo, hi=hi))
    # medium: 0.15-0.8 s, the universal expansion and the basis solve start to dominate
    c = rng.randint(-3, 3)
    reqs.append(_cli("medium", "genus", spec=_pb(rng, 9, 4), which=rng.choice(("sign", "ahat"))))
    reqs.append(_cli("medium", "genus", spec=rng.choice((_pb(rng, 7, 4), ("z20", c))), which="ahat_t"))
    reqs.append(_cli("medium", "span", dim=20))
    terms = _random_terms(rng, 20)
    reqs.append(_cli("medium", "member", dim=20, terms=terms, expr=functional_text(terms)))
    # the p90 band: 12% of the requests, so p90 falls inside it, not on an edge
    for _ in range(3):
        c = rng.randint(-3, 3)
        reqs.append(_cli("medium", "elliptic", spec=rng.choice((("x12hp", 3, c), ("prod", ("x12", c), ("hp", 3))))))
    # heavy: 1.3-4.5 s; one per round, the kind rotating with the round index
    kind = index % 3
    if kind == 0:
        terms = ((Fraction(1), "ahat_t"),)
        reqs.append(_cli("heavy", "member", dim=24, terms=terms, expr="ahat_t"))
    elif kind == 1:
        reqs.append(_cli("heavy", "span", dim=24))
    else:
        reqs.append(_cli("heavy", "genus", spec=_pb(rng, 11, 4), which="sign"))
    return reqs


# ---------------------------------------------------------------------------
# genus-batch: warm in-process genus calls on root-split models, dims 16-24

GENUS_CALLS = ("pontryagin_numbers", "signature", "ahat", "elliptic_q_coefficients")


def _genus_models(rng: random.Random) -> list[tuple]:
    """Four models of dim 16, three of dim 20, two of dim 24.  Elliptic
    genera cost most and grow with the dimension, so the dim-24 ones are
    the top 6% of a round and the dim-20 ones the next 8%: p90 falls in
    the middle of the dim-20 band, not on the edge between two bands."""
    c = lambda: rng.randint(-3, 3)  # noqa: E731
    return [
        _pb(rng, 5, 4), _pb(rng, 3, 6), ("prod", ("x12", c()), ("cp", 2)),  # dim 16
        ("prod", _pb(rng, 3, 2), ("cp", 4)),
        _pb(rng, 7, 4), ("prod", _pb(rng, 3, 4), ("cp", 4)), ("prod", ("x12", c()), ("cp", 4)),  # dim 20
        _pb(rng, 9, 4), ("prod", ("x12", c()), ("x12", c())),  # dim 24
    ]


def _genus_round(rng: random.Random, index: int) -> list[Request]:
    return [
        Request("genus-batch", op, op, spec=spec)
        for spec in _genus_models(rng)
        for op in GENUS_CALLS
    ]


# ---------------------------------------------------------------------------
# family-scan: warm in-process scans of the standard families


def _family_round(rng: random.Random, index: int) -> list[Request]:
    reqs = []
    for fam in FAMILIES:
        dim = FAMILY_DIM[fam]
        lo, hi = _range(rng)
        reqs.append(Request("family-scan", "polynomial", "family_polynomial", family=fam, dim=dim,
                            terms=_random_terms(rng, dim), lo=lo, hi=hi))
        lo, hi = _range(rng)
        reqs.append(Request("family-scan", "range", "range_values", family=fam, dim=dim,
                            terms=_random_terms(rng, dim), lo=lo, hi=hi))
        lo, hi = _range(rng)
        reqs.append(Request("family-scan", "distinct", "distinct_cobordism_types", family=fam, dim=dim,
                            lo=lo, hi=hi))
    for dim in VERDICT_DIMS:
        reqs.append(Request("family-scan", "verdict", "unbounded_verdict", dim=dim,
                            terms=_random_terms(rng, dim)))
    return reqs


_ROUNDS = {"cli-session": _cli_round, "genus-batch": _genus_round, "family-scan": _family_round}


def round_of(workload: str, seed: int | str, index: int) -> list[Request]:
    """Round ``index`` of the stream of ``workload`` for ``seed``, shuffled."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    reqs = _ROUNDS[workload](rng, index)
    rng.shuffle(reqs)
    return reqs


def warmup_round(workload: str) -> list[Request]:
    """One round with its own fixed seed: the warm-up pass of a warm workload."""
    return round_of(workload, "warm-up", 0)


# ---------------------------------------------------------------------------
# executing an in-process request


def execute(E, req: Request):
    """Run one in-process request through the public API; returns its result."""
    if req.workload == "genus-batch":
        return getattr(E, req.op)(build(E, req.spec))
    if req.op == "unbounded_verdict":
        return E.unbounded_verdict(make_functional(E, req), E.designated_families(req.dim))
    fam = E.standard_family(req.family)
    if req.op == "family_polynomial":
        return E.family_polynomial(fam, make_functional(E, req))
    if req.op == "distinct_cobordism_types":
        return E.distinct_cobordism_types(fam, list(range(req.lo, req.hi + 1)))
    f = make_functional(E, req)
    return [f.evaluate(E.pontryagin_numbers(fam.build(c))) for c in range(req.lo, req.hi + 1)]


def make_functional(E, req: Request):
    return E.Functional(req.dim, {E.Partition(p): c for c, p in req.terms})
