#!/usr/bin/env python3
"""Regenerate ``reference.json``: ``python3 bench/make_reference.py``.

The table holds the genus functionals the gate applies to independently
computed Pontryagin numbers, and the answer digest of every request the
default seed can issue in a run: the first REFERENCE_ROUNDS rounds of
each workload, plus every cli request that takes no random input.  Each
answer must pass the independent checks before its digest is recorded.
Run it only on a commit whose answers are trusted, and only when the
generators in ``workloads.py`` change.
"""
from __future__ import annotations

import json
import sys
from fractions import Fraction

import oracle
import run
import workloads

# about 2.5 times the rounds a 25 s run issues on a 2-core x86 box
REFERENCE_ROUNDS = {"cli-session": 10, "genus-batch": 30, "family-scan": 80}


def cli_fixed_requests() -> list[workloads.Request]:
    """The cli requests the generators can issue whose inputs are not drawn
    at random: spans, and membership of a named genus."""
    def span(dim, q_order=None):
        return workloads.Request("cli-session", "fixed", "span", dim=dim, q_order=q_order)

    def member(dim, name):
        terms = ((Fraction(1), name),)
        return workloads.Request("cli-session", "fixed", "member", dim=dim, terms=terms, expr=name)

    reqs = [span(20), span(24), member(24, "ahat_t")]
    for dim in (12, 16):
        reqs += [span(dim), span(dim, dim // 4 - 1)]
        reqs += [member(dim, name) for name in ("sign", "ahat", "ahat_t")]
        reqs += [member(dim, f"ell[{j}]") for j in range(dim // 4 + 1)]
    return reqs


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import ellcob as E

    reference = {"seed": oracle.DEFAULT_SEED, "functionals": oracle.compute_functionals(E), "digests": {}}
    gate = oracle.Oracle(reference, seed=-1)  # independent checks only
    for workload in workloads.WORKLOADS:
        client = run.Client(workload, E)
        reqs = [req for _, req in run.requests_of(workload, oracle.DEFAULT_SEED, None, REFERENCE_ROUNDS[workload])]
        if workload == "cli-session":
            reqs += cli_fixed_requests()
        for req in reqs:
            key = oracle.key_digest(req)
            if key in reference["digests"]:
                continue
            _, answer, error = client.run(req)
            if error is not None:
                raise SystemExit(f"{req.key}: {error}")
            gate.check(req, answer)
            reference["digests"][key] = oracle.answer_digest(answer)
        print(f"{workload}: {len(reqs)} requests", file=sys.stderr)
    run.REFERENCE.write_text(json.dumps(reference, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
