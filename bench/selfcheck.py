#!/usr/bin/env python3
"""Self-check of the benchmark: ``python3 bench/selfcheck.py``.

* A tiny run of every workload, untraced and traced, prints every metric
  that BENCHMARK.json names, with its unit, and both runs issue the same
  request list for the seed.
* The gate fires when one reference digest is corrupted.
* The genus functionals stored in reference.json are what the library
  computes now.

It is not part of the test suite, so the suite stays fast; it takes
about a minute.
"""
from __future__ import annotations

import json
import subprocess
import sys

import oracle
import run
import workloads

TINY = {"cli-session": 4, "genus-batch": 6, "family-scan": 6}


def check(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"FAIL {message}")


def bench(*args: str) -> tuple[int, dict]:
    proc = subprocess.run([sys.executable, str(run.HERE / "run.py"), *args], cwd=run.ROOT,
                          capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    check(bool(lines), f"run.py {' '.join(args)} printed nothing: {proc.stderr[-500:]}")
    return proc.returncode, json.loads(lines[-1])


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[group]}
        for workload in workloads.WORKLOADS:
            code, result = bench("--workload", workload, "--requests", str(TINY[workload]), "--trace", str(trace))
            check(code == 0 and result["correct"], f"{workload} trace={trace} failed: {result}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            check(got == wanted, f"{workload} trace={trace} metrics differ from BENCHMARK.json {group}")
    print("PASS every workload reports every metric with its unit, traced and untraced")

    for workload in workloads.WORKLOADS:
        issued = [json.loads((run.OUT / f"{workload}-seed{oracle.DEFAULT_SEED}-trace{t}.json").read_text())["requests"]
                  for t in (0, 1)]
        check(issued[0] == issued[1] and len(issued[0]) == TINY[workload],
              f"{workload}: traced and untraced runs issued different requests")
    print("PASS traced and untraced runs issue the same request list")

    reference = oracle.load_reference(run.REFERENCE)
    first = next(iter(workloads.round_of("family-scan", oracle.DEFAULT_SEED, 0)))
    key = oracle.key_digest(first)
    check(key in reference["digests"], "the first family-scan request has no reference digest")
    reference["digests"][key] = "0" * 16
    corrupt = run.OUT / "corrupt-reference.json"
    corrupt.write_text(json.dumps(reference))
    code, result = bench("--workload", "family-scan", "--requests", "2", "--reference", str(corrupt))
    corrupt.unlink()
    check(code != 0 and not result["correct"] and result["failed"] == 1, "a corrupted digest went unnoticed")
    print("PASS the gate fires on a corrupted reference digest")

    sys.path.insert(0, str(run.SRC))
    import ellcob

    check(oracle.compute_functionals(ellcob) == oracle.load_reference(run.REFERENCE)["functionals"],
          "reference.json functionals differ from the library's")
    print("PASS reference functionals match the library")
    return 0


if __name__ == "__main__":
    sys.exit(main())
