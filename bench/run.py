#!/usr/bin/env python3
"""The ellcob benchmark.

    python3 bench/run.py --workload cli-session --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all            # every workload, each in a fresh process

One closed-loop client issues the seeded request stream of one workload
(see ``workloads.py``), whole rounds at a time, until the request wall
times add up to ``--seconds`` and at least 100 requests were issued.
Every answer then goes through the correctness gate in ``oracle.py``.
Times are reported at the reference speed of ``speed.py``, which divides
out the shared machine's speed phases; raw wall times are printed next
to them.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` -- the end-to-end metrics with ``--trace 0``,
the per-layer metrics of a traced run with ``--trace 1``.  The run exits
with 1 when any request failed.  See README.md for the metrics and why
each workload is there.
"""
from __future__ import annotations

import argparse
import compileall
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

MIN_REQUESTS = 100  # at least ten latency samples beyond p90
PROBES = {"cli-session": 3, "genus-batch": 1, "family-scan": 1}  # calibration tasks before each request
TRACE_ROUNDS = {"cli-session": 2, "genus-batch": 4, "family-scan": 10}  # about 20-45 s each
CLI_SETUP_SAMPLES = 3  # before the first request; one more follows every round
WARM_SETUP_PROBES = 2  # child processes that repeat import + warm-up
SETUP_TASKS = 8  # calibration tasks before and after each set-up sample
CLI_TIMEOUT_S = 120
CHILD_POLL_S = 0.1  # one calibration task per this much of a cli child's run


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# ---------------------------------------------------------------------------
# issuing requests


def run_child(cmd: list[str], cal: speed.Calibrator | None, timeout: float = CLI_TIMEOUT_S):
    """Run a child to its end: (start, end, returncode, stdout, stderr),
    returncode None when it timed out.  With a calibrator, a calibration
    task runs every CHILD_POLL_S while the child does, on the CPU they
    share, so a change of speed during a long child is seen; it takes
    about 1% of the child's time."""
    env = child_env()
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    deadline = start + timeout
    while True:
        wait = deadline - time.perf_counter()
        try:
            out, err = proc.communicate(timeout=min(CHILD_POLL_S, wait) if cal else max(wait, 0.0))
            return start, time.perf_counter(), proc.returncode, out, err
        except subprocess.TimeoutExpired:
            if time.perf_counter() >= deadline:
                proc.kill()
                proc.communicate()
                return start, time.perf_counter(), None, "", ""
            if cal:
                cal.probe()


class Client:
    """Issues requests of one workload: in process, or as fresh cli children."""

    def __init__(self, workload: str, E, cal: speed.Calibrator | None = None) -> None:
        self.workload = workload
        self.E = E
        self.cal = cal

    def run(self, req: workloads.Request, argv_prefix: list[str] | None = None):
        """(latency, answer, error) of one request; answer is None on error."""
        start, answer, error = self.run_at(req, argv_prefix)
        return self.end - start, answer, error

    def run_at(self, req: workloads.Request, argv_prefix: list[str] | None = None):
        """(start, answer, error) of one request; its end is left in ``self.end``."""
        if self.workload != "cli-session":
            start = time.perf_counter()
            try:
                answer, error = workloads.execute(self.E, req), None
            except Exception as exc:  # a failed request is counted, not fatal
                answer, error = None, repr(exc)
            self.end = time.perf_counter()
            return start, answer, error
        cmd = [sys.executable] + (argv_prefix or ["-m", "ellcob.cli"]) + req.argv
        start, self.end, code, out, err = run_child(cmd, self.cal)
        if code is None:
            return start, None, f"timed out after {CLI_TIMEOUT_S} s"
        if code:
            return start, None, f"exit {code}: {err.strip()[-300:]}"
        return start, out, None


def requests_of(workload: str, seed: int, count: int | None, rounds: int | None):
    """The seeded stream: the first ``count`` requests, or ``rounds`` whole rounds,
    or (both None) whole rounds until the caller stops."""
    index = issued = 0
    while rounds is None or index < rounds:
        for req in workloads.round_of(workload, seed, index):
            if count is not None and issued >= count:
                return
            issued += 1
            yield index, req
        index += 1


# ---------------------------------------------------------------------------
# set-up


def warm_up(E, workload: str, cal: speed.Calibrator) -> list[tuple[float, float]]:
    """Fill the library's caches through the calls the workload times;
    returns the span of each call, with calibration tasks between them."""
    spans = []
    for req in workloads.warmup_round(workload):
        cal.probe()
        start = time.perf_counter()
        workloads.execute(E, req)
        spans.append((start, time.perf_counter()))
    cal.probe(SETUP_TASKS)
    return spans


def warm_setup(cal: speed.Calibrator, import_span: tuple[float, float], warm_spans: list) -> tuple[float, float]:
    """Import plus warm-up: (time at the reference speed, wall time)."""
    spans = [import_span] + warm_spans
    return sum(cal.scale(*span) for span in spans), sum(end - start for start, end in spans)


def setup_probe(workload: str) -> None:
    """Child side of a warm set-up sample: import plus warm-up, timed raw
    and at the reference speed."""
    cal = speed.Calibrator()
    cal.probe(SETUP_TASKS)
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import ellcob as E

    import_span = (start, time.perf_counter())
    scaled, raw = warm_setup(cal, import_span, warm_up(E, workload, cal))
    print(json.dumps({"setup_s": scaled, "raw_setup_s": raw}))


def cli_setup_sample(cal: speed.Calibrator) -> tuple[float, float]:
    """A child that only imports ellcob -- what every cli call pays first:
    (time at the reference speed, wall time)."""
    cal.probe(SETUP_TASKS)
    start, end, code, _, err = run_child([sys.executable, "-c", "import ellcob"], cal)
    if code != 0:
        raise RuntimeError(f"import ellcob failed: {err.strip()[-300:]}")
    cal.probe(SETUP_TASKS)
    return cal.scale(start, end), end - start


def measure_setup(workload: str, E, import_span: tuple[float, float], cal: speed.Calibrator) -> list:
    """Set-up samples taken before the first request, each (time at the
    reference speed, wall time).  cli-session takes one more between
    rounds; a warm workload times import plus warm-up here and in fresh
    children."""
    if workload == "cli-session":
        return [cli_setup_sample(cal) for _ in range(CLI_SETUP_SAMPLES)]
    samples = [warm_setup(cal, import_span, warm_up(E, workload, cal))]
    for _ in range(WARM_SETUP_PROBES):
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload, "--setup-probe"],
                              cwd=ROOT, env=child_env(), capture_output=True, text=True, check=True)
        probe = json.loads(proc.stdout.splitlines()[-1])
        samples.append((probe["setup_s"], probe["raw_setup_s"]))
    return samples


# ---------------------------------------------------------------------------
# the gate


def verify(gate: oracle.Oracle, records: list) -> list[str]:
    """Run every answer through the gate; returns one message per failure."""
    failures = []
    for req, _, answer, error in records:
        if error is None:
            try:
                gate.check(req, answer)
                continue
            except Exception as exc:  # GateFailure, or an answer too malformed to read
                error = f"{type(exc).__name__}: {exc}"
        failures.append(f"{req.key}: {error}")
    return failures


# ---------------------------------------------------------------------------
# untraced and traced runs


def run_untraced(args, client: Client, setup: list, cal: speed.Calibrator) -> tuple[list, float, dict]:
    """Whole rounds until the timed wall time (the sum of request wall
    times) reaches --seconds and MIN_REQUESTS were issued.  Calibration
    tasks run before every request, outside its timed span."""
    records, spans = [], []
    wall = 0.0
    last_round = 0
    for index, req in requests_of(args.workload, args.seed, args.requests, None):
        if index != last_round:
            if args.workload == "cli-session":
                setup.append(cli_setup_sample(cal))
            if args.requests is None and wall >= args.seconds and len(records) >= MIN_REQUESTS:
                break
            last_round = index
        cal.probe(PROBES[args.workload])
        start, answer, error = client.run_at(req)
        spans.append((start, client.end))
        wall += client.end - start
        records.append((req, client.end - start, answer, error))
    cal.probe(speed.MIN_TASKS)  # so the last request is calibrated from both sides
    who = resource.RUSAGE_CHILDREN if args.workload == "cli-session" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    scaled = [cal.scale(start, end) for start, end in spans]
    return records, wall, {"peak_rss_mb": peak_rss_mb, "rounds": last_round + 1, "scaled": scaled, "spans": spans}


def run_traced(args, client: Client, import_s: float) -> tuple[list, dict]:
    """Each request of a fixed prefix of the stream, untraced and then traced."""
    import tracer

    tr = tracer.Tracer()
    records = []
    untraced_s = traced_s = 0.0
    import_samples = []
    state_file = OUT / f"shim-{os.getpid()}.json"
    rounds = None if args.requests is not None else TRACE_ROUNDS[args.workload]
    for i, (_, req) in enumerate(requests_of(args.workload, args.seed, args.requests, rounds)):
        lat_u, ans_u, err_u = client.run(req)
        if args.workload == "cli-session":
            lat_t, ans_t, err_t = client.run(req, [str(HERE / "shim.py"), str(state_file)])
            if state_file.is_file():
                state = json.loads(state_file.read_text())
                state_file.unlink()
                tr.merge(state, i)
                import_samples.append(state["import_s"])
                self_sum = sum(state["self_s"])
            else:
                self_sum = 0.0
        else:
            tr.request = i
            before = tr.total_self()
            tr.install()
            try:
                lat_t, ans_t, err_t = client.run(req)
            finally:
                tr.uninstall()
            self_sum = tr.total_self() - before
        untraced_s += lat_u
        traced_s += lat_t
        error = err_t or err_u
        if error is None and oracle.answer_digest(ans_u) != oracle.answer_digest(ans_t):
            error = "traced and untraced answers differ"
        if error is None and self_sum > lat_t:
            error = f"layer self times {self_sum:.6f} s exceed the request's {lat_t:.6f} s"
        records.append((req, lat_t, ans_t, error))
    metrics = tr.layer_metrics()
    metrics["cli.import_s"] = statistics.median(import_samples) if import_samples else import_s
    metrics["trace.overhead_ratio"] = traced_s / untraced_s
    tr.write_spans(OUT / f"{args.workload}-seed{args.seed}-spans.tsv.gz")
    return records, metrics


def unit_of(name: str) -> str:
    if name.endswith("throughput_rps"):
        return "1/s"
    if name == "peak_rss_mb":
        return "MB"
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("ratio") else "count"


def run_workload(args) -> int:
    if not (SRC / "ellcob" / "__init__.py").is_file():
        print(f"error: no ellcob sources under {SRC}", file=sys.stderr)
        return 2
    compileall.compile_dir(str(SRC), quiet=1)  # so no cold child pays bytecode compilation
    speed.pin_to_one_cpu()
    cal = speed.Calibrator()
    cal.probe(SETUP_TASKS)
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import ellcob as E

    end = time.perf_counter()
    import_s = end - start
    OUT.mkdir(exist_ok=True)
    client = Client(args.workload, E, None if args.trace else cal)
    setup = measure_setup(args.workload, E, (start, end), cal)
    if args.trace:
        records, metrics = run_traced(args, client, import_s)
        wall = sum(r[1] for r in records)
        extra: dict = {}
    else:
        records, wall, extra = run_untraced(args, client, setup, cal)
    reference = oracle.load_reference(args.reference or REFERENCE)
    failures = verify(oracle.Oracle(reference, args.seed), records)
    attempted, failed = len(records), len(failures)
    latencies = [r[1] for r in records]
    raw: dict = {}
    if not args.trace:
        scaled = extra["scaled"]
        metrics = {
            "throughput_rps": (attempted - failed) / sum(scaled),
            "latency_p50_s": percentile(scaled, 50),
            "latency_p90_s": percentile(scaled, 90),
            "setup_s": statistics.median(s for s, _ in setup),
            "peak_rss_mb": extra["peak_rss_mb"],
        }
        raw = {
            "raw.throughput_rps": (attempted - failed) / wall,
            "raw.latency_p50_s": percentile(latencies, 50),
            "raw.latency_p90_s": percentile(latencies, 90),
            "raw.setup_s": statistics.median(r for _, r in setup),
            "calibration.task_median_s": statistics.median(cal.durations),
        }
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "requests": [r[0].key for r in records], "classes": [r[0].cls for r in records],
        "latencies_s": latencies, "scaled_latencies_s": extra.get("scaled"),
        "setup_samples_s": setup, "failures": failures, "metrics": metrics, "raw": raw,
        "spans": extra.get("spans"), "calibration_tasks": list(zip(cal.times, cal.durations)),
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(report, indent=1))

    mode = "traced" if args.trace else "untraced"
    print(f"{args.workload} seed {args.seed} {mode}: {attempted} requests, {failed} failed, "
          f"{wall:.2f} s timed" + (f", {extra['rounds']} rounds" if extra else ""))
    for message in failures[:20]:
        print(f"  FAILED {message}")
    for name, value in {**metrics, **raw}.items():
        print(f"  {name:40s} {value:.6g} {unit_of(name)}")
    print(f"  {'error_rate':40s} {failed / attempted:.6g} ratio ({failed} of {attempted}, latency samples {attempted})")
    print(json.dumps({
        "correct": not failures, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }))
    return 0 if not failures else 1


def run_all(args) -> int:
    """Every workload one after another, each in its own fresh process."""
    results, code = {}, 0
    for workload in workloads.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        results[workload] = json.loads(lines[-1]) if lines else None
        code = code or proc.returncode
    print(json.dumps(results))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=oracle.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--requests", type=int, default=None,
                        help="issue exactly this many requests of the stream (self-check size)")
    parser.add_argument("--reference", default=None, help="digest table to use instead of reference.json")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
