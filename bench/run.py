"""stepcalc benchmark: one closed-loop client sends seeded CLI requests
through ``stepcalc.cli.main(argv)`` in-process and checks every answer.

    python3 bench/run.py --workload builtin_defaults --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Run from the repository root; the program is imported from ``src/``.  With
``--trace 0`` it reports the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a separate traced run.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  A run record
with per-request output digests (and, traced, the span table) goes to
``bench-results/``.  See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import workloads  # noqa: E402
from speed import REFERENCE_S, Speed  # noqa: E402

WORKLOADS = {
    "builtin_defaults": workloads.builtin_defaults_block,
    "expr_float": workloads.expr_float_block,
    "exact_deriv": workloads.exact_deriv_block,
}

#: Blocks of the traced run per second of --seconds.  The traced run repeats
#: a fixed request list, untraced and then traced, so that its work counts
#: repeat exactly; these rates keep both passes within about --seconds.
TRACE_BLOCKS_PER_SECOND = {"builtin_defaults": 1 / 20, "expr_float": 1 / 6, "exact_deriv": 1 / 3}

MIN_REQUESTS = 100  # so that ten samples lie beyond p90
SETUP_SPAWNS = 11

#: Smallest failure ratio reported.  A run attempts far fewer than 1e9
#: requests, so one failure always reads above it; it keeps the metric
#: positive when nothing fails.
FAIL_RATIO_FLOOR = 1e-9

#: Metrics that are times, scaled to the reference speed (speed.py).
TIMES = ("setup_s", "req_per_s", "latency_p50_ms", "latency_p90_ms")

END_TO_END_UNITS = {
    "setup_s": "s",
    "req_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "fail_ratio": "ratio",
    "worst_rel_err": "ratio",
    "peak_rss_mb": "MB",
}


class Outcome:
    """Latencies, errors and output digests of the requests run so far.

    ``latencies`` are scaled to the reference speed (see speed.py);
    ``raw_latencies`` are as timed.
    """

    def __init__(self):
        self.latencies: list[float] = []
        self.raw_latencies: list[float] = []
        self.kinds: Counter = Counter()
        self.failures: list[dict] = []
        self.worst_by_kind: dict[str, float] = {}
        self.digests: list[tuple[str, int, str]] = []
        self.blocks = 0


def call(stepcalc_cli, req: workloads.Request) -> tuple[int | None, str, str, float]:
    """Run one request in-process; returns (exit code, stdout, stderr,
    seconds).  The exit code is None when main() raised."""
    for path, text in req.files.items():
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = stepcalc_cli.main(req.argv)
        except Exception as exc:  # a traceback is a failed request, not a failed run
            code = None
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), elapsed


def run_request(stepcalc_cli, req: workloads.Request, outcome: Outcome, speed: Speed) -> float:
    """Run and check one request; returns its speed scale factor."""
    code, stdout, stderr, elapsed = call(stepcalc_cli, req)
    factor = speed.factor()
    outcome.raw_latencies.append(elapsed)
    outcome.latencies.append(elapsed * factor)
    outcome.kinds[req.kind] += 1
    digest = hashlib.sha256(stdout.encode())
    try:
        if code != 0:
            raise checks.CheckFailed(f"exit code {code}: {stderr.strip()[-200:]}")
        files = {}
        for path in req.outputs:
            with open(path, encoding="utf-8") as fh:
                files[path] = fh.read()
            digest.update(files[path].encode())
        err = req.check(stdout, files)
        if err is not None:
            outcome.worst_by_kind[req.kind] = max(outcome.worst_by_kind.get(req.kind, 0.0), err)
    except (checks.CheckFailed, OSError, ValueError, LookupError) as exc:
        # malformed output (a short CSV row, a missing file) fails the request
        outcome.failures.append({"kind": req.kind, "argv": req.argv,
                                 "reason": f"{type(exc).__name__}: {exc}"})
    outcome.digests.append((req.kind, code, digest.hexdigest()))
    return factor


def blocks(workload: str, seed: int, tmpdir: str):
    draw = workloads.Draw(random.Random(f"{workload}:{seed}"))
    index = 0
    while True:
        yield WORKLOADS[workload](draw, tmpdir, index)
        index += 1


def warm_up(stepcalc_cli) -> None:
    """Finish imports and first-call set-up before timing."""
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in (["pi", "--terms", "10"], ["deriv", "x^2", "--at=3"], ["fn", "exp", "0.1"]):
            stepcalc_cli.main(argv)


def measure_setup() -> tuple[float, float]:
    """Median seconds from spawning an interpreter until stepcalc.cli is
    imported and its parser built: (scaled to the reference speed, raw).
    Each child times the speed loop right after it reports ready, so that
    the speed is measured on the core that did the set-up."""
    code = (f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(BENCH_DIR)!r}]; "
            "import stepcalc.cli as c; c.build_parser(); "
            "sys.stdout.write('ready\\n'); sys.stdout.flush(); "
            "import speed; print(speed.loop_seconds())")
    times, raw = [], []
    for i in range(SETUP_SPAWNS + 1):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], stdout=subprocess.PIPE, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            loop_s = proc.stdout.read()
            if proc.wait() != 0 or line != b"ready\n":
                raise RuntimeError("set-up probe failed")
        if i:  # the first spawn also writes the bytecode cache
            raw.append(ready - start)
            times.append((ready - start) * REFERENCE_S / float(loop_s))
    return statistics.median(times), statistics.median(raw)


def timed_run(stepcalc_cli, workload: str, seed: int, seconds: float, tmpdir: str,
              speed: Speed) -> Outcome:
    """Whole blocks until --seconds have passed and MIN_REQUESTS are done."""
    outcome = Outcome()
    start = time.perf_counter()
    for block in blocks(workload, seed, tmpdir):
        for req in block:
            run_request(stepcalc_cli, req, outcome, speed)
        outcome.blocks += 1
        if time.perf_counter() - start >= seconds and len(outcome.latencies) >= MIN_REQUESTS:
            return outcome


def first_blocks(workload: str, seed: int, n_blocks: int, tmpdir: str) -> list[workloads.Request]:
    gen = blocks(workload, seed, tmpdir)
    return [req for _ in range(n_blocks) for req in next(gen)]


def trace_requests(stepcalc_cli, reqs: list[workloads.Request], speed: Speed):
    """Run ``reqs`` with the tracer installed; returns (Outcome, Tracer).
    Each request's spans carry its speed scale factor."""
    from tracer import Tracer

    outcome, tracer = Outcome(), Tracer()
    tracer.install()
    try:
        for req in reqs:
            tracer.close_request(run_request(stepcalc_cli, req, outcome, speed))
    finally:
        tracer.uninstall()
    return outcome, tracer


def traced_run(stepcalc_cli, workload: str, seed: int, n_blocks: int, tmpdir: str,
               speed: Speed):
    """The first ``n_blocks`` blocks, untraced and then traced."""
    reqs = first_blocks(workload, seed, n_blocks, tmpdir)
    plain = Outcome()
    for req in reqs:
        run_request(stepcalc_cli, req, plain, speed)
    traced, tracer = trace_requests(stepcalc_cli, reqs, speed)
    return plain, traced, tracer


def quantile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(outcome: Outcome, lat: list[float], setup_s: float) -> dict[str, float]:
    n = len(lat)
    return {
        "setup_s": setup_s,
        "req_per_s": n / sum(lat),
        "latency_p50_ms": quantile(lat, 50) * 1e3,
        "latency_p90_ms": quantile(lat, 90) * 1e3,
        "fail_ratio": max(len(outcome.failures) / n, FAIL_RATIO_FLOOR),
        "worst_rel_err": max([*outcome.worst_by_kind.values(), checks.REL_ERR_FLOOR]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_record(args, outcome: Outcome, extra: dict) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "commit": git_commit(),
        "requests_by_kind": dict(sorted(outcome.kinds.items())),
        **extra,
    }


def run_all(args) -> int:
    """Every workload untraced, then traced, each in a fresh process; prints
    the run records, the end-to-end table and the per-layer table."""
    tables: dict[int, dict[str, dict]] = {0: {}, 1: {}}
    ok = True
    for trace in (0, 1):
        for workload in WORKLOADS:
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"# {workload} --trace {trace} exited {proc.returncode}: "
                      f"{proc.stderr.strip()[-500:]}")
                ok = False
                continue
            result = json.loads(lines[-1])
            ok = ok and result["correct"]
            print(f"{lines[0]} correct={result['correct']} failed={result['failed']}")
            tables[trace][workload] = result["metrics"]
    for trace, title in ((0, "end-to-end"), (1, "per-layer (traced run)")):
        names = list(WORKLOADS)
        print(f"\n{title:40s}" + "".join(f"{w:>18s}" for w in names) + "  unit")
        rows = next(iter(tables[trace].values()), {})
        for metric, entry in rows.items():
            cells = [tables[trace].get(w, {}).get(metric, {}).get("value") for w in names]
            print(f"{metric:40s}" + "".join(f"{'-' if v is None else format(v, '.6g'):>18s}"
                                            for v in cells) + f"  {entry['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or all of them untraced and then traced")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "stepcalc" / "cli.py").is_file():
        print(f"run.py: no stepcalc sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    from stepcalc import cli as stepcalc_cli

    results = ROOT / "bench-results"
    results.mkdir(exist_ok=True)
    stem = results / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT) as tmpdir:
        warm_up(stepcalc_cli)
        speed = Speed()
        if args.trace:
            n_blocks = max(1, round(args.seconds * TRACE_BLOCKS_PER_SECOND[args.workload]))
            plain, outcome, tracer = traced_run(stepcalc_cli, args.workload, args.seed,
                                                n_blocks, tmpdir, speed)
            from tracer import COMPUTED, LAYER_METRICS, layer_values

            values = layer_values(tracer)
            values["trace.overhead_ratio"] = sum(outcome.latencies) / sum(plain.latencies)
            units = {name: unit for name, unit, _ in LAYER_METRICS}
            units["trace.overhead_ratio"] = "ratio"
            failures = plain.failures + outcome.failures
            attempted = len(plain.latencies) + len(outcome.latencies)
            tracer.write_spans(f"{stem}-spans.csv.gz")
            extra = {"blocks": n_blocks, "spans": len(tracer.span_name),
                     "computed_counts": sorted(COMPUTED)}
        else:
            setup_s, raw_setup_s = measure_setup()
            outcome = timed_run(stepcalc_cli, args.workload, args.seed, args.seconds, tmpdir,
                                speed)
            values = end_to_end(outcome, outcome.latencies, setup_s)
            raw = end_to_end(outcome, outcome.raw_latencies, raw_setup_s)
            units = END_TO_END_UNITS
            failures = outcome.failures
            attempted = len(outcome.latencies)
            extra = {"blocks": outcome.blocks, "latency_samples": attempted,
                     "unscaled": {k: raw[k] for k in TIMES}}
    record = run_record(args, outcome, extra)
    digest = hashlib.sha256("".join(d for _, _, d in outcome.digests).encode()).hexdigest()
    record["output_digest"] = digest

    print("# run: " + " ".join(f"{k}={v}" for k, v in record.items()
                               if k not in ("requests_by_kind", "computed_counts", "unscaled")))
    print("# requests: " + " ".join(f"{k}={v}" for k, v in record["requests_by_kind"].items()))
    for name, value in values.items():
        note = f"  (n={attempted})" if name.startswith("latency") else ""
        if name in extra.get("unscaled", {}):
            note += f"  unscaled {extra['unscaled'][name]:.6g}"
        if args.trace and name in extra.get("computed_counts", ()):
            note = "  (computed from call arguments)"
        print(f"{name:40s} {value:>16.6g} {units[name]}{note}")
    for failure in failures[:20]:
        print(f"# FAILED {failure['kind']}: {failure['reason']}  argv={failure['argv']}")

    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump({"record": record, "metrics": values, "units": units, "failures": failures,
                   "worst_rel_err_by_kind": outcome.worst_by_kind,
                   "requests": [{"kind": k, "exit": c, "sha256": d, "ms": round(t * 1e3, 3),
                                 "unscaled_ms": round(r * 1e3, 3)}
                                for (k, c, d), t, r in zip(outcome.digests, outcome.latencies,
                                                           outcome.raw_latencies)]},
                  fh, indent=1)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
