"""pcsreg benchmark: end-to-end metrics, or per-layer metrics from a traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {listen,crowded,resolve} --seed N \\
        --seconds S --trace {0,1} [--ops N]

Every process runs one workload in a fresh single-threaded interpreter
(``worker.py``) with the checkout's ``src`` on ``PYTHONPATH``, so the
library is used from source and from outside.

``--trace 0`` measures set-up in ``SETUP_RUNS`` extra fresh interpreters,
then runs ops untraced in ``SEGMENTS`` consecutive fresh interpreters that
continue one op stream.  A run is a fixed number of ops, S times the
workload's ``OPS_PER_SECOND`` (at least ``--ops``), so that a seed always
gives the same ops and the same failures.  The counts are large enough for
the gated percentiles to vary by less than a tenth between seeds; on a
2-vCPU x86-64 VM the seed code spends 0.7 S to 1.4 S seconds on them.
Every measuring interpreter also times a fixed reference loop before its
first op and after every quarter second of ops (``worker.py``).  The gated
latencies ``op_ms_norm.*`` divide each op's wall time by the reference time
around it, i.e. they are op times in ms on a host whose reference loop takes
exactly 1 ms: the host's speed drifts by tens of percent within minutes, and
the ratio cancels most of that drift.  The gate is on the median and p75.
The crowded workload's p90 sits at the knee of its heavy tail, where a
percent more or fewer slow ops moves it by a tenth, so p90 and p99 are
printed, with the wall-time ``op_ms.*``, but not gated.
Latency percentiles and throughput pool the ops of all segments; set-up time
is the median over all the interpreters, and peak memory the median of the
measuring interpreters' peaks.  Several interpreters average out how fast
one interpreter happens to run (hash seeds and memory layout differ).

``--trace 1`` runs the first ``--ops`` ops with a span around every traced
library call, replays them untraced to measure the tracing overhead, and
writes the spans to ``.perfbench/spans-<workload>.tsv.gz``.

Every op's output is checked outside its timed span.  The benchmark prints
every metric by name with its unit, failures by type and reason, and a
sha256 digest of the output of the first ``--ops`` ops, which is the same
for both modes and every repeat with one seed.  The last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
metrics that ``BENCHMARK.json`` declares for the mode.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Ops traced and digested per workload: a few seconds of untraced work each.
DEFAULT_OPS = {"listen": 80, "crowded": 1000, "resolve": 2000}
# Ops per second of --seconds in an untraced run.
OPS_PER_SECOND = {"listen": 25, "crowded": 160, "resolve": 500}
SETUP_RUNS = 7
SEGMENTS = 4
DEADLINE_S = 170.0
P99_MIN_BEYOND = 10


class BenchError(RuntimeError):
    pass


def _worker(mode: str, args, deadline: float, **extra) -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--mode", mode,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--ops", str(args.ops),
    ]
    for key, value in extra.items():
        cmd += ["--" + key.replace("_", "-"), str(value)]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker did not finish within the time limit") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} worker printed no result")
    return json.loads(lines[-1])


def _digest(op_digests: list[str]) -> str:
    return hashlib.sha256("\n".join(op_digests).encode("ascii")).hexdigest()


def _merge(parts: list[dict]) -> dict:
    """Pool the ops of consecutive segments of one run."""
    status: Counter = Counter()
    reasons: Counter = Counter()
    for part in parts:
        status.update(part["status"])
        reasons.update(part["reasons"])
    return {
        "durations": [d for part in parts for d in part["durations"]],
        "ref_s": [r for part in parts for r in part["ref_s"]],
        "op_digests": [h for part in parts for h in part["op_digests"]],
        "status": status,
        "reasons": reasons,
        "trials": sum(part["trials"] for part in parts),
    }


def _measure(args, deadline: float) -> tuple[dict, dict]:
    setups = [_worker("setup", args, deadline)["setup_s"] for _ in range(SETUP_RUNS)]
    total = max(round(args.seconds * OPS_PER_SECOND[args.workload]), args.ops, SEGMENTS)
    bounds = [total * i // SEGMENTS for i in range(SEGMENTS + 1)]
    parts = [
        _worker("measure", args, deadline, start=start, count=end - start)
        for start, end in zip(bounds, bounds[1:])
    ]
    run = _merge(parts)
    setups += [part["setup_s"] for part in parts]
    durations = run["durations"]
    ms = [d * 1e3 for d in durations]
    q = statistics.quantiles(ms, n=100, method="inclusive")
    norm = statistics.quantiles(
        [d / r for d, r in zip(durations, run["ref_s"])], n=100, method="inclusive"
    )
    run.update(
        busy_s=sum(durations),
        p99=q[98],
        p99_beyond=sum(1 for v in ms if v > q[98]),
        setup_runs=len(setups),
    )
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (len(ms) / run["busy_s"], "1/s"),
        "op_ms.p50": (q[49], "ms"),
        "op_ms.p75": (q[74], "ms"),
        "op_ms.p90": (q[89], "ms"),
        "op_ms_norm.p50": (norm[49], "ms"),
        "op_ms_norm.p75": (norm[74], "ms"),
        "op_ms_norm.p90": (norm[89], "ms"),
        "reference_loop_ms": (statistics.median(run["ref_s"]) * 1e3, "ms"),
        "peak_rss_mb": (statistics.median(part["peak_rss_mb"] for part in parts), "MB"),
    }
    return run, metrics


def _trace(args, deadline: float) -> tuple[dict, dict]:
    run = _worker("trace", args, deadline)
    run["status"] = Counter(run["status"])
    run["reasons"] = Counter(run["reasons"])
    return run, {k: tuple(v) for k, v in run["metrics"].items()}


def _report(workload: str, run: dict, metrics: dict, trace: bool) -> list[str]:
    """Human-readable lines: every metric, outcomes, reasons and the digest."""
    n = len(run["durations"])
    failed, no_expr = run["status"]["failed"], run["status"]["no_expression"]
    lines = [f"workload {workload}: {n} ops ({'traced' if trace else 'untraced'})"]
    for name, (value, unit) in sorted(metrics.items()):
        lines.append(f"  {name} = {value:.6g} {unit}")
    if not trace:
        lines.append(f"  setup_s is the median of {run['setup_runs']} fresh interpreters")
        if run["p99_beyond"] >= P99_MIN_BEYOND:
            lines.append(f"  op_ms.p99 = {run['p99']:.6g} ms ({n} samples, {run['p99_beyond']} beyond)")
        else:
            lines.append(f"  op_ms.p99 = n/a ({n} samples, {run['p99_beyond']} beyond)")
        lines.append(f"  busy_s = {run['busy_s']:.6g} s")
        if workload == "listen":
            lines.append(
                f"  trials_per_s = {run['trials'] / run['busy_s']:.6g} 1/s ({run['trials']} trials)"
            )
    lines.append(f"  fail_share = {failed / n:.6g} ({failed}/{n})")
    if workload == "crowded":
        lines.append(f"  no_expression_share = {no_expr / n:.6g} ({no_expr}/{n})")
    for reason, count in sorted(run["reasons"].items()):
        lines.append(f"  {count} x {reason}")
    lines.append(f"  digest sha256 = {_digest(run['op_digests'])} (first {len(run['op_digests'])} ops)")
    if trace:
        lines.append(f"  absent layers = {', '.join(run['absent']) or 'none'}")
        lines.append(f"  spans written to {run['spans_file']}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(DEFAULT_OPS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--ops", type=int, help="ops to trace and digest (default: per workload)")
    args = ap.parse_args(argv)
    # Turn SIGTERM into SystemExit, so that subprocess.run kills and reaps the running worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if args.ops is None:
        args.ops = DEFAULT_OPS[args.workload]
    trace = bool(args.trace)
    deadline = time.monotonic() + DEADLINE_S
    try:
        if not (ROOT / "src" / "pcsreg" / "__init__.py").is_file():
            raise BenchError(f"no library source under {ROOT / 'src'}")
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
        run, metrics = (_trace if trace else _measure)(args, deadline)
        missing = [name for name in declared if name not in metrics]
        if missing:
            raise BenchError(f"declared metrics not measured: {missing}")
        wrong_unit = [name for name, unit in declared.items() if metrics[name][1] != unit]
        if wrong_unit:
            raise BenchError(f"declared units differ from measured units: {wrong_unit}")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in _report(args.workload, run, metrics, trace):
        print(line)
    checks_failed = sum(n for reason, n in run["reasons"].items() if ": check" in reason)
    replay_differs = trace and run["replay_op_digests"] != run["op_digests"]
    if replay_differs:
        print("  replayed ops gave other output than the traced ops", file=sys.stderr)
    result = {
        "correct": checks_failed == 0 and not replay_differs,
        "attempted": len(run["durations"]),
        "failed": run["status"]["failed"],
        "metrics": {name: {"value": metrics[name][0], "unit": unit} for name, unit in declared.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
