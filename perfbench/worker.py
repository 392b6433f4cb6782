"""One benchmark process: set up a workload, then measure or trace it.

Started by ``run.py`` in a fresh interpreter with the checkout's ``src`` on
``PYTHONPATH``.  Prints one JSON object as its last stdout line.

Modes:
  setup    import the library and build the first input batch; report the time.
  measure  set up, then run the --count ops from --start, untraced, and time
           the reference loop before the first op and after every
           REF_BLOCK_S of op time.
  trace    run ops 0 .. --ops - 1 traced, then replay them untraced; report
           per-layer metrics and the tracing overhead.

Every op's output is judged outside its timed span.  Ops with an index below
--ops report the sha256 of their output.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()
import pcsreg  # noqa: E402  (a fresh interpreter's import is part of set-up)
import pcsreg.cli  # noqa: E402

_IMPORT_S = time.perf_counter() - _T0

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
STATE_DIR = ROOT / ".perfbench"
WORKDIR = STATE_DIR / f"work-{os.getpid()}"
# The speed of the host drifts by tens of percent over seconds and minutes.
# A fixed pure-Python loop, timed next to the ops, measures that speed, so
# that run.py can rescale op times to one nominal host speed.
REF_BLOCK_S = 0.25
REF_REPS = 5


def reference_loop() -> float:
    """Fixed interpreter work of about a millisecond: ints, floats, tuples, a dict."""
    table: dict = {}
    acc = 0.0
    for i in range(3000):
        key = (i % 37, i & 3)
        table[key] = table.get(key, 0.0) + i * 0.5
        acc += abs(table[key] - i) / (1 + (i % 11))
    return acc


def time_reference() -> float:
    """Median of REF_REPS timings of the reference loop, in seconds."""
    times = []
    for _ in range(REF_REPS):
        t0 = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _setup(workload_name: str, seed: int, start: int):
    """Build the first input batch; set-up time includes the library import."""
    if not Path(pcsreg.__file__).resolve().is_relative_to((ROOT / "src").resolve()):
        raise SystemExit(f"pcsreg imported from {pcsreg.__file__}, not from {ROOT / 'src'}")
    t0 = time.perf_counter()
    wl = workloads.WORKLOADS[workload_name](seed, WORKDIR)
    end = start + wl.setup_batch
    batch = [wl.make_input(i) for i in range(start, end)]
    stream = itertools.chain(batch, map(wl.make_input, itertools.count(end)))
    return wl, stream, _IMPORT_S + time.perf_counter() - t0


class Run:
    """Durations, outcome tally and per-op output digests of a sequence of ops."""

    def __init__(self, digest_ops: int):
        self.digest_ops = digest_ops
        self.durations: list[float] = []
        self.op_digests: list[str] = []
        self.status: Counter = Counter()
        self.reasons: Counter = Counter()
        self.trials = 0

    def op(self, wl, inp, tracer=None) -> None:
        arg = wl.prepare(inp)
        scope = tracer.op(inp.index) if tracer is not None else contextlib.nullcontext()
        t0 = time.perf_counter()
        with scope:
            try:
                result, exc = wl.run(arg), None
            except Exception as e:  # every op failure is counted, never fatal
                result, exc = None, e
        self.durations.append(time.perf_counter() - t0)
        try:
            outcome = wl.judge(inp, result, exc)
        except Exception as e:  # a check that raises is a failed check
            reason = "check raised " + workloads.reason_of(e)
            outcome = workloads.Outcome(workloads.FAILED, reason.encode(), reason)
        if inp.index < self.digest_ops:
            self.op_digests.append(hashlib.sha256(outcome.output).hexdigest())
        self.status[outcome.status] += 1
        if outcome.reason is not None:
            self.reasons[f"{outcome.status}: {outcome.reason}"] += 1
        self.trials += outcome.trials

    def result(self) -> dict:
        return {
            "durations": self.durations,
            "op_digests": self.op_digests,
            "status": dict(self.status),
            "reasons": dict(self.reasons),
            "trials": self.trials,
        }


def measure(wl, stream, count: int, digest_ops: int) -> dict:
    """Run the ops; each op's ``ref_s`` is the mean reference time around its block."""
    run = Run(digest_ops)
    ref_s: list[float] = []
    before, busy = time_reference(), 0.0
    for inp in itertools.islice(stream, count):
        run.op(wl, inp)
        busy += run.durations[-1]
        if busy >= REF_BLOCK_S or len(run.durations) == count:
            after = time_reference()
            ref_s += [(before + after) / 2] * (len(run.durations) - len(ref_s))
            before, busy = after, 0.0
    out = run.result()
    out["ref_s"] = ref_s
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def trace(wl, stream, n_ops: int) -> dict:
    from tracing import Tracer

    inputs = list(itertools.islice(stream, n_ops))
    tracer = Tracer()
    tracer.install()
    traced = Run(n_ops)
    try:
        for inp in inputs:
            traced.op(wl, inp, tracer)
    finally:
        tracer.uninstall()
    plain = Run(n_ops)
    for inp in inputs:
        plain.op(wl, inp)
    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = (sum(traced.durations) - sum(plain.durations), "s")
    metrics["trace.ops"] = (len(inputs), "count")
    spans_path = STATE_DIR / f"spans-{wl.name}.tsv.gz"
    tracer.write_spans(spans_path)
    out = traced.result()
    out.update(
        metrics=metrics,
        absent=tracer.absent,
        replay_op_digests=plain.op_digests,
        spans_file=str(spans_path.relative_to(ROOT)),
    )
    return out


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--mode", choices=["setup", "measure", "trace"], required=True)
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--start", type=int, default=0)
    ap.add_argument("--count", type=int, default=1, help="ops to measure")
    ap.add_argument("--ops", type=int, required=True, help="ops to trace, and ops to digest")
    args = ap.parse_args()
    wl, stream, setup_s = _setup(args.workload, args.seed, args.start)
    if args.mode == "setup":
        out = {}
    elif args.mode == "measure":
        out = measure(wl, stream, args.count, args.ops)
    else:
        out = trace(wl, stream, args.ops)
    out["setup_s"] = setup_s
    with contextlib.suppress(OSError):
        WORKDIR.rmdir()
    sys.stdout.write(json.dumps(out) + "\n")


if __name__ == "__main__":
    main()
