"""Smoke test of the benchmark at a tiny size.

Run from the root of a checkout with either of

    python3 -m pytest perfbench/test_smoke.py
    python3 perfbench/test_smoke.py

It checks that every workload, untraced and traced, emits exactly the
metrics BENCHMARK.json declares, with their units, that outputs pass their
checks, that both modes print the same output digest for one seed, that only
the listen workload calls the simulated listener, and that the benchmark
fails without a result when the library source is missing.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = ["--seconds", "1", "--ops", "3"]


def _bench(root: Path, workload: str, trace: int, seed: int = 7) -> subprocess.CompletedProcess:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed), "--trace", str(trace), *TINY]
    cmd[0] = sys.executable if cmd[0].startswith("python") else cmd[0]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=180)


def _digest(stdout: str) -> str:
    match = re.search(r"digest sha256 = ([0-9a-f]{64})", stdout)
    assert match, stdout
    return match.group(1)


def check_workload(workload: str) -> None:
    digests = []
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = _bench(ROOT, workload, trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in SPEC[key]}
        assert set(result["metrics"]) == set(declared)
        for name, unit in declared.items():
            metric = result["metrics"][name]
            assert metric["unit"] == unit, name
            assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"]), name
            assert f"{name} = " in proc.stdout, name
        digests.append(_digest(proc.stdout))
    assert digests[0] == digests[1], "traced and untraced runs digest different outputs"
    listener_calls = result["metrics"]["harness.simulate_listener.calls"]["value"]
    assert (listener_calls > 0) == (workload == "listen")


def test_listen():
    check_workload("listen")


def test_crowded():
    check_workload("crowded")


def test_resolve():
    check_workload("resolve")


def test_fails_without_library():
    with tempfile.TemporaryDirectory() as tmp:
        tmp_root = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", tmp_root / "BENCHMARK.json")
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, tmp_root / path, ignore=shutil.ignore_patterns("__pycache__"))
        for trace in (0, 1):
            proc = _bench(tmp_root, "listen", trace)
            assert proc.returncode != 0
            assert not proc.stdout.strip()


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"{name} ok")
