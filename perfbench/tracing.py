"""Span tracer for the traced benchmark run.

The tracer replaces named library functions with wrappers everywhere a
caller looks them up: a function imported by name into several modules
(``relation`` lives in ``prepositions`` and is imported into ``harness``,
``resolver``, ``generator`` and ``optimizer``) is replaced in each of them.
A function that no longer exists is reported as an absent layer instead of
failing the run.

Span layers record one span per call (name, start, end, parent) in flat
arrays that stay in memory until ``write_spans``; self time is a span's
duration minus the durations of its direct children.  Count layers only
count calls: ``membership``, ``frame_instance`` and ``update_preferences``
are too small for a span each, and ``score`` adds nothing between
``select_best`` and ``denote``, whose spans split its time.  Wrappers record
nothing while no op is active, so the benchmark's own input building and
output checks are never traced.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import sys
import time
from array import array
from pathlib import Path

PACKAGE = "pcsreg"
SPAN = "span"
COUNT = "count"

# (module, function, mode)
LAYERS = (
    ("prepositions", "membership", COUNT),
    ("prepositions", "relation", SPAN),
    ("frames", "frame_instance", COUNT),
    ("frames", "update_preferences", COUNT),
    ("resolver", "consistent_set", SPAN),
    ("resolver", "denote", SPAN),
    ("resolver", "parse_expression", SPAN),
    ("scene", "load_scene", SPAN),
    ("generator", "select_landmark", SPAN),
    ("generator", "build_landmark_chain", SPAN),
    ("generator", "expression_space", SPAN),
    ("optimizer", "score", COUNT),
    ("optimizer", "select_best", SPAN),
    ("harness", "sample_scene", SPAN),
    ("harness", "simulate_listener", SPAN),
    ("harness", "run_comparison", SPAN),
    ("cli", "main", SPAN),
)

OP_SPAN = "bench.op"


def _arg(args, kwargs, index, name):
    if len(args) > index:
        return args[index]
    return kwargs.get(name)


class Tracer:
    def __init__(self):
        self.active = False
        self.scope = None  # relation keys are unique per scope (one scene)
        self.current = -1
        self.names: list[str] = []
        self.spanned: list[bool] = []
        self.calls: list[int] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.absent: list[str] = []
        self.relation_keys: set = set()
        self.relation_keyed = 0
        self.candidates = 0
        self.select_candidates = 0
        self.select_unique_surfaces = 0
        self.rebuild_passes = 0
        self.nonconverged = 0
        self._restore: list[tuple[object, str, object]] = []
        self._op_id = self._name_id(OP_SPAN)

    def _name_id(self, name: str, spanned: bool = True) -> int:
        self.names.append(name)
        self.spanned.append(spanned)
        self.calls.append(0)
        return len(self.names) - 1

    # --- installing wrappers ----------------------------------------------

    def install(self) -> None:
        modules = {}
        for module_name, _, _ in LAYERS:
            try:
                modules[module_name] = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                modules[module_name] = None
        loaded = [
            m
            for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]
        for module_name, fn_name, mode in LAYERS:
            qualname = f"{module_name}.{fn_name}"
            fn = getattr(modules[module_name], fn_name, None)
            if not callable(fn):
                self.absent.append(qualname)
                continue
            wrapper = self._wrap(qualname, fn, mode)
            for m in loaded:
                for attr, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, attr, wrapper)
                        self._restore.append((m, attr, fn))

    def uninstall(self) -> None:
        for m, attr, fn in reversed(self._restore):
            setattr(m, attr, fn)
        self._restore.clear()

    def _wrap(self, qualname: str, fn, mode: str):
        nid = self._name_id(qualname, mode == SPAN)
        calls = self.calls
        pre = getattr(self, "_pre_" + qualname.replace(".", "_"), None)
        post = getattr(self, "_post_" + qualname.replace(".", "_"), None)
        tracer = self

        if mode == COUNT:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if tracer.active:
                    calls[nid] += 1
                return fn(*args, **kwargs)

            return counted

        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        clock = time.perf_counter

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            calls[nid] += 1
            if pre is not None:
                pre(args, kwargs)
            idx = len(names)
            parent = tracer.current
            names.append(nid)
            parents.append(parent)
            starts.append(0.0)
            ends.append(0.0)
            tracer.current = idx
            starts[idx] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                tracer.current = parent
            if post is not None:
                post(args, kwargs, result)
            return result

        return spanned

    # --- per-layer counters -------------------------------------------------

    def _pre_prepositions_relation(self, args, kwargs):
        target = _arg(args, kwargs, 0, "target")
        landmark = _arg(args, kwargs, 1, "landmark")
        frame = _arg(args, kwargs, 2, "frame")
        if target is None or landmark is None or frame is None:
            return
        self.relation_keyed += 1
        self.relation_keys.add(
            (
                self.scope,
                getattr(target, "id", target),
                getattr(landmark, "id", landmark),
                getattr(frame, "kind", None),
                getattr(frame, "origin_entity", None),
            )
        )

    def _post_generator_expression_space(self, args, kwargs, result):
        self.candidates += len(result)

    def _post_optimizer_select_best(self, args, kwargs, result):
        candidates = _arg(args, kwargs, 0, "candidates") or ()
        self.select_candidates += len(candidates)
        self.select_unique_surfaces += len({getattr(c, "surface", c) for c in candidates})

    def _post_generator_build_landmark_chain(self, args, kwargs, result):
        self.rebuild_passes += max(0, getattr(result, "iterations", 1) - 1)
        self.nonconverged += 0 if getattr(result, "converged", True) else 1

    # --- ops ------------------------------------------------------------------

    @contextlib.contextmanager
    def op(self, scope):
        """Trace one benchmark op as a root span."""
        self.scope = scope
        idx = len(self.span_name)
        self.span_name.append(self._op_id)
        self.span_parent.append(-1)
        self.span_start.append(0.0)
        self.span_end.append(0.0)
        self.calls[self._op_id] += 1
        self.current = idx
        self.active = True
        self.span_start[idx] = time.perf_counter()
        try:
            yield
        finally:
            self.span_end[idx] = time.perf_counter()
            self.active = False
            self.current = -1

    # --- results ----------------------------------------------------------------

    def self_seconds(self) -> list[float]:
        """Self time per layer name id: span time minus direct children."""
        out = [0.0] * len(self.names)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        for i in range(len(names)):
            d = ends[i] - starts[i]
            out[names[i]] += d
            p = parents[i]
            if p >= 0:
                out[names[p]] -= d
        return out

    def metrics(self) -> dict[str, tuple[float, str]]:
        selfs = self.self_seconds()
        out: dict[str, tuple[float, str]] = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = (self.calls[nid], "count")
            if self.spanned[nid]:
                out[f"{name}.self_ms"] = (selfs[nid] * 1e3, "ms")
        for module_name, fn_name, mode in LAYERS:
            name = f"{module_name}.{fn_name}"
            if name in self.absent:
                out[f"{name}.calls"] = (0, "count")
                if mode == SPAN:
                    out[f"{name}.self_ms"] = (0.0, "ms")
        out["prepositions.relation.unique_ratio"] = (
            len(self.relation_keys) / self.relation_keyed if self.relation_keyed else 0.0,
            "ratio",
        )
        out["optimizer.unique_surface_ratio"] = (
            self.select_unique_surfaces / self.select_candidates
            if self.select_candidates
            else 0.0,
            "ratio",
        )
        out["generator.expression_space.candidates"] = (self.candidates, "count")
        out["generator.build_landmark_chain.rebuild_passes"] = (self.rebuild_passes, "count")
        out["generator.build_landmark_chain.nonconverged"] = (self.nonconverged, "count")
        out["trace.absent_layers"] = (len(self.absent), "count")
        out["trace.spans"] = (len(self.span_name), "count")
        return out

    def write_spans(self, path: Path) -> None:
        """Write every span as tab-separated name, parent index, start and end (us)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        t0 = starts[0] if len(starts) else 0.0
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as f:
            f.write("index\tname\tparent\tstart_us\tend_us\n")
            for i in range(len(names)):
                f.write(
                    f"{i}\t{self.names[names[i]]}\t{parents[i]}\t"
                    f"{(starts[i] - t0) * 1e6:.3f}\t{(ends[i] - t0) * 1e6:.3f}\n"
                )
