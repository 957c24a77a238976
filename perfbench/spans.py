"""Span tracing of hieram from outside the package, and per-layer metrics.

``install`` replaces public functions with wrappers that record one span per
call: name, id, parent id, start, end and a few counts.  Each wrapper goes on
the module attribute the caller looks the name up through, so a function bound
by ``from .x import f`` is patched in the importing module as well.  Spans
are kept in memory and written out by the launcher when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def current(self) -> int:
        """Id of the innermost open span on this thread, 0 at the root."""
        stack = self._stack()
        return stack[-1] if stack else 0

    def call(self, name, fn, args, kwargs, measure=None, parent=None):
        """Run fn inside a span; ``measure(args, result)`` adds counts on success."""
        with self._lock:
            span = {"name": name, "id": next(self._ids), "attrs": {}}
        span["parent"] = self.current() if parent is None else parent
        stack = self._stack()
        stack.append(span["id"])
        span["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)
        if measure is not None:
            span["attrs"] = measure(args, result)
        return result

    def wrap(self, name, fn, measure=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, measure)

        return traced


def _sweep_counts(args, result):
    t, energies = args[0], args[3]
    return {
        "points": len(energies),
        "sites": t.site_count,
        "skipped": int((~result[1]).sum()),
    }


def _array_bytes(args, result):
    return {"bytes": result.nbytes}


def _eigh_counts(args, result):
    return {
        "order": args[0].shape[0],
        "bytes": result.eigenvalues.nbytes + result.eigenvectors.nbytes,
    }


def _write_counts(method):
    def measure(args, result):
        writer = args[0]
        name = result if method == "table" else f"{method}.json"
        rows = len(args[3]) if method == "table" else 0
        return {"rows": rows, "bytes": os.path.getsize(writer.out_dir / name)}

    return measure


def _traced_pool(tracer: Tracer):
    class TracedPool(ThreadPoolExecutor):
        """Records each map as one parallel phase and each item as a task.

        The map is drained eagerly inside its span; every caller in the CLI
        consumes it with ``list`` straight away, so the order of results and
        of raised exceptions is unchanged.
        """

        def map(self, fn, *iterables, **kwargs):
            def phase():
                parent = tracer.current()

                def task(*item):
                    return tracer.call("cli.pool_task", fn, item, {}, parent=parent)

                return list(ThreadPoolExecutor.map(self, task, *iterables, **kwargs))

            threads = {"threads": self._max_workers}
            return iter(tracer.call("cli.pool_map", phase, (), {}, lambda a, r: threads))

    return TracedPool


def install(tracer: Tracer) -> None:
    """Wrap every function a workload reaches, where its callers look it up."""
    from hieram import cli, diagnostics, disorder, greens, hierarchy, operators, spectral

    patches = [
        (greens, "moment_ladder_sweep", "greens.sweep", _sweep_counts),
        (greens, "cluster_norm_sweep", "greens.sweep", _sweep_counts),
        (disorder, "sample_potential", "disorder.sample", None),
        # bound by `from .disorder import sample_potential`
        (diagnostics, "sample_potential", "disorder.sample", None),
        # localization_sweep resolves it as a module global
        (diagnostics, "ipr_profile", "diagnostics.ipr", None),
        (operators, "cutoff_dense_block", "operators.assemble", _array_bytes),
        (operators, "compression_dense_block", "operators.assemble", _array_bytes),
        (operators, "dense_symmetric_eigensolve", "operators.eigh", _eigh_counts),
        (hierarchy, "distance_matrix", "hierarchy.distance_matrix", _array_bytes),
        # bound by `from .hierarchy import distance_matrix`
        (operators, "distance_matrix", "hierarchy.distance_matrix", _array_bytes),
        (spectral, "finite_volume_dos", "spectral.dos", None),
    ]
    for module, attr, name, measure in patches:
        setattr(module, attr, tracer.wrap(name, getattr(module, attr), measure))
    for method in ("table", "summary", "manifest"):
        fn = getattr(cli.OutputWriter, method)
        setattr(cli.OutputWriter, method, tracer.wrap("cli.write", fn, _write_counts(method)))
    for sub, runner in cli.RUNNERS.items():
        cli.RUNNERS[sub] = tracer.wrap("cli.run", runner)
    cli.ThreadPoolExecutor = _traced_pool(tracer)


class SpanTree:
    """Inclusive and self times over recorded spans."""

    def __init__(self, spans: list[dict]):
        self.spans = spans
        self.by_id = {s["id"]: s for s in spans}
        self.children = defaultdict(list)
        for s in spans:
            self.children[s["parent"]].append(s)

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def self_time(self, span: dict) -> float:
        """Duration minus the part of it that child spans cover."""
        covered, reach = 0.0, span["start"]
        for child in sorted(self.children[span["id"]], key=lambda c: c["start"]):
            lo, hi = max(child["start"], reach), min(child["end"], span["end"])
            if hi > lo:
                covered += hi - lo
                reach = hi
        return span["end"] - span["start"] - covered

    def total(self, name: str) -> float:
        """Summed duration of the spans not nested in a span of the same name."""
        return sum(s["end"] - s["start"] for s in self.named(name) if not self._nested(s))

    def self_total(self, name: str) -> float:
        return sum(self.self_time(s) for s in self.named(name))

    def count(self, name: str) -> int:
        return len(self.named(name))

    def attr_sum(self, name: str, key: str) -> int:
        return sum(s["attrs"].get(key, 0) for s in self.named(name))

    def _nested(self, span: dict) -> bool:
        parent = self.by_id.get(span["parent"])
        while parent is not None:
            if parent["name"] == span["name"]:
                return True
            parent = self.by_id.get(parent["parent"])
        return False


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer numbers of one traced run; a layer that never ran reads 0."""
    tree = SpanTree(spans)
    site_points = sum(
        s["attrs"]["points"] * s["attrs"]["sites"] for s in tree.named("greens.sweep")
    )
    points = tree.attr_sum("greens.sweep", "points")
    pool_capacity = sum(
        s["attrs"]["threads"] * (s["end"] - s["start"]) for s in tree.named("cli.pool_map")
    )
    dense = ("operators.assemble", "operators.eigh", "hierarchy.distance_matrix")
    return {
        "greens.sweep_s": tree.total("greens.sweep"),
        "greens.sweep_self_s": tree.self_total("greens.sweep"),
        "greens.sweep_calls": tree.count("greens.sweep"),
        "greens.sweep_points": points,
        "greens.ns_per_site_point": (
            1e9 * tree.total("greens.sweep") / site_points if site_points else 0.0
        ),
        "greens.skipped_frac": (
            tree.attr_sum("greens.sweep", "skipped") / points if points else 0.0
        ),
        "operators.eigh_s": tree.total("operators.eigh"),
        "operators.eigh_calls": tree.count("operators.eigh"),
        "operators.eigh_order": max(
            (s["attrs"]["order"] for s in tree.named("operators.eigh")), default=0
        ),
        "operators.assemble_s": tree.total("operators.assemble"),
        "operators.assemble_self_s": tree.self_total("operators.assemble"),
        "operators.dense_bytes": sum(tree.attr_sum(name, "bytes") for name in dense),
        "hierarchy.distance_matrix_s": tree.total("hierarchy.distance_matrix"),
        "diagnostics.ipr_s": tree.total("diagnostics.ipr"),
        "diagnostics.ipr_self_s": tree.self_total("diagnostics.ipr"),
        "diagnostics.ipr_calls": tree.count("diagnostics.ipr"),
        "spectral.dos_s": tree.total("spectral.dos"),
        "spectral.dos_self_s": tree.self_total("spectral.dos"),
        "cli.run_s": tree.total("cli.run"),
        "cli.run_self_s": tree.self_total("cli.run"),
        "cli.write_s": tree.total("cli.write"),
        "cli.rows_written": tree.attr_sum("cli.write", "rows"),
        "cli.bytes_written": tree.attr_sum("cli.write", "bytes"),
        "cli.pool_busy_frac": (
            tree.total("cli.pool_task") / pool_capacity if pool_capacity else 0.0
        ),
        "disorder.sample_s": tree.total("disorder.sample"),
        "disorder.sample_calls": tree.count("disorder.sample"),
    }
