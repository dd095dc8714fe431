"""Spans around the program's public functions, recorded from outside.

Each hook replaces a public name in the module namespace where its
caller looks it up (for example `cli.build_bundle`, which `cmd_verify`
calls, or `verification.materialize_metric_root`, which `build_bundle`
calls), so the program itself is not edited.  A name the program no
longer has is recorded as absent and its metrics read 0.

Spans stay in memory as [name, start, end, parent, op, peak_bytes] and
are written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
import tracemalloc
from dataclasses import dataclass


@dataclass(frozen=True)
class Hook:
    name: str            # span name, "<layer>.<function>"
    module: str          # su11metric module whose namespace the caller reads
    attr: str
    moves: str           # the end-to-end metric and workload this span should move
    total: bool = True   # report <name>_ms, the time inside the span
    self_time: bool = False
    memory: bool = False  # report <name>.peak_mb, the tracemalloc peak of a call


HOOKS = (
    Hook("cli.main", "cli", "main", total=False, self_time=True,
         moves="wall_s on pdm (many short ops); import work moves setup_s "
               "on every workload"),
    Hook("realizations.from_descriptor", "cli", "from_descriptor",
         moves="wall_s on z0 (dense matrix_power in multiboson)"),
    Hook("realizations.materialize", "verification", "materialize",
         moves="wall_s on z0"),
    Hook("metric.solve_metric", "cli", "solve_metric",
         moves="control: microseconds per call, should move nothing"),
    Hook("verification.build_bundle", "cli", "build_bundle", self_time=True,
         memory=True,
         moves="self (zeta = rho rho, residual products, block norms): "
               "wall_s on z0, under 10% of zsweep; peak: peak_rss_mb on zsweep"),
    Hook("verification.rho", "verification", "materialize_metric_root",
         moves="wall_s and peak_rss_mb on zsweep (ladder factors); flat on z0"),
    Hook("verification.h_conj", "verification", "conjugated_hamiltonian_matrix",
         moves="wall_s on zsweep (~45%) and on z0 (~24%)"),
    Hook("verification.eigh", "verification", "symmetric_eigs",
         moves="wall_s on z0; under 10% of zsweep"),
    Hook("pdm.run_pdm_check", "cli", "run_pdm_check", moves="wall_s on pdm"),
    Hook("pdm.pdm_spectrum", "pdm", "pdm_spectrum", moves="wall_s on pdm"),
    Hook("pdm.boundary_decay", "pdm", "boundary_decay", moves="wall_s on pdm"),
    Hook("pdm.pdm_generators", "pdm", "pdm_generators", memory=True,
         moves="wall_s and peak_rss_mb on pdm; nothing elsewhere"),
)
RHO_INV = "verification.rho_inv"   # materialize_metric_root with sign = -1


def _span_name(hook: Hook, args, kwargs) -> str:
    if hook.attr == "materialize_metric_root":
        sign = kwargs.get("sign", args[3] if len(args) > 3 else 1)
        return hook.name if sign > 0 else RHO_INV
    return hook.name


def _spans() -> list[tuple[str, Hook]]:
    """Each span name with the hook that records it."""
    out = []
    for hook in HOOKS:
        out.append((hook.name, hook))
        if hook.attr == "materialize_metric_root":
            out.append((RHO_INV, hook))
    return out


def metric_moves() -> dict[str, str]:
    """Per-layer metric names, in the order BENCHMARK.json lists them, each
    with the end-to-end metric and workload it should move."""
    out = {}
    for span, hook in _spans():
        if hook.total:
            out[f"{span}_ms"] = hook.moves
        if hook.self_time:
            out[f"{span}.self_ms"] = hook.moves
        if hook.memory:
            out[f"{span}.peak_mb"] = hook.moves
        out[f"{span}.calls"] = hook.moves
    out["trace.overhead_frac"] = "traced over untraced wall_s, minus 1"
    out["trace.coverage_frac"] = "share of op time inside layer spans"
    return out


def metric_names() -> list[str]:
    return list(metric_moves())


class Tracer:
    """Installs the hooks for one traced pass at a time and keeps the spans."""

    def __init__(self):
        self.passes: list[list[list]] = []   # the spans of each traced pass
        self.absent: list[str] = []
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Start a new pass and wrap every hooked name that exists."""
        self.passes.append([])
        self.absent = []
        for hook in HOOKS:
            module = importlib.import_module(f"su11metric.{hook.module}")
            original = getattr(module, hook.attr, None)
            if original is None:
                self.absent.append(f"{hook.module}.{hook.attr}")
                continue
            self._saved.append((module, hook.attr, original))
            setattr(module, hook.attr, self._wrap(hook, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved = []

    def _wrap(self, hook: Hook, fn):
        spans, stack = self.passes[-1], self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            own_malloc = hook.memory and not tracemalloc.is_tracing()
            if own_malloc:
                tracemalloc.start()
            span = [_span_name(hook, args, kwargs), time.perf_counter(), None,
                    stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if own_malloc:
                    span[5] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()

        return traced


def pass_metrics(spans: list[list], op_seconds: float) -> dict[str, float]:
    """Per-layer totals of one traced pass, all but trace.overhead_frac.

    Self time is a span's duration minus that of its direct children.
    Coverage is the share of op time spent inside a layer's span below
    the op's root `cli.main` (a root of another layer counts whole).
    """
    child = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    names = [span for span, _ in _spans()]
    total = dict.fromkeys(names, 0.0)
    own = dict.fromkeys(names, 0.0)
    peak = dict.fromkeys(names, 0.0)
    calls = dict.fromkeys(names, 0)
    covered = 0.0
    for i, (name, start, end, parent, _, peak_bytes) in enumerate(spans):
        total[name] += end - start
        own[name] += end - start - child[i]
        calls[name] += 1
        if peak_bytes is not None:
            peak[name] = max(peak[name], peak_bytes / 2 ** 20)
        if parent < 0:
            covered += child[i] if name == "cli.main" else end - start
    out = {}
    for span, hook in _spans():
        if hook.total:
            out[f"{span}_ms"] = 1e3 * total[span]
        if hook.self_time:
            out[f"{span}.self_ms"] = 1e3 * own[span]
        if hook.memory:
            out[f"{span}.peak_mb"] = peak[span]
        out[f"{span}.calls"] = calls[span]
    out["trace.coverage_frac"] = covered / op_seconds if op_seconds > 0 else 0.0
    return out


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
