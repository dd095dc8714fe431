#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of su11metric.

    python3 perfbench/run.py --workload zsweep|z0|pdm --seed N --seconds S --trace 0|1

Run it from a source checkout: the program is imported from the `src`
directory next to this one, and nothing else is read or written
outside the checkout.  The load is a closed loop: one client, one
process, each call issued after the previous one returns.  A pass runs
the workload's fixed list of calls (see workloads.py).  A run makes
--seconds / PASS_SECONDS[workload] passes (at least one), a count that
does not depend on how fast the machine is, so runs of one seed attempt
and fail the same ops.

--trace 0 prints the end-to-end metrics:
  wall_s       median over passes of the time inside the program's calls
  setup_s      median wall time of SETUP_LAUNCHES fresh `python -m
               su11metric validate` launches (interpreter start, numpy/scipy
               import, parsing), spread between the passes so that they
               sample the host's load over the whole run
  peak_rss_mb  high-water resident memory of this process
--trace 1 alternates untraced and traced passes, half the count each (at
least one of each), and prints the per-layer metrics of tracing.py, with
trace.overhead_frac = traced over untraced wall_s, minus 1.

The last line of stdout is {"correct", "attempted", "failed", "metrics"}.
The line before it, `summary {...}`, adds fail_frac, the count of numpy
RuntimeWarnings that leaked, which call leaked each, the failed ops and
the BLAS thread count.  The run also writes both, with the spans of a
traced run, to perfbench/results/.
"""

import os

# BLAS reads these when numpy is first imported, so they are set before
# any import below; every launched interpreter inherits them.
THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import oracles  # noqa: E402
import tracing  # noqa: E402
from workloads import PASS_SECONDS, WORKLOADS, Call, build_calls  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_ARGV = ["-m", "su11metric", "validate", "--omega", "1", "--alpha", "0.2",
              "--beta", "0.1"]
# The median ignores a first launch slowed by compiling bytecode.
SETUP_LAUNCHES = 9


class Program:
    """The su11metric modules the benchmark calls, imported from SRC."""

    def __init__(self):
        init = SRC / "su11metric" / "__init__.py"
        if not init.is_file():
            raise SystemExit(f"error: program source not found at {init}")
        sys.path.insert(0, str(SRC))
        import su11metric
        import su11metric.cli
        import su11metric.pdm
        if Path(su11metric.__file__).resolve() != init.resolve():
            raise SystemExit(f"error: imported su11metric from {su11metric.__file__}, "
                             f"not from {init}")
        self.package = su11metric
        self.cli = su11metric.cli
        self.pdm = su11metric.pdm


@dataclass
class Pass:
    wall: float = 0.0
    outcomes: list = field(default_factory=list)
    leaks: list = field(default_factory=list)   # (call label, warning text)

    @property
    def runtime_warnings(self) -> int:
        return sum(text.startswith("RuntimeWarning") for _, text in self.leaks)


def launch_setup() -> float:
    """Wall time of a fresh interpreter running the validate command."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable] + SETUP_ARGV, cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0 or "4*alpha*beta = 0.92" not in proc.stdout:
        raise SystemExit(f"error: setup command failed ({proc.returncode}): "
                         f"{proc.stdout}{proc.stderr}")
    return elapsed


def run_call(prog: Program, call: Call) -> tuple[float, list, list]:
    """Issue one call; return its time, its outcomes and its leaked warnings.

    Warnings are recorded with the "always" filter, so a repeat from the
    same source line is counted each time it happens.
    """
    out = io.StringIO()
    result = rc = error = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        start = time.perf_counter()
        try:
            if call.kind == "generators":
                cfg = prog.pdm.PdmConfig(params=prog.package.SwansonParams(*call.params),
                                         tau=call.tau, points=call.points)
                result = prog.pdm.pdm_generators(cfg)
            else:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
                    rc = prog.cli.main(list(call.argv))
        except Exception as exc:  # a crash is a failed op, not a benchmark error
            error = exc
        elapsed = time.perf_counter() - start
    leaks = [(call.label, f"{w.category.__name__}: {w.message} "
                          f"({Path(w.filename).name}:{w.lineno})") for w in caught]
    if error is not None:
        typed = isinstance(error, prog.package.Su11MetricError)
        count = len(call.zs) if call.kind == "sweep" else 1
        return elapsed, [oracles.Outcome(call.label, True, not typed,
                                         f"raised {error!r}")] * count, leaks
    if call.kind == "generators":
        k0, kp, _ = result
        return elapsed, [oracles.check_generators(call, k0.matrix, kp.matrix,
                                                  k0.grid)], leaks
    return elapsed, oracles.check_cli(call, rc, out.getvalue()), leaks


def run_pass(prog: Program, calls: list[Call],
             tracer: tracing.Tracer | None = None) -> Pass:
    result = Pass()
    if tracer is not None:
        tracer.install()
    try:
        for i, call in enumerate(calls):
            if tracer is not None:
                tracer.op = i
            elapsed, outcomes, leaks = run_call(prog, call)
            result.wall += elapsed
            result.outcomes += outcomes
            result.leaks += leaks
    finally:
        if tracer is not None:
            tracer.uninstall()
    return result


def pass_count(workload: str, seconds: float, traced_run: bool) -> int:
    """Untraced passes of a run; a traced run makes as many traced ones."""
    passes = max(1, round(seconds / PASS_SECONDS[workload]))
    return max(1, passes // 2) if traced_run else passes


def measure(prog: Program, calls: list[Call], passes: int,
            tracer: tracing.Tracer | None,
            launches: int = 0) -> tuple[list[Pass], list[Pass], list[float]]:
    """Untraced passes, with a tracer as many traced ones interleaved, and
    the times of `launches` setup launches spread evenly before them."""
    plain, traced, setup = [], [], []
    for i in range(passes):
        for _ in range(launches * (i + 1) // passes - launches * i // passes):
            setup.append(launch_setup())
        plain.append(run_pass(prog, calls))
        if tracer is not None:
            traced.append(run_pass(prog, calls, tracer))
    return plain, traced, setup


def layer_metrics(plain: list[Pass], traced: list[Pass],
                  tracer: tracing.Tracer) -> dict[str, float]:
    per_pass = [tracing.pass_metrics(spans, p.wall)
                for spans, p in zip(tracer.passes, traced)]
    out = tracing.median_metrics(per_pass)
    out["trace.overhead_frac"] = (statistics.median(p.wall for p in traced)
                                  / statistics.median(p.wall for p in plain) - 1.0)
    return {name: out[name] for name in tracing.metric_names()}


def summarize(workload: str, seed: int, passes: list[Pass], calls: list[Call],
              metrics: dict, units: dict, absent: list[str]) -> dict:
    first = passes[0]
    attempted = sum(len(p.outcomes) for p in passes)
    failed = sum(o.failed for p in passes for o in p.outcomes)
    return {
        "workload": workload, "seed": seed, "threads": THREADS,
        "passes": len(passes), "calls": [c.label for c in calls],
        "pass_wall_s": [p.wall for p in passes],
        "attempted": attempted, "failed_all": failed,
        "ops": len(first.outcomes),          # ops and failed are per pass
        "failed": sum(o.failed for o in first.outcomes),
        "fail_frac": failed / attempted,
        "warnings": first.runtime_warnings,
        "failures": [f"{o.label}: {o.reason}" for o in first.outcomes if o.failed],
        "silent": [f"{o.label}: {o.reason}" for p in passes for o in p.outcomes
                   if o.silent],
        "leaks": [f"{label}: {text}" for label, text in first.leaks],
        "absent": absent,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def print_report(summary: dict) -> None:
    s = summary
    print(f"{s['workload']} seed={s['seed']} threads={s['threads']} "
          f"passes={s['passes']} ops={s['ops']} failed={s['failed']}")
    for name, m in s["metrics"].items():
        print(f"  {name:<36} {m['value']:.6g} {m['unit']}")
    print(f"  {'fail_frac':<36} {s['fail_frac']:.4f} ({s['failed']} of {s['ops']} ops)")
    print(f"  {'warnings':<36} {s['warnings']} count")
    for line in s["failures"]:
        print(f"  failed   {line}")
    for line in s["silent"]:
        print(f"  SILENT   {line}")
    for line in s["leaks"]:
        print(f"  leaked   {line}")
    for name in s["absent"]:
        print(f"  absent   {name}")


def write_results(summary: dict, tracer: tracing.Tracer | None,
                  calls: list[Call]) -> None:
    RESULTS.mkdir(exist_ok=True)
    data = dict(summary)
    if tracer is not None:
        data["spans"] = [[{"name": n, "start": a, "end": b, "parent": parent,
                           "op": calls[op].label,
                           "peak_mb": None if peak is None else peak / 2 ** 20}
                          for n, a, b, parent, op, peak in spans]
                         for spans in tracer.passes]
    path = RESULTS / (f"{summary['workload']}-seed{summary['seed']}"
                      f"-trace{int(tracer is not None)}.json")
    path.write_text(json.dumps(data, indent=1) + "\n")


def benchmark_units() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run(workload: str, seed: int, seconds: float, traced_run: bool,
        tiny: bool = False) -> tuple[dict, dict]:
    """One benchmark run: its summary and the result line's object."""
    e2e_units, layer_units = benchmark_units()
    calls = build_calls(workload, seed, tiny)
    prog = Program()
    tracer = tracing.Tracer() if traced_run else None
    plain, traced, setup = measure(prog, calls,
                                   pass_count(workload, seconds, traced_run), tracer,
                                   0 if traced_run else SETUP_LAUNCHES)
    if tracer is not None:
        metrics, units = layer_metrics(plain, traced, tracer), layer_units
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {"wall_s": statistics.median(p.wall for p in plain),
                   "setup_s": statistics.median(setup), "peak_rss_mb": rss_mb}
        units = e2e_units
    passes = plain + traced
    summary = summarize(workload, seed, passes, calls, metrics, units,
                        tracer.absent if tracer is not None else [])
    write_results(summary, tracer, calls)
    result = {"correct": not summary["silent"], "attempted": summary["attempted"],
              "failed": summary["failed_all"], "metrics": summary["metrics"]}
    return summary, result


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    summary, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print_report(summary)
    print("summary " + json.dumps(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
