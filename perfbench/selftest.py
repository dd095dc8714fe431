#!/usr/bin/env python3
"""Self-test of the benchmark itself, at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Checks that every workload emits every end-to-end metric and every
per-layer metric named in BENCHMARK.json, with calls recorded for each
layer the workload uses; that seeded calls stay in the ranges where every
seed gets the same outcome; that deliberately wrong outputs count as failed
ops; that a missing hooked name is recorded as absent; and that the
benchmark refuses to run without the program's source.
"""

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace

import oracles
import run
import tracing
from workloads import STRONG_MIRROR, WORKLOADS, admissible_intervals, build_calls

# Spans that must record calls on each workload; the rest may read 0.
VERIFY = ["cli.main", "realizations.from_descriptor", "realizations.materialize",
          "verification.build_bundle", "verification.rho", "verification.rho_inv",
          "verification.h_conj", "verification.eigh"]
USED = {
    "zsweep": VERIFY + ["metric.solve_metric"],
    "z0": VERIFY,
    "pdm": ["cli.main", "pdm.run_pdm_check", "pdm.pdm_spectrum",
            "pdm.boundary_decay", "pdm.pdm_generators"],
}

failures = []


def expect(condition: bool, what: str) -> None:
    print(("ok    " if condition else "FAIL  ") + what)
    if not condition:
        failures.append(what)


def check_metrics() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = [m["name"] for m in spec["end_to_end"]]
    layers = [m["name"] for m in spec["per_layer"]]
    expect(layers == tracing.metric_names(), "BENCHMARK.json lists the traced metrics")
    for workload in WORKLOADS:
        for traced in (False, True):
            summary, result = run.run(workload, 1, 0.0, traced, tiny=True)
            metrics = result["metrics"]
            names = layers if traced else e2e
            expect(list(metrics) == names,
                   f"{workload} trace={int(traced)} emits every metric")
            expect(all(isinstance(m["value"], (int, float)) and math.isfinite(m["value"])
                       for m in metrics.values()),
                   f"{workload} trace={int(traced)} metrics are finite numbers")
            expect(result["correct"] and result["attempted"] >= 1,
                   f"{workload} trace={int(traced)} is correct: {summary['silent']}")
            if traced:
                silent = [s for s in USED[workload]
                          if metrics[f"{s}.calls"]["value"] < 1]
                expect(not silent, f"{workload} records calls into every layer it "
                                   f"uses (missing: {silent})")


def check_seeded_ranges() -> None:
    root = admissible_intervals(STRONG_MIRROR, margin=0.0)[0][1]
    strong, couplings, sizes = [], [], set()
    for seed in range(500):
        calls = {w: build_calls(w, seed) for w in WORKLOADS}
        sizes.add(tuple(len(c) for c in calls.values()))
        strong += [c.zs[0] for c in calls["zsweep"] if c.params == STRONG_MIRROR]
        couplings.append(calls["z0"][-1].params[1:])
    expect(len(sizes) == 1, "every seed makes the same number of calls")
    expect(all(z <= root - 0.05 for z in strong),
           "seeded strong z lie on the lower piece, 0.05 below its root")
    expect(all(0.1 <= abs(a) <= 0.4 and 0.1 <= abs(b) <= 0.4 and a * b > 0
               for a, b in couplings),
           "seeded z0 couplings have one sign and |alpha|, |beta| in [0.1, 0.4]")


def _cli_output(call) -> str:
    prog = run.Program()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = prog.cli.main(list(call.argv))
    assert rc == 0, out.getvalue()
    return out.getvalue()


def _replace_value(text: str, name: str, new: str) -> str:
    lines = []
    for line in text.splitlines():
        if line.split() and line.split()[0] == name:
            old = line.split()[1]
            line = line.replace(old, new, 1)
        lines.append(line)
    return "\n".join(lines) + "\n"


def check_oracles() -> None:
    verify = build_calls("z0", 1, tiny=True)[0]
    good = _cli_output(verify)
    expect(not oracles.check_cli(verify, 0, good)[0].failed, "a good verify passes")
    e0 = oracles.parse_table(good)["e0"]
    bad = _replace_value(good, "e0", repr(float(e0) * (1 + 1e-6)))
    outcome = oracles.check_cli(verify, 0, bad)[0]
    expect(outcome.failed and outcome.silent, "a perturbed e0 is a failed, silent op")
    outcome = oracles.check_cli(verify, 0, _replace_value(good, "r_quasi", "inf"))[0]
    expect(outcome.failed, "an inf residual is a failed op")
    outcome = oracles.check_cli(verify, 0, _replace_value(good, "r_commute", "2e-10"))[0]
    expect(outcome.failed, "a residual over the benchmark's own tolerance fails")
    outcome = oracles.check_cli(verify, 3, "")[0]
    expect(outcome.failed and not outcome.silent, "a typed error fails, not silently")
    outcome = oracles.check_cli(verify, 7, "")[0]
    expect(outcome.failed and outcome.silent, "an undocumented exit code is silent")

    sweep = build_calls("zsweep", 1, tiny=True)[0]
    sweep = replace(sweep, argv=sweep.argv[:sweep.argv.index("--z-from")]
                    + ("--z-from", "-0.8", "--z-to", "-0.4", "--steps", "3")
                    + sweep.argv[sweep.argv.index("--size"):],
                    zs=(-0.8, -0.6, -0.4))
    good = _cli_output(sweep)
    expect(not any(o.failed for o in oracles.check_cli(sweep, 0, good)),
           "a good sweep passes")
    header, first, *rest = good.splitlines()
    cols = header.split(",")
    for column, value in (("e0", "0.48"), ("r_intertwine", "inf"),
                          ("mu_nu_product", "0.93")):
        row = first.split(",")
        row[cols.index(column)] = value
        bad = "\n".join([header, ",".join(row)] + rest) + "\n"
        outcomes = oracles.check_cli(sweep, 0, bad)
        expect(outcomes[0].failed and not any(o.failed for o in outcomes[1:]),
               f"a wrong {column} fails only its sweep row")
    outcomes = oracles.check_cli(sweep, 0, "\n".join([header, first]) + "\n")
    expect([o.failed for o in outcomes] == [False, True, True],
           "missing sweep rows fail")

    pdm_call = build_calls("pdm", 1, tiny=True)[0]
    good = _cli_output(pdm_call)
    expect(not oracles.check_cli(pdm_call, 0, good)[0].failed, "a good pdm run passes")
    e1 = oracles.parse_table(good)["e1"].split()[0]
    bad = good.replace(e1, repr(float(e1) * 1.02), 1)
    expect(oracles.check_cli(pdm_call, 0, bad)[0].failed, "a pdm level 2% off fails")

    gen = build_calls("pdm", 1, tiny=True)[-1]
    prog = run.Program()
    k0, kp, _ = prog.pdm.pdm_generators(prog.pdm.PdmConfig(
        params=prog.package.SwansonParams(*gen.params), points=gen.points))
    expect(not oracles.check_generators(gen, k0.matrix, kp.matrix, k0.grid).failed,
           "good generators pass")
    outcome = oracles.check_generators(gen, 1.01 * k0.matrix, kp.matrix, k0.grid)
    expect(outcome.failed and outcome.silent, "a K0 scaled by 1.01 fails the probe")


def check_absent_name() -> None:
    prog = run.Program()
    verification = sys.modules["su11metric.verification"]
    saved = verification.conjugated_hamiltonian_matrix
    del verification.conjugated_hamiltonian_matrix
    tracer = tracing.Tracer()
    try:
        tracer.install()
        tracer.uninstall()
    finally:
        verification.conjugated_hamiltonian_matrix = saved
    expect(tracer.absent == ["verification.conjugated_hamiltonian_matrix"],
           "a missing hooked name is recorded as absent")
    expect(prog.cli.build_bundle is sys.modules["su11metric.verification"].build_bundle,
           "uninstall restores every hooked name")


def check_bare_directory() -> None:
    bare = run.RESULTS / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "pdm",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "without the program's source the run fails and prints no result")


if __name__ == "__main__":
    check_metrics()
    check_seeded_ranges()
    check_oracles()
    check_absent_name()
    check_bare_directory()
    print("selftest " + ("ok" if not failures else f"FAILED: {len(failures)}"))
    sys.exit(1 if failures else 0)
