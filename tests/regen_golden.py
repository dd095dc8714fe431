"""Rewrite tests/golden_cli.json and list every cell that moved.

    PYTHONPATH=src:tests python tests/regen_golden.py

The calls are the distinct verify, sweep and pdm calls that the
benchmark's workloads (perfbench/workloads.py) make for four seeds, and
PINS: points that carry a known wall or a precision edge, and calls of
the closed-form commands validate, disentangle and spectrum.  Each call
runs in-process; its argv, exit code, stdout and stderr are stored.
Before the file is overwritten, every cell that differs from the old
record is printed, the ones within test_golden's tolerances marked
"(within tolerance)", so that a change which moves outputs can list them.
"""

import json
import sys
from pathlib import Path

from test_golden import GOLDEN, moved, run

SEEDS = (401, 613, 907, 2718)
BASE = ["--omega", "1", "--alpha", "0.2", "--beta", "0.1"]
NEGATIVE_MU = ["--omega", "1", "--alpha", "0.7543218246483239",
               "--beta", "-2.6068268445611213"]
NEAR_ROOT = ["--omega", "0.03162277660168379", "--alpha", "0", "--beta", "5"]
NEAR_PARABOLIC = ["--omega", "1", "--alpha", "0.5", "--beta", "0.49999999999"]
# band 12 past T = 10: chains 10 and 11 hold no trusted state
BAND_PAST_T = ["--realization", "multiboson:l=12,residues=" + ",".join(
    str(0.25 * k) for k in range(1, 13)), "--trusted", "10"]
PINS = [
    ["verify", *BASE, "--z", "0.2", "--size", "400"],
    ["pdm", *BASE, "--x-max", "500"],
    ["verify", *NEGATIVE_MU, "--z=-0.9995320885425871"],
    ["pdm", *NEGATIVE_MU, "--z=-0.9995320885425871"],
    ["verify", *NEAR_ROOT, "--z=-1e-12"],
    ["metric", *NEAR_ROOT, "--z=-1e-12"],
    ["verify", *NEAR_PARABOLIC, "--z", "0.3"],
    # the same h's law certified: Omega / c0 = 4.5e-6 takes 1.2e7 states
    ["verify", *NEAR_PARABOLIC, "--z", "0.3", "--size", "16000000"],
    ["metric", *NEAR_PARABOLIC, "--z", "0.3"],
    *([command, *BASE, f"--z={z}"] for command in ("metric", "verify", "pdm")
      for z in ("-1", "1")),
    ["metric", "--omega", "1", "--alpha", "0.7", "--beta", "0.3", "--z", "1"],
    *(["pdm", *BASE, "--points", points] for points in ("400", "1024")),
    *(["verify", *BASE, "--realization", realization, z, "--size", "400"]
      for realization in ("oscillator:parity=full", "multiboson:l=3,residues=0.25,0.5,0.75")
      for z in ("--z=0.4", "--z=-0.5")),
    ["verify", *BASE, *BAND_PAST_T, "--z", "0.4"],
    # the 500-point level certifies only from the bisection's values
    ["pdm", *BASE, "--x-min=-2", "--x-max", "6"],
    ["pdm", *BASE, "--tau", "1.0"],
    # mu, nu and the gap reach the grid from couplings other than BASE:
    # strong non-Hermiticity both ways, an inadmissible z, and a model wall
    # that passes with e2 0.63% off the law
    ["pdm", "--omega", "1", "--alpha", "0.45", "--beta", "0.05", "--z", "0.9"],
    ["pdm", "--omega", "1", "--alpha", "0.05", "--beta", "0.45", "--z=-0.9"],
    ["pdm", "--omega", "1", "--alpha", "0.45", "--beta", "0.05", "--z", "0.5"],
    ["pdm", "--omega", "0.5", "--alpha", "0.3", "--beta", "0.1", "--z=-0.1", "--s", "1",
     "--tau", "1.4", "--x-min=-12", "--x-max", "20", "--points", "4000"],
    # the same model wall further out, tau = 1: converged levels 1.9%, 4.6%
    # and 8.9% off the law, a FAIL (exit 1)
    ["pdm", "--omega", "0.5", "--alpha", "0.3", "--beta", "0.1", "--z=-0.1", "--s", "1",
     "--tau", "1.0", "--x-min=-12", "--x-max", "20", "--points", "4000"],
    # the sectors, a zero multiboson residue and weights other than 1/4 at
    # z != 0; alpha = -beta = 1/4 makes |z| <= 0.447 inadmissible for conformal
    *(["verify", *BASE, "--realization", realization, z, "--size", "400"]
      for realization, z in (("oscillator:parity=even", "--z=0.4"),
                             ("oscillator:parity=odd", "--z=-0.5"),
                             ("radial:L=1", "--z=0.4"),
                             ("conformal:k=0.75,c=1", "--z=0.6"),
                             ("multiboson:l=2,residues=0,0.5", "--z=0"),
                             ("multiboson:l=2,residues=0,0.5", "--z=0.4"),
                             ("discrete:k=1.6", "--z=-0.5"))),
    # chains too short for the law are refused (exit 3), not answered with
    # the truncated chain's own levels
    ["verify", *BASE, "--size", "12", "--trusted", "5", "--z", "0.4"],
    ["verify", *BASE, "--realization", "multiboson:l=3,residues=0.25,0.5,0.75",
     "--size", "12", "--trusted", "4", "--z", "0.4"],
    # one-state chains: at N = 5 the third of band 3 holds one state
    ["verify", *BASE, "--realization", "multiboson:l=3,residues=0.25,0.5,0.75",
     "--size", "5", "--trusted", "2"],
    # the closed-form commands, each with a refusal: alpha = beta, and a
    # theta^2 < 0 with no real-theta factorization
    ["validate", *BASE],
    ["validate", "--omega", "1", "--alpha", "0.5", "--beta", "0.5"],
    ["disentangle", "--epsilon", "0.3", "--eta", "0.1"],
    ["disentangle", "--epsilon", "0.5", "--eta", "0.1", "--eta-im", "0.2"],
    ["disentangle", "--epsilon", "0.5", "--eta", "0.1", "--eta-im", "0.2", "--output", "csv"],
    ["disentangle", "--epsilon", "-0.2", "--eta", "0.05", "--eta-im", "0.3"],
    ["spectrum", *BASE],
    ["spectrum", *BASE, "--k", "0.75", "--count", "3"],
    ["spectrum", *NEAR_PARABOLIC, "--k", "1.6"],
]


def benchmark_calls():
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    out = []
    for seed in SEEDS:
        for workload in workloads.WORKLOADS:
            out += [list(c.argv) for c in workloads.build_calls(workload, seed)
                    if c.kind in ("verify", "sweep", "pdm") and list(c.argv) not in out]
    return out


def main():
    old = {tuple(r["argv"]): r for r in json.loads(GOLDEN.read_text(encoding="utf-8"))} \
        if GOLDEN.exists() else {}
    records = []
    for argv in benchmark_calls() + PINS:
        code, stdout, stderr = run(argv)
        record = {"argv": argv, "code": code, "stdout": stdout, "stderr": stderr}
        if tuple(argv) not in old:
            print(f"new: {' '.join(argv)}")
        else:
            loose = moved(old[tuple(argv)], code, stdout, stderr)
            for label, a, b in moved(old[tuple(argv)], code, stdout, stderr, strict=True):
                note = "" if (label, a, b) in loose else "  (within tolerance)"
                print(f"{' '.join(argv)}: {label}: {a!r} -> {b!r}{note}")
        records.append(record)
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"{len(records)} calls written to {GOLDEN}")


if __name__ == "__main__":
    main()
