"""The benchmark's own checks of the program's outputs.

Nothing here calls the code under test: tolerances, the harmonic
spectrum law, mu*nu = w^2 - 4ab and the PDM ladder are restated from
the paper's closed forms, so a change to the program's tolerances or
formulas cannot hide a failing point.

An op fails when the program flags it (non-zero exit, FAIL status) or
when an oracle rejects its output.  An op is *silent* when the program
reports success on an output an oracle rejects, or crashes without a
typed error; a run with a silent op is not correct.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from workloads import Call

RESIDUAL_TOLS = {
    "r_herm": 1e-6,
    "r_eq10": 1e-7,
    "r_intertwine": 1e-6,
    "r_quasi": 1e-6,
    "r_commute": 1e-10,
}
LEVELS = 5              # e0..e4 are printed by verify and sweep
LEVEL_RTOL = 1e-8       # outputs carry 12 significant digits
MU_NU_RTOL = 1e-9
PDM_LEVELS = 3
PDM_RTOL = 0.01
# [K0, K+] - K+ applied to smooth probes, relative to |K+ u|, on the middle
# three quarters of the grid.  The stencils are second order, so the bound
# is GENERATOR_BOUND * dx^2; on the default domain the measured factor is
# 3.9 from 200 to 2000 points (3.2e-4 at 2000).
GENERATOR_BOUND = 10.0
TYPED_ERROR_EXITS = (2, 3)


@dataclass(frozen=True)
class Outcome:
    label: str
    failed: bool
    silent: bool
    reason: str = ""


def _gap(params) -> float:
    omega, alpha, beta = params
    return omega * omega - 4.0 * alpha * beta


def harmonic_levels(params, weights, count: int = LEVELS) -> list[float]:
    """Lowest `count` of 2 sqrt(w^2 - 4ab) (n + k) over the sectors' weights k."""
    freq = 2.0 * math.sqrt(_gap(params))
    return sorted(freq * (n + k) for k in weights for n in range(count))[:count]


def _float(values: dict[str, str], name: str) -> float:
    try:
        return float(values[name].split()[0])
    except (KeyError, IndexError, ValueError):
        return math.nan


def _rel(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref) if math.isfinite(value) else math.inf


def check_point(values: dict[str, str], call: Call, z: float,
                sweep_row: bool) -> list[str]:
    """Reasons one verify point or sweep row is wrong; empty when it passes."""
    reasons = []
    if sweep_row and not abs(_float(values, "z") - z) <= 1e-9:
        reasons.append(f"row z={values.get('z')} expected {z:g}")
    for name, tol in RESIDUAL_TOLS.items():
        value = _float(values, name)
        if not (math.isfinite(value) and value <= tol):
            reasons.append(f"{name}={value:g}")
    for i, ref in enumerate(harmonic_levels(call.params, call.weights)):
        value = _float(values, f"e{i}")
        if not _rel(value, ref) <= LEVEL_RTOL:
            reasons.append(f"e{i}={value:.12g} expected {ref:.12g}")
    if sweep_row:
        gap = _gap(call.params)
        product = _float(values, "mu") * _float(values, "nu")
        for name, value in (("mu_nu_product", _float(values, "mu_nu_product")),
                            ("mu*nu", product)):
            if not _rel(value, gap) <= MU_NU_RTOL:
                reasons.append(f"{name}={value:.12g} expected {gap:.12g}")
    return reasons


def parse_table(text: str) -> dict[str, str]:
    """`name  value ...` lines of a table report: name -> the rest of the line."""
    out = {}
    for line in text.splitlines():
        name, _, rest = line.strip().partition(" ")
        if rest:
            out[name] = rest.strip()
    return out


def parse_csv(text: str) -> list[dict[str, str]]:
    lines = [line for line in text.splitlines() if "," in line]
    if not lines:
        return []
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _unexpected_exit(call: Call, rc) -> list[Outcome] | None:
    """Outcomes when the exit code leaves no output to check."""
    if rc in (0, 1):
        return None
    typed = rc in TYPED_ERROR_EXITS
    reason = f"exit {rc}" + ("" if typed else " (not a documented exit code)")
    count = len(call.zs) if call.kind == "sweep" else 1
    return [Outcome(call.label, True, not typed, reason)] * count


def check_cli(call: Call, rc: int, out: str) -> list[Outcome]:
    """Judge one CLI call; a sweep call gives one outcome per expected row."""
    early = _unexpected_exit(call, rc)
    if early is not None:
        return early
    if call.kind == "verify":
        reasons = check_point(parse_table(out), call, call.zs[0], sweep_row=False)
        return [_judge(call.label, rc, reasons)]
    if call.kind == "pdm":
        return [_judge(call.label, rc, check_pdm(out, call))]
    rows = parse_csv(out)
    per_row = []
    for i, z in enumerate(call.zs):
        reasons = (check_point(rows[i], call, z, sweep_row=True)
                   if i < len(rows) else ["row missing"])
        per_row.append((f"{call.label} z={z:g}", reasons))
    if rc != 0 and not any(reasons for _, reasons in per_row):
        # the program flagged the call but no row can be blamed: all fail
        return [Outcome(label, True, False, f"exit {rc}") for label, _ in per_row]
    return [Outcome(label, bool(reasons), rc == 0 and bool(reasons),
                    "; ".join(reasons)) for label, reasons in per_row]


def _judge(label: str, rc: int, reasons: list[str]) -> Outcome:
    if rc != 0 and not reasons:
        reasons = [f"exit {rc}"]
    return Outcome(label, bool(reasons), rc == 0 and bool(reasons),
                   "; ".join(reasons))


def check_pdm(out: str, call: Call) -> list[str]:
    values = parse_table(out)
    reasons = []
    if values.get("status") != "PASS":
        reasons.append(f"status {values.get('status')}, convergence "
                       f"{values.get('convergence')}")
    freq = math.sqrt(_gap(call.params))
    for m in range(PDM_LEVELS):
        value, ref = _float(values, f"e{m}"), freq * (m + 0.5)
        if not _rel(value, ref) <= PDM_RTOL:
            reasons.append(f"e{m}={value:.12g} expected {ref:.12g} within 1%")
    return reasons


def generator_probe(k0: np.ndarray, kp: np.ndarray, x: np.ndarray) -> float:
    """Worst relative |([K0, K+] - K+) u| over smooth probes u, interior only."""
    w = len(x) // 8
    worst = 0.0
    for u in (np.exp(-x ** 2), x * np.exp(-(x + 1.0) ** 2),
              np.exp(-((x - 1.0) ** 2) / 2.0)):
        kpu = kp @ u
        lhs = k0 @ kpu - kp @ (k0 @ u) - kpu
        worst = max(worst, float(np.linalg.norm(lhs[w:-w])
                                 / np.linalg.norm(kpu[w:-w])))
    return worst


def check_generators(call: Call, k0: np.ndarray, kp: np.ndarray,
                     x: np.ndarray) -> Outcome:
    """The program reports nothing here, so any failure is silent."""
    n = call.points
    if k0.shape != (n, n) or kp.shape != (n, n) or x.shape != (n,):
        return Outcome(call.label, True, True, f"shape {k0.shape} for {n} points")
    probe = generator_probe(k0, kp, x)
    bound = GENERATOR_BOUND * (x[1] - x[0]) ** 2
    if not (math.isfinite(probe) and probe <= bound):
        return Outcome(call.label, True, True,
                       f"probe commutator {probe:g} > {bound:g}")
    return Outcome(call.label, False, False)
