"""The benchmark's workloads: fixed anchor calls plus calls drawn from a seed.

A call is one entry into the program: one `su11metric.cli.main(argv)`
run or one `pdm_generators` build.  A call yields one or more ops; a
sweep call yields one op per row.  Anchor calls never change with the
seed, because they carry the known defects and the size growth that a
later change is judged on.  Seeded calls vary the coupling and z, but
only over ranges where every seed gets the same outcome, so the number
of failed ops does not depend on the seed:

- strong seeded z lie on the lower admissible piece of STRONG_MIRROR,
  0.05 below its root; at N = 400 every z there passes without warnings,
  while every z of the upper piece fails (its defect is carried by the
  STRONG anchor sweep);
- z0 seeded couplings keep |alpha|, |beta| in [0.1, 0.4], a ratio of at
  most 4; at N = 800 a ratio near 9 overflows rho (inf residuals);
- pdm seeded z cover the whole admissible set, where every run passes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("zsweep", "z0", "pdm")

# Nominal seconds of one untraced pass on the reference host (2 cores of a
# shared x86 server, one BLAS thread).  A run makes --seconds / this many
# passes, a count fixed by the arguments alone, so that every run of a seed
# attempts the same ops whatever the machine's speed.
PASS_SECONDS = {"zsweep": 15.0, "z0": 3.0, "pdm": 1.15}

# Lowest weights k of the sectors each realization descriptor splits into;
# the harmonic oracle takes the spectrum over their union.
SECTOR_WEIGHTS = {
    "discrete:k=0.25": (0.25,),
    "oscillator:parity=full": (0.25, 0.75),
    "oscillator:parity=odd": (0.75,),
    "multiboson:l=3,residues=0.25,0.5,0.75": (0.25, 0.5, 0.75),
    "radial:L=1": (1.25,),
}

BASE = (1.0, 0.2, 0.1)
STRONG = (1.0, 0.45, 0.05)
# The mirror of STRONG: same z-domain, opposite sign of eps, so the other
# ordered factorization of rho is the one materialized.
STRONG_MIRROR = (1.0, 0.05, 0.45)


@dataclass(frozen=True)
class Call:
    """One entry into the program and what its output must satisfy."""

    label: str
    kind: str                     # "verify", "sweep", "pdm" or "generators"
    params: tuple[float, float, float]
    argv: tuple[str, ...] = ()
    zs: tuple[float, ...] = ()    # z of each expected verify point or sweep row
    weights: tuple[float, ...] = (0.25,)
    points: int = 0               # grid points of a generators build
    tau: float = 3.0


def _param_flags(params) -> list[str]:
    omega, alpha, beta = params
    return ["--omega", repr(omega), "--alpha", repr(alpha), "--beta", repr(beta)]


def _verify(params, z: float, size: int, trusted: int,
            realization: str = "discrete:k=0.25") -> Call:
    argv = (["verify"] + _param_flags(params)
            + ["--z", repr(z), "--size", str(size), "--trusted", str(trusted),
               "--realization", realization])
    label = f"verify {realization} {params} z={z:g} N={size}"
    return Call(label, "verify", params, tuple(argv), (z,),
                SECTOR_WEIGHTS[realization])


def _sweep(params, z_from: float, z_to: float, steps: int, size: int,
           trusted: int) -> Call:
    argv = (["sweep"] + _param_flags(params)
            + ["--z-from", repr(z_from), "--z-to", repr(z_to),
               "--steps", str(steps), "--size", str(size),
               "--trusted", str(trusted)])
    zs = tuple(z_from + i * (z_to - z_from) / (steps - 1) for i in range(steps))
    label = f"sweep {params} z in [{z_from:g}, {z_to:g}] N={size}"
    return Call(label, "sweep", params, tuple(argv), zs,
                SECTOR_WEIGHTS["discrete:k=0.25"])


def _pdm(params, z: float, points: int) -> Call:
    argv = ["pdm"] + _param_flags(params) + ["--z", repr(z),
                                             "--points", str(points)]
    return Call(f"pdm {params} z={z:g} points={points}", "pdm", params,
                tuple(argv), (z,))


def admissible_intervals(params, cap: float = 0.98,
                         margin: float = 1e-3) -> list[tuple[float, float]]:
    """Admissible z as intervals inside [-cap, cap], `margin` off each root.

    z is admissible where (w^2 + (a-b)^2) z^2 - 2 (a+b) w z + 4ab > 0.
    The roots are computed here rather than taken from the program, so
    a change to the program cannot change the benchmark's inputs.
    """
    omega, alpha, beta = params
    a = omega * omega + (alpha - beta) ** 2
    b = -2.0 * (alpha + beta) * omega
    c = 4.0 * alpha * beta
    root = math.sqrt(b * b - 4.0 * a * c)
    z1, z2 = (-b - root) / (2.0 * a), (-b + root) / (2.0 * a)
    pieces = [(-cap, z1 - margin), (z2 + margin, cap)]
    return [(lo, min(hi, cap)) for lo, hi in pieces if min(hi, cap) > max(lo, -cap)]


def draw_z(rng: random.Random, params, margin: float = 1e-3,
           lowest_only: bool = False) -> float:
    """A z drawn uniformly over the admissible set, rounded to 6 places.

    `margin` keeps z off the roots; `lowest_only` draws from the lowest
    admissible piece alone.
    """
    pieces = admissible_intervals(params, margin=margin)
    if lowest_only:
        pieces = pieces[:1]
    u = rng.uniform(0.0, sum(hi - lo for lo, hi in pieces))
    for lo, hi in pieces:
        if u <= hi - lo:
            return round(lo + u, 6)
        u -= hi - lo
    return round(pieces[-1][1], 6)


def build_calls(workload: str, seed: int, tiny: bool = False) -> list[Call]:
    """The calls of one pass of `workload`; `tiny` shrinks every size."""
    rng = random.Random(f"{workload}:{seed}")
    n_mid, n_big, trusted = (60, 80, 20) if tiny else (400, 800, 50)
    if workload == "zsweep":
        calls = [
            _sweep(BASE, -0.8, 0.8, 9, n_mid, trusted),
            _sweep(STRONG, 0.77, 0.9, 3, n_mid, trusted),
            _verify(BASE, 0.4, n_big, trusted),
        ]
        calls += [_verify(STRONG_MIRROR,
                          draw_z(rng, STRONG_MIRROR, margin=0.05, lowest_only=True),
                          n_mid, trusted)
                  for _ in range(3)]
        return calls
    if workload == "z0":
        calls = [_verify(BASE, 0.0, n_big, trusted, desc) for desc in SECTOR_WEIGHTS]
        sign = rng.choice((-1.0, 1.0))
        alpha = round(rng.uniform(0.1, 0.4), 4)
        beta = round(rng.uniform(0.1, 0.4), 4)
        if beta == alpha:
            beta = round(alpha + 0.01, 4)
        calls.append(_verify((1.0, sign * alpha, sign * beta), 0.0, n_big, trusted))
        return calls
    if workload == "pdm":
        grid, fine, runs = (1000, 2000, 3) if tiny else (2000, 8000, 20)
        calls = [_pdm(BASE, draw_z(rng, BASE), grid) for _ in range(runs)]
        calls.append(_pdm(BASE, 0.0, fine))
        for tau in (3.0, round(rng.uniform(2.5, 3.5), 4)):
            calls.append(Call(f"pdm_generators points={grid} tau={tau:g}",
                              "generators", BASE, points=grid, tau=tau))
        return calls
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
