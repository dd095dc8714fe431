"""The census: seeded verify draws at the CLI defaults (omega = 1; alpha,
beta and z uniform on [-1, 1]; N = 200, T = 50) over the six realization
kinds.  A run that prints h's levels prints the harmonic law per chain,
2 sqrt(omega^2 - 4 alpha beta) (n + k_c), each level within 1e-12
relative of its 50-digit value; a chain too short for the law ends in the
typed refusal (exit 3), never in the truncated chain's own levels.

The draws are a fixed subset, seeded once; a failure is a finding, not a
reason to draw again.  Each run falls in one cell of a scoreboard, its exit
code and the residuals it prints as inf, and the count of each cell is
pinned: a count moves only by a change that types or lifts a wall.
"""

from collections import Counter

import mpmath as mp
import numpy as np

from su11metric import SwansonParams, cli, from_descriptor
from su11metric.cli import main

KINDS = ("discrete:k=0.25", "oscillator:parity=full", "oscillator:parity=odd",
         "multiboson:l=3,residues=0.25,0.5,0.75", "radial:L=1", "conformal:k=0.75,c=1")
SEED, DRAWS = 2868, 100
LAW_REL = 1e-12
REFUSAL = "are not certified to follow the law: raise --size"
# (exit code, the residuals printed as inf): runs.  Exit 2 is a refused
# (p, z) or realization, exit 3 a chain refused as too short for the law
TALLY = {(2, ()): 348, (0, ()): 178, (3, ()): 27, (1, ("r_quasi",)): 37,
         (1, ("r_intertwine", "r_quasi", "r_commute")): 10}


def law_mp(p, realization, count=5):
    """h's lowest `count` levels at 50 digits: 2 sqrt(omega^2 - 4 alpha
    beta) (n + k_c) on each chain c, the floats taken exactly, merged."""
    with mp.workdps(50):
        freq = 2 * mp.sqrt(mp.mpf(p.omega) ** 2 - 4 * mp.mpf(p.alpha) * mp.mpf(p.beta))
        return sorted(freq * (n + mp.mpf(k))
                      for k, m in zip(realization.weights, realization.lengths())
                      for n in range(min(count, m)))[:count]


def verify(capsys, monkeypatch, argv):
    """(exit code, stderr, the bundle's levels or None, the residuals
    printed as inf) of one in-process verify call: the levels are the ones
    it prints."""
    built, exact = [], cli.build_bundle
    monkeypatch.setattr(cli, "build_bundle",
                        lambda *args, **kwargs: built.append(exact(*args, **kwargs)) or built[-1])
    code = main(list(argv))
    out, err = capsys.readouterr()
    monkeypatch.undo()
    if code in (0, 1):
        printed = [line.split()[1] for line in out.splitlines() if line[:1] == "e"]
        assert printed == [cli._fmt(v) for v in built[-1].spectrum_h], argv
    inf = tuple(line.split()[0] for line in out.splitlines()
                if line[:2] == "r_" and line.split()[1] == "inf")
    return code, err, built[-1].spectrum_h if code in (0, 1) else None, inf


def draws():
    """(argv, SwansonParams, realization descriptor) of each census call,
    DRAWS seeded (alpha, beta, z), each over the KINDS."""
    rng = np.random.default_rng(SEED)
    for alpha, beta, z in rng.uniform(-1.0, 1.0, size=(DRAWS, 3)).tolist():
        for desc in KINDS:
            yield (("verify", "--omega", "1", "--alpha", repr(alpha), "--beta", repr(beta),
                    "--z", repr(z), "--realization", desc),
                   SwansonParams(1.0, alpha, beta), desc)


def test_census(capsys, monkeypatch):
    cells = Counter()
    for argv, p, desc in draws():
        code, err, levels, inf = verify(capsys, monkeypatch, argv)
        cells[code, inf] += 1
        if levels is None:
            assert code in (2, 3) and err.count("\n") == 1, (argv, code, err)
            assert code == 2 or REFUSAL in err, (argv, err)
            continue
        r, implied = from_descriptor(desc, 200, omega=1.0)
        law = law_mp(implied if implied is not None else p, r)
        assert len(levels) == len(law) == 5, argv
        for i, (got, want) in enumerate(zip(levels.tolist(), law)):
            assert abs(mp.mpf(got) - want) <= LAW_REL * want, (argv, i, got, want)
    assert dict(cells) == TALLY


def test_census_draw_is_refused(capsys):
    # this draw printed e4 = 3.12875902499 with every residual PASS (exit
    # 0), 1.0% above the law's 3.09766025826: nu = 0.029, so h's chain of
    # 60 states is far too short for its law
    code = main(["verify", "--omega", "1", "--alpha", "-0.08596958260657872",
                 "--beta", "-2.685558196423526", "--z", "0.22564330704802038",
                 "--realization", "discrete:k=1.6", "--size", "60", "--trusted", "20"])
    out, err = capsys.readouterr()
    assert (code, out) == (3, "")
    assert err == ("error: h's levels on the chain of lowest weight k = 1.6, 60 of the "
                   "N = 60 states, are not certified to follow the law: raise --size (the "
                   "certificate is conservative, so a chain a few states short of it may "
                   "already hold the law)\n")

