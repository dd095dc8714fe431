"""The CLI's committed outputs: every call in golden_cli.json must give the
same exit code and stderr, and the same stdout cell by cell.

Most cells must match byte for byte: statuses, headers, inf positions,
the verify and sweep spectra, the closed-form columns and pdm's
predicted levels.  Cells that depend on the rounding of a matrix
computation carry a tolerance:

- residual values (r_*) within RESIDUAL_ABS absolute;
- pdm levels (e_i, refine_* and boundary_decay) within LEVEL_REL relative.
  A flip of the 12th printed digit is 1e-11/m relative, m in [1, 10) the
  printed mantissa, so LEVEL_REL admits one only where m >= 3.33: not at
  e1 ~ 1.44 or e2 ~ 2.40, where a flip is 7e-12 and 4e-12 relative, so
  there a level that moves at rounding level can flip a digit and fail;
- pdm rel_error within REL_ERROR_ABS absolute.

boundary_decay is held to LEVEL_REL with the levels, but it is read from
the finest grid's eigenvectors, which only how far they converged fixes:
vectors formed from the coarser level's values move it by about 1e-6
relative (up to 0.36) while the certified levels stay.  A change of the
grid's vector solve can therefore move that cell in nearly every pdm
record and no level; regen_golden.py lists such moves.

regen_golden.py rewrites the file and lists the cells that moved.  The
closed-form records (disentangle and spectrum) are also held against
oracles that share no code with the program, to the 12 printed digits.
"""

import contextlib
import io
import json
import math
import re
from pathlib import Path

import mpmath as mp
import pytest

from oracles import exp_defining, gauss_decompose
from su11metric import AlgebraElement
from su11metric.cli import main

GOLDEN = Path(__file__).with_name("golden_cli.json")
RESIDUAL_ABS = 1e-14
LEVEL_REL = 3e-12
REL_ERROR_ABS = 1e-12

_PDM_LEVEL = re.compile(r"(\S+)  \(predicted (\S+), rel_error (\S+)\)")


def run(argv):
    """(exit code, stdout, stderr) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def cells(argv, stdout):
    """[(label, kind, text)] of a stdout; kind is "exact", "residual",
    "level" or "rel_error"."""
    lines = stdout.splitlines()
    if argv[0] == "sweep" and lines:
        names = lines[0].split(",")
        out = [("header", "exact", lines[0])]
        for row, line in enumerate(lines[1:], 1):
            values = line.split(",")
            out += [(f"row {row} {name}", "residual" if name.startswith("r_") else "exact",
                     value) for name, value in zip(names, values)]
            out.append((f"row {row} width", "exact", str(len(values))))
        return out
    out = []
    for line in lines:
        name, _, text = line.partition("  ")
        name, text = name.strip(), text.strip()
        level = _PDM_LEVEL.fullmatch(text) if argv[0] == "pdm" else None
        if name.startswith("r_"):
            value, _, status = text.partition("  ")
            out += [(name, "residual", value), (f"{name} status", "exact", status)]
        elif level:
            out += [(name, "level", level[1]), (f"{name} predicted", "exact", level[2]),
                    (f"{name} rel_error", "rel_error", level[3])]
        elif argv[0] == "pdm" and (name.startswith("refine_") or name == "boundary_decay"):
            out += [(f"{name}[{i}]", "level", v) for i, v in enumerate(text.split())]
        else:
            out.append((name, "exact", text))
    return out


def _close(kind, old, new):
    if old == new:
        return True
    if kind == "exact":
        return False
    a, b = float(old), float(new)
    if not (math.isfinite(a) and math.isfinite(b)):
        return False
    if kind == "level":
        return abs(a - b) <= LEVEL_REL * abs(a)
    return abs(a - b) <= (RESIDUAL_ABS if kind == "residual" else REL_ERROR_ABS)


def moved(record, code, stdout, stderr, strict=False):
    """[(label, old, new)] of what differs from a golden record: beyond
    the tolerances, or at all where `strict`."""
    out = []
    if code != record["code"]:
        out.append(("exit code", record["code"], code))
    if stderr != record["stderr"]:
        out.append(("stderr", record["stderr"], stderr))
    old, new = cells(record["argv"], record["stdout"]), cells(record["argv"], stdout)
    if [c[:2] for c in old] != [c[:2] for c in new]:
        return out + [("stdout layout", record["stdout"], stdout)]
    out += [(label, a, b) for (label, kind, a), (_, _, b) in zip(old, new)
            if a != b and (strict or not _close(kind, a, b))]
    return out


RECORDS = json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: " ".join(r["argv"]))
def test_matches_golden(record):
    assert moved(record, *run(record["argv"])) == []


def _oracle(argv):
    """{name: value} of a closed-form call from its oracle: disentangle's
    factors from the 2x2 group element exp(2 eps K0 + 2 eta Km + 2
    conj(eta) Kp) in closed form, Gauss-factored on each pivot, and
    spectrum's levels 2 sqrt(omega^2 - 4 alpha beta) (n + k) to 50 digits
    (k = 0.25 and five levels unless given)."""
    flags = dict(zip(argv[1::2], argv[2::2]))
    if argv[0] == "disentangle":
        eps = float(flags["--epsilon"])
        eta = complex(float(flags["--eta"]), float(flags.get("--eta-im", 0.0)))
        m = exp_defining(AlgebraElement(2.0 * eps, 2.0 * eta, 2.0 * eta.conjugate()))
        normal, anti = gauss_decompose(m, "normal"), gauss_decompose(m, "antinormal")
        return {"epsilon": eps, "eta": eta, "p": normal.p, "q": normal.q, "r": normal.r,
                "r_prime": anti.r, "q_prime": anti.q, "p_prime": anti.p}
    with mp.workdps(50):
        w, a, b, k = (mp.mpf(float(flags.get(f, d))) for f, d in (
            ("--omega", None), ("--alpha", None), ("--beta", None), ("--k", 0.25)))
        freq = 2 * mp.sqrt(w * w - 4 * a * b)
        return {f"e{n}": complex(freq * (n + k)) for n in range(int(flags.get("--count", 5)))}


def _printed_as(text, want):
    """Whether text, each part printed to 12 significant digits, is want
    rounded there: within half a unit of its last digit, and of the rounding
    of a double (1e-15 of |want|)."""
    got, want = complex(text), complex(want)
    for g, w in ((got.real, want.real), (got.imag, want.imag)):
        half = 0.5 * 10.0 ** (math.floor(math.log10(abs(g))) - 11) if g else 0.0
        if not abs(g - w) <= half + 1e-15 * abs(want):
            return False
    return True


CLOSED_FORMS = [r for r in RECORDS if r["argv"][0] in ("disentangle", "spectrum")
                and r["code"] == 0]


@pytest.mark.parametrize("record", CLOSED_FORMS, ids=lambda r: " ".join(r["argv"]))
def test_closed_forms_match_oracles(record):
    argv = record["argv"]
    csv = "--output" in argv and argv[argv.index("--output") + 1] == "csv"
    want = _oracle(argv)
    for stdout in (record["stdout"], run(argv)[1]):
        lines = stdout.splitlines()[1:] if csv else stdout.splitlines()
        got = dict(line.split("," if csv else None, 1) for line in lines)
        assert list(got) == list(want)
        bad = {name: (text.strip(), want[name]) for name, text in got.items()
               if not _printed_as(text.strip(), want[name])}
        assert bad == {}


def test_oracle_check_rejects_a_changed_digit():
    assert _printed_as("0.479583152331", 0.4795831523312719)
    assert _printed_as("0.387138204716-0.774276409432j", 0.3871382047156 - 0.7742764094324j)
    assert _printed_as("1.30428978498", 1.304289784980001 + 1e-17j)
    for text in ("0.479583152332", "0.47958315233", "0.479583152331+1e-12j"):
        assert not _printed_as(text, 0.4795831523312719)


def test_tolerances_reject_a_changed_digit():
    argv = ["verify", "--z", "0.4"]
    stdout = "r_eq10        2.2e-16  [PASS <= 1e-07]\ne0            0.479583152331\n"
    record = {"argv": argv, "code": 0, "stdout": stdout, "stderr": ""}
    assert moved(record, 0, stdout.replace("2.2e-16", "2.4e-16"), "") == []
    for change in (("PASS", "FAIL"), ("0.479583152331", "0.479583152332")):
        assert moved(record, 0, stdout.replace(*change), "") != []


# The verify and sweep records that h's law refuses as too short (exit 3),
# with the chain each names (its lowest weight and states); every other
# record takes the law on every chain.  A change to the chains'
# certificate that moves a chain between the two outcomes moves this table.
REFUSED = {
    "verify --omega 1 --alpha 0.5 --beta 0.49999999999 --z 0.3": "k = 0.25, 200",
    "verify --omega 1 --alpha 0.2 --beta 0.1 --realization multiboson:l=12,residues="
    "0.25,0.5,0.75,1.0,1.25,1.5,1.75,2.0,2.25,2.5,2.75,3.0 --trusted 10 --z 0.4":
        "k = 0.25, 17",
    "verify --omega 1 --alpha 0.2 --beta 0.1 --size 12 --trusted 5 --z 0.4": "k = 0.25, 12",
    "verify --omega 1 --alpha 0.2 --beta 0.1 --realization multiboson:l=3,residues="
    "0.25,0.5,0.75 --size 12 --trusted 4 --z 0.4": "k = 0.25, 4",
    "verify --omega 1 --alpha 0.2 --beta 0.1 --realization multiboson:l=3,residues="
    "0.25,0.5,0.75 --size 5 --trusted 2": "k = 0.25, 2",
}


def test_refused_chains_are_pinned():
    seen = {}
    for record in RECORDS:
        if record["argv"][0] in ("verify", "sweep"):
            code, out, err = run(record["argv"])
            if code == 3 and "not certified to follow the law" in err:
                assert out == "" and err.count("\n") == 1, record["argv"]
                seen[" ".join(record["argv"])] = err.split("lowest weight ")[1].split(" of ")[0]
    assert seen == REFUSED
