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

regen_golden.py rewrites the file and lists the cells that moved.
"""

import contextlib
import io
import json
import math
import re
from pathlib import Path

import pytest

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


def test_tolerances_reject_a_changed_digit():
    argv = ["verify", "--z", "0.4"]
    stdout = "r_eq10        2.2e-16  [PASS <= 1e-07]\ne0            0.479583152331\n"
    record = {"argv": argv, "code": 0, "stdout": stdout, "stderr": ""}
    assert moved(record, 0, stdout.replace("2.2e-16", "2.4e-16"), "") == []
    for change in (("PASS", "FAIL"), ("0.479583152331", "0.479583152332")):
        assert moved(record, 0, stdout.replace(*change), "") != []


# The verify and sweep records whose chains of h reach the bisection, with
# the length of each chain bisected; every other record takes the law on
# every chain.  A change to the chains' certificate that moves a chain
# between the two paths moves this table.
BISECTED = {
    "verify --omega 1 --alpha 0.5 --beta 0.49999999999 --z 0.3": [200],
    "verify --omega 1 --alpha 0.2 --beta 0.1 --realization multiboson:l=12,residues="
    "0.25,0.5,0.75,1.0,1.25,1.5,1.75,2.0,2.25,2.5,2.75,3.0 --trusted 10 --z 0.4":
        [17] * 8 + [16] * 4,
    "verify --omega 1 --alpha 0.2 --beta 0.1 --size 12 --trusted 5 --z 0.4": [12],
    "verify --omega 1 --alpha 0.2 --beta 0.1 --realization multiboson:l=3,residues="
    "0.25,0.5,0.75 --size 12 --trusted 4 --z 0.4": [4, 4, 4],
    "verify --omega 1 --alpha 0.2 --beta 0.1 --realization multiboson:l=3,residues="
    "0.25,0.5,0.75 --size 5 --trusted 2": [2, 2, 1],
}


def test_bisected_chains_are_pinned(monkeypatch):
    from su11metric import verification

    sizes, bisect = [], verification._bisect

    def counted(d, e, count):
        sizes.append(d.size)
        return bisect(d, e, count)

    monkeypatch.setattr(verification, "_bisect", counted)
    seen = {}
    for record in RECORDS:
        if record["argv"][0] in ("verify", "sweep"):
            sizes.clear()
            run(record["argv"])
            if sizes:
                seen[" ".join(record["argv"])] = list(sizes)
    assert seen == BISECTED
