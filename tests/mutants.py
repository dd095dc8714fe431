"""Mutation audit of the certificates: pdm's _rayleigh residual bound and
Rayleigh-quotient offset, the products they are formed from (_tri_mul) and
the grid's enclosure (_enclosure), core's Kato-Temple helper
(_kato_temple), and verification's _chain_bracket and the metric sums'
tail tolerance.

    python tests/mutants.py

Each mutant is one edit of one file of src/su11metric.  The tree is
copied to a temporary directory once; for each mutant the edit is applied
there, `pytest -q -x` run on that file's tests (TESTS) in the copy, and
the file restored.  A mutant is killed when a test fails.  A mutant
listed with a reason is accepted as equivalent in effect and may survive.
Exit 1 if any other mutant survives, if a snippet does not occur exactly
once, or if the unmutated copy fails its tests.  Standard library only.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CORE = Path("src", "su11metric", "core.py")
PDM = Path("src", "su11metric", "pdm.py")
VERIFICATION = Path("src", "su11metric", "verification.py")
# each mutated file: the tests its mutants run against
TESTS = {CORE: ("tests/test_verification.py", "tests/test_pdm.py", "tests/test_golden.py"),
         PDM: ("tests/test_pdm.py", "tests/test_golden.py"),
         VERIFICATION: ("tests/test_verification.py", "tests/test_golden.py")}

# (file, snippet, replacement, None if it must be killed, else why it is
# equivalent)
MUTANTS = [
    # the a-priori rounding term 4 eps ||(|T| + |theta|) |q||| of _rayleigh
    (PDM, "np.abs(off), np.abs(q, out=x)", "off, np.abs(q, out=x)", None),
    (PDM, "np.add(np.abs(diag), np.abs(theta)[:, None], out=main)",
     "np.add(np.abs(diag), 0.0, out=main)", None),
    (PDM, "resid + 4.0 * _EPS * np.sqrt", "resid + 1.0 * _EPS * np.sqrt", None),
    # the products' neighbours
    (PDM, "out[:, :-1] += off * vecs[:, 1:]", "out[:, :-1] += off * vecs[:, :-1]", None),
    # an error-free row's own error eps |r_i|
    (PDM, "(_EPS * np.abs(exact) + _TINY)", "(0.0 * np.abs(exact) + _TINY)",
     "the error-free rows' terms add at most eps ||r|| to the bound, one rounding "
     "of ||r|| itself"),
    # the offset of theta from q's Rayleigh quotient
    (PDM, "offset = 2.0 * (np.abs(proj)", "offset = 0.0 * (np.abs(proj)", None),
    # _enclosure: disjoint intervals, strictly, and the point the count reads
    (PDM, "all(b > a for a, b in zip(top, low[1:]))",
     "all(b >= a for a, b in zip(top, low[1:]))", None),
    (PDM, "x = theta[-1] + 0.5 * (theta[-1] - theta[-2])",
     "x = theta[-1] + 1.5 * (theta[-1] - theta[-2])", None),
    (PDM, "x = theta[-1] + 0.5 * (theta[-1] - theta[-2])",
     "x = math.nextafter(top[-1], math.inf)", None),
    # _kato_temple: the widths, each rounded up, and Kato's clause
    (CORE, "math.nextafter(r2 / gap, math.inf)", "math.nextafter(0.0 * r2 / gap, math.inf)",
     None),
    (CORE, "math.nextafter(r2 / gap, math.inf)", "r2 / gap", None),
    (CORE, "math.nextafter(r2 / room, math.inf)", "r2 / room", None),
    (CORE, "r2 < gap * room * (1.0 - _EPS)", "r2 < gap * room",
     "r2 < fl(gap room) for a double r2 already gives r2 < gap room exactly: r2 is then "
     "at most the double below fl(gap room), which lies below gap room (in the normal "
     "range); the margin only keeps the clause of the chains as it was"),
    # _chain_bracket: the Kato-Temple term of a level's width
    (VERIFICATION, "w += kato[1] if kato", "w += 0.0 * kato[1] if kato", None),
    # the rounding margins of the log bounds and of t^2.  SCAN: the 4 000
    # draws of tests/test_verification.py's scan_draws (c0 = 1, c uniform
    # on [0.001, 0.499] with a random sign, k one of (0, 0.25, 0.75, 1.6,
    # 3, 1e3), want 1 to 5); each mutant leaves every draw's least
    # certifying N (searched up to 2 999) as it is, and size >= 96 at each
    # certifying call
    (VERIFICATION, "_EPS * (size + 16.0)", "_EPS * (size - 16.0)",
     "err = (64 + 2 want) eps (size + 16) falls by 32 (64 + 2 want) eps, at most 29% of "
     "it where size >= 96 (SCAN): decisions move only within that many roundings of a "
     "log bound; a 40-digit check of each bound would be needed to see it"),
    (VERIFICATION, "** 2 * (1.0 + 16.0 * _EPS)", "** 2 * (1.0 + 0.0 * _EPS)",
     "t^2's three roundings then lower s_j by at most 1.5 eps relative, which moves "
     "the tail bound's log by 0.75 eps s_j / (1 - s_j), under err's 66 * 112 eps "
     "unless 1 - s_j < 1e-4; no SCAN case decides there"),
    # the bounds' rounding scale past the doubles, refused by name
    (VERIFICATION, "if size == math.inf:", "if False:", None),
    # the metric sums' neglected tail, relative
    (VERIFICATION, "_TAIL_TOL = _EPS / 4.0", "_TAIL_TOL = _EPS * 4.0", None),
]


def outcome(tree: Path, tests) -> int:
    """pytest's exit code for `tests` in `tree`, whose src and tests alone
    are put on the path, ahead of any installed su11metric."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(tree / "src"), str(tree / "tests"))))
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           *tests], cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def main() -> int:
    sources = {target: (ROOT / target).read_text(encoding="utf-8") for target in TESTS}
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp, "tree")
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", "results"))
        tests = sorted({t for targets in TESTS.values() for t in targets})
        if outcome(tree, tests) != 0:
            print(f"the unmutated tree fails {' '.join(tests)}")
            return 1
        for target, snippet, replacement, equivalent in MUTANTS:
            source = sources[target]
            if source.count(snippet) != 1:
                print(f"no longer matches once: {snippet!r}")
                failed = True
                continue
            (tree / target).write_text(source.replace(snippet, replacement), encoding="utf-8")
            code = outcome(tree, TESTS[target])
            (tree / target).write_text(source, encoding="utf-8")
            if code == 0:
                verdict = f"survived, equivalent: {equivalent}" if equivalent else "SURVIVED"
                failed |= equivalent is None
            elif code == 1:
                verdict = "killed"
            else:
                verdict = f"pytest exit {code}"
                failed = True
            print(f"{verdict}: {target.name}: {snippet!r} -> {replacement!r}")
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
