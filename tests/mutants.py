"""Mutation audit of pdm's certificate: _rayleigh's residual bound, the
products it is formed from (_tri_mul) and the interval gates
(_interval_top).

    python tests/mutants.py

Each mutant is one edit of src/su11metric/pdm.py.  For each, the tree is
copied to a temporary directory, the edit applied there, and
`pytest -q -x tests/test_pdm.py tests/test_golden.py` run in the copy;
a mutant is killed when a test fails.  A mutant listed with a reason is
accepted as equivalent in effect and may survive.  Exit 1 if any other
mutant survives, if a snippet does not occur exactly once, or if the
unmutated copy fails its tests.  Standard library only.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TARGET = Path("src", "su11metric", "pdm.py")
TESTS = ("tests/test_pdm.py", "tests/test_golden.py")

# (snippet, replacement, None if it must be killed, else why it is equivalent)
MUTANTS = [
    # the a-priori rounding term 4 eps ||(|T| + |theta|) |q|||
    ("np.abs(off), np.abs(q, out=x)", "off, np.abs(q, out=x)", None),
    ("np.add(np.abs(diag), np.abs(theta)[:, None], out=main)",
     "np.add(np.abs(diag), 0.0, out=main)", None),
    ("resid + 4.0 * _EPS * np.sqrt", "resid + 1.0 * _EPS * np.sqrt", None),
    # the products' neighbours
    ("out[:, :-1] += off * vecs[:, 1:]", "out[:, :-1] += off * vecs[:, :-1]", None),
    # _interval_top's two gates
    ("resid.max() <= _SQRT_EPS *", "resid.max() <= 10.0 * _SQRT_EPS *", None),
    ("theta[1:] - rho[1:] > top[:-1]", "theta[1:] > top[:-1]", None),
    # an error-free row's own error eps |r_i|
    ("(_EPS * np.abs(exact) + _TINY)", "(0.0 * np.abs(exact) + _TINY)",
     "the error-free rows' terms add at most eps ||r|| to the bound, one rounding "
     "of ||r|| itself"),
]


def outcome(tree: Path) -> int:
    """pytest's exit code for TESTS in `tree`, whose src and tests alone are
    put on the path, ahead of any installed su11metric."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(tree / "src"), str(tree / "tests"))))
    return subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                           *TESTS], cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def main() -> int:
    source = (ROOT / TARGET).read_text(encoding="utf-8")
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp, "tree")
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", "results"))
        if outcome(tree) != 0:
            print(f"the unmutated tree fails {' '.join(TESTS)}")
            return 1
        for snippet, replacement, equivalent in MUTANTS:
            if source.count(snippet) != 1:
                print(f"no longer matches once: {snippet!r}")
                failed = True
                continue
            (tree / TARGET).write_text(source.replace(snippet, replacement), encoding="utf-8")
            code = outcome(tree)
            if code == 0:
                verdict = f"survived, equivalent: {equivalent}" if equivalent else "SURVIVED"
                failed |= equivalent is None
            elif code == 1:
                verdict = "killed"
            else:
                verdict = f"pytest exit {code}"
                failed = True
            print(f"{verdict}: {snippet!r} -> {replacement!r}")
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
