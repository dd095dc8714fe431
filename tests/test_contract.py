"""The CLI's input contract, on every argv the parser accepts.

Every call ends with exit 0, 1, 2 or 3.  Exit 2 or 3 prints one `error:`
line and nothing on stdout.  Nothing escapes main: no traceback, and no
RuntimeWarning (the test configuration makes those errors).  No stdout
holds nan, and an exit-0 stdout holds no inf; inf may stand only in a
residual cell of a failed check (exit 1).

Inputs mix ordinary values with the extremes of the doubles: +-0, the
smallest subnormal, 1e+-300, the largest doubles, +-inf and nan.  Flags
are passed as --flag=value, which the parser accepts for negative values
too.  The small sizes (N <= 60, pdm grids of 400 to 800 points, at most
3 sweep steps) keep the run to a few seconds.
"""

import contextlib
import io

from hypothesis import example, given, settings
from hypothesis import strategies as st

from su11metric.cli import main

EXTREMES = (0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e300, -1e300,
            1.7e308, -1.7e308, float("inf"), float("-inf"), float("nan"))
# ordinary values of each flag, the first the one the search starts from
ORDINARY = dict(
    omega=(1.0, 0.8, 2.0, 1e-3, 30.0),
    alpha=(0.2, 0.45, -0.25, 0.75, 1e-9, 0.5, 353.4),
    beta=(0.1, 0.05, 0.25, -0.5, -2.6068268445611213, 0.49999999999),
    z=(0.0, 0.4, -0.8, 1.0, -1.0, 0.3, 0.77, -0.9995320885425871, 1.0 - 2 ** -52),
    epsilon=(1.0, -0.5, 1e-5, 720.0), eta=(0.25, 0.0, -0.1, 1e-6), k=(0.25, 0.75, 1e3),
    s=(0.5, 1.0, 0.1), tau=(3.0, -1.0, 10.0), x_min=(-4.0, -8.0, 0.0), x_max=(14.0, 8.0, 40.0))
ORDINARY.update(eta_im=ORDINARY["eta"], z_from=ORDINARY["z"], z_to=(0.8, 0.0, -0.4, 1.0))
# the last two: lowest weights where the tail ratio of rho's or zeta_+'s
# antinormal series overflows
REALIZATIONS = ("discrete:k=0.25", "oscillator:parity=even", "oscillator",
                "multiboson:l=2,residues=0.25,0.75", "radial:L=1", "conformal:k=0.75,c=1",
                "discrete:k=1e200", "radial:L=1e300")

# the first four broke the contract until they were refused by name; the
# other six were closed before this test
CASES = (
    ["disentangle", "--epsilon", "1", "--eta", "1.7e308", "--eta-im", "1.7e308"],
    ["spectrum", "--omega", "1", "--alpha", "0.2", "--beta", "0.1", "--k", "1.7e308"],
    ["sweep", "--omega", "1", "--alpha", "0.2", "--beta", "0.1",
     "--z-from", "0", "--z-to", "inf", "--steps", "3"],
    ["pdm", "--omega", "1", "--alpha", "0.2", "--beta", "0.1", "--tau", "1e160"],
    ["validate", "--omega", "inf", "--alpha", "0.18", "--beta", "1e-18"],
    ["validate", "--omega", "1e300", "--alpha=-0.0", "--beta=-0.24"],
    ["spectrum", "--omega", "1.7e308", "--alpha=-6.5", "--beta=-0.5",
     "--k", "0.0102", "--count", "50"],
    ["pdm", "--omega", "1.7e308", "--alpha=-6.5", "--beta=-0.5"],
    ["metric", "--omega", "5e-324", "--alpha", "1e-09",
     "--beta=-0.20635540602258096", "--z=-0.5756502923476372"],
    ["metric", "--omega", "1e150", "--alpha", "353.4", "--beta", "0.93", "--z", "0.9"],
    ["pdm", "--omega", "1", "--alpha", "0.2", "--beta", "0.1", "--tau", "1e300"],
    ["pdm", "--omega", "1", "--alpha", "0.2", "--beta", "0.1", "--tau=-1.7e308"],
    # x.x of a Rayleigh step underflowed to 0 on this grid, whose diagonal
    # is 6.78e192 throughout: a divide-by-zero RuntimeWarning, now exit 3
    ["pdm", "--omega=1.0", "--alpha=0.2", "--beta=0.1", "--s=2.174763340727069e-97"],
    # a K+ entry past the doubles leaked an overflow RuntimeWarning; the
    # multiboson's ended in a traceback
    ["verify", "--omega", "1", "--alpha", "0.2", "--beta", "0.1", "--z", "0.4",
     "--realization", "discrete:k=1e306"],
    ["verify", "--omega", "1", "--alpha", "0.2", "--beta", "0.1", "--z", "0.4",
     "--realization", "radial:L=1e306"],
    ["verify", "--omega", "1", "--alpha", "0.2", "--beta", "0.1", "--z", "0.4",
     "--realization", "conformal:k=1e306,c=1"],
    ["verify", "--omega", "1", "--alpha", "0.2", "--beta", "0.1", "--z", "0.4",
     "--realization", "multiboson:l=2,residues=0.25,1e306"],
    # k past 1/eps, which the harmonic law never certifies, on a chain too
    # long to bisect ended in a ValueError traceback; now refused by name
    ["verify", "--omega", "1", "--alpha", "0.2", "--beta", "0.1",
     "--realization", "discrete:k=1e17", "--size", str(10 ** 20)],
    # a grid spacing that rounds to 0 ended in a math domain error
    ["pdm", "--omega=1.0", "--alpha=0.2", "--beta=0.1", "--x-min=0.0", "--x-max=5e-324"],
    # the tail ratio of rho's or zeta_+'s antinormal series overflowed at
    # a lowest weight near 1e200 or past it: an overflow RuntimeWarning
    ["verify", "--omega", "1.2159065503692066", "--alpha", "-0.999999",
     "--beta", "-0.21333401110092254", "--z=0.25", "--size", "60", "--trusted", "17",
     "--realization", "discrete:k=1e200"],
    ["verify", "--omega", "12", "--alpha", "2.564548359334296",
     "--beta", "0.3212081074398565", "--z=-0.999999", "--size", "200", "--trusted", "43",
     "--realization", "radial:L=1e300"],
    ["sweep", "--omega", "1", "--alpha", "0.7752315883458998", "--beta", "1e-300",
     "--z-from=1e-300", "--z-to=-0.999999", "--steps", "1", "--size", "5",
     "--trusted", "4", "--realization", "radial:L=1e300"],
)

extreme = st.one_of(st.sampled_from(EXTREMES), st.floats(-2.0, 2.0),
                    st.floats(allow_nan=True, allow_infinity=True))


def values(name):
    """A flag's values: three draws in four are ordinary, so that many
    calls pass the checks of their inputs and reach the numerics."""
    return st.one_of(*[st.sampled_from(ORDINARY[name])] * 3, extreme)


def flags(required=(), *optional, **others):
    """["--name=value", ...] for the flags in `required`, for those in
    `optional` that are drawn (from values(name)) and for those of `others`
    that are drawn; a flag left out takes the parser's default."""
    return st.fixed_dictionaries(
        {k: values(k) for k in required},
        optional={**{k: values(k) for k in optional}, **others}).map(
        lambda d: [f"--{k.replace('_', '-')}={v!r}" if isinstance(v, float)
                   else f"--{k.replace('_', '-')}={v}" for k, v in d.items()])


PARAMS = ("omega", "alpha", "beta")
MATRIX = dict(size=st.integers(2, 60), trusted=st.integers(1, 40),
              realization=st.sampled_from(REALIZATIONS))
OUTPUT = dict(output=st.sampled_from(("table", "csv")))


def ordinary(names):
    """verify or sweep flags from ordinary values alone and 2 <= trusted <
    size, so that many calls pass their input checks and reach the metric
    blocks, which the draws of `flags` almost never do."""
    matrix = st.integers(3, 60).flatmap(lambda n: st.tuples(
        st.just(n), st.integers(2, n - 1), st.sampled_from(REALIZATIONS)))
    return st.tuples(st.fixed_dictionaries({k: st.sampled_from(ORDINARY[k]) for k in names}),
                     matrix).map(lambda t: [
        *(f"--{k.replace('_', '-')}={v!r}" for k, v in t[0].items()),
        f"--size={t[1][0]}", f"--trusted={t[1][1]}", f"--realization={t[1][2]}"])


ARGV = st.one_of(
    flags(PARAMS).map(lambda f: ["validate", *f]),
    flags(("epsilon", "eta"), "eta_im", **OUTPUT).map(lambda f: ["disentangle", *f]),
    flags(PARAMS, "z", **OUTPUT).map(lambda f: ["metric", *f]),
    flags(PARAMS, "k", count=st.integers(-1, 50), **OUTPUT).map(lambda f: ["spectrum", *f]),
    flags(PARAMS, "z", **MATRIX, **OUTPUT).map(lambda f: ["verify", *f]),
    st.tuples(flags((*PARAMS, "z_from", "z_to"), **MATRIX), st.integers(-1, 3)).map(
        lambda t: ["sweep", *t[0], f"--steps={t[1]}"]),
    flags(PARAMS, "z", "s", "tau", "x_min", "x_max", points=st.integers(400, 800),
          **OUTPUT).map(lambda f: ["pdm", *f]),
    # verify and sweep that reach the metric blocks, the large weights
    # included, where the ordinary values of z give both metric
    # orderings, eps > 0 (antinormal) and eps < 0 (normal)
    ordinary((*PARAMS, "z")).map(lambda f: ["verify", *f]),
    st.tuples(ordinary((*PARAMS, "z_from", "z_to")), st.integers(1, 3)).map(
        lambda t: ["sweep", *t[0], f"--steps={t[1]}"]),
)


def with_examples(test):
    for argv in CASES:
        test = example(argv)(test)
    return test


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(ARGV)
@with_examples
def test_cli_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3), (argv, code)
    if code in (2, 3):
        assert out == "", argv
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), \
            (argv, err)
    assert "nan" not in out.lower(), (argv, out)
    if code == 0:
        assert "inf" not in out.lower(), (argv, out)
