"""Command-line front end.

Subcommands: validate, disentangle, metric, spectrum, sweep, pdm, verify.
Flags may be preloaded from a line-oriented key=value config file
(--config FILE or --config=FILE); explicit flags override file values.
Each subcommand returns its whole report and a verdict; main alone
writes stdout, so an error leaves no partial output, and maps the verdict
to exit 0 or 1.  Numbers print with 12 significant digits, as (name,
value) rows (an aligned table, or quantity,value under --output csv) or
as lines (validate, and sweep's CSV in SWEEP_COLUMNS' order).  verify is
sweep's one-row case: _checked_rows refuses T (2 <= T < N) before p and
z, solves each (p, z) once (solve_metric) before any bundle is built
from its record, and judges each residual against RESIDUAL_TOLS.  Every
record is a NamedTuple.  The closed-form subcommands (validate, disentangle,
metric, spectrum) load neither numpy nor scipy; verify and sweep load the
matrix layer (numpy) on first use, and pdm only the algebra layer, numpy
and scipy's LAPACK wrappers (pdm._lapack; no module imports scipy).
verify and sweep work one D+(k) chain at a time, so their cost does not
grow with --size, and print h's levels only from its harmonic law,
certified in each chain's states; a chain too short for it (a
near-parabolic h, or verify --size 12) is refused (exit 3, raise --size).
Where mu <= 0, h is unbounded below, and verify, sweep and pdm refuse z.

Exit codes: 0 success (all residuals under tolerance), 1 residuals over
tolerance or a failed/inconclusive check, 2 a refused command line (argparse,
a missing or unreadable --config file), invalid parameters, inadmissible
z or an array past the machine's memory (numpy's MemoryError, naming it),
3 numerical failure, a trusted block outside 2 <= T < N (verify --size 10
--trusted 10), an uncertified PDM grid level or a chain of h too short for
its law.  Each error type carries its code (errors.py), and main
prints its message as one "error:" line.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .core import disentangle_closed_form
from .errors import InvalidParams, Su11MetricError, TruncationTooSmall
from .metric import SwansonParams, _exact, solve_metric, spectrum_prediction

_self = sys.modules[__name__]  # its attributes include wrappers set on the module


def __getattr__(name):
    """from_descriptor and build_bundle, imported on first use (PEP 562);
    verify and sweep call them as attributes of _self."""
    if name not in ("from_descriptor", "build_bundle"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return globals().setdefault(name, getattr(sys.modules[__package__], name))


RESIDUAL_TOLS = {
    "r_herm": 1e-6,
    "r_eq10": 1e-7,
    "r_intertwine": 1e-6,
    "r_quasi": 1e-6,
    "r_commute": 1e-10,
}

SWEEP_COLUMNS = ["z", "epsilon", "mu", "nu", "mu_nu_product", "U", "V", "W",
                 "r_herm", "r_eq10", "r_intertwine", "r_quasi", "r_commute",
                 "e0", "e1", "e2", "e3", "e4"]


def _fmt(value) -> str:
    if isinstance(value, complex):
        if value.imag == 0.0:
            return f"{value.real:.12g}"
        return f"{value.real:.12g}{value.imag:+.12g}j"
    return f"{float(value):.12g}"


def _render(args, report) -> str:
    """stdout's text for a report: plain lines as they are; (name, value)
    rows as an aligned table or, under --output csv, as quantity,value."""
    if isinstance(report[0], str):
        return "\n".join(report) + "\n"
    rows = [(name, value if isinstance(value, str) else _fmt(value))
            for name, value in report]
    if args.output == "csv":
        lines = ["quantity,value"] + [f"{name},{text}" for name, text in rows]
    else:
        width = max(len(name) for name, _ in rows)
        lines = [f"{name:<{width}}  {text}" for name, text in rows]
    return "\n".join(lines) + "\n"


def _params(args) -> SwansonParams:
    return SwansonParams(args.omega, args.alpha, args.beta)


def _checked_rows(args, z_list):
    """(realization, [(solution, bundle)] per z of z_list(p), {residual:
    within its RESIDUAL_TOLS in every row}) of verify and sweep.  T is
    refused first, then the realization resolves p (a conformal descriptor
    overrides alpha and beta), then every z is solved, and so refused,
    before any bundle is built from its record."""
    if not 2 <= args.trusted < args.size:
        raise TruncationTooSmall(
            f"need 2 <= trusted < size (got size = {args.size}, trusted = {args.trusted})")
    mats, override = _self.from_descriptor(args.realization, args.size, omega=args.omega)
    p = override if override is not None else _params(args)
    sols = [solve_metric(p, float(z)) for z in z_list(p)]
    bundles = [_self.build_bundle(sol, mats, trusted=args.trusted) for sol in sols]
    return mats, list(zip(sols, bundles)), {
        name: all(b.residuals[name] <= tol for b in bundles)
        for name, tol in RESIDUAL_TOLS.items()}


def _sweep_z(args, p: SwansonParams):
    """sweep's z grid, ascending: --steps points from --z-from to --z-to."""
    import numpy as np

    if args.steps < 1:
        raise InvalidParams(f"steps must be at least 1 (got {args.steps})")
    for end in (args.z_from, args.z_to):  # in range before linspace warns on inf
        _exact(p, end)
    return np.sort(np.linspace(args.z_from, args.z_to, args.steps))


def cmd_validate(args) -> tuple[list, bool]:
    p = _params(args)
    return [f"parameters valid: omega = {_fmt(p.omega)}, alpha = {_fmt(p.alpha)}, "
            f"beta = {_fmt(p.beta)}, omega^2 - 4*alpha*beta = "
            f"{_fmt(_exact(p)[0])}"], True


def cmd_disentangle(args) -> tuple[list, bool]:
    eta = complex(args.eta, args.eta_im)
    normal, anti = disentangle_closed_form(args.epsilon, eta)
    return [("epsilon", args.epsilon), ("eta", eta),
            ("p", normal.p), ("q", normal.q), ("r", normal.r),
            ("r_prime", anti.r), ("q_prime", anti.q), ("p_prime", anti.p)], True


def cmd_metric(args) -> tuple[list, bool]:
    sol = solve_metric(_params(args), args.z)
    return [("z", sol.z), ("epsilon", sol.epsilon), ("eta", sol.eta),
            ("theta", sol.theta), ("lambda", sol.lambda_base),
            ("mu", sol.mu), ("nu", sol.nu), ("mu_nu_product", sol.mu * sol.nu),
            ("U", sol.u), ("V", sol.v), ("W", sol.w)], True


def cmd_spectrum(args) -> tuple[list, bool]:
    vals = spectrum_prediction(_params(args), args.k, args.count)
    return [(f"e{i}", v) for i, v in enumerate(vals)], True


def cmd_verify(args) -> tuple[list, bool]:
    mats, [(_, bundle)], passed = _checked_rows(args, lambda p: [args.z])
    rows = [("realization", mats.kind), ("z", args.z),
            ("size", mats.dim), ("trusted", args.trusted)]
    rows += [(name, f"{_fmt(bundle.residuals[name])}  "
                    f"[{'PASS' if passed[name] else 'FAIL'} <= {tol:g}]")
             for name, tol in RESIDUAL_TOLS.items()]
    rows += [(f"e{i}", v) for i, v in enumerate(bundle.spectrum_h)]
    return rows, all(passed.values())


def cmd_sweep(args) -> tuple[list, bool]:
    _, rows, passed = _checked_rows(args, lambda p: _sweep_z(args, p))
    lines = [",".join(SWEEP_COLUMNS)]
    for sol, bundle in rows:
        values = [sol.z, sol.epsilon, sol.mu, sol.nu, sol.mu * sol.nu,
                  sol.u, sol.v, sol.w]
        values += [bundle.residuals[name] for name in RESIDUAL_TOLS]
        values += list(bundle.spectrum_h)
        lines.append(",".join(_fmt(v) for v in values))
    return lines, all(passed.values())


def cmd_pdm(args) -> tuple[list, bool]:
    from . import pdm

    cfg = pdm.PdmConfig(params=_params(args), z=args.z, s=args.s, tau=args.tau,
                        x_min=args.x_min, x_max=args.x_max, points=args.points)
    report = pdm.run_pdm_check(cfg)
    rows = [("s", cfg.s), ("tau", cfg.tau), ("x_min", cfg.x_min),
            ("x_max", cfg.x_max), ("points", str(cfg.points)), ("z", cfg.z)]
    rows += [(f"e{i}", f"{_fmt(e)}  (predicted {_fmt(pred)}, rel_error {_fmt(err)})")
             for i, (e, pred, err) in enumerate(zip(report.eigenvalues, report.predicted,
                                                    report.rel_errors))]
    rows += [(f"refine_{pts}", " ".join(_fmt(v) for v in report.refine_table[pts]))
             for pts in report.points_used]
    rows += [("convergence", "ok" if report.convergence_ok else "not ok"),
             ("boundary_decay", report.boundary_decay), ("status", report.status)]
    return rows, report.status == "PASS"


def _add_param_flags(sp) -> None:
    sp.add_argument("--omega", type=float, required=True, help="oscillator frequency")
    sp.add_argument("--alpha", type=float, required=True, help="lowering coupling")
    sp.add_argument("--beta", type=float, required=True, help="raising coupling")


def _add_output_flag(sp) -> None:
    sp.add_argument("--output", choices=("table", "csv"), default="table",
                    help="report format (default table)")


def _add_matrix_flags(sp) -> None:
    sp.add_argument("--realization", default="discrete:k=0.25",
                    help="realization descriptor, e.g. discrete:k=0.25, "
                         "oscillator:parity=even, multiboson:l=2,residues=0.25,0.75, "
                         "radial:L=1, conformal:k=0.75,c=1 (a conformal "
                         "descriptor overrides alpha and beta)")
    sp.add_argument("--size", type=int, default=200,
                    help="basis truncation N (default 200)")
    sp.add_argument("--trusted", type=int, default=50,
                    help="trusted leading block T (default 50)")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parsing does not change it."""
    ap = argparse.ArgumentParser(
        prog="su11metric",
        description="Metric operators, Hermitian equivalents, and commuting "
                    "observables for su(1,1) oscillator Hamiltonians.")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("validate", help="check the parameter constraints")
    _add_param_flags(sp)
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("disentangle",
                        help="ordered factorizations of exp(2 eps K0 + 2 eta Km + 2 eta* Kp)")
    sp.add_argument("--epsilon", type=float, required=True)
    sp.add_argument("--eta", type=float, required=True, help="real part of eta")
    sp.add_argument("--eta-im", type=float, default=0.0, help="imaginary part of eta")
    _add_output_flag(sp)
    sp.set_defaults(func=cmd_disentangle)

    sp = sub.add_parser("metric", help="solve the metric family at one z")
    _add_param_flags(sp)
    sp.add_argument("--z", type=float, default=0.0)
    _add_output_flag(sp)
    sp.set_defaults(func=cmd_metric)

    sp = sub.add_parser("spectrum", help="closed-form spectrum of the Hermitian equivalent")
    _add_param_flags(sp)
    sp.add_argument("--k", type=float, default=0.25, help="lowest weight")
    sp.add_argument("--count", type=int, default=5)
    _add_output_flag(sp)
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("verify", help="build the operator bundle and check residuals")
    _add_param_flags(sp)
    sp.add_argument("--z", type=float, default=0.0)
    _add_matrix_flags(sp)
    _add_output_flag(sp)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("sweep", help="CSV sweep over a z range")
    _add_param_flags(sp)
    sp.add_argument("--z-from", type=float, required=True)
    sp.add_argument("--z-to", type=float, required=True)
    sp.add_argument("--steps", type=int, required=True)
    _add_matrix_flags(sp)
    sp.set_defaults(func=cmd_sweep)

    sp = sub.add_parser("pdm", help="position-dependent-mass spectral check")
    _add_param_flags(sp)
    sp.add_argument("--z", type=float, default=0.0)
    sp.add_argument("--s", type=float, default=0.5, help="mass exponent")
    sp.add_argument("--tau", type=float, default=3.0, help="integration constant")
    sp.add_argument("--x-min", type=float, default=-4.0)
    sp.add_argument("--x-max", type=float, default=14.0)
    sp.add_argument("--points", type=int, default=2000,
                    help="finest grid's interior points, at least 400: the "
                         "check also solves points/4 and points/2 (default 2000)")
    _add_output_flag(sp)
    sp.set_defaults(func=cmd_pdm)

    return ap


def _apply_config(argv: list[str]) -> list[str]:
    """Splice config-file values (--config FILE or --config=FILE, before or
    after the subcommand) in as flags ahead of the explicit ones."""
    argv = [x for t in argv for x in (t.split("=", 1) if t.startswith("--config=") else [t])]
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    if idx + 1 >= len(argv):
        raise InvalidParams("--config needs a file path")
    path = argv[idx + 1]
    rest = argv[:idx] + argv[idx + 2:]
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidParams(f"cannot read config file {path!r}: {exc}") from exc
    flags: list[str] = []
    for lineno, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidParams(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        flags += [f"--{key.strip().replace('_', '-')}", value.strip()]
    if not rest:
        return flags
    # insert after the subcommand so explicit flags take precedence
    return rest[:1] + flags + rest[1:]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _build_parser().parse_args(_apply_config(argv))
        report, ok = args.func(args)
    except SystemExit as exc:  # argparse: --help, or a refused command line
        return 0 if exc.code in (0, None) else 2
    except (Su11MetricError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 2)
    sys.stdout.write(_render(args, report))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
