"""Command-line front end.

Subcommands: validate, disentangle, metric, spectrum, sweep, pdm, verify.
Flags may be preloaded from a line-oriented key=value config file
(--config FILE or --config=FILE); explicit flags override file values.
Numeric output is printed with 12 significant digits; sweep output is
CSV with a fixed, documented column order and is fully computed before
anything is emitted, so no partial CSV is produced on error.  verify and
sweep refuse T (2 <= T < N) before p and z, and solve each (p, z) once
(solve_metric), before any bundle is built from its record.  The closed-form
subcommands (validate, disentangle, metric, spectrum) load neither numpy
nor scipy nor dataclasses: the algebra layer's records are NamedTuples.
verify, sweep and pdm load the matrix layer (numpy) on first use, and
its records are dataclasses, whose import is a small share of numpy's.
No module imports scipy; its compiled LAPACK wrappers alone are loaded,
on first use (verification._lapack): by pdm, for its grid's solves and
counts, and by the bisection (verification._bisect, values alone), for a
grid level whose seeds do not certify and for a chain whose law the
closed-form bracket does not certify in its N states, a near-parabolic
h's or one too short for it (e2 to e4 of verify --size 12).  Otherwise
verify and sweep take h's values from that certified harmonic law.
Where mu <= 0, h is unbounded below, and its solve
(verification._low_eigs) and pdm's grid refuse z (exit 2).

Exit codes: 0 success (all residuals under tolerance), 1 residuals over
tolerance or a failed/inconclusive check, 2 invalid parameters or
inadmissible z, 3 numerical failure or an uncertified PDM grid level.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .core import disentangle_closed_form
from .errors import (DecompositionSingular, InvalidParams, NoConvergence,
                     TrigRegime, TruncationTooSmall, ZOutOfDomain)
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


def _table(rows) -> str:
    width = max(len(name) for name, _ in rows)
    lines = []
    for name, value in rows:
        text = value if isinstance(value, str) else _fmt(value)
        lines.append(f"{name:<{width}}  {text}")
    return "\n".join(lines) + "\n"


def _emit(args, rows) -> None:
    if getattr(args, "output", "table") == "csv":
        lines = ["quantity,value"]
        for name, value in rows:
            text = value if isinstance(value, str) else _fmt(value)
            lines.append(f"{name},{text}")
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        sys.stdout.write(_table(rows))


def _params(args) -> SwansonParams:
    missing = [f"--{k}" for k in ("omega", "alpha", "beta")
               if getattr(args, k) is None]
    if missing:
        raise InvalidParams(f"missing required parameter(s): {', '.join(missing)}")
    return SwansonParams(args.omega, args.alpha, args.beta)


def _realization(args, p: SwansonParams):
    if not 2 <= args.trusted < args.size:
        raise TruncationTooSmall(
            f"need 2 <= trusted < size (got size = {args.size}, trusted = {args.trusted})")
    mats, override = _self.from_descriptor(args.realization, args.size, omega=p.omega)
    return mats, (override if override is not None else p)


def cmd_validate(args) -> int:
    p = _params(args)
    sys.stdout.write(
        f"parameters valid: omega = {_fmt(p.omega)}, alpha = {_fmt(p.alpha)}, "
        f"beta = {_fmt(p.beta)}, omega^2 - 4*alpha*beta = "
        f"{_fmt(_exact(p)[0])}\n")
    return 0


def cmd_disentangle(args) -> int:
    eta = complex(args.eta, args.eta_im)
    normal, anti = disentangle_closed_form(args.epsilon, eta)
    _emit(args, [("epsilon", args.epsilon), ("eta", eta),
                 ("p", normal.p), ("q", normal.q), ("r", normal.r),
                 ("r_prime", anti.r), ("q_prime", anti.q), ("p_prime", anti.p)])
    return 0


def cmd_metric(args) -> int:
    sol = solve_metric(_params(args), args.z)
    _emit(args, [("z", sol.z), ("epsilon", sol.epsilon), ("eta", sol.eta),
                 ("theta", sol.theta), ("lambda", sol.lambda_base),
                 ("mu", sol.mu), ("nu", sol.nu), ("mu_nu_product", sol.mu * sol.nu),
                 ("U", sol.u), ("V", sol.v), ("W", sol.w)])
    return 0


def cmd_spectrum(args) -> int:
    vals = spectrum_prediction(_params(args), args.k, args.count)
    _emit(args, [(f"e{i}", v) for i, v in enumerate(vals)])
    return 0


def cmd_verify(args) -> int:
    mats, p = _realization(args, _params(args))
    bundle = _self.build_bundle(solve_metric(p, args.z), mats, trusted=args.trusted)
    rows = [("realization", mats.kind), ("z", args.z),
            ("size", mats.dim), ("trusted", args.trusted)]
    ok = True
    for name, tol in RESIDUAL_TOLS.items():
        value = bundle.residuals[name]
        passed = value <= tol
        ok = ok and passed
        rows.append((name, f"{_fmt(value)}  [{'PASS' if passed else 'FAIL'} <= {tol:g}]"))
    rows += [(f"e{i}", v) for i, v in enumerate(bundle.spectrum_h)]
    _emit(args, rows)
    return 0 if ok else 1


def cmd_sweep(args) -> int:
    import numpy as np

    mats, p = _realization(args, _params(args))
    if args.steps < 1:
        raise InvalidParams(f"steps must be at least 1 (got {args.steps})")
    for end in (args.z_from, args.z_to):  # in range before linspace warns on inf
        _exact(p, end)
    # every z solved, and so refused, before any bundle is built
    sols = [solve_metric(p, float(z))
            for z in np.sort(np.linspace(args.z_from, args.z_to, args.steps))]
    lines = [",".join(SWEEP_COLUMNS)]
    ok = True
    for sol in sols:
        bundle = _self.build_bundle(sol, mats, trusted=args.trusted)
        for name, tol in RESIDUAL_TOLS.items():
            ok = ok and bundle.residuals[name] <= tol
        values = [sol.z, sol.epsilon, sol.mu, sol.nu, sol.mu * sol.nu,
                  sol.u, sol.v, sol.w]
        values += [bundle.residuals[name] for name in RESIDUAL_TOLS]
        values += list(bundle.spectrum_h)
        lines.append(",".join(_fmt(v) for v in values))
    sys.stdout.write("\n".join(lines) + "\n")
    return 0 if ok else 1


def cmd_pdm(args) -> int:
    from . import pdm

    p = _params(args)
    cfg = pdm.PdmConfig(params=p, z=args.z, s=args.s, tau=args.tau,
                        x_min=args.x_min, x_max=args.x_max, points=args.points)
    report = pdm.run_pdm_check(cfg)
    rows = [("s", cfg.s), ("tau", cfg.tau), ("x_min", cfg.x_min),
            ("x_max", cfg.x_max), ("points", str(cfg.points)), ("z", cfg.z)]
    for i, (e, pred, err) in enumerate(zip(report.eigenvalues, report.predicted,
                                           report.rel_errors)):
        rows.append((f"e{i}", f"{_fmt(e)}  (predicted {_fmt(pred)}, "
                              f"rel_error {_fmt(err)})"))
    for pts in report.points_used:
        rows.append((f"refine_{pts}",
                     " ".join(_fmt(v) for v in report.refine_table[pts])))
    rows.append(("convergence", "ok" if report.convergence_ok else "not ok"))
    rows.append(("boundary_decay", report.boundary_decay))
    rows.append(("status", report.status))
    _emit(args, rows)
    return 0 if report.status == "PASS" else 1


def _add_param_flags(sp) -> None:
    sp.add_argument("--omega", type=float, default=None,
                    help="oscillator frequency (required)")
    sp.add_argument("--alpha", type=float, default=None,
                    help="lowering coupling (required)")
    sp.add_argument("--beta", type=float, default=None,
                    help="raising coupling (required)")


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
    except OSError as exc:
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
        argv = _apply_config(argv)
        args = _build_parser().parse_args(argv)
    except (InvalidParams,) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except (InvalidParams, ZOutOfDomain, TrigRegime, DecompositionSingular) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (NoConvergence, TruncationTooSmall) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
