"""Command-line front end: evaluate spinors and operators at a momentum, run
verification suites, print the rest-frame table, and diff reports.

Importing this module loads what ``eval`` and ``table`` use (kinematics,
matrices, spinors and operators); ``verify`` and ``diff`` import the suite
when they run.

Exit codes: 0 success, 1 verification failure, 2 usage or domain error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .config import SUITE_NAMES
from .errors import ElkoError, UsageError
from .kinematics import _intertwiner_residual, boost_half, make_momentum
from .operators import (
    charge_conjugation,
    chiral_helicity_operator,
    chirality,
    helicity_operator,
    parity_operator,
    u1,
    u2,
    u3,
    xi_matrix,
)
from .spinors import (
    REST_LAMBDA_PATTERNS,
    REST_RHO_PATTERNS,
    dirac_spinor,
    lambda_spinor,
    rho_spinor,
)

_DIGITS = 12


def _fmt(x: float) -> str:
    return f"{x:.{_DIGITS}g}"


def _render_vector_text(vec) -> str:
    lines = ["  component            re                   im"]
    for k, z in enumerate(vec):
        lines.append(f"  [{k}]  {_fmt(z.real):>22} {_fmt(z.imag):>22}")
    return "\n".join(lines)


def _render_matrix_text(mat) -> str:
    lines = []
    for row in np.asarray(mat):
        cells = [f"({_fmt(z.real)}, {_fmt(z.imag)})" for z in row]
        lines.append("  " + "  ".join(f"{c:>30}" for c in cells))
    return "\n".join(lines)


def _array_json(arr) -> list:
    a = np.asarray(arr)
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _parse_momentum(text: str):
    try:
        parts = [float(x) for x in text.split(",")]
    except ValueError:
        parts = []
    if len(parts) != 3:
        raise UsageError("--momentum expects three comma-separated numbers px,py,pz")
    return parts


def _write_file(path, text: str):
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from None


def _emit(args, payload: dict, lines: list):
    """Write the payload as sorted JSON (``--format json``) or the lines as
    text, to ``--out`` or to standard output, ending in one newline."""
    text = json.dumps(payload, sort_keys=True) if args.format == "json" else "\n".join(lines)
    if args.out:
        _write_file(args.out, text if text.endswith("\n") else text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def _xi_with_residual(p):
    xi = xi_matrix(p)
    resid = _intertwiner_residual(xi, p, "R")[0]
    return xi, [f"  intertwiner residual: {resid:.3e}"]


# --family -> the spinor at (momentum, parsed arguments), or -> the operator's
# (matrix, note lines) at a momentum
_SPINORS = {
    "lambda": lambda p, a: lambda_spinor(p, a.kind, a.index, a.basis),
    "rho": lambda p, a: rho_spinor(p, a.kind, a.index, a.basis),
    "u": lambda p, a: dirac_spinor(p, "particle", a.index, a.basis),
    "v": lambda p, a: dirac_spinor(p, "antiparticle", a.index, a.basis),
}
_OPERATORS = {
    "helicity-operator": lambda p: (helicity_operator(p).matrix, []),
    "chiral-helicity-operator": lambda p: (chiral_helicity_operator(p).matrix, []),
    "xi": _xi_with_residual,
    "charge-conjugation": lambda p: (charge_conjugation().matrix,
                                     ["  antilinear: conjugates its operand"]),
    "parity": lambda p: (parity_operator().matrix,
                         ["  reflects momentum: evaluate the operand at (E, -p)"]),
    "chirality": lambda p: (chirality().matrix, []),
    "u1": lambda p: (u1(p), []),
    "u2": lambda p: (u2(), []),
    "u3": lambda p: (u3(), []),
    "boost-right": lambda p: (boost_half(p, "R"), []),
    "boost-left": lambda p: (boost_half(p, "L"), []),
}
_SPINOR_FAMILIES = tuple(_SPINORS)
_OPERATOR_FAMILIES = tuple(_OPERATORS)


def cmd_eval(args) -> int:
    p = make_momentum(*_parse_momentum(args.momentum), args.mass)
    derived = {"p_r": _array_json(p.p_r), "p_l": _array_json(p.p_l),
               "p_plus": p.p_plus, "p_minus": p.p_minus, "E": p.E}

    if args.family in _SPINOR_FAMILIES:
        obj = _SPINORS[args.family](p, args)
        payload = {"family": args.family, "kind": obj.kind, "index": obj.index,
                   "basis": obj.basis, "momentum": [p.px, p.py, p.pz], "mass": p.m,
                   "derived": derived, "components": _array_json(obj.components)}
        head = (f"{args.family} kind={obj.kind} index={obj.index} basis={obj.basis} "
                f"p=({_fmt(p.px)}, {_fmt(p.py)}, {_fmt(p.pz)}) m={_fmt(p.m)}")
        scalars = (f"  E={_fmt(p.E)}  p_r={_fmt(p.p_r.real)}{p.p_r.imag:+.12g}i  "
                   f"p_l={_fmt(p.p_l.real)}{p.p_l.imag:+.12g}i  "
                   f"p+={_fmt(p.p_plus)}  p-={_fmt(p.p_minus)}")
        _emit(args, payload, [head, scalars, _render_vector_text(obj.components)])
        return 0

    if args.family in _OPERATOR_FAMILIES:
        matrix, extra = _OPERATORS[args.family](p)
        payload = {"operator": args.family, "momentum": [p.px, p.py, p.pz], "mass": p.m,
                   "derived": derived, "matrix": _array_json(matrix)}
        head = f"{args.family} at p=({_fmt(p.px)}, {_fmt(p.py)}, {_fmt(p.pz)}) m={_fmt(p.m)}"
        _emit(args, payload, [head, _render_matrix_text(matrix)] + extra)
        return 0

    raise UsageError(
        f"unknown --family {args.family!r}; spinors: {_SPINOR_FAMILIES}, "
        f"operators: {_OPERATOR_FAMILIES}")


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------

_PATTERN_SYMBOL = {0j: "0", 1 + 0j: "1", -1 + 0j: "-1", 1j: "i", -1j: "-i"}


def cmd_table(args) -> int:
    if not (args.mass > 0 and math.isfinite(args.mass)):
        raise UsageError(f"mass must be positive and finite, got {args.mass}")
    prefactor = math.sqrt(args.mass / 2.0)
    rows = []
    for label, patterns in (("lambda", REST_LAMBDA_PATTERNS), ("rho", REST_RHO_PATTERNS)):
        for (kind, index), pattern in patterns.items():
            symbols = [_PATTERN_SYMBOL[complex(z)] for z in pattern]
            rows.append((f"{label}^{kind}_{index}", symbols))
    payload = {"mass": args.mass, "prefactor": prefactor,
               "spinors": [{"name": name, "components": comps} for name, comps in rows]}
    lines = [f"rest-frame spinors for m = {_fmt(args.mass)}",
             f"prefactor sqrt(m/2) = {_fmt(prefactor)}",
             "  (components listed times the prefactor)"]
    lines += [f"  {name:<14} ({', '.join(f'{c:>2}' for c in comps)})" for name, comps in rows]
    _emit(args, payload, lines)
    return 0


# ---------------------------------------------------------------------------
# verify / diff
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    from .suite import run_suite

    report = run_suite(args.suite, args.seed, args.samples,
                       force_convention=args.force_convention)
    text = report.to_json()
    if args.out:
        _write_file(args.out, text)
    if args.format == "json" and not args.out:
        print(text)
    summary = report.summary
    # a JSON report on standard output stays one document: the summary goes beside it
    print(f"suite={report.suite} seed={report.seed} samples={report.samples} "
          f"convention={report.convention} passed={summary['passed']}/{summary['total']}",
          file=sys.stderr if args.format == "json" and not args.out else sys.stdout)
    if args.format == "text":
        for check in report.checks:
            print(f"  [{check.status.upper():4}] {check.id}  residual={check.residual:.3e}")
    return 0 if report.all_passed else 1


def _read_report(path):
    from .suite import VerificationReport

    try:
        with open(path) as fh:
            return VerificationReport.from_json(fh.read())
    except OSError as exc:
        raise UsageError(f"cannot read report {path}: {exc.strerror or exc}") from None
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"{path} is not a verification report: "
                         f"{type(exc).__name__}: {exc}") from None


def cmd_diff(args) -> int:
    from .suite import diff_reports

    drifted = diff_reports(_read_report(args.report_a), _read_report(args.report_b))
    if args.format == "json":
        print(json.dumps({"drifted": drifted}))
    else:
        if drifted:
            print("\n".join(drifted))
        else:
            print("no drift")
    return 0 if not drifted else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="elko",
        description="Evaluate self/anti-self charge-conjugate spinors and their "
                    "symmetry operators, and machine-verify the algebra.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    ev = sub.add_parser("eval", help="evaluate a spinor or operator at a momentum")
    ev.add_argument("--family", required=True,
                    help="lambda | rho | u | v | " + " | ".join(_OPERATOR_FAMILIES))
    ev.add_argument("--kind", default="S", choices=["S", "A"])
    ev.add_argument("--index", default="up", choices=["up", "down"])
    ev.add_argument("--basis", default="spinorial", choices=["spinorial", "helicity"])
    ev.add_argument("--momentum", required=True, help="px,py,pz")
    ev.add_argument("--mass", type=float, required=True)
    ev.add_argument("--format", default="text", choices=["text", "json"])
    ev.add_argument("--out", default=None)
    ev.set_defaults(fn=cmd_eval)

    vf = sub.add_parser("verify", help="run a verification suite")
    vf.add_argument("--suite", required=True, choices=["all", *SUITE_NAMES])
    vf.add_argument("--seed", type=int, default=1)
    vf.add_argument("--samples", type=int, default=100)
    vf.add_argument("--format", default="text", choices=["text", "json"])
    vf.add_argument("--out", default=None, help="write the JSON report here")
    vf.add_argument("--force-convention", default=None, choices=["+", "-"],
                    help="override frequency-convention discovery (debugging)")
    vf.set_defaults(fn=cmd_verify)

    tb = sub.add_parser("table", help="print the rest-frame spinor table")
    tb.add_argument("--mass", type=float, required=True)
    tb.add_argument("--format", default="text", choices=["text", "json"])
    tb.add_argument("--out", default=None)
    tb.set_defaults(fn=cmd_table)

    df = sub.add_parser("diff", help="compare two verification reports")
    df.add_argument("report_a")
    df.add_argument("report_b")
    df.add_argument("--format", default="text", choices=["text", "json"])
    df.set_defaults(fn=cmd_diff)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except ElkoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed standard output early (e.g. `| head -1`).  What
        # is still buffered goes to devnull, so the flush at exit cannot fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
