"""Command-line interface.

Subcommands: class, phi, projective, table, invariants, mather, ktheory,
verify.  Output formats: text (default), json, latex.  Exit status 0 on
success and after --help, 1 on a usage error (the offending parameter is
named), 2 on a verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache

from . import emit
from .orbits import OrbitId, as_family


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@lru_cache(maxsize=None)
def build_parser():
    """The argument parser, built on first use and shared by later calls:
    parsing keeps no state in it."""
    p = _Parser(prog="csmloci",
                description="Exact CSM/SSM classes of skew-symmetric and "
                            "symmetric matrix degeneracy loci")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, r=True, trunc=False):
        sp.add_argument("--family", required=True, choices=["wedge", "sym"])
        sp.add_argument("--n", required=True, type=int)
        if r:
            sp.add_argument("--r", required=True, type=int)
        if trunc:
            sp.add_argument("--trunc", type=int, default=None,
                            help="graded truncation degree")
        sp.add_argument("--format", choices=["text", "json", "latex"], default="text")

    sp = sub.add_parser("class", help="csm or ssm class of an orbit")
    common(sp, trunc=True)
    sp.add_argument("--kind", choices=["csm", "ssm"], default="csm")
    sp.add_argument("--route", choices=["interp", "sieve"], default="interp")
    sp.add_argument("--basis", choices=["chern", "schur", "alpha"], default="chern")
    sp.add_argument("--closure", action="store_true",
                    help="class of the orbit closure instead of the orbit")

    sp = sub.add_parser("phi", help="pushforward class of the fibered resolution")
    common(sp, trunc=True)
    sp.add_argument("--basis", choices=["chern", "schur", "alpha"], default="chern")

    sp = sub.add_parser("projective", help="ordinary CSM class of the projectivized orbit")
    common(sp)
    sp.add_argument("--kind", choices=["csm", "ssm"], default="csm")
    sp.add_argument("--closure", action="store_true")

    sp = sub.add_parser("table", help="Euler characteristics of general linear sections")
    common(sp, r=False)
    sp.add_argument("--closures", action="store_true",
                    help="rows for orbit closures instead of orbits")

    sp = sub.add_parser("invariants", help="codimension, degree and Euler characteristic")
    common(sp)

    sp = sub.add_parser("mather", help="Chern-Mather class (skew-symmetric family)")
    sp.add_argument("--n", required=True, type=int)
    sp.add_argument("--r", required=True, type=int)
    sp.add_argument("--basis", choices=["chern", "schur", "alpha"], default="chern")
    sp.add_argument("--format", choices=["text", "json", "latex"], default="text")

    sp = sub.add_parser("ktheory", help="K-theoretic Phi / motivic Segre class (skew family)")
    sp.add_argument("--n", required=True, type=int)
    sp.add_argument("--r", required=True, type=int)
    sp.add_argument("--class", dest="klass", choices=["phi", "segre"], default="segre")
    sp.add_argument("--q-convention", dest="q_convention",
                    choices=["minus-y", "symbolic"], default="minus-y")
    sp.add_argument("--format", choices=["text", "json", "latex"], default="text")

    sp = sub.add_parser("verify", help="run an invariant suite")
    sp.add_argument("--suite", required=True,
                    choices=["core", "axioms", "cross", "conjectures"])
    sp.add_argument("--max-n", dest="max_n", type=int, default=4)
    return p


def _require_trunc(args, why=None):
    """Reject a negative --trunc and, unless why is None, a missing one."""
    if args.trunc is None and why is not None:
        raise UsageError(f"--trunc is required {why} (truncation is always explicit)")
    if args.trunc is not None and args.trunc < 0:
        raise UsageError("--trunc must be non-negative")


def _emit_class(cls, fmt):
    if fmt == "json":
        print(json.dumps(emit.class_json_dict(cls), indent=2))
    elif fmt == "latex":
        print(emit.class_text(cls, latex=True))
        for w in cls.warnings:
            print(f"% warning: {w}", file=sys.stderr)
    else:
        print(emit.class_text(cls))
        for w in cls.warnings:
            print(f"warning: {w}", file=sys.stderr)


def _cmd_class(args):
    from .classes import schur_class, truncate_schur
    from .interp import csm_class, ssm_interp
    from .sieve import csm_sieve_schur, ssm_sieve
    orbit = OrbitId(args.family, args.n, args.r)
    if args.kind == "csm" and args.route == "interp":
        _require_trunc(args)
        cls = csm_class(orbit, closure=args.closure)
        if args.trunc is not None:
            cls.payload = truncate_schur(cls.payload, args.trunc)
            cls.trunc = args.trunc
    elif args.kind == "ssm" and args.route == "interp":
        _require_trunc(args, "for ssm output")
        cls = ssm_interp(orbit, args.trunc, closure=args.closure)
    elif args.kind == "ssm":
        _require_trunc(args, "for the sieve route")
        cls = ssm_sieve(orbit, args.trunc, closure=args.closure)
    else:
        _require_trunc(args, "for csm via the sieve route")
        csm = truncate_schur(csm_sieve_schur(orbit, closure=args.closure), args.trunc)
        cls = schur_class("csm", orbit, csm, trunc=args.trunc, closure=args.closure)
    _emit_class(cls.in_basis(args.basis), args.format)
    return 0


def _cmd_phi(args):
    from .catalog import phi_warnings
    from .sieve import phi_class
    orbit = OrbitId(args.family, args.n, args.r)
    _require_trunc(args, "for phi output")
    cls = phi_class(orbit, args.trunc)
    cls.warnings = phi_warnings(orbit.family, orbit.n, orbit.r,
                                cls.chern_poly() if orbit.n == 3 else None,
                                max_deg=args.trunc)
    _emit_class(cls.in_basis(args.basis), args.format)
    return 0


def _cmd_projective(args):
    from .projective import projectivize
    orbit = OrbitId(args.family, args.n, args.r)
    pc = projectivize(orbit, kind=args.kind, closure=args.closure)
    if args.format == "json":
        print(json.dumps({
            "family": str(orbit.family), "n": orbit.n, "r": orbit.r,
            "kind": pc.kind, "closure": pc.closure, "ambient": pc.ambient,
            "coeffs": [emit.coeff_str(c) for c in pc.coeffs],
            "warnings": [],
        }, indent=2))
    else:
        print(emit.poly_text(pc.poly(), latex=args.format == "latex"))
    return 0


def _cmd_table(args):
    from .projective import euler_char_table
    tab = euler_char_table(args.family, args.n, closure=args.closures)
    if args.format == "json":
        print(json.dumps({
            "family": str(as_family(args.family)), "n": args.n, "kind": "table",
            "closures": tab.closure, "coranks": tab.coranks,
            "columns": [f"chi(X_{i})" for i in range(len(tab.rows[0]))],
            "rows": tab.rows, "column_sums": tab.column_sums(),
            "warnings": [],
        }, indent=2))
    elif args.format == "latex":
        cols = len(tab.rows[0])
        print(r"\begin{tabular}{|c|" + "c|" * cols + "}")
        head = " & ".join([r"$X$"] + [rf"$\chi(X_{{{i}}})$" for i in range(cols)])
        print(head + r" \\ \hline")
        for r, row in zip(tab.coranks, tab.rows):
            print(" & ".join([f"$r={r}$"] + [str(v) for v in row]) + r" \\")
        print(r"\end{tabular}")
    else:
        for r, row in zip(tab.coranks, tab.rows):
            print(f"r={r}: " + " ".join(f"{v:>6}" for v in row))
        print("sum: " + " ".join(f"{v:>6}" for v in tab.column_sums()))
    return 0


def _cmd_invariants(args):
    from .projective import closed_invariants, derived_invariants
    orbit = OrbitId(args.family, args.n, args.r)
    ci = closed_invariants(orbit)
    di = derived_invariants(orbit)
    agree = (ci.codim, ci.degree, ci.euler_char) == (di.codim, di.degree, di.euler_char)
    doc = {
        "family": str(orbit.family), "n": orbit.n, "r": orbit.r,
        "codim": ci.codim, "degree": ci.degree, "euler_char": ci.euler_char,
        "derived": {"codim": di.codim, "degree": di.degree,
                    "euler_char": di.euler_char},
        "closed_formulas_agree_with_classes": agree,
        "warnings": [] if agree else ["closed formulas disagree with class-derived values"],
    }
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    else:
        print(f"{orbit}: codim {ci.codim}, degree {ci.degree}, chi {ci.euler_char}"
              f" (class-derived: {di.codim}, {di.degree}, {di.euler_char};"
              f" {'agree' if agree else 'DISAGREE'})")
    return 0 if agree else 2


def _cmd_mather(args):
    from .mather import chern_mather_wedge, euler_obstruction_wedge
    cls = chern_mather_wedge(args.n, args.r)
    coeffs = euler_obstruction_wedge(args.n, args.r)
    if args.format == "json":
        doc = emit.class_json_dict(cls.in_basis(args.basis))
        doc["euler_obstruction"] = coeffs
        print(json.dumps(doc, indent=2))
    else:
        print(f"Euler obstruction multiplicities on suborbits: {coeffs}")
        print(emit.class_text(cls.in_basis(args.basis), latex=args.format == "latex"))
    return 0


def _cmd_ktheory(args):
    from .ktheory import motivic_segre_sieve, phi_wedge_k
    if args.klass == "phi":
        mc = phi_wedge_k(args.n, args.r)
    else:
        mc = motivic_segre_sieve(args.n, args.r, q_convention=args.q_convention)
    frac = mc.value
    if args.format == "json":
        doc = {
            "family": "wedge", "n": args.n, "r": args.r, "kind": f"motivic-{mc.kind}",
            "q_convention": mc.q_convention,
            "vars": list(frac.vars),
            "numerator": [{"key": list(e), "coeff": emit.coeff_str(c)}
                          for e, c in emit.sorted_terms(frac.num)],
            "denominator": [{"key": list(e), "coeff": emit.coeff_str(c)}
                            for e, c in emit.sorted_terms(frac.den)],
            "warnings": list(mc.notes),
        }
        print(json.dumps(doc, indent=2))
    else:
        latex = args.format == "latex"
        if latex:
            print(rf"\frac{{{emit.poly_text(frac.num, latex=True)}}}"
                  rf"{{{emit.poly_text(frac.den, latex=True)}}}")
        else:
            print(f"({emit.poly_text(frac.num)}) / ({emit.poly_text(frac.den)})")
        for w in mc.notes:
            print(f"note: {w}", file=sys.stderr)
    return 0


def _cmd_verify(args):
    from .verify import SUITES
    if args.max_n < 1:
        raise UsageError(f"--max-n must be >= 1, got {args.max_n}")
    ok, lines = SUITES[args.suite](args.max_n)
    for line in lines:
        print(line)
    print(f"suite {args.suite}: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 2


_COMMANDS = {
    "class": _cmd_class,
    "phi": _cmd_phi,
    "projective": _cmd_projective,
    "table": _cmd_table,
    "invariants": _cmd_invariants,
    "mather": _cmd_mather,
    "ktheory": _cmd_ktheory,
    "verify": _cmd_verify,
}


def run(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit as ex:  # --help: argparse has printed the usage
        return ex.code
    except UsageError as ex:
        print(f"usage error: {ex}", file=sys.stderr)
        return 1
    except ValueError as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
