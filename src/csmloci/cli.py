"""Command-line interface.

Subcommands: class, phi, projective, table, invariants, mather, ktheory,
verify.  Output formats: text (default), json, latex.  Exit status 0 on
success and after --help, 1 on a usage error (the offending parameter is
named), 2 on a verification failure.

Each command returns its response, (exit code, stdout text, stderr text),
and `run` writes it.  A long class text or JSON document stays a tuple of
the blocks emit joined it in, so a response holds its text once.  Classes come in Schur form
and emit writes them in the basis asked for: the alpha basis from the
monomial coefficients, never as a polynomial.  Every JSON document goes
through emit.json_text.  A response is a function of the argument list
alone, so `run` answers a repeated argument list from one cache of
responses, keyed by the list as given, refusals included; `verify` re-runs
on every call.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from functools import lru_cache

from . import emit
from .orbits import Family, OrbitId, as_family


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
    sp.add_argument("--max-n", dest="max_n", type=int, default=4,
                    help="largest n to check (default 4); the core suite ignores it")
    return p


def _require_trunc(args, why=None):
    """Reject a negative --trunc and, unless why is None, a missing one."""
    if args.trunc is None and why is not None:
        raise UsageError(f"--trunc is required {why} (truncation is always explicit)")
    if args.trunc is not None and args.trunc < 0:
        raise UsageError("--trunc must be non-negative")


def _lines(*lines):
    """The text that printing each line in turn writes.  A line is a string
    or a list of pieces (emit.class_text, emit.json_text); the text is one
    string, or the tuple of its pieces when a line has several, so that a
    long text is never copied into one string."""
    pieces, whole = [], True
    for line in lines:
        if isinstance(line, str):
            pieces.append(line)
        else:
            pieces += line
            whole &= len(line) == 1
        pieces.append("\n")
    return "".join(pieces) if whole else tuple(pieces)


def _emit_class(cls, basis, fmt):
    """The response that writes the Schur-form class cls in basis."""
    if fmt == "json":
        return 0, _lines(emit.json_text(emit.class_json_dict(cls, basis))), ""
    latex = fmt == "latex"
    tag = "% warning" if latex else "warning"
    return (0, _lines(emit.class_text(cls, basis, latex=latex)),
            _lines(*(f"{tag}: {w}" for w in cls.warnings)))


def _cmd_class(args):
    from .classes import schur_class
    from .interp import csm_class, ssm_interp
    from .sieve import csm_sieve_schur, ssm_sieve
    orbit = OrbitId(args.family, args.n, args.r)
    if args.kind == "csm" and args.route == "interp":
        _require_trunc(args)
        coeffs = csm_class(orbit, closure=args.closure).payload
    elif args.kind == "ssm" and args.route == "interp":
        _require_trunc(args, "for ssm output")
        coeffs = ssm_interp(orbit, args.trunc, closure=args.closure).payload
    elif args.kind == "ssm":
        _require_trunc(args, "for the sieve route")
        coeffs = ssm_sieve(orbit, args.trunc, closure=args.closure).payload
    else:
        _require_trunc(args, "for csm via the sieve route")
        coeffs = csm_sieve_schur(orbit, closure=args.closure)
    cls = schur_class(args.kind, orbit, coeffs, trunc=args.trunc, closure=args.closure)
    return _emit_class(cls, args.basis, args.format)


def _cmd_phi(args):
    from .sieve import phi_class
    orbit = OrbitId(args.family, args.n, args.r)
    _require_trunc(args, "for phi output")
    cls = phi_class(orbit, args.trunc)
    if orbit.family is Family.WEDGE and orbit.n == 3:
        from .catalog import compare_phi_wedge_3
        cls = replace(cls, warnings=compare_phi_wedge_3(orbit.r, cls.chern_poly(),
                                                        max_deg=args.trunc))
    return _emit_class(cls, args.basis, args.format)


def _cmd_projective(args):
    from .projective import projectivize
    orbit = OrbitId(args.family, args.n, args.r)
    pc = projectivize(orbit, kind=args.kind, closure=args.closure)
    if args.format == "json":
        out = emit.json_text({
            "family": str(orbit.family), "n": orbit.n, "r": orbit.r,
            "kind": pc.kind, "closure": pc.closure, "ambient": pc.ambient,
            "coeffs": [emit.coeff_str(c) for c in pc.coeffs],
            "warnings": [],
        })
    else:
        out = emit.poly_text(pc.poly(), latex=args.format == "latex")
    return 0, _lines(out), ""


def _cmd_table(args):
    from .projective import euler_char_table
    tab = euler_char_table(args.family, args.n, closure=args.closures)
    if args.format == "json":
        lines = [emit.json_text({
            "family": str(as_family(args.family)), "n": args.n, "kind": "table",
            "closures": tab.closure, "coranks": tab.coranks,
            "columns": [f"chi(X_{i})" for i in range(len(tab.rows[0]))],
            "rows": tab.rows, "column_sums": tab.column_sums(),
            "warnings": [],
        })]
    elif args.format == "latex":
        cols = len(tab.rows[0])
        head = " & ".join([r"$X$"] + [rf"$\chi(X_{{{i}}})$" for i in range(cols)])
        lines = [r"\begin{tabular}{|c|" + "c|" * cols + "}", head + r" \\ \hline"]
        lines += [" & ".join([f"$r={r}$"] + [str(v) for v in row]) + r" \\"
                  for r, row in zip(tab.coranks, tab.rows)]
        lines.append(r"\end{tabular}")
    else:
        lines = [f"r={r}: " + " ".join(f"{v:>6}" for v in row)
                 for r, row in zip(tab.coranks, tab.rows)]
        lines.append("sum: " + " ".join(f"{v:>6}" for v in tab.column_sums()))
    return 0, _lines(*lines), ""


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
        out = emit.json_text(doc)
    else:
        out = (f"{orbit}: codim {ci.codim}, degree {ci.degree}, chi {ci.euler_char}"
               f" (class-derived: {di.codim}, {di.degree}, {di.euler_char};"
               f" {'agree' if agree else 'DISAGREE'})")
    return (0 if agree else 2), _lines(out), ""


def _cmd_mather(args):
    from .mather import chern_mather_wedge, euler_obstruction_wedge
    cls = chern_mather_wedge(args.n, args.r)
    coeffs = euler_obstruction_wedge(args.n, args.r)
    if args.format == "json":
        doc = emit.class_json_dict(cls, args.basis)
        doc["euler_obstruction"] = coeffs
        return 0, _lines(emit.json_text(doc)), ""
    return 0, _lines(f"Euler obstruction multiplicities on suborbits: {coeffs}",
                     emit.class_text(cls, args.basis, latex=args.format == "latex")), ""


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
            "numerator": emit.term_list(emit.sorted_terms(frac.num)),
            "denominator": emit.term_list(emit.sorted_terms(frac.den)),
            "warnings": list(mc.notes),
        }
        return 0, _lines(emit.json_text(doc)), ""
    if args.format == "latex":
        out = (rf"\frac{{{emit.poly_text(frac.num, latex=True)}}}"
               rf"{{{emit.poly_text(frac.den, latex=True)}}}")
    else:
        out = f"({emit.poly_text(frac.num)}) / ({emit.poly_text(frac.den)})"
    return 0, _lines(out), _lines(*(f"note: {w}" for w in mc.notes))


def _cmd_verify(args):
    from .verify import SUITES
    if args.max_n < 1:
        raise UsageError(f"--max-n must be >= 1, got {args.max_n}")
    ok, lines = SUITES[args.suite](args.max_n)
    return ((0 if ok else 2),
            _lines(*lines, f"suite {args.suite}: {'PASS' if ok else 'FAIL'}"), "")


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


@lru_cache(maxsize=None)
def _respond(argv):
    """The response (exit code, stdout text, stderr text) to the argument
    tuple argv.  --help raises SystemExit, after argparse has printed the
    usage, so it is never cached."""
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as ex:
        return 1, "", f"usage error: {ex}\n"
    except ValueError as ex:
        return 1, "", f"error: {ex}\n"


def run(argv=None):
    argv = tuple(sys.argv[1:] if argv is None else argv)
    # a verification re-runs its checks on every call; no option but -h can
    # come before the subcommand
    respond = _respond.__wrapped__ if argv[:1] == ("verify",) else _respond
    try:
        code, out, err = respond(argv)
    except SystemExit as ex:  # --help: argparse has printed the usage
        return ex.code
    if isinstance(out, str):
        sys.stdout.write(out)
    else:  # the pieces of a long text
        sys.stdout.writelines(out)
    sys.stderr.write(err)
    return code


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
