"""Command-line front end.

Exit codes: 0 success, 1 usage error, 2 domain error, 3 resource cap
exceeded, 4 internal cross-check failure or any other internal error.
A reader that closes stdout early (`nsq gaps ... | head`) is not an
error: the command stops writing and exits 0.
Non-coprime constant-term instances fall back to the series path with a
warning and exit 0.
"""
from __future__ import annotations

# Each command pays for its own imports: every runner imports the nsq
# modules it uses, so `frobenius` never loads the rational-function kernel,
# and `main` builds the parser of the one subcommand it runs.  Only
# UsageError, raised here at the boundary, exits 1; a ValueError from
# inside the library is a bug and exits 4.
import argparse
import os
import sys

from .errors import CapExceeded, InternalMismatch, NonCoprimeFactors, NsqError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _emit(payload: dict, fmt: str, text: str):
    if fmt == "json":
        import json

        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def _ints_line(values) -> str:
    return " ".join(str(v) for v in values)


def _display_terms(f):
    """The nonzero (exp, coef) pairs of f's numerator and denominator,
    both negated when the denominator's lowest term is negative."""
    num = [(e, c) for e, c in enumerate(f.num.coeffs) if c]
    den = [(e, c) for e, c in enumerate(f.den.coeffs) if c]
    if den[0][1] < 0:
        num = [(e, -c) for e, c in num]
        den = [(e, -c) for e, c in den]
    return num, den


def _emit_ct(f, fmt: str, expr: str | None = None):
    """Print the CT result f, after the rendered `expr` where one is
    given, building only the form fmt asks for."""
    num, den = _display_terms(f)
    if fmt == "json":
        ct = {"num": {str(e): str(c) for e, c in num},
              "den": {str(e): str(c) for e, c in den}}
        _emit({"ct": ct} if expr is None else {"expr": expr, "ct": ct},
              fmt, None)
    else:
        from .rgf import format_poly

        text = f"({format_poly(num)})/({format_poly(den)})"
        _emit(None, fmt, text if expr is None else f"{expr}\nCT = {text}")


def _env_cap(name: str, default: int) -> int:
    try:
        return int(os.environ.get(name, default))
    except ValueError as exc:
        raise UsageError(exc) from None


def _sieve_cap(args) -> int:
    if args.sieve_cap is not None:
        return args.sieve_cap
    from .semigroup import DEFAULT_SIEVE_CAP

    return _env_cap("NSQ_SIEVE_CAP", DEFAULT_SIEVE_CAP)


def _tp_cap(args) -> int:
    if args.tp_cap is not None:
        return args.tp_cap
    from .quotient import DEFAULT_TP_CAP

    return _env_cap("NSQ_TP_CAP", DEFAULT_TP_CAP)


def _gens(args):
    """The --gens list, with --p checked too where the command takes one,
    before any library call; bad input is a usage error."""
    from .semigroup import GeneratorList

    try:
        A = GeneratorList.parse(args.gens)
    except ValueError as exc:
        raise UsageError(exc) from None
    if getattr(args, "p", 1) < 1:
        raise UsageError("p must be a positive integer")
    return A


def non_negative_int(text: str) -> int:
    """argparse type for bounds, truncations and caps; a negative value
    is a usage error."""
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(
            f"expected a non-negative integer, got {n}")
    return n


def _add_caps(p, *flags):
    """The cap flags a command charges: --sieve-cap, --tp-cap or both."""
    for flag in flags:
        p.add_argument(flag, type=non_negative_int, default=None)


def _add_common(p, need_p=False, caps=("--sieve-cap",)):
    p.add_argument("--gens", required=True, help="comma-separated generators")
    if need_p:
        p.add_argument("--p", type=int, required=True)
    p.add_argument("--format", choices=("text", "json"), default="text")
    _add_caps(p, *caps)


def _membership_args(p):
    _add_common(p)
    p.add_argument("--bound", type=non_negative_int, default=None)


def _apery_args(p):
    _add_common(p)
    p.add_argument("--m", type=int, required=True)


def _denumerant_args(p):
    _add_common(p)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--trunc", type=non_negative_int, default=None)


def _quotient_args(p):
    p.add_argument("action", choices=("gens", "minimal", "membership",
                                      "frobenius", "table1"))
    _add_common(p, need_p=True, caps=("--sieve-cap", "--tp-cap"))
    p.add_argument("--bound", type=non_negative_int, default=None)


def _tp_args(p):
    _add_common(p, need_p=True, caps=("--tp-cap",))


def _verify_args(p):
    _add_common(p, need_p=True, caps=("--sieve-cap", "--tp-cap"))


def _rgf_args(p):
    p.add_argument("action", choices=("series", "rational", "frobenius", "gens"))
    _add_common(p, need_p=True)
    p.add_argument("--trunc", type=non_negative_int, default=20)
    p.add_argument("--verify", action="store_true")


def _ct_args(p):
    p.add_argument("--gens", default=None)
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--expr", default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    _add_caps(p, "--sieve-cap")
    p.add_argument("--verify", action="store_true")


def _run_membership(args):
    from . import semigroup

    A = _gens(args)
    t = semigroup.build_membership(A, B=args.bound, cap=_sieve_cap(args))
    members = t.members()
    _emit({"bound": t.bound, "certified": t.certified, "members": members},
          args.format, _ints_line(members))
    return EXIT_OK


def _run_frobenius(args):
    from . import semigroup

    A = _gens(args)
    f = semigroup.frobenius(A, cap=_sieve_cap(args))
    _emit({"frobenius": f}, args.format, "NONE" if f is None else str(f))
    return EXIT_OK


def _run_gaps(args):
    from . import semigroup

    A = _gens(args)
    g = semigroup.gaps(A, cap=_sieve_cap(args))
    _emit({"gaps": g}, args.format, _ints_line(g))
    return EXIT_OK


def _run_apery(args):
    from . import semigroup

    A = _gens(args)
    ap = semigroup.apery(A, args.m, cap=_sieve_cap(args))
    _emit({"m": args.m, "apery": ap}, args.format, _ints_line(ap))
    return EXIT_OK


def _run_minimal(args):
    from . import semigroup

    A = _gens(args)
    mg = semigroup.minimal_generators(A, cap=_sieve_cap(args))
    _emit({"minimal_generators": mg}, args.format, _ints_line(mg))
    return EXIT_OK


def _run_denumerant(args):
    from . import semigroup

    A = _gens(args)
    sieve = _sieve_cap(args)
    if args.trunc is not None:
        s = semigroup.denumerant_series(A, args.trunc, cap=sieve)
        _emit({"series": list(s.coeffs)}, args.format, _ints_line(s.coeffs))
    else:
        if args.n is None:
            raise UsageError("denumerant needs --n or --trunc")
        d = semigroup.denumerant(args.n, A, cap=sieve)
        _emit({"n": args.n, "denumerant": d}, args.format, str(d))
    return EXIT_OK


def _run_quotient(args):
    from . import quotient

    A = _gens(args)
    q = quotient.QuotientSpec(A, args.p)
    if args.action == "gens":
        g = quotient.generators_thm(q, cap=_tp_cap(args))
        _emit({"generators": g}, args.format, _ints_line(g))
    elif args.action == "minimal":
        g = quotient.minimal_quotient_generators(q, cap=_sieve_cap(args))
        _emit({"minimal_generators": g}, args.format, _ints_line(g))
    elif args.action == "membership":
        if args.bound is None:
            raise UsageError("quotient membership needs --bound")
        t = quotient.quotient_membership(q, args.bound, cap=_sieve_cap(args))
        members = t.members()
        _emit({"bound": t.bound, "members": members}, args.format,
              _ints_line(members))
    elif args.action == "frobenius":
        f = quotient.frobenius_quotient(q, cap=_sieve_cap(args))
        _emit({"frobenius": f}, args.format, "NONE" if f is None else str(f))
    else:
        g = quotient.table1_generators(q, cap=_tp_cap(args))
        _emit({"generators": g}, args.format, _ints_line(g))
    return EXIT_OK


def _run_tp(args):
    from . import quotient

    A = _gens(args)
    q = quotient.QuotientSpec(A, args.p)
    ts = quotient.enumerate_Tp(q, cap=_tp_cap(args))
    rows = [f"({','.join(map(str, x))}) -> {v}"
            for x, v in zip(ts.tuples, ts.values)]
    _emit({"p": ts.p, "gens": list(ts.gens),
           "tuples": [list(x) for x in ts.tuples], "values": list(ts.values)},
          args.format, "\n".join(rows) if rows else "(empty)")
    return EXIT_OK


def _run_rgf(args):
    from . import rgf

    A = _gens(args)
    sieve = _sieve_cap(args)
    if args.action == "series":
        s = rgf.rgf_series(A, args.p, args.trunc, cap=sieve)
        _emit({"series": list(s.coeffs)}, args.format, _ints_line(s.coeffs))
        return EXIT_OK
    if args.action == "frobenius":
        f = rgf.frobenius_from_rgf(A, args.p, cap=sieve)
        _emit({"frobenius": f}, args.format, "NONE" if f is None else str(f))
        return EXIT_OK
    r = rgf.rgf_rational(A, args.p, cap=sieve)
    if args.verify:
        n = r.certified_to
        # the series oracle checks the cap before the expansion runs
        oracle = rgf.rgf_series(A, args.p, n, cap=sieve)
        if r.taylor(n) != oracle.coeffs:
            print("verify: closed form disagrees with series", file=sys.stderr)
            return EXIT_INTERNAL
    if args.action == "gens":
        g = rgf.gens_from_rgf(r, A, args.p)
        _emit({"generators": g}, args.format, _ints_line(g))
    else:
        _emit(rgf.to_json_dict(r), args.format, rgf.render_text(r))
    return EXIT_OK


def _run_ct(args):
    from . import ctengine

    if args.expr is not None:
        try:
            expr = ctengine.parse_elliott(args.expr)
        except ValueError as exc:
            raise UsageError(exc) from None
        f = ctengine.ct_constant_term(expr, cap=_sieve_cap(args))
        _emit_ct(f, args.format, ctengine.render_elliott(expr))
        return EXIT_OK
    if args.gens is None or args.p is None:
        raise UsageError("ct needs --expr or both --gens and --p")
    from . import rgf

    A = _gens(args)
    try:
        f = ctengine.ct_rgf_rational(A, args.p, cap=_sieve_cap(args))
    except NonCoprimeFactors:
        print("warning: CT path unavailable; series path used", file=sys.stderr)
        r = rgf.rgf_rational(A, args.p, cap=_sieve_cap(args))
        _emit(rgf.to_json_dict(r), args.format, rgf.render_text(r))
        return EXIT_OK
    if args.verify:
        from .exactalg import RationalFunction

        # the printed normal form against the closed form's numerator over
        # its atoms 1 - x^b: equality cross-multiplies integer numerators,
        # and the check needs no F(A) horizon, so no sieve
        r = rgf._closed_form(A, args.p, _sieve_cap(args)).to_rational()
        if RationalFunction(f.num, f.den) != r:
            print("verify: CT path disagrees with series path", file=sys.stderr)
            return EXIT_INTERNAL
    _emit_ct(f, args.format)
    return EXIT_OK


def _run_verify(args):
    from . import quotient

    A = _gens(args)
    q = quotient.QuotientSpec(A, args.p)
    report = quotient.verify_generators(q, cap=_sieve_cap(args),
                                        tp_cap=_tp_cap(args))
    ok = report.ok
    lines = [f"generators: {_ints_line(report.generators)}",
             f"bound: {report.bound}",
             f"result: {'pass' if ok else 'fail'}"]
    _emit({"ok": ok, "bound": report.bound,
           "generators": list(report.generators),
           "mismatches": list(report.mismatches)},
          args.format, "\n".join(lines))
    return EXIT_OK if ok else EXIT_INTERNAL


# name -> (adds the subcommand's arguments, runs it), in `nsq --help` order
_COMMANDS = {
    "membership": (_membership_args, _run_membership),
    "frobenius": (_add_common, _run_frobenius),
    "gaps": (_add_common, _run_gaps),
    "minimal-gens": (_add_common, _run_minimal),
    "apery": (_apery_args, _run_apery),
    "denumerant": (_denumerant_args, _run_denumerant),
    "quotient": (_quotient_args, _run_quotient),
    "tp": (_tp_args, _run_tp),
    "rgf": (_rgf_args, _run_rgf),
    "ct": (_ct_args, _run_ct),
    "verify": (_verify_args, _run_verify),
}


def build_parser() -> _Parser:
    ap = _Parser(prog="nsq", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)
    for name, (add_args, _) in _COMMANDS.items():
        add_args(sub.add_parser(name))
    return ap


def _parse(argv):
    """(runner, args).  A known subcommand builds only its own parser,
    the one `build_parser` adds as `nsq <cmd>`, so its help and errors
    read the same; help, no command or an unknown one take the full
    parser."""
    if argv and argv[0] in _COMMANDS:
        add_args, run = _COMMANDS[argv[0]]
        parser = _Parser(prog=f"nsq {argv[0]}")
        add_args(parser)
        return run, parser.parse_args(argv[1:])
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.cmd][1], args


def main(argv=None) -> int:
    try:
        run, args = _parse(sys.argv[1:] if argv is None else list(argv))
        return run(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except InternalMismatch as exc:
        print(f"internal cross-check failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except NsqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except BrokenPipeError:
        # the reader has gone; the exit flush of stdout goes to devnull
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        return EXIT_OK
    except Exception as exc:  # a bug: one line, never a traceback
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
