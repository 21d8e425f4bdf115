"""Command-line front end.

Subcommands: classify, class, pair, solve-thetanull, counts, verify.
Exit codes: 0 on success, 1 when a verification fails, 2 on usage or
input errors, 141 when the reader of stdout closes it early. All numbers
print as exact "p/q" strings; there is no floating point anywhere in the
output.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from pathlib import Path

from . import catalog, kodaira, testcurves, transfer, verify
from .errors import InputError, SpinPicError
from .picard import MAX_GENUS, M_SIDE, S_SIDE, GenusCtx, _ratios, labels_for, parse_class, render_class

# Each builder looks its function up on catalog at call time, so that a
# patched or traced catalog function is the one that runs.
_NAMED_CLASSES = {
    "canonical-m": lambda ctx: catalog.canonical_m(ctx),
    "canonical-s": lambda ctx: catalog.canonical_s(ctx),
    "thetanull": lambda ctx: catalog.thetanull_class(ctx),
    "bn": lambda ctx: catalog.bn_class(ctx)[0],
    "m1": lambda ctx: catalog.m1_theta_class(ctx),
    "D": lambda ctx: catalog.divisor_class(catalog.choose_d(ctx)),
}


def _cmd_classify(args) -> int:
    if args.genus is not None:
        if args.start is not None or args.end is not None:
            raise ValueError("-g and --from/--to are mutually exclusive")
        ctx = GenusCtx(args.genus)
        user = None if args.divisor_file is None else catalog.load_divisor_spec(Path(args.divisor_file), ctx)
        certs = [kodaira.classify(ctx, user)]
        dump = verify.report_json
    else:
        if args.start is None or args.end is None or args.start > args.end:
            raise ValueError("classify needs -g N, or --from A --to B with A <= B")
        if args.divisor_file is not None:
            raise ValueError("--divisor-file needs -g")
        certs = (kodaira.classify(GenusCtx(g)) for g in range(args.start, args.end + 1))
        dump = functools.partial(json.dumps, sort_keys=True)  # one line per genus (JSONL)
    for cert in certs:
        if args.json:
            print(dump(kodaira.certificate_json(cert)))
        else:
            _print_certificate(cert)
    return 0


def _print_certificate(cert: kodaira.KodairaCertificate) -> None:
    print(f"genus {cert.ctx.g}: {cert.verdict}")
    if cert.rk is not None:
        print(f"  R . K = {cert.rk}")
    dec = cert.decomposition
    if dec is not None:
        print(f"  nu = {dec.nu}")
        print(f"  divisor D: {catalog.provenance_name(dec.d_spec.provenance)}, "
              f"slope a/b0 = {dec.d_spec.slope}")
        if dec.conditional:
            print("  remainders: CONDITIONAL (no boundary coefficients supplied)")
        else:
            doc = kodaira.certificate_json(cert)
            print(f"  remainders c  = ({', '.join(doc['c'])})")
            print(f"  remainders c' = ({', '.join(doc['c_prime'])})")
    print(f"  flags: {', '.join(cert.flags) if cert.flags else '(none)'}")
    for note in cert.annotations:
        print(f"  note: {note}")
    for hyp in cert.citations:
        print(f"  uses: {hyp}")


def _cmd_class(args) -> int:
    print(render_class(_NAMED_CLASSES[args.name](GenusCtx(args.genus))))
    return 0


def _cmd_pair(args) -> int:
    ctx = GenusCtx(args.genus)
    curves = testcurves.curve_map(ctx)
    if args.dump:
        if args.curve is not None or args.classexpr is not None:
            raise InputError("pair --dump takes no CURVE or CLASSEXPR")
        # a curve stores its nonzero entries only, so every other cell is "0"; a row keeps the zero row's sorted keys
        zero = {side: dict.fromkeys(sorted(labels_for(ctx, side)), "0") for side in (M_SIDE, S_SIDE)}
        table = {}
        for name, c in curves.items():
            row = table[name] = dict(zero[c.side])
            row.update(zip(c.num, _ratios(c.num.values(), c.den)))
        print(verify.report_json(table))
        return 0
    if args.curve is None or args.classexpr is None:
        raise InputError("pair needs CURVE and CLASSEXPR (or --dump)")
    token = args.curve
    if token not in curves:
        raise InputError(
            f"unknown curve {token!r} at genus {ctx.g} (available: {', '.join(curves)})"
        )
    curve = curves[token]
    if args.classexpr in _NAMED_CLASSES:
        cls = _NAMED_CLASSES[args.classexpr](ctx)
    else:
        cls = parse_class(args.classexpr, ctx, curve.side)
    print(testcurves.intersect(curve, cls))
    return 0


def _cmd_solve_thetanull(args) -> int:
    ctx = GenusCtx(args.genus)
    steps: list[str] = []
    solved = testcurves.solve_thetanull(ctx, steps.append)
    print(f"genus {ctx.g}: theta-null from pi_*theta = m1 and the test pencils, one coefficient per relation")
    print("\n".join(steps))
    closed = catalog.thetanull_class(ctx)
    print(f"solved class: {render_class(solved)}")
    print(f"closed form:  {render_class(closed)}")
    if solved == closed:
        print("MATCH")
        return 0
    print("MISMATCH")
    return 1


def _cmd_counts(args) -> int:
    ctx = GenusCtx(args.genus)
    g, degree = ctx.g, transfer._degree
    print(f"genus {g}: covering of total degree {transfer.total_degree(g)}")
    print(f"  even component degree {transfer.even_component_degree(g)}")
    print(f"  odd component degree  {transfer.odd_component_degree(g)}")
    for i in range(ctx.h + 1):
        print(f"  deg(A{i}/d{i}) = {degree(g, 'a', i)}")
        print(f"  deg(B{i}/d{i}) = {degree(g, 'b', i)}")
    identities = transfer.degree_identities(ctx)
    for name, lhs, rhs in identities:
        print(f"  identity {name}: {lhs} == {rhs}  {'ok' if lhs == rhs else 'FAIL'}")
    return 0 if all(lhs == rhs for _, lhs, rhs in identities) else 1


# A verify run that has gone on this long prints a progress line on stderr, and then at most one per interval.
_PROGRESS_NS = 5 * 10**9
_clock = time.monotonic_ns  # int nanoseconds, so the progress arithmetic stays in integers


def _progress(start: int, end: int):
    """build_report's per-genus hook for a verify run over [start, end]: one clock read per genus.

    The time left is the time so far scaled by the genera left over the
    genera done, each weighted by g, since a genus takes time about in
    proportion to g (README gives build_report's cost at g = 250..1000).
    """
    t0 = _clock()
    due = t0 + _PROGRESS_NS

    def on_genus(g: int, total: int) -> None:
        nonlocal due
        if (now := _clock()) < due:
            return
        due = now + _PROGRESS_NS
        done, left = (start + g) * (g - start + 1), (g + 1 + end) * (end - g)  # twice each sum of g
        elapsed = now - t0
        print(f"verify {start}..{end}: genus {g}, {total} checks so far, {elapsed // 10**9} s elapsed, "
              f"about {elapsed * left // done // 10**9} s left", file=sys.stderr, flush=True)

    return on_genus


def _cmd_verify(args) -> int:
    report = verify.build_report(args.start, args.end, _on_genus=_progress(args.start, args.end))
    if args.json:
        print(verify.report_json(report))
    else:
        for entry in report["payload"]["genera"]:
            status = "ok" if entry["failed"] == 0 else f"FAIL({entry['failed']})"
            print(f"genus {entry['genus']}: {entry['checks']} checks  {status}")
        for failure in report["failures"]:
            print(
                f"  FAIL {failure['check-name']} at genus {failure['genus']}: "
                f"expected {failure['expected']}, got {failure['got']}"
            )
        total = report["payload"]["total-checks"]
        print(f"verify {args.start}..{args.end}: {report['status']} "
              f"({total} checks, {len(report['failures'])} failures)")
    return 0 if report["status"] == "OK" else 1


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each subcommand's parser by name, built once per process and shared by every run."""
    parser = argparse.ArgumentParser(
        prog="spinpic",
        description="Exact-rational divisor-class calculus on the moduli spaces of "
                    "curves and even spin curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_genus(p: argparse.ArgumentParser, least: int = 3) -> None:
        p.add_argument("-g", "--genus", type=int, required=True, help=f"genus (>= {least})")

    p = sub.add_parser("classify", help="emit the Kodaira-type certificate for one genus or a range")
    p.add_argument("-g", "--genus", type=int, help="genus (>= 3)")
    p.add_argument("--from", dest="start", type=int, help="first genus of a range (with --to)")
    p.add_argument("--to", dest="end", type=int, help="last genus of a range (with --from)")
    p.add_argument("--divisor-file", help="JSON file with a user-supplied divisor spec (with -g)")
    p.add_argument("--json", action="store_true",
                   help="print the certificate as JSON; a range prints one line per genus")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("class", help="print a named divisor class")
    p.add_argument("name", choices=_NAMED_CLASSES)
    add_genus(p)
    p.set_defaults(func=_cmd_class)

    p = sub.add_parser("pair", help="pair a test curve with a class")
    p.add_argument("curve", nargs="?", help="B, R, F0, G0, H0, or Fi/Gi as F3, G2, ...")
    p.add_argument("classexpr", nargs="?",
                   help="named class or class expression, e.g. '1/4*lambda - 1/16*a0'")
    add_genus(p)
    p.add_argument("--dump", action="store_true", help="print the full curve table as JSON")
    p.set_defaults(func=_cmd_pair)

    p = sub.add_parser("solve-thetanull",
                       help="re-derive the theta-null class from the pencil relations")
    add_genus(p)
    p.set_defaults(func=_cmd_solve_thetanull)

    p = sub.add_parser("counts", help="print the spin-structure counts and their identities")
    add_genus(p, least=2)  # counts reads only the covering degrees, which GenusCtx takes from g = 2
    p.set_defaults(func=_cmd_counts)

    p = sub.add_parser("verify", help="run the full per-genus verification suite")
    p.add_argument("--from", dest="start", type=int, default=3, help="first genus (default 3)")
    p.add_argument("--to", dest="end", type=int, default=kodaira.MAX_TABULATED_GENUS,
                   help=f"last genus (default {kodaira.MAX_TABULATED_GENUS})")
    p.add_argument("--json", action="store_true", help="print the machine-readable report")
    p.set_defaults(func=_cmd_verify)

    return parser, sub.choices


def run(argv: list[str] | None = None) -> int:
    parser, commands = _parsers()
    argv = sys.argv[1:] if argv is None else argv
    try:
        if argv and argv[0] in commands:
            # the top-level parser would scan argv whole, only to hand argv[1:] to this parser
            args, extra = commands[argv[0]].parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        else:
            args, extra = parser.parse_known_args(argv)
        # argparse takes a class expression with a leading '-', such as
        # -1/2*lambda, for an unknown option, and leaves it over also after
        # "--"; pair takes it back as CLASSEXPR. A "--" with nothing after
        # it leaves CLASSEXPR missing, as _cmd_pair reports.
        if args.command == "pair" and args.curve is not None and args.classexpr is None and (
                len(extra) == 1 or len(extra) == 2 and extra[0] == "--"):
            args.classexpr, extra = None if extra == ["--"] else extra[-1], []
        if extra:
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # picard.MAX_GENUS bounds every genus (README gives the cost near it); a range is refused before any work
        for value in (getattr(args, name, None) for name in ("genus", "start", "end")):
            if value is not None and value > MAX_GENUS:
                raise ValueError(f"genus {value} is above the maximum {MAX_GENUS}")
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SpinPicError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early. As Python's signal documentation
        # advises, point stdout at devnull so that the flush at interpreter
        # exit cannot raise again, and exit as a SIGPIPE kill would report.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 128 + 13  # SIGPIPE
    sys.exit(code)


if __name__ == "__main__":
    main()
