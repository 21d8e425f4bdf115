#!/usr/bin/env python3
"""Show that the benchmark's output checks catch wrong outputs.

Usage (from the root of a checkout): python3 bench/selfcheck.py

For each checker it takes one real output of the program, confirms the
checker accepts it, then feeds it one corrupted copy (a class coefficient
off by one, a flipped verdict, exit 0 on a malformed op, ...) and confirms
the checker rejects it. Exits 1 if any checker rejects a good output or
accepts a corrupted one.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import reference as ref  # noqa: E402
import workloads  # noqa: E402

from spinpic import verify  # noqa: E402


def cli(*argv: str):
    return workloads._cli_call(list(argv))()


def bump_first_number(text: str, after: str = "") -> str:
    """Add one to the first integer that follows `after`."""
    start = text.index(after) + len(after) if after else 0
    m = re.compile(r"\d+").search(text, start)
    return text[:m.start()] + str(int(m.group()) + 1) + text[m.end():]


def bump_h0_a1(dump: str) -> str:
    """The pair --dump table with the entry H0.a1 (which is 1) made 2."""
    table = json.loads(dump)
    table["H0"]["a1"] = str(ref.Q(table["H0"]["a1"]) + 1)
    return json.dumps(table, indent=2, sort_keys=True)


def cases():
    cert8 = json.dumps(json.loads(cli("classify", "-g", "11", "--json")[1]), sort_keys=True)
    yield ("certificate: remainder c_1 off by one", cert8,
           lambda s: ref.check_certificate_line(s, 11), lambda s: bump_first_number(s, '"c": ["'))
    cert30 = json.dumps(json.loads(cli("classify", "-g", "30", "--json")[1]), sort_keys=True)
    yield ("certificate: verdict flipped", cert30,
           lambda s: ref.check_certificate_line(s, 30), lambda s: s.replace("GENERAL_TYPE", "UNIRULED"))
    yield ("certificate: EXTRAPOLATED flag dropped", cert30,
           lambda s: ref.check_certificate_line(s, 30), lambda s: s.replace(', "EXTRAPOLATED"', ""))
    cert5 = json.dumps(json.loads(cli("classify", "-g", "5", "--json")[1]), sort_keys=True)
    yield ("certificate: R.K off by one", cert5,
           lambda s: ref.check_certificate_line(s, 5), lambda s: bump_first_number(s, '"rk": "-'))

    text9 = cli("classify", "-g", "9")[1]
    yield ("classify text: nu off by one", text9,
           lambda s: ref.check_certificate_text(s, ref.expected_certificate(9)),
           lambda s: bump_first_number(s, "nu = "))
    yield ("classify text: verdict flipped", text9,
           lambda s: ref.check_certificate_text(s, ref.expected_certificate(9)),
           lambda s: s.replace("GENERAL_TYPE", "KAPPA_NONNEGATIVE", 1))

    theta = cli("class", "thetanull", "-g", "6")[1]
    yield ("class: a coefficient off by one", theta,
           lambda s: ref.expect("class", ref.nonzero(ref.thetanull(6)), ref.read_class(s)),
           lambda s: s.replace("1/4*lambda", "5/4*lambda"))
    m1 = cli("class", "m1", "-g", "7")[1]
    yield ("class: m1 d0 coefficient off by one", m1,
           lambda s: ref.expect("class", ref.nonzero(ref.m1(7)), ref.read_class(s)),
           lambda s: bump_first_number(s, "- "))

    pair = cli("pair", "R", "canonical-s", "-g", "7")[1]
    want = ref.pairing(ref.curve_table(7)["R"][1], ref.canonical_s(7))
    yield ("pair: value off by one", pair,
           lambda s: ref.expect("pair", want, ref.Q(s.strip())), lambda s: bump_first_number(s))

    dump = cli("pair", "--dump", "-g", "8")[1]
    yield ("pair --dump: one curve entry off by one", dump,
           lambda s: ref.check_dump(s, 8), bump_h0_a1)

    solve = cli("solve-thetanull", "-g", "9")
    yield ("solve-thetanull: MISMATCH", solve[1],
           lambda s: ref.check_solve_text(s, 0, 9), lambda s: s.replace("MATCH", "MISMATCH"))
    yield ("solve-thetanull: solved class off by one", solve[1],
           lambda s: ref.check_solve_text(s, 0, 9), lambda s: bump_first_number(s, "solved class: "))

    counts = cli("counts", "-g", "6")[1]
    yield ("counts: a stratum degree off by one", counts,
           lambda s: ref.check_counts_text(s, 6), lambda s: bump_first_number(s, "deg(B2/d2) = "))

    report = verify.report_json(verify.build_report(3, 5))
    yield ("verify: total-checks off by one", report,
           lambda s: ref.check_verify_report(s, 3, 5), lambda s: bump_first_number(s, '"total-checks": '))
    yield ("verify: status FAIL", report,
           lambda s: ref.check_verify_report(s, 3, 5), lambda s: s.replace('"OK"', '"FAIL"'))
    yield ("verify: a genus missing", report,
           lambda s: ref.check_verify_report(s, 3, 5), lambda s: s.replace('"genus": 4', '"genus": 5'))
    yield ("verify: not byte-identical on re-serialisation", report,
           lambda s: ref.check_verify_report(s, 3, 5), lambda s: s.replace(": ", ":  ", 1))

    malformed = cli("pair", "R", "b0", "-g", "5")
    yield ("malformed: exit 0", malformed, workloads._check_malformed,
           lambda r: (0, "0\n", ""))
    yield ("malformed: exception escaped", malformed, workloads._check_malformed,
           lambda r: (TypeError("boom"), "", ""))
    yield ("malformed: traceback on stderr", malformed, workloads._check_malformed,
           lambda r: (2, "", "Traceback (most recent call last):\n"))


def main() -> int:
    bad = 0
    for name, output, check, corrupt in cases():
        try:
            check(output)
        except Exception as exc:  # report the checker's error and go on
            print(f"FAIL {name}: good output rejected ({exc})")
            bad += 1
            continue
        corrupted = corrupt(output)
        if corrupted == output:
            print(f"FAIL {name}: corruption left the output unchanged")
            bad += 1
            continue
        try:
            check(corrupted)
        except Exception as exc:
            print(f"ok   {name}: {type(exc).__name__}: {str(exc)[:100]}")
        else:
            print(f"FAIL {name}: corrupted output accepted")
            bad += 1
    print("selfcheck:", "all corruptions detected" if bad == 0 else f"{bad} problems")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
