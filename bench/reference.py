"""Independent reference values and output checks for the benchmark.

Every formula here is transcribed from the paper (Farkas, "The birational
type of the moduli space of even spin curves", arXiv 0805.2424) and the
classical results it cites. Nothing is imported from spinpic, so a
corrupted closed form in the program makes the op that exposes it fail.

A checker takes what an op produced and returns the number of values it
compared; it raises CheckError on the first mismatch.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction as Q

UNIRULED = "UNIRULED"
KAPPA_NONNEGATIVE = "KAPPA_NONNEGATIVE"
GENERAL_TYPE = "GENERAL_TYPE"
LAST_TABULATED_GENUS = 22


class CheckError(Exception):
    """An op's output disagrees with the reference."""


def expect(what: str, want, got) -> int:
    if want != got:
        raise CheckError(f"{what}: expected {want!r}, got {got!r}")
    return 1


def is_prime(n: int) -> bool:
    return n >= 2 and all(n % p for p in range(2, int(n**0.5) + 1))


# --- bases and classes --------------------------------------------------------


def m_basis(g: int) -> list[str]:
    return ["lambda"] + [f"d{i}" for i in range(g // 2 + 1)]


def s_basis(g: int) -> list[str]:
    out = ["lambda", "a0", "b0s"]
    for i in range(1, g // 2 + 1):
        out += [f"a{i}", f"b{i}"]
    return out


def thetanull(g: int) -> dict[str, Q]:
    """Theta-null class 1/4*lambda - 1/16*alpha0 - 1/2*sum(beta_i), i >= 1."""
    out = {"lambda": Q(1, 4), "a0": Q(-1, 16)}
    out.update({f"b{i}": Q(-1, 2) for i in range(1, g // 2 + 1)})
    return out


def m1(g: int) -> dict[str, Q]:
    """Pushforward of theta-null: the vanishing-theta-null locus on the curve side."""
    s = 2 ** (g - 3)
    out = {"lambda": Q(s * (2**g + 1)), "d0": Q(-s * 2 ** (g - 3))}
    out.update({f"d{i}": Q(-s * (2 ** (g - i) - 1) * (2**i - 1)) for i in range(1, g // 2 + 1)})
    return out


def canonical_m(g: int) -> dict[str, Q]:
    """13*lambda - 2*delta0 - 3*delta1 - 2*sum(delta_i), i >= 2."""
    out = {"lambda": Q(13), "d0": Q(-2), "d1": Q(-3)}
    out.update({f"d{i}": Q(-2) for i in range(2, g // 2 + 1)})
    return out


def canonical_s(g: int) -> dict[str, Q]:
    """13*lambda - 2*alpha0 - 3*beta0 - 3*(alpha1+beta1) - 2*sum(alpha_i+beta_i), i >= 2."""
    out = {"lambda": Q(13), "a0": Q(-2), "b0s": Q(-3), "a1": Q(-3), "b1": Q(-3)}
    for i in range(2, g // 2 + 1):
        out[f"a{i}"] = out[f"b{i}"] = Q(-2)
    return out


def brill_noether(g: int) -> dict[str, Q]:
    """Brill-Noether divisor (g+1 composite): (g+3)*lambda - (g+1)/6*delta0 - sum i(g-i)*delta_i."""
    out = {"lambda": Q(g + 3), "d0": -Q(g + 1, 6)}
    out.update({f"d{i}": Q(-i * (g - i)) for i in range(1, g // 2 + 1)})
    return out


NAMED_CLASSES = {
    "thetanull": ("S", thetanull),
    "m1": ("M", m1),
    "canonical-m": ("M", canonical_m),
    "canonical-s": ("S", canonical_s),
    "bn": ("M", brill_noether),
}


def curve_table(g: int) -> dict[str, tuple[str, dict[str, Q]]]:
    """The standard test curves as (side, nonzero intersection numbers)."""
    table = {
        "B": ("M", {"lambda": g + 1, "d0": 6 * g + 18}),
        "R": ("S", {
            "lambda": (g + 1) * 2 ** (g - 1) * (2**g + 1),
            "a0": (6 * g + 18) * 2 ** (2 * g - 2),
            "b0s": (6 * g + 18) * 2 ** (g - 2) * (2 ** (g - 1) + 1),
        }),
        "F0": ("S", {"lambda": 1, "a0": 12, "b1": -1}),
        "G0": ("S", {"lambda": 3, "a0": 12, "b0s": 12, "a1": -3}),
        "H0": ("S", {"b0s": 1 - g, "a1": 1}),
    }
    for i in range(1, g // 2 + 1):
        table[f"F{i}"] = ("S", {f"a{i}": 2 - 2 * i})
        table[f"G{i}"] = ("S", {f"b{i}": 2 - 2 * i})
    return {name: (side, {k: Q(v) for k, v in nums.items() if v}) for name, (side, nums) in table.items()}


def pairing(numbers: dict[str, Q], cls: dict[str, Q]) -> Q:
    return sum((v * cls.get(k, 0) for k, v in numbers.items()), Q(0))


def nonzero(cls: dict[str, Q]) -> dict[str, Q]:
    return {k: v for k, v in cls.items() if v != 0}


# --- the README class grammar, read independently -----------------------------

_UNICODE_HEADS = {"δ": "d", "α": "a", "β": "b"}
_TERM = re.compile(r"\s*([+-]?)\s*(?:(\d+)(?:/(\d+))?\*)?(lambda|λ|[dab]\d+s?|[δαβ]\d+)\s*")


def read_class(text: str) -> dict[str, Q]:
    """Parse 'term ((+|-) term)*' with term := [p[/q]*]label, or '0'."""
    s = text.strip()
    if s == "0":
        return {}
    out: dict[str, Q] = {}
    pos = 0
    while pos < len(s):
        m = _TERM.match(s, pos)
        if m is None or (pos > 0 and not m.group(1)):
            raise CheckError(f"unreadable class text at {pos}: {text!r}")
        sign, num, den, label = m.groups()
        value = Q(int(num), int(den or 1)) if num else Q(1)
        if label in ("λ", "lambda"):
            label = "lambda"
        elif label[0] in _UNICODE_HEADS:
            label = "b0s" if label == "β0" else _UNICODE_HEADS[label[0]] + label[1:]
        out[label] = out.get(label, Q(0)) + (-value if sign == "-" else value)
        pos = m.end()
    return nonzero(out)


# --- certificates ---------------------------------------------------------------


def slope_bound(g: int) -> Q:
    """Slope of the auxiliary divisor: Eisenbud-Harris, Farkas-Popa (K3) or Gieseker-Petri."""
    if g == 10:
        return Q(7)
    if not is_prime(g + 1):
        return 6 + Q(12, g + 1)
    k = (g + 2) // 2
    return Q(6 * k * k + k - 6, k * (k - 1))


def expected_certificate(g: int, a: Q | None = None, b0: Q | None = None,
                         b: list[Q] | None = None) -> dict:
    """The certificate at genus g, for the default divisor or a user one (a, b0, b)."""
    flags = {"FORMAL_BASIS"} if g <= 4 else set()
    if g <= 7:
        _, r = curve_table(g)["R"]
        return {"genus": g, "verdict": UNIRULED, "nu": None, "rk": pairing(r, canonical_s(g)),
                "c": None, "c_prime": None, "flags": flags}
    if a is None:
        nu = 11 - Q(3, 2) * slope_bound(g)
        complete = g != 10 and not is_prime(g + 1)
        ratios = [Q(9 * i * (g - i), g + 1) for i in range(1, g // 2 + 1)] if complete else None
    else:
        nu = 11 - Q(3) * a / (2 * b0)
        ratios = None if b is None else [Q(3) * bi / (2 * b0) for bi in b]
    if ratios is None:
        flags.add("CONDITIONAL")
    if g > LAST_TABULATED_GENUS:
        flags.add("EXTRAPOLATED")
    verdict = KAPPA_NONNEGATIVE if g == 8 else GENERAL_TYPE
    c = None if ratios is None else [r - 2 - (i == 0) for i, r in enumerate(ratios)]
    c_prime = None if ratios is None else [2 - (i == 0) + r for i, r in enumerate(ratios)]
    return {"genus": g, "verdict": verdict, "nu": nu, "rk": None, "c": c, "c_prime": c_prime,
            "flags": flags}


def _q_or_none(v):
    return None if v is None else Q(v)


def check_certificate_json(doc: dict, want: dict) -> int:
    """Compare a parsed certificate JSON object with expected_certificate()."""
    n = expect("genus", want["genus"], doc.get("genus"))
    n += expect("verdict", want["verdict"], doc.get("verdict"))
    n += expect("nu", want["nu"], _q_or_none(doc.get("nu")))
    n += expect("rk", want["rk"], _q_or_none(doc.get("rk")))
    for key in ("c", "c_prime"):
        got = doc.get(key)
        n += expect(key, want[key], None if got is None else [Q(v) for v in got])
    n += expect("flags", want["flags"], set(doc.get("flags", ())))
    return n


def check_certificate_line(line: str, g: int) -> int:
    """A JSONL certificate line: sorted keys, and values as the paper predicts."""
    doc = json.loads(line)
    n = expect("sorted-key serialisation", json.dumps(doc, sort_keys=True), line)
    return n + check_certificate_json(doc, expected_certificate(g))


def check_certificate_text(text: str, want: dict) -> int:
    """The human-readable `classify` output."""
    lines = text.splitlines()
    n = expect("headline", f"genus {want['genus']}: {want['verdict']}", lines[0] if lines else "")
    found = {}
    for line in lines[1:]:
        key, sep, value = line.strip().partition(" = ")
        if sep:
            found[key.strip()] = value
    if want["rk"] is not None:
        n += expect("R . K", want["rk"], Q(found.get("R . K", "nan")))
    if want["nu"] is not None:
        n += expect("nu", want["nu"], Q(found.get("nu", "nan")))
    if want["c"] is not None:
        for key, label in (("c", "remainders c"), ("c_prime", "remainders c'")):
            body = found.get(label, "()").strip("()")
            n += expect(label, want[key], [Q(v) for v in body.split(", ")])
    flag_line = next((l for l in lines if l.strip().startswith("flags: ")), "")
    body = flag_line.strip()[len("flags: "):]
    n += expect("flags", want["flags"], set() if body == "(none)" else set(body.split(", ")))
    return n


# --- verify reports ---------------------------------------------------------------


def check_verify_report(text: str, start: int, end: int) -> tuple[int, int]:
    """Status OK, every genus once, totals add up, byte-identical re-serialisation.

    Returns (values compared, total verify checks in the report).
    """
    report = json.loads(text)
    n = expect("re-serialisation", json.dumps(report, indent=2, sort_keys=True), text.rstrip("\n"))
    n += expect("status", "OK", report.get("status"))
    n += expect("failures", [], report.get("failures"))
    n += expect("genus-range", [start, end], report.get("genus-range"))
    genera = report["payload"]["genera"]
    n += expect("genera", list(range(start, end + 1)), [e["genus"] for e in genera])
    n += expect("per-genus failures", [0] * len(genera), [e["failed"] for e in genera])
    total = report["payload"]["total-checks"]
    n += expect("total-checks", sum(e["checks"] for e in genera), total)
    return n, total


# --- other CLI outputs -------------------------------------------------------------


def check_counts_text(text: str, g: int) -> int:
    """`counts`: component degrees 2^(g-1)(2^g +- 1), stratum degrees, identities."""
    even, odd = 2 ** (g - 1) * (2**g + 1), 2 ** (g - 1) * (2**g - 1)
    want = {
        "total": 2 ** (2 * g), "even": even, "odd": odd,
        "A0": 2 ** (2 * g - 2), "B0": 2 ** (g - 2) * (2 ** (g - 1) + 1),
    }
    for i in range(1, g // 2 + 1):
        want[f"A{i}"] = 2 ** (g - 2) * (2**i + 1) * (2 ** (g - i) + 1)
        want[f"B{i}"] = 2 ** (g - 2) * (2**i - 1) * (2 ** (g - i) - 1)
    got: dict[str, int] = {}
    identities = 0
    for line in text.splitlines():
        s = line.strip()
        if m := re.fullmatch(rf"genus {g}: covering of total degree (\d+)", s):
            got["total"] = int(m.group(1))
        elif m := re.fullmatch(r"(even|odd) component degree\s+(\d+)", s):
            got[m.group(1)] = int(m.group(2))
        elif m := re.fullmatch(r"deg\(([AB]\d+)/d\d+\) = (\d+)", s):
            got[m.group(1)] = int(m.group(2))
        elif s.startswith("identity "):
            if not s.endswith(" ok"):
                raise CheckError(f"identity not ok: {s!r}")
            identities += 1
    n = expect("degrees", want, got)
    n += expect("even+odd=total", got["total"], got["even"] + got["odd"])
    n += expect("a0+2*b0=even", even, got["A0"] + 2 * got["B0"])
    for i in range(1, g // 2 + 1):
        n += expect(f"a{i}+b{i}=even", even, got[f"A{i}"] + got[f"B{i}"])
    return n + expect("identity lines", 2 + g // 2, identities)


def check_solve_text(text: str, rc: int, g: int) -> int:
    """`solve-thetanull`: exit 0, MATCH, and the solved class is theta-null."""
    lines = [l.strip() for l in text.splitlines()]
    n = expect("exit code", 0, rc)
    n += expect("verdict line", "MATCH", lines[-1] if lines else "")
    solved = next((l for l in lines if l.startswith("solved class: ")), "solved class: ?")
    return n + expect("solved class", nonzero(thetanull(g)), read_class(solved[len("solved class: "):]))


def check_dump(text: str, g: int) -> int:
    """`pair --dump`: the full curve table, every basis label present."""
    dump = json.loads(text)
    table = curve_table(g)
    n = expect("curve names", sorted(table), sorted(dump))
    for name, (side, numbers) in table.items():
        basis = m_basis(g) if side == "M" else s_basis(g)
        n += expect(f"{name} labels", sorted(basis), sorted(dump[name]))
        n += expect(f"{name} entries", numbers, nonzero({k: Q(v) for k, v in dump[name].items()}))
    return n
