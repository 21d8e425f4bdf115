"""Per-genus verification: every exact identity the package claims, re-checked.

Each genus streams (name, expected, got) triples of raw values, one section
after another; a section that raises ends in a failed `<section>:exception`
after what it already yielded, and a crash in the setup that the sections
share ends the genus in one failed `setup:exception`. compat's Theta(h^2)
block, F_i and G_i for i >= 1 against every pi*d_j, streams as one sparse
row family (`_Row`) per i; a row pairs each curve through
`testcurves.intersect`, like every other pairing here, with pi*d0 and with
each pi*d_j that stores one of the curve's labels. `build_report` counts
the stream and renders only failures: a passing identity costs it one
comparison, and a row yields it only the entries whose sides differ, so a
passing row formats no check name. It first spells the engine's label
sequences past its range, so a read past a genus's basis finds labels
outside it, and it reports each genus done to an optional hook, which the
cli's progress line reads. `run_genus` lists every identity as a
`Check`, each row over every j, with both sides already rendered.
The identities deliberately re-derive constants along independent routes
(component degrees against stratum degrees, pencil relations against closed
forms, a private copy of the curve tables, a private slope table for each
genus's divisor D) so that a single corrupted multiplicity, intersection
number, or class coefficient flips at least one identity to FAIL. The
kodaira section checks what `kodaira.certify` makes of its own evidence,
writing the c and c' it expects from the remainder's integers by `_pq`;
its decomposition identity assembles the classes by `lincomb`, a route
apart from the engine's, which reads K and theta slot by slot.
"""

from __future__ import annotations

import functools
import json
import random
from fractions import Fraction
from math import gcd, isqrt

from . import catalog, kodaira, testcurves, transfer
from .picard import (
    M_SIDE,
    S_SIDE,
    DivisorClass,
    GenusCtx,
    _spelled,
    _sum_terms,
    _Value,
    basis_class,
    labels_for,
    lincomb,
    parse_class,
    render_class,
)


class Check(_Value):
    """One identity of `run_genus`'s list: its name, whether it holds, and both sides rendered by `_fmt`."""

    __slots__ = __match_args__ = ("name", "ok", "expected", "got")

    def __init__(self, name: str, ok: bool, expected: str, got: str) -> None:
        self._init(name=name, ok=ok, expected=expected, got=got)


def _fmt(value) -> str:
    if isinstance(value, DivisorClass):
        return render_class(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (tuple, list)):
        return "(" + ", ".join(_fmt(v) for v in value) + ")"
    if isinstance(value, dict):
        items = ", ".join(f"{k}={_fmt(v)}" for k, v in sorted(value.items()))
        return "{" + items + "}"
    return str(value)


def _pq(n: int, d: int) -> str:
    """n/d for d >= 1 as "p/q" in lowest terms, or "p" over 1: verify's own writer, beside picard._ratios."""
    k = gcd(n, d)
    return f"{n // k}" if k == d else f"{n // k}/{d // k}"


class _Row(_Value):
    """compat:F{i}:d{j}, compat:G{i}:d{j} for j = 0..h, expecting 2-2i at j = i; got by (F or G, j), else 0."""

    __slots__ = __match_args__ = ("i", "h", "got")

    def __init__(self, i: int, h: int, got: dict[tuple[str, int], Fraction]) -> None:
        self._init(i=i, h=h, got=got)

    def __len__(self) -> int:
        return 2 * (self.h + 1)

    def triples(self, dense: bool = True):
        """(name, expected, got) in stream order, for every j or only where the sides differ."""
        for j in range(self.h + 1) if dense else sorted({j for _, j in self.got} | {self.i}):
            want = 2 - 2 * self.i if j == self.i else 0
            for kind in "FG":
                got = self.got.get((kind, j), 0)
                if dense or want != got:
                    yield f"compat:{kind}{self.i}:d{j}", want, got


def _fuzz_class(ctx: GenusCtx, side: str, salt: int) -> DivisorClass:
    """A seeded class with a random n/d (|n| <= 60, 1 <= d <= 16) at each basis label, summed as parse_class sums."""
    rng = random.Random(ctx.g * 7919 + salt)
    # n is drawn before d at each label; the draw order fixes the class, which the golden hashes pin
    return _sum_terms(ctx, side, [(rng.randint(-60, 60), rng.randint(1, 16), ((label, 1),))
                                  for label in labels_for(ctx, side)])


def _expected_curve_table(ctx: GenusCtx) -> dict[str, tuple[str, dict[str, int]]]:
    # Private copy of the pencil tables; guards the stored vectors against edits.
    g, h = ctx.g, ctx.h
    table: dict[str, tuple[str, dict[str, int]]] = {
        "B": (M_SIDE, {"lambda": g + 1, "d0": 6 * g + 18}),
        "R": (
            S_SIDE,
            {
                "lambda": (g + 1) * 2 ** (g - 1) * (2**g + 1),
                "a0": (6 * g + 18) * 2 ** (2 * g - 2),
                "b0s": (6 * g + 18) * 2 ** (g - 2) * (2 ** (g - 1) + 1),
            },
        ),
        "F0": (S_SIDE, {"lambda": 1, "a0": 12, "b1": -1}),
        "G0": (S_SIDE, {"lambda": 3, "a0": 12, "b0s": 12, "a1": -3}),
        "H0": (S_SIDE, {"b0s": 1 - g, "a1": 1}),
    }
    for i in range(1, h + 1):
        table[f"F{i}"] = (S_SIDE, {f"a{i}": 2 - 2 * i})
        table[f"G{i}"] = (S_SIDE, {f"b{i}": 2 - 2 * i})
    return table


def _expected_slope(g: int) -> tuple[bool, Fraction]:
    # Private copy of the slope of each genus's D: (whether g+1 is composite,
    # the bound). Brill-Noether 6 + 12/(g+1) for composite g+1, K3 7 at
    # g = 10, Gieseker-Petri (6k^2+k-6)/(k(k-1)) at g = 2k-2 otherwise.
    if g == 10:
        return False, Fraction(7)
    if any((g + 1) % p == 0 for p in range(2, isqrt(g + 1) + 1)):
        return True, 6 + Fraction(12, g + 1)
    k = g // 2 + 1
    return False, Fraction(6 * k * k + k - 6, k * (k - 1))


def _identities(g: int):
    """Yield (name, expected, got) for every per-genus identity, or a `_Row` of them, in order; g >= 3."""
    ctx = GenusCtx(g)
    try:
        n_even = transfer.even_component_degree(g)
        curves = testcurves.curve_map(ctx)
        # Built once and shared by the sections; each is still looked up on its
        # module at call time, so a patched builder is the one that runs.
        basis = {label: basis_class(ctx, M_SIDE, label) for label in labels_for(ctx, M_SIDE)}
        up = {label: transfer.pullback(x) for label, x in basis.items()}
        n_id = {label: n_even * x for label, x in basis.items()}
        canonical_m = catalog.canonical_m(ctx)
        canonical_s = catalog.canonical_s(ctx)
        theta = catalog.thetanull_class(ctx)
        m1 = catalog.m1_theta_class(ctx)
        composite, slope_bound = _expected_slope(g)
    except Exception as exc:  # no section can run without the shared setup, so the genus ends here
        yield _crashed("setup", exc)
        return

    def counts():
        for name, lhs, rhs in transfer.degree_identities(ctx):
            yield f"counts:{name}", rhs, lhs

    def projection():
        for label, x in up.items():
            yield f"projection:{label}", n_id[label], transfer.pushforward(x)
        x = _fuzz_class(ctx, M_SIDE, salt=1)
        yield "projection:fuzz", n_even * x, transfer.pushforward(transfer.pullback(x))
        # second route: compose the pullback columns (integer numerators over each column's
        # own denominator) with the pushforward columns by lincomb, not the maps in turn
        push = {s: transfer.pushforward(basis_class(ctx, S_SIDE, s)) for s in labels_for(ctx, S_SIDE)}
        prod = {m: lincomb([n if col.den == 1 else Fraction(n, col.den) for n in col.num.values()],
                           [push[s] for s in col.num]) for m, col in up.items()}
        yield "projection:matrix-product", True, prod == n_id

    def named_classes():
        yield "canonical:splitting", basis_class(ctx, S_SIDE, "b0s"), canonical_s - transfer.pullback(canonical_m)
        yield "theta:pushforward", m1, transfer.pushforward(theta)
        for cls, name in (
            (canonical_m, "canonical-m"),
            (canonical_s, "canonical-s"),
            (theta, "thetanull"),
            (m1, "m1"),
        ):
            yield f"roundtrip:{name}", cls, parse_class(render_class(cls), ctx, cls.side)

    def brill_noether():
        if not composite:
            return
        cls, spec = catalog.bn_class(ctx)
        prov = spec.provenance
        yield "bn:rho", -1, catalog.rho(g, prov.r, prov.d)
        yield "bn:slope", slope_bound, spec.slope
        yield "bn:lambda", Fraction(g + 3), cls["lambda"]
        # a ratio of two entries of one class is that of their integer numerators
        num, s = cls.num, spec.divisor.num
        n0, s0 = num.get("d0", 0), s["d0"]
        for i in range(1, ctx.h + 1):
            label = f"d{i}"
            # the ratio read from the class that bn_class returns, so a misread b_i shows
            yield f"bn:ratio-{label}", Fraction(6 * i * (g - i), g + 1), Fraction(num.get(label, 0), n0)
            # c_1 = -3 + (3/2)*b_1/b0 and c_i = -2 + (3/2)*b_i/b0 for i >= 2: b_i/b0 >= p/q on the
            # spec's own class, whose numerators s_i = -b_i*den, read as q*s_i <= p*s0 since s0 < 0
            p, q = (2, 1) if i == 1 else (4, 3)
            yield f"bn:ratio-bound-{label}", True, q * s[label] <= p * s0

    def curve_tables():
        expected = _expected_curve_table(ctx)
        yield "curves:names", sorted(expected), sorted(curves)
        for name, (side, numbers) in expected.items():
            got = curves.get(name)
            # an int and the Fraction of its value compare and render alike, so a
            # curve over den 1 is compared through its integer numerators
            yield (
                f"curves:table:{name}",
                {"side": side, **{k: v for k, v in numbers.items() if v != 0}},
                "missing" if got is None else {"side": got.side, **(got.num if got.den == 1 else got.coeff)},
            )

    def pairings():
        for name in ("F0", "G0", "H0"):
            yield f"pairing:{name}*theta", 0, testcurves.intersect(curves[name], theta)
        for i in range(1, ctx.h + 1):
            yield f"pairing:F{i}*theta", 0, testcurves.intersect(curves[f"F{i}"], theta)
            yield f"pairing:G{i}*theta", i - 1, testcurves.intersect(curves[f"G{i}"], theta)

    def lift():
        b, r = curves["B"], curves["R"]
        fuzz = _fuzz_class(ctx, M_SIDE, salt=2)
        probes = [(label, x, up[label]) for label, x in basis.items()]
        probes.append(("fuzz", fuzz, transfer.pullback(fuzz)))
        for label, x, x_up in probes:
            yield f"lift:{label}", n_even * testcurves.intersect(b, x), testcurves.intersect(r, x_up)

    def pullback_compat():
        # The oracle is exact ints: an int compares with a Fraction on
        # Fraction's fast path, and renders to the same string.
        # the elliptic-tail pencil downstairs: degree 12 on d0, -1 on d1
        tail = {"lambda": 1, "d0": 12, "d1": -1}
        f0, g0, h0 = curves["F0"], curves["G0"], curves["H0"]
        for label, x in up.items():
            want = tail.get(label, 0)
            yield f"compat:F0:{label}", want, testcurves.intersect(f0, x)
            yield f"compat:G0:{label}", 3 * want, testcurves.intersect(g0, x)
        yield "compat:H0:d0", 2 - 2 * g, testcurves.intersect(h0, up["d0"])
        for j in range(1, ctx.h + 1):
            yield f"compat:H0:d{j}", 1 if j == 1 else 0, testcurves.intersect(h0, up[f"d{j}"])
        # index: label -> every j whose pi*d_j stores it
        index = {}
        for j in range(ctx.h + 1):
            for label in up[f"d{j}"].num:
                index.setdefault(label, []).append(j)
        for i in range(1, ctx.h + 1):
            got = {}
            for kind in "FG":
                curve = curves[f"{kind}{i}"]
                # pi*d0 always, so a curve of the wrong side or genus raises before the row yields;
                # every column that stores none of the curve's labels pairs to 0
                got[kind, 0] = testcurves.intersect(curve, up["d0"])
                for label in curve.num:
                    for j in index.get(label, ()):
                        got[kind, j] = testcurves.intersect(curve, up[f"d{j}"])
            yield _Row(i, ctx.h, got)
        # branching consistency at the genus-0 boundary, in covering degrees
        yield "compat:F0-branching", 12, f0["a0"] + 2 * f0["b0s"]
        yield "compat:G0-branching", 36, g0["a0"] + 2 * g0["b0s"]

    def theta_solve():
        solved = testcurves.solve_thetanull(ctx)
        yield "solve:thetanull", theta, solved
        for name in ("F0", "G0", "H0"):
            yield f"solve:residual:{name}", 0, testcurves.intersect(curves[name], solved)

    def classification():
        rk = kodaira.uniruled_certificate(ctx)
        yield "kodaira:rk-sign", g <= 7, rk < 0
        spec = catalog.choose_d(ctx)
        dec = kodaira.decompose_canonical(ctx, spec)
        yield "kodaira:nu-from-slope", 11 - Fraction(3, 2) * slope_bound, dec.nu
        if g == 8:
            yield "kodaira:nu-zero", Fraction(0), dec.nu
        if g >= 9:
            yield "kodaira:nu-positive", True, dec.nu > 0
        rest = dec.remainder  # c at the a_i, c' at the b_i, and nothing else
        if spec.complete:
            scale = Fraction(3, 2) / spec.b0
            assembled = lincomb([dec.nu, 8, scale, 1], [
                basis_class(ctx, S_SIDE, "lambda"),
                theta,
                transfer.pullback(catalog.divisor_class(spec)),
                rest,
            ])
            yield "kodaira:decomposition-identity", canonical_s, assembled
            if g >= 8:
                yield "kodaira:remainders-nonnegative", True, dec.remainders_nonnegative()
        # the engine's certificate of this evidence, against verify's own rules for each field
        cert = kodaira.certificate_json(kodaira.certify(ctx, rk, dec))
        expected = kodaira.UNIRULED if g <= 7 else (
            kodaira.KAPPA_NONNEGATIVE if g == 8 else kodaira.GENERAL_TYPE)
        yield "kodaira:verdict", expected, cert["verdict"]
        flags = ((kodaira.FLAG_FORMAL_BASIS, g <= 4), (kodaira.FLAG_CONDITIONAL, g >= 8 and not composite),
                 (kodaira.FLAG_EXTRAPOLATED, g > 22))
        yield "kodaira:flags", [flag for flag, on in flags if on], cert["flags"]
        yield "kodaira:rk", str(rk) if g <= 7 else None, cert["rk"]
        # remainders only where D is complete, one per i = 1..h, each written from rest's integers
        for name, key, family in (("c", "c", "a"), ("c-prime", "c_prime", "b")):
            want = [_pq(rest.num.get(f"{family}{i}", 0), rest.den) for i in range(1, ctx.h + 1)] \
                if g >= 8 and composite else None
            yield f"kodaira:{name}", want, cert[key]

    for section, identities in (
        ("counts", counts), ("projection", projection), ("named-classes", named_classes),
        ("brill-noether", brill_noether), ("curves", curve_tables), ("pairings", pairings),
        ("lift", lift), ("compat", pullback_compat), ("solve", theta_solve), ("kodaira", classification),
    ):
        try:
            yield from identities()
        except Exception as exc:  # a crashed identity is a failed identity
            yield _crashed(section, exc)


def _crashed(section: str, exc: Exception) -> tuple[str, str, str]:
    """The failed identity `<section>:exception` that stands for what the section did not yield."""
    return f"{section}:exception", "no exception", f"{type(exc).__name__}: {exc}"


def run_genus(g: int) -> list[Check]:
    """Every per-genus identity as a `Check`, in order, row families expanded; g >= 3."""
    return [Check(name, expected == got, _fmt(expected), _fmt(got)) for item in _identities(g)
            for name, expected, got in (item.triples() if isinstance(item, _Row) else (item,))]


def build_report(start: int, end: int, _on_genus=None) -> dict:
    """Run the suite over [start, end] and assemble the machine-readable report from the stream.

    The engine's label sequences are spelled past end's basis first, so a
    read that overruns genus g's basis finds labels outside it, and the
    checks in place fail, also on a first sweep upward in a fresh process.
    _on_genus(g, total), when given, is called after each genus with the
    checks counted so far; the cli's progress line reads it.
    """
    if start < 3 or end < start:
        raise ValueError(f"verification range must satisfy 3 <= start <= end, got {start}..{end}")
    _spelled(end + 2)
    genera = []
    failures = []
    total = 0
    for g in range(start, end + 1):
        count = 0
        failed = []
        for item in _identities(g):
            if item.__class__ is _Row:
                count += len(item)
                failed += item.triples(dense=False)
            else:
                count += 1
                if item[1] != item[2]:
                    failed.append(item)
        failures += [{"check-name": name, "genus": g, "expected": _fmt(expected), "got": _fmt(got)}
                     for name, expected, got in failed]
        genera.append({"genus": g, "checks": count, "failed": len(failed)})
        total += count
        if _on_genus is not None:
            _on_genus(g, total)
    return {
        "command": "verify",
        "genus-range": [start, end],
        "status": "OK" if not failures else "FAIL",
        "failures": failures,
        "payload": {"genera": genera, "total-checks": total},
    }


_scalar = json.JSONEncoder().encode  # a str key, or a lone scalar that is not an exact int, a bool or None
_SCALARS = frozenset({str, int, bool, type(None)})


@functools.cache
def _flat(depth: int):  # json's C encoder for a container of scalars whose items sit `depth` levels in
    return json.JSONEncoder(sort_keys=True, separators=(",\n" + "  " * depth, ": ")).encode


def report_json(report) -> str:
    """json.dumps(report, indent=2, sort_keys=True) byte for byte, but by json's C encoder, not its Python one.

    Each container of scalars, such as a dump row, is one C call whose item separator holds its depth's indent.
    """
    return _write(report, 0)


def _write(obj, depth: int) -> str:
    if obj.__class__ is int or obj.__class__ is bool or obj is None:  # as the encoder spells them, with none built
        return repr(obj) if obj.__class__ is int else "null" if obj is None else "true" if obj else "false"
    if not isinstance(obj, (dict, list, tuple)):
        return _scalar(obj)
    if not obj:
        return "{}" if isinstance(obj, dict) else "[]"
    values = obj.values() if isinstance(obj, dict) else obj
    sep, end = ",\n" + "  " * (depth + 1), "\n" + "  " * depth
    if _SCALARS.issuperset(map(type, values)):  # a float or a subclass goes the long way, as a lone scalar
        text = _flat(depth + 1)(obj)
        return text[0] + sep[1:] + text[1:-1] + end + text[-1]
    if values is obj:
        return "[" + sep[1:] + sep.join([_write(v, depth + 1) for v in obj]) + end + "]"
    # json's key rules: a str as is, 1 -> "1", True -> "true", a tuple -> TypeError
    return "{" + sep[1:] + sep.join([(_scalar(k) if isinstance(k, str) else _scalar({k: 0})[1:-4]) + ": "
                                     + _write(v, depth + 1) for k, v in sorted(obj.items())]) + end + "}"
