"""The benchmark's workloads: each is a fixed list of ops built from a seed.

An op is one unit of user-visible work. `call` is the timed part and returns
the raw output; `check` compares that output with the independent reference
(reference.py) and returns (values compared, verify checks reported), or
raises CheckError. Ops flagged `known_fault` exercise an input fault of the
program that makes them fail at the commit this benchmark was written for.

The program is reached only through public names, and always through module
attributes, so the traced run's wrappers see every call.
"""

from __future__ import annotations

import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction as Q
from pathlib import Path
from typing import Callable

import reference as ref
from reference import CheckError, expect

from spinpic import cli, kodaira, verify
from spinpic.picard import GenusCtx

# h = 13..26, a factor of two in h. Every genus, so that the median and the
# 90th percentile fall among several ops of similar cost; an even count, so
# that the median is the mean of two ops (g = 39 and 40) rather than one.
VERIFY_HIGH_GENERA = list(range(26, 54))
CERTIFY_GENERA = list(range(3, 701))
CLI_GENERA = (3, 40)


@dataclass
class Op:
    label: str
    key: tuple  # (command, genus): ops with equal keys repeat the same query
    call: Callable[[], object]
    check: Callable[[object], tuple[int, int]]
    known_fault: bool = False
    after: Callable[[int], None] | None = None  # untimed follow-up, given the op's index
    in_child: bool = False  # the work runs in a child interpreter


@dataclass
class Env:
    """Where a run executes: the checkout root, the run's scratch dir, the tracer."""

    root: Path
    scratch: Path
    tracer: object = None

    def child_env(self) -> dict:
        src = str(self.root / "src")
        old = os.environ.get("PYTHONPATH")
        return {**os.environ, "PYTHONPATH": src + (os.pathsep + old if old else "")}


# --- verify-sweep: the headline CLI run in a fresh interpreter per op ----------


def verify_sweep(env: Env, rng: random.Random, seconds: int) -> list[Op]:
    args = ["verify", "--json"]
    trace_file = env.scratch / "child-trace.json"

    def call():
        if env.tracer is None:
            cmd = [sys.executable, "-m", "spinpic.cli", *args]
        else:
            cmd = [sys.executable, str(Path(__file__).resolve().parent / "child.py"), str(trace_file), *args]
        proc = subprocess.run(cmd, cwd=env.root, env=env.child_env(), capture_output=True,
                              text=True, timeout=150)
        return proc.returncode, proc.stdout, proc.stderr

    def merge_child_trace(index: int) -> None:
        if env.tracer is not None and trace_file.exists():
            env.tracer.merge(json.loads(trace_file.read_text()), index)
            trace_file.unlink()

    def check(result) -> tuple[int, int]:
        rc, out, err = result
        n = expect("exit code", 0, rc)
        m, total = ref.check_verify_report(out, 3, 22)
        return n + m, total

    op = Op("verify 3..22 --json", ("verify", 22), call, check, after=merge_child_trace, in_child=True)
    return [op] * max(1, round(seconds))


# --- verify-high: one genus at a time, in process --------------------------------


def verify_high(env: Env, rng: random.Random, seconds: int) -> list[Op]:
    ops = []
    for _ in range(max(1, round(seconds / 10))):
        genera = VERIFY_HIGH_GENERA[:]
        rng.shuffle(genera)
        for g in genera:
            def call(g=g):
                return verify.report_json(verify.build_report(g, g))

            def check(text, g=g):
                return ref.check_verify_report(text, g, g)

            ops.append(Op(f"build_report({g}, {g})", ("verify", g), call, check))
    return ops


# --- certify-sweep: the JSONL certificate export, one genus per op ----------------


def certify_sweep(env: Env, rng: random.Random, seconds: int) -> list[Op]:
    ops = []
    for _ in range(max(1, round(seconds / 10))):
        genera = CERTIFY_GENERA[:]
        rng.shuffle(genera)
        for g in genera:
            def call(g=g):
                cert = kodaira.classify(GenusCtx(g))
                return json.dumps(kodaira.certificate_json(cert), sort_keys=True)

            def check(line, g=g):
                return ref.check_certificate_line(line, g), 0

            ops.append(Op(f"classify({g})", ("classify", g), call, check))
    return ops


# --- cli-queries: in-process CLI invocations --------------------------------------


def _cli_call(argv: list[str]):
    def call():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                rc = cli.run(argv)
            except Exception as exc:  # an escaped exception is a traceback for the user
                rc = exc
        return rc, out.getvalue(), err.getvalue()

    return call


def _returned(result) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of a cli.run that returned rather than raised."""
    rc, out, err = result
    if isinstance(rc, BaseException):
        raise CheckError(f"{type(rc).__name__} escaped cli.run: {rc}")
    return rc, out, err


def _succeeded(result) -> tuple[int, str, str]:
    rc, out, err = _returned(result)
    expect("exit code", 0, rc)
    expect("stderr", "", err)
    return rc, out, err


def _check_malformed(result) -> tuple[int, int]:
    rc, out, err = _returned(result)
    n = expect("exit code", 2, rc) + expect("stdout", "", out)
    if "Traceback" in err:
        raise CheckError("traceback on stderr")
    return n + 1, 0


def _spell(label: str, rng: random.Random) -> str:
    """ASCII or Unicode spelling of a basis label (README: λ, δi, αi, βi, β0 = b0s)."""
    if rng.random() < 0.5:
        return label
    if label == "lambda":
        return "λ"
    if label == "b0s":
        return "β0"
    return {"d": "δ", "a": "α", "b": "β"}[label[0]] + label[1:]


def _expression(coeffs: list[tuple[str, Q]], rng: random.Random) -> str:
    parts = []
    for label, c in coeffs:
        mag = abs(c)
        coef = "" if mag == 1 and rng.random() < 0.5 else f"{mag}*"
        term = coef + _spell(label, rng)
        if not parts:
            parts.append(f"-{term}" if c < 0 else term)
        else:
            parts.append(f"{'-' if c < 0 else '+'} {term}")
    return " ".join(parts)


def _random_rational(rng: random.Random) -> Q:
    q = Q(0)
    while q == 0:
        q = Q(rng.randint(-60, 60), rng.randint(1, 12))
    return q


def _as_json_rational(q: Q, rng: random.Random):
    return q.numerator if q.denominator == 1 and rng.random() < 0.5 else str(q)


def _divisor_file(env: Env, rng: random.Random, name: str, g: int, complete: bool) -> tuple[Path, dict]:
    """A valid user divisor below the slope bound, with or without its b_i."""
    b0 = Q(rng.randint(1, 6), rng.randint(1, 3))
    a = ref.slope_bound(g) * Q(rng.randint(80, 100), 100) * b0
    doc = {"name": name, "genus": g, "a": _as_json_rational(a, rng), "b0": _as_json_rational(b0, rng)}
    b = None
    if complete:
        b = [b0 * Q(rng.randint(8, 40), 4) for _ in range(g // 2)]  # b_i/b0 >= 2
        doc["b"] = [_as_json_rational(v, rng) for v in b]
    path = env.scratch / f"{name}.json"
    path.write_text(json.dumps(doc))
    return path, {"a": a, "b0": b0, "b": b}


# Malformed inputs, the same in every run. The correct outcome is exit 2 with
# an empty stdout and no traceback. The first five get another outcome at the
# commit this benchmark was written for and are flagged as known faults.
MALFORMED_FILES = {
    "string-b": '{"name": "s", "genus": 10, "a": "7", "b0": "1", "b": "22222"}',
    "float-a": '{"name": "f", "genus": 10, "a": 7.5, "b0": "1", "b": ["2", "2", "2", "2", "2"]}',
    "bool-b": '{"name": "t", "genus": 10, "a": "7", "b0": "1", "b": [true, 2, 2, 2, 2]}',
    "bad-json": '{"name": ',
}


def _malformed_ops(env: Env) -> list[Op]:
    for name, text in MALFORMED_FILES.items():
        (env.scratch / f"{name}.json").write_text(text)
    div = lambda name: ["classify", "-g", "10", "--divisor-file", str(env.scratch / f"{name}.json")]
    cases = [
        ("divisor file with b as a string", div("string-b"), True),
        ("divisor file with a float", div("float-a"), True),
        ("divisor file with a bool in b", div("bool-b"), True),
        ("missing divisor file", div("missing"), True),
        ("pair B δ01 (leading zero)", ["pair", "B", "δ01", "-g", "5"], True),
        ("divisor file with bad JSON", div("bad-json"), False),
        ("unknown label d9", ["pair", "B", "d9", "-g", "5"], False),
        ("zero denominator", ["pair", "R", "1/0*lambda", "-g", "5"], False),
        ("bare b0 token", ["pair", "R", "b0", "-g", "5"], False),
        ("classify -g 2", ["classify", "-g", "2"], False),
    ]
    return [Op(f"malformed: {label}", (argv[0], argv[argv.index("-g") + 1]), _cli_call(argv),
               _check_malformed, known_fault) for label, argv, known_fault in cases]


# Kinds of query in one round. There is no measured usage to weight them by,
# so each invocation type gets an equal share: 9 x 21 well-formed ops, and the
# 10 malformed ones make 5% of the 199.
CLI_KINDS = ["classify", "classify-json", "classify-divisor", "class", "pair-expr", "pair-named",
             "pair-dump", "solve-thetanull", "counts"]
CLI_PER_KIND = 21
CLI_ROUNDS_PER_SECOND = 1.8


def _spread_genera(k: int, lo: int, hi: int) -> int:
    """The k-th of CLI_PER_KIND genera spread evenly over lo..hi, so every seed does the same sizes."""
    return lo + (k * (hi - lo + 1)) // CLI_PER_KIND


def _cli_op(kind: str, k: int, env: Env, rng: random.Random) -> Op:
    g = _spread_genera(k, *CLI_GENERA)
    if kind in ("classify", "classify-json"):
        as_json = kind == "classify-json"
        argv = ["classify", "-g", str(g)] + (["--json"] if as_json else [])
        want = ref.expected_certificate(g)

        def check(result):
            _, out, _ = _succeeded(result)
            if not as_json:
                return ref.check_certificate_text(out, want), 0
            doc = json.loads(out)
            n = expect("sorted-key JSON", json.dumps(doc, indent=2, sort_keys=True), out.rstrip("\n"))
            return n + ref.check_certificate_json(doc, want), 0

        return Op(" ".join(argv), (kind, g), _cli_call(argv), check)

    if kind == "classify-divisor":
        g = _spread_genera(k, 9, CLI_GENERA[1])
        path, d = _divisor_file(env, rng, f"divisor-{k}", g, complete=k % 3 != 0)
        argv = ["classify", "-g", str(g), "--divisor-file", str(path), "--json"]
        want = ref.expected_certificate(g, d["a"], d["b0"], d["b"])

        def check(result):
            _, out, _ = _succeeded(result)
            return ref.check_certificate_json(json.loads(out), want), 0

        return Op(f"classify -g {g} --divisor-file", (kind, g), _cli_call(argv), check)

    if kind == "class":
        name = sorted(ref.NAMED_CLASSES)[k % len(ref.NAMED_CLASSES)]
        while name == "bn" and ref.is_prime(g + 1):
            g += 1
        want = ref.nonzero(ref.NAMED_CLASSES[name][1](g))
        argv = ["class", name, "-g", str(g)]

        def check(result):
            _, out, _ = _succeeded(result)
            return expect("class", want, ref.read_class(out)), 0

        return Op(" ".join(argv), (f"class {name}", g), _cli_call(argv), check)

    table = ref.curve_table(g)
    if kind in ("pair-expr", "pair-named"):
        curve = rng.choice(sorted(table))
        side, numbers = table[curve]
        if kind == "pair-expr":
            basis = ref.m_basis(g) if side == "M" else ref.s_basis(g)
            labels = rng.sample(basis, rng.randint(1, min(4, len(basis))))
            coeffs = [(label, _random_rational(rng)) for label in labels]
            # A leading '-' would be taken for an option by argparse (see CHANGES.md).
            coeffs[0] = (coeffs[0][0], abs(coeffs[0][1]))
            expr, cls = _expression(coeffs, rng), dict(coeffs)
        else:
            names = [n for n, (s, _) in ref.NAMED_CLASSES.items()
                     if s == side and (n != "bn" or not ref.is_prime(g + 1))]
            expr = rng.choice(sorted(names))
            cls = ref.NAMED_CLASSES[expr][1](g)
        want = ref.pairing(numbers, cls)
        argv = ["pair", curve, expr, "-g", str(g)]

        def check(result):
            _, out, _ = _succeeded(result)
            return expect(f"{curve} . {expr}", want, Q(out.strip())), 0

        return Op(" ".join(argv), (kind, g), _cli_call(argv), check)

    if kind == "pair-dump":
        argv = ["pair", "--dump", "-g", str(g)]

        def check(result):
            _, out, _ = _succeeded(result)
            return ref.check_dump(out, g), 0

        return Op(" ".join(argv), (kind, g), _cli_call(argv), check)

    if kind == "solve-thetanull":
        argv = ["solve-thetanull", "-g", str(g)]

        def check(result):
            rc, out, _ = _returned(result)
            return ref.check_solve_text(out, rc, g), 0

        return Op(" ".join(argv), (kind, g), _cli_call(argv), check)

    assert kind == "counts", kind
    argv = ["counts", "-g", str(g)]

    def check(result):
        _, out, _ = _succeeded(result)
        return ref.check_counts_text(out, g), 0

    return Op(" ".join(argv), (kind, g), _cli_call(argv), check)


def cli_queries(env: Env, rng: random.Random, seconds: int) -> list[Op]:
    round_ops = [_cli_op(kind, k, env, rng) for kind in CLI_KINDS for k in range(CLI_PER_KIND)]
    round_ops += _malformed_ops(env)
    rng.shuffle(round_ops)
    return round_ops * max(1, round(seconds * CLI_ROUNDS_PER_SECOND))


WORKLOADS = {
    "verify-sweep": verify_sweep,
    "verify-high": verify_high,
    "certify-sweep": certify_sweep,
    "cli-queries": cli_queries,
}
# Workloads whose checks_per_s counts `verify` checks; the others count checked output values.
VERIFY_WORKLOADS = ("verify-sweep", "verify-high")
