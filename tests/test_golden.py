"""Golden test: pins the engine's output by hash and check total.

Every pin lives in tests/golden.json, which CI's run of the installed
`spinpic` command reads too. Recipe, with PYTHONPATH=src, for the first two
(re-derive them this way when a change deliberately adds, renames or
rewords a check):

    import hashlib, json
    from spinpic import kodaira, verify
    from spinpic.picard import GenusCtx

    checks = [[g, c.name, c.ok, c.expected, c.got]
              for g in range(3, 23) for c in verify.run_genus(g)]
    certificates = [kodaira.certificate_json(kodaira.classify(GenusCtx(g)))
                    for g in range(3, 23)]
    blob = json.dumps({"checks": checks, "certificates": certificates}, sort_keys=True)
    hashlib.sha256(blob.encode()).hexdigest()
    hashlib.sha256(verify.report_json(verify.build_report(3, 22)).encode()).hexdigest()

The first hash covers every check record (4289 rows) and every certificate;
the second covers the canonical `verify --json` report. The third covers the
exit code and stdout of every invocation in `_cli_invocations()`, serialised
as `json.dumps([[argv, code, stdout], ...])`. "stdout-sha256" pins the stdout
of each command it names, and "total-checks" the total of each `verify`
report it names, each from an in-process `cli.run` with stdout redirected:

    out = io.StringIO()
    with redirect_stdout(out):
        cli.run("classify --from 3 --to 300 --json".split())
    hashlib.sha256(out.getvalue().encode()).hexdigest()

They reach past the golden genera: the classify ranges are the certificates
far past the tabulated range, up to the ceiling (3..1000 holds every
slope-only genus, g+1 prime, past the benchmark's 700), verify 3..200 the
range where compat's row families carry most of the checks, and the
genus-1000 commands the ceiling.
"""

import hashlib
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from spinpic import cli, kodaira, verify
from spinpic.picard import GenusCtx

GOLDEN = json.loads((Path(__file__).parent / "golden.json").read_text())
GENERA = range(3, 23)
CLI_GENERA = ("3", "8", "10", "17", "40")
NAMED_CLASSES = ("canonical-m", "canonical-s", "thetanull", "bn", "m1", "D")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_checks_and_certificates_are_unchanged():
    checks = [[g, c.name, c.ok, c.expected, c.got] for g in GENERA for c in verify.run_genus(g)]
    certificates = [kodaira.certificate_json(kodaira.classify(GenusCtx(g))) for g in GENERA]
    assert len(checks) == GOLDEN["total-checks"]["verify --from 3 --to 22 --json"]
    blob = json.dumps({"checks": checks, "certificates": certificates}, sort_keys=True)
    assert _sha256(blob) == GOLDEN["checks-and-certificates-sha256"]


def test_verify_report_is_unchanged():
    assert _sha256(verify.report_json(verify.build_report(3, 22))) == GOLDEN["report-3-22-sha256"]


def _run(command: str) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.run(command.split())
    return code, out.getvalue()


def _cli_invocations():
    for g in CLI_GENERA:
        yield ["classify", "-g", g]
        yield ["classify", "-g", g, "--json"]
        for name in NAMED_CLASSES:
            yield ["class", name, "-g", g]
        yield ["pair", "--dump", "-g", g]
        yield ["pair", "R", "canonical-s", "-g", g]
        yield ["solve-thetanull", "-g", g]
        yield ["counts", "-g", g]


def test_cli_output_is_unchanged(capsys):
    rows = []
    for argv in _cli_invocations():
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli.run(argv)
        rows.append([argv, code, out.getvalue()])
    assert len(rows) == 60
    assert _sha256(json.dumps(rows)) == GOLDEN["cli-invocations-sha256"]


_HIGH_GENUS_CERTIFICATES = "classify --from 3 --to 300 --json"


def test_high_genus_certificates_are_unchanged():
    code, out = _run(_HIGH_GENUS_CERTIFICATES)
    assert (code, len(out.splitlines())) == (0, 298)
    assert _sha256(out) == GOLDEN["stdout-sha256"][_HIGH_GENUS_CERTIFICATES]


@pytest.mark.parametrize("command", sorted(set(GOLDEN["stdout-sha256"]) - {_HIGH_GENUS_CERTIFICATES}))
def test_command_output_is_unchanged(command):
    code, out = _run(command)
    assert (code, _sha256(out)) == (0, GOLDEN["stdout-sha256"][command])


@pytest.mark.parametrize("command", sorted(GOLDEN["total-checks"]))
def test_verify_total_is_unchanged(command):
    code, out = _run(command)
    report = json.loads(out)
    assert (code, report["status"], report["payload"]["total-checks"]) == (0, "OK", GOLDEN["total-checks"][command])
