"""Golden test: pins the engine's full output for genus 3..22 by hash.

Recipe, with PYTHONPATH=src (re-derive both values this way when a change
deliberately adds, renames or rewords a check):

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
as `json.dumps([[argv, code, stdout], ...])`. The fourth covers the stdout of
`spinpic classify --from 3 --to 300 --json`, the certificates far past the
tabulated range (298 JSONL lines), taken from an in-process `cli.run` with
stdout redirected:

    out = io.StringIO()
    with redirect_stdout(out):
        cli.run(["classify", "--from", "3", "--to", "300", "--json"])
    hashlib.sha256(out.getvalue().encode()).hexdigest()
"""

import hashlib
import io
import json
from contextlib import redirect_stdout

from spinpic import cli, kodaira, verify
from spinpic.picard import GenusCtx

GENERA = range(3, 23)
CHECKS_AND_CERTIFICATES_SHA256 = "d544e66bed21943e904ec36b871ba2062116ec17bffd0ba864796e7652933d43"
REPORT_SHA256 = "46ac2b10f6d1267f24684f60a389a20623f910e623a1265daf63e40ba0001eb7"
CLI_SHA256 = "da0af1cf2358cabdef671beac6d7ec2b1fca98dc97a473dd6b43a5f9dbf4176e"
CERTIFICATES_3_300_SHA256 = "35561aaf3120182237df3675a04864c884f3a4fefb8cf5819b0faf1d3c486ad9"
CLI_GENERA = ("3", "8", "10", "17", "40")
NAMED_CLASSES = ("canonical-m", "canonical-s", "thetanull", "bn", "m1", "D")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_checks_and_certificates_are_unchanged():
    checks = [[g, c.name, c.ok, c.expected, c.got] for g in GENERA for c in verify.run_genus(g)]
    certificates = [kodaira.certificate_json(kodaira.classify(GenusCtx(g))) for g in GENERA]
    assert len(checks) == 4289
    blob = json.dumps({"checks": checks, "certificates": certificates}, sort_keys=True)
    assert _sha256(blob) == CHECKS_AND_CERTIFICATES_SHA256


def test_verify_report_is_unchanged():
    assert _sha256(verify.report_json(verify.build_report(3, 22))) == REPORT_SHA256


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
    assert _sha256(json.dumps(rows)) == CLI_SHA256


def test_high_genus_certificates_are_unchanged():
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.run(["classify", "--from", "3", "--to", "300", "--json"])
    assert code == 0
    assert len(out.getvalue().splitlines()) == 298
    assert _sha256(out.getvalue()) == CERTIFICATES_3_300_SHA256
