#!/usr/bin/env python3
"""Regenerate the figures in bench/README.md.

Usage (from the root of a checkout):

    python3 bench/report.py

For each workload it makes ten untraced runs with seeds 1..10, each in a
fresh `python3 bench/run.py` process for BENCHMARK.json's run_seconds, as the
benchmark is meant to be driven, then traced runs with seeds 1..3. It
prints, as Markdown: each end-to-end metric's median and its spread
(distance between the first and third quartile, as a share of the median),
the failed share, the per-layer figures of the seed-1 traced run, the
tracing overhead (untraced median ops_per_s over traced ops_per_s) and
verify.run_genus.h_exponent in each traced run. Raw results go to
bench/out/report.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
SEEDS = range(1, 11)
TRACED_SEEDS = range(1, 4)


def one_run(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=BENCH.parent, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def render(raw: dict) -> str:
    """Markdown tables: end-to-end medians and spreads, then the traced runs' per-layer figures."""
    names = list(raw)
    head = "| metric | unit | " + " | ".join(f"`{w}`" for w in names) + " |"
    rule = "| --- | --- |" + " ---: |" * len(names)
    lines = [f"End-to-end metrics: median (spread = IQR/median) over {len(SEEDS)} runs "
             f"with seeds {SEEDS[0]}..{SEEDS[-1]}.", "", head, rule]
    for name, entry in raw[names[0]]["runs"][0]["metrics"].items():
        cells = []
        for w in names:
            values = [r["metrics"][name]["value"] for r in raw[w]["runs"]]
            cells.append(f"{statistics.median(values):.4g} ({spread(values):.1%})")
        lines.append(f"| {name} | {entry['unit']} | " + " | ".join(cells) + " |")
    shares = [sorted({f"{r['failed']}/{r['attempted']}" for r in raw[w]["runs"]}) for w in names]
    lines.append("| failed/attempted | | " + " | ".join(", ".join(s) for s in shares) + " |")
    lines += ["", f"Per-layer metrics of the traced run with seed {TRACED_SEEDS[0]}. Tracing overhead is "
              "the untraced median ops_per_s over the traced run's.", "", head, rule]
    for name, entry in raw[names[0]]["traced"][0]["metrics"].items():
        values = [raw[w]["traced"][0]["metrics"][name]["value"] for w in names]
        cells = [str(v) if isinstance(v, int) else f"{v:.6g}" for v in values]
        lines.append(f"| {name} | {entry['unit']} | " + " | ".join(cells) + " |")
    overhead = [statistics.median(r["metrics"]["ops_per_s"]["value"] for r in raw[w]["runs"])
                / raw[w]["traced"][0]["metrics"]["trace.ops_per_s"]["value"] for w in names]
    lines.append("| tracing overhead | x | " + " | ".join(f"{o:.2f}" for o in overhead) + " |")
    exponents = [", ".join(f"{t['metrics']['verify.run_genus.h_exponent']['value']:.3f}" for t in raw[w]["traced"])
                 for w in names]
    lines.append(f"| h_exponent, traced seeds {TRACED_SEEDS[0]}..{TRACED_SEEDS[-1]} | exponent | "
                 + " | ".join(exponents) + " |")
    return "\n".join(lines)


def main() -> int:
    raw = {}
    for workload in (w["name"] for w in SPEC["workloads"]):
        runs = [one_run(workload, s, 0) for s in SEEDS]
        traced = [one_run(workload, s, 1) for s in TRACED_SEEDS]
        raw[workload] = {"runs": runs, "traced": traced}
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    (out / "report.json").write_text(json.dumps(raw, indent=1))
    print(render(raw))
    return 0


if __name__ == "__main__":
    sys.exit(main())
