"""Quick self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload for a few ops, untraced and traced, and checks that
each metric BENCHMARK.json names comes out with its unit. Then it injects a
wrong reference and checks that the ops it judges fail, and checks that the
benchmark refuses to run without the parkfun sources. Exits 0 when all hold.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def emitted(problems: list[str]) -> None:
    for w in SPEC["workloads"]:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            report = run.run(w["name"], 7, 0, trace, min_ops=3, setup_repeats=False)
            result = report["result"]
            if not result["correct"]:
                problems.append(f"{w['name']} trace={trace:d}: {report['failures']}")
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            got = {k: m["unit"] for k, m in result["metrics"].items()}
            if got != want:
                problems.append(f"{w['name']} trace={trace:d}: metrics {got} != {want}")
            if any(not isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
                problems.append(f"{w['name']} trace={trace:d}: a metric is not a number")


def wrong_reference_caught(problems: list[str]) -> None:
    import oracles
    import workloads

    honest = oracles.cyclic_total
    oracles.cyclic_total = lambda n: honest(n) + 1
    try:
        for name in ("structure_forms", "cli_calls"):
            one_round = workloads.WORKLOADS[name].round_len
            report = run.run(name, 7, 0, False, min_ops=one_round, setup_repeats=False)
            if report["result"]["correct"] or report["result"]["failed"] < 1:
                problems.append(f"{name}: a wrong cyclic_total reference went unnoticed")
    finally:
        oracles.cyclic_total = honest


def refuses_without_sources(problems: list[str]) -> None:
    bare = run.OUT / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "count_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        problems.append(f"ran without parkfun sources: exit {proc.returncode}, stdout {proc.stdout!r}")


def main() -> int:
    problems: list[str] = []
    emitted(problems)
    wrong_reference_caught(problems)
    refuses_without_sources(problems)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest: ok" if not problems else f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
