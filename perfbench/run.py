"""parkfun benchmark: one closed-loop client running a seeded workload.

    python3 perfbench/run.py --workload count_sweep --seed 1 --seconds 20 --trace 0

With --trace 0 the run measures the end-to-end metrics with tracing off.
With --trace 1 it runs the same ops twice, untraced and then traced, and
reports the per-layer metrics derived from the spans plus the tracing
overhead. Every op's result is checked after the timed region; the last
line of stdout is one JSON object {correct, attempted, failed, metrics},
and the exit code is 0 only when every op passed. Full results, the
machine facts and any spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_OPS = 100  # so that at least 10 latency samples lie above p90
SETUP_SAMPLES = 3  # this process plus two set-up-only child processes
HARD_LIMIT_S = 120.0  # the op loop stops here even below MIN_OPS
SETUP_PROBE_REF_S = 0.0015  # set-up times are scaled to this oracles.speed_probe time

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
}


class SetupError(RuntimeError):
    pass


def setup(name: str, seed: int):
    """Import parkfun, generate the seeded inputs and warm up. Returns the
    time taken, scaled by the probes run just before and after, the
    workload and its module."""
    sys.path[:0] = [str(SRC), str(HERE)]
    from oracles import speed_probe

    before = speed_probe()
    t0 = time.perf_counter()
    try:
        import workloads
    except ImportError as e:
        raise SetupError(f"cannot import parkfun from {SRC}: {e}") from None
    if not Path(workloads.pf.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"parkfun was imported from {workloads.pf.__file__}, not {SRC}")
    wl = workloads.WORKLOADS[name](seed, OUT)
    wl.warm_up()
    seconds = time.perf_counter() - t0
    return seconds * 2 * SETUP_PROBE_REF_S / (before + speed_probe()), wl, workloads


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


# On a shared machine the speed of the same code swings by up to 1.8x within
# seconds as neighbours load the host. So a fixed speed probe runs before the
# first op and after every op, outside the timed region, and each op's times
# are multiplied by the workload's probe_ref_s over the mean of the two
# probes around it: times at one fixed probe speed.


def op_loop(wl, tr, seconds: float, min_ops: int, n_ops: int | None = None) -> dict:
    """Run ops in list order, one at a time, until `seconds` have passed and
    `min_ops` are done, or exactly `n_ops` when that is given.

    Returns per-op wall and CPU seconds, both scaled to the probe speed, and
    the raw wall seconds and speed factors they were scaled with.
    """
    raw_wall, cpus, scales, results = [], [], [], []
    probe = wl.probe()
    start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - start
        if n_ops is not None:
            if i >= n_ops:
                break
        elif (elapsed >= seconds and i >= min_ops) or elapsed >= HARD_LIMIT_S:
            break
        op = wl.ops[i % len(wl.ops)]
        cpu0 = _cpu_s()
        t0 = time.perf_counter()
        try:
            with tr.span(f"op.{op.kind}", i):
                raw = wl.execute(op, tr, i)
            error = None
        except Exception as e:  # an op that raises is counted as failed
            raw, error = None, f"{op.kind} raised {e!r}"
        raw_wall.append(time.perf_counter() - t0)
        cpus.append(_cpu_s() - cpu0)
        results.append((op, None if error else wl.summarise(op, raw), error))
        raw = None  # free this op's result before the next op, so peak memory is one op's
        after = wl.probe()
        scales.append(2 * wl.probe_ref_s / (probe + after))
        probe = after
        i += 1
    return {
        "latencies": [t * f for t, f in zip(raw_wall, scales)],
        "cpus": [c * f for c, f in zip(cpus, scales)],
        "raw_latencies": raw_wall,
        "scales": scales,
        "results": results,
    }


def check_all(wl, results) -> list[str]:
    failures = []
    for op, summary, error in results:
        if error is None:
            try:
                error = wl.check(op, summary)
            except Exception as e:  # a check that raises fails its op
                error = f"{op.kind} check raised {e!r}"
        if error:
            failures.append(error)
    return failures


def setup_samples(name: str, seed: int, children) -> list[float]:
    """Set-up times of fresh processes, run one after another."""
    times = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = children.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
             "--setup-only"],
            cwd=ROOT,
        )
        if proc.returncode != 0:
            raise SetupError(f"set-up child failed: {proc.stderr.strip()[-300:]}")
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return times


def op_digest(ops) -> str:
    text = repr([(op.kind, op.params) for op in ops])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_facts(children_peak: int) -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "parkfun").rglob("*")):
        if path.suffix in (".py", ".json"):
            digest.update(path.relative_to(SRC).as_posix().encode() + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "git_commit": _git_commit(),
        "source_sha256": digest.hexdigest()[:16],
        "sweep_workers": 1,
        "max_procs": 1 + children_peak,
    }


def _quantiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    cuts = statistics.quantiles(values, n=10, method="inclusive")
    return cuts[4], cuts[8]


def run(name: str, seed: int, seconds: float, trace: bool, min_ops: int = MIN_OPS,
        setup_repeats: bool = True) -> dict:
    setup_s, wl, workloads = setup(name, seed)
    from spans import LAYER_METRICS, NullTracer, Tracer, layer_metrics

    report: dict = {"workload": name, "seed": seed, "trace": int(trace),
                    "ops_generated": len(wl.ops), "op_digest": op_digest(wl.ops)}
    if not trace:
        timed = op_loop(wl, NullTracer(), seconds, min_ops)
        kids_rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        own_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        results = timed["results"]
    else:
        plain = op_loop(wl, NullTracer(), seconds / 2, min(min_ops, wl.round_len))
        tr = Tracer()
        traced = op_loop(wl, tr, 0, 0, n_ops=len(plain["results"]))
        if name == "cli_calls":
            for _ in range(5):
                with tr.span("cli.import", -1):
                    workloads.CHILDREN.run([sys.executable, "-c", "import parkfun"],
                                           env=wl.env, cwd=ROOT)
        tr.resolve()
        results = plain["results"] + traced["results"]
        overhead = 1.0 - sum(plain["latencies"]) / sum(traced["latencies"])

    failures = check_all(wl, results)
    attempted = len(results)
    report["failures"] = failures[:20]
    report["failed_frac"] = len(failures) / attempted

    if not trace:
        samples = [setup_s] + (setup_samples(name, seed, workloads.CHILDREN) if setup_repeats else [])
        lat = timed["latencies"]
        p50, p90 = _quantiles(lat)
        metrics = {
            "setup_s": statistics.median(samples),
            "ops_per_s": len(lat) / sum(lat),
            "op_p50_ms": p50 * 1e3,
            "op_p90_ms": p90 * 1e3,
            "cpu_ms_per_op": sum(timed["cpus"]) / len(lat) * 1e3,
            "peak_rss_mb": (kids_rss_kb if name == "cli_calls" else own_rss_kb) / 1024,
        }
        units = END_TO_END
        report["setup_samples_s"] = samples
        report["latency_samples"] = len(lat)
        report["samples_above_p90"] = sum(1 for x in lat if x > p90)
        report["raw_latencies_ms"] = [x * 1e3 for x in timed["raw_latencies"]]
        report["speed_factors"] = timed["scales"]
    else:
        scales = dict(enumerate(traced["scales"]))
        for span in tr.spans:
            span["scale"] = scales.get(span["op"], traced["scales"][-1])
        metrics = layer_metrics(tr.spans, overhead)
        units = LAYER_METRICS
        report["traced_ops"] = len(traced["results"])
        report["spans"] = tr.spans
    report["facts"] = machine_facts(workloads.CHILDREN.peak)
    report["metrics"] = {k: {"value": metrics[k], "unit": units[k]} for k in units}
    report["result"] = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": report["metrics"],
    }
    return report


def print_report(report: dict) -> None:
    facts = report["facts"]
    print(f"perfbench {report['workload']} seed={report['seed']} trace={report['trace']} "
          f"ops={report['result']['attempted']} of {report['ops_generated']} generated "
          f"(op digest {report['op_digest']})")
    print("machine: " + " ".join(f"{k}={v}" for k, v in facts.items()))
    for name, m in report["metrics"].items():
        print(f"  {name:40s} {m['value']:14.6g} {m['unit']}")
    print(f"  {'failed_frac':40s} {report['failed_frac']:14.6g} frac")
    if "latency_samples" in report:
        print(f"  latency samples: {report['latency_samples']}, "
              f"{report['samples_above_p90']} above p90; median speed factor "
              f"{statistics.median(report['speed_factors']):.3f}; setup samples: "
              + ", ".join(f"{s:.4f}" for s in report["setup_samples_s"]))
    for failure in report["failures"]:
        print(f"  FAILED: {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["count_sweep", "enumerate_sweep", "structure_forms", "cli_calls"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": setup(args.workload, args.seed)[0]}))
            return 0
        report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    OUT.mkdir(parents=True, exist_ok=True)
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report, default=repr))
    print_report(report)
    print(json.dumps(report["result"]))
    return 0 if report["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
