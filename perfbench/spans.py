"""Spans recorded around the benchmark's own calls into parkfun.

A span is (name, start, end, parent, op id, attrs); spans live in memory
and are written out when the run ends. Nothing inside parkfun is wrapped:
each span covers one call from the benchmark into a module's public
function, or one whole op.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager, nullcontext


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, op_id: int, **attrs):
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._open[-1] if self._open else None,
            "op": op_id,
            "attrs": attrs,
        }
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield attrs
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def resolve(self) -> None:
        """Evaluate attrs given as zero-argument callables. They hold counts
        that cost work to find, so they are worked out after the run, outside
        every timed region."""
        for s in self.spans:
            for key, value in s["attrs"].items():
                if callable(value):
                    s["attrs"][key] = value()


class NullTracer:
    """Stands in for Tracer in timed runs; records nothing."""

    def span(self, name: str, op_id: int, **attrs):
        return nullcontext(attrs)


# Per-layer metrics: name -> unit. Derived from the spans of a traced pass;
# a metric whose layer the workload never calls reads 0.
LAYER_METRICS = {
    "friendship.count_fpf_brute.ms": "ms",
    "friendship.brute_fibre_counts.ms": "ms",
    "friendship.sweep_ns_per_pref": "ns",
    "friendship.enumerate_fpf.ms": "ms",
    "friendship.enumerate_fpf.items": "items/call",
    "friendship.enumerate_fpf.yield_ratio": "ratio",
    "cyclic.count_cyclic_brute.ms": "ms",
    "cyclic.sweep_ns_per_pref": "ns",
    "cyclic.enumerate_cyclic_pf.ms": "ms",
    "cyclic.enumerate_cyclic_pf.items": "items/call",
    "cyclic.cyclic_total_count.ms": "ms",
    "cyclic.psi.ms": "ms",
    "cyclic.psi_inverse.ms": "ms",
    "cyclic.inv_seq.ms": "ms",
    "cyclic.perm_from_inv_seq.ms": "ms",
    "structure.total_fpf_count.ms": "ms",
    "structure.paths": "count",
    "structure.us_per_path": "us",
    "structure.fibre_size.ms": "ms",
    "structure.enumerate_fibre.ms": "ms",
    "structure.enumerate_fibre.items": "items/call",
    "cycle.cycle_total_count.ms": "ms",
    "verify.props.ms": "ms",
    "verify.cycle.ms": "ms",
    "verify.bijection.ms": "ms",
    "cli.import_ms": "ms",
    "cli.park.ms": "ms",
    "cli.fibre.ms": "ms",
    "cli.count.ms": "ms",
    "cli.bijection.ms": "ms",
    "cli.verify.ms": "ms",
    "cli.validate-report.ms": "ms",
    "cli.offcpu_ms": "ms",
    "limits.refusals": "count",
    "trace.overhead_frac": "frac",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[dict], overhead_frac: float) -> dict[str, float]:
    """Reduce spans to the LAYER_METRICS values. Each span's time is
    multiplied by its "scale", the speed factor of the op it belongs to."""
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def durations(name):
        return [(s["end"] - s["start"]) * s["scale"] for s in by_name.get(name, ())]

    def total(name, key):
        return sum(s["attrs"][key] for s in by_name.get(name, ()))

    values = {}
    for metric in LAYER_METRICS:
        if metric.endswith(".ms"):
            d = durations(metric[: -len(".ms")])
            values[metric] = _ratio(sum(d) * 1e3, len(d))
        elif metric.endswith(".items"):
            name = metric[: -len(".items")]
            values[metric] = _ratio(total(name, "items"), len(by_name.get(name, ())))

    sweeps = ("friendship.count_fpf_brute", "friendship.brute_fibre_counts")
    values["friendship.sweep_ns_per_pref"] = _ratio(
        sum(sum(durations(n)) for n in sweeps) * 1e9, sum(total(n, "prefs") for n in sweeps)
    )
    values["friendship.enumerate_fpf.yield_ratio"] = _ratio(
        total("friendship.enumerate_fpf", "items"), total("friendship.enumerate_fpf", "prefs")
    )
    values["cyclic.sweep_ns_per_pref"] = _ratio(
        sum(durations("cyclic.count_cyclic_brute")) * 1e9,
        total("cyclic.count_cyclic_brute", "prefs"),
    )
    paths = total("structure.total_fpf_count", "paths")
    values["structure.paths"] = paths
    values["structure.us_per_path"] = _ratio(
        sum(durations("structure.total_fpf_count")) * 1e6, paths
    )
    probes = durations("cli.import")
    values["cli.import_ms"] = statistics.median(probes) * 1e3 if probes else 0.0
    calls = [s for s in spans if s["name"].startswith("cli.") and "cpu_s" in s["attrs"]]
    values["cli.offcpu_ms"] = _ratio(
        sum((s["end"] - s["start"] - s["attrs"]["cpu_s"]) * s["scale"] for s in calls) * 1e3,
        len(calls),
    )
    values["limits.refusals"] = sum(1 for s in calls if s["attrs"].get("refused"))
    values["trace.overhead_frac"] = overhead_frac
    return values
