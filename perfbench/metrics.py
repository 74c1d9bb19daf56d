"""Metric definitions and the printed tables of the benchmark.

End-to-end metrics come from plain runs; per-layer metrics from traced
runs.  Time metrics derived from spans are *self* time; ``*_ms`` figures
without another denominator are per view.  See README.md for the layer ->
metric -> workload map.
"""

from __future__ import annotations

import os
import statistics
import time

import spans

#: End-to-end metrics reported in the JSON result of a plain run.
END_TO_END = ("setup_s", "views_per_s", "view_p50_ms", "view_p90_ms", "peak_rss_mb")

UNITS = {
    "setup_s": "s",
    "views_per_s": "1/s",
    "view_p50_ms": "ms",
    "view_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "views_failed_pct": "%",
    "relations.build_ms": "ms",
    "workflow_privacy.evaluations": "count",
    "workflow_privacy.search_self_ms": "ms",
    "workflow_privacy.mask_ms": "ms",
    "coordinator.submit_ms": "ms",
    "coordinator.collect_wait_ms": "ms",
    "coordinator.batches": "count",
    "coordinator.tasks_per_batch": "count",
    "protocol.encode_ms": "ms",
    "protocol.decode_ms": "ms",
    "protocol.frame_bytes": "bytes",
    "transport.rtt_p50_ms": "ms",
    "transport.rtt_p90_ms": "ms",
    "security.handshake_ms": "ms",
    "server.queue_wait_ms": "ms",
    "server.queue_wait_light_ms": "ms",
    "server.queue_wait_heavy_ms": "ms",
    "server.batch_ms": "ms",
    "server.resident_kernels": "count",
    "kernel_registry.stats_ms": "ms",
    "kernel_registry.partition_build_ms": "ms",
    "kernel_registry.strata_build_ms": "ms",
    "kernel_registry.entry_ms": "ms",
    "kernel_registry.hit_frac": "ratio",
    "engine.execute_ms": "ms",
    "host.calib_before_ms": "ms",
    "host.calib_after_ms": "ms",
    "trace.views_per_s": "1/s",
}

#: Additions in one host-speed probe loop.
PROBE_LOOP = 40_000
#: The probe's time on the reference host, the speed every time metric is
#: scaled to: about what it took on a quiet 2-core Xeon VM.
REFERENCE_PROBE_MS = 1.44

#: ``workflow_privacy.evaluations`` averages the first views of each
#: thread's seeded sequence, so it repeats exactly run to run.
EVALUATION_PREFIX = 10


def loop_ms(additions: int) -> float:
    """Milliseconds for a fixed pure-Python loop of ``additions`` additions."""
    started = time.perf_counter()
    total = 0
    for value in range(additions):
        total += value
    return (time.perf_counter() - started) * 1000.0


def host_factor(cpus: list[int] | None = None) -> float:
    """How much faster the host runs now than the reference host.

    The probe is the median of three probe loops (about 5 ms in all),
    taken right before the work it scales and with the clock of that
    work stopped; with ``cpus`` the calling thread takes one probe on
    each of those CPUs in turn (the CPUs the work runs on) and the probe
    times are averaged.  A time measured now, multiplied by this factor,
    is the time the reference host would have taken, which cancels most
    of the speed changes of a shared host between runs and within one.
    """
    def probe() -> float:
        return statistics.median(loop_ms(PROBE_LOOP) for _ in range(3))

    if not cpus:
        return REFERENCE_PROBE_MS / probe()
    home = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            times.append(probe())
    finally:
        os.sched_setaffinity(0, home)
    return REFERENCE_PROBE_MS / statistics.fmean(times)


def _quantile(values: list[float], fraction: float) -> float:
    """Linearly interpolated quantile (``statistics`` inclusive method)."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(fraction * 100) - 1]


def _mean(values: list[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def _ok_latencies(result: dict) -> list[float]:
    """Latencies of the correct views, scaled to the reference host."""
    return [view["latency_ms"] * view["factor"] for view in result["views"] if view["ok"]]


def end_to_end(result: dict, setups: list[tuple[float, float]], server_rss_kb: int) -> dict:
    """The end-to-end metrics of one run (plus ``views_failed_pct``).

    Every time is scaled to the reference host by the ``host_factor()``
    probed next to it: ``setups`` holds (seconds, factor) pairs, every
    view carries its ``factor``, and ``scaled_wall_s`` is the timed
    loop's wall time scaled piece by piece.
    """
    latencies = _ok_latencies(result)
    return {
        "setup_s": statistics.median(seconds * factor for seconds, factor in setups),
        "views_per_s": len(latencies) / result["scaled_wall_s"],
        "view_p50_ms": _quantile(latencies, 0.5),
        "view_p90_ms": _quantile(latencies, 0.9),
        "peak_rss_mb": (result["rss_kb"] + server_rss_kb) / 1024.0,
        "views_failed_pct": 100.0 * result["failed"] / max(1, result["attempted"]),
    }


def merge_results(results: list[dict]) -> dict:
    """One client result from the timed launches of a run, in order.

    Views, counts, walls and kernel counters add up; the calibration
    before is the first launch's, after the last's; the server stats
    (resident kernels at the end) are the last launch's.
    """
    if len(results) == 1:
        return results[0]
    first, last = results[0], results[-1]
    kernel_stats: dict[str, float] = {}
    for result in results:
        for key, value in result["kernel_stats"].items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                kernel_stats[key] = kernel_stats.get(key, 0) + value
    merged = {
        "wall_s": sum(result["wall_s"] for result in results),
        "scaled_wall_s": sum(result["scaled_wall_s"] for result in results),
        "attempted": sum(result["attempted"] for result in results),
        "failed": sum(result["failed"] for result in results),
        "failures": [f for result in results for f in result["failures"]][:20],
        "views": [view for result in results for view in result["views"]],
        "calib_before_ms": first["calib_before_ms"],
        "calib_after_ms": last["calib_after_ms"],
        "rss_kb": max(result["rss_kb"] for result in results),
        "coordinators": [c for result in results for c in result["coordinators"]],
        "kernel_stats": kernel_stats,
        "server_stats": last["server_stats"],
        "trace": None,
    }
    if first["trace"] is not None:
        merged["trace"] = spans.merge_dumps([result["trace"] for result in results])
    if "server_trace" in first:
        merged["server_trace"] = spans.merge_dumps(
            [result["server_trace"] for result in results]
        )
    return merged


def _tenth_means(result: dict) -> tuple[float, float]:
    """Mean scaled latency of the first and last tenth of view positions.

    A view's position counts from the start of its launch, so in an
    episodic run these are the episodes' first and last views.
    """
    views = sorted(
        (view for view in result["views"] if view["ok"]), key=lambda view: view["position"]
    )
    latencies = [view["latency_ms"] * view["factor"] for view in views]
    tenth = max(1, len(latencies) // 10)
    return (
        statistics.fmean(latencies[:tenth]) if latencies else 0.0,
        statistics.fmean(latencies[-tenth:]) if latencies else 0.0,
    )


def prefix_evaluations(result: dict) -> float:
    """Mean evaluations of each thread's first ``EVALUATION_PREFIX`` views."""
    return _mean(
        [
            view["evaluations"]
            for view in result["views"]
            if view["index"] < EVALUATION_PREFIX and view["evaluations"] is not None
        ]
    )


def format_run(result: dict, setups: list[tuple[float, float]], values: dict) -> str:
    """Human-readable end-to-end table of one run."""
    latencies = _ok_latencies(result)
    raw = [view["latency_ms"] for view in result["views"] if view["ok"]]
    factors = [view["factor"] for view in result["views"]]
    first, last = _tenth_means(result)
    beyond_p90 = sum(1 for value in latencies if value > values["view_p90_ms"])
    before, after = result["calib_before_ms"], result["calib_after_ms"]
    drift = max(before, after) / min(before, after) - 1.0
    lines = [
        f"  views: {len(latencies)} completed of {result['attempted']} attempted "
        f"in {result['wall_s']:.2f} s; {beyond_p90} beyond p90"
        + ("" if beyond_p90 >= 10 else " (fewer than 10: p90 rests on few views)"),
        f"  set-ups (s, as measured): {', '.join(f'{value:.3f}' for value, _ in setups)}",
        f"  host factor (reference probe / probe): set-ups "
        f"{', '.join(f'{factor:.3f}' for _, factor in setups)}; views "
        f"{min(factors, default=0.0):.3f}-{max(factors, default=0.0):.3f}, "
        f"median {statistics.median(factors) if factors else 0.0:.3f}",
        f"  as measured, unscaled: {len(raw) / result['wall_s']:.4f} views/s, "
        f"p50 {_quantile(raw, 0.5):.2f} ms, p90 {_quantile(raw, 0.9):.2f} ms, "
        f"set-up {statistics.median(value for value, _ in setups):.4f} s",
        f"  mean view latency (scaled), first tenth {first:.2f} ms, last tenth {last:.2f} ms",
        f"  host calibration loop: {before:.2f} ms before, {after:.2f} ms after"
        + (f" (host speed moved {100.0 * drift:.0f}% during the run)" if drift > 0.2 else ""),
        f"  workflow_privacy.evaluations, mean of the first {EVALUATION_PREFIX} "
        f"views per thread: {prefix_evaluations(result):.4f}",
    ]
    for name in (*END_TO_END, "views_failed_pct"):
        lines.append(f"  {name:<22} {values[name]:>12.4f} {UNITS[name]}")
    return "\n".join(lines)


def per_layer(result: dict) -> tuple[dict, str]:
    """Per-layer metrics of a traced run, and the printed layer table."""
    trace = result["trace"]
    server_trace = result.get("server_trace") or {"totals": [], "samples": {}}
    client = spans.self_times(trace, views_only=True)
    everything = spans.self_times(trace, views_only=False)
    server = spans.self_times(server_trace, views_only=False)
    samples = dict(trace["samples"])
    samples["frame_bytes"] = samples.get("frame_bytes", []) + server_trace[
        "samples"
    ].get("frame_bytes", [])
    views = [view for view in result["views"] if view["ok"]]
    count = max(1, len(views))

    def both(name: str) -> float:
        """Self ms of ``name`` summed over the client's views and the server."""
        return sum(table[name]["self_ms"] for table in (client, server) if name in table)

    def per_call(table: dict, name: str, field: str = "total_ms") -> float:
        row = table.get(name)
        return row[field] / row["count"] if row else 0.0

    batches = sum(stats["batches"] for stats in result["coordinators"])
    tasks = sum(stats["tasks"] for stats in result["coordinators"])
    kernel = result["kernel_stats"]
    hits = kernel.get("kernel_hits", 0)
    passes = kernel.get("grouping_passes", 0)
    rtt = samples.get("rtt_ms", [])
    waits = [
        value
        for key, values in samples.items()
        if key.startswith("queue_wait_ms.")
        for value in values
    ]
    layers = {
        "relations.build_ms": per_call(client, "relations.build"),
        "workflow_privacy.evaluations": prefix_evaluations(result),
        "workflow_privacy.search_self_ms": both("workflow_privacy.search") / count,
        "workflow_privacy.mask_ms": both("workflow_privacy.mask") / count,
        "coordinator.submit_ms": both("coordinator.submit") / count,
        "coordinator.collect_wait_ms": both("coordinator.collect") / count,
        "coordinator.batches": batches / count,
        "coordinator.tasks_per_batch": tasks / batches if batches else 0.0,
        "protocol.encode_ms": both("protocol.encode") / count,
        "protocol.decode_ms": both("protocol.decode") / count,
        "protocol.frame_bytes": _mean(samples["frame_bytes"]),
        "transport.rtt_p50_ms": _quantile(rtt, 0.5),
        "transport.rtt_p90_ms": _quantile(rtt, 0.9),
        "security.handshake_ms": per_call(everything, "security.handshake"),
        "server.queue_wait_ms": _mean(waits),
        "server.queue_wait_light_ms": _mean(samples.get("queue_wait_ms.light", [])),
        "server.queue_wait_heavy_ms": _mean(samples.get("queue_wait_ms.heavy", [])),
        "server.batch_ms": per_call(server, "server.batch", "self_ms"),
        "server.resident_kernels": float(result["server_stats"].get("kernels", 0)),
        "kernel_registry.stats_ms": both("kernel_registry.stats") / batches if batches else 0.0,
        "kernel_registry.partition_build_ms": kernel.get("partition_build_ms", 0.0) / count,
        "kernel_registry.strata_build_ms": kernel.get("strata_build_ms", 0.0) / count,
        "kernel_registry.entry_ms": both("kernel_registry.entry") / count,
        "kernel_registry.hit_frac": hits / (hits + passes) if hits + passes else 0.0,
        "engine.execute_ms": per_call(client, "engine.execute"),
        "host.calib_before_ms": result["calib_before_ms"],
        "host.calib_after_ms": result["calib_after_ms"],
        "trace.views_per_s": len(views) / result["scaled_wall_s"],
    }

    view_ms = _mean([view["latency_ms"] for view in views])
    kernel_ms = sum(
        both(f"kernel_registry.{phase}") for phase in ("partition", "strata", "entry")
    ) / count
    lines = [
        f"  per-layer self time ({len(views)} views, mean view {view_ms:.2f} ms; "
        f"server spans are not view-attributed and are divided by the view count)",
        f"  {'span':<30} {'side':<7} {'calls':>9} {'self ms/view':>13} {'share':>7}",
    ]
    for side, table in (("client", client), ("server", server)):
        for name, row in sorted(table.items(), key=lambda item: -item[1]["self_ms"]):
            per_view = row["self_ms"] / count
            share = 100.0 * per_view / view_ms if view_ms and side == "client" else 0.0
            lines.append(
                f"  {name:<30} {side:<7} {row['count']:>9} {per_view:>13.3f} "
                + (f"{share:>6.1f}%" if side == "client" else "      -")
            )
    lines.append(
        f"  kernel partition + strata + entry share of view time: "
        f"{100.0 * kernel_ms / view_ms if view_ms else 0.0:.1f}%"
    )
    for name, value in layers.items():
        lines.append(f"  {name:<36} {value:>12.4f} {UNITS[name]}")
    return layers, "\n".join(lines)
