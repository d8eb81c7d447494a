"""Statistics and trace post-processing for the repository benchmark.

run.py feeds the runner's raw JSON through these functions; test_perfbench.py
covers them.  Nothing here runs the program.
"""

import re
import statistics

# Metric dictionaries: name -> (unit, better).  BENCHMARK.json lists the same
# names; test_perfbench.py keeps the two in step.
END_TO_END = {
    "trials_per_s": ("1/s", "higher"),
    "campaign_ms_p50": ("ms", "lower"),
    "campaign_ms_tail": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "sdc_coverage_pct": ("%", "higher"),
    "ft_overhead_pct": ("%", "lower"),
}

ENGINES = ("fast", "reference", "sanitizer", "threaded")

# Per-layer metrics taken as the median duration of the named spans.
SPAN_MEDIANS = {
    "workloads.build_kernel_ms": "workloads.build_kernel",
    "workloads.make_dataset_ms": "workloads.make_dataset",
    "hauberk.build_variants_ms": "hauberk.build_variants",
    "hauberk.profile_ms": "hauberk.profile",
    "hauberk.control_block_ms": "hauberk.control_block",
    "kir.prune_facts_ms": "kir.prune_facts",
    "gpusim.device_ctor_ms": "gpusim.device_ctor",
    "swifi.context_build_ms": "swifi.context_build",
    "swifi.context_wait_ms": "swifi.context_wait",
    "swifi.golden_ms": "swifi.golden",
    "gpusim.launch_ms": "gpusim.launch",
    "swifi.stage_ms": "swifi.stage",
    "swifi.checkpoint_save_ms": "swifi.checkpoint_save",
    "swifi.memory_trial_ms": "swifi.memory_trial",
}

PER_LAYER = {
    **{name: ("ms", "lower") for name in SPAN_MEDIANS},
    "hauberk.analysis_cache_hit_ratio": ("ratio", "higher"),
    "swifi.prune_kept_ratio": ("ratio", "lower"),
    **{f"gpusim.minstr_per_s.{e}": ("Minstr/s", "higher") for e in ENGINES},
    "swifi.trial_ms_p50": ("ms", "lower"),
    "swifi.trial_ms_tail": ("ms", "lower"),
    "swifi.activated_ratio": ("ratio", "higher"),
    "swifi.resultlog_bytes_per_trial": ("B", "lower"),
    "gpusim.plan_cache_hit_ratio": ("ratio", "higher"),
    "gpusim.ecc_corrected_per_trial": ("count", "higher"),
    "swifi.parallel_efficiency": ("ratio", "higher"),
    "bench.traced_trials_per_s": ("1/s", "higher"),
    "bench.host_ref_ms": ("ms", "lower"),
}

# Per-layer values the runner computes itself (counters, rates).
RUNNER_LAYER_VALUES = (
    "hauberk.analysis_cache_hit_ratio",
    "swifi.prune_kept_ratio",
    *(f"gpusim.minstr_per_s.{e}" for e in ENGINES),
    "swifi.activated_ratio",
    "swifi.resultlog_bytes_per_trial",
    "gpusim.plan_cache_hit_ratio",
    "gpusim.ecc_corrected_per_trial",
    "swifi.parallel_efficiency",
)

LAYERS = ("bench", "workloads", "kir", "hauberk", "gpusim", "swifi")

# End-to-end host times are scaled to a nominal host speed.  The runner times
# a fixed slice of host work that uses no repository code (zeroing a fresh
# 64 MiB buffer and a branchy dispatch loop) between campaigns; on a shared
# host its time drifts by a quarter within minutes, and campaign times drift
# with it.  Each timed interval is scaled by HOST_REFERENCE_MS over the slice
# times sampled just before and just after it.  That cancels the drift and
# leaves every change to the repository's own code visible.
HOST_REFERENCE_MS = 100.0

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def valid_metric_name(name):
    """A metric name: starts with a letter or digit, then letters, digits,
    '_', '.' and '-', at most 64 characters."""
    return isinstance(name, str) and _NAME.fullmatch(name) is not None


def tail(values):
    """The highest percentile with at least 10 samples beyond it.

    Returns (value, percentile, n).  Of n sorted samples, the one at index
    n - 11 has exactly 10 samples above it, and its percentile rank is
    100 * (n - 10) / n.  Below 20 samples that rank would fall under the
    median, so the maximum is reported instead, as percentile 100.
    """
    s = sorted(values)
    n = len(s)
    if n == 0:
        raise ValueError("tail of no samples")
    if n < 20:
        return s[-1], 100.0, n
    return s[n - 11], 100.0 * (n - 10) / n, n


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of `intervals`."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total, end = 0.0, lo
    for a, b in clipped:
        a = max(a, end)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    that its direct child spans cover.  Wait spans are neither busy nor
    children; they get self time 0."""
    children = [[] for _ in spans]
    for s in spans:
        if not s["wait"] and s["parent"] >= 0:
            children[s["parent"]].append((s["start"], s["end"]))
    out = []
    for s, kids in zip(spans, children):
        if s["wait"]:
            out.append(0.0)
        else:
            dur = s["end"] - s["start"]
            out.append(dur - _covered(kids, s["start"], s["end"]))
    return out


def layer_of(name):
    return name.split(".", 1)[0]


def layer_summary(spans):
    """Per layer: span count, busy, self and wait time in seconds.

    Busy time counts each span that has no enclosing span of the same layer,
    so nested calls within one layer are not counted twice.  Wait time sums
    the layer's wait spans (work blocked on that layer).
    """
    selfs = self_times(spans)
    summary = {}
    for i, s in enumerate(spans):
        layer = layer_of(s["name"])
        row = summary.setdefault(layer, {"count": 0, "busy_s": 0.0, "self_s": 0.0, "wait_s": 0.0})
        dur = s["end"] - s["start"]
        if s["wait"]:
            row["wait_s"] += dur
            continue
        row["count"] += 1
        row["self_s"] += selfs[i]
        p = s["parent"]
        while p >= 0 and layer_of(spans[p]["name"]) != layer:
            p = spans[p]["parent"]
        if p < 0:
            row["busy_s"] += dur
    return summary


def format_summary(summary):
    lines = [f"{'layer':<10} {'count':>7} {'busy s':>10} {'self s':>10} {'wait s':>10}"]
    for layer in sorted(summary, key=lambda k: (LAYERS.index(k) if k in LAYERS else 99, k)):
        r = summary[layer]
        lines.append(f"{layer:<10} {r['count']:>7} {r['busy_s']:>10.3f} {r['self_s']:>10.3f} "
                     f"{r['wait_s']:>10.3f}")
    return "\n".join(lines)


def chrome_trace(spans):
    """Spans as Chrome trace-event JSON (complete 'X' events, microseconds)."""
    events = []
    for i, s in enumerate(spans):
        events.append({
            "name": s["name"],
            "cat": "wait" if s["wait"] else layer_of(s["name"]),
            "ph": "X",
            "ts": s["start"] * 1e6,
            "dur": (s["end"] - s["start"]) * 1e6,
            "pid": 1,
            "tid": s["thread"],
            "args": {"id": i, "parent": s["parent"], "campaign": s["campaign"]},
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def failed_ratio(attempted, failed):
    """Operations that raised an error or failed the output check, over
    operations attempted."""
    if attempted < 1:
        raise ValueError("no operations attempted")
    return failed / attempted


def host_ref_around(host, start, end):
    """Mean host-reference time (ms) of the last sample that began before
    `start` and the first that began after `end`; `host` is the runner's
    time-ordered [[at_s, ms], ...] list."""
    before = [ms for at, ms in host if at <= start]
    after = [ms for at, ms in host if at >= end]
    near = before[-1:] + after[:1]
    if not near:
        raise ValueError("no host reference sample around a timed interval")
    return sum(near) / len(near)


def end_to_end_metrics(raw, peak_rss_mb):
    """The end-to-end metrics of one untraced run, host times scaled to the
    nominal host speed, and notes (values as measured, tail percentile and
    sample count) for printing."""
    host = raw["host"]
    measured_ms, scaled_ms = [], []
    for c in raw["campaigns"]:
        ms = (c["end_s"] - c["start_s"]) * 1e3
        measured_ms.append(ms)
        scaled_ms.append(ms * HOST_REFERENCE_MS / host_ref_around(host, c["start_s"], c["end_s"]))
    tail_ms, tail_pct, n = tail(scaled_ms)
    setup_scale = HOST_REFERENCE_MS / host_ref_around(host, *raw["setup_window_s"])
    values = {
        "trials_per_s": raw["trials"] / (sum(scaled_ms) / 1e3),
        "campaign_ms_p50": statistics.median(scaled_ms),
        "campaign_ms_tail": tail_ms,
        "setup_s": statistics.median(raw["setup_s"]) * setup_scale,
        "peak_rss_mb": peak_rss_mb,
        "sdc_coverage_pct": raw["sim"]["coverage_pct"],
        "ft_overhead_pct": raw["ft_overhead_pct"],
    }
    measured = {
        "trials_per_s": raw["trials"] / (sum(measured_ms) / 1e3),
        "campaign_ms_p50": statistics.median(measured_ms),
        "campaign_ms_tail": tail(measured_ms)[0],
        "setup_s": statistics.median(raw["setup_s"]),
    }
    notes = {name: f"measured {value:.4f}" for name, value in measured.items()}
    notes["campaign_ms_tail"] += f", p{tail_pct:.1f} of n={n} campaigns"
    return values, notes


def per_layer_metrics(raw):
    """The per-layer metrics of one traced run."""
    spans = raw["spans"]
    durations = {}
    for s in spans:
        durations.setdefault(s["name"], []).append((s["end"] - s["start"]) * 1e3)
    values, notes = {}, {}
    for metric, span in SPAN_MEDIANS.items():
        if span not in durations:
            raise KeyError(f"traced run recorded no '{span}' span")
        values[metric] = statistics.median(durations[span])
    trial_ms = durations.get("swifi.trial", [])
    values["swifi.trial_ms_p50"] = statistics.median(trial_ms)
    values["swifi.trial_ms_tail"], pct, n = tail(trial_ms)
    notes["swifi.trial_ms_tail"] = f"p{pct:.1f} of n={n} sampled trials"
    for name in RUNNER_LAYER_VALUES:
        values[name] = raw["layer"][name]
    # Scaled like the end-to-end trials_per_s, so the two compare directly.
    values["bench.traced_trials_per_s"] = end_to_end_metrics(raw, 0.0)[0]["trials_per_s"]
    values["bench.host_ref_ms"] = statistics.median(ms for _, ms in raw["host"])
    return values, notes
