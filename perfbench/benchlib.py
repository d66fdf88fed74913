"""Metric arithmetic for the kcenter benchmark (perfbench/run.py).

Turns the raw result file written by kc_perfbench into the end-to-end
metrics of an untraced run and the per-layer metrics of a traced run.
Pure functions over plain dicts, so perfbench/selftest.py can check them
on synthetic inputs.
"""

import math
import statistics

# Percentiles tried by `tail_percentile`, highest last.
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99)


def nearest_rank(samples, pct):
    """Nearest-rank percentile: the smallest sample with at least pct % of
    the samples at or below it.  Returns (value, samples beyond it)."""
    data = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(data)))
    return data[rank - 1], len(data) - rank


def tail_percentile(samples):
    """The highest percentile of TAIL_LADDER with at least ten samples
    beyond it, as (pct, value, samples beyond, sample count).  With fewer
    than 20 samples no percentile qualifies and the median is returned
    with pct None."""
    best = None
    for pct in TAIL_LADDER:
        value, beyond = nearest_rank(samples, pct)
        if beyond >= 10:
            best = (pct, value, beyond, len(samples))
    if best is None:
        value, beyond = nearest_rank(samples, 50.0)
        best = (None, value, beyond, len(samples))
    return best


def trimmed_mean(values, share=0.2):
    """Mean of `values` without the lowest and the highest `share` of them.
    Unlike the median it moves smoothly with the share of a run spent in a
    slow period of the host (or on slower instances), and unlike the plain
    mean a few stalled iterations do not move it."""
    data = sorted(values)
    cut = int(share * len(data))
    return statistics.mean(data[cut:len(data) - cut])


def union_length(intervals):
    """Total length covered by a set of (start, end) intervals."""
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    that its children cover.  Returns {span id: seconds}."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        clipped = [(max(c["t0"], s["t0"]), min(c["t1"], s["t1"]))
                   for c in children.get(s["id"], [])]
        covered = union_length([(lo, hi) for lo, hi in clipped if hi > lo])
        out[s["id"]] = (s["t1"] - s["t0"]) - covered
    return out


def layer_of(name):
    return name.split(".", 1)[0]


def groups(spans):
    """Spans grouped by phase and repetition: {(phase, index): [spans]}.
    Phase "setup" holds the spans under bench.setup roots; phase "iter"
    those under the bench.iteration and bench.replay roots of one index.
    A span is recorded after its parent, so one pass finds every root."""
    root_of = {}
    out = {}
    for s in spans:
        root = s if s["parent"] == -1 else root_of[s["parent"]]
        root_of[s["id"]] = root
        phase = "setup" if root["name"] == "bench.setup" else "iter"
        index = int(root["counters"].get("group", 0))
        out.setdefault((phase, index), []).append(s)
    return out


class GroupView:
    """Sums over the spans of one group."""

    def __init__(self, spans):
        self.spans = spans

    def named(self, name):
        return [s for s in self.spans if s["name"] == name]

    def dur(self, name):
        return sum(s["t1"] - s["t0"] for s in self.named(name))

    def count(self, name):
        return len(self.named(name))

    def ctr(self, name, key, prefix=False):
        match = [s for s in self.spans
                 if (s["name"].startswith(name) if prefix else s["name"] == name)]
        return sum(s["counters"].get(key, 0.0) for s in match)

    def last_ctr(self, name, key):
        match = self.named(name)
        return match[-1]["counters"].get(key, 0.0) if match else 0.0


def ratio(num, den):
    return num / den if den else 0.0


ENGINE_PIPELINES = ("offline", "mpc-2round", "mpc-1round", "mpc-rround",
                    "stream-insertion")
SELF_LAYERS = ("bench", "core", "dataset", "dynamic", "engine", "mpc",
               "stream")


def iter_layer_metrics(g):
    """Per-layer metrics of one traced iteration (plus its replay)."""
    joins = g.ctr("stream.insert", "joins")
    arrivals = (joins + g.ctr("stream.insert", "new_reps")
                + g.ctr("stream.insert", "recompressions"))
    m = {
        "stream.join_s": g.ctr("stream.insert", "join_s"),
        "stream.new_rep_s": g.ctr("stream.insert", "new_rep_s"),
        "stream.reps_scanned": g.ctr("stream.insert", "reps_scanned"),
        "stream.join_ratio": ratio(joins, arrivals),
        "stream.recompress_s": g.ctr("stream.insert", "recompress_s"),
        "stream.recompressions": g.ctr("stream.insert", "recompressions"),
        "stream.peak_reps": g.last_ctr("stream.summary", "peak_reps"),
        "core.solve_s": g.dur("core.solve"),
        "core.solve_calls": g.count("core.solve"),
        "core.eval_s": g.dur("core.eval"),
        "core.oracle_s": g.dur("core.oracle"),
        "core.oracle_calls": g.count("core.oracle"),
        "core.covering_s": g.dur("core.covering"),
        "core.recompress_s": g.dur("core.recompress"),
        "mpc.map_imbalance": g.ctr("mpc.replay-2round", "map_imbalance"),
        "mpc.partition_s": g.dur("mpc.partition"),
        "mpc.map_s": g.ctr("mpc.mpc-", "map_s", prefix=True),
        "mpc.route_s": g.ctr("mpc.mpc-", "route_s", prefix=True),
        "mpc.deliver_s": g.dur("mpc.deliver"),
        "mpc.deliveries": g.count("mpc.deliver"),
        "mpc.rounds": g.ctr("mpc.mpc-", "rounds", prefix=True),
        "mpc.comm_words": g.ctr("mpc.mpc-", "comm_words", prefix=True),
        "dynamic.insert_s": g.ctr("dynamic.update", "insert_s"),
        "dynamic.delete_s": g.ctr("dynamic.update", "delete_s"),
        "dynamic.updates": (g.ctr("dynamic.update", "inserts")
                            + g.ctr("dynamic.update", "deletes")),
        "dynamic.query_s": g.dur("dynamic.query"),
        "dynamic.query_ok_ratio": ratio(g.ctr("dynamic.query", "ok"),
                                        g.count("dynamic.query")),
        "dynamic.query_level": g.last_ctr("dynamic.query", "level"),
        "dynamic.nonempty_cells": g.last_ctr("dynamic.query", "nonempty_cells"),
        "dynamic.sketch_words": g.ctr("dynamic.words", "sketch_words"),
        "dataset.open_s": g.dur("dataset.open"),
        "dataset.chunk_s": g.dur("dataset.chunk"),
        "dataset.chunks": g.count("dataset.chunk"),
        "dataset.bytes_read": g.ctr("dataset.chunk", "bytes"),
        "dataset.eval_s": g.dur("dataset.eval"),
    }
    for p in ENGINE_PIPELINES:
        m["engine.%s_s" % p] = g.dur("engine." + p)
    own = self_times(g.spans)
    for layer in SELF_LAYERS:
        m["self.%s_s" % layer] = sum(t for s in g.spans
                                     for t in [own[s["id"]]]
                                     if layer_of(s["name"]) == layer)
    return m


def setup_layer_metrics(g):
    return {"workload.generate_s": g.dur("workload.generate"),
            "dataset.write_s": g.dur("dataset.write")}


def root_coverage(spans, root_name):
    """Share of the wall time of the roots named `root_name` that their
    child spans cover."""
    roots = [s for s in spans if s["name"] == root_name and s["parent"] == -1]
    if not roots:
        return 0.0
    own = self_times(spans)
    total = sum(r["t1"] - r["t0"] for r in roots)
    uncovered = sum(own[r["id"]] for r in roots)
    return ratio(total - uncovered, total)


def median_of(dicts):
    keys = dicts[0].keys() if dicts else []
    return {k: statistics.median(d[k] for d in dicts) for k in keys}


def layer_metrics(raw):
    """All per-layer metrics of a traced run, medians over repetitions."""
    grouped = groups(raw["spans"])
    iters = [iter_layer_metrics(GroupView(s))
             for (phase, _), s in sorted(grouped.items()) if phase == "iter"]
    setups = [setup_layer_metrics(GroupView(s))
              for (phase, _), s in sorted(grouped.items()) if phase == "setup"]
    out = median_of(iters)
    out.update(median_of(setups))
    walls = {grp: [it["wall_s"] for it in raw["iterations"]
                   if it["group"] == grp] for grp in ("untraced", "traced")}
    out["trace.overhead_pct"] = 100.0 * (
        statistics.median(walls["traced"]) /
        statistics.median(walls["untraced"]) - 1.0)
    # The traced iterations only; the replay's coverage is printed apart.
    out["trace.coverage_pct"] = 100.0 * root_coverage(raw["spans"],
                                                      "bench.iteration")
    return out


def end_to_end_metrics(raw):
    """End-to-end metrics of an untraced run, one fresh instance per
    iteration.  wall_s is the trimmed mean over all iterations, and
    ingest_per_s the run's total work over its total update time; the query
    percentiles are taken per iteration and reported as their medians over
    all iterations, setup_s as the median over all set-ups.  The exact
    outputs (summary_words, radius, comm_words) are medians over the first
    `min_instances` instances, so they do not depend on how many iterations
    fit in the run."""
    its = [it for it in raw["iterations"] if it["group"] == "untraced"]
    first = [it for it in its if it["instance"] < raw["min_instances"]]
    failed, attempted = raw["failed"], raw["attempted"]

    def query_pct(pct):
        return statistics.median(nearest_rank(it["query_ms"], pct)[0]
                                 for it in its)

    return {
        "setup_s": statistics.median(raw["setup_s"]),
        "wall_s": trimmed_mean([it["wall_s"] for it in its]),
        "ingest_per_s": (sum(it["ingest_units"] for it in its) /
                         sum(it["ingest_s"] for it in its)),
        "query_ms_p50": query_pct(50.0),
        "query_ms_p95": query_pct(95.0),
        "summary_words": statistics.median(it["summary_words"]
                                           for it in first),
        "radius": statistics.median(it["radius"] for it in first),
        "peak_rss_mb": raw["peak_rss_mb"],
        "ok_ratio": 1.0 - ratio(failed, attempted),
        "comm_words": statistics.median(it["comm_words"] for it in first),
    }
