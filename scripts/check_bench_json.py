#!/usr/bin/env python3
"""Validator for cdb bench artifacts (BENCH_*.json, schema cdb-bench/v1).

Usage:
    check_bench_json.py FILE [FILE ...]   validate artifacts, exit non-zero
                                          on the first structural violation
    check_bench_json.py --self-test       run the embedded good/bad corpus

The schema (see bench/harness.h):

    {"schema": "cdb-bench/v1",
     "bench": "<name>",
     "measurements": [{"label": "<str>",
                       "params": {"<k>": <number>, ...},
                       "values": {"<k>": <number>, ...}}, ...],
     "metrics": {"counters": {"<name>": <int>, ...},
                 "gauges": {"<name>": <number>, ...},
                 "histograms": {"<name>": {"bounds": [...], "counts": [...],
                                           "count": <int>, "sum": <number>},
                                ...}}}

Every histogram has the obs::LatencyRecorder layout: 129 finite upper
bounds in milliseconds (the first 0.001024), then one overflow count.

Stdlib only; runs under the ctest entry `check_bench_json_selftest`.
"""

import json
import math
import numbers
import sys

SCHEMA = "cdb-bench/v1"


def _is_number(v):
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _check_number_map(obj, where, errors):
    if not isinstance(obj, dict):
        errors.append(f"{where}: expected an object")
        return
    for key, value in obj.items():
        if not _is_number(value):
            errors.append(f"{where}.{key}: expected a number, got {value!r}")


# Phase keys of the filter-precision accounting (bench/harness.h): when a
# row carries all of them plus candidates, they must partition candidates.
_FILTER_PHASE_KEYS = ("dedup_dropped", "early_accepts", "refine_accepts",
                      "refine_rejects")


def _check_filter_precision(where, values, errors):
    """Generic filter-precision rules (ISSUE 6), applied to any row that
    carries the keys: precision lies in (0, 1], the filter can only
    over-approximate (candidates >= results), and the per-phase counts sum
    to candidates exactly (up to averaging round-off)."""
    precision = values.get("precision")
    if precision is not None and _is_number(precision):
        if not 0 < precision <= 1:
            errors.append(
                f"{where}.precision: {precision!r} outside (0, 1] "
                "(results/candidates cannot leave that range)")
    candidates = values.get("candidates")
    results = values.get("results")
    if _is_number(candidates) and _is_number(results):
        if candidates < results - 1e-9 * max(1.0, results):
            errors.append(
                f"{where}: candidates {candidates!r} < results {results!r} "
                "(the filter step must over-approximate)")
        phases = [values.get(k) for k in _FILTER_PHASE_KEYS]
        if all(_is_number(p) for p in phases):
            total = sum(phases)
            if abs(candidates - total) > 1e-6 * max(1.0, candidates):
                errors.append(
                    f"{where}: phase counts sum to {total!r} but candidates "
                    f"say {candidates!r} (every candidate must meet exactly "
                    "one fate)")


def _check_overload_ledger(where, values, errors):
    """Overload-control ledger (ISSUE 7), applied to any row carrying the
    full set of keys: every submitted query must be accounted for exactly
    once — shed at admission or completed."""
    submitted = values.get("submitted")
    completed = values.get("completed")
    shed = values.get("shed")
    if not all(_is_number(v) for v in (submitted, completed, shed)):
        return
    if abs((shed + completed) - submitted) > 1e-9 * max(1.0, abs(submitted)):
        errors.append(
            f"{where}: shed {shed!r} + completed {completed!r} != "
            f"submitted {submitted!r} (every query must be shed or served)")


def _check_measurement(i, m, errors):
    where = f"measurements[{i}]"
    if not isinstance(m, dict):
        errors.append(f"{where}: expected an object")
        return
    label = m.get("label")
    if not isinstance(label, str) or not label:
        errors.append(f"{where}.label: expected a non-empty string")
    _check_number_map(m.get("params"), f"{where}.params", errors)
    values = m.get("values")
    _check_number_map(values, f"{where}.values", errors)
    if isinstance(values, dict) and not values:
        errors.append(f"{where}.values: empty (a measurement must measure)")
    if isinstance(values, dict):
        _check_filter_precision(f"{where}.values", values, errors)
        _check_overload_ledger(f"{where}.values", values, errors)


# Every registry histogram is an obs::LatencyRecorder (src/obs/latency.h):
# 129 finite upper bounds in milliseconds, the first kMinTrackedNs = 1024 ns,
# then one overflow bucket. A shared layout is what lets histograms from
# different batches, scrapes and processes be summed.
RECORDER_BOUNDS = 129
RECORDER_FIRST_BOUND_MS = 0.001024


def _check_histogram(name, h, errors):
    where = f"metrics.histograms.{name}"
    if not isinstance(h, dict):
        errors.append(f"{where}: expected an object")
        return
    bounds = h.get("bounds")
    counts = h.get("counts")
    if not isinstance(bounds, list) or not all(_is_number(b) for b in bounds):
        errors.append(f"{where}.bounds: expected an array of numbers")
        return
    if bounds != sorted(bounds) or len(set(bounds)) != len(bounds):
        errors.append(f"{where}.bounds: not strictly increasing")
    if (len(bounds) != RECORDER_BOUNDS or
            bounds[0] != RECORDER_FIRST_BOUND_MS):
        errors.append(
            f"{where}.bounds: not the latency-recorder layout "
            f"({RECORDER_BOUNDS} bounds from {RECORDER_FIRST_BOUND_MS} ms; "
            f"got {len(bounds)} from {bounds[0] if bounds else None!r})")
    if not isinstance(counts, list) or not all(_is_number(c) for c in counts):
        errors.append(f"{where}.counts: expected an array of numbers")
        return
    # One overflow bucket beyond the explicit bounds.
    if len(counts) != len(bounds) + 1:
        errors.append(
            f"{where}: {len(counts)} counts for {len(bounds)} bounds "
            f"(want bounds+1)")
    if not _is_number(h.get("count")):
        errors.append(f"{where}.count: expected a number")
    elif isinstance(counts, list) and sum(counts) != h["count"]:
        errors.append(f"{where}: bucket counts sum to {sum(counts)}, "
                      f"count says {h['count']}")
    if not _is_number(h.get("sum")):
        errors.append(f"{where}.sum: expected a number")


def _check_refine_rows(bench, doc, errors):
    """Refinement-substrate rules: the artifact must carry "refine" rows,
    each with a positive ns_per_candidate, a pages_per_candidate in [0, 1]
    (page clustering reads each candidate's page at most once from a cold
    cache), and 0 <= accepts <= candidates. The bench itself aborts when
    accepts differ from naive truth."""
    found = False
    for m in doc.get("measurements", []):
        if not isinstance(m, dict) or m.get("label") != "refine":
            continue
        params = m.get("params")
        values = m.get("values")
        if not isinstance(params, dict) or not isinstance(values, dict):
            continue
        found = True
        coords = tuple(sorted(params.items()))
        at = f"refine[{coords}]" if coords else "refine"
        ns = values.get("ns_per_candidate")
        pages = values.get("pages_per_candidate")
        candidates = values.get("candidates")
        accepts = values.get("accepts")
        if not _is_number(ns) or ns <= 0:
            errors.append(f"{bench}: {at} ns_per_candidate {ns!r} "
                          "(must be a positive number)")
        if not _is_number(pages) or not 0 <= pages <= 1:
            errors.append(f"{bench}: {at} pages_per_candidate {pages!r} "
                          "(must be in [0, 1])")
        if (not _is_number(candidates) or not _is_number(accepts) or
                not 0 <= accepts <= candidates):
            errors.append(f"{bench}: {at} accepts {accepts!r} outside "
                          f"[0, candidates={candidates!r}]")
    if not found:
        errors.append(f"{bench}: no refine substrate rows "
                      "(ns_per_candidate/pages_per_candidate)")


# Warm fetches never recompute the CRC (verification happens on physical
# reads only), so the checksummed warm path must stay within 15% of raw.
WARM_OVERHEAD_BUDGET = 1.15


def _check_micro_substrates(doc, errors):
    """Semantic rule for the micro_substrates artifact: the durability
    layer's warm-path checksum overhead must be present and within budget."""
    ratio = None
    for m in doc.get("measurements", []):
        if not isinstance(m, dict) or m.get("label") != "pager_fetch_warm":
            continue
        values = m.get("values")
        if isinstance(values, dict) and "checksum_overhead_ratio" in values:
            ratio = values["checksum_overhead_ratio"]
    if ratio is None:
        errors.append("micro_substrates: no pager_fetch_warm "
                      "checksum_overhead_ratio measurement")
    elif not _is_number(ratio) or ratio > WARM_OVERHEAD_BUDGET:
        errors.append(
            f"micro_substrates: warm checksum_overhead_ratio {ratio!r} "
            f"exceeds budget {WARM_OVERHEAD_BUDGET}")
    _check_refine_rows("micro_substrates", doc, errors)


def _check_percentile_order(bench, where, values, errors,
                            required=("p50_ms", "p95_ms", "p99_ms")):
    """Percentile keys that are present must be numeric and non-decreasing
    in rank order; the `required` ones must be present."""
    order = ("p50_ms", "p90_ms", "p95_ms", "p99_ms", "max_ms")
    for key in required:
        if key not in values:
            errors.append(f"{bench}: {where} missing {key}")
            return
    series = [(k, values[k]) for k in order if k in values]
    for key, v in series:
        if not _is_number(v):
            errors.append(f"{bench}: {where}.{key} is not a number: {v!r}")
            return
    for (ka, va), (kb, vb) in zip(series, series[1:]):
        if va > vb:
            errors.append(
                f"{bench}: {where} percentiles out of order "
                f"({ka}={va} > {kb}={vb})")
            return


# Going from 1 to 2 worker threads must not *lose* throughput. On a
# single-core machine the parallel path cannot speed anything up, so the
# rule only demands the warm curve stays within a scheduler-noise floor of
# flat — it is a regression guard against lock contention on the sharded
# pool, not a speedup claim (the bench measures honestly; see ISSUE 3).
SCALING_NOISE_FLOOR = 0.9


def _check_executor_histograms(doc, errors):
    """The instrumented batches merge into the registry histograms
    exec.query.latency and exec.queue.wait. A query shed at admission is
    never picked, and every picked query records both: the counts must be
    equal and non-zero."""
    hists = (doc.get("metrics") or {}).get("histograms")
    if not isinstance(hists, dict):
        return
    counts = {}
    for name in ("exec.query.latency", "exec.queue.wait"):
        h = hists.get(name)
        if not isinstance(h, dict) or not _is_number(h.get("count")):
            errors.append(f"throughput_scaling: no {name} histogram")
            return
        counts[name] = h["count"]
    if counts["exec.query.latency"] != counts["exec.queue.wait"]:
        errors.append(
            f"throughput_scaling: exec.query.latency counts "
            f"{counts['exec.query.latency']!r} queries but exec.queue.wait "
            f"{counts['exec.queue.wait']!r} (every query records both)")
    elif counts["exec.query.latency"] < 1:
        errors.append("throughput_scaling: executor latency histograms are "
                      "empty (the instrumented batches record every query)")


def _check_throughput_scaling(doc, errors):
    """Semantic rules for the throughput_scaling artifact: the 1-thread
    executor must reproduce serial accounting exactly, no query may fail,
    warm throughput must be monotone (within noise) from 1 to 2 threads,
    and every measured thread count must carry service-latency, queue-wait,
    and trace-sampling rows with internally consistent values (ISSUE 5)."""
    warm_qps = {}
    warm_queries = {}
    obs_rows = {"latency": {}, "queue_wait": {}, "sampling": {}}
    accounting = None
    overload = None
    for m in doc.get("measurements", []):
        if not isinstance(m, dict):
            continue
        values = m.get("values")
        if not isinstance(values, dict):
            continue
        params = m.get("params")
        threads = params.get("threads") if isinstance(params, dict) else None
        if m.get("label") == "accounting":
            accounting = values.get("accounting_match")
        if m.get("label") == "overload":
            overload = values
        if m.get("label") in ("warm", "cold"):
            failed = values.get("failed")
            if _is_number(failed) and failed != 0:
                errors.append(
                    f"throughput_scaling: {m.get('label')} run reports "
                    f"{failed} failed queries")
        if m.get("label") == "warm":
            if _is_number(threads) and _is_number(values.get("qps")):
                warm_qps[threads] = values["qps"]
            if _is_number(threads) and _is_number(values.get("queries")):
                warm_queries[threads] = values["queries"]
        if m.get("label") in obs_rows and _is_number(threads):
            obs_rows[m.get("label")].setdefault(threads, {}).update(
                {k: v for k, v in values.items() if _is_number(v)})
    for threads, queries in sorted(warm_queries.items()):
        t = f"threads={threads:g}"
        lat = obs_rows["latency"].get(threads)
        wait = obs_rows["queue_wait"].get(threads)
        samp = obs_rows["sampling"].get(threads)
        if lat is None or wait is None or samp is None:
            errors.append(
                f"throughput_scaling: missing latency/queue_wait/sampling "
                f"rows for {t}")
            continue
        for name, row in (("latency", lat), ("queue_wait", wait)):
            if row.get("count") != queries:
                errors.append(
                    f"throughput_scaling: {name}[{t}].count "
                    f"{row.get('count')!r} != batch size {queries:g} "
                    "(every query must be recorded exactly once)")
            _check_percentile_order("throughput_scaling", f"{name}[{t}]",
                                    row, errors)
        sampled = samp.get("sampled")
        balanced = samp.get("balanced")
        if not _is_number(sampled) or sampled <= 0:
            errors.append(
                f"throughput_scaling: sampling[{t}].sampled {sampled!r} "
                "(deterministic 1-in-N sampling must trace something)")
        elif balanced != sampled:
            errors.append(
                f"throughput_scaling: sampling[{t}] {balanced!r} of "
                f"{sampled!r} sampled traces balanced (self==total "
                "invariant broken)")
    _check_executor_histograms(doc, errors)
    if overload is None:
        errors.append(
            "throughput_scaling: no overload ledger row (the bench must "
            "exercise admission shedding and account for every query)")
    elif not all(_is_number(overload.get(k))
                 for k in ("submitted", "completed", "shed")):
        errors.append(
            "throughput_scaling: overload row must carry numeric "
            "submitted/completed/shed")
    _check_refine_rows("throughput_scaling", doc, errors)
    if accounting is None:
        errors.append("throughput_scaling: no accounting_match measurement")
    elif accounting != 1:
        errors.append(
            "throughput_scaling: 1-thread executor accounting diverged "
            f"from serial Select (accounting_match={accounting!r})")
    if 1 not in warm_qps or 2 not in warm_qps:
        errors.append("throughput_scaling: missing warm qps for "
                      "threads=1 and threads=2")
        return
    if warm_qps[2] < SCALING_NOISE_FLOOR * warm_qps[1]:
        errors.append(
            f"throughput_scaling: warm qps dropped from {warm_qps[1]:.0f} "
            f"(1 thread) to {warm_qps[2]:.0f} (2 threads); below the "
            f"{SCALING_NOISE_FLOOR} noise floor, so the parallel path is "
            "losing throughput to contention")


# Incremental handicap maintenance must keep T2's cost (logical index
# fetches + physical refinement reads, decision 11) within this factor of a
# freshly rebuilt index — and strictly below the stale index it replaces,
# otherwise the maintenance isn't paying for itself.
ONLINE_T2_BUDGET = 1.2


# Ingest throughput is schedule-dependent (bench_diff skips it without
# --timing); the semantic rule here is directional only: every grouped
# size must beat single-append commits, and adjacent sizes must not
# *collapse* (large groups may plateau or dip on a busy machine — the
# full run has shown group 256 ~11% under group 64 — but a halving means
# the amortization broke). The per-group fsync bound is exact.
INGEST_NOISE_FLOOR = 0.5


def _check_ingest_rows(ingest, errors):
    """Group-commit ingest lane (ISSUE 9): every committed group paid at
    most one journal fsync, group counts are exact for the append count,
    publish-latency percentiles are ordered, and writer throughput rises
    with the group size."""
    if not ingest:
        errors.append("online_updates: no group-commit ingest measurements")
        return
    if len(ingest) < 2:
        errors.append("online_updates: ingest rows cover a single group "
                      "size; the amortization claim needs at least two")
        return
    for g in sorted(ingest):
        v = ingest[g]
        missing = [k for k in ("appends", "groups", "group_fsyncs",
                               "appends_per_s") if k not in v]
        if missing:
            errors.append(
                f"online_updates: ingest group {g:.0f} missing {missing}")
            return
        expected = -(-v["appends"] // g)  # ceil division
        if v["groups"] != expected:
            errors.append(
                f"online_updates: ingest group {g:.0f} committed "
                f"{v['groups']:.0f} groups for {v['appends']:.0f} appends "
                f"(expected {expected:.0f})")
        if v["group_fsyncs"] > v["groups"]:
            errors.append(
                f"online_updates: ingest group {g:.0f} paid "
                f"{v['group_fsyncs']:.0f} journal fsyncs for "
                f"{v['groups']:.0f} groups (more than one per group)")
        if v["group_fsyncs"] < 1:
            errors.append(
                f"online_updates: ingest group {g:.0f} reports no journal "
                "fsync at all")
        percentiles = {k[len("publish_"):]: val for k, val in v.items()
                       if k.startswith("publish_")}
        _check_percentile_order("online_updates",
                                f"ingest[group={g:.0f}]", percentiles,
                                errors)
    sizes = sorted(ingest)
    for ga, gb in zip(sizes, sizes[1:]):
        fa, fb = ingest[ga]["group_fsyncs"], ingest[gb]["group_fsyncs"]
        if fb >= fa:
            errors.append(
                f"online_updates: ingest fsyncs did not amortize from group "
                f"{ga:.0f} ({fa:.0f}) to group {gb:.0f} ({fb:.0f})")
        ta, tb = ingest[ga]["appends_per_s"], ingest[gb]["appends_per_s"]
        if tb < INGEST_NOISE_FLOOR * ta:
            errors.append(
                f"online_updates: ingest throughput collapsed from group "
                f"{ga:.0f} ({ta:.0f}/s) to group {gb:.0f} ({tb:.0f}/s)")
    base_tp = ingest[sizes[0]]["appends_per_s"]
    for g in sizes[1:]:
        if ingest[g]["appends_per_s"] <= base_tp:
            errors.append(
                f"online_updates: ingest group {g:.0f} is not faster than "
                f"group {sizes[0]:.0f} commits "
                f"({ingest[g]['appends_per_s']:.0f}/s vs {base_tp:.0f}/s)")


# The visibility row's stage_sum_ms and sum_ms both come from the same
# exact integer-nanosecond accumulators (obs::IngestPipelineRecorders), so
# they must agree to double-rounding noise — any real gap means a stage
# boundary was dropped or double-counted.
PIPELINE_BALANCE_TOL_MS = 1e-6
PIPELINE_STAGES = ("admission", "group_wait", "apply", "fsync", "publish")


def _check_pipeline_rows(pipeline, visibility, stall, errors):
    """Write-path pipeline attribution (ISSUE 10): every stage digest saw
    every append exactly once, percentiles are rank-ordered, the stage sums
    telescope to the end-to-end write-visibility sum, every sampled group
    balanced, and the commit-trigger ledger accounts for every group."""
    if not visibility:
        errors.append("online_updates: no write-visibility measurement")
        return
    count = visibility.get("count")
    if not _is_number(count) or count < 1:
        errors.append(
            f"online_updates: visibility.count {count!r} (the pipeline must "
            "attribute at least one append)")
        return
    _check_percentile_order("online_updates", "visibility", visibility,
                            errors)
    for stage in PIPELINE_STAGES:
        row = pipeline.get(stage)
        if row is None:
            errors.append(
                f"online_updates: missing pipeline_{stage} stage row")
            continue
        if row.get("count") != count:
            errors.append(
                f"online_updates: pipeline_{stage}.count "
                f"{row.get('count')!r} != visibility.count {count:g} "
                "(every append must hit every stage exactly once)")
        if not _is_number(row.get("sum_ms")) or row.get("sum_ms") < 0:
            errors.append(
                f"online_updates: pipeline_{stage}.sum_ms "
                f"{row.get('sum_ms')!r} is not a non-negative number")
        _check_percentile_order("online_updates", f"pipeline_{stage}", row,
                                errors)
    stage_sum = visibility.get("stage_sum_ms")
    total = visibility.get("sum_ms")
    if not _is_number(stage_sum) or not _is_number(total):
        errors.append("online_updates: visibility row must carry numeric "
                      "sum_ms and stage_sum_ms")
    elif abs(stage_sum - total) > PIPELINE_BALANCE_TOL_MS:
        errors.append(
            f"online_updates: stage sums ({stage_sum} ms) do not telescope "
            f"to the write-visibility sum ({total} ms); a stage boundary "
            "was dropped or double-counted")
    if visibility.get("unbalanced") != 0:
        errors.append(
            f"online_updates: {visibility.get('unbalanced')!r} sampled "
            "groups failed the per-group stage-sum balance")
    sampled = visibility.get("sampled_groups")
    if not _is_number(sampled) or sampled < 1:
        errors.append(
            f"online_updates: visibility.sampled_groups {sampled!r} "
            "(deterministic 1-in-N group sampling must profile something)")
    if not stall:
        errors.append("online_updates: no stall-ledger measurement")
        return
    groups = stall.get("groups")
    triggers = [stall.get(k) for k in ("commits_full", "commits_deadline",
                                       "commits_drain")]
    if not _is_number(groups) or not all(_is_number(t) for t in triggers):
        errors.append("online_updates: stall row must carry numeric groups "
                      "and commits_full/deadline/drain")
    elif sum(triggers) != groups:
        errors.append(
            f"online_updates: commit triggers full/deadline/drain "
            f"{triggers[0]:g}/{triggers[1]:g}/{triggers[2]:g} do not "
            f"account for all {groups:g} committed groups")
    high_water = stall.get("depth_high_water")
    depth_avg = stall.get("depth_avg")
    if not _is_number(high_water) or high_water < 1:
        errors.append(
            f"online_updates: stall.depth_high_water {high_water!r} (the "
            "lane cannot commit appends without ever holding one)")
    if not _is_number(depth_avg) or depth_avg < 0:
        errors.append(
            f"online_updates: stall.depth_avg {depth_avg!r} is not a "
            "non-negative number")
    elif _is_number(high_water) and depth_avg > high_water:
        errors.append(
            f"online_updates: stall.depth_avg {depth_avg:g} exceeds the "
            f"high-water depth {high_water:g} (the time-weighted mean of a "
            "series cannot beat its maximum)")


def _check_online_updates(doc, errors):
    """Semantic rules for the online_updates artifact: incremental
    handicaps stay within budget of freshly rebuilt and beat stale, the
    concurrent serving phase ingested without failing any query, the
    writer's publish pipeline reports ordered latency percentiles
    (ISSUE 5), the group-commit ingest lane amortizes its durability
    bill (ISSUE 9, _check_ingest_rows), and the write-path pipeline
    attribution telescopes (ISSUE 10, _check_pipeline_rows)."""
    totals = {}
    online = {}
    publish = {}
    ingest = {}
    pipeline = {}
    visibility = {}
    stall = {}
    for m in doc.get("measurements", []):
        if not isinstance(m, dict):
            continue
        values = m.get("values")
        if not isinstance(values, dict):
            continue
        label = m.get("label")
        if isinstance(label, str) and label.startswith("pipeline_"):
            pipeline.setdefault(label[len("pipeline_"):], {}).update(
                {k: v for k, v in values.items() if _is_number(v)})
        if label == "visibility":
            visibility.update(
                {k: v for k, v in values.items() if _is_number(v)})
        if label == "stall":
            stall.update(
                {k: v for k, v in values.items() if _is_number(v)})
        if label in ("stale", "incremental", "rebuilt"):
            index = values.get("index_fetches")
            tuples = values.get("tuple_fetches")
            if _is_number(index) and _is_number(tuples):
                totals[label] = index + tuples
        if label == "online":
            online.update(
                {k: v for k, v in values.items() if _is_number(v)})
        if label == "publish":
            publish.update(
                {k: v for k, v in values.items() if _is_number(v)})
        if label == "ingest":
            group = (m.get("params") or {}).get("group")
            if _is_number(group) and group >= 1:
                ingest[group] = {k: v for k, v in values.items()
                                 if _is_number(v)}
    _check_ingest_rows(ingest, errors)
    _check_pipeline_rows(pipeline, visibility, stall, errors)
    if not publish:
        errors.append("online_updates: no publish-pipeline measurements")
    else:
        count = publish.get("count")
        if not _is_number(count) or count < 1:
            errors.append(
                f"online_updates: publish.count {count!r} (the writer must "
                "publish at least once)")
        else:
            _check_percentile_order("online_updates", "publish", publish,
                                    errors)
        epochs = publish.get("epochs")
        if _is_number(count) and _is_number(epochs) and epochs < count:
            errors.append(
                f"online_updates: pager saw {epochs:.0f} publish epochs but "
                f"the writer timed {count:.0f} publishes")
    missing = [v for v in ("stale", "incremental", "rebuilt")
               if v not in totals]
    if missing:
        errors.append(
            f"online_updates: missing page-access totals for {missing}")
    else:
        if totals["incremental"] > ONLINE_T2_BUDGET * totals["rebuilt"]:
            errors.append(
                f"online_updates: incremental T2 cost {totals['incremental']:.1f} "
                f"pages exceeds {ONLINE_T2_BUDGET}x the freshly rebuilt cost "
                f"{totals['rebuilt']:.1f}")
        if totals["incremental"] >= totals["stale"]:
            errors.append(
                f"online_updates: incremental T2 cost {totals['incremental']:.1f} "
                f"pages is not below the stale cost {totals['stale']:.1f}; "
                "maintenance isn't paying for itself")
    if "failed" not in online or "inserted" not in online:
        errors.append("online_updates: no concurrent-serving (online) "
                      "failed/inserted measurements")
        return
    if online["failed"] != 0:
        errors.append(
            f"online_updates: {online['failed']:.0f} queries failed under "
            "the concurrent writer")
    if online["inserted"] <= 0:
        errors.append("online_updates: concurrent writer inserted nothing")


_SEMANTIC_RULES = {
    "micro_substrates": _check_micro_substrates,
    "throughput_scaling": _check_throughput_scaling,
    "online_updates": _check_online_updates,
}


def validate(doc):
    """Returns a list of violation strings (empty = valid)."""
    errors = []
    if not isinstance(doc, dict):
        return ["document: expected a JSON object"]
    if doc.get("schema") != SCHEMA:
        errors.append(f"schema: expected {SCHEMA!r}, got {doc.get('schema')!r}")
    if not isinstance(doc.get("bench"), str) or not doc.get("bench"):
        errors.append("bench: expected a non-empty string")
    measurements = doc.get("measurements")
    if not isinstance(measurements, list):
        errors.append("measurements: expected an array")
    else:
        if not measurements:
            errors.append("measurements: empty (artifact carries no data)")
        for i, m in enumerate(measurements):
            _check_measurement(i, m, errors)
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        errors.append("metrics: expected an object")
    else:
        _check_number_map(metrics.get("counters"), "metrics.counters", errors)
        _check_number_map(metrics.get("gauges"), "metrics.gauges", errors)
        hists = metrics.get("histograms")
        if not isinstance(hists, dict):
            errors.append("metrics.histograms: expected an object")
        else:
            for name, h in hists.items():
                _check_histogram(name, h, errors)
    rule = _SEMANTIC_RULES.get(doc.get("bench"))
    if rule is not None:
        rule(doc, errors)
    return errors


def validate_file(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        return [f"{path}: {e}"]
    return [f"{path}: {err}" for err in validate(doc)]


def _recorder_histogram(counts_by_bucket):
    """A histogram in the latency-recorder layout with the given
    {bucket index: count} entries (test fixtures)."""
    bounds = [math.floor(1024 * 2 ** (i / 4)) / 1e6
              for i in range(RECORDER_BOUNDS)]
    counts = [counts_by_bucket.get(i, 0) for i in range(RECORDER_BOUNDS + 1)]
    total_ms = sum(n * (bounds[min(i, RECORDER_BOUNDS - 1)])
                   for i, n in enumerate(counts))
    return {"bounds": bounds, "counts": counts, "count": sum(counts),
            "sum": total_ms}


_GOOD = {
    "schema": SCHEMA,
    "bench": "fig8_small_objects",
    "measurements": [
        {"label": "t2/exist", "params": {"n": 2000, "k": 3},
         "values": {"index_fetches": 12.5, "results": 200,
                    "candidates": 250, "dedup_dropped": 20,
                    "early_accepts": 0, "refine_accepts": 200,
                    "refine_rejects": 30, "precision": 0.8}},
    ],
    "metrics": {
        "counters": {"dual.refine.lp_calls": 4181},
        "gauges": {"relation.resident_frames": 64},
        "histograms": {
            "lat": _recorder_histogram({0: 3, 40: 2, RECORDER_BOUNDS: 1}),
        },
    },
}


_GOOD_MICRO = {
    "schema": SCHEMA,
    "bench": "micro_substrates",
    "measurements": [
        {"label": "pager_fetch_warm", "params": {"checksums": 1},
         "values": {"ns_per_fetch": 30.9}},
        {"label": "pager_fetch_warm", "params": {},
         "values": {"checksum_overhead_ratio": 0.99}},
        {"label": "refine", "params": {},
         "values": {"ns_per_candidate": 840.0, "pages_per_candidate": 0.12,
                    "candidates": 7200, "accepts": 996}},
    ],
    "metrics": {"counters": {}, "gauges": {}, "histograms": {}},
}


_GOOD_THROUGHPUT = {
    "schema": SCHEMA,
    "bench": "throughput_scaling",
    "measurements": [
        {"label": "accounting", "params": {},
         "values": {"accounting_match": 1, "queries_checked": 256}},
        {"label": "cold", "params": {"threads": 1},
         "values": {"qps": 350.0, "wall_ms": 731.4, "queries": 256,
                    "failed": 0}},
        {"label": "warm", "params": {"threads": 1},
         "values": {"qps": 360.0, "wall_ms": 711.1, "queries": 256,
                    "failed": 0}},
        {"label": "warm", "params": {"threads": 2},
         "values": {"qps": 355.0, "wall_ms": 721.1, "queries": 256,
                    "failed": 0}},
        {"label": "latency", "params": {"threads": 1},
         "values": {"count": 256, "mean_ms": 2.3, "p50_ms": 1.9,
                    "p95_ms": 4.1, "p99_ms": 5.8, "max_ms": 6.2}},
        {"label": "queue_wait", "params": {"threads": 1},
         "values": {"count": 256, "p50_ms": 0.01, "p95_ms": 0.04,
                    "p99_ms": 0.09}},
        {"label": "sampling", "params": {"threads": 1},
         "values": {"sampled": 61, "balanced": 61}},
        {"label": "latency", "params": {"threads": 2},
         "values": {"count": 256, "mean_ms": 2.5, "p50_ms": 2.0,
                    "p95_ms": 4.6, "p99_ms": 6.3, "max_ms": 7.0}},
        {"label": "queue_wait", "params": {"threads": 2},
         "values": {"count": 256, "p50_ms": 0.02, "p95_ms": 0.07,
                    "p99_ms": 0.13}},
        {"label": "sampling", "params": {"threads": 2},
         "values": {"sampled": 61, "balanced": 61}},
        {"label": "overload", "params": {},
         "values": {"submitted": 256, "completed": 128, "shed": 128}},
        {"label": "refine", "params": {},
         "values": {"ns_per_candidate": 840.0, "pages_per_candidate": 0.12,
                    "candidates": 7200, "accepts": 996}},
    ],
    "metrics": {"counters": {}, "gauges": {}, "histograms": {
        "exec.query.latency": _recorder_histogram({44: 600, 52: 424}),
        "exec.queue.wait": _recorder_histogram({0: 1000, 20: 24}),
    }},
}


_GOOD_ONLINE = {
    "schema": SCHEMA,
    "bench": "online_updates",
    "measurements": [
        {"label": "stale", "params": {"n0": 3000, "inserted": 1000},
         "values": {"index_fetches": 35.9, "tuple_fetches": 541.8}},
        {"label": "incremental", "params": {"n0": 3000, "inserted": 1000},
         "values": {"index_fetches": 38.6, "tuple_fetches": 536.5}},
        {"label": "rebuilt", "params": {"n0": 3000, "inserted": 1000},
         "values": {"index_fetches": 34.8, "tuple_fetches": 533.1}},
        {"label": "online", "params": {"threads": 8},
         "values": {"qps": 144.0}},
        {"label": "online", "params": {"threads": 8},
         "values": {"inserted": 500}},
        {"label": "online", "params": {"threads": 8},
         "values": {"failed": 0}},
        {"label": "publish", "params": {"threads": 8},
         "values": {"count": 10, "p50_ms": 0.8, "p95_ms": 1.5,
                    "p99_ms": 2.1, "max_ms": 2.2, "epochs": 11,
                    "pages": 430, "sessions_drained": 64,
                    "drain_ms": 3.7}},
        {"label": "ingest", "params": {"group": 1},
         "values": {"appends": 2048, "groups": 2048, "group_fsyncs": 2048,
                    "appends_per_s": 210000.0, "wall_ms": 9.7,
                    "publish_p50_ms": 0.004, "publish_p95_ms": 0.008,
                    "publish_p99_ms": 0.011, "publish_max_ms": 0.02}},
        {"label": "ingest", "params": {"group": 64},
         "values": {"appends": 2048, "groups": 32, "group_fsyncs": 32,
                    "appends_per_s": 2300000.0, "wall_ms": 0.9,
                    "publish_p50_ms": 0.02, "publish_p95_ms": 0.04,
                    "publish_p99_ms": 0.05, "publish_max_ms": 0.07}},
        {"label": "pipeline_admission", "params": {"group": 32},
         "values": {"count": 256, "sum_ms": 8000.0, "p50_ms": 33.0,
                    "p95_ms": 84.0, "p99_ms": 84.0, "max_ms": 84.3}},
        {"label": "pipeline_group_wait", "params": {"group": 32},
         "values": {"count": 256, "sum_ms": 0.1, "p50_ms": 0.0006,
                    "p95_ms": 0.0006, "p99_ms": 0.0006, "max_ms": 0.0007}},
        {"label": "pipeline_apply", "params": {"group": 32},
         "values": {"count": 256, "sum_ms": 3000.0, "p50_ms": 11.9,
                    "p95_ms": 21.8, "p99_ms": 21.8, "max_ms": 21.9}},
        {"label": "pipeline_fsync", "params": {"group": 32},
         "values": {"count": 256, "sum_ms": 50.0, "p50_ms": 0.02,
                    "p95_ms": 1.9, "p99_ms": 1.9, "max_ms": 2.0}},
        {"label": "pipeline_publish", "params": {"group": 32},
         "values": {"count": 256, "sum_ms": 30.0, "p50_ms": 0.08,
                    "p95_ms": 1.8, "p99_ms": 1.8, "max_ms": 1.8}},
        {"label": "visibility", "params": {"group": 32},
         "values": {"count": 256, "sum_ms": 11080.1,
                    "stage_sum_ms": 11080.1, "p50_ms": 39.9, "p95_ms": 100.3,
                    "p99_ms": 100.3, "max_ms": 100.4, "unbalanced": 0,
                    "sampled_groups": 2}},
        {"label": "stall", "params": {"group": 32},
         "values": {"groups": 8, "commits_full": 8, "commits_deadline": 0,
                    "commits_drain": 0, "depth_high_water": 256,
                    "depth_avg": 105.8, "sessions_drained": 2,
                    "drain_ms": 1.7}},
    ],
    "metrics": {"counters": {}, "gauges": {"dual.handicap.staleness": 235},
                "histograms": {}},
}


def self_test():
    import copy

    failures = []
    counts = {"good": 0, "bad": 0}

    def expect(doc, should_pass, what):
        counts["good" if should_pass else "bad"] += 1
        errs = validate(doc)
        if bool(not errs) != should_pass:
            failures.append(f"{what}: {'unexpected errors ' + repr(errs) if errs else 'expected errors, got none'}")

    expect(_GOOD, True, "good artifact")

    def broken(mutate, what):
        doc = copy.deepcopy(_GOOD)
        mutate(doc)
        expect(doc, False, what)

    broken(lambda d: d.update(schema="cdb-bench/v0"), "wrong schema version")
    broken(lambda d: d.pop("bench"), "missing bench name")
    broken(lambda d: d.update(measurements=[]), "empty measurements")
    broken(lambda d: d["measurements"][0].pop("label"), "measurement sans label")
    broken(lambda d: d["measurements"][0]["params"].update(n="2000"),
           "string where a number belongs")
    broken(lambda d: d["measurements"][0].update(values={}), "empty values")
    broken(lambda d: d["metrics"]["histograms"]["lat"].update(counts=[1, 2]),
           "counts/bounds arity mismatch")
    broken(lambda d: d["metrics"]["histograms"]["lat"].update(count=99),
           "count disagrees with bucket sum")
    broken(lambda d: d["metrics"]["histograms"]["lat"]["bounds"].reverse(),
           "unsorted bounds")
    broken(lambda d: d["metrics"]["histograms"].update(
        lat={"bounds": [1.0, 10.0], "counts": [3, 2, 1], "count": 6,
             "sum": 27.5}), "histogram in a foreign bucket layout")
    broken(lambda d: d.pop("metrics"), "missing metrics")
    broken(lambda d: d["measurements"][0]["values"].update(precision=0),
           "precision of zero (an empty candidate set is vacuously 1)")
    broken(lambda d: d["measurements"][0]["values"].update(precision=1.2),
           "precision above 1")
    broken(lambda d: d["measurements"][0]["values"].update(candidates=150),
           "candidates below results")
    broken(lambda d: d["measurements"][0]["values"].update(refine_rejects=40),
           "filter phase counts do not sum to candidates")

    expect(_GOOD_MICRO, True, "good micro_substrates artifact")

    def broken_micro(mutate, what):
        doc = copy.deepcopy(_GOOD_MICRO)
        mutate(doc)
        expect(doc, False, what)

    broken_micro(
        lambda d: d["measurements"][1]["values"].update(
            checksum_overhead_ratio=1.5),
        "warm checksum overhead over budget")
    broken_micro(lambda d: d["measurements"].pop(1),
                 "micro_substrates sans overhead measurement")
    broken_micro(lambda d: d["measurements"].pop(2),
                 "micro_substrates sans any refine rows")
    broken_micro(
        lambda d: d["measurements"][2]["values"].update(
            pages_per_candidate=1.2),
        "refine reads more than one page per candidate")
    broken_micro(
        lambda d: d["measurements"][2]["values"].update(ns_per_candidate=0),
        "refine row with zero ns_per_candidate")
    broken_micro(
        lambda d: d["measurements"][2]["values"].update(accepts=7201),
        "refine accepts more candidates than it saw")
    broken_micro(
        lambda d: d["measurements"][2]["values"].pop("accepts"),
        "refine row without an accepts count")

    expect(_GOOD_THROUGHPUT, True, "good throughput_scaling artifact")

    def broken_throughput(mutate, what):
        doc = copy.deepcopy(_GOOD_THROUGHPUT)
        mutate(doc)
        expect(doc, False, what)

    broken_throughput(
        lambda d: d["measurements"][0]["values"].update(accounting_match=0),
        "executor accounting diverged from serial")
    broken_throughput(lambda d: d["measurements"].pop(0),
                      "throughput_scaling sans accounting measurement")
    broken_throughput(
        lambda d: d["measurements"][3]["values"].update(qps=100.0),
        "2-thread warm qps below the noise floor")
    broken_throughput(lambda d: d["measurements"].pop(3),
                      "throughput_scaling sans 2-thread warm row")
    broken_throughput(
        lambda d: d["measurements"][1]["values"].update(failed=3),
        "cold run with failed queries")
    broken_throughput(
        lambda d: d["measurements"][4]["values"].update(count=255),
        "latency count disagrees with batch size")
    broken_throughput(
        lambda d: d["measurements"][4]["values"].update(p95_ms=6.0),
        "service-latency percentiles out of order")
    broken_throughput(
        lambda d: d["measurements"][5]["values"].pop("p99_ms"),
        "queue-wait row missing a required percentile")
    broken_throughput(lambda d: d["measurements"].pop(6),
                      "throughput_scaling sans sampling row")
    broken_throughput(
        lambda d: d["measurements"][6]["values"].update(balanced=60),
        "sampled trace with unbalanced spans")
    broken_throughput(
        lambda d: d["measurements"][6]["values"].update(sampled=0,
                                                        balanced=0),
        "sampling enabled but nothing traced")
    broken_throughput(lambda d: d["measurements"].pop(10),
                      "throughput_scaling sans overload ledger row")
    broken_throughput(
        lambda d: d["measurements"][10]["values"].update(shed=100),
        "overload ledger does not balance (shed + completed != submitted)")
    broken_throughput(
        lambda d: d["measurements"][10]["values"].pop("completed"),
        "overload row missing a ledger column")
    broken_throughput(lambda d: d["measurements"].pop(11),
                      "throughput_scaling sans refine row")
    broken_throughput(
        lambda d: d["measurements"][11]["values"].update(
            pages_per_candidate=-0.1),
        "throughput_scaling refine pages_per_candidate negative")
    broken_throughput(
        lambda d: d["metrics"]["histograms"].pop("exec.queue.wait"),
        "throughput_scaling sans the queue-wait histogram")
    broken_throughput(
        lambda d: d["metrics"]["histograms"].update(
            {"exec.queue.wait": _recorder_histogram({0: 1023})}),
        "executor latency histograms with unequal counts")

    expect(_GOOD_ONLINE, True, "good online_updates artifact")

    def broken_online(mutate, what):
        doc = copy.deepcopy(_GOOD_ONLINE)
        mutate(doc)
        expect(doc, False, what)

    broken_online(
        lambda d: d["measurements"][1]["values"].update(tuple_fetches=660.0),
        "incremental T2 cost over the rebuilt budget")
    broken_online(
        lambda d: d["measurements"][0]["values"].update(tuple_fetches=530.0),
        "incremental T2 cost not below stale")
    broken_online(lambda d: d["measurements"].pop(2),
                  "online_updates sans rebuilt row")
    broken_online(
        lambda d: d["measurements"][5]["values"].update(failed=2),
        "queries failed under the concurrent writer")
    broken_online(lambda d: d["measurements"].pop(5),
                  "online_updates sans concurrent failed count")
    broken_online(lambda d: d["measurements"].pop(6),
                  "online_updates sans publish-pipeline row")
    broken_online(
        lambda d: d["measurements"][6]["values"].update(p99_ms=1.0),
        "publish percentiles out of order")
    broken_online(
        lambda d: d["measurements"][6]["values"].update(count=0),
        "publish pipeline never published")
    broken_online(
        lambda d: d["measurements"][6]["values"].update(epochs=5),
        "pager epochs below timed publish count")
    broken_online(
        lambda d: [d["measurements"].pop(8), d["measurements"].pop(7)],
        "online_updates sans group-commit ingest rows")
    broken_online(lambda d: d["measurements"].pop(8),
                  "ingest with a single group size")
    broken_online(
        lambda d: d["measurements"][8]["values"].update(group_fsyncs=33),
        "more than one journal fsync per committed group")
    broken_online(
        lambda d: d["measurements"][8]["values"].update(groups=31,
                                                        group_fsyncs=31),
        "ingest group count disagrees with ceil(appends / group)")
    broken_online(
        lambda d: d["measurements"][8]["values"].update(
            appends_per_s=150000.0),
        "grouped commits slower than single-append commits")
    broken_online(
        lambda d: d["measurements"][8]["values"].update(publish_p99_ms=0.01),
        "ingest publish percentiles out of order")
    broken_online(
        lambda d: d["measurements"][8]["values"].pop("group_fsyncs"),
        "ingest row missing the fsync column")
    broken_online(lambda d: d["measurements"].pop(14),
                  "online_updates sans write-visibility row")
    broken_online(lambda d: d["measurements"].pop(11),
                  "online_updates sans a pipeline stage row")
    broken_online(
        lambda d: d["measurements"][11]["values"].update(count=255),
        "pipeline stage count disagrees with visibility count")
    broken_online(
        lambda d: d["measurements"][11]["values"].update(p95_ms=5.0),
        "pipeline stage percentiles out of order")
    broken_online(
        lambda d: d["measurements"][11]["values"].update(sum_ms=-1.0),
        "pipeline stage with a negative sum")
    broken_online(
        lambda d: d["measurements"][14]["values"].update(
            stage_sum_ms=11000.0),
        "stage sums do not telescope to the visibility sum")
    broken_online(
        lambda d: d["measurements"][14]["values"].update(unbalanced=1),
        "a sampled group failed the stage-sum balance")
    broken_online(
        lambda d: d["measurements"][14]["values"].update(sampled_groups=0),
        "group sampling enabled but nothing profiled")
    broken_online(lambda d: d["measurements"].pop(15),
                  "online_updates sans stall-ledger row")
    broken_online(
        lambda d: d["measurements"][15]["values"].update(commits_full=7),
        "commit triggers do not account for every group")
    broken_online(
        lambda d: d["measurements"][15]["values"].update(depth_high_water=0),
        "lane committed appends with a zero high-water depth")
    broken_online(
        lambda d: d["measurements"][15]["values"].update(depth_avg=300.0),
        "time-weighted mean depth above the high-water mark")

    if failures:
        for f in failures:
            print(f"SELF-TEST FAIL: {f}", file=sys.stderr)
        return 1
    print(f"self-test OK ({counts['good']} good + "
          f"{counts['bad']} broken artifacts)")
    return 0


def main(argv):
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    if argv[1] == "--self-test":
        return self_test()
    bad = 0
    for path in argv[1:]:
        errors = validate_file(path)
        if errors:
            bad += 1
            for err in errors:
                print(err, file=sys.stderr)
        else:
            print(f"{path}: OK")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
