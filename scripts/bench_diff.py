#!/usr/bin/env python3
"""Regression gate for cdb bench artifacts (schema cdb-bench/v1).

Usage:
    bench_diff.py BASELINE_DIR CANDIDATE_DIR [options]
    bench_diff.py --self-test

Compares every BENCH_*.json in BASELINE_DIR against the artifact of the
same name in CANDIDATE_DIR. Each value is classified as either

  deterministic -- counts, page-fetch averages, flags: anything the fixed
                   bench seeds pin down exactly. Compared with relative
                   tolerance 1e-9; any drift is a failed gate (it means
                   behaviour changed, not that the machine was busy).

  timing        -- wall-clock-derived keys: suffix _ms/_ns/_us, qps,
                   ns_per_*, *_ratio, and anything listed in _TIMING_KEYS.
                   Skipped by default (CI machines are noisy); with
                   --timing they are compared direction-aware against a
                   noise band (default 0.5, i.e. a candidate may be up to
                   50% worse than baseline before the gate fails; being
                   better never fails). qps is higher-is-better, all other
                   timing keys are lower-is-better.

Per-key band overrides: --band 'PATTERN=F' (fnmatch, first match wins)
where PATTERN is matched against "bench/label/key", "label/key", and
"key". --band 'publish/p99_ms=1.0' allows publish p99 to double.

metrics.counters are deterministic and diffed exactly; gauges and
histograms are reporting surface, not gate surface, and are skipped.

A measurement row or counter present in baseline but missing from the
candidate fails the gate (coverage must not silently shrink); rows only
in the candidate are reported as warnings (new coverage is fine).

Exit status: 0 = gate passed, 1 = regression(s), 2 = usage/IO error.
Stdlib only; `--self-test` runs under ctest as `bench_diff_selftest`.
"""

import fnmatch
import glob
import json
import numbers
import os
import sys

DETERMINISTIC_RTOL = 1e-9
DEFAULT_BAND = 0.5

# Timing classification: suffixes/fragments that mark a value as derived
# from wall-clock time (and therefore machine-dependent). Schedule-dependent
# keys (how reader sessions happened to interleave with an epoch drain) are
# just as machine-dependent, so they ride the same skip/band path.
_TIMING_SUFFIXES = ("_ms", "_ns", "_us", "_ratio")
_TIMING_KEYS = {"qps", "sessions_drained", "appends_per_s"}
_HIGHER_IS_BETTER = {"qps", "appends_per_s"}

# Values deterministic in some benches but schedule-dependent in others,
# as fnmatch patterns against "bench/label/key". online_updates interleaves
# a live writer with the readers, so how many refinement LPs the readers
# ran depends on the interleaving; the same counter is seed-pinned in the
# read-only benches and stays gated there. The fault-hardening tallies
# (ISSUE 7) are likewise scheduling artifacts wherever they appear: which
# worker's queue wait crossed the shed threshold and how many attempts a
# flaky read took are decided by the scheduler, not by the bench seeds.
_SCHEDULE_DEPENDENT = (
    "online_updates/counters/dual.refine.lp_calls",
    "online_updates/counters/refine.batch.*",
    "*/counters/exec.shed.count",
    "*pager.retry.*",
    # ISSUE 10: the time-weighted mean queue depth divides the depth
    # integral (ns-weighted) by the measured wall clock — both numerator
    # and denominator are machine speed. The rest of the stall ledger
    # (depth_high_water, groups, commits_*) is seed-pinned in phase D
    # because every append is queued before the writer starts, and stays
    # gated as deterministic.
    "online_updates/stall/depth_avg",
)

# Deterministic but *directional*: seed-pinned values whose designed
# improvement direction is down (the page-clustered refiner's bounding-box
# decisions, read from the shape mirror, can only skip relation fetches;
# the group-commit ingest lane can only amortize journal fsyncs further).
# A decrease is the optimisation doing its job and never fails; an increase
# beyond the deterministic tolerance is a regression even without --timing.
_DETERMINISTIC_LOWER_IS_BETTER = (
    "*/refine/pages_per_candidate",
    "refine/pages_per_candidate",
    "*/ingest/group_fsyncs",
    "ingest/group_fsyncs",
    "*ingest.group.fsyncs",
)


def is_timing_key(key):
    if key in _TIMING_KEYS:
        return True
    if any(key.endswith(s) for s in _TIMING_SUFFIXES):
        return True
    return "ns_per" in key


def _is_number(v):
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _row_key(m):
    params = m.get("params") or {}
    return (m.get("label", ""),
            tuple(sorted((str(k), float(v)) for k, v in params.items()
                         if _is_number(v))))


def _index_rows(doc):
    """(label, params) -> merged values dict. The harness emits one row
    per AddValue call, so values for the same (label, params) merge."""
    rows = {}
    for m in doc.get("measurements", []):
        if not isinstance(m, dict):
            continue
        values = m.get("values")
        if not isinstance(values, dict):
            continue
        rows.setdefault(_row_key(m), {}).update(
            {k: v for k, v in values.items() if _is_number(v)})
    return rows


def _fmt_key(key):
    label, params = key
    if not params:
        return label
    return label + "[" + ",".join(f"{k}={v:g}" for k, v in params) + "]"


class Gate:
    def __init__(self, timing, bands, schedule=_SCHEDULE_DEPENDENT):
        self.timing = timing        # compare timing keys at all?
        self.bands = bands          # [(pattern, band), ...] first match wins
        self.schedule = schedule    # "bench/label/key" fnmatch patterns
        self.failures = []
        self.warnings = []
        self.compared = 0
        self.skipped_timing = 0

    def band_for(self, bench, label, key):
        candidates = (f"{bench}/{label}/{key}", f"{label}/{key}", key)
        for pattern, band in self.bands:
            if any(fnmatch.fnmatch(c, pattern) for c in candidates):
                return band
        return DEFAULT_BAND

    def is_schedule_dependent(self, bench, label, key):
        path = f"{bench}/{label}/{key}"
        return any(fnmatch.fnmatch(path, p) for p in self.schedule)

    def is_deterministic_directional(self, bench, label, key):
        candidates = (f"{bench}/{label}/{key}", f"{label}/{key}", key)
        return any(fnmatch.fnmatch(c, p)
                   for p in _DETERMINISTIC_LOWER_IS_BETTER
                   for c in candidates)

    def compare_value(self, where, bench, label, key, base, cand):
        self.compared += 1
        if is_timing_key(key) or self.is_schedule_dependent(bench, label, key):
            if not self.timing:
                self.skipped_timing += 1
                return
            band = self.band_for(bench, label, key)
            if key in _HIGHER_IS_BETTER:
                floor = base * (1.0 - band)
                if cand < floor:
                    self.failures.append(
                        f"{where}: {key} fell {base:g} -> {cand:g} "
                        f"(> {band:.0%} below baseline)")
            else:
                ceiling = base * (1.0 + band)
                if base >= 0 and cand > ceiling:
                    self.failures.append(
                        f"{where}: {key} rose {base:g} -> {cand:g} "
                        f"(> {band:.0%} above baseline)")
            return
        tol = DETERMINISTIC_RTOL * max(abs(base), abs(cand), 1.0)
        if self.is_deterministic_directional(bench, label, key):
            # Seed-pinned, lower-is-better: improvement passes, any rise
            # beyond the deterministic tolerance fails (no --timing needed).
            if cand > base + tol:
                self.failures.append(
                    f"{where}: directional {key} rose {base!r} -> {cand!r} "
                    "(deterministic, lower is better)")
            return
        # Deterministic: the seeds pin this down; any drift is a behaviour
        # change that must be explained by refreshing the baseline.
        if abs(cand - base) > tol:
            self.failures.append(
                f"{where}: deterministic {key} changed {base!r} -> {cand!r}")

    def compare_rows(self, bench, base_rows, cand_rows):
        for key, base_values in sorted(base_rows.items()):
            where = f"{bench}: {_fmt_key(key)}"
            cand_values = cand_rows.get(key)
            if cand_values is None:
                self.failures.append(f"{where}: row missing from candidate")
                continue
            for vkey, base in sorted(base_values.items()):
                if vkey not in cand_values:
                    self.failures.append(
                        f"{where}: value {vkey} missing from candidate")
                    continue
                self.compare_value(where, bench, key[0], vkey, base,
                                   cand_values[vkey])
        for key in sorted(set(cand_rows) - set(base_rows)):
            self.warnings.append(
                f"{bench}: candidate-only row {_fmt_key(key)} "
                "(not gated; refresh the baseline to gate it)")

    def compare_counters(self, bench, base_doc, cand_doc):
        base = (base_doc.get("metrics") or {}).get("counters") or {}
        cand = (cand_doc.get("metrics") or {}).get("counters") or {}
        for name, bv in sorted(base.items()):
            if not _is_number(bv):
                continue
            if name not in cand:
                self.failures.append(
                    f"{bench}: counter {name} missing from candidate")
                continue
            self.compare_value(f"{bench}: counter", bench, "counters", name,
                               bv, cand[name])
        for name in sorted(set(cand) - set(base)):
            self.warnings.append(f"{bench}: candidate-only counter {name}")

    def compare_docs(self, bench, base_doc, cand_doc):
        self.compare_rows(bench, _index_rows(base_doc), _index_rows(cand_doc))
        self.compare_counters(bench, base_doc, cand_doc)


def _load(path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def run_diff(baseline_dir, candidate_dir, gate):
    base_paths = sorted(glob.glob(os.path.join(baseline_dir, "BENCH_*.json")))
    if not base_paths:
        print(f"bench_diff: no BENCH_*.json under {baseline_dir}",
              file=sys.stderr)
        return 2
    for base_path in base_paths:
        name = os.path.basename(base_path)
        cand_path = os.path.join(candidate_dir, name)
        if not os.path.exists(cand_path):
            gate.failures.append(f"{name}: missing from candidate dir")
            continue
        try:
            base_doc = _load(base_path)
            cand_doc = _load(cand_path)
        except (OSError, json.JSONDecodeError) as e:
            print(f"bench_diff: {e}", file=sys.stderr)
            return 2
        gate.compare_docs(base_doc.get("bench", name), base_doc, cand_doc)
    base_names = {os.path.basename(p) for p in base_paths}
    for cand_path in sorted(
            glob.glob(os.path.join(candidate_dir, "BENCH_*.json"))):
        if os.path.basename(cand_path) not in base_names:
            gate.warnings.append(
                f"{os.path.basename(cand_path)}: candidate-only artifact")
    for w in gate.warnings:
        print(f"warning: {w}")
    for f in gate.failures:
        print(f"FAIL: {f}", file=sys.stderr)
    verdict = "FAILED" if gate.failures else "passed"
    print(f"bench_diff {verdict}: {gate.compared} values compared, "
          f"{gate.skipped_timing} timing values skipped, "
          f"{len(gate.failures)} regression(s), "
          f"{len(gate.warnings)} warning(s)")
    return 1 if gate.failures else 0


def _parse_bands(specs):
    bands = []
    for spec in specs:
        pattern, sep, value = spec.partition("=")
        if not sep or not pattern:
            raise ValueError(f"--band wants PATTERN=FLOAT, got {spec!r}")
        bands.append((pattern, float(value)))
    return bands


def self_test():
    base = {
        "schema": "cdb-bench/v1", "bench": "demo",
        "measurements": [
            {"label": "warm", "params": {"threads": 1},
             "values": {"qps": 100.0, "queries": 256, "failed": 0}},
            {"label": "latency", "params": {"threads": 1},
             "values": {"count": 256, "p50_ms": 2.0, "p99_ms": 6.0}},
            {"label": "t2/exist", "params": {"n": 2000},
             "values": {"index_fetches": 12.5}},
            {"label": "refine", "params": {},
             "values": {"pages_per_candidate": 0.15, "candidates": 7200}},
            {"label": "ingest", "params": {"group": 64},
             "values": {"appends": 2048, "groups": 32, "group_fsyncs": 32,
                        "appends_per_s": 2300000.0}},
        ],
        "metrics": {"counters": {"dual.refine.lp_calls": 4181},
                    "gauges": {"noise": 1}, "histograms": {}},
    }
    import copy
    failures = []
    scenarios = [0]

    def run(mutate, timing, bands, expect_fail, what):
        scenarios[0] += 1
        cand = copy.deepcopy(base)
        mutate(cand)
        gate = Gate(timing, bands)
        gate.compare_docs("demo", base, cand)
        if bool(gate.failures) != expect_fail:
            failures.append(
                f"{what}: {'unexpected ' + repr(gate.failures) if gate.failures else 'expected a failure, got none'}")

    run(lambda d: None, False, [], False, "identical artifacts")
    run(lambda d: None, True, [], False, "identical artifacts with --timing")
    run(lambda d: d["measurements"][2]["values"].update(index_fetches=13.0),
        False, [], True, "deterministic drift")
    run(lambda d: d["measurements"][0]["values"].update(qps=30.0),
        False, [], False, "timing drift ignored without --timing")
    run(lambda d: d["measurements"][0]["values"].update(qps=30.0),
        True, [], True, "qps collapse caught with --timing")
    run(lambda d: d["measurements"][0]["values"].update(qps=140.0),
        True, [], False, "qps improvement never fails")
    run(lambda d: d["measurements"][1]["values"].update(p99_ms=30.0),
        True, [], True, "latency blow-up caught with --timing")
    run(lambda d: d["measurements"][1]["values"].update(p99_ms=3.0),
        True, [], False, "latency improvement never fails")
    run(lambda d: d["measurements"][1]["values"].update(p99_ms=30.0),
        True, [("latency/p99_ms", 9.0)], False, "--band override widens")
    run(lambda d: d["measurements"].pop(1), False, [], True,
        "missing row fails")
    run(lambda d: d["measurements"][1]["values"].pop("count"), False, [],
        True, "missing value fails")
    run(lambda d: d["measurements"].append(
        {"label": "extra", "params": {}, "values": {"x": 1}}),
        False, [], False, "candidate-only row only warns")
    run(lambda d: d["metrics"]["counters"].update({"dual.refine.lp_calls": 9}),
        False, [], True, "counter drift fails")
    run(lambda d: d["metrics"]["counters"].pop("dual.refine.lp_calls"),
        False, [], True, "missing counter fails")
    run(lambda d: d["metrics"]["gauges"].update(noise=999), False, [], False,
        "gauges are not gated")
    run(lambda d: d["measurements"][3]["values"].update(
        pages_per_candidate=0.10),
        False, [], False, "directional pages_per_candidate improvement passes")
    run(lambda d: d["measurements"][3]["values"].update(
        pages_per_candidate=0.20),
        False, [], True, "directional pages_per_candidate rise fails")
    run(lambda d: d["measurements"][3]["values"].update(candidates=7300),
        False, [], True, "refine candidates stay exactly gated")
    run(lambda d: d["measurements"][4]["values"].update(
        appends_per_s=1000000.0),
        False, [], False, "ingest throughput ignored without --timing")
    run(lambda d: d["measurements"][4]["values"].update(
        appends_per_s=1000000.0),
        True, [], True, "ingest throughput collapse caught with --timing")
    run(lambda d: d["measurements"][4]["values"].update(
        appends_per_s=3000000.0),
        True, [], False, "ingest throughput improvement never fails")
    run(lambda d: d["measurements"][4]["values"].update(group_fsyncs=16),
        False, [], False, "directional group_fsyncs improvement passes")
    run(lambda d: d["measurements"][4]["values"].update(group_fsyncs=33),
        False, [], True, "directional group_fsyncs rise fails")
    run(lambda d: d["measurements"][4]["values"].update(groups=33),
        False, [], True, "ingest group count stays exactly gated")
    base["measurements"][1]["values"]["sessions_drained"] = 8
    run(lambda d: d["measurements"][1]["values"].update(sessions_drained=0),
        False, [], False, "schedule-dependent key ignored without --timing")
    base["metrics"]["counters"]["exec.shed.count"] = 3
    base["metrics"]["counters"]["pager.retry.read_retries"] = 2
    run(lambda d: d["metrics"]["counters"].update({"exec.shed.count": 7}),
        False, [], False, "shed counter rides the schedule-dependent path")
    run(lambda d: d["metrics"]["counters"].update(
        {"pager.retry.read_retries": 5}),
        False, [], False, "pager retry counters are schedule-dependent")

    # ISSUE 10 write-path pipeline rows: stage/visibility digests are
    # timing (auto-skipped via the _ms suffix), the trigger ledger and
    # stage counts are deterministic, and depth_avg rides the
    # schedule-dependent path for online_updates.
    base["measurements"].append(
        {"label": "stall", "params": {"group": 32},
         "values": {"groups": 8, "commits_full": 8, "commits_deadline": 0,
                    "commits_drain": 0, "depth_high_water": 256,
                    "depth_avg": 105.8}})
    base["measurements"].append(
        {"label": "pipeline_fsync", "params": {"group": 32},
         "values": {"count": 256, "sum_ms": 50.0, "p99_ms": 1.9}})
    run(lambda d: d["measurements"][5]["values"].update(commits_full=7,
                                                        commits_drain=1),
        False, [], True, "commit-trigger ledger stays exactly gated")
    run(lambda d: d["measurements"][5]["values"].update(depth_high_water=9),
        False, [], True, "depth high-water stays exactly gated")
    run(lambda d: d["measurements"][6]["values"].update(count=255),
        False, [], True, "pipeline stage count stays exactly gated")
    run(lambda d: d["measurements"][6]["values"].update(sum_ms=500.0),
        False, [], False, "pipeline stage sums ignored without --timing")
    run(lambda d: d["measurements"][6]["values"].update(sum_ms=500.0),
        True, [], True, "pipeline stage sum blow-up caught with --timing")
    cand = copy.deepcopy(base)
    cand["measurements"][5]["values"]["depth_avg"] = 2.0
    scenarios[0] += 2
    gate = Gate(False, [], schedule=("demo/stall/depth_avg",))
    gate.compare_docs("demo", base, cand)
    if gate.failures:
        failures.append(f"schedule-dependent depth_avg still gated: "
                        f"{gate.failures!r}")
    gate = Gate(False, [])
    gate.compare_docs("demo", base, cand)
    if not gate.failures:
        failures.append("depth_avg pattern for online_updates must not "
                        "skip under another bench name")

    # Per-bench schedule-dependent counters skip the deterministic gate
    # only for the bench that matches the pattern.
    cand = copy.deepcopy(base)
    cand["metrics"]["counters"]["dual.refine.lp_calls"] = 9
    scenarios[0] += 2
    gate = Gate(False, [], schedule=("demo/counters/dual.refine.lp_calls",))
    gate.compare_docs("demo", base, cand)
    if gate.failures:
        failures.append(f"schedule-dependent counter still gated: "
                        f"{gate.failures!r}")
    gate = Gate(False, [], schedule=("other/counters/dual.refine.lp_calls",))
    gate.compare_docs("demo", base, cand)
    if not gate.failures:
        failures.append("counter pattern for another bench must not skip")

    if failures:
        for f in failures:
            print(f"SELF-TEST FAIL: {f}", file=sys.stderr)
        return 1
    print(f"self-test OK ({scenarios[0]} scenarios)")
    return 0


def main(argv):
    if len(argv) >= 2 and argv[1] == "--self-test":
        return self_test()
    args = []
    timing = False
    band_specs = []
    it = iter(argv[1:])
    for arg in it:
        if arg == "--timing":
            timing = True
        elif arg == "--band":
            band_specs.append(next(it, ""))
        elif arg.startswith("--band="):
            band_specs.append(arg[len("--band="):])
        elif arg.startswith("-"):
            print(__doc__, file=sys.stderr)
            return 2
        else:
            args.append(arg)
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        bands = _parse_bands(band_specs)
    except ValueError as e:
        print(f"bench_diff: {e}", file=sys.stderr)
        return 2
    return run_diff(args[0], args[1], Gate(timing, bands))


if __name__ == "__main__":
    sys.exit(main(sys.argv))
