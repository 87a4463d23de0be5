#!/usr/bin/env python3
"""Validate the checked-in BENCH_*.json files against the bench schema.

Every bench binary in bench/ dumps a flat JSON object of numeric metrics.
CI and downstream tooling (the simd-tiers comparison, the serving-smoke
gate) key on a stable subset of those metrics, so this script fails fast
when a bench stops emitting one of them -- a silent schema drift would
otherwise surface as a mysteriously green comparison over missing data.

Checks, per file:
  * the file parses as JSON and is a flat object of finite numbers;
  * the common keys every bench must carry are present
    (simd_isa, fast_mode, parallelism);
  * smoke artifacts -- the fast-mode runs ctest writes as *_smoke.json,
    which CI may copy under the plain BENCH_<bench>.json name -- also
    carry bench_hw_concurrency, so a parallel figure can be told apart
    from one measured on a single core;
  * the per-bench required keys are present (throughput fields such as
    sa_proposals_per_sec_* for the kernel bench, *_throughput_rps for the
    serving bench);
  * per-case keys derived from the file itself are complete (each decomp
    case with a <case>_valid flag also reports elapsed_ms and
    cost_over_greedy; each portfolio instance i<k> reports its solo and
    portfolio timings).

Usage:
  python3 tools/check_bench_schema.py            # checks repo-root BENCH_*.json
  python3 tools/check_bench_schema.py DIR|FILE…  # checks the given paths

Exits non-zero with one line per violation. Stdlib only.
"""

import glob
import json
import math
import os
import sys

# Keys every bench JSON must carry, regardless of which bench wrote it.
COMMON_KEYS = ("simd_isa", "fast_mode", "parallelism")

# Keys every smoke artifact must carry on top of COMMON_KEYS (every bench
# writes them through bench::WriteJson; older checked-in full-mode files
# predate the key).
SMOKE_KEYS = ("bench_hw_concurrency",)

# Per-bench required keys, matched on the file's basename prefix (so the
# *_smoke.json variants written by ctest are held to the same schema).
REQUIRED_KEYS = {
    "BENCH_kernels": (
        "sa_proposals_per_sec_reference",
        "sa_proposals_per_sec_incremental",
        "sa_proposals_per_sec_batched",
        "sa_batched_replicas_per_sec",
        "sa_reads_per_sec_serial",
        "sa_reads_per_sec_parallel",
        "tabu_moves_per_sec_incremental",
        "sqa_spin_updates_per_sec_incremental",
        "sqa_batched_spin_updates_per_sec",
        "qaoa_amplitudes_per_sec_serial",
        "qaoa_amplitudes_per_sec_parallel",
    ),
    "BENCH_qaoa": (
        "mixer_amps_per_sec_reference",
        "mixer_amps_per_sec_fused",
        "grid_evals_per_sec_serial_reference",
        "grid_evals_per_sec_batched_fused",
        "amplitudes_identical",
        "simd_tiers_identical",
        # The JO-encoding section: the spectrum the QAOA backend serves.
        "jo_spectrum_levels",
        "jo_create_ms",
        "jo_first_run_ms",
    ),
    "BENCH_portfolio": (
        "instances",
        "all_tti_le_best_solo",
    ),
    "BENCH_adaptive": (
        "queries",
        "eval_seeds",
        "trained_races",
        "buckets",
        "tti_ratio",
        "sweeps_tti_ratio",
        "work_ratio",
        "elapsed_ratio",
        "mean_cost_ratio",
        "throttled_strands",
        "adaptive_applied",
        "cost_ok",
        "adaptive_ok",
    ),
    "BENCH_decomp": (
        "cases",
        "valid_tree_rate",
    ),
    "BENCH_serving": (
        "closed_throughput_rps",
        "closed_goodput_rps",
        "closed_cache_hit_rate",
        "closed_p50_ms",
        "closed_p95_ms",
        "closed_p99_ms",
        "open_throughput_rps",
        "open_goodput_rps",
        "open_rejected",
        "open_p99_ms",
        # Duplicate-heavy Zipf profile for both arrival processes:
        # "baseline" bypasses the plan table per request and rebuilds every
        # QUBO; "coalesced" goes through the plan table (cache hits plus
        # single-flight followers).
        "dup_closed_baseline_throughput_rps",
        "dup_closed_coalesced_throughput_rps",
        "dup_open_baseline_throughput_rps",
        "dup_open_coalesced_throughput_rps",
        "coalesced",
        "solves_per_unique_key",
        # Token-bucket rate limiting and plan-cache warm-up scenarios.
        "ratelimited",
        "cache_warm_hits",
        "silent_drops",
        "smoke_ok",
    ),
    "BENCH_obs_overhead": (),  # CI-only artifact; common keys suffice
}

# Per-instance/per-case suffixes expanded from counters in the file.
PORTFOLIO_INSTANCE_KEYS = (
    "solo_sa_seconds",
    "solo_tabu_seconds",
    "solo_sqa_seconds",
    "best_solo_seconds",
    "portfolio_elapsed_seconds",
    "portfolio_best_energy",
    "portfolio_time_to_incumbent_seconds",
)
DECOMP_CASE_KEYS = ("elapsed_ms", "cost_over_greedy")
ADAPTIVE_QUERY_KEYS = (
    "fixed_winner_tti_ms",
    "adaptive_winner_tti_ms",
    "throttled",
    "winner_flips",
)


def check_file(path):
    """Returns a list of violation strings for one bench JSON file."""
    name = os.path.basename(path)
    try:
        with open(path, "r", encoding="utf-8") as f:
            data = json.load(f)
    except (OSError, json.JSONDecodeError) as err:
        return ["%s: does not parse as JSON: %s" % (name, err)]

    errors = []
    if not isinstance(data, dict):
        return ["%s: top-level value is %s, expected an object" %
                (name, type(data).__name__)]
    for key, value in data.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            errors.append("%s: key %r is %s, expected a number" %
                          (name, key, type(value).__name__))
        elif not math.isfinite(value):
            errors.append("%s: key %r is %r, expected finite" %
                          (name, key, value))

    def require(keys, why):
        for key in keys:
            if key not in data:
                errors.append("%s: missing %s key %r" % (name, why, key))

    require(COMMON_KEYS, "common")
    if data.get("fast_mode") == 1 or "_smoke" in name:
        require(SMOKE_KEYS, "smoke")

    bench = None
    for prefix in REQUIRED_KEYS:
        if name == prefix + ".json" or name.startswith(prefix + "_"):
            bench = prefix
            break
    if bench is None:
        errors.append("%s: unknown bench file (no schema registered; add one "
                      "to REQUIRED_KEYS in tools/check_bench_schema.py)" %
                      name)
        return errors
    require(REQUIRED_KEYS[bench], bench)

    if bench == "BENCH_portfolio":
        for inst in range(int(data.get("instances", 0))):
            require(("i%d_%s" % (inst, suffix)
                     for suffix in PORTFOLIO_INSTANCE_KEYS),
                    "instance %d" % inst)
    elif bench == "BENCH_adaptive":
        for query in range(int(data.get("queries", 0))):
            require(("q%d_%s" % (query, suffix)
                     for suffix in ADAPTIVE_QUERY_KEYS),
                    "query %d" % query)
        # The checked-in full-mode artifact carries the acceptance bar:
        # adaptive must beat the fixed race on wall time-to-incumbent.
        # Smoke artifacts (fast_mode == 1) are schema-checked only --
        # their wall timings come from loaded CI machines.
        if data.get("fast_mode") == 0:
            if data.get("adaptive_ok") != 1:
                errors.append("%s: adaptive_ok != 1 (the adaptive race "
                              "regressed; regenerate with "
                              "bench/portfolio_race)" % name)
            if not data.get("tti_ratio", 2.0) <= 1.0:
                errors.append("%s: tti_ratio %r > 1.0 (adaptive must not "
                              "regress time-to-incumbent)" %
                              (name, data.get("tti_ratio")))
    elif bench == "BENCH_decomp":
        prefixes = sorted(key[:-len("_valid")] for key in data
                          if key.endswith("_valid"))
        if not prefixes:
            errors.append("%s: no per-case *_valid keys found" % name)
        for prefix in prefixes:
            require(("%s_%s" % (prefix, suffix)
                     for suffix in DECOMP_CASE_KEYS),
                    "case %s" % prefix)

    return errors


def main(argv):
    if len(argv) > 1:
        paths = []
        for arg in argv[1:]:
            if os.path.isdir(arg):
                paths.extend(sorted(glob.glob(os.path.join(arg,
                                                           "BENCH_*.json"))))
            else:
                paths.append(arg)
    else:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        paths = sorted(glob.glob(os.path.join(root, "BENCH_*.json")))

    if not paths:
        print("check_bench_schema: no BENCH_*.json files found", file=sys.stderr)
        return 1

    errors = []
    for path in paths:
        errors.extend(check_file(path))

    for error in errors:
        print("check_bench_schema: %s" % error, file=sys.stderr)
    if not errors:
        print("check_bench_schema: %d file(s) OK: %s" %
              (len(paths), ", ".join(os.path.basename(p) for p in paths)))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
