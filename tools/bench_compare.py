#!/usr/bin/env python3
"""Benchmark regression gate for BENCH_scrub.json.

Compares a freshly produced benchmark file (tools/bench_run.sh output)
against the committed baseline:

  * parallel_central runs, keyed by (shards, workers): events/sec must not
    drop by more than the threshold (default 15%);
  * the ingest scan and join runs are not gated here: tools/ingest_vs_parent.sh
    races them against the parent commit's build on the same machine;
  * the fresh ingest.dict section's wire_bytes_reduction over one record
    per event must hold an absolute floor (default 1.3x) — the dictionary
    encoding has to keep paying for itself;
  * the fresh ingest.filter section's ir_row over unfolded_row events/sec
    (speedup_vs_unfolded) must hold an absolute floor (default 1.05x) —
    install-time folding and pruning have to keep paying for themselves;
  * the fresh ingest.metrics section's metrics-on over metrics-off
    events/sec ratio must hold an absolute floor (default 0.95) — the
    operator-metrics plane is on by default and its tax must stay small;
  * the multitenant section must show predicted-cost admission actually
    working (admits AND cost rejections, counts summing to submissions),
    with the usual relative events/sec gate on admitted-tenant throughput;
  * fleet runs, keyed by topology (flat / hierarchical / *_preagg):
    central-link bytes and central CPU must not GROW by more than the
    threshold, and the fresh flat/hierarchical bytes ratio must hold the
    scaling floor (default 5x) — the combiner tier's reason to exist.

Improvements never fail. Configurations present on only one side are FATAL
in both directions: a section silently missing from the fresh run means the
bench stopped measuring it (the gate would otherwise pass vacuously), and a
fresh section with no baseline means BENCH_scrub.json was not regenerated —
refresh it with tools/bench_run.sh and commit it.

Usage:
    tools/bench_compare.py BASELINE FRESH [--threshold 0.15]
                           [--min-fleet-bytes-reduction 5.0]
"""

import argparse
import json
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def parallel_runs(doc):
    # New layout nests the sweep under "parallel_central"; the legacy layout
    # was that section alone at top level.
    section = doc.get("parallel_central", doc)
    return {(r["shards"], r["workers"]): r for r in section.get("runs", [])}


def ingest_dict_runs(doc):
    # The dict case (a kept low-cardinality string column, dictionary-
    # encoded on the wire) nests under ingest.dict. Gated on events/sec like
    # every case, plus an absolute wire-bytes-reduction floor vs one record
    # per event.
    section = (doc.get("ingest") or {}).get("dict") or {}
    return ({r["pipeline"]: r for r in section.get("runs", [])},
            section.get("wire_bytes_reduction"))


def ingest_spill_runs(doc):
    # The spill case (state-budget tiers over a high-cardinality scan) nests
    # under ingest.spill; absent in pre-spill baselines. Only the
    # "unlimited" tier is gated — budgeted tiers pay serialize + replay by
    # design and are reported informationally.
    section = (doc.get("ingest") or {}).get("spill") or {}
    return {r["pipeline"]: r for r in section.get("runs", [])}


def ingest_filter_runs(doc):
    # The filter case (the planner's folded, pruned programs vs the same
    # conjuncts lowered unfolded and unpruned) nests under ingest.filter.
    section = (doc.get("ingest") or {}).get("filter") or {}
    return ({r["pipeline"]: r for r in section.get("runs", [])},
            section.get("speedup_vs_unfolded"))


def ingest_metrics_runs(doc):
    # The metrics case (identical columnar scan, operator-metrics plane on
    # vs off) nests under ingest.metrics; absent in pre-metrics baselines.
    # Gated on events/sec like every case, plus an absolute on/off ratio
    # floor — the observability tax must stay within 5%.
    section = (doc.get("ingest") or {}).get("metrics") or {}
    return ({r["pipeline"]: r for r in section.get("runs", [])},
            section.get("events_per_sec_ratio"))


def multitenant_run(doc):
    return doc.get("multitenant") or {}


def gate_multitenant(baseline, fresh, threshold, failures):
    """The multitenant bench is gated structurally: predicted-cost admission
    must have actually admitted AND rejected work, the accounting identity
    must hold, and central throughput across the admitted tenants gets the
    usual relative events/sec gate."""
    base = multitenant_run(baseline)
    cur = multitenant_run(fresh)
    gate_coverage("multitenant", {"scenario": 1} if base else {},
                  {"scenario": 1} if cur else {}, failures)
    if not base or not cur:
        return
    admitted = cur.get("admitted", 0)
    rejected_cost = cur.get("rejected_cost", 0)
    rejected_limit = cur.get("rejected_limit", 0)
    submitted = cur.get("queries_submitted", 0)
    line = (f"multitenant admission: {admitted} admitted, "
            f"{rejected_cost} cost-rejected, {rejected_limit} "
            f"limit-rejected of {submitted}")
    if admitted <= 0 or rejected_cost <= 0 or \
            admitted + rejected_cost + rejected_limit != submitted:
        failures.append(line + " (needs admits AND cost rejections, "
                        "and the counts must sum to submissions)")
        print("FAIL " + line)
    else:
        print("ok   " + line)
    gate_events_per_sec("multitenant", {"all_tenants": base},
                        {"all_tenants": cur}, threshold, failures)


def gate_coverage(label, baseline, fresh, failures):
    """Both directions fatal: a configuration the baseline knows must be
    measured by the fresh run, and a fresh configuration must have a
    committed baseline (regenerate BENCH_scrub.json)."""
    for key in sorted(set(baseline) - set(fresh)):
        line = f"{label} {key}: present in baseline, missing from fresh run"
        failures.append(line)
        print("FAIL " + line)
    for key in sorted(set(fresh) - set(baseline)):
        line = (f"{label} {key}: new configuration with no baseline — "
                "refresh BENCH_scrub.json with tools/bench_run.sh")
        failures.append(line)
        print("FAIL " + line)


def gate_events_per_sec(label, baseline, fresh, threshold, failures):
    gate_coverage(label, baseline, fresh, failures)
    for key in sorted(baseline):
        base = baseline[key]
        cur = fresh.get(key)
        name = " ".join(f"{k}={v}" for k, v in zip(
            ("shards", "workers") if isinstance(key, tuple) else ("pipeline",),
            key if isinstance(key, tuple) else (key,)))
        if cur is None:
            continue  # already failed by gate_coverage
        base_eps = base["events_per_sec"]
        cur_eps = cur["events_per_sec"]
        delta = (cur_eps - base_eps) / base_eps if base_eps else 0.0
        line = (f"{label} {name}: "
                f"{base_eps:,.0f} -> {cur_eps:,.0f} ev/s ({delta:+.1%})")
        if delta < -threshold:
            failures.append(line)
            print("FAIL " + line)
        else:
            print("ok   " + line)


def fleet_runs(doc):
    section = doc.get("fleet") or {}
    return ({r["topology"]: r for r in section.get("runs", [])},
            section.get("bytes_reduction"))


def gate_fleet(baseline, fresh, threshold, min_reduction, failures):
    base_runs, _ = fleet_runs(baseline)
    fresh_runs, fresh_reduction = fleet_runs(fresh)
    gate_coverage("fleet", base_runs, fresh_runs, failures)
    # Bytes and modeled CPU regress UPWARD: gate growth, celebrate shrinkage.
    for key in sorted(base_runs):
        cur = fresh_runs.get(key)
        if cur is None:
            continue  # already failed by gate_coverage
        base = base_runs[key]
        for metric, unit in (("central_link_bytes", "B"),
                             ("central_cpu_seconds", "s")):
            base_v = base[metric]
            cur_v = cur[metric]
            delta = (cur_v - base_v) / base_v if base_v else 0.0
            line = (f"fleet {key} {metric}: "
                    f"{base_v:,.6g} -> {cur_v:,.6g} {unit} ({delta:+.1%})")
            if delta > threshold:
                failures.append(line)
                print("FAIL " + line)
            else:
                print("ok   " + line)
    if fresh_runs:
        if fresh_reduction is None:
            line = "fleet: fresh run has no bytes_reduction field"
            failures.append(line)
            print("FAIL " + line)
        else:
            # Absolute floor, like the ingest speedup: the combiner tier must
            # keep the central link sublinear in fleet size or the
            # hierarchical story quietly evaporated.
            line = (f"fleet flat/hierarchical bytes reduction: "
                    f"{fresh_reduction:.2f}x (floor {min_reduction:.2f}x)")
            if fresh_reduction < min_reduction:
                failures.append(line)
                print("FAIL " + line)
            else:
                print("ok   " + line)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("fresh")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="max tolerated fractional events/sec regression")
    parser.add_argument("--min-dict-bytes-reduction", type=float, default=1.3,
                        help="record-format-over-columnar wire-bytes floor "
                             "for the fresh ingest dict bench")
    parser.add_argument("--min-filter-speedup", type=float, default=1.05,
                        help="folded-over-unfolded IR floor for the fresh "
                             "filter bench (row path)")
    parser.add_argument("--min-metrics-ratio", type=float, default=0.95,
                        help="metrics-on over metrics-off events/sec floor "
                             "for the fresh ingest metrics bench")
    parser.add_argument("--min-fleet-bytes-reduction", type=float,
                        default=5.0,
                        help="flat-over-hierarchical central-link-bytes "
                             "floor for the fresh fleet bench")
    args = parser.parse_args()

    baseline = load(args.baseline)
    fresh = load(args.fresh)

    failures = []
    gate_events_per_sec("parallel_central", parallel_runs(baseline),
                        parallel_runs(fresh), args.threshold, failures)


    base_dict, _ = ingest_dict_runs(baseline)
    fresh_dict, fresh_dict_reduction = ingest_dict_runs(fresh)
    gate_events_per_sec("ingest.dict", base_dict, fresh_dict, args.threshold,
                        failures)
    if fresh_dict:
        if fresh_dict_reduction is None:
            line = "ingest.dict: fresh run has no wire_bytes_reduction field"
            failures.append(line)
            print("FAIL " + line)
        else:
            # Absolute floor: the dictionary must keep shrinking the wire on
            # the low-cardinality workload it exists for.
            line = (f"ingest.dict wire bytes reduction vs records: "
                    f"{fresh_dict_reduction:.2f}x "
                    f"(floor {args.min_dict_bytes_reduction:.2f}x)")
            if fresh_dict_reduction < args.min_dict_bytes_reduction:
                failures.append(line)
                print("FAIL " + line)
            else:
                print("ok   " + line)

    base_spill = ingest_spill_runs(baseline)
    fresh_spill = ingest_spill_runs(fresh)
    gate_events_per_sec(
        "ingest.spill",
        {k: v for k, v in base_spill.items() if k == "unlimited"},
        {k: v for k, v in fresh_spill.items() if k == "unlimited"},
        args.threshold, failures)
    unlimited = fresh_spill.get("unlimited")
    for tier in ("half", "eighth"):
        run = fresh_spill.get(tier)
        if run and unlimited and run["events_per_sec"]:
            print(f"ok   ingest.spill {tier} budget: "
                  f"{unlimited['events_per_sec'] / run['events_per_sec']:.2f}x "
                  f"slower than unlimited "
                  f"({run.get('spilled', 0):,} events spilled, lossless)")

    base_metrics, _ = ingest_metrics_runs(baseline)
    fresh_metrics, fresh_metrics_ratio = ingest_metrics_runs(fresh)
    gate_events_per_sec("ingest.metrics", base_metrics, fresh_metrics,
                        args.threshold, failures)
    if fresh_metrics:
        if fresh_metrics_ratio is None:
            line = "ingest.metrics: fresh run has no events_per_sec_ratio"
            failures.append(line)
            print("FAIL " + line)
        else:
            # Absolute floor: the operator-metrics plane is pure counters
            # plus one thread-CPU read per chunk, and it is on by default —
            # its tax must stay within 5% of the uninstrumented pipeline.
            line = (f"ingest.metrics on/off throughput ratio: "
                    f"{fresh_metrics_ratio:.3f} "
                    f"(floor {args.min_metrics_ratio:.2f})")
            if fresh_metrics_ratio < args.min_metrics_ratio:
                failures.append(line)
                print("FAIL " + line)
            else:
                print("ok   " + line)

    gate_fleet(baseline, fresh, args.threshold,
               args.min_fleet_bytes_reduction, failures)

    gate_multitenant(baseline, fresh, args.threshold, failures)

    base_filter, _ = ingest_filter_runs(baseline)
    fresh_filter, fresh_filter_speedup = ingest_filter_runs(fresh)
    gate_events_per_sec("ingest.filter", base_filter, fresh_filter,
                        args.threshold, failures)
    if fresh_filter:
        if fresh_filter_speedup is None:
            line = "ingest.filter: fresh run has no speedup_vs_unfolded field"
            failures.append(line)
            print("FAIL " + line)
    if fresh_filter_speedup is not None:
        # Absolute floor: the planner's folded, pruned programs must stay
        # ahead of the same conjuncts lowered unfolded and unpruned, or the
        # whole install-time-analysis argument quietly evaporated.
        line = (f"ingest.filter folded IR speedup vs unfolded: "
                f"{fresh_filter_speedup:.2f}x "
                f"(floor {args.min_filter_speedup:.2f}x)")
        if fresh_filter_speedup < args.min_filter_speedup:
            failures.append(line)
            print("FAIL " + line)
        else:
            print("ok   " + line)

    if failures:
        print(f"\n{len(failures)} gate(s) failed; if an events/sec shift is "
              "intentional, refresh the baseline with tools/bench_run.sh and "
              "commit BENCH_scrub.json (the absolute floors are not "
              "waivable that way)")
        return 1
    print(f"\nno events/sec regression beyond {args.threshold:.0%} threshold; "
          "absolute floors hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
