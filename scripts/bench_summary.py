#!/usr/bin/env python3
"""Render the bench-job artefacts as a GitHub job-summary markdown table.

Usage:
    bench_summary.py results/BENCH_kernel_micro.json results/BENCH_engine_scaling.json

Reads the kernel micro-bench artefact (per-bench timings plus the
event-timeline traffic counters) and the engine-scaling artefact, and
prints GitHub-flavoured markdown suitable for appending to
``$GITHUB_STEP_SUMMARY``.  Missing files are reported but do not fail the
job — the summary is advisory, the artefacts are the record.
"""

import json
import sys


def load(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as err:
        print(f"_bench summary: could not read `{path}`: {err}_\n")
        return None


def kernel_micro(doc):
    print("### Kernel throughput (`microarch_components`)\n")
    if doc.get("nproc") is not None:
        print(f"_host parallelism (nproc): {doc['nproc']}_\n")
    # Whole-kernel runs plus the per-edge clock cost beside them.
    rows = [r for r in doc.get("benches", [])
            if r["id"].startswith(("processor_run_", "clock_advance_"))]
    if rows:
        print("| bench | ms/iter |")
        print("|---|---|")
        for r in rows:
            print(f"| `{r['id']}` | {r['ns_per_iter'] / 1e6:.2f} |")
        print()
    traffic = doc.get("event_traffic", [])
    if traffic:
        print("### Event-timeline traffic (20k-instruction runs)\n")
        print("| workload | pushes | pops | drain passes | events/commit |")
        print("|---|---|---|---|---|")
        for t in traffic:
            epc = t.get("events_per_commit")
            epc_cell = f"{epc:.3f}" if epc is not None else "-"
            print(
                f"| {t['workload']} | {t['timeline_pushes']} | {t['timeline_pops']} "
                f"| {t.get('drain_passes', '-')} | {epc_cell} |"
            )
        print()


def engine_scaling(doc):
    print("### Engine scaling (sliced vs run-granularity)\n")
    ratio = doc.get("sliced_over_unsliced_speedup")
    print(f"- workers: **{doc.get('workers')}**, slice: {doc.get('slice_cycles')} steps")
    print(f"- sliced wall: {doc.get('wall_seconds', 0):.2f}s, "
          f"run-granularity wall: {doc.get('unsliced_wall_seconds', 0):.2f}s")
    if ratio is not None:
        print(f"- **sliced_over_unsliced_speedup: {ratio:.3f}x** "
              "(track in ROADMAP's multicore-validation open item)")
    if doc.get("serial_fallback"):
        print("- WARNING: worker count resolved to 1 — the ratio measures nothing")
    print()


def plan_scaling(doc):
    print("### Plan scaling (repeat plan served from the result cache)\n")
    print(f"- workers: **{doc.get('workers')}**, jobs: {doc.get('plan_jobs')} "
          f"(same-workload sweep)")
    print(f"- cold wall: {doc.get('wall_seconds', 0):.2f}s")
    print(f"- traces: {doc.get('trace_materializations')} materialization(s), "
          f"{doc.get('trace_cache_hits')} hits, "
          f"peak {doc.get('trace_peak_bytes', 0) / 1024:.0f} KiB resident")
    hits = doc.get("repeat_result_cache_hits")
    misses = doc.get("repeat_result_cache_misses")
    if hits is not None:
        print(f"- repeat plan: **{hits} result-cache hits / {misses} misses** "
              f"({doc.get('repeat_runs')} re-simulations), "
              f"{doc.get('repeat_over_cold_speedup', 0):.0f}x over cold")
    if doc.get("serial_fallback"):
        print("- WARNING: worker count resolved to 1 — wall-clock ratios are serial")
    print()


def main(argv):
    for path in argv[1:]:
        doc = load(path)
        if doc is None:
            continue
        if doc.get("experiment") == "kernel_micro":
            kernel_micro(doc)
        elif doc.get("experiment") == "engine_scaling":
            engine_scaling(doc)
        elif doc.get("experiment") == "plan_scaling":
            plan_scaling(doc)
        else:
            print(f"_bench summary: `{path}` has unknown experiment kind_\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
