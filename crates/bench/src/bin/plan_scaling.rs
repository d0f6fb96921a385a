//! Measures the plan layers on a same-workload sweep: one
//! benchmark under many configurations — the exact shape of the paper's
//! sensitivity experiments (Figures 5-7), where every cell of the grid
//! consumes the same instruction stream.
//!
//! It measures **result memoization**: the plan executed twice on one
//! engine with the result cache enabled.  The repeat is served entirely
//! from memoized outcomes (`repeat_result_cache_hits` out of
//! `repeat_result_cache_hits + repeat_result_cache_misses` probes) and
//! `repeat_over_cold_speedup` reports the saved wall-clock.  The cold
//! pass replays one shared trace for every job; its trace-cache counters
//! land in the artefact.
//!
//! Results go to `results/BENCH_plan_scaling.json`.  `--jobs N` selects
//! the worker count; `MCD_FULL=1` lengthens the runs; `--benchmark` is
//! fixed (gzip) so the artefact is comparable across commits.

use mcd_bench::{settings_from_env, write_bench_json};
use mcd_control::AttackDecayParams;
use mcd_core::engine::{ExperimentEngine, RunPlan};
use mcd_core::runner::ConfigKind;
use mcd_workloads::Benchmark;

/// A sensitivity-style sweep: every configuration family of the paper
/// over one benchmark, so all jobs share one workload stream.
fn sweep_plan(bench: Benchmark) -> RunPlan {
    let mut plan = RunPlan::new()
        .job(bench, ConfigKind::FullySynchronous)
        .job(bench, ConfigKind::BaselineMcd);
    for decay in [0.005, 0.01, 0.015, 0.02] {
        let mut params = AttackDecayParams::paper_defaults();
        params.decay = decay;
        plan = plan.job(bench, ConfigKind::AttackDecay(params));
    }
    for target_degradation in [0.01, 0.02, 0.05] {
        plan = plan.job(bench, ConfigKind::OfflineDynamic { target_degradation });
    }
    for freq_mhz in [1000.0, 875.0, 750.0] {
        plan = plan.job(bench, ConfigKind::GlobalScaling { freq_mhz });
    }
    plan
}

fn main() {
    let bench = Benchmark::Gzip;
    let settings = settings_from_env();
    let plan = sweep_plan(bench);
    eprintln!(
        "Plan scaling: {} same-workload jobs over {:?}, {} instructions each, {} workers ...",
        plan.jobs.len(),
        bench,
        settings.instructions,
        settings.workers()
    );

    // --- Repeat plan on one engine: the second execution is served from
    // the result cache.
    let engine = ExperimentEngine::from_settings(&settings.clone().with_result_cache(true));
    let (cold_outcomes, cold) = engine.execute_with_stats(&plan);
    let (warm_outcomes, warm) = engine.execute_with_stats(&plan);
    println!(
        "cold plan: {:.3}s wall, {} runs ({} materialization(s), {} trace hits, peak {} KiB)",
        cold.wall_seconds,
        cold.runs,
        cold.trace_materializations,
        cold.trace_cache_hits,
        cold.trace_peak_bytes / 1024
    );
    for (a, b) in cold_outcomes.iter().zip(&warm_outcomes) {
        assert_eq!(a.result, b.result, "memoized repeats must be bit-identical");
    }
    let repeat_over_cold = if warm.wall_seconds > 0.0 {
        cold.wall_seconds / warm.wall_seconds
    } else {
        0.0
    };
    println!(
        "repeat plan: cold {:.3}s -> warm {:.3}s ({repeat_over_cold:.1}x), \
         {} hits / {} misses, {} simulations",
        cold.wall_seconds,
        warm.wall_seconds,
        warm.result_cache_hits,
        warm.result_cache_misses,
        warm.runs
    );

    write_bench_json(
        "plan_scaling",
        &cold,
        &[
            ("plan_jobs", (plan.jobs.len() as u64).into()),
            ("serial_fallback", (settings.workers() == 1).into()),
            ("repeat_wall_seconds", warm.wall_seconds.into()),
            ("repeat_over_cold_speedup", repeat_over_cold.into()),
            ("repeat_result_cache_hits", warm.result_cache_hits.into()),
            (
                "repeat_result_cache_misses",
                warm.result_cache_misses.into(),
            ),
            ("repeat_runs", (warm.runs as u64).into()),
        ],
    );
}
