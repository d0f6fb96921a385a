//! Running one benchmark under one configuration.
//!
//! The runner knows how to build the simulator for each of the paper's
//! configurations, including the two-pass flow required by the off-line
//! oracle (profile at maximum frequency, then re-run with the per-interval
//! schedule) and the search for the global frequency that matches a target
//! performance degradation (used for the `Global(...)` rows of Table 6).

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use mcd_clock::{MegaHertz, OperatingPointTable};
use mcd_control::{
    AttackDecayController, AttackDecayParams, FixedController, FrequencyController,
    GlobalScalingController, OfflineController, OfflineProfile,
};
use mcd_sim::{McdProcessor, SimConfig, SimResult, StepOutcome};
use mcd_workloads::{Benchmark, TraceCursor};
use serde::{Deserialize, Serialize};

use crate::cache::{
    result_key, ResultCache, ResultCacheStats, TraceCache, TraceCacheStats, TraceKey,
};
use crate::engine::result_caching_enabled;

/// Which of the paper's configurations to run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ConfigKind {
    /// Conventional fully synchronous processor at 1 GHz / 1.2 V.
    FullySynchronous,
    /// Baseline MCD processor: four domains, all at maximum frequency.
    BaselineMcd,
    /// MCD processor driven by the Attack/Decay on-line algorithm.
    AttackDecay(AttackDecayParams),
    /// MCD processor driven by the off-line oracle with the given
    /// performance-degradation target (0.01 and 0.05 reproduce Dynamic-1%
    /// and Dynamic-5%).
    OfflineDynamic {
        /// Degradation target as a fraction.
        target_degradation: f64,
    },
    /// Fully synchronous processor globally scaled to the given frequency.
    GlobalScaling {
        /// The global frequency in MHz.
        freq_mhz: MegaHertz,
    },
}

impl ConfigKind {
    /// Label used in reports (matches the paper's terminology).
    pub fn label(&self) -> String {
        match self {
            ConfigKind::FullySynchronous => "Fully synchronous".to_string(),
            ConfigKind::BaselineMcd => "Baseline MCD".to_string(),
            ConfigKind::AttackDecay(_) => "Attack/Decay".to_string(),
            ConfigKind::OfflineDynamic { target_degradation } => {
                format!("Dynamic-{}%", (target_degradation * 100.0).round() as u32)
            }
            ConfigKind::GlobalScaling { freq_mhz } => format!("Global ({freq_mhz:.0} MHz)"),
        }
    }
}

/// A simulation run that can execute in bounded slices.
///
/// Produced by [`BenchmarkRunner::begin`]; the owner repeatedly calls
/// [`PausableRun::step`] until it yields the outcome.  All of the run's
/// state — the processor (with its controller, clocks, event queues and
/// telemetry) *and* its cursor into the shared instruction trace — is
/// owned here, so the value can move freely between worker threads
/// across pauses.  The sequence of
/// slice boundaries does not affect the result: stepping in slices of any
/// size yields a [`SimResult`] bit-identical to one unbounded run.
pub struct PausableRun {
    pub(crate) benchmark: Benchmark,
    pub(crate) config: ConfigKind,
    pub(crate) cpu: McdProcessor,
    pub(crate) stream: TraceCursor,
    /// Bytes of the shared trace backing `stream`; stamped into the
    /// outcome's host stats at finish.
    pub(crate) trace_bytes: u64,
}

impl std::fmt::Debug for PausableRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PausableRun")
            .field("benchmark", &self.benchmark)
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

impl PausableRun {
    /// The benchmark this run executes.
    pub fn benchmark(&self) -> Benchmark {
        self.benchmark
    }

    /// The configuration this run executes under.
    pub fn config(&self) -> &ConfigKind {
        &self.config
    }

    /// Committed instructions so far (snapshot naming).
    pub fn committed_instructions(&self) -> u64 {
        self.cpu.committed_instructions()
    }

    /// Whether the run has finished (a finished run must not be stepped
    /// or snapshotted).
    pub fn is_done(&self) -> bool {
        self.cpu.is_done()
    }

    /// Runs at most `max_cycles` kernel steps.  Returns `None` when the
    /// run paused (call again to continue) and the outcome when it
    /// finished.  A finished run must not be stepped again.
    pub fn step(&mut self, max_cycles: u64) -> Option<RunOutcome> {
        match self.cpu.run_for(&mut self.stream, max_cycles) {
            StepOutcome::Paused => None,
            StepOutcome::Finished(mut result) => {
                result.host.trace_bytes = self.trace_bytes;
                Some(RunOutcome {
                    benchmark: self.benchmark,
                    config: self.config.clone(),
                    result,
                })
            }
        }
    }
}

/// A completed run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The benchmark that was run.
    pub benchmark: Benchmark,
    /// The configuration it ran under.
    pub config: ConfigKind,
    /// The simulation telemetry.
    pub result: SimResult,
}

/// A profile cache shareable between runners and the parallel experiment
/// engine's workers.  Ordered (`BTreeMap`) per the workspace's
/// hash-iteration lint: only keyed lookups happen today, but nothing on
/// a result-affecting path may carry unordered iteration order.
pub type SharedProfileCache = Arc<Mutex<BTreeMap<Benchmark, OfflineProfile>>>;

/// Runs benchmarks under the paper's configurations, caching the profiling
/// runs needed by the off-line oracle.
///
/// The cache sits behind a shared lock so that the parallel experiment
/// engine's workers all see the same profiles; `run` itself takes `&self`
/// and is safe to call from many threads at once.
#[derive(Debug)]
pub struct BenchmarkRunner {
    /// Committed instructions per run.
    pub instructions: u64,
    /// Seed for workload generation and clock phases/jitter.
    pub seed: u64,
    /// Record per-interval traces (needed for the Figure 2/3 experiment).
    pub record_traces: bool,
    /// Committed instructions per control interval.  The paper uses 10 000;
    /// the experiment harness scales this down together with the simulation
    /// window so that short runs still contain enough control intervals for
    /// the algorithms to act (see docs/ARCHITECTURE.md, "Substitutions").
    pub interval_instructions: u64,
    profiles: SharedProfileCache,
    /// Shared-trace cache: every run replays a materialized trace leased
    /// from here.
    traces: Arc<TraceCache>,
    /// Content-addressed result memoization; `None` simulates every run
    /// (`MCD_NO_RESULT_CACHE=1` or [`Self::with_result_caching`]).
    results: Option<Arc<ResultCache>>,
}

impl BenchmarkRunner {
    /// Creates a runner with the given per-run instruction budget.  Result
    /// caching defaults to the `MCD_NO_RESULT_CACHE` environment knob
    /// (enabled when unset).
    pub fn new(instructions: u64, seed: u64) -> Self {
        BenchmarkRunner {
            instructions,
            seed,
            record_traces: false,
            interval_instructions: 10_000,
            profiles: Arc::default(),
            traces: Arc::default(),
            results: result_caching_enabled(None).then(Arc::default),
        }
    }

    /// Builder-style override of the control-interval length.
    pub fn with_interval(mut self, interval_instructions: u64) -> Self {
        self.interval_instructions = interval_instructions;
        self
    }

    /// Builder-style attachment of a shared profile cache.
    pub fn with_profile_cache(mut self, cache: SharedProfileCache) -> Self {
        self.profiles = cache;
        self
    }

    /// Builder-style enable/disable of result memoization.
    pub fn with_result_caching(mut self, enabled: bool) -> Self {
        self.results = match (enabled, self.results.take()) {
            (true, Some(cache)) => Some(cache),
            (true, None) => Some(Arc::default()),
            (false, _) => None,
        };
        self
    }

    /// The trace cache every run of this runner leases from.
    pub fn trace_cache(&self) -> &Arc<TraceCache> {
        &self.traces
    }

    /// Counters of the trace cache.
    pub fn trace_cache_stats(&self) -> TraceCacheStats {
        self.traces.stats()
    }

    /// Counters of the result cache (zeros when caching is disabled).
    pub fn result_cache_stats(&self) -> ResultCacheStats {
        self.results.as_ref().map(|c| c.stats()).unwrap_or_default()
    }

    /// The trace-cache key of `bench` under this runner's settings.
    pub fn trace_key(&self, bench: Benchmark) -> TraceKey {
        TraceKey::of(&bench.spec(), self.seed, self.instructions)
    }

    /// The result-cache key of `(bench, kind)` under this runner's
    /// settings: a stable content hash of everything that determines the
    /// run's simulated behaviour.
    pub fn result_key(&self, bench: Benchmark, kind: &ConfigKind) -> u128 {
        result_key(
            &bench.spec(),
            kind,
            self.seed,
            self.instructions,
            self.interval_instructions,
            self.record_traces,
        )
    }

    /// Probes the result cache (counting a hit or a miss).  A hit is a
    /// clone of the memoized outcome with `host.result_cache_hit` set;
    /// `None` when caching is disabled or the cell was never simulated.
    pub fn cached_result(&self, bench: Benchmark, kind: &ConfigKind) -> Option<RunOutcome> {
        let cache = self.results.as_ref()?;
        cache.lookup(self.result_key(bench, kind))
    }

    /// Memoizes a freshly simulated outcome (no-op when caching is
    /// disabled).  Callers that bypass [`Self::run`] — the engine's slice
    /// scheduler — invoke this from their finish hook.
    pub fn memoize(&self, outcome: &RunOutcome) {
        if let Some(cache) = &self.results {
            cache.insert(self.result_key(outcome.benchmark, &outcome.config), outcome);
        }
    }

    /// Whether the profile of `bench` is already cached.
    pub fn has_profile(&self, bench: Benchmark) -> bool {
        self.profiles
            .lock()
            .expect("profile cache poisoned")
            .contains_key(&bench)
    }

    fn sim_config(&self, kind: &ConfigKind) -> SimConfig {
        let mut cfg = match kind {
            ConfigKind::FullySynchronous | ConfigKind::GlobalScaling { .. } => {
                SimConfig::fully_synchronous(self.instructions)
            }
            _ => SimConfig::baseline_mcd(self.instructions),
        };
        cfg.seed = self.seed;
        cfg.record_traces = self.record_traces;
        cfg.interval_instructions = self.interval_instructions;
        cfg
    }

    fn controller(&self, bench: Benchmark, kind: &ConfigKind) -> Box<dyn FrequencyController> {
        let table = OperatingPointTable::default();
        match kind {
            ConfigKind::FullySynchronous | ConfigKind::BaselineMcd => {
                Box::new(FixedController::at_max())
            }
            ConfigKind::AttackDecay(params) => {
                Box::new(AttackDecayController::new(*params, &table))
            }
            ConfigKind::OfflineDynamic { target_degradation } => {
                let profile = self.profile_for(bench);
                Box::new(OfflineController::from_profile(
                    profile,
                    *target_degradation,
                    &table,
                ))
            }
            ConfigKind::GlobalScaling { freq_mhz } => {
                Box::new(GlobalScalingController::new(*freq_mhz))
            }
        }
    }

    /// The per-interval activity profile of `bench` gathered from a
    /// baseline-MCD run at maximum frequency (cached across calls; this is
    /// the "first pass" of the off-line algorithm).
    pub fn profile_for(&self, bench: Benchmark) -> OfflineProfile {
        if let Some(p) = self
            .profiles
            .lock()
            .expect("profile cache poisoned")
            .get(&bench)
        {
            return p.clone();
        }
        // The baseline run below re-checks and fills the cache.
        let result = self.run(bench, &ConfigKind::BaselineMcd);
        result.result.profile
    }

    /// Builds (but does not start) the simulation of `bench` under `kind`:
    /// the processor with its controller, warmed caches and a cursor over
    /// the workload's shared trace, packaged as a [`PausableRun`].
    ///
    /// For [`ConfigKind::OfflineDynamic`] this gathers the profiling pass
    /// first (through the shared cache) — the experiment engine schedules
    /// those as explicit prerequisites so `begin` finds the cache warm.
    pub fn begin(&self, bench: Benchmark, kind: &ConfigKind) -> PausableRun {
        let trace = self
            .traces
            .lease(&bench.spec(), self.seed, self.instructions);
        let controller = self.controller(bench, kind);
        let config = self.sim_config(kind);
        let mut cpu = McdProcessor::new(config, controller);
        cpu.warm_caches(trace.warm_regions());
        PausableRun {
            benchmark: bench,
            config: kind.clone(),
            cpu,
            stream: trace.cursor(),
            trace_bytes: trace.bytes(),
        }
    }

    /// Records a finished outcome: baseline-MCD runs cache their activity
    /// profile for the off-line oracle.  Called by `run` and by the
    /// experiment engine's slice scheduler when a run completes.
    pub fn note_outcome(&self, outcome: &RunOutcome) {
        if matches!(outcome.config, ConfigKind::BaselineMcd) {
            self.profiles
                .lock()
                .expect("profile cache poisoned")
                .entry(outcome.benchmark)
                .or_insert_with(|| outcome.result.profile.clone());
        }
    }

    /// Runs `bench` under `kind` to completion and returns the outcome,
    /// serving a byte-for-byte repeat from the result cache when one is
    /// memoized.  Takes `&self`: runs are pure functions of the runner's
    /// settings, so the parallel engine calls this concurrently from its
    /// workers.
    pub fn run(&self, bench: Benchmark, kind: &ConfigKind) -> RunOutcome {
        if let Some(hit) = self.cached_result(bench, kind) {
            // Served repeats still feed the profile cache (a memoized
            // baseline run carries its profile in the result).
            self.note_outcome(&hit);
            return hit;
        }
        let mut run = self.begin(bench, kind);
        let outcome = run
            .step(u64::MAX)
            .expect("an unbounded slice runs to completion");
        self.note_outcome(&outcome);
        self.memoize(&outcome);
        outcome
    }

    /// Finds the global frequency at which the fully synchronous processor
    /// suffers approximately `target_degradation` relative to
    /// `sync_reference` (its own run at the maximum frequency), and returns
    /// the frequency together with the matching run.
    ///
    /// A short bisection over the operating-point range is used; `iters`
    /// controls the number of refinement runs (4 gives a match within a few
    /// tenths of a percent, which is the paper's own granularity).
    pub fn find_global_matching(
        &self,
        bench: Benchmark,
        target_degradation: f64,
        sync_reference: &SimResult,
        iters: usize,
    ) -> (MegaHertz, RunOutcome) {
        let table = OperatingPointTable::default();
        let f_max = table.max_point().freq_mhz;
        let f_min = table.min_point().freq_mhz;
        let target_time = sync_reference.elapsed_ps as f64 * (1.0 + target_degradation);

        // Initial guess: a fully compute-bound workload degrades in inverse
        // proportion to frequency.
        let mut lo = f_min;
        let mut hi = f_max;
        let mut guess = (f_max / (1.0 + target_degradation)).clamp(f_min, f_max);
        let mut best: Option<(f64, MegaHertz, RunOutcome)> = None;

        for _ in 0..iters.max(1) {
            let freq = table.nearest(guess).freq_mhz;
            let outcome = self.run(bench, &ConfigKind::GlobalScaling { freq_mhz: freq });
            let time = outcome.result.elapsed_ps as f64;
            let err = (time - target_time).abs() / target_time;
            if best.as_ref().map(|(e, _, _)| err < *e).unwrap_or(true) {
                best = Some((err, freq, outcome));
            }
            if time > target_time {
                // Too slow: raise the frequency.
                lo = freq;
            } else {
                hi = freq;
            }
            guess = (lo + hi) / 2.0;
            if (hi - lo) < (f_max - f_min) / 320.0 {
                break;
            }
        }
        let (_, freq, outcome) = best.expect("at least one iteration ran");
        (freq, outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_terms() {
        assert_eq!(ConfigKind::BaselineMcd.label(), "Baseline MCD");
        assert_eq!(
            ConfigKind::OfflineDynamic {
                target_degradation: 0.05
            }
            .label(),
            "Dynamic-5%"
        );
        assert_eq!(
            ConfigKind::AttackDecay(AttackDecayParams::paper_defaults()).label(),
            "Attack/Decay"
        );
        assert!(ConfigKind::GlobalScaling { freq_mhz: 875.0 }
            .label()
            .contains("875"));
    }

    #[test]
    fn runner_runs_and_caches_profiles() {
        let runner = BenchmarkRunner::new(25_000, 7);
        let baseline = runner.run(Benchmark::Adpcm, &ConfigKind::BaselineMcd);
        assert_eq!(baseline.result.committed_instructions, 25_000);
        // The profile is now cached: the offline configuration reuses it.
        let profile = runner.profile_for(Benchmark::Adpcm);
        assert_eq!(profile.len(), baseline.result.profile.len());
        let offline = runner.run(
            Benchmark::Adpcm,
            &ConfigKind::OfflineDynamic {
                target_degradation: 0.05,
            },
        );
        assert_eq!(offline.result.committed_instructions, 25_000);
    }

    #[test]
    fn pausable_run_is_bit_identical_to_the_one_shot_run() {
        let runner = BenchmarkRunner::new(10_000, 7);
        let whole = runner.run(Benchmark::Gzip, &ConfigKind::BaselineMcd);
        let mut sliced = runner.begin(Benchmark::Gzip, &ConfigKind::BaselineMcd);
        assert_eq!(sliced.benchmark(), Benchmark::Gzip);
        assert_eq!(sliced.config(), &ConfigKind::BaselineMcd);
        let mut pauses = 0;
        let outcome = loop {
            match sliced.step(3_000) {
                None => pauses += 1,
                Some(o) => break o,
            }
        };
        assert!(pauses > 0, "a 3k-step slice must pause a 10k-inst run");
        assert_eq!(outcome.result, whole.result);
        // note_outcome caches baseline profiles exactly like run() does.
        let fresh = BenchmarkRunner::new(10_000, 7);
        assert!(!fresh.has_profile(Benchmark::Gzip));
        fresh.note_outcome(&outcome);
        assert!(fresh.has_profile(Benchmark::Gzip));
        assert_eq!(
            fresh.profile_for(Benchmark::Gzip).len(),
            whole.result.profile.len()
        );
    }

    #[test]
    fn attack_decay_run_saves_energy_vs_baseline_on_integer_code() {
        let runner = BenchmarkRunner::new(60_000, 11);
        let baseline = runner.run(Benchmark::Gzip, &ConfigKind::BaselineMcd);
        let ad = runner.run(
            Benchmark::Gzip,
            &ConfigKind::AttackDecay(AttackDecayParams::paper_defaults()),
        );
        assert!(
            ad.result.chip_energy() < baseline.result.chip_energy(),
            "Attack/Decay must save energy on a workload with an idle FP domain"
        );
    }

    #[test]
    fn global_matching_finds_a_slower_frequency() {
        let runner = BenchmarkRunner::new(25_000, 3);
        let sync = runner.run(Benchmark::Adpcm, &ConfigKind::FullySynchronous);
        let (freq, outcome) = runner.find_global_matching(Benchmark::Adpcm, 0.05, &sync.result, 3);
        assert!(freq < 1000.0);
        assert!(outcome.result.elapsed_ps > sync.result.elapsed_ps);
        // The scaled run saves energy.
        assert!(outcome.result.chip_energy() < sync.result.chip_energy());
    }
}
