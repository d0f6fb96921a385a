//! One entry point per table/figure of the paper's evaluation.
//!
//! | Entry point | Paper artefact |
//! |---|---|
//! | [`run_suite`] | the per-benchmark runs underlying Table 6 and Figure 4 |
//! | [`table6`] | Table 6 — algorithm comparison relative to the baseline MCD processor |
//! | [`figure4`] | Figure 4(a–c) — per-application results relative to the fully synchronous processor |
//! | [`traces`] | Figures 2 and 3 — `epic decode` load/store and floating-point traces |
//! | [`sensitivity`] | Figures 5, 6 and 7 — parameter sensitivity sweeps |

use mcd_control::AttackDecayParams;
use mcd_sim::SimResult;
use mcd_workloads::Benchmark;
use serde::{Deserialize, Serialize};

use crate::engine::{parallel_map, EngineStats, ExperimentEngine, RunPlan};
use crate::metrics::{suite_average, Comparison};
use crate::report::{pct, ratio, TextTable};
use crate::runner::{BenchmarkRunner, ConfigKind};

/// Settings shared by all experiments: which benchmarks to run, how many
/// instructions per run, and how much effort to spend matching the global
/// scaling frequency.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentSettings {
    /// The benchmarks to include.
    pub benchmarks: Vec<Benchmark>,
    /// Committed instructions per run.
    pub instructions: u64,
    /// Committed instructions per control interval.  The paper uses 10 000
    /// over windows of 50M-2B instructions; the harness scales both down so
    /// that a run still spans on the order of a hundred control intervals.
    pub interval_instructions: u64,
    /// Workload / clock seed.
    pub seed: u64,
    /// Bisection iterations when matching a global-scaling frequency.
    pub global_search_iters: usize,
    /// Run benchmarks on parallel threads.
    pub parallel: bool,
    /// Worker threads when `parallel` (None: the `MCD_JOBS` environment
    /// variable, then the host's available parallelism).
    pub jobs: Option<usize>,
    /// Kernel steps per scheduling slice of the work-stealing engine
    /// (None: the `MCD_SLICE_CYCLES` environment variable, then
    /// [`crate::engine::DEFAULT_SLICE_CYCLES`]).  Slice boundaries never
    /// affect simulated results.
    pub slice_cycles: Option<u64>,
    /// Admission cap of the slice scheduler: maximum runs begun but not
    /// yet finished, bounding resident simulator state (None: the
    /// `MCD_MAX_LIVE_RUNS` environment variable, then `4 * workers`;
    /// `Some(0)`: unbounded).  Admission order never affects simulated
    /// results.
    pub max_live_runs: Option<usize>,
    /// Memoize run results by content hash, serving byte-for-byte repeat
    /// cells without re-simulating (None: enabled unless
    /// `MCD_NO_RESULT_CACHE=1`).  Host-side telemetry aside, a served
    /// repeat is bit-identical to a fresh simulation.
    pub result_cache: Option<bool>,
}

impl ExperimentSettings {
    /// A quick configuration for tests and examples: a representative
    /// cross-suite subset and short runs.
    pub fn quick() -> Self {
        ExperimentSettings {
            benchmarks: vec![
                Benchmark::Adpcm,
                Benchmark::Epic,
                Benchmark::Gzip,
                Benchmark::Mcf,
                Benchmark::Treeadd,
                Benchmark::Swim,
            ],
            instructions: 60_000,
            interval_instructions: 1_000,
            seed: 42,
            global_search_iters: 3,
            parallel: true,
            jobs: None,
            slice_cycles: None,
            max_live_runs: None,
            result_cache: None,
        }
    }

    /// The full-suite configuration used by the benchmark harness: all 30
    /// benchmarks of Table 5 with longer windows.
    pub fn paper() -> Self {
        ExperimentSettings {
            benchmarks: Benchmark::ALL.to_vec(),
            instructions: 400_000,
            interval_instructions: 1_000,
            seed: 42,
            global_search_iters: 4,
            parallel: true,
            jobs: None,
            slice_cycles: None,
            max_live_runs: None,
            result_cache: None,
        }
    }

    /// Builder-style override of the instruction budget.
    pub fn with_instructions(mut self, instructions: u64) -> Self {
        self.instructions = instructions;
        self
    }

    /// Builder-style override of the benchmark list.
    pub fn with_benchmarks(mut self, benchmarks: Vec<Benchmark>) -> Self {
        self.benchmarks = benchmarks;
        self
    }

    /// Builder-style override of the worker count.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.parallel = jobs > 1;
        self.jobs = Some(jobs);
        self
    }

    /// Builder-style override of the scheduler's slice granularity in
    /// kernel steps (`u64::MAX` degrades the engine to run-at-a-time
    /// scheduling, which is useful as a control when measuring the
    /// scheduler itself).
    pub fn with_slice_cycles(mut self, slice_cycles: u64) -> Self {
        self.slice_cycles = Some(slice_cycles);
        self
    }

    /// Builder-style override of the scheduler's admission cap (`0` =
    /// unbounded residency, the pre-cap behaviour).
    pub fn with_max_live_runs(mut self, max_live_runs: usize) -> Self {
        self.max_live_runs = Some(max_live_runs);
        self
    }

    /// Builder-style enable/disable of result memoization.
    pub fn with_result_cache(mut self, result_cache: bool) -> Self {
        self.result_cache = Some(result_cache);
        self
    }

    /// The worker count these settings resolve to.
    pub fn workers(&self) -> usize {
        if self.parallel {
            crate::engine::worker_count(self.jobs)
        } else {
            1
        }
    }
}

/// The five runs of one benchmark that Table 6 and Figure 4 are built from.
#[derive(Debug, Clone)]
pub struct BenchmarkOutcomes {
    /// The benchmark.
    pub benchmark: Benchmark,
    /// Fully synchronous processor at 1 GHz.
    pub sync: SimResult,
    /// Baseline MCD processor (all domains at maximum frequency).
    pub baseline_mcd: SimResult,
    /// MCD + Attack/Decay (paper parameters).
    pub attack_decay: SimResult,
    /// MCD + off-line Dynamic-1%.
    pub dynamic1: SimResult,
    /// MCD + off-line Dynamic-5%.
    pub dynamic5: SimResult,
}

/// Runs the five configurations of every benchmark in the settings on the
/// parallel experiment engine.
pub fn run_suite(settings: &ExperimentSettings) -> Vec<BenchmarkOutcomes> {
    run_suite_with_stats(settings).0
}

/// Runs the suite and also returns the engine's host-side statistics
/// (worker count, wall-clock, aggregate simulated MIPS) for the
/// `BENCH_*.json` artefacts.
pub fn run_suite_with_stats(
    settings: &ExperimentSettings,
) -> (Vec<BenchmarkOutcomes>, EngineStats) {
    let engine = ExperimentEngine::from_settings(settings);
    let plan = RunPlan::suite(&settings.benchmarks);
    let (outcomes, stats) = engine.execute_with_stats(&plan);

    // The plan lists five configurations per benchmark, in order; move
    // the results out (each SimResult carries a full offline profile, so
    // cloning here would memcpy the whole suite).
    let mut grouped = Vec::with_capacity(settings.benchmarks.len());
    let mut runs = outcomes.into_iter();
    while let Some(sync) = runs.next() {
        let mut next = || {
            runs.next()
                .expect("plan has five configurations per benchmark")
        };
        grouped.push(BenchmarkOutcomes {
            benchmark: sync.benchmark,
            sync: sync.result,
            baseline_mcd: next().result,
            attack_decay: next().result,
            dynamic1: next().result,
            dynamic5: next().result,
        });
    }
    (grouped, stats)
}

/// Table 6 — comparison of Attack/Decay, Dynamic-1%, Dynamic-5% and global
/// voltage scaling.
pub mod table6 {
    use super::*;

    /// One row of Table 6.
    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    pub struct Table6Row {
        /// Algorithm label.
        pub algorithm: String,
        /// Average performance degradation.
        pub perf_degradation: f64,
        /// Average energy savings.
        pub energy_savings: f64,
        /// Average energy-delay-product improvement.
        pub edp_improvement: f64,
        /// Average power savings.
        pub power_savings: f64,
        /// Power-savings / performance-degradation ratio.
        pub power_perf_ratio: Option<f64>,
    }

    /// The reproduced Table 6.
    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    pub struct Table6 {
        /// Rows in the paper's order: Attack/Decay, Dynamic-1%, Dynamic-5%,
        /// Global(Attack/Decay), Global(Dynamic-1%), Global(Dynamic-5%).
        pub rows: Vec<Table6Row>,
    }

    impl Table6 {
        /// Looks up a row by its algorithm label.
        pub fn row(&self, algorithm: &str) -> Option<&Table6Row> {
            self.rows.iter().find(|r| r.algorithm == algorithm)
        }

        /// Renders the table as text.
        pub fn render(&self) -> String {
            let mut t = TextTable::new(vec![
                "Algorithm",
                "Perf. degradation",
                "Energy savings",
                "EDP improvement",
                "Power/Perf ratio",
            ]);
            for r in &self.rows {
                t.push_row(vec![
                    r.algorithm.clone(),
                    pct(r.perf_degradation),
                    pct(r.energy_savings),
                    pct(r.edp_improvement),
                    ratio(r.power_perf_ratio),
                ]);
            }
            t.render()
        }
    }

    fn average_row(label: &str, comparisons: &[Comparison]) -> Table6Row {
        let avg = suite_average(comparisons);
        let ratio = if avg.perf_degradation > 1e-6 {
            Some(avg.power_savings / avg.perf_degradation)
        } else {
            None
        };
        Table6Row {
            algorithm: label.to_string(),
            perf_degradation: avg.perf_degradation,
            energy_savings: avg.energy_savings,
            edp_improvement: avg.edp_improvement,
            power_savings: avg.power_savings,
            power_perf_ratio: ratio,
        }
    }

    /// Builds the MCD rows of Table 6 from per-benchmark outcomes
    /// (everything is relative to the baseline MCD processor, as in the
    /// paper).
    pub fn mcd_rows(outcomes: &[BenchmarkOutcomes]) -> Vec<Table6Row> {
        let against_baseline = |pick: fn(&BenchmarkOutcomes) -> &SimResult| -> Vec<Comparison> {
            outcomes
                .iter()
                .map(|o| Comparison::vs(pick(o), &o.baseline_mcd))
                .collect()
        };
        vec![
            average_row("Attack/Decay", &against_baseline(|o| &o.attack_decay)),
            average_row("Dynamic-1%", &against_baseline(|o| &o.dynamic1)),
            average_row("Dynamic-5%", &against_baseline(|o| &o.dynamic5)),
        ]
    }

    /// Runs the full Table 6 experiment, including the `Global(...)` rows:
    /// for each algorithm, the fully synchronous processor is globally
    /// scaled until it matches that algorithm's average performance
    /// degradation, and the resulting (much smaller) energy savings are
    /// reported.
    pub fn run(settings: &ExperimentSettings) -> Table6 {
        run_with_stats(settings).0
    }

    /// Runs the Table 6 experiment, also returning the suite engine's
    /// host-side statistics (the `Global(...)` search runs are not part of
    /// the returned stats).
    pub fn run_with_stats(settings: &ExperimentSettings) -> (Table6, EngineStats) {
        let (outcomes, stats) = run_suite_with_stats(settings);
        let mut rows = mcd_rows(&outcomes);

        let mcd_targets: Vec<(String, f64)> = rows
            .iter()
            .map(|r| (r.algorithm.clone(), r.perf_degradation.max(0.0)))
            .collect();

        for (label, target) in mcd_targets {
            let runner = BenchmarkRunner::new(settings.instructions, settings.seed)
                .with_interval(settings.interval_instructions);
            let comparisons: Vec<Comparison> =
                parallel_map(settings.workers(), &outcomes, |_, o| {
                    let (_, scaled) = runner.find_global_matching(
                        o.benchmark,
                        target,
                        &o.sync,
                        settings.global_search_iters,
                    );
                    Comparison::vs(&scaled.result, &o.sync)
                });
            rows.push(average_row(&format!("Global ({label})"), &comparisons));
        }

        (Table6 { rows }, stats)
    }
}

/// Figure 4 — per-application performance degradation, energy savings and
/// EDP improvement, referenced to the fully synchronous processor.
pub mod figure4 {
    use super::*;

    /// One benchmark's comparisons against the fully synchronous processor.
    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    pub struct Figure4Row {
        /// Benchmark name.
        pub benchmark: String,
        /// Baseline MCD vs fully synchronous.
        pub baseline_mcd: Comparison,
        /// Dynamic-1% vs fully synchronous.
        pub dynamic1: Comparison,
        /// Dynamic-5% vs fully synchronous.
        pub dynamic5: Comparison,
        /// Attack/Decay vs fully synchronous.
        pub attack_decay: Comparison,
    }

    /// The reproduced Figure 4 data set.
    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    pub struct Figure4 {
        /// Per-benchmark rows.
        pub rows: Vec<Figure4Row>,
        /// The cross-benchmark average row (the "average" group of the
        /// paper's figures).
        pub average: Figure4Row,
    }

    impl Figure4 {
        /// Renders one of the three panels: `metric` selects performance
        /// degradation (a), energy savings (b) or EDP improvement (c).
        pub fn render_panel(&self, metric: Panel) -> String {
            let mut t = TextTable::new(vec![
                "Benchmark",
                "Baseline MCD",
                "Dynamic-1%",
                "Dynamic-5%",
                "Attack/Decay",
            ]);
            for row in self.rows.iter().chain(std::iter::once(&self.average)) {
                let get = |c: &Comparison| match metric {
                    Panel::PerformanceDegradation => c.perf_degradation,
                    Panel::EnergySavings => c.energy_savings,
                    Panel::EdpImprovement => c.edp_improvement,
                };
                t.push_row(vec![
                    row.benchmark.clone(),
                    pct(get(&row.baseline_mcd)),
                    pct(get(&row.dynamic1)),
                    pct(get(&row.dynamic5)),
                    pct(get(&row.attack_decay)),
                ]);
            }
            t.render()
        }

        /// Renders all three panels.
        pub fn render(&self) -> String {
            format!(
                "Figure 4(a) Performance degradation\n{}\nFigure 4(b) Energy savings\n{}\nFigure 4(c) Energy-delay product improvement\n{}",
                self.render_panel(Panel::PerformanceDegradation),
                self.render_panel(Panel::EnergySavings),
                self.render_panel(Panel::EdpImprovement)
            )
        }
    }

    /// Which of the three Figure 4 panels to render.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Panel {
        /// Figure 4(a).
        PerformanceDegradation,
        /// Figure 4(b).
        EnergySavings,
        /// Figure 4(c).
        EdpImprovement,
    }

    /// Builds Figure 4 from per-benchmark outcomes.
    pub fn from_outcomes(outcomes: &[BenchmarkOutcomes]) -> Figure4 {
        let rows: Vec<Figure4Row> = outcomes
            .iter()
            .map(|o| Figure4Row {
                benchmark: o.benchmark.name().to_string(),
                baseline_mcd: Comparison::vs(&o.baseline_mcd, &o.sync),
                dynamic1: Comparison::vs(&o.dynamic1, &o.sync),
                dynamic5: Comparison::vs(&o.dynamic5, &o.sync),
                attack_decay: Comparison::vs(&o.attack_decay, &o.sync),
            })
            .collect();
        let avg = |pick: fn(&Figure4Row) -> Comparison| {
            suite_average(&rows.iter().map(pick).collect::<Vec<_>>())
        };
        let average = Figure4Row {
            benchmark: "average".to_string(),
            baseline_mcd: avg(|r| r.baseline_mcd),
            dynamic1: avg(|r| r.dynamic1),
            dynamic5: avg(|r| r.dynamic5),
            attack_decay: avg(|r| r.attack_decay),
        };
        Figure4 { rows, average }
    }

    /// Runs the Figure 4 experiment.
    pub fn run(settings: &ExperimentSettings) -> Figure4 {
        run_with_stats(settings).0
    }

    /// Runs the Figure 4 experiment, also returning the engine's host-side
    /// statistics.
    pub fn run_with_stats(settings: &ExperimentSettings) -> (Figure4, EngineStats) {
        let (outcomes, stats) = run_suite_with_stats(settings);
        (from_outcomes(&outcomes), stats)
    }
}

/// Figures 2 and 3 — `epic decode` per-interval traces.
pub mod traces {
    use super::*;
    use mcd_clock::DomainId;

    /// One interval of the `epic decode` trace.
    #[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
    pub struct TracePoint {
        /// Interval index.
        pub interval: u64,
        /// Cumulative committed instructions.
        pub committed: u64,
        /// Average load/store-queue occupancy over the interval.
        pub lsq_utilization: f64,
        /// Percent change in LSQ occupancy versus the previous interval
        /// (the signal of Figure 2(a)).
        pub lsq_change_pct: f64,
        /// Load/store domain frequency in GHz (Figure 2(b)).
        pub loadstore_freq_ghz: f64,
        /// Average floating-point issue-queue occupancy (Figure 3(a)).
        pub fiq_utilization: f64,
        /// Floating-point domain frequency in GHz (Figure 3(b)).
        pub fp_freq_ghz: f64,
    }

    /// The reproduced Figure 2/3 series.
    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    pub struct EpicDecodeTraces {
        /// Per-interval points.
        pub points: Vec<TracePoint>,
    }

    impl EpicDecodeTraces {
        /// Renders the series as CSV (one row per interval).
        pub fn to_csv(&self) -> String {
            let mut t = TextTable::new(vec![
                "interval",
                "instructions",
                "lsq_utilization",
                "lsq_change_pct",
                "loadstore_freq_ghz",
                "fiq_utilization",
                "fp_freq_ghz",
            ]);
            for p in &self.points {
                t.push_row(vec![
                    p.interval.to_string(),
                    p.committed.to_string(),
                    format!("{:.3}", p.lsq_utilization),
                    format!("{:.2}", p.lsq_change_pct),
                    format!("{:.3}", p.loadstore_freq_ghz),
                    format!("{:.3}", p.fiq_utilization),
                    format!("{:.3}", p.fp_freq_ghz),
                ]);
            }
            t.to_csv()
        }

        /// Minimum and maximum floating-point domain frequency over the
        /// trace, in GHz.
        pub fn fp_freq_range(&self) -> (f64, f64) {
            let mut min = f64::MAX;
            let mut max = f64::MIN;
            for p in &self.points {
                min = min.min(p.fp_freq_ghz);
                max = max.max(p.fp_freq_ghz);
            }
            (min, max)
        }
    }

    /// Runs the `epic decode` trace experiment with the Attack/Decay
    /// controller and trace recording enabled.
    pub fn run(instructions: u64, seed: u64) -> EpicDecodeTraces {
        // Scale the control interval with the window so the trace spans on
        // the order of 150 intervals, as the paper's multi-million
        // instruction windows do at 10 000 instructions per interval.
        let interval = (instructions / 150).clamp(500, 10_000);
        let mut runner = BenchmarkRunner::new(instructions, seed).with_interval(interval);
        runner.record_traces = true;
        let outcome = runner.run(
            Benchmark::EpicDecode,
            &ConfigKind::AttackDecay(AttackDecayParams::paper_defaults()),
        );
        let mut points = Vec::with_capacity(outcome.result.intervals.len());
        let mut prev_lsq: Option<f64> = None;
        for rec in &outcome.result.intervals {
            let lsq = rec.domain(DomainId::LoadStore);
            let fp = rec.domain(DomainId::FloatingPoint);
            let lsq_util = lsq.map(|d| d.queue_utilization).unwrap_or(0.0);
            let change = match prev_lsq {
                Some(p) if p > 0.0 => (lsq_util - p) / p * 100.0,
                _ => 0.0,
            };
            prev_lsq = Some(lsq_util);
            points.push(TracePoint {
                interval: rec.interval,
                committed: rec.committed,
                lsq_utilization: lsq_util,
                lsq_change_pct: change,
                loadstore_freq_ghz: lsq.map(|d| d.freq_mhz / 1000.0).unwrap_or(1.0),
                fiq_utilization: fp.map(|d| d.queue_utilization).unwrap_or(0.0),
                fp_freq_ghz: fp.map(|d| d.freq_mhz / 1000.0).unwrap_or(1.0),
            });
        }
        EpicDecodeTraces { points }
    }
}

/// Figures 5, 6 and 7 — sensitivity of the Attack/Decay algorithm to its
/// configuration parameters.
pub mod sensitivity {
    use super::*;

    /// One point of a parameter sweep.
    #[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
    pub struct SweepPoint {
        /// The swept parameter's value (a fraction).
        pub value: f64,
        /// Average performance degradation versus the baseline MCD.
        pub perf_degradation: f64,
        /// Average energy savings versus the baseline MCD.
        pub energy_savings: f64,
        /// Average EDP improvement versus the baseline MCD.
        pub edp_improvement: f64,
        /// Power-savings / performance-degradation ratio.
        pub power_perf_ratio: Option<f64>,
    }

    /// A complete sweep of one parameter.
    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    pub struct SweepResult {
        /// The name of the swept parameter.
        pub parameter: String,
        /// The legend of the non-swept parameters, in the paper's
        /// `DevThr_React_Decay_PerfDeg` percent format.
        pub legend: String,
        /// Sweep points in increasing parameter order.
        pub points: Vec<SweepPoint>,
    }

    impl SweepResult {
        /// Renders the sweep as a text table.
        pub fn render(&self) -> String {
            let mut t = TextTable::new(vec![
                "value",
                "perf degradation",
                "energy savings",
                "EDP improvement",
                "power/perf ratio",
            ]);
            for p in &self.points {
                t.push_row(vec![
                    format!("{:.3}%", p.value * 100.0),
                    pct(p.perf_degradation),
                    pct(p.energy_savings),
                    pct(p.edp_improvement),
                    ratio(p.power_perf_ratio),
                ]);
            }
            format!(
                "{} sensitivity ({})\n{}",
                self.parameter,
                self.legend,
                t.render()
            )
        }
    }

    /// Runs the Attack/Decay configuration `params` for every benchmark of
    /// the settings and averages the comparisons against the baseline MCD.
    fn evaluate(
        settings: &ExperimentSettings,
        baselines: &[(Benchmark, SimResult)],
        params: AttackDecayParams,
    ) -> (Comparison, Option<f64>) {
        let runner = BenchmarkRunner::new(settings.instructions, settings.seed)
            .with_interval(settings.interval_instructions);
        let comparisons: Vec<Comparison> =
            parallel_map(settings.workers(), baselines, |_, (bench, reference)| {
                let outcome = runner.run(*bench, &ConfigKind::AttackDecay(params));
                Comparison::vs(&outcome.result, reference)
            });
        let avg = suite_average(&comparisons);
        let ratio = if avg.perf_degradation > 1e-6 {
            Some(avg.power_savings / avg.perf_degradation)
        } else {
            None
        };
        (avg, ratio)
    }

    fn baselines(settings: &ExperimentSettings) -> Vec<(Benchmark, SimResult)> {
        let runner = BenchmarkRunner::new(settings.instructions, settings.seed)
            .with_interval(settings.interval_instructions);
        parallel_map(settings.workers(), &settings.benchmarks, |_, &b| {
            (b, runner.run(b, &ConfigKind::BaselineMcd).result)
        })
    }

    fn sweep(
        settings: &ExperimentSettings,
        parameter: &str,
        base: AttackDecayParams,
        values: &[f64],
        apply: fn(AttackDecayParams, f64) -> AttackDecayParams,
    ) -> SweepResult {
        let baselines = baselines(settings);
        let points = values
            .iter()
            .map(|&v| {
                let params = apply(base, v);
                let (avg, ratio) = evaluate(settings, &baselines, params);
                SweepPoint {
                    value: v,
                    perf_degradation: avg.perf_degradation,
                    energy_savings: avg.energy_savings,
                    edp_improvement: avg.edp_improvement,
                    power_perf_ratio: ratio,
                }
            })
            .collect();
        SweepResult {
            parameter: parameter.to_string(),
            legend: base.legend(),
            points,
        }
    }

    /// Figure 5: sweep of the performance-degradation threshold (target).
    /// The paper's legend is `1.000_06.0_1.250_X.X`.
    pub fn sweep_perf_deg_target(settings: &ExperimentSettings, values: &[f64]) -> SweepResult {
        let base = AttackDecayParams {
            deviation_threshold: 0.010,
            reaction_change: 0.06,
            decay: 0.0125,
            perf_deg_threshold: 0.0,
            endstop_count: 10,
        };
        sweep(settings, "PerfDegThreshold", base, values, |mut p, v| {
            p.perf_deg_threshold = v;
            p
        })
    }

    /// Figures 6(a)/7(a): sweep of DecayPercent (legend `1.500_04.0_X.XXX_3.0`).
    pub fn sweep_decay(settings: &ExperimentSettings, values: &[f64]) -> SweepResult {
        let base = AttackDecayParams {
            deviation_threshold: 0.015,
            reaction_change: 0.04,
            decay: 0.0,
            perf_deg_threshold: 0.03,
            endstop_count: 10,
        };
        sweep(settings, "Decay", base, values, |mut p, v| {
            p.decay = v;
            p
        })
    }

    /// Figures 6(b)/7(b): sweep of ReactionChangePercent
    /// (legend `1.500_XX.X_0.750_3.0`).
    pub fn sweep_reaction_change(settings: &ExperimentSettings, values: &[f64]) -> SweepResult {
        let base = AttackDecayParams {
            deviation_threshold: 0.015,
            reaction_change: 0.04,
            decay: 0.0075,
            perf_deg_threshold: 0.03,
            endstop_count: 10,
        };
        sweep(settings, "ReactionChange", base, values, |mut p, v| {
            p.reaction_change = v;
            p
        })
    }

    /// Figures 6(c)/7(c): sweep of DeviationThresholdPercent
    /// (legend `X.XXX_06.0_0.175_2.5`).
    pub fn sweep_deviation_threshold(settings: &ExperimentSettings, values: &[f64]) -> SweepResult {
        let base = AttackDecayParams::paper_defaults();
        sweep(settings, "DeviationThreshold", base, values, |mut p, v| {
            p.deviation_threshold = v;
            p
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_settings() -> ExperimentSettings {
        ExperimentSettings {
            benchmarks: vec![Benchmark::Adpcm, Benchmark::Gzip, Benchmark::Swim],
            instructions: 40_000,
            interval_instructions: 500,
            seed: 7,
            global_search_iters: 2,
            parallel: true,
            jobs: None,
            slice_cycles: None,
            max_live_runs: None,
            result_cache: None,
        }
    }

    #[test]
    fn parallel_suite_is_bit_identical_to_serial() {
        // The acceptance criterion of the engine refactor: N>1 workers must
        // return SimResults bit-identical to the serial path (same
        // elapsed_ps, chip energy, per-domain frequency averages; host
        // throughput is excluded from SimResult equality by design).
        //
        // Mcf is included on top of the tiny suite because its long memory
        // stalls leave the issue queues and LSQ with nothing newly visible
        // for long stretches — the earliest-visible-timestamp fast path of
        // the wakeup scans — while the Attack/Decay and oracle
        // configurations exercise visibility promotion across frequency
        // ramps.
        let mut serial = tiny_settings();
        serial.benchmarks.push(Benchmark::Mcf);
        serial.parallel = false;
        let mut parallel = tiny_settings().with_jobs(4);
        parallel.benchmarks.push(Benchmark::Mcf);
        // A deliberately tiny slice maximizes the number of pause/resume
        // boundaries and park/claim migrations between workers — the
        // sliced-parallel result must still be bit-identical to the
        // serial run-at-a-time execution.
        let sliced_parallel = parallel.clone().with_slice_cycles(2_500);
        let a = run_suite(&serial);
        let b = run_suite(&parallel);
        let c = run_suite(&sliced_parallel);
        assert_eq!(a.len(), b.len());
        assert_eq!(a.len(), c.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.benchmark, y.benchmark);
        }
        for (x, y) in a.iter().zip(&c) {
            assert_eq!(x.benchmark, y.benchmark);
        }
        for y in b.iter().chain(c.iter()) {
            let x = a.iter().find(|x| x.benchmark == y.benchmark).unwrap();
            assert_eq!(x.sync, y.sync);
            assert_eq!(x.baseline_mcd, y.baseline_mcd);
            assert_eq!(x.attack_decay, y.attack_decay);
            assert_eq!(x.dynamic1, y.dynamic1);
            assert_eq!(x.dynamic5, y.dynamic5);
            // Spot-check the headline fields explicitly.
            assert_eq!(x.dynamic5.elapsed_ps, y.dynamic5.elapsed_ps);
            assert_eq!(x.dynamic5.frontend_cycles, y.dynamic5.frontend_cycles);
            assert!((x.dynamic5.chip_energy() - y.dynamic5.chip_energy()).abs() < 1e-12);
            assert_eq!(
                x.dynamic5.avg_domain_freq_mhz,
                y.dynamic5.avg_domain_freq_mhz
            );
        }
    }

    #[test]
    fn suite_stats_report_host_throughput() {
        let (outcomes, stats) = run_suite_with_stats(&tiny_settings());
        assert_eq!(outcomes.len(), 3);
        assert!(stats.workers >= 1);
        // 5 configurations x 3 benchmarks, with the profiling prerequisites
        // folded into the baseline runs.
        assert_eq!(stats.runs, 15);
        assert!(stats.wall_seconds > 0.0);
        assert!(stats.aggregate_mips > 0.0);
        assert!(stats.cumulative_seconds >= stats.wall_seconds * 0.5);
    }

    #[test]
    fn suite_runs_produce_all_configurations() {
        let outcomes = run_suite(&tiny_settings());
        assert_eq!(outcomes.len(), 3);
        for o in &outcomes {
            assert_eq!(o.sync.committed_instructions, 40_000);
            assert_eq!(o.attack_decay.committed_instructions, 40_000);
            // The baseline MCD is never faster than the synchronous machine.
            assert!(o.baseline_mcd.elapsed_ps as f64 >= o.sync.elapsed_ps as f64 * 0.99);
        }
    }

    #[test]
    fn table6_mcd_rows_show_energy_savings_with_bounded_slowdown() {
        let outcomes = run_suite(&tiny_settings());
        let rows = table6::mcd_rows(&outcomes);
        assert_eq!(rows.len(), 3);
        let ad = &rows[0];
        assert_eq!(ad.algorithm, "Attack/Decay");
        assert!(
            ad.energy_savings > 0.02,
            "Attack/Decay should save energy, got {}",
            ad.energy_savings
        );
        assert!(
            ad.perf_degradation < 0.15,
            "degradation should be bounded, got {}",
            ad.perf_degradation
        );
        // The off-line Dynamic-5% saves at least as much energy as Dynamic-1%.
        assert!(rows[2].energy_savings >= rows[1].energy_savings - 0.02);
        let rendered = table6::Table6 { rows }.render();
        assert!(rendered.contains("Attack/Decay"));
    }

    #[test]
    fn figure4_average_row_is_labelled() {
        let outcomes = run_suite(&ExperimentSettings {
            benchmarks: vec![Benchmark::Adpcm, Benchmark::Epic],
            instructions: 30_000,
            interval_instructions: 500,
            seed: 3,
            global_search_iters: 2,
            parallel: true,
            jobs: None,
            slice_cycles: None,
            max_live_runs: None,
            result_cache: None,
        });
        let fig = figure4::from_outcomes(&outcomes);
        assert_eq!(fig.rows.len(), 2);
        assert_eq!(fig.average.benchmark, "average");
        let text = fig.render();
        assert!(text.contains("Figure 4(a)"));
        assert!(text.contains("average"));
    }

    #[test]
    fn epic_decode_traces_show_fp_phase_behaviour() {
        let traces = traces::run(120_000, 5);
        assert!(traces.points.len() >= 10);
        let (fp_min, fp_max) = traces.fp_freq_range();
        assert!(
            fp_min < fp_max,
            "the FP domain frequency must move over the epic decode phases"
        );
        // During the idle phases the controller decays the FP domain below
        // the maximum frequency.
        assert!(
            fp_min < 0.999,
            "FP domain should decay when unused, min = {fp_min}"
        );
        let csv = traces.to_csv();
        assert!(csv.lines().count() == traces.points.len() + 1);
    }

    #[test]
    fn decay_sweep_produces_monotone_value_axis() {
        let settings = ExperimentSettings {
            benchmarks: vec![Benchmark::Adpcm, Benchmark::Gzip],
            instructions: 30_000,
            interval_instructions: 500,
            seed: 1,
            global_search_iters: 2,
            parallel: true,
            jobs: None,
            slice_cycles: None,
            max_live_runs: None,
            result_cache: None,
        };
        let sweep = sensitivity::sweep_decay(&settings, &[0.0005, 0.0075]);
        assert_eq!(sweep.points.len(), 2);
        assert!(sweep.points[0].value < sweep.points[1].value);
        // A faster decay lowers frequencies more aggressively and therefore
        // saves at least as much energy.
        assert!(sweep.points[1].energy_savings >= sweep.points[0].energy_savings - 0.01);
        assert!(sweep.render().contains("Decay"));
    }
}
