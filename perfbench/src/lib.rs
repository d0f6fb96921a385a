//! The repository benchmark: three closed-loop workloads driven through
//! the program's public API from one process, timed end to end and, in
//! a separate traced run, per layer.  `README.md` beside this crate
//! says why each workload exists and what every metric means.

pub mod calib;
pub mod derive;
pub mod spans;

use std::collections::BTreeMap;
use std::time::Instant;

use mcd_control::AttackDecayParams;
use mcd_core::bundle::result_digest;
use mcd_core::cache::StableHasher;
use mcd_core::engine::{parallel_map, EngineStats, ExperimentEngine, RunPlan};
use mcd_core::experiments::table6::{self, Table6, Table6Row};
use mcd_core::experiments::{run_suite_with_stats, ExperimentSettings};
use mcd_core::metrics::{suite_average, Comparison};
use mcd_core::runner::{BenchmarkRunner, ConfigKind, PausableRun};
use mcd_core::snapshot;
use mcd_sim::SimResult;
use mcd_workloads::{Benchmark, SharedTrace};

use calib::{Clock, Reference, Sample};
use spans::{Span, Tracer};

/// End-to-end metrics (name, unit), printed by every untraced run.
pub const END_TO_END: [(&str, &str); 6] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("sim_mips", "inst/us"),
    ("peak_rss_mb", "MB"),
    ("oracle_miss_pp", "pp"),
    ("mcd_edge_pp", "pp"),
];

/// Per-layer metrics (name, unit), printed by every traced run.
pub const PER_LAYER: [(&str, &str); 32] = [
    ("workloads.materialize_ns_per_inst", "ns/inst"),
    ("workloads.trace_bytes_per_inst", "B/inst"),
    ("sim.gzip.fixed.ns_per_inst", "ns/inst"),
    ("sim.gzip.dvfs.ns_per_inst", "ns/inst"),
    ("sim.swim.fixed.ns_per_inst", "ns/inst"),
    ("sim.swim.dvfs.ns_per_inst", "ns/inst"),
    ("sim.mcf.fixed.ns_per_inst", "ns/inst"),
    ("sim.mcf.dvfs.ns_per_inst", "ns/inst"),
    ("sim.gzip.events_per_inst", "event/inst"),
    ("sim.swim.events_per_inst", "event/inst"),
    ("sim.mcf.events_per_inst", "event/inst"),
    ("sim.gzip.cpi", "cycle/inst"),
    ("sim.swim.cpi", "cycle/inst"),
    ("sim.mcf.cpi", "cycle/inst"),
    ("runner.begin_ms", "ms"),
    ("runner.profile_s", "s"),
    ("runner.global_search_s", "s"),
    ("runner.global_search_runs", "count"),
    ("engine.suite_s", "s"),
    ("engine.busy_fraction", "ratio"),
    ("engine.runs", "count"),
    ("engine.mips", "inst/us"),
    ("cache.trace_materializations", "count"),
    ("cache.trace_hit_ratio", "ratio"),
    ("cache.trace_peak_mb", "MB"),
    ("cache.repeat_ms", "ms"),
    ("cache.repeat_hit_ratio", "ratio"),
    ("snapshot.bytes", "B"),
    ("snapshot.encode_ms", "ms"),
    ("snapshot.restore_ms", "ms"),
    ("trace.overhead_s", "s"),
    ("trace.unattributed_s", "s"),
];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `table6::run_with_stats` on the quick six-benchmark suite.
    Table6,
    /// A 12-configuration gzip plan on one engine, cold then repeated.
    Sweep,
    /// Single-thread `begin` + `step` of gzip, swim and mcf, fixed
    /// clocks and Attack/Decay.
    Kernel,
}

impl Workload {
    /// Every workload, in the order traced runs probe them.
    pub const ALL: [Workload; 3] = [Workload::Kernel, Workload::Sweep, Workload::Table6];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Table6 => "table6",
            Workload::Sweep => "sweep",
            Workload::Kernel => "kernel",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Instruction budgets and repeat counts.
#[derive(Debug, Clone)]
pub struct Budgets {
    /// Committed instructions per run of the `table6` suite.
    pub table6_instructions: u64,
    /// Committed instructions per run of the `sweep` plan.
    pub sweep_instructions: u64,
    /// Committed instructions per `kernel` run.
    pub kernel_instructions: u64,
    /// Set-ups timed per run; `setup_s` is their median.
    pub setup_repeats: usize,
    /// Engine constructions per timed set-up sample on `table6` and
    /// `sweep` (one takes well under a microsecond).
    pub engine_setups_per_sample: usize,
    /// Closed-loop calls made even when the time is up.
    pub min_calls: usize,
}

impl Budgets {
    /// The budgets the benchmark runs with.
    pub fn standard() -> Self {
        Budgets {
            table6_instructions: 30_000,
            sweep_instructions: 60_000,
            kernel_instructions: 60_000,
            setup_repeats: 15,
            engine_setups_per_sample: 10_000,
            min_calls: 3,
        }
    }
}

/// What to run.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Workload seed: every generated trace and clock derives from it.
    pub seed: u64,
    /// Closed-loop measuring time.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
}

/// The outcome of one benchmark run.
#[derive(Debug, Default)]
pub struct Report {
    /// Output checks made.
    pub attempted: u64,
    /// Descriptions of the checks that failed.
    pub failures: Vec<String>,
    /// Metric values by name (units are in [`END_TO_END`] / [`PER_LAYER`]).
    pub metrics: BTreeMap<String, f64>,
    /// Run facts printed beside the metrics: `(key, JSON value)`.
    pub info: Vec<(String, String)>,
    /// Spans of a traced run.
    pub spans: Vec<Span>,
}

impl Report {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    fn info(&mut self, key: &str, value: impl ToString) {
        self.info.push((key.to_string(), value.to_string()));
    }

    fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// The metric list this run must report, with units.
    pub fn expected(trace: bool) -> &'static [(&'static str, &'static str)] {
        if trace {
            &PER_LAYER
        } else {
            &END_TO_END
        }
    }

    /// The last line of the benchmark's output: checks and metrics as
    /// one JSON object.  A missing or non-finite metric counts as a
    /// failed check.
    pub fn result_line(&mut self, trace: bool) -> String {
        let mut fields = Vec::new();
        for &(name, unit) in Report::expected(trace) {
            let value = self.metrics.get(name).copied();
            self.check(value.is_some_and(f64::is_finite), || {
                format!("metric {name} is {value:?}, not a finite number")
            });
            if let Some(v) = value.filter(|v| v.is_finite()) {
                fields.push(format!(
                    "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
                ));
            }
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            self.attempted,
            self.failures.len(),
            fields.join(", ")
        )
    }

    /// The run facts as one JSON object.
    pub fn info_line(&self) -> String {
        let fields: Vec<String> = self
            .info
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

/// The benchmarks the kernel workload steps, with their metric names.
const KERNEL_BENCHES: [(Benchmark, &str); 3] = [
    (Benchmark::Gzip, "gzip"),
    (Benchmark::Swim, "swim"),
    (Benchmark::Mcf, "mcf"),
];

/// Kernel steps per slice before the mid-run snapshot of the kernel's
/// snapshot check.
const SNAPSHOT_SLICE_CYCLES: u64 = 2_000;

fn kernel_configs() -> [(&'static str, ConfigKind); 2] {
    [
        ("fixed", ConfigKind::BaselineMcd),
        (
            "dvfs",
            ConfigKind::AttackDecay(AttackDecayParams::paper_defaults()),
        ),
    ]
}

/// The seeds Table 6 is built at for the fidelity metrics: the workload
/// seed and two derived from it.  One seed's Table 6 averages only six
/// benchmarks, so its oracle miss moves by several tenths of a point
/// from seed to seed; the mean over three is steadier.
pub fn fidelity_seeds(seed: u64) -> [u64; 3] {
    // SplitMix64 finalizer: unrelated seeds for neighbouring inputs.
    let mix = |k: u64| {
        let mut z = seed.wrapping_add(k.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    [seed, mix(1), mix(2)]
}

/// The `table6` settings: the quick suite at the table6 budget, one
/// engine worker per host processor.
pub fn table6_settings(seed: u64, budgets: &Budgets, workers: usize) -> ExperimentSettings {
    let mut settings = ExperimentSettings::quick()
        .with_instructions(budgets.table6_instructions)
        .with_jobs(workers);
    settings.seed = seed;
    settings
}

/// The `sweep` settings: gzip alone at the sweep budget.
pub fn sweep_settings(seed: u64, budgets: &Budgets, workers: usize) -> ExperimentSettings {
    let mut settings = ExperimentSettings::quick()
        .with_benchmarks(vec![Benchmark::Gzip])
        .with_instructions(budgets.sweep_instructions)
        .with_jobs(workers);
    settings.seed = seed;
    settings
}

/// The 12-configuration same-benchmark grid of `plan_scaling`: every
/// configuration family of the paper over gzip, so all jobs share one
/// instruction stream.
pub fn sweep_plan() -> RunPlan {
    let bench = Benchmark::Gzip;
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

/// Calls `call` until `seconds` have passed and at least `min_calls`
/// calls were made, each issued only after the previous one returned.
/// Returns what each call returned.
fn closed_loop<T>(seconds: f64, min_calls: usize, mut call: impl FnMut() -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min_calls || start.elapsed().as_secs_f64() < seconds {
        out.push(call());
    }
    out
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

fn digest_results<'a>(results: impl IntoIterator<Item = &'a SimResult>) -> String {
    let mut h = StableHasher::new();
    for r in results {
        h.write_raw(&result_digest(r).to_le_bytes());
    }
    format!("\"{:032x}\"", h.finish())
}

fn digest_table(table: &Table6) -> String {
    let mut h = StableHasher::new();
    for r in &table.rows {
        h.write_str(&r.algorithm);
        for v in [
            r.perf_degradation,
            r.energy_savings,
            r.edp_improvement,
            r.power_savings,
        ] {
            h.write_f64(v);
        }
        h.write_bool(r.power_perf_ratio.is_some());
        h.write_f64(r.power_perf_ratio.unwrap_or(0.0));
    }
    format!("\"{:032x}\"", h.finish())
}

fn table_is_complete(table: &Table6) -> bool {
    table.rows.len() == 6
        && table.rows.iter().all(|r| {
            [
                r.perf_degradation,
                r.energy_savings,
                r.edp_improvement,
                r.power_savings,
            ]
            .iter()
            .all(|v| v.is_finite())
        })
}

// ---------------------------------------------------------------- table6

/// Facts of one traced `table6` replay.
#[derive(Debug)]
struct Table6Facts {
    stats: EngineStats,
    suite_s: f64,
    global_runs: u64,
}

/// One untraced `table6` call, timed on `clock`.  Returns its sample
/// and the engine's simulated instructions (the global-match search
/// bypasses the engine, so its re-simulations are not counted).
fn table6_call(
    settings: &ExperimentSettings,
    clock: &mut Clock,
    report: &mut Report,
    reference: &mut Option<Table6>,
) -> (Sample, u64) {
    let ((table, stats), sample) = clock.time(|| table6::run_with_stats(settings));
    report.check(
        stats.simulated_instructions == stats.runs as u64 * settings.instructions,
        || "table6 engine runs commit exactly their budget".into(),
    );
    report.check(table_is_complete(&table), || {
        "table6 has six finite rows".into()
    });
    match reference {
        None => *reference = Some(table),
        Some(first) => report.check(*first == table, || {
            "repeated table6 call equals the first".into()
        }),
    }
    (sample, stats.simulated_instructions)
}

/// The `Global (...)` row of Table 6, averaged as `table6::run` does.
fn global_row(label: &str, comparisons: &[Comparison]) -> Table6Row {
    let avg = suite_average(comparisons);
    Table6Row {
        algorithm: format!("Global ({label})"),
        perf_degradation: avg.perf_degradation,
        energy_savings: avg.energy_savings,
        edp_improvement: avg.edp_improvement,
        power_savings: avg.power_savings,
        power_perf_ratio: (avg.perf_degradation > 1e-6)
            .then(|| avg.power_savings / avg.perf_degradation),
    }
}

/// Table 6 replayed from its public parts, with spans: the suite on the
/// engine, then `find_global_matching` per (benchmark, target) on
/// `workers` threads, one fresh runner per target as `table6::run` does.
fn table6_traced(
    settings: &ExperimentSettings,
    tracer: &Tracer,
    report: &mut Report,
) -> (Table6, Table6Facts) {
    let budget = settings.instructions;
    tracer.span("bench", "table6", "", None, |root| {
        let ((outcomes, stats), suite_s) =
            tracer.span("experiments", "run_suite_with_stats", "suite", root, |_| {
                timed(|| run_suite_with_stats(settings))
            });
        for o in &outcomes {
            for r in [
                &o.sync,
                &o.baseline_mcd,
                &o.attack_decay,
                &o.dynamic1,
                &o.dynamic5,
            ] {
                report.check(r.committed_instructions == budget, || {
                    format!(
                        "table6 suite run of {} commits its budget",
                        o.benchmark.name()
                    )
                });
            }
        }
        let mut rows = table6::mcd_rows(&outcomes);
        let targets: Vec<(String, f64)> = rows
            .iter()
            .map(|r| (r.algorithm.clone(), r.perf_degradation.max(0.0)))
            .collect();
        let mut global_runs = 0;
        tracer.span("bench", "global_search", "", root, |search| {
            for (label, target) in targets {
                let runner = BenchmarkRunner::new(budget, settings.seed)
                    .with_interval(settings.interval_instructions);
                let scaled: Vec<SimResult> = parallel_map(settings.workers(), &outcomes, |_, o| {
                    let key = format!("{}.{label}", o.benchmark.name());
                    tracer.span("runner", "find_global_matching", &key, search, |_| {
                        runner
                            .find_global_matching(
                                o.benchmark,
                                target,
                                &o.sync,
                                settings.global_search_iters,
                            )
                            .1
                            .result
                    })
                });
                for r in &scaled {
                    report.check(r.committed_instructions == budget, || {
                        "global-match run commits its budget".into()
                    });
                }
                let comparisons: Vec<Comparison> = scaled
                    .iter()
                    .zip(&outcomes)
                    .map(|(r, o)| Comparison::vs(r, &o.sync))
                    .collect();
                rows.push(global_row(&label, &comparisons));
                global_runs += runner.result_cache_stats().misses;
            }
        });
        let facts = Table6Facts {
            stats,
            suite_s,
            global_runs,
        };
        (Table6 { rows }, facts)
    })
}

/// Times `profile_for` (the off-line oracle's first pass) for every
/// suite benchmark on a fresh runner.
fn profile_probe(settings: &ExperimentSettings, tracer: &Tracer, report: &mut Report) {
    let runner = BenchmarkRunner::new(settings.instructions, settings.seed)
        .with_interval(settings.interval_instructions);
    for &b in &settings.benchmarks {
        let profile = tracer.span("runner", "profile_for", b.name(), None, |_| {
            runner.profile_for(b)
        });
        report.check(!profile.is_empty(), || {
            format!("profile of {} is non-empty", b.name())
        });
    }
}

// ----------------------------------------------------------------- sweep

/// Facts of one `sweep` iteration.
#[derive(Debug)]
struct SweepFacts {
    cold: EngineStats,
    cold_s: f64,
    repeat: EngineStats,
    digest: String,
}

/// One `sweep` iteration: a fresh engine (untimed) runs the plan cold,
/// then runs it again.  Returns the timed seconds and the facts.
fn sweep_call(
    settings: &ExperimentSettings,
    plan: &RunPlan,
    tracer: &Tracer,
    report: &mut Report,
    reference: &mut Option<String>,
) -> (f64, SweepFacts) {
    let engine = ExperimentEngine::from_settings(settings);
    let jobs = plan.jobs.len();
    let (((cold_out, cold), cold_s), ((repeat_out, repeat), repeat_s)) =
        tracer.span("bench", "sweep", "", None, |root| {
            let cold = tracer.span("engine", "execute_with_stats", "cold", root, |_| {
                timed(|| engine.execute_with_stats(plan))
            });
            let repeat = tracer.span("engine", "execute_with_stats", "repeat", root, |_| {
                timed(|| engine.execute_with_stats(plan))
            });
            (cold, repeat)
        });
    report.check(cold_out.len() == jobs, || {
        "sweep returns one outcome per job".into()
    });
    for o in &cold_out {
        report.check(
            o.result.committed_instructions == settings.instructions,
            || format!("sweep run {} commits its budget", o.config.label()),
        );
    }
    let same = repeat_out.len() == jobs
        && repeat_out
            .iter()
            .zip(&cold_out)
            .all(|(a, b)| a.result == b.result);
    report.check(same, || "sweep repeat outcomes equal the cold ones".into());
    report.check(repeat.result_cache_hits == jobs as u64, || {
        format!(
            "sweep repeat served {} of {jobs} jobs from the cache",
            repeat.result_cache_hits
        )
    });
    let digest = digest_results(cold_out.iter().map(|o| &o.result));
    match reference {
        None => *reference = Some(digest.clone()),
        Some(first) => report.check(*first == digest, || {
            "repeated sweep equals the first".into()
        }),
    }
    let facts = SweepFacts {
        cold,
        cold_s,
        repeat,
        digest,
    };
    (cold_s + repeat_s, facts)
}

// ---------------------------------------------------------------- kernel

/// Builds the kernel's runner and materializes its three traces by
/// beginning one run per benchmark.  The begun runs are returned so
/// their traces stay resident for the timed rounds.
fn kernel_setup(seed: u64, budget: u64) -> (BenchmarkRunner, Vec<PausableRun>) {
    let runner = BenchmarkRunner::new(budget, seed)
        .with_interval(ExperimentSettings::quick().interval_instructions);
    let pins = KERNEL_BENCHES
        .iter()
        .map(|&(b, _)| runner.begin(b, &ConfigKind::BaselineMcd))
        .collect();
    (runner, pins)
}

/// One kernel round: every benchmark under fixed clocks and under
/// Attack/Decay, begun and stepped to completion in turn.
fn kernel_round(
    runner: &BenchmarkRunner,
    tracer: &Tracer,
    report: &mut Report,
    reference: &mut Vec<SimResult>,
) -> f64 {
    let mut results = Vec::new();
    let ((), wall) = timed(|| {
        tracer.span("bench", "kernel", "", None, |root| {
            for &(bench, name) in &KERNEL_BENCHES {
                for (label, kind) in kernel_configs() {
                    let key = format!("{name}.{label}");
                    let mut run = tracer.span("runner", "begin", &key, root, |_| {
                        runner.begin(bench, &kind)
                    });
                    let outcome = tracer.span("sim", "step", &key, root, |_| run.step(u64::MAX));
                    results.push(outcome.expect("an unbounded step finishes the run").result);
                }
            }
        })
    });
    for r in &results {
        report.check(r.committed_instructions == runner.instructions, || {
            "kernel run commits exactly its budget".into()
        });
    }
    if reference.is_empty() {
        *reference = results;
    } else {
        report.check(*reference == results, || {
            "repeated kernel round equals the first".into()
        });
    }
    wall
}

/// Facts of the kernel's once-per-traced-run probes.
#[derive(Debug)]
struct KernelFacts {
    results: Vec<SimResult>,
    trace_bytes: u64,
    trace_insts: u64,
    snapshot_bytes: usize,
}

/// Times `SharedTrace::materialize` of the three kernel traces, and a
/// snapshot/restore of a half-finished gzip Attack/Decay run that must
/// finish equal to the straight run.
fn kernel_probes(
    runner: &BenchmarkRunner,
    tracer: &Tracer,
    report: &mut Report,
    results: Vec<SimResult>,
) -> KernelFacts {
    let budget = runner.instructions;
    let (mut trace_bytes, mut trace_insts) = (0, 0);
    for &(bench, name) in &KERNEL_BENCHES {
        let trace = tracer.span("workloads", "materialize", name, None, |_| {
            SharedTrace::materialize(&bench.spec(), runner.seed, budget)
        });
        trace_bytes += trace.bytes();
        trace_insts += trace.len();
    }

    let (_, kind) = kernel_configs()[1].clone();
    // Results are in (benchmark, configuration) order: gzip dvfs is second.
    let straight = &results[1];
    let mut run = runner.begin(Benchmark::Gzip, &kind);
    while run.committed_instructions() < budget / 2 {
        if run.step(SNAPSHOT_SLICE_CYCLES).is_some() {
            break;
        }
    }
    let mut snapshot_bytes = 0;
    let paused = !run.is_done() && run.committed_instructions() < budget;
    report.check(paused, || {
        "kernel run pauses mid-way for the snapshot".into()
    });
    if paused {
        let bytes = tracer.span("snapshot", "snapshot", "gzip.dvfs", None, |_| {
            snapshot::snapshot(&run)
        });
        snapshot_bytes = bytes.len();
        let restored = tracer.span("snapshot", "restore", "gzip.dvfs", None, |_| {
            snapshot::restore(&bytes)
        });
        let finished = restored.ok().and_then(|mut r| r.step(u64::MAX));
        report.check(finished.is_some_and(|o| o.result == *straight), || {
            "snapshot-restored kernel run finishes equal to the straight run".into()
        });
    }
    KernelFacts {
        results,
        trace_bytes,
        trace_insts,
        snapshot_bytes,
    }
}

// ------------------------------------------------------------- the runs

/// Runs one benchmark invocation.  `workers` is the engine worker count
/// (the host's processor count).
pub fn run(opts: &Options, budgets: &Budgets, workers: usize) -> Report {
    let mut report = Report::default();
    report.info("workload", format!("\"{}\"", opts.workload.name()));
    report.info("seed", opts.seed);
    report.info("trace", opts.trace);
    report.info("nproc", workers);
    report.info(
        "engine_workers",
        match opts.workload {
            Workload::Kernel => 1,
            _ => workers,
        },
    );
    report.info(
        "instructions",
        format!(
            "{{\"table6\": {}, \"sweep\": {}, \"kernel\": {}}}",
            budgets.table6_instructions, budgets.sweep_instructions, budgets.kernel_instructions
        ),
    );
    if opts.trace {
        traced(opts, budgets, workers, &mut report);
    } else {
        untraced(opts, budgets, workers, &mut report);
    }
    report
}

fn record_walls(report: &mut Report, key: &str, walls: &[f64]) {
    let list: Vec<String> = walls.iter().map(|w| w.to_string()).collect();
    report.info(key, format!("[{}]", list.join(", ")));
}

/// Times `repeats` set-up samples on `clock`, each of `per_sample`
/// calls of `setup`.
fn time_setups<T>(
    clock: &mut Clock,
    repeats: usize,
    per_sample: usize,
    mut setup: impl FnMut() -> T,
) -> Vec<Sample> {
    (0..repeats)
        .map(|_| {
            let ((), sample) = clock.time(|| {
                for _ in 0..per_sample {
                    std::hint::black_box(setup());
                }
            });
            sample.per(per_sample)
        })
        .collect()
}

fn untraced(opts: &Options, budgets: &Budgets, workers: usize, report: &mut Report) {
    let off = Tracer::disabled();
    let t6: Vec<ExperimentSettings> = fidelity_seeds(opts.seed)
        .iter()
        .map(|&seed| table6_settings(seed, budgets, workers))
        .collect();
    // The calls' reference runs on as many threads as they can keep
    // busy; engine construction, which takes under a microsecond, has
    // its own.
    let mut clock = Clock::new(Reference::mixed(match opts.workload {
        Workload::Kernel => 1,
        _ => workers,
    }));
    let setups: Vec<Sample>;
    // One untimed warm-up call comes first: the first call of a process
    // pays for lazy set-up that later ones do not.
    let warm: Sample;
    // Timed calls and their simulated instructions, one group per
    // input: `table6` cycles through its three seeds.
    let mut calls: Vec<Vec<(Sample, u64)>>;
    let mut tables: Vec<Option<Table6>> = vec![None; t6.len()];
    let digest;
    match opts.workload {
        Workload::Table6 => {
            setups = time_setups(
                &mut Clock::new(Reference::micro()),
                budgets.setup_repeats,
                budgets.engine_setups_per_sample,
                || ExperimentEngine::from_settings(&t6[0]),
            );
            warm = table6_call(&t6[0], &mut clock, report, &mut tables[0]).0;
            calls = vec![Vec::new(); t6.len()];
            let mut call = 0;
            closed_loop(opts.seconds, budgets.min_calls.max(t6.len()), || {
                let i = call % t6.len();
                call += 1;
                calls[i].push(table6_call(&t6[i], &mut clock, report, &mut tables[i]));
            });
            digest = digest_table(tables[0].as_ref().expect("at least one call"));
        }
        Workload::Sweep => {
            let settings = sweep_settings(opts.seed, budgets, workers);
            let plan = sweep_plan();
            let insts = plan.jobs.len() as u64 * settings.instructions;
            setups = time_setups(
                &mut Clock::new(Reference::micro()),
                budgets.setup_repeats,
                budgets.engine_setups_per_sample,
                || ExperimentEngine::from_settings(&settings),
            );
            let mut reference = None;
            let mut call = || {
                clock
                    .time(|| sweep_call(&settings, &plan, &off, report, &mut reference))
                    .1
            };
            warm = call();
            let samples = closed_loop(opts.seconds, budgets.min_calls, || (call(), insts));
            calls = vec![samples];
            digest = reference.expect("at least one call");
        }
        Workload::Kernel => {
            let budget = budgets.kernel_instructions;
            // Each set-up starts from nothing: the previous one is
            // dropped first, so its traces are not merely re-leased.
            let mut samples = Vec::new();
            let mut kept = None;
            for _ in 0..budgets.setup_repeats {
                drop(kept.take());
                let (setup, sample) = clock.time(|| kernel_setup(opts.seed, budget));
                samples.push(sample);
                kept = Some(setup);
            }
            setups = samples;
            let (runner, _pins) = kept.expect("at least one set-up");
            let insts = (KERNEL_BENCHES.len() * kernel_configs().len()) as u64 * budget;
            let mut reference = Vec::new();
            let mut call = || {
                clock
                    .time(|| kernel_round(&runner, &off, report, &mut reference))
                    .1
            };
            warm = call();
            let samples = closed_loop(opts.seconds, budgets.min_calls, || (call(), insts));
            calls = vec![samples];
            digest = digest_results(&reference);
        }
    }
    // The fidelity metrics are a property of the model at these seeds,
    // not of the timed calls: the workloads that do not build Table 6
    // take them from untimed `table6::run` calls after the measurement.
    let tables: Vec<Table6> = tables
        .into_iter()
        .zip(&t6)
        .map(|(table, settings)| table.unwrap_or_else(|| table6::run(settings)))
        .collect();
    for table in &tables {
        report.check(table_is_complete(table), || {
            "table6 has six finite rows".into()
        });
    }
    let mean = |f: fn(&Table6) -> f64| tables.iter().map(f).sum::<f64>() / tables.len() as f64;
    report.set("oracle_miss_pp", mean(derive::oracle_miss_pp));
    report.set("mcd_edge_pp", mean(derive::mcd_edge_pp));

    let per_call = |f: &dyn Fn(&(Sample, u64)) -> f64| -> Vec<Vec<f64>> {
        calls.iter().map(|g| g.iter().map(f).collect()).collect()
    };
    let norm = per_call(&|(s, _)| s.norm);
    let raw = per_call(&|(s, _)| s.raw);
    let mips = per_call(&|(s, insts)| *insts as f64 / (s.norm * 1e6));
    let setup_norm: Vec<f64> = setups.iter().map(|s| s.norm).collect();
    let setup_raw: Vec<f64> = setups.iter().map(|s| s.raw).collect();
    report.set("wall_s", derive::mean_of_medians(&norm));
    report.set("setup_s", derive::median(&setup_norm));
    report.set("sim_mips", derive::mean_of_medians(&mips));
    // With two engine workers the peak depends on how their runs
    // overlap, so it is a median over every call, the warm-up too.
    let peaks: Vec<f64> = std::iter::once(warm.peak_mb)
        .chain(calls.iter().flatten().map(|(s, _)| s.peak_mb))
        .collect();
    report.set("peak_rss_mb", derive::median(&peaks));
    report.info("digest", digest);
    let table_digests: Vec<String> = tables.iter().map(digest_table).collect();
    report.info("table6_digests", format!("[{}]", table_digests.join(", ")));
    report.info("host_wall_s", derive::mean_of_medians(&raw));
    report.info("host_setup_s", derive::median(&setup_raw));
    record_walls(report, "wall_s_samples", &norm.concat());
    record_walls(report, "host_wall_s_samples", &raw.concat());
    record_walls(report, "setup_s_samples", &setup_norm);
    record_walls(report, "peak_rss_mb_samples", &peaks);
}

fn traced(opts: &Options, budgets: &Budgets, workers: usize, report: &mut Report) {
    let off = Tracer::disabled();
    let on = Tracer::enabled();
    let half = opts.seconds / 2.0;
    let t6 = table6_settings(opts.seed, budgets, workers);
    let sweep = sweep_settings(opts.seed, budgets, workers);
    let plan = sweep_plan();
    let (runner, _pins) = kernel_setup(opts.seed, budgets.kernel_instructions);

    // The measured workload: an untraced closed loop, then a traced one
    // of the same length; the difference of their medians is the
    // tracing overhead.
    let (untraced_walls, traced_walls, digest);
    let mut t6_facts = None;
    let mut sweep_facts = None;
    let mut kernel_results = Vec::new();
    match opts.workload {
        Workload::Table6 => {
            let mut table = None;
            untraced_walls = closed_loop(half, budgets.min_calls, || {
                table6_call(&t6, &mut Clock::raw(), report, &mut table)
                    .0
                    .raw
            });
            let table = table.expect("at least one call");
            traced_walls = closed_loop(half, budgets.min_calls, || {
                let ((replayed, facts), wall) = timed(|| table6_traced(&t6, &on, report));
                report.check(replayed == table, || {
                    "traced table6 rows equal table6::run".into()
                });
                t6_facts = Some(facts);
                wall
            });
            digest = digest_table(&table);
        }
        Workload::Sweep => {
            let mut reference = None;
            untraced_walls = closed_loop(half, budgets.min_calls, || {
                sweep_call(&sweep, &plan, &off, report, &mut reference).0
            });
            traced_walls = closed_loop(half, budgets.min_calls, || {
                let (wall, facts) = sweep_call(&sweep, &plan, &on, report, &mut reference);
                sweep_facts = Some(facts);
                wall
            });
            digest = reference.expect("at least one call");
        }
        Workload::Kernel => {
            untraced_walls = closed_loop(half, budgets.min_calls, || {
                kernel_round(&runner, &off, report, &mut kernel_results)
            });
            traced_walls = closed_loop(half, budgets.min_calls, || {
                kernel_round(&runner, &on, report, &mut kernel_results)
            });
            digest = digest_results(&kernel_results);
        }
    }
    let own_spans = on.spans();
    let root_self: Vec<f64> = own_spans
        .iter()
        .filter(|s| s.layer == "bench" && s.parent.is_none())
        .map(|s| spans::self_ns(s, &own_spans) as f64 * 1e-9)
        .collect();
    report.set(
        "trace.overhead_s",
        derive::median(&traced_walls) - derive::median(&untraced_walls),
    );
    report.set(
        "trace.unattributed_s",
        root_self.iter().sum::<f64>() / root_self.len() as f64,
    );

    // One traced pass of every other workload, so that every layer has
    // a source whichever workload is measured.
    for other in Workload::ALL {
        match other {
            Workload::Kernel if kernel_results.is_empty() => {
                kernel_round(&runner, &on, report, &mut kernel_results);
            }
            Workload::Sweep if sweep_facts.is_none() => {
                sweep_facts = Some(sweep_call(&sweep, &plan, &on, report, &mut None).1);
            }
            Workload::Table6 if t6_facts.is_none() => {
                t6_facts = Some(table6_traced(&t6, &on, report).1);
            }
            _ => {}
        }
    }
    let kernel = kernel_probes(&runner, &on, report, kernel_results);
    profile_probe(&t6, &on, report);

    let all_spans = on.spans();
    let t6_facts = t6_facts.expect("table6 pass ran");
    let sweep_facts = sweep_facts.expect("sweep pass ran");
    layer_metrics(
        report,
        &all_spans,
        budgets,
        &kernel,
        &sweep_facts,
        &t6_facts,
        opts.workload,
    );
    report.info("digest", digest);
    report.info("sweep_digest", sweep_facts.digest);
    record_walls(report, "untraced_wall_s_samples", &untraced_walls);
    record_walls(report, "traced_wall_s_samples", &traced_walls);
    let self_times: Vec<String> = spans::self_ns_by_layer(&all_spans)
        .iter()
        .map(|(layer, ns)| format!("\"{layer}\": {}", *ns as f64 * 1e-9))
        .collect();
    report.info("self_s_by_layer", format!("{{{}}}", self_times.join(", ")));
    report.spans = all_spans;
}

/// Mean duration in seconds of the matching spans; NaN when none match,
/// which the result line reports as a failed check.
fn mean_s(spans: &[Span], layer: &str, op: &str, key: Option<&str>) -> f64 {
    let (ns, n) = spans::total_ns(spans, layer, op, key);
    ns as f64 * 1e-9 / n as f64
}

fn layer_metrics(
    report: &mut Report,
    spans: &[Span],
    budgets: &Budgets,
    kernel: &KernelFacts,
    sweep: &SweepFacts,
    t6: &Table6Facts,
    workload: Workload,
) {
    let kernel_budget = budgets.kernel_instructions as f64;
    let (materialize_ns, _) = spans::total_ns(spans, "workloads", "materialize", None);
    report.set(
        "workloads.materialize_ns_per_inst",
        materialize_ns as f64 / kernel.trace_insts as f64,
    );
    report.set(
        "workloads.trace_bytes_per_inst",
        kernel.trace_bytes as f64 / kernel.trace_insts as f64,
    );
    let configs = kernel_configs();
    for (i, &(_, name)) in KERNEL_BENCHES.iter().enumerate() {
        for (label, _) in &configs {
            let key = format!("{name}.{label}");
            let ns = mean_s(spans, "sim", "step", Some(&key)) * 1e9;
            report.set(&format!("sim.{key}.ns_per_inst"), ns / kernel_budget);
        }
        let fixed = &kernel.results[i * configs.len()];
        report.set(
            &format!("sim.{name}.events_per_inst"),
            fixed.events_per_commit(),
        );
        report.set(&format!("sim.{name}.cpi"), fixed.cpi());
    }
    report.set(
        "runner.begin_ms",
        mean_s(spans, "runner", "begin", None) * 1e3,
    );
    let (profile_ns, _) = spans::total_ns(spans, "runner", "profile_for", None);
    report.set("runner.profile_s", profile_ns as f64 * 1e-9);
    report.set(
        "runner.global_search_s",
        mean_s(spans, "bench", "global_search", None),
    );
    report.set("runner.global_search_runs", t6.global_runs as f64);

    // The engine layer is read off the measured workload's own engine;
    // the kernel has none and reads the sweep's.
    let (stats, wall) = match workload {
        Workload::Table6 => (&t6.stats, t6.suite_s),
        _ => (&sweep.cold, sweep.cold_s),
    };
    let engine_span = match workload {
        Workload::Table6 => mean_s(spans, "experiments", "run_suite_with_stats", None),
        _ => mean_s(spans, "engine", "execute_with_stats", Some("cold")),
    };
    report.set("engine.suite_s", engine_span);
    report.set(
        "engine.busy_fraction",
        derive::busy_fraction(stats.cumulative_seconds, wall, stats.workers),
    );
    report.set("engine.runs", stats.runs as f64);
    report.set(
        "engine.mips",
        stats.simulated_instructions as f64 / (wall * 1e6),
    );
    report.set(
        "cache.trace_materializations",
        stats.trace_materializations as f64,
    );
    let leases = stats.trace_cache_hits + stats.trace_materializations;
    report.set(
        "cache.trace_hit_ratio",
        stats.trace_cache_hits as f64 / leases.max(1) as f64,
    );
    report.set("cache.trace_peak_mb", stats.trace_peak_bytes as f64 / 1e6);
    report.set(
        "cache.repeat_ms",
        mean_s(spans, "engine", "execute_with_stats", Some("repeat")) * 1e3,
    );
    let probes = sweep.repeat.result_cache_hits + sweep.repeat.result_cache_misses;
    report.set(
        "cache.repeat_hit_ratio",
        sweep.repeat.result_cache_hits as f64 / probes.max(1) as f64,
    );
    report.set("snapshot.bytes", kernel.snapshot_bytes as f64);
    report.set(
        "snapshot.encode_ms",
        mean_s(spans, "snapshot", "snapshot", None) * 1e3,
    );
    report.set(
        "snapshot.restore_ms",
        mean_s(spans, "snapshot", "restore", None) * 1e3,
    );
}
