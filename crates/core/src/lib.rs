//! # mcd-core
//!
//! Experiment harness for the reproduction of *"Dynamic Frequency and
//! Voltage Control for a Multiple Clock Domain Microarchitecture"*
//! (Semeraro et al., MICRO 2002).
//!
//! The crate ties the substrates of the workspace together into the
//! evaluation flow of the paper:
//!
//! * [`engine`] — the parallel experiment engine: deterministic
//!   `(benchmark, configuration)` run plans executed one run per
//!   scheduler slot by a work-stealing slice scheduler over scoped
//!   worker threads, with a shared profile cache and explicit profiling
//!   prerequisite jobs.
//! * [`runner`] — runs one benchmark under one configuration
//!   (fully synchronous, baseline MCD, Attack/Decay, off-line Dynamic-N%,
//!   global voltage scaling), including the two-pass profiling required by
//!   the off-line oracle and the search for the global frequency that
//!   matches a target performance degradation.
//! * [`mod@snapshot`] — the versioned binary snapshot codec: serialize a
//!   paused [`runner::PausableRun`] (machine + stream cursor + controller
//!   state) and restore it bit-identically, in this process or another.
//! * [`cache`] — the engine-owned caches: shared instruction traces and
//!   content-addressed result memoization.
//! * [`bundle`] — verifiable run bundles: a manifest-hashed directory of
//!   run identity, snapshot chain and result digest, with
//!   [`bundle::replay_verify`] restoring every snapshot
//!   and re-running its tail to the recorded digest.
//! * [`metrics`] — the paper's metrics: performance degradation, energy
//!   savings, energy-delay-product improvement and the power-savings to
//!   performance-degradation ratio, plus suite averaging.
//! * [`experiments`] — one entry point per paper table/figure: Table 6,
//!   Figure 4(a–c), the Figure 2/3 `epic decode` traces, and the
//!   Figure 5/6/7 sensitivity sweeps.
//! * [`presets`] — the Table 1 and Table 4 parameter presets and their
//!   pretty-printed forms.
//! * [`report`] — plain-text table and CSV rendering used by the `mcd-bench`
//!   binaries and the examples.
//!
//! ```no_run
//! use mcd_core::experiments::{table6, ExperimentSettings};
//!
//! let settings = ExperimentSettings::quick();
//! let table = table6::run(&settings);
//! println!("{}", table.render());
//! ```

pub mod bundle;
pub mod cache;
pub mod engine;
pub mod experiments;
pub mod metrics;
pub mod presets;
pub mod report;
pub mod runner;
pub mod snapshot;

pub use bundle::{replay_verify, write_bundle, BundleError, BundleReport, BundleSpec};
pub use cache::{result_key, ResultCache, ResultCacheStats, TraceCache, TraceCacheStats, TraceKey};
pub use engine::{
    admission_priority, parallel_map, result_caching_enabled, slice_cycles, worker_count,
    EngineStats, ExperimentEngine, JobSpec, RunPlan, DEFAULT_SLICE_CYCLES,
};
pub use experiments::ExperimentSettings;
pub use metrics::{suite_average, Comparison, RunMetrics};
pub use runner::{BenchmarkRunner, ConfigKind, PausableRun, RunOutcome};
pub use snapshot::{restore, restore_with, snapshot, SnapshotHeader, SNAPSHOT_VERSION};
