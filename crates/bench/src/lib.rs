//! # mcd-bench
//!
//! Benchmark harness and figure/table regeneration utilities for the MCD
//! DVFS reproduction.
//!
//! Two kinds of targets live in this crate:
//!
//! * **Binaries** (`src/bin/*`) — one per paper artefact.  Each regenerates
//!   the corresponding table or figure and writes both a human-readable
//!   rendering to stdout and a CSV file under `results/`:
//!   `paper_tables`, `table6`, `figure2_3`, `figure4`, `figure5`,
//!   `figure6_7`.
//! * **Criterion benches** (`benches/*`) — one per paper artefact plus a
//!   micro-benchmark suite of the simulator substrates.  Each bench prints
//!   the regenerated rows once (with reduced settings so `cargo bench`
//!   stays tractable) and then measures the cost of the underlying
//!   simulation kernel.
//!
//! Setting the environment variable `MCD_FULL=1` makes the binaries run the
//! full 30-benchmark suite with the longer windows used for EXPERIMENTS.md;
//! the default is a quick cross-suite subset.

use std::path::PathBuf;

use mcd_core::engine::EngineStats;
use mcd_core::experiments::ExperimentSettings;

/// Returns the experiment settings selected by the `MCD_FULL` environment
/// variable (the paper's full suite when set to `1`, otherwise the quick
/// subset), with the worker count from `--jobs N` / `-j N`, the scheduler
/// slice granularity from `--slice-cycles N` and the scheduler admission
/// cap from `--max-live-runs N` on the command line (each falling back to
/// its environment variable, `MCD_JOBS` / `MCD_SLICE_CYCLES` /
/// `MCD_MAX_LIVE_RUNS`, then to the built-in default).
pub fn settings_from_env() -> ExperimentSettings {
    let mut settings = if std::env::var("MCD_FULL").map(|v| v == "1").unwrap_or(false) {
        ExperimentSettings::paper()
    } else {
        ExperimentSettings::quick()
    };
    if let Some(jobs) = jobs_from_args(std::env::args()) {
        settings = settings.with_jobs(jobs);
    }
    if let Some(slice) = slice_cycles_from_args(std::env::args()) {
        settings = settings.with_slice_cycles(slice);
    }
    if let Some(cap) = max_live_runs_from_args(std::env::args()) {
        settings = settings.with_max_live_runs(cap);
    }
    if bool_flag(std::env::args(), "--no-result-cache") {
        settings = settings.with_result_cache(false);
    }
    settings
}

/// Returns whether `name` appears as a bare flag in the argument list
/// (used for `--no-result-cache`; the matching environment escape hatch
/// is `MCD_NO_RESULT_CACHE=1`).
pub fn bool_flag(args: impl IntoIterator<Item = String>, name: &str) -> bool {
    args.into_iter().any(|a| a == name)
}

/// Parses `--jobs N`, `--jobs=N` or `-j N` from an argument list.
pub fn jobs_from_args(args: impl IntoIterator<Item = String>) -> Option<usize> {
    flag_value(args, &["--jobs", "-j"], "--jobs=")
}

/// Parses `--slice-cycles N` or `--slice-cycles=N` from an argument list.
pub fn slice_cycles_from_args(args: impl IntoIterator<Item = String>) -> Option<u64> {
    flag_value(args, &["--slice-cycles"], "--slice-cycles=")
}

/// Parses `--max-live-runs N` or `--max-live-runs=N` from an argument
/// list (`0` = unbounded residency).
pub fn max_live_runs_from_args(args: impl IntoIterator<Item = String>) -> Option<usize> {
    flag_value(args, &["--max-live-runs"], "--max-live-runs=")
}

fn flag_value<T: std::str::FromStr>(
    args: impl IntoIterator<Item = String>,
    names: &[&str],
    prefix: &str,
) -> Option<T> {
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if names.contains(&arg.as_str()) {
            return args.next().and_then(|v| v.parse().ok());
        }
        if let Some(v) = arg.strip_prefix(prefix) {
            return v.parse().ok();
        }
    }
    None
}

/// The host's available hardware parallelism, recorded into every
/// `BENCH_*.json` artefact so throughput numbers from different machines
/// (or differently-limited containers) are never compared blind.
pub fn nproc() -> u64 {
    std::thread::available_parallelism()
        .map(|n| n.get() as u64)
        .unwrap_or(1)
}

/// Writes the host-throughput artefact of one experiment run
/// (`BENCH_<name>.json` in the results directory): engine statistics plus
/// any experiment-specific extras.  This is what makes simulator-kernel
/// speedups measurable across commits.
pub fn write_bench_json(
    name: &str,
    stats: &EngineStats,
    extras: &[(&str, serde_json::Value)],
) -> PathBuf {
    let mut doc = serde_json::Value::object();
    doc.insert("experiment", name);
    doc.insert("nproc", nproc());
    doc.insert("workers", stats.workers);
    doc.insert("slice_cycles", stats.slice_cycles);
    doc.insert("runs", stats.runs);
    doc.insert("wall_seconds", stats.wall_seconds);
    doc.insert("cumulative_seconds", stats.cumulative_seconds);
    doc.insert(
        "parallel_speedup",
        if stats.wall_seconds > 0.0 {
            stats.cumulative_seconds / stats.wall_seconds
        } else {
            0.0
        },
    );
    doc.insert("simulated_instructions", stats.simulated_instructions);
    doc.insert("aggregate_simulated_mips", stats.aggregate_mips);
    doc.insert("result_cache_hits", stats.result_cache_hits);
    doc.insert("result_cache_misses", stats.result_cache_misses);
    doc.insert("trace_cache_hits", stats.trace_cache_hits);
    doc.insert("trace_materializations", stats.trace_materializations);
    doc.insert("trace_peak_bytes", stats.trace_peak_bytes);
    for (key, value) in extras {
        doc.insert(key, value.clone());
    }
    write_artifact(&format!("BENCH_{name}.json"), &doc.to_string_pretty())
}

/// A reduced settings preset used inside Criterion measurement loops so
/// that a single iteration stays in the tens-of-milliseconds range.
pub fn criterion_settings() -> ExperimentSettings {
    ExperimentSettings::quick()
        .with_benchmarks(vec![
            mcd_workloads::Benchmark::Adpcm,
            mcd_workloads::Benchmark::Gzip,
        ])
        .with_instructions(20_000)
}

/// The directory where the regeneration binaries drop their CSV output
/// (`<workspace>/results`), created on demand.
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("MCD_RESULTS_DIR").unwrap_or_else(|_| "results".to_string());
    let path = PathBuf::from(dir);
    std::fs::create_dir_all(&path).expect("results directory is writable");
    path
}

/// Writes a text artefact into the results directory and echoes the path.
pub fn write_artifact(name: &str, contents: &str) -> PathBuf {
    let path = results_dir().join(name);
    std::fs::write(&path, contents).expect("artifact file is writable");
    println!("[wrote {}]", path.display());
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_settings_are_the_default() {
        std::env::remove_var("MCD_FULL");
        let s = settings_from_env();
        assert!(s.benchmarks.len() < 30);
        assert!(s.instructions <= 100_000);
    }

    #[test]
    fn criterion_settings_are_small() {
        let s = criterion_settings();
        assert_eq!(s.benchmarks.len(), 2);
        assert_eq!(s.instructions, 20_000);
    }

    #[test]
    fn artifacts_are_written_to_disk() {
        std::env::set_var(
            "MCD_RESULTS_DIR",
            std::env::temp_dir().join("mcd-bench-test"),
        );
        let path = write_artifact("unit-test.txt", "hello");
        assert!(path.exists());
        assert_eq!(std::fs::read_to_string(path).unwrap(), "hello");
    }

    #[test]
    fn jobs_flag_parsing() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(jobs_from_args(args(&["bin", "--jobs", "4"])), Some(4));
        assert_eq!(jobs_from_args(args(&["bin", "--jobs=8"])), Some(8));
        assert_eq!(jobs_from_args(args(&["bin", "-j", "2", "rest"])), Some(2));
        assert_eq!(jobs_from_args(args(&["bin"])), None);
        assert_eq!(jobs_from_args(args(&["bin", "--jobs", "no"])), None);
    }

    #[test]
    fn slice_cycles_flag_parsing() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(
            slice_cycles_from_args(args(&["bin", "--slice-cycles", "50000"])),
            Some(50_000)
        );
        assert_eq!(
            slice_cycles_from_args(args(&["bin", "--slice-cycles=123"])),
            Some(123)
        );
        assert_eq!(slice_cycles_from_args(args(&["bin"])), None);
        assert_eq!(
            slice_cycles_from_args(args(&["bin", "--slice-cycles", "no"])),
            None
        );
        // The two flags do not interfere.
        let both = args(&["bin", "--jobs", "4", "--slice-cycles", "9"]);
        assert_eq!(jobs_from_args(both.clone()), Some(4));
        assert_eq!(slice_cycles_from_args(both), Some(9));
    }

    #[test]
    fn max_live_runs_flag_parsing() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(
            max_live_runs_from_args(args(&["bin", "--max-live-runs", "8"])),
            Some(8)
        );
        assert_eq!(
            max_live_runs_from_args(args(&["bin", "--max-live-runs=0"])),
            Some(0)
        );
        assert_eq!(max_live_runs_from_args(args(&["bin"])), None);
    }

    #[test]
    fn bench_json_artifact_contains_throughput_fields() {
        std::env::set_var(
            "MCD_RESULTS_DIR",
            std::env::temp_dir().join("mcd-bench-test"),
        );
        let stats = EngineStats {
            workers: 4,
            slice_cycles: 250_000,
            runs: 15,
            result_cache_hits: 5,
            result_cache_misses: 15,
            trace_cache_hits: 12,
            trace_materializations: 3,
            trace_peak_bytes: 640_000,
            wall_seconds: 2.0,
            cumulative_seconds: 6.0,
            simulated_instructions: 900_000,
            aggregate_mips: 0.45,
        };
        let path = write_bench_json("unit", &stats, &[("benchmarks", 3u64.into())]);
        let text = std::fs::read_to_string(path).unwrap();
        for needle in [
            "\"experiment\": \"unit\"",
            "\"nproc\":",
            "\"workers\": 4",
            "\"slice_cycles\": 250000",
            "\"parallel_speedup\": 3",
            "\"aggregate_simulated_mips\": 0.45",
            "\"result_cache_hits\": 5",
            "\"result_cache_misses\": 15",
            "\"trace_cache_hits\": 12",
            "\"trace_materializations\": 3",
            "\"trace_peak_bytes\": 640000",
            "\"benchmarks\": 3",
        ] {
            assert!(text.contains(needle), "missing {needle} in {text}");
        }
    }

    #[test]
    fn cache_disable_flags_are_detected() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert!(bool_flag(
            args(&["bin", "--no-result-cache"]),
            "--no-result-cache"
        ));
        assert!(!bool_flag(args(&["bin"]), "--no-result-cache"));
    }
}
