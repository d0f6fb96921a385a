//! Pure derivations of reported metrics from measured values, kept
//! apart from the measuring code so tests can feed them hand-built
//! inputs.

use mcd_core::experiments::table6::Table6;

/// The median of `values` (the mean of the middle pair for an even
/// count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// Fraction of the engine's worker capacity spent running simulations:
/// the summed per-run host time over wall time times workers.
pub fn busy_fraction(cumulative_s: f64, wall_s: f64, workers: usize) -> f64 {
    cumulative_s / (wall_s * workers as f64)
}

/// Mean distance, in percentage points, between the performance
/// degradation the off-line oracle achieved and its target, over
/// Dynamic-1% and Dynamic-5%.
pub fn oracle_miss_pp(table: &Table6) -> f64 {
    let miss = |label: &str, target: f64| {
        let row = table.row(label).expect("Table 6 has the Dynamic rows");
        (row.perf_degradation - target).abs()
    };
    (miss("Dynamic-1%", 0.01) + miss("Dynamic-5%", 0.05)) / 2.0 * 100.0
}

/// Energy savings of per-domain Dynamic-5% minus those of global
/// scaling matched to its slowdown, in percentage points (positive when
/// per-domain scaling wins, as in the paper).
pub fn mcd_edge_pp(table: &Table6) -> f64 {
    let savings = |label: &str| {
        table
            .row(label)
            .expect("Table 6 has the Dynamic-5% rows")
            .energy_savings
    };
    (savings("Dynamic-5%") - savings("Global (Dynamic-5%)")) * 100.0
}

/// The mean over groups of each group's median: one value per input
/// (seed) weighs the same however many calls it got.
///
/// # Panics
///
/// Panics when there are no groups or a group is empty.
pub fn mean_of_medians(groups: &[Vec<f64>]) -> f64 {
    assert!(!groups.is_empty(), "mean of no groups");
    groups.iter().map(|g| median(g)).sum::<f64>() / groups.len() as f64
}

/// Fixes the allocator's tuning so that peak memory repeats from
/// process to process and call to call (glibc only; call it before any
/// thread starts):
///
/// - arenas capped at `arenas` (`M_ARENA_MAX`).  With glibc's default
///   of eight per core, whether a thread gets an arena of its own
///   depends on lock timing, and each extra arena holds memory of its
///   own: the two-worker `table6` call peaked at 45.5 MB in about three
///   fresh processes of four and at 50 to 51 MB in the fourth; with one
///   arena per engine worker, at 45.3 to 45.9 MB in every one.
/// - a fixed 128 KiB mmap threshold (`M_MMAP_THRESHOLD`), which glibc
///   otherwise raises whenever a large block is freed, so that later
///   large blocks stay on the heap and each call's peak started higher
///   than the last (47 MB, then up to 65 MB).
pub fn tune_allocator(arenas: usize) {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        const M_ARENA_MAX: i32 = -8;
        const M_MMAP_THRESHOLD: i32 = -3;
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        let value = i32::try_from(arenas.max(1)).unwrap_or(i32::MAX);
        // SAFETY: `mallopt` takes two integers and only changes the
        // allocator's tuning; no allocation has been shared yet.
        unsafe {
            mallopt(M_ARENA_MAX, value);
            mallopt(M_MMAP_THRESHOLD, 128 * 1024);
        }
    }
}

/// Returns the memory the allocator holds free to the system, then
/// resets this process's peak resident set size to its current one, so
/// that the next [`peak_rss_mb`] covers only what runs in between and
/// starts from the same heap however many calls ran before.
pub fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` only releases free heap memory;
        // it takes no pointers and is safe to call at any time.
        unsafe {
            malloc_trim(0);
        }
    }
    std::fs::write("/proc/self/clear_refs", "5").expect("/proc/self/clear_refs writable");
}

/// Peak resident set size of this process (`VmHWM`), in MB, since it
/// started or since the last [`reset_peak_rss`].
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status readable");
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kib * 1024.0 / 1e6
}
