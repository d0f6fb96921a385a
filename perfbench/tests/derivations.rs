//! Metric derivations, checked on hand-built inputs, and a tiny-budget
//! smoke run of every workload.

use mcd_core::experiments::table6::{Table6, Table6Row};
use perfbench::calib::{Clock, Reference, Sample};
use perfbench::spans::{covered_ns, self_ns, self_ns_by_layer, Span, Tracer};
use perfbench::{derive, run, Budgets, Options, Report, Workload, END_TO_END, PER_LAYER};

fn span(id: usize, parent: Option<usize>, layer: &'static str, start_ns: u64, end_ns: u64) -> Span {
    Span {
        id,
        parent,
        layer,
        op: "op",
        key: String::new(),
        start_ns,
        end_ns,
    }
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    // Two overlapping (parallel) children and a grandchild.
    let spans = vec![
        span(0, None, "bench", 0, 100),
        span(1, Some(0), "engine", 10, 40),
        span(2, Some(0), "runner", 30, 60),
        span(3, Some(1), "sim", 15, 20),
    ];
    assert_eq!(self_ns(&spans[0], &spans), 100 - 50);
    assert_eq!(self_ns(&spans[1], &spans), 30 - 5);
    assert_eq!(self_ns(&spans[2], &spans), 30);
    assert_eq!(self_ns(&spans[3], &spans), 5);
    let by_layer = self_ns_by_layer(&spans);
    assert_eq!(by_layer["bench"], 50);
    assert_eq!(by_layer["engine"], 25);
    // The parallel children overlap for 10 ns, which both count.
    assert_eq!(by_layer.values().sum::<u64>(), 100 + 10);
}

#[test]
fn coverage_clips_to_the_window() {
    assert_eq!(covered_ns(10, 20, &[(0, 15), (18, 30)]), 7);
    assert_eq!(covered_ns(10, 20, &[(12, 14), (12, 14), (13, 16)]), 4);
    assert_eq!(covered_ns(10, 20, &[(20, 30), (0, 10)]), 0);
}

#[test]
fn tracer_links_nested_spans_and_a_disabled_one_records_nothing() {
    let on = Tracer::enabled();
    let inner = on.span("bench", "outer", "", None, |outer| {
        on.span("engine", "inner", "k", outer, |inner| inner)
    });
    let spans = on.spans();
    assert_eq!(spans.len(), 2);
    assert_eq!(inner, Some(1));
    assert_eq!(spans[1].parent, Some(0));
    assert_eq!(spans[1].key, "k");
    assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

    let off = Tracer::disabled();
    assert_eq!(off.span("bench", "outer", "", None, |id| id), None);
    assert!(off.spans().is_empty());
}

#[test]
fn busy_fraction_is_cumulative_over_capacity() {
    assert_eq!(derive::busy_fraction(3.0, 2.0, 2), 0.75);
    assert_eq!(derive::busy_fraction(1.0, 1.0, 1), 1.0);
}

#[test]
fn median_of_odd_and_even_counts() {
    assert_eq!(derive::median(&[3.0, 1.0, 2.0]), 2.0);
    assert_eq!(derive::median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
}

#[test]
fn mean_of_medians_weighs_each_group_once() {
    let groups = vec![vec![1.0, 9.0, 2.0], vec![4.0]];
    assert_eq!(derive::mean_of_medians(&groups), 3.0);
}

#[test]
fn normalized_time_scales_by_the_reference() {
    // A call twice as long as the reference work reads as twice the
    // reference seconds, whatever the host's speed.
    for reference in [Reference::mixed(2), Reference::micro()] {
        let at = |host_speed: f64| reference.normalize(2.0 / host_speed, 1.0 / host_speed);
        assert!((at(1.0) - 2.0 * reference.nominal_s).abs() < 1e-12);
        assert!((at(0.6) - at(1.0)).abs() < 1e-12);
    }
}

#[test]
fn a_sample_of_a_batch_divides_its_times_by_the_batch() {
    let batch = Sample {
        raw: 3.0,
        norm: 2.0,
        peak_mb: 30.0,
    };
    let one = batch.per(4);
    assert_eq!((one.raw, one.norm, one.peak_mb), (0.75, 0.5, 30.0));
}

#[test]
fn a_raw_clock_reports_host_time_and_a_reference_clock_scales_it() {
    let busy = || std::hint::black_box((0..200_000u64).map(|i| i * i).sum::<u64>());
    let (_, raw) = Clock::raw().time(busy);
    assert_eq!(raw.raw, raw.norm);
    assert!(raw.peak_mb > 0.0);
    for reference in [Reference::mixed(2), Reference::micro()] {
        let (_, scaled) = Clock::new(reference).time(busy);
        assert!(scaled.norm > 0.0 && scaled.norm.is_finite());
    }
}

fn row(algorithm: &str, perf_degradation: f64, energy_savings: f64) -> Table6Row {
    Table6Row {
        algorithm: algorithm.to_string(),
        perf_degradation,
        energy_savings,
        edp_improvement: 0.0,
        power_savings: 0.0,
        power_perf_ratio: None,
    }
}

#[test]
fn fidelity_metrics_from_a_hand_built_table() {
    let table = Table6 {
        rows: vec![
            row("Attack/Decay", 0.02, 0.05),
            row("Dynamic-1%", 0.03, 0.08),
            row("Dynamic-5%", 0.10, 0.20),
            row("Global (Attack/Decay)", 0.02, 0.06),
            row("Global (Dynamic-1%)", 0.03, 0.09),
            row("Global (Dynamic-5%)", 0.10, 0.25),
        ],
    };
    // (|3% - 1%| + |10% - 5%|) / 2 = 3.5 points.
    assert!((derive::oracle_miss_pp(&table) - 3.5).abs() < 1e-9);
    // 20% - 25%: global scaling wins by 5 points.
    assert!((derive::mcd_edge_pp(&table) + 5.0).abs() < 1e-9);
}

#[test]
fn metric_lists_match_benchmark_json() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json beside the benchmark directory");
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for w in Workload::ALL {
        assert!(json.contains(&format!("{{\"name\": \"{}\"", w.name())));
    }
    let names = json.matches("\"name\":").count();
    assert_eq!(
        names,
        END_TO_END.len() + PER_LAYER.len() + Workload::ALL.len()
    );
}

fn tiny() -> Budgets {
    Budgets {
        table6_instructions: 3_000,
        sweep_instructions: 5_000,
        kernel_instructions: 5_000,
        setup_repeats: 1,
        engine_setups_per_sample: 10,
        min_calls: 1,
    }
}

#[test]
fn smoke_every_workload_reports_every_metric() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let opts = Options {
                workload,
                seed: 7,
                seconds: 0.0,
                trace,
            };
            let mut report: Report = run(&opts, &tiny(), 2);
            let line = report.result_line(trace);
            assert!(
                report.failures.is_empty(),
                "{} trace={trace}: {:?}",
                workload.name(),
                report.failures
            );
            for (name, _) in Report::expected(trace) {
                let v = report.metrics.get(*name).copied();
                assert!(
                    v.is_some_and(f64::is_finite),
                    "{} trace={trace}: {name} = {v:?}",
                    workload.name()
                );
                assert!(line.contains(&format!("\"{name}\": {{\"value\": ")));
            }
            assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
            assert!(report.attempted > 0);
        }
    }
}
