//! `perfbench --workload <table6|sweep|kernel> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints the run facts (seed, processor count, workers, budgets,
//! result digests) as one JSON line, then, as the last line, the
//! checks and metrics.  A traced run also writes its spans to
//! `out/spans-<workload>-<seed>.json` beside this crate's manifest.

use std::process::ExitCode;

use perfbench::{run, spans, Budgets, Options, Workload};

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut seed = 42;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(0.0..=3600.0).contains(&seconds) {
                    return Err(format!("seconds {value} out of range"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <table6|sweep|kernel> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    perfbench::derive::tune_allocator(workers);
    let mut report = run(&opts, &Budgets::standard(), workers);

    if opts.trace {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("spans-{}-{}.json", opts.workload.name(), opts.seed));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, spans::to_json(&report.spans)));
        if let Err(e) = written {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!(
            "perfbench: {} spans in {}",
            report.spans.len(),
            path.display()
        );
    }
    for failure in &report.failures {
        eprintln!("perfbench: check failed: {failure}");
    }
    println!("{}", report.info_line());
    println!("{}", report.result_line(opts.trace));
    ExitCode::SUCCESS
}
