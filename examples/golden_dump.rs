//! Bit-identity harness: dumps every determinism-relevant `SimResult`
//! field (committed instructions, cycles, energy to full precision,
//! per-domain average frequencies and the interval frequency trace) for a
//! grid of benchmark × configuration runs with fixed seeds.
//!
//! Kernel optimizations in this repository are required to leave
//! simulation *behaviour* untouched; capture this output before a change
//! and `diff` it after:
//!
//! ```sh
//! cargo run --release --example golden_dump > before.txt
//! # ... hack on the kernel ...
//! cargo run --release --example golden_dump > after.txt && diff before.txt after.txt
//! ```
//!
//! The default-mode output is committed as `tests/golden/golden_dump.txt`;
//! CI diffs every mode below against it.
//!
//! **Sliced mode:** setting `MCD_GOLDEN_SLICE=<kernel steps>` executes
//! every run through repeated `run_for` pauses of that length instead of
//! one unbounded `run`.  The output must be byte-identical to the default
//! mode — this is how the golden matrix also certifies pause/resume
//! bit-identity:
//!
//! ```sh
//! cargo run --release --example golden_dump > unsliced.txt
//! MCD_GOLDEN_SLICE=10000 cargo run --release --example golden_dump > sliced.txt
//! diff unsliced.txt sliced.txt      # any output = slicing changed behaviour
//! ```
//!
//! **Shared-trace mode:** setting `MCD_GOLDEN_TRACE=1` feeds every run a
//! cursor over a materialized [`mcd::workloads::SharedTrace`] instead of
//! the live generator — the replay path the experiment engine's trace
//! cache uses.  The output must again be byte-identical, alone and
//! combined with `MCD_GOLDEN_SLICE`:
//!
//! ```sh
//! MCD_GOLDEN_TRACE=1 cargo run --release --example golden_dump > traced.txt
//! diff unsliced.txt traced.txt      # any output = trace replay changed behaviour
//! ```
//!
//! **Checkpoint mode:** setting `MCD_GOLDEN_CKPT=<kernel steps>` pauses
//! every run after that many steps, serializes the machine *and* its
//! instruction stream with the snapshot codec, drops the live objects,
//! restores from the bytes, and runs the restored machine to completion.
//! The output must be byte-identical to the default mode — this is how
//! the golden matrix certifies checkpoint/restore bit-identity, alone
//! and combined with the other two modes:
//!
//! ```sh
//! MCD_GOLDEN_CKPT=20000 cargo run --release --example golden_dump > ckpt.txt
//! diff unsliced.txt ckpt.txt        # any output = a restore changed behaviour
//! ```

use mcd::clock::OperatingPointTable;
use mcd::control::{
    AttackDecayController, AttackDecayParams, FixedController, FrequencyController,
};
use mcd::isa::{DynInst, InstructionStream};
use mcd::sim::{McdProcessor, SimConfig, SimResult, StepOutcome};
use mcd::workloads::{Benchmark, SharedTrace, TraceCursor, WorkloadGenerator};
use serde::codec::{ByteReader, ByteWriter};
use std::sync::Arc;

/// The slice length selected by `MCD_GOLDEN_SLICE`, if any.  An invalid
/// or zero value aborts instead of silently falling back to the unsliced
/// mode — otherwise a typo would make the sliced-vs-unsliced CI diff
/// compare two unsliced dumps and certify pause/resume vacuously.
fn golden_slice() -> Option<u64> {
    let value = std::env::var("MCD_GOLDEN_SLICE").ok()?;
    let steps: u64 = value
        .parse()
        .unwrap_or_else(|_| panic!("MCD_GOLDEN_SLICE must be a positive integer, got {value:?}"));
    assert!(steps > 0, "MCD_GOLDEN_SLICE must be positive, got 0");
    Some(steps)
}

/// Whether `MCD_GOLDEN_TRACE` selects shared-trace replay.  Like
/// [`golden_slice`], anything but `1` or `0` aborts so a typo cannot make
/// the trace-vs-live CI diff compare two live dumps.
fn golden_trace() -> bool {
    match std::env::var("MCD_GOLDEN_TRACE") {
        Err(_) => false,
        Ok(v) if v == "0" => false,
        Ok(v) if v == "1" => true,
        Ok(v) => panic!("MCD_GOLDEN_TRACE must be 0 or 1, got {v:?}"),
    }
}

/// The checkpoint position selected by `MCD_GOLDEN_CKPT`, if any.  Same
/// abort-on-typo policy as [`golden_slice`]: a silently ignored value
/// would make the checkpoint-vs-unsliced CI diff certify restores
/// vacuously.
fn golden_ckpt() -> Option<u64> {
    let value = std::env::var("MCD_GOLDEN_CKPT").ok()?;
    let steps: u64 = value
        .parse()
        .unwrap_or_else(|_| panic!("MCD_GOLDEN_CKPT must be a positive integer, got {value:?}"));
    assert!(steps > 0, "MCD_GOLDEN_CKPT must be positive, got 0");
    Some(steps)
}

/// Either stream the golden matrix runs under, unified so the checkpoint
/// path can serialize whichever one is live (the generator's full cursor
/// state, or the shared-trace cursor's position).
enum GoldenStream {
    Live(WorkloadGenerator),
    Traced(TraceCursor),
}

impl InstructionStream for GoldenStream {
    fn next_inst(&mut self) -> Option<DynInst> {
        match self {
            GoldenStream::Live(g) => g.next_inst(),
            GoldenStream::Traced(c) => c.next_inst(),
        }
    }

    fn remaining_hint(&self) -> Option<u64> {
        match self {
            GoldenStream::Live(g) => g.remaining_hint(),
            GoldenStream::Traced(c) => c.remaining_hint(),
        }
    }

    fn annotations(&self) -> Option<&mcd::isa::TraceAnnotations> {
        match self {
            GoldenStream::Live(_) => None,
            GoldenStream::Traced(c) => c.annotations(),
        }
    }
}

fn run_to_completion<S: InstructionStream>(cpu: &mut McdProcessor, mut stream: S) -> SimResult {
    match golden_slice() {
        None => cpu.run(stream),
        Some(slice) => loop {
            if let StepOutcome::Finished(r) = cpu.run_for(&mut stream, slice) {
                break r;
            }
        },
    }
}

/// One golden run after the optional checkpoint round-trip: either the
/// machine and stream ready to execute to completion, or — when the
/// checkpoint position lies past the run's end — the finished result.
enum Prepared {
    Finished(Box<SimResult>),
    Ready(Box<McdProcessor>, GoldenStream),
}

fn prepare(
    bench: Benchmark,
    insts: u64,
    cfg: SimConfig,
    make_ctrl: &dyn Fn() -> Box<dyn FrequencyController>,
) -> Prepared {
    let spec = bench.spec();
    let trace = golden_trace().then(|| Arc::new(SharedTrace::materialize(&spec, 42, insts)));
    let mut stream = match &trace {
        Some(t) => GoldenStream::Traced(t.cursor()),
        None => GoldenStream::Live(WorkloadGenerator::new(&spec, 42, insts)),
    };
    let mut cpu = McdProcessor::new(cfg.clone(), make_ctrl());

    if let Some(ckpt_steps) = golden_ckpt() {
        if let StepOutcome::Finished(r) = cpu.run_for(&mut stream, ckpt_steps) {
            // The checkpoint lands past the end of this run; the finished
            // result is already the unsliced one.
            return Prepared::Finished(Box::new(r));
        }
        // Serialize the paused machine and its stream, drop the live
        // objects, and rebuild both from the bytes alone (plus the run
        // identity, exactly as the snapshot container does).
        let mut w = ByteWriter::new();
        cpu.save(&mut w);
        match &stream {
            GoldenStream::Live(g) => g.save(&mut w),
            GoldenStream::Traced(c) => w.put_u64(c.position()),
        }
        let bytes = w.into_vec();
        drop(cpu);
        drop(stream);

        let mut r = ByteReader::new(&bytes);
        cpu = McdProcessor::load(&mut r, cfg, make_ctrl()).expect("golden checkpoint restores");
        stream = match &trace {
            Some(t) => {
                let mut cursor = t.cursor();
                let pos = r.u64().expect("trace cursor position present");
                assert!(cursor.seek(pos), "trace cursor position out of range");
                GoldenStream::Traced(cursor)
            }
            None => GoldenStream::Live(
                WorkloadGenerator::load(&mut r, &spec, 42, insts).expect("generator restores"),
            ),
        };
        r.finish().expect("no trailing checkpoint bytes");
    }

    Prepared::Ready(Box::new(cpu), stream)
}

fn dump(
    name: &str,
    bench: Benchmark,
    insts: u64,
    cfg: SimConfig,
    make_ctrl: &dyn Fn() -> Box<dyn FrequencyController>,
) {
    match prepare(bench, insts, cfg, make_ctrl) {
        Prepared::Finished(r) => print_result(name, &r),
        Prepared::Ready(mut cpu, stream) => {
            let r = run_to_completion(&mut cpu, stream);
            print_result(name, &r);
        }
    }
}

fn print_result(name: &str, r: &SimResult) {
    println!(
        "{name}: committed={} fe_cycles={} elapsed_ps={} energy={:?} mem={} redirects={} freqs={:?}",
        r.committed_instructions,
        r.frontend_cycles,
        r.elapsed_ps,
        r.chip_energy(),
        r.memory_accesses,
        r.mispredict_redirects,
        r.avg_domain_freq_mhz,
    );
    for iv in &r.intervals {
        println!(
            "  interval {} committed={} ipc={:?} freqs={:?}",
            iv.interval,
            iv.committed,
            iv.ipc,
            iv.domains.iter().map(|d| d.freq_mhz).collect::<Vec<_>>()
        );
    }
}

fn main() {
    for (name, b) in [
        ("gzip", Benchmark::Gzip),
        ("swim", Benchmark::Swim),
        ("mcf", Benchmark::Mcf),
    ] {
        dump(name, b, 20_000, SimConfig::baseline_mcd(20_000), &|| {
            Box::new(FixedController::at_max())
        });
        dump(
            &format!("{name}_sync"),
            b,
            20_000,
            SimConfig::fully_synchronous(20_000),
            &|| Box::new(FixedController::at_max()),
        );
        // The Attack/Decay run has its own budget and trace recording.
        let mut cfg = SimConfig::baseline_mcd(60_000);
        cfg.record_traces = true;
        let table = OperatingPointTable::from_params(&cfg.clock);
        dump(&format!("{name}_ad"), b, 60_000, cfg, &|| {
            Box::new(AttackDecayController::new(
                AttackDecayParams::paper_defaults(),
                &table,
            ))
        });
    }
}
