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
//! Every run replays a cursor over a materialized
//! [`mcd::workloads::SharedTrace`], the stream the experiment engine's
//! runs consume.  The default-mode output is committed as
//! `tests/golden/golden_dump.txt`; CI diffs every mode below against it.
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
//! **Checkpoint mode:** setting `MCD_GOLDEN_CKPT=<kernel steps>` pauses
//! every run after that many steps, serializes the machine *and* its
//! trace position with the snapshot codec, drops the live objects,
//! restores from the bytes, and runs the restored machine to completion.
//! The output must be byte-identical to the default mode — this is how
//! the golden matrix certifies checkpoint/restore bit-identity, alone
//! and combined with the sliced mode:
//!
//! ```sh
//! MCD_GOLDEN_CKPT=20000 cargo run --release --example golden_dump > ckpt.txt
//! diff unsliced.txt ckpt.txt        # any output = a restore changed behaviour
//! ```

use mcd::clock::OperatingPointTable;
use mcd::control::{
    AttackDecayController, AttackDecayParams, FixedController, FrequencyController,
};
use mcd::isa::InstructionStream;
use mcd::sim::{McdProcessor, SimConfig, SimResult, StepOutcome};
use mcd::workloads::{Benchmark, SharedTrace, TraceCursor};
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
    Ready(Box<McdProcessor>, TraceCursor),
}

fn prepare(
    bench: Benchmark,
    insts: u64,
    cfg: SimConfig,
    make_ctrl: &dyn Fn() -> Box<dyn FrequencyController>,
) -> Prepared {
    let trace = Arc::new(SharedTrace::materialize(&bench.spec(), 42, insts));
    let mut stream = trace.cursor();
    let mut cpu = McdProcessor::new(cfg.clone(), make_ctrl());

    if let Some(ckpt_steps) = golden_ckpt() {
        if let StepOutcome::Finished(r) = cpu.run_for(&mut stream, ckpt_steps) {
            // The checkpoint lands past the end of this run; the finished
            // result is already the unsliced one.
            return Prepared::Finished(Box::new(r));
        }
        // Serialize the paused machine and its trace position, drop the
        // live objects, and rebuild both from the bytes alone (plus the
        // run identity, exactly as the snapshot container does).
        let mut w = ByteWriter::new();
        cpu.save(&mut w);
        w.put_u64(stream.position());
        let bytes = w.into_vec();
        drop(cpu);
        drop(stream);

        let mut r = ByteReader::new(&bytes);
        cpu = McdProcessor::load(&mut r, cfg, make_ctrl()).expect("golden checkpoint restores");
        stream = trace.cursor();
        let pos = r.u64().expect("trace cursor position present");
        assert!(stream.seek(pos), "trace cursor position out of range");
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
