//! Fixed reference workloads that time the host, not the program.
//!
//! The benchmark runs on a few cores of a shared host whose speed
//! drifts by tens of percent within minutes, and at times jumps by more
//! than half, as neighbours load the shared caches, memory and sibling
//! hyperthreads.  Hardware counters are not available there, so a
//! host-speed-independent time is made instead: after every timed call
//! the benchmark runs a reference workload that lives in this crate, so
//! that no change to the program can make it faster or slower.  A call's
//! host time divided by the mean of the reference times just before and
//! just after it is its cost in reference units; times the reference's
//! nominal seconds it reads as seconds on a host where the reference
//! takes exactly that long.
//!
//! Contention slows code by how it uses the machine, so there are two
//! references, each resembling what it times (measured on a 2-vCPU
//! shared host: a memory-heavy reference did not follow the jumps of
//! sub-microsecond engine construction, the small-allocation one did):
//!
//! - [`Reference::mixed`], for calls into the simulator: building and
//!   chasing a random pointer cycle over a fresh 4 MB table, an event
//!   queue and a balanced tree, with unpredictable branches; run on as
//!   many threads as the timed calls use.  The table is fresh on every
//!   run: with one table kept for the whole process (and the chase
//!   given more weight), normalized times spread more from process to
//!   process than raw ones did.
//! - [`Reference::micro`], for set-ups that take microseconds: small
//!   allocations, a lock and environment lookups.

use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::derive;

/// Entries of the pointer-chasing table (4 bytes each: 4 MB).
const TABLE_LEN: usize = 1 << 20;

/// Rounds of the mixed reference work per run of it.
const ROUNDS: usize = 6;

/// Pointer-chase steps per round.
const CHASE_STEPS: usize = 100_000;

/// Event-queue and tree operations per round.
const QUEUE_OPS: u64 = 60_000;

/// Iterations of the micro reference work per run of it.
const MICRO_ITERATIONS: usize = 10_000;

fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

/// The mixed reference work, single-threaded.  Returns a checksum so
/// the work cannot be optimized away.
pub fn mixed_work() -> u64 {
    let mut rng = 0x9e37_79b9_7f4a_7c15_u64;
    // A random single-cycle permutation: every load depends on the last.
    let mut order: Vec<u32> = (0..TABLE_LEN as u32).collect();
    for i in (1..TABLE_LEN).rev() {
        let j = (xorshift(&mut rng) % i as u64) as usize;
        order.swap(i, j);
    }
    let mut next = vec![0u32; TABLE_LEN];
    for w in 0..TABLE_LEN {
        next[order[w] as usize] = order[(w + 1) % TABLE_LEN];
    }
    let mut sum = 0u64;
    for _ in 0..ROUNDS {
        let mut at = (xorshift(&mut rng) % TABLE_LEN as u64) as u32;
        for _ in 0..CHASE_STEPS {
            at = next[at as usize];
            sum = sum.wrapping_add(u64::from(at));
        }
        let mut queue = BinaryHeap::new();
        let mut tree = BTreeMap::new();
        for i in 0..QUEUE_OPS {
            let r = xorshift(&mut rng);
            queue.push(std::cmp::Reverse(r % 4096 + i));
            if r & 3 != 0 {
                if let Some(std::cmp::Reverse(t)) = queue.pop() {
                    sum = sum.wrapping_add(t);
                }
            }
            let key = r % 8192;
            if r & 0x10 == 0 {
                *tree.entry(key).or_insert(0u64) += 1;
            } else if let Some(v) = tree.remove(&key) {
                sum = sum.wrapping_add(v);
            }
        }
    }
    black_box(sum)
}

/// The micro reference work: what a cheap constructor does (look up
/// settings in the environment, allocate a few small shared objects,
/// take a lock), repeated.  Returns a checksum.
pub fn micro_work() -> u64 {
    let mut sum = 0u64;
    for i in 0..MICRO_ITERATIONS as u64 {
        sum += u64::from(std::env::var_os("PERFBENCH_REFERENCE_UNSET").is_some());
        sum += u64::from(std::env::var_os("PERFBENCH_REFERENCE_UNSET_TOO").is_some());
        let shared: Arc<Mutex<BTreeMap<u64, u64>>> = Arc::default();
        shared.lock().expect("fresh lock").insert(i, i);
        sum += black_box(shared).lock().expect("fresh lock").len() as u64;
        sum += black_box(vec![i; 8]).len() as u64;
    }
    black_box(sum)
}

/// A reference workload and the host seconds it is scaled to.
#[derive(Debug, Clone, Copy)]
pub struct Reference {
    work: fn() -> u64,
    /// The host seconds the reference is scaled to: a normalized time
    /// of `t` seconds means the call took `t / nominal_s` times as long
    /// as the reference on the same host at the same moment.
    pub nominal_s: f64,
    threads: usize,
}

impl Reference {
    /// [`mixed_work`] on `threads` threads at once, scaled to 0.1 s.
    pub fn mixed(threads: usize) -> Reference {
        Reference {
            work: mixed_work,
            nominal_s: 0.1,
            threads: threads.max(1),
        }
    }

    /// [`micro_work`] on one thread, scaled to 3 ms.
    pub fn micro() -> Reference {
        Reference {
            work: micro_work,
            nominal_s: 0.003,
            threads: 1,
        }
    }

    /// Host seconds of one run of the work on each thread: the mean of
    /// the threads' own times, which is steadier than the slowest one.
    pub fn seconds(&self) -> f64 {
        let work = self.work;
        let once = move || {
            let start = Instant::now();
            black_box(work());
            start.elapsed().as_secs_f64()
        };
        if self.threads == 1 {
            return once();
        }
        let times: Vec<f64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..self.threads).map(|_| s.spawn(once)).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("reference thread finishes"))
                .collect()
        });
        times.iter().sum::<f64>() / times.len() as f64
    }

    /// `raw` host seconds measured while this reference took
    /// `reference_s` host seconds, as seconds at the nominal speed.
    pub fn normalize(&self, raw: f64, reference_s: f64) -> f64 {
        raw / reference_s * self.nominal_s
    }
}

/// One timed call: its host seconds, its normalized seconds and the
/// process's peak resident set size while it ran.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Sample {
    /// Host seconds.
    pub raw: f64,
    /// Host seconds scaled to the reference speed (equal to `raw` on a
    /// raw clock).
    pub norm: f64,
    /// Peak resident set size during the call, in MB.
    pub peak_mb: f64,
}

impl Sample {
    /// The sample of one of `n` equal calls timed together.
    pub fn per(self, n: usize) -> Sample {
        Sample {
            raw: self.raw / n as f64,
            norm: self.norm / n as f64,
            peak_mb: self.peak_mb,
        }
    }
}

/// Times calls, normalizing each by a reference run just before and
/// just after it.
#[derive(Debug)]
pub struct Clock {
    /// `None` for a raw clock that runs no reference.
    reference: Option<Reference>,
    /// Reference seconds measured after the previous call.
    last: f64,
}

impl Clock {
    /// A normalizing clock; runs the reference once to start.
    pub fn new(reference: Reference) -> Clock {
        Clock {
            reference: Some(reference),
            last: reference.seconds(),
        }
    }

    /// A clock that runs no reference work: `norm` equals `raw`.  For
    /// traced runs, whose spans should cover the program's calls only.
    pub fn raw() -> Clock {
        Clock {
            reference: None,
            last: 0.0,
        }
    }

    /// Runs `f` and times it.  The peak resident set size is taken
    /// before the reference work runs, so it is `f`'s alone.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> (R, Sample) {
        derive::reset_peak_rss();
        let start = Instant::now();
        let out = f();
        let raw = start.elapsed().as_secs_f64();
        let peak_mb = derive::peak_rss_mb();
        let norm = match &self.reference {
            None => raw,
            Some(reference) => {
                let after = reference.seconds();
                let around = (self.last + after) / 2.0;
                self.last = after;
                reference.normalize(raw, around)
            }
        };
        (out, Sample { raw, norm, peak_mb })
    }
}
