//! Jittered per-domain clock generation.
//!
//! Section 4 of the paper: "we account for the fact that the clocks driving
//! each domain are independent by modeling independent jitter on a
//! cycle-by-cycle basis.  Our model assumes a normal distribution of jitter
//! with a mean of zero [sigma 110 ps].  Initially, all clock starting times
//! are randomized.  To determine the time of the next clock pulse in a
//! domain, the domain cycle time is added to the starting time, and the
//! jitter for that cycle is obtained from the distribution and added to
//! this sum."
//!
//! [`DomainClock`] reproduces that scheme: it tracks the absolute time of
//! the next rising edge of one domain, adding the (possibly ramping) period
//! plus a per-edge jitter sample on every advance.

use std::f64::consts::{FRAC_PI_2, LN_2};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::codec::{ByteReader, ByteWriter, Result as CodecResult};
use serde::{Deserialize, Serialize};

use crate::domain::DomainId;
use crate::ramp::FrequencyRamp;
use crate::{MegaHertz, TimePs};

/// Number of standard-normal variates generated per refill of the jitter
/// buffer.  Must be even: Box–Muller produces samples in pairs.
const JITTER_BATCH: usize = 64;

/// A batch whose clamped jitter lies within this distance (ps) of a
/// rounding tie is recomputed with the exact libm expression.
const TIE_GUARD_PS: f64 = 1e-6;

/// Largest sigma the integer offsets are trusted for: it bounds the
/// approximation error to ~1e-8 ps and keeps `period + jitter` inside
/// 2^32, where the f64 add errs by at most 2^-21 ps.  Larger sigmas
/// take the exact path on every edge.
const MAX_FAST_SIGMA_PS: f64 = (1u64 << 20) as f64;

/// Largest period the integer add is trusted for (see
/// [`MAX_FAST_SIGMA_PS`]); longer periods take the exact path.
const MAX_FAST_PERIOD_PS: TimePs = 1 << 31;

/// Taylor coefficients of `atanh(s) / s` in powers of `s²` (to `s²⁰`).
const ATANH: [f64; 11] = [
    1.0,
    1.0 / 3.0,
    1.0 / 5.0,
    1.0 / 7.0,
    1.0 / 9.0,
    1.0 / 11.0,
    1.0 / 13.0,
    1.0 / 15.0,
    1.0 / 17.0,
    1.0 / 19.0,
    1.0 / 21.0,
];

/// Taylor coefficients of `sin(x) / x` in powers of `x²` (to `x¹⁴`).
const SIN: [f64; 8] = [
    1.0,
    -1.0 / 6.0,
    1.0 / 120.0,
    -1.0 / 5_040.0,
    1.0 / 362_880.0,
    -1.0 / 39_916_800.0,
    1.0 / 6_227_020_800.0,
    -1.0 / 1_307_674_368_000.0,
];

/// Taylor coefficients of `cos(x)` in powers of `x²` (to `x¹⁶`).
const COS: [f64; 9] = [
    1.0,
    -1.0 / 2.0,
    1.0 / 24.0,
    -1.0 / 720.0,
    1.0 / 40_320.0,
    -1.0 / 3_628_800.0,
    1.0 / 479_001_600.0,
    -1.0 / 87_178_291_200.0,
    1.0 / 20_922_789_888_000.0,
];

#[inline(always)]
fn horner<const N: usize>(x: f64, coeffs: &[f64; N]) -> f64 {
    coeffs.iter().rev().fold(0.0, |acc, &c| acc * x + c)
}

/// `ln(x)` for a normal positive `x`: the exponent split puts the
/// mantissa `m` in `[√½, √2)`, then `ln m = 2·atanh((m-1)/(m+1))`.
#[inline(always)]
fn ln_approx(x: f64) -> f64 {
    let bits = x.to_bits();
    // Re-bias the high word so the mantissa lands in [√½, √2).
    let hx = (bits >> 32) as u32 + (0x3ff0_0000 - 0x3fe6_a09e);
    let k = f64::from((hx >> 20) as i32 - 0x3ff);
    let m =
        f64::from_bits((u64::from((hx & 0x000f_ffff) + 0x3fe6_a09e) << 32) | (bits & 0xffff_ffff));
    let s = (m - 1.0) / (m + 1.0);
    k * LN_2 + 2.0 * s * horner(s * s, &ATANH)
}

/// `(sin, cos)` of `2π·u` for `u` in `[0, 1)`: reduce `4u` to the
/// nearest quarter turn `q` plus `|x| ≤ π/4`, evaluate both series at
/// `x`, then rotate by `q` with bit masks instead of a branch.
#[inline(always)]
fn sincos_turns(u: f64) -> (f64, f64) {
    let t = 4.0 * u;
    let q = (t + 0.5) as i32;
    let x = (t - f64::from(q)) * FRAC_PI_2;
    let x2 = x * x;
    let (sin_x, cos_x) = ((x * horner(x2, &SIN)).to_bits(), horner(x2, &COS).to_bits());
    // Odd quarter turns swap sine and cosine; quarter turns 2–3 negate
    // the sine, 1–2 the cosine.
    let q = q as u64;
    let swap = (q & 1).wrapping_neg();
    let sin = (sin_x & !swap) | (cos_x & swap);
    let cos = (cos_x & !swap) | (sin_x & swap);
    (
        f64::from_bits(sin ^ ((q >> 1) & 1) << 63),
        f64::from_bits(cos ^ (((q + 1) >> 1) & 1) << 63),
    )
}

/// One batch of standard-normal variates with libm Box–Muller: the
/// reference the fast refill must reproduce, and the buffer a snapshot
/// records.  Draws `JITTER_BATCH / 2` uniform pairs from `rng`.
fn reference_normals(rng: &mut StdRng) -> [f64; JITTER_BATCH] {
    let mut buf = [0.0; JITTER_BATCH];
    for pair in buf.chunks_exact_mut(2) {
        let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        pair[0] = r * theta.cos();
        pair[1] = r * theta.sin();
    }
    buf
}

/// Zero-mean normal jitter source (Box–Muller over the platform PRNG),
/// delivered as whole-picosecond clock-period deltas.
///
/// Samples are clamped to plus/minus three standard deviations so that a
/// pathological draw can never produce a non-causal (negative-period) edge.
/// The reference delta for an edge of period `p` is
/// `round(max(p + clamp(σz, ±3σ), 1))` with `z` from libm Box–Muller,
/// drawn pair by pair (cosine first, sine second).
///
/// The hot path never evaluates that expression.  A refill draws the
/// same 64 uniforms in the same order, but evaluates `ln` and `sincos`
/// with branch-free polynomials (relative error under 1e-15, so under
/// 1e-11 ps at the paper's σ = 110 ps) and rounds each clamped sample,
/// half away from zero, to an integer offset.  An edge is then the
/// integer add `max(p + offset, 1)`.  Both forms round to the same
/// integer unless the sample lies at a `.5` tie, so any batch holding a
/// sample within `TIE_GUARD_PS` (1e-6 ps) of a tie is recomputed with
/// libm and served by the reference expression, as are sigmas above
/// `MAX_FAST_SIGMA_PS` and periods above `MAX_FAST_PERIOD_PS`.  The
/// delta stream is therefore bit-identical to the reference — locked in
/// by `integer_deltas_match_one_at_a_time_reference`.
///
/// The snapshot records the exact libm variates of the current batch:
/// `save` regenerates them from the RNG state captured at batch start,
/// so the encoding does not depend on which path served the batch.  A sigma of zero bypasses the PRNG and the
/// buffer entirely.
#[derive(Debug, Clone)]
pub struct JitterModel {
    sigma_ps: f64,
    rng: StdRng,
    /// PRNG state before the current batch was drawn.
    batch_rng: StdRng,
    /// Integer jitter of the current batch (unused while `exact`).
    offsets: [i32; JITTER_BATCH],
    /// Exact libm variates of the current batch, valid while `exact`.
    normals: [f64; JITTER_BATCH],
    /// Serve the current batch by the reference expression over
    /// `normals`: set for near-tie batches and for a batch restored
    /// from a snapshot.
    exact: bool,
    /// Index of the next unconsumed sample (`JITTER_BATCH` = empty).
    pos: usize,
}

impl JitterModel {
    /// Creates a jitter model with the given standard deviation (in
    /// picoseconds) and RNG seed.  A sigma of zero disables jitter.
    pub fn new(sigma_ps: f64, seed: u64) -> Self {
        assert!(sigma_ps >= 0.0, "jitter sigma must be non-negative");
        let rng = StdRng::seed_from_u64(seed);
        JitterModel {
            sigma_ps,
            batch_rng: rng.clone(),
            rng,
            offsets: [0; JITTER_BATCH],
            normals: [0.0; JITTER_BATCH],
            exact: true,
            pos: JITTER_BATCH,
        }
    }

    /// The configured standard deviation in picoseconds.
    pub fn sigma_ps(&self) -> f64 {
        self.sigma_ps
    }

    /// Draws the next batch and rounds it to integer offsets, falling
    /// back to the exact libm batch when a sample lies near a tie.
    #[cold]
    fn refill(&mut self) {
        const PAIRS: usize = JITTER_BATCH / 2;
        self.batch_rng = self.rng.clone();
        let mut u1 = [0.0; PAIRS];
        let mut u2 = [0.0; PAIRS];
        for (a, b) in u1.iter_mut().zip(&mut u2) {
            *a = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
            *b = self.rng.gen_range(0.0..1.0);
        }
        let mut cos = [0.0; PAIRS];
        let mut sin = [0.0; PAIRS];
        for k in 0..PAIRS {
            let r = (-2.0 * ln_approx(u1[k])).sqrt();
            let (s, c) = sincos_turns(u2[k]);
            cos[k] = r * c;
            sin[k] = r * s;
        }
        let sigma = self.sigma_ps;
        let (lo, hi) = (-3.0 * sigma, 3.0 * sigma);
        let mut near_tie = false;
        for (k, pair) in self.offsets.chunks_exact_mut(2).enumerate() {
            for (slot, z) in pair.iter_mut().zip([cos[k], sin[k]]) {
                let j = (z * sigma).max(lo).min(hi);
                let offset = (j + 0.5f64.copysign(j)) as i32;
                near_tie |= (j - f64::from(offset)).abs() > 0.5 - TIE_GUARD_PS;
                *slot = offset;
            }
        }
        self.exact = near_tie || sigma > MAX_FAST_SIGMA_PS;
        if self.exact {
            self.normals = reference_normals(&mut self.batch_rng.clone());
        }
        self.pos = 0;
    }

    /// Consumes one jitter sample and returns the delta from this edge
    /// to the next for a clock of nominal period `period` (ps): the
    /// jittered period rounded to whole picoseconds, at least 1.
    #[inline]
    pub fn delta_ps(&mut self, period: TimePs) -> TimePs {
        if self.sigma_ps == 0.0 {
            // Jitter disabled: never touch the RNG.
            return period.max(1);
        }
        if self.pos == JITTER_BATCH {
            self.refill();
        }
        let i = self.pos;
        self.pos += 1;
        if self.exact || period > MAX_FAST_PERIOD_PS {
            return self.exact_delta_ps(i, period);
        }
        (period as i64 + i64::from(self.offsets[i])).max(1) as TimePs
    }

    /// The reference delta of sample `i`, materializing the exact batch
    /// first if the fast one was in use.
    #[cold]
    fn exact_delta_ps(&mut self, i: usize, period: TimePs) -> TimePs {
        if !self.exact {
            self.normals = reference_normals(&mut self.batch_rng.clone());
            self.exact = true;
        }
        let sigma = self.sigma_ps;
        let j = (self.normals[i] * sigma).clamp(-3.0 * sigma, 3.0 * sigma);
        (period as f64 + j).max(1.0).round() as TimePs
    }

    /// Serializes the jitter source, including the PRNG state and the
    /// exact variates of the current batch, so the per-edge jitter stream
    /// resumes bit-identically after a restore.
    pub fn save(&self, w: &mut ByteWriter) {
        w.put_f64(self.sigma_ps);
        for word in self.rng.state() {
            w.put_u64(word);
        }
        let normals = if self.exact {
            self.normals
        } else {
            reference_normals(&mut self.batch_rng.clone())
        };
        for v in normals {
            w.put_f64(v);
        }
        w.put_usize(self.pos);
    }

    /// Rebuilds a jitter source from [`JitterModel::save`] output.  The
    /// rest of the restored batch is served exactly from the recorded
    /// variates; the next refill returns to integer offsets.
    ///
    /// # Errors
    ///
    /// Returns a decode error if the stream is truncated, the sigma is
    /// negative or NaN, or the buffer cursor is out of range.
    pub fn load(r: &mut ByteReader<'_>) -> CodecResult<Self> {
        let sigma_ps = r.f64()?;
        // Checked like `new` does (NaN included): the clamp bounds of the
        // exact path must be ordered.
        if sigma_ps.is_nan() || sigma_ps < 0.0 {
            return Err(serde::codec::CodecError::BadTag {
                what: "jitter sigma",
                got: sigma_ps.to_bits(),
            });
        }
        let mut state = [0u64; 4];
        for word in &mut state {
            *word = r.u64()?;
        }
        let rng = StdRng::from_state(state);
        let mut normals = [0.0; JITTER_BATCH];
        for v in &mut normals {
            *v = r.f64()?;
        }
        let pos = r.usize()?;
        if pos > JITTER_BATCH {
            return Err(serde::codec::CodecError::BadTag {
                what: "jitter buffer cursor",
                got: pos as u64,
            });
        }
        Ok(JitterModel {
            sigma_ps,
            batch_rng: rng.clone(),
            rng,
            offsets: [0; JITTER_BATCH],
            normals,
            exact: true,
            pos,
        })
    }
}

/// The clock generator of one domain.
///
/// The clock owns a [`FrequencyRamp`] describing its instantaneous
/// frequency and a [`JitterModel`]; it exposes the absolute time of its
/// next rising edge and advances edge by edge.
///
/// ```
/// use mcd_clock::{DomainClock, DomainId};
///
/// let mut clk = DomainClock::new(DomainId::Integer, 1000.0, 49.1, 0.0, 7);
/// let first = clk.next_edge_ps();
/// clk.advance();
/// assert_eq!(clk.next_edge_ps(), first + 1000); // 1 GHz -> 1000 ps period
/// assert_eq!(clk.cycles(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct DomainClock {
    domain: DomainId,
    ramp: FrequencyRamp,
    jitter: JitterModel,
    next_edge_ps: TimePs,
    cycles: u64,
    /// Absolute time at which the in-flight ramp settles; edges at or
    /// after this time run at exactly the target frequency, letting the
    /// per-edge hot path skip the ramp evaluation entirely.
    settle_ps: TimePs,
    /// Period at the target frequency (valid once settled).
    settled_period_ps: TimePs,
    /// Target frequency (cached copy of `ramp.target()`).
    settled_freq_mhz: MegaHertz,
}

/// Serializable snapshot of a clock's externally visible state (used in
/// telemetry traces).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ClockSnapshot {
    /// Domain this snapshot belongs to.
    pub domain: DomainId,
    /// Instantaneous frequency in MHz.
    pub freq_mhz: MegaHertz,
    /// Total edges generated so far.
    pub cycles: u64,
    /// Absolute time of the next edge.
    pub next_edge_ps: TimePs,
}

impl DomainClock {
    /// Creates a clock running at `freq_mhz` with the given slew rate and
    /// jitter.  The first edge is placed at a randomized phase within one
    /// period (paper: "initially, all clock starting times are randomized"),
    /// derived deterministically from `seed`.
    pub fn new(
        domain: DomainId,
        freq_mhz: MegaHertz,
        rate_ns_per_mhz: f64,
        jitter_sigma_ps: f64,
        seed: u64,
    ) -> Self {
        let ramp = FrequencyRamp::new(freq_mhz, rate_ns_per_mhz);
        let mut phase_rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
        let period = crate::freq_mhz_to_period_ps(freq_mhz);
        let phase: TimePs = phase_rng.gen_range(0..period.max(1));
        DomainClock {
            domain,
            ramp,
            jitter: JitterModel::new(jitter_sigma_ps, seed),
            next_edge_ps: phase,
            cycles: 0,
            settle_ps: 0,
            settled_period_ps: period,
            settled_freq_mhz: freq_mhz,
        }
    }

    /// The domain this clock drives.
    pub fn domain(&self) -> DomainId {
        self.domain
    }

    /// Absolute time of the next rising edge.
    pub fn next_edge_ps(&self) -> TimePs {
        self.next_edge_ps
    }

    /// Number of edges generated so far.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Instantaneous frequency at the time of the next edge.
    #[inline]
    pub fn current_freq_mhz(&self) -> MegaHertz {
        if self.next_edge_ps >= self.settle_ps {
            // Ramp settled: the frequency is exactly the target.
            self.settled_freq_mhz
        } else {
            self.ramp.freq_at(self.next_edge_ps)
        }
    }

    /// The target frequency of the in-flight (or completed) transition.
    pub fn target_freq_mhz(&self) -> MegaHertz {
        self.ramp.target()
    }

    /// Whether a frequency transition is still in flight.
    pub fn is_ramping(&self) -> bool {
        self.ramp.is_ramping(self.next_edge_ps)
    }

    /// The current clock period in picoseconds (no jitter applied).
    #[inline]
    pub fn current_period_ps(&self) -> TimePs {
        if self.next_edge_ps >= self.settle_ps {
            // Ramp settled: constant period, no float math on the hot path.
            self.settled_period_ps
        } else {
            crate::freq_mhz_to_period_ps(self.ramp.freq_at(self.next_edge_ps))
        }
    }

    /// Requests a frequency change toward `target_mhz`, starting at the
    /// time of the next edge (the controller acts on interval boundaries).
    pub fn set_target_freq(&mut self, target_mhz: MegaHertz) {
        self.ramp.set_target(target_mhz, self.next_edge_ps);
        self.settle_ps = self.ramp.settle_time_ps();
        self.settled_freq_mhz = target_mhz;
        self.settled_period_ps = crate::freq_mhz_to_period_ps(target_mhz);
    }

    /// Consumes the pending edge and schedules the following one: the next
    /// edge time is the current edge plus the instantaneous period plus a
    /// jitter sample.  Returns the time of the edge that was consumed.
    #[inline]
    pub fn advance(&mut self) -> TimePs {
        let this_edge = self.next_edge_ps;
        // The delta is at least 1 ps, so the next edge is strictly after
        // the current one.
        let delta = self.jitter.delta_ps(self.current_period_ps());
        self.next_edge_ps = this_edge + delta;
        self.cycles += 1;
        this_edge
    }

    /// Serializes the full clock state (ramp, jitter source, edge schedule)
    /// for checkpointing.
    pub fn save(&self, w: &mut ByteWriter) {
        w.put_u8(self.domain.index() as u8);
        self.ramp.save(w);
        self.jitter.save(w);
        w.put_u64(self.next_edge_ps);
        w.put_u64(self.cycles);
        w.put_u64(self.settle_ps);
        w.put_u64(self.settled_period_ps);
        w.put_f64(self.settled_freq_mhz);
    }

    /// Rebuilds a clock from [`DomainClock::save`] output.
    ///
    /// # Errors
    ///
    /// Returns a decode error if the stream is truncated or the domain
    /// index is invalid.
    pub fn load(r: &mut ByteReader<'_>) -> CodecResult<Self> {
        let idx = r.u8()?;
        if usize::from(idx) >= DomainId::ALL.len() {
            return Err(serde::codec::CodecError::BadTag {
                what: "domain index",
                got: u64::from(idx),
            });
        }
        Ok(DomainClock {
            domain: DomainId::from_index(usize::from(idx)),
            ramp: FrequencyRamp::load(r)?,
            jitter: JitterModel::load(r)?,
            next_edge_ps: r.u64()?,
            cycles: r.u64()?,
            settle_ps: r.u64()?,
            settled_period_ps: r.u64()?,
            settled_freq_mhz: r.f64()?,
        })
    }

    /// A serializable snapshot of the clock state.
    pub fn snapshot(&self) -> ClockSnapshot {
        ClockSnapshot {
            domain: self.domain,
            freq_mhz: self.current_freq_mhz(),
            cycles: self.cycles,
            next_edge_ps: self.next_edge_ps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference implementation of the historical one-at-a-time sampler
    /// (libm Box–Muller with an `Option<f64>` spare cache) and of the
    /// historical per-edge delta `round(max(period + jitter, 1))`.  The
    /// integer offsets must reproduce its deltas exactly.
    struct OneAtATimeReference {
        sigma_ps: f64,
        rng: StdRng,
        spare: Option<f64>,
    }

    impl OneAtATimeReference {
        fn new(sigma_ps: f64, seed: u64) -> Self {
            OneAtATimeReference {
                sigma_ps,
                rng: StdRng::seed_from_u64(seed),
                spare: None,
            }
        }

        fn sample_ps(&mut self) -> f64 {
            if self.sigma_ps == 0.0 {
                return 0.0;
            }
            let z = match self.spare.take() {
                Some(z) => z,
                None => {
                    let u1: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
                    let u2: f64 = self.rng.gen_range(0.0..1.0);
                    let r = (-2.0 * u1.ln()).sqrt();
                    let theta = 2.0 * std::f64::consts::PI * u2;
                    self.spare = Some(r * theta.sin());
                    r * theta.cos()
                }
            };
            (z * self.sigma_ps).clamp(-3.0 * self.sigma_ps, 3.0 * self.sigma_ps)
        }

        fn delta_ps(&mut self, period: TimePs) -> TimePs {
            (period as f64 + self.sample_ps()).max(1.0).round() as TimePs
        }
    }

    /// Sigmas covering the paper's 110 ps, tiny and large spreads, and
    /// 55.5 ps, whose 3-sigma clamp (166.5 ps) is itself a rounding tie.
    const SIGMAS: [f64; 5] = [110.0, 1.0, 55.5, 330.0, 0.37];
    /// Periods including 1 and 3 ps, where `max(.., 1)` binds.
    const PERIODS: [TimePs; 6] = [1, 3, 1000, 1234, 2500, 4000];

    fn assert_deltas_match_reference(seeds: &[u64], draws: usize) {
        for &seed in seeds {
            for sigma in SIGMAS {
                for period in PERIODS {
                    let mut fast = JitterModel::new(sigma, seed);
                    let mut reference = OneAtATimeReference::new(sigma, seed);
                    for i in 0..draws {
                        let f = fast.delta_ps(period);
                        let r = reference.delta_ps(period);
                        assert!(
                            f == r,
                            "seed {seed} sigma {sigma} period {period} draw {i}: {f} != {r}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn integer_deltas_match_one_at_a_time_reference() {
        // 5 seeds x 5 sigmas x 6 periods x 8 000 draws = 1.2 million
        // deltas, crossing many refill boundaries (the batch size is 64).
        assert_deltas_match_reference(&[0, 1, 7, 42, 0xdead_beef], 8_000);
    }

    /// The same contract over 6 x 5 x 6 x 560 000 ≈ 1.01e8 deltas.  Run
    /// with `cargo test --release -p mcd-clock -- --ignored`.
    #[test]
    #[ignore = "exhaustive: ~1e8 draws, run in release"]
    fn integer_deltas_match_reference_exhaustively() {
        assert_deltas_match_reference(&[3, 11, 99, 2024, 0x5eed, u64::MAX], 560_000);
    }

    #[test]
    fn delta_stream_follows_the_period_mid_batch() {
        // A ramping clock changes its period edge by edge, across the
        // fast/exact period limit too.
        let periods = [1000, 997, 2, 1_500, MAX_FAST_PERIOD_PS + 1, 4000, 1];
        let mut fast = JitterModel::new(110.0, 5);
        let mut reference = OneAtATimeReference::new(110.0, 5);
        for i in 0..20_000 {
            let period = periods[i % periods.len()] + (i as TimePs % 17);
            assert_eq!(
                fast.delta_ps(period),
                reference.delta_ps(period),
                "draw {i}"
            );
        }
    }

    #[test]
    fn polynomial_normals_track_libm() {
        let mut rng = StdRng::seed_from_u64(77);
        let mut worst = 0.0f64;
        for _ in 0..100_000 {
            let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            let u2: f64 = rng.gen_range(0.0..1.0);
            let r_fast = (-2.0 * ln_approx(u1)).sqrt();
            let (sin, cos) = sincos_turns(u2);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f64::consts::PI * u2;
            worst = worst
                .max((r_fast * cos - r * theta.cos()).abs())
                .max((r_fast * sin - r * theta.sin()).abs());
        }
        // At sigma = 110 ps this is under 1e-11 ps, far inside the guard.
        assert!(worst < 5e-14, "worst variate error {worst:e}");
        for u1 in [f64::MIN_POSITIVE, 1e-300, 0.5, 1.0 - f64::EPSILON / 2.0] {
            let err = (ln_approx(u1) - u1.ln()).abs();
            assert!(err <= 1e-15 * u1.ln().abs(), "ln({u1:e}) off by {err:e}");
        }
    }

    #[test]
    fn near_tie_batches_fall_back_to_the_exact_expression() {
        // Search seeds for a refill at sigma = 110 ps whose clamped
        // jitter lies within the guard of a .5 tie.
        let found = (0..64u64).find_map(|seed| {
            let mut fast = JitterModel::new(110.0, seed);
            let mut reference = OneAtATimeReference::new(110.0, seed);
            for _ in 0..40_000 {
                let batch_start = fast.pos == JITTER_BATCH;
                let (f, r) = (fast.delta_ps(1000), reference.delta_ps(1000));
                assert_eq!(f, r, "seed {seed}");
                if batch_start && fast.exact {
                    return Some((seed, fast, reference));
                }
            }
            None
        });
        let (seed, mut fast, mut reference) = found.expect("a near-tie batch within 64 seeds");
        let near = fast.normals.iter().any(|z| {
            let j = (z * 110.0).clamp(-330.0, 330.0);
            ((j - j.floor()) - 0.5).abs() < TIE_GUARD_PS
        });
        assert!(
            near,
            "seed {seed}: the fallback batch must hold a near-tie sample"
        );
        for _ in 1..JITTER_BATCH {
            assert_eq!(fast.delta_ps(1000), reference.delta_ps(1000));
        }

        // At sigma = 55.5 ps a clamped sample is an exact tie, where the
        // integer offset and the reference round differently:
        // round(1000 - 166.5) = 834, but 1000 + round(-166.5) = 833.
        let mut fast = JitterModel::new(55.5, 1);
        let mut reference = OneAtATimeReference::new(55.5, 1);
        let mut seen = false;
        for _ in 0..100_000 {
            let j = reference.sample_ps();
            assert_eq!(fast.delta_ps(1000), (1000.0 + j).round() as TimePs);
            if j == -166.5 {
                assert!(fast.exact, "a clamped tie must be served exactly");
                seen = true;
            }
        }
        assert!(seen, "no negative clamp in 100 000 draws");
    }

    fn saved(j: &JitterModel) -> Vec<u8> {
        let mut w = ByteWriter::new();
        j.save(&mut w);
        w.into_vec()
    }

    #[test]
    fn mid_batch_save_encodes_the_exact_reference_buffer() {
        let mut j = JitterModel::new(110.0, 42);
        // Run into a fast (non-tie) batch, then stop mid-batch.
        let mut batches = 0;
        loop {
            if j.pos == JITTER_BATCH {
                batches += 1;
            }
            j.delta_ps(1000);
            if j.pos == 1 && !j.exact {
                break;
            }
        }
        for _ in 0..20 {
            j.delta_ps(1000);
        }
        assert!(!j.exact && j.pos == 21);

        // The historical encoding: sigma, the post-batch PRNG state, the
        // exact libm variates of the current batch, the cursor.
        let mut rng = StdRng::seed_from_u64(42);
        let mut normals = [0.0; JITTER_BATCH];
        for _ in 0..batches {
            normals = reference_normals(&mut rng);
        }
        let mut w = ByteWriter::new();
        w.put_f64(110.0);
        for word in rng.state() {
            w.put_u64(word);
        }
        for v in normals {
            w.put_f64(v);
        }
        w.put_usize(21);
        let expected = w.into_vec();
        assert_eq!(saved(&j), expected);

        // A model restored from those bytes re-encodes them and resumes
        // the same delta stream.
        let mut restored = JitterModel::load(&mut ByteReader::new(&expected)).unwrap();
        assert_eq!(saved(&restored), expected);
        for period in PERIODS.into_iter().cycle().take(5_000) {
            assert_eq!(restored.delta_ps(period), j.delta_ps(period));
        }
    }

    #[test]
    fn jitter_load_rejects_a_negative_or_nan_sigma() {
        let good = saved(&JitterModel::new(110.0, 1));
        for bad in [-1.0, f64::NAN] {
            let mut bytes = good.clone();
            bytes[..8].copy_from_slice(&f64::to_le_bytes(bad));
            assert!(JitterModel::load(&mut ByteReader::new(&bytes)).is_err());
        }
    }

    #[test]
    fn jitter_with_zero_sigma_is_zero() {
        let mut j = JitterModel::new(0.0, 42);
        let fresh = saved(&j);
        for period in [0, 1, 1000, 4000] {
            assert_eq!(j.delta_ps(period), period.max(1));
        }
        assert_eq!(saved(&j), fresh, "a zero sigma must not touch the PRNG");
    }

    #[test]
    fn jitter_is_zero_mean_and_bounded() {
        let mut j = JitterModel::new(110.0, 1);
        let n = 20_000;
        let offsets: Vec<f64> = (0..n).map(|_| j.delta_ps(1000) as f64 - 1000.0).collect();
        let mean = offsets.iter().sum::<f64>() / n as f64;
        let var = offsets.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n as f64;
        assert!(
            mean.abs() < 5.0,
            "mean jitter should be near zero, got {mean}"
        );
        let sigma = var.sqrt();
        assert!(
            (sigma - 110.0).abs() < 10.0,
            "sample sigma should be near 110 ps, got {sigma}"
        );
        assert!(offsets.iter().all(|s| s.abs() <= 330.0));
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let mut a = JitterModel::new(110.0, 7);
        let mut b = JitterModel::new(110.0, 7);
        for _ in 0..100 {
            assert_eq!(a.delta_ps(1000), b.delta_ps(1000));
        }
        let mut c = JitterModel::new(110.0, 8);
        let differs = (0..100).any(|_| a.delta_ps(1000) != c.delta_ps(1000));
        assert!(differs);
    }
    #[test]
    fn clock_without_jitter_ticks_at_exact_period() {
        let mut clk = DomainClock::new(DomainId::Integer, 500.0, 0.0, 0.0, 3);
        let start = clk.next_edge_ps();
        assert!(start < 2000, "initial phase must lie within one period");
        for i in 1..=10u64 {
            clk.advance();
            assert_eq!(clk.next_edge_ps(), start + i * 2000);
        }
        assert_eq!(clk.cycles(), 10);
    }

    #[test]
    fn clock_edges_are_strictly_monotonic_with_jitter() {
        let mut clk = DomainClock::new(DomainId::LoadStore, 1000.0, 49.1, 110.0, 11);
        let mut prev = clk.next_edge_ps();
        for _ in 0..10_000 {
            clk.advance();
            assert!(clk.next_edge_ps() > prev);
            prev = clk.next_edge_ps();
        }
    }

    #[test]
    fn frequency_change_lengthens_period_gradually() {
        let mut clk = DomainClock::new(DomainId::FloatingPoint, 1000.0, 49.1, 0.0, 5);
        assert_eq!(clk.current_period_ps(), 1000);
        clk.set_target_freq(500.0);
        assert!(clk.is_ramping());
        // Immediately after the request the period has barely changed.
        clk.advance();
        assert!(clk.current_period_ps() < 1010);
        // Run long enough for the 500 MHz ramp to finish: 500 MHz * 49.1
        // ns/MHz = 24.55 us, i.e. < 24 550 edges even at 1 ns each.
        // The instantaneous period never overshoots the settled one.
        for _ in 0..30_000 {
            clk.advance();
            assert!(clk.current_period_ps() <= 2000);
        }
        assert!(!clk.is_ramping());
        assert_eq!(clk.current_period_ps(), 2000);
        assert_eq!(clk.target_freq_mhz(), 500.0);
    }

    #[test]
    fn average_rate_matches_frequency_with_jitter() {
        let mut clk = DomainClock::new(DomainId::FrontEnd, 1000.0, 0.0, 110.0, 17);
        let start = clk.next_edge_ps();
        let n = 50_000u64;
        for _ in 0..n {
            clk.advance();
        }
        let elapsed = clk.next_edge_ps() - start;
        let avg_period = elapsed as f64 / n as f64;
        assert!(
            (avg_period - 1000.0).abs() < 5.0,
            "average period should remain ~1000 ps, got {avg_period}"
        );
    }

    #[test]
    fn snapshot_reflects_state() {
        let clk = DomainClock::new(DomainId::Integer, 750.0, 49.1, 110.0, 23);
        let s = clk.snapshot();
        assert_eq!(s.domain, DomainId::Integer);
        assert_eq!(s.cycles, 0);
        assert!((s.freq_mhz - 750.0).abs() < 1e-9);
        assert_eq!(s.next_edge_ps, clk.next_edge_ps());
    }

    #[test]
    fn save_load_resumes_edge_stream_mid_ramp() {
        let mut clk = DomainClock::new(DomainId::Integer, 1000.0, 49.1, 110.0, 11);
        for _ in 0..100 {
            clk.advance();
        }
        clk.set_target_freq(650.0);
        for _ in 0..37 {
            clk.advance();
        }
        let mut w = ByteWriter::new();
        clk.save(&mut w);
        let bytes = w.into_vec();
        let mut r = ByteReader::new(&bytes);
        let mut restored = DomainClock::load(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(restored.domain(), clk.domain());
        for _ in 0..10_000 {
            assert_eq!(restored.advance(), clk.advance());
            assert_eq!(restored.next_edge_ps(), clk.next_edge_ps());
            assert_eq!(restored.cycles(), clk.cycles());
        }
    }

    #[test]
    fn clock_load_rejects_bad_domain_index() {
        let clk = DomainClock::new(DomainId::Integer, 1000.0, 49.1, 0.0, 1);
        let mut w = ByteWriter::new();
        clk.save(&mut w);
        let mut bytes = w.into_vec();
        bytes[0] = 9;
        assert!(DomainClock::load(&mut ByteReader::new(&bytes)).is_err());
    }

    #[test]
    fn initial_phases_differ_across_seeds() {
        let a = DomainClock::new(DomainId::Integer, 1000.0, 0.0, 0.0, 1);
        let b = DomainClock::new(DomainId::Integer, 1000.0, 0.0, 0.0, 2);
        // Not guaranteed for every pair of seeds, but these two differ.
        assert_ne!(a.next_edge_ps(), b.next_edge_ps());
    }
}
