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

/// Zero-mean normal jitter source (Box–Muller over the platform PRNG).
///
/// Samples are clamped to plus/minus three standard deviations so that a
/// pathological draw can never produce a non-causal (negative-period) edge.
///
/// The per-edge hot path historically drew one Box–Muller pair at a time
/// through an `Option<f64>` spare cache; the transform's `ln`/`sqrt`/
/// `sin`/`cos` calls and the spare-branch showed up in kernel profiles.
/// Samples are now generated in batches of 64 (`JITTER_BATCH`) into a refill
/// buffer, keeping the transcendental math in one tight loop and reducing
/// the per-edge cost to a buffered load plus one scale/clamp.  The
/// variates come off the PRNG in exactly the historical order (cosine
/// first, sine second, pair by pair), so the per-edge sample stream for a
/// given seed is bit-identical to the one-at-a-time implementation — a
/// property locked in by `batched_stream_matches_one_at_a_time_reference`.
///
/// A sigma of zero bypasses the PRNG and the buffer entirely.
#[derive(Debug, Clone)]
pub struct JitterModel {
    sigma_ps: f64,
    rng: StdRng,
    /// Pre-drawn standard-normal variates, consumed front to back.
    buf: [f64; JITTER_BATCH],
    /// Index of the next unconsumed variate (`JITTER_BATCH` = empty).
    pos: usize,
}

impl JitterModel {
    /// Creates a jitter model with the given standard deviation (in
    /// picoseconds) and RNG seed.  A sigma of zero disables jitter.
    pub fn new(sigma_ps: f64, seed: u64) -> Self {
        assert!(sigma_ps >= 0.0, "jitter sigma must be non-negative");
        JitterModel {
            sigma_ps,
            rng: StdRng::seed_from_u64(seed),
            buf: [0.0; JITTER_BATCH],
            pos: JITTER_BATCH,
        }
    }

    /// The configured standard deviation in picoseconds.
    pub fn sigma_ps(&self) -> f64 {
        self.sigma_ps
    }

    /// Refills the sample buffer with `JITTER_BATCH` fresh standard-normal
    /// variates via the Box–Muller transform.
    #[cold]
    fn refill(&mut self) {
        let mut i = 0;
        while i < JITTER_BATCH {
            let u1: f64 = self.rng.gen_range(f64::MIN_POSITIVE..1.0);
            let u2: f64 = self.rng.gen_range(0.0..1.0);
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f64::consts::PI * u2;
            self.buf[i] = r * theta.cos();
            self.buf[i + 1] = r * theta.sin();
            i += 2;
        }
        self.pos = 0;
    }

    /// Draws one jitter sample in picoseconds (may be negative).
    #[inline]
    pub fn sample_ps(&mut self) -> f64 {
        if self.sigma_ps == 0.0 {
            // Fast path: jitter disabled, never touch the RNG.
            return 0.0;
        }
        if self.pos == JITTER_BATCH {
            self.refill();
        }
        let z = self.buf[self.pos];
        self.pos += 1;
        (z * self.sigma_ps).clamp(-3.0 * self.sigma_ps, 3.0 * self.sigma_ps)
    }

    /// Serializes the jitter source, including the PRNG state and the
    /// unconsumed tail of the sample buffer, so the per-edge jitter stream
    /// resumes bit-identically after a restore.
    pub fn save(&self, w: &mut ByteWriter) {
        w.put_f64(self.sigma_ps);
        for word in self.rng.state() {
            w.put_u64(word);
        }
        for v in self.buf {
            w.put_f64(v);
        }
        w.put_usize(self.pos);
    }

    /// Rebuilds a jitter source from [`JitterModel::save`] output.
    ///
    /// # Errors
    ///
    /// Returns a decode error if the stream is truncated or the buffer
    /// cursor is out of range.
    pub fn load(r: &mut ByteReader<'_>) -> CodecResult<Self> {
        let sigma_ps = r.f64()?;
        let mut state = [0u64; 4];
        for word in &mut state {
            *word = r.u64()?;
        }
        let rng = StdRng::from_state(state);
        let mut buf = [0.0; JITTER_BATCH];
        for v in &mut buf {
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
            rng,
            buf,
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
        let period = self.current_period_ps();
        let delta = if self.jitter.sigma_ps() == 0.0 {
            // Jitter-free clocks advance by the exact period (identical to
            // rounding `period + 0.0`, without the float round-trip).
            period.max(1)
        } else {
            // The jitter is bounded to 3 sigma (330 ps) which is always
            // smaller than the smallest period (1000 ps), so the next edge
            // is strictly after the current one.
            (period as f64 + self.jitter.sample_ps()).max(1.0).round() as TimePs
        };
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

    #[test]
    fn jitter_with_zero_sigma_is_zero() {
        let mut j = JitterModel::new(0.0, 42);
        for _ in 0..100 {
            assert_eq!(j.sample_ps(), 0.0);
        }
    }

    #[test]
    fn jitter_is_zero_mean_and_bounded() {
        let mut j = JitterModel::new(110.0, 1);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| j.sample_ps()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|s| (s - mean) * (s - mean)).sum::<f64>() / n as f64;
        assert!(
            mean.abs() < 5.0,
            "mean jitter should be near zero, got {mean}"
        );
        let sigma = var.sqrt();
        assert!(
            (sigma - 110.0).abs() < 10.0,
            "sample sigma should be near 110 ps, got {sigma}"
        );
        assert!(samples.iter().all(|s| s.abs() <= 330.0 + 1e-9));
    }

    /// Reference implementation of the historical one-at-a-time sampler
    /// (Box–Muller with an `Option<f64>` spare cache).  The batched refill
    /// must reproduce its per-edge sample stream bit for bit.
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
    }

    #[test]
    fn batched_stream_matches_one_at_a_time_reference() {
        // Cover several seeds and sigmas, and enough samples to cross many
        // refill boundaries (the batch size is 64).
        for seed in [0u64, 1, 7, 42, 0xdead_beef] {
            for sigma in [110.0, 1.0, 55.5, 330.0] {
                let mut batched = JitterModel::new(sigma, seed);
                let mut reference = OneAtATimeReference::new(sigma, seed);
                for i in 0..1_000 {
                    let b = batched.sample_ps();
                    let r = reference.sample_ps();
                    assert!(
                        b == r,
                        "seed {seed} sigma {sigma} sample {i}: batched {b} != reference {r}"
                    );
                }
            }
        }
    }

    #[test]
    fn jitter_is_deterministic_per_seed() {
        let mut a = JitterModel::new(110.0, 7);
        let mut b = JitterModel::new(110.0, 7);
        for _ in 0..100 {
            assert_eq!(a.sample_ps(), b.sample_ps());
        }
        let mut c = JitterModel::new(110.0, 8);
        let differs = (0..100).any(|_| a.sample_ps() != c.sample_ps());
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
