//! Per-domain event timelines of the simulation kernel.
//!
//! Historically the kernel kept **two** parallel families of per-domain
//! binary min-heaps: `CompletionQueues` ("instruction `seq` finishes
//! executing at time `t` in domain `d`") and `WakeupQueues` ("instruction
//! `seq` becomes issueable in domain `d` at time `t`").  Every issue pushed
//! a completion event and every completion could push wakeup events, so
//! the kernel paid two sets of heap operations per instruction.
//!
//! [`DomainTimeline`] replaces both with a single per-domain binary
//! min-heap of tagged [`TimelineEvent`]s: each of the MCD processor's
//! domains runs on its own clock, so each keeps its own queue.
//!
//! # Drain-order invariant
//!
//! One [`DomainTimeline::collect_due`] call per domain cycle drains *both*
//! event streams in a single pass, returning every due event in
//! `(time, seq, kind)` order with [`EventKind::Completion`] ordered before
//! [`EventKind::Wakeup`].  That order is the heap's own ordering (the
//! derived `Ord` of [`TimelineEvent`]), so it holds by construction.
//! Completions thereby retire in exactly the deterministic `(time, seq)`
//! order the historical completion heap popped, which the writeback side
//! effects (predictor updates, ROB completion marks, energy accounting)
//! require for bit-identical results; wakeup events commute with
//! completions (promotion only inserts into a seq-sorted ready list behind
//! a pure filter), so tagging them after completions at equal
//! `(time, seq)` preserves behaviour exactly.
//!
//! # Ready lists
//!
//! The per-domain *ready list* (issueable-but-not-yet-issued instructions,
//! kept seq-sorted because issue priority is oldest-first) lives in the
//! timeline too.  Due wakeups are folded in per drain through
//! [`DomainTimeline::extend_ready`], which sorts the batch once and merges
//! it in a single pass — fixing the historical per-event
//! `Vec::insert` whose worst case (events arriving in descending sequence
//! order) degraded to `O(k·n)` memmoves per cycle.  An append fast path
//! keeps the common in-order case allocation- and shift-free.
//!
//! # Pause/resume
//!
//! The timeline is plain owned state inside `McdProcessor`, so `run_for`
//! slice boundaries are invisible to it: pending events and ready lists
//! survive a pause untouched (re-verified by the slice proptest and the
//! `MCD_GOLDEN_SLICE` golden diffs).  A checkpoint writes each domain's
//! pending events in ascending order, so the bytes never depend on the
//! heap's internal layout.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use mcd_clock::{DomainId, TimePs};
use mcd_isa::SeqNum;
use serde::codec::{ByteReader, ByteWriter, Result as CodecResult};

use crate::telemetry::EventTrafficStats;

/// What a timeline event means to the kernel.
///
/// The discriminant order matters: events sort `(time, seq, kind)` and
/// completions must drain before wakeups at equal `(time, seq)` so the
/// historical "writeback first, then promote" cycle structure is preserved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EventKind {
    /// Instruction `seq` finishes executing at `time`; drives writeback.
    Completion,
    /// Instruction `seq` becomes issueable at `time`; feeds the ready list.
    Wakeup,
}

/// One scheduled event of a domain timeline.
///
/// The derived ordering is the drain order: `(time, seq, kind)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct TimelineEvent {
    /// Absolute simulated time at which the event is due, in picoseconds.
    pub time: TimePs,
    /// The instruction the event concerns.
    pub seq: SeqNum,
    /// Completion or wakeup.
    pub kind: EventKind,
}

impl TimelineEvent {
    /// Serializes the event for checkpointing.
    pub fn save(&self, w: &mut ByteWriter) {
        w.put_u64(self.time);
        w.put_u64(self.seq);
        w.put_u8(match self.kind {
            EventKind::Completion => 0,
            EventKind::Wakeup => 1,
        });
    }

    /// Rebuilds an event from [`TimelineEvent::save`] output.
    ///
    /// # Errors
    ///
    /// Returns a decode error on truncation or an unknown kind tag.
    pub fn load(r: &mut ByteReader<'_>) -> CodecResult<Self> {
        let time = r.u64()?;
        let seq = r.u64()?;
        let kind = match r.u8()? {
            0 => EventKind::Completion,
            1 => EventKind::Wakeup,
            got => {
                return Err(serde::codec::CodecError::BadTag {
                    what: "timeline event kind",
                    got: u64::from(got),
                })
            }
        };
        Ok(TimelineEvent { time, seq, kind })
    }
}

/// The seq-sorted ready list of one domain: issueable-but-not-yet-issued
/// instructions, oldest (lowest sequence number) first.
///
/// Entries leave only at issue; a candidate that loses functional-unit
/// arbitration stays for the next cycle.  Insertion happens in per-drain
/// batches: the batch is sorted once and merged in one pass, so the
/// reverse-seq-arrival worst case costs `O(n + k log k)` instead of the
/// `O(k·n)` of the historical per-event sorted `Vec::insert`.
#[derive(Debug, Default)]
struct ReadyList {
    /// Strictly ascending sequence numbers.
    seqs: Vec<SeqNum>,
    /// Reusable merge buffer (kept so steady state never allocates).
    merge: Vec<SeqNum>,
}

impl ReadyList {
    /// Folds a batch of woken sequence numbers into the list, deduplicating
    /// against both the batch itself and the existing entries.  The batch
    /// vector is consumed (cleared) and its capacity retained by the caller.
    fn extend_sorted(&mut self, batch: &mut Vec<SeqNum>) {
        if batch.is_empty() {
            return;
        }
        batch.sort_unstable();
        batch.dedup();
        // Append fast path: wakeups usually arrive in ascending seq order,
        // so the whole batch lands strictly after the existing entries.
        if self.seqs.last().is_none_or(|&last| last < batch[0]) {
            self.seqs.extend_from_slice(batch);
            batch.clear();
            return;
        }
        // General case: one merge pass over both sorted sequences.
        self.merge.clear();
        self.merge.reserve(self.seqs.len() + batch.len());
        let (mut i, mut j) = (0, 0);
        while i < self.seqs.len() && j < batch.len() {
            match self.seqs[i].cmp(&batch[j]) {
                std::cmp::Ordering::Less => {
                    self.merge.push(self.seqs[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    self.merge.push(batch[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    self.merge.push(self.seqs[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        self.merge.extend_from_slice(&self.seqs[i..]);
        self.merge.extend_from_slice(&batch[j..]);
        std::mem::swap(&mut self.seqs, &mut self.merge);
        batch.clear();
    }

    /// Removes `seq` (at issue); a no-op if it is not present.
    fn remove(&mut self, seq: SeqNum) {
        if let Ok(pos) = self.seqs.binary_search(&seq) {
            self.seqs.remove(pos);
        }
    }
}

/// The event queue and ready list of one domain.
#[derive(Debug, Default)]
struct Timeline {
    /// Pending events, earliest first under the `(time, seq, kind)` order.
    pending: BinaryHeap<Reverse<TimelineEvent>>,
    /// Issueable instructions, seq-sorted.
    ready: ReadyList,
}

impl Timeline {
    /// Serializes one domain's pending events (ascending, so the bytes do
    /// not depend on the heap layout) and its ready list.  The reusable
    /// merge buffer restores empty.
    fn save(&self, w: &mut ByteWriter) {
        let mut pending: Vec<TimelineEvent> = self.pending.iter().map(|&Reverse(ev)| ev).collect();
        pending.sort_unstable();
        w.put_usize(pending.len());
        for ev in &pending {
            ev.save(w);
        }
        w.put_usize(self.ready.seqs.len());
        for &seq in &self.ready.seqs {
            w.put_u64(seq);
        }
    }

    /// Rebuilds one domain's timeline from [`Timeline::save`] output.
    fn load(r: &mut ByteReader<'_>) -> CodecResult<Self> {
        let n = r.count("timeline pending length")?;
        let mut pending = Vec::with_capacity(n);
        for _ in 0..n {
            pending.push(Reverse(TimelineEvent::load(r)?));
        }
        let n = r.count("timeline ready length")?;
        let mut ready = ReadyList::default();
        ready.seqs.reserve(n);
        for _ in 0..n {
            ready.seqs.push(r.u64()?);
        }
        Ok(Timeline {
            pending: BinaryHeap::from(pending),
            ready,
        })
    }
}

/// The unified per-domain event machinery of the kernel: one min-heap
/// (plus ready list) per domain, carrying tagged completion and wakeup
/// events, drained in a single deterministic pass per domain cycle.
///
/// See the [module documentation](self) for the drain-order invariant.
#[derive(Debug, Default)]
pub struct DomainTimeline {
    /// Indexed by [`DomainId::index`].
    domains: [Timeline; DomainId::ALL.len()],
    stats: EventTrafficStats,
}

impl DomainTimeline {
    /// Creates empty timelines, one per [`DomainId`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules the completion of `seq` at `time` in `domain`.
    #[inline]
    pub fn push_completion(&mut self, domain: DomainId, time: TimePs, seq: SeqNum) {
        self.push(
            domain,
            TimelineEvent {
                time,
                seq,
                kind: EventKind::Completion,
            },
        );
    }

    /// Schedules instruction `seq` to become issueable in `domain` at
    /// `time`.  An instruction may be scheduled *again* at an earlier time
    /// (a producer retirement re-wakes consumers early); the ready-list
    /// merge deduplicates, and the caller filters events for instructions
    /// that already issued.
    #[inline]
    pub fn push_wakeup(&mut self, domain: DomainId, time: TimePs, seq: SeqNum) {
        self.push(
            domain,
            TimelineEvent {
                time,
                seq,
                kind: EventKind::Wakeup,
            },
        );
    }

    #[inline]
    fn push(&mut self, domain: DomainId, ev: TimelineEvent) {
        self.stats.pushes += 1;
        self.domains[domain.index()].pending.push(Reverse(ev));
    }

    /// Whether any event of `domain` is due at `now` — a heap peek.
    /// Callers skip their drain-loop setup entirely when it is not.
    #[inline]
    pub fn has_due(&self, domain: DomainId, now: TimePs) -> bool {
        self.domains[domain.index()]
            .pending
            .peek()
            .is_some_and(|&Reverse(ev)| ev.time <= now)
    }

    /// Collects every event of `domain` due at `now` into `out` (cleared
    /// first), in `(time, seq, kind)` order.
    ///
    /// Events pushed *while the caller processes the batch* at exactly
    /// `now` (same-domain completions wake consumers in the same cycle) are
    /// picked up by the next call with the same `now` — callers loop until
    /// the batch comes back empty.
    #[inline]
    pub fn collect_due(&mut self, domain: DomainId, now: TimePs, out: &mut Vec<TimelineEvent>) {
        out.clear();
        if !self.has_due(domain, now) {
            return;
        }
        self.stats.drains += 1;
        let pending = &mut self.domains[domain.index()].pending;
        while let Some(&Reverse(ev)) = pending.peek() {
            if ev.time > now {
                break;
            }
            pending.pop();
            out.push(ev);
        }
        self.stats.pops += out.len() as u64;
    }

    /// Folds a batch of woken instructions into `domain`'s ready list
    /// (consumes the batch; see `ReadyList::extend_sorted`).
    #[inline]
    pub fn extend_ready(&mut self, domain: DomainId, woken: &mut Vec<SeqNum>) {
        self.domains[domain.index()].ready.extend_sorted(woken);
    }

    /// The instructions of `domain` that are issueable as of the last
    /// drain, oldest first.
    #[inline]
    pub fn ready(&self, domain: DomainId) -> &[SeqNum] {
        &self.domains[domain.index()].ready.seqs
    }

    /// Removes an instruction from `domain`'s ready list at issue.
    #[inline]
    pub fn remove_ready(&mut self, domain: DomainId, seq: SeqNum) {
        self.domains[domain.index()].ready.remove(seq);
    }

    /// The accumulated event-traffic counters (all domains combined).
    pub fn stats(&self) -> EventTrafficStats {
        self.stats
    }

    /// Serializes every domain's timeline and the traffic counters for
    /// checkpointing.
    pub fn save(&self, w: &mut ByteWriter) {
        w.put_usize(self.domains.len());
        for tl in &self.domains {
            tl.save(w);
        }
        w.put_u64(self.stats.pushes);
        w.put_u64(self.stats.pops);
        w.put_u64(self.stats.drains);
    }

    /// Rebuilds the timelines from [`DomainTimeline::save`] output.
    ///
    /// # Errors
    ///
    /// Returns a decode error on truncation, invalid tags, a forged length
    /// or a domain-count mismatch.
    pub fn load(r: &mut ByteReader<'_>) -> CodecResult<Self> {
        let n = r.usize()?;
        if n != DomainId::ALL.len() {
            return Err(serde::codec::CodecError::BadTag {
                what: "timeline domain count",
                got: n as u64,
            });
        }
        let mut domains: [Timeline; DomainId::ALL.len()] = Default::default();
        for tl in &mut domains {
            *tl = Timeline::load(r)?;
        }
        let stats = EventTrafficStats {
            pushes: r.u64()?,
            pops: r.u64()?,
            drains: r.u64()?,
        };
        Ok(DomainTimeline { domains, stats })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain(t: &mut DomainTimeline, d: DomainId, now: TimePs) -> Vec<TimelineEvent> {
        let mut out = Vec::new();
        t.collect_due(d, now, &mut out);
        out
    }

    fn completions(events: &[TimelineEvent]) -> Vec<(TimePs, SeqNum)> {
        events
            .iter()
            .filter(|e| e.kind == EventKind::Completion)
            .map(|e| (e.time, e.seq))
            .collect()
    }

    #[test]
    fn completions_drain_in_time_then_seq_order_and_respect_due_time() {
        let mut t = DomainTimeline::new();
        let d = DomainId::Integer;
        t.push_completion(d, 300, 7);
        t.push_completion(d, 100, 9);
        t.push_completion(d, 100, 2);
        t.push_completion(d, 500, 1);
        assert!(drain(&mut t, d, 50).is_empty());
        assert_eq!(
            completions(&drain(&mut t, d, 300)),
            vec![(100, 2), (100, 9), (300, 7)]
        );
        assert!(drain(&mut t, d, 300).is_empty());
        assert_eq!(completions(&drain(&mut t, d, 1_000)), vec![(500, 1)]);
    }

    #[test]
    fn domains_are_independent() {
        let mut t = DomainTimeline::new();
        t.push_completion(DomainId::Integer, 10, 1);
        t.push_completion(DomainId::LoadStore, 10, 2);
        assert!(drain(&mut t, DomainId::FloatingPoint, 100).is_empty());
        assert_eq!(
            completions(&drain(&mut t, DomainId::Integer, 100)),
            vec![(10, 1)]
        );
        assert!(drain(&mut t, DomainId::Integer, 100).is_empty());
        assert_eq!(
            completions(&drain(&mut t, DomainId::LoadStore, 100)),
            vec![(10, 2)]
        );
    }

    #[test]
    fn completions_order_before_wakeups_at_equal_time_and_seq() {
        let mut t = DomainTimeline::new();
        let d = DomainId::Integer;
        t.push_wakeup(d, 100, 5);
        t.push_completion(d, 100, 5);
        let due = drain(&mut t, d, 100);
        assert_eq!(due.len(), 2);
        assert_eq!(due[0].kind, EventKind::Completion);
        assert_eq!(due[1].kind, EventKind::Wakeup);
    }

    #[test]
    fn due_wakeups_feed_a_seq_sorted_ready_list() {
        let mut t = DomainTimeline::new();
        let d = DomainId::Integer;
        t.push_wakeup(d, 100, 9);
        t.push_wakeup(d, 300, 2);
        t.push_wakeup(d, 200, 5);
        assert!(drain(&mut t, d, 50).is_empty());
        let mut woken: Vec<SeqNum> = drain(&mut t, d, 250).iter().map(|e| e.seq).collect();
        t.extend_ready(d, &mut woken);
        // 9 woke before 5 in time, but the list is seq-sorted.
        assert_eq!(t.ready(d), &[5, 9]);
        let mut woken: Vec<SeqNum> = drain(&mut t, d, 300).iter().map(|e| e.seq).collect();
        t.extend_ready(d, &mut woken);
        assert_eq!(t.ready(d), &[2, 5, 9]);
        // Issue removes; losing arbitration (no call) keeps the entry.
        t.remove_ready(d, 5);
        assert_eq!(t.ready(d), &[2, 9]);
        t.remove_ready(d, 5); // idempotent on absent seqs
        assert_eq!(t.ready(d), &[2, 9]);
    }

    #[test]
    fn ready_merge_deduplicates_within_batch_and_against_the_list() {
        let mut t = DomainTimeline::new();
        let d = DomainId::Integer;
        t.extend_ready(d, &mut vec![7, 7, 3]);
        assert_eq!(t.ready(d), &[3, 7]);
        // A later duplicate of an existing entry must not re-insert it.
        t.extend_ready(d, &mut vec![7, 5]);
        assert_eq!(t.ready(d), &[3, 5, 7]);
    }

    #[test]
    fn reverse_seq_arrival_merges_in_one_pass() {
        // The historical worst case: a batch of wakeups arriving in
        // descending sequence order, each landing in front of the previous
        // one.  The batched merge must produce the sorted list (and do so
        // with one merge pass rather than k front-inserts — the behaviour
        // this test locks in is correctness; the cost shape is documented
        // in the module docs).
        let mut t = DomainTimeline::new();
        let d = DomainId::Integer;
        let mut batch: Vec<SeqNum> = (0..100).rev().collect();
        t.extend_ready(d, &mut batch);
        let expected: Vec<SeqNum> = (0..100).collect();
        assert_eq!(t.ready(d), &expected[..]);
        // Interleaving a second descending batch exercises the merge path
        // (not the append fast path) end to end.
        let mut batch: Vec<SeqNum> = (100..200).rev().step_by(2).collect();
        t.extend_ready(d, &mut batch);
        let tail: Vec<SeqNum> = (100..200).step_by(2).map(|s| s + 1).collect();
        assert_eq!(t.ready(d)[100..], tail[..]);
        assert_eq!(t.ready(d)[..100], expected[..]);
    }

    #[test]
    fn same_time_pushes_during_processing_surface_on_the_next_collect() {
        // A same-domain completion at `now` pushes a consumer wakeup at
        // exactly `now`; the kernel's drain loop picks it up by calling
        // collect_due again with the same `now`.
        let mut t = DomainTimeline::new();
        let d = DomainId::FloatingPoint;
        t.push_completion(d, 2_000, 4);
        let due = drain(&mut t, d, 2_000);
        assert_eq!(completions(&due), vec![(2_000, 4)]);
        t.push_wakeup(d, 2_000, 6); // pushed "while processing seq 4"
        let due = drain(&mut t, d, 2_000);
        assert_eq!(due.len(), 1);
        assert_eq!((due[0].seq, due[0].kind), (6, EventKind::Wakeup));
        assert!(drain(&mut t, d, 2_000).is_empty());
    }

    #[test]
    fn save_load_preserves_pending_events_and_drain_order() {
        let mut t = DomainTimeline::new();
        let d = DomainId::Integer;
        assert!(drain(&mut t, d, 1_500).is_empty());
        t.push_completion(d, 2_000, 4);
        t.push_wakeup(d, 2_000, 6);
        t.push_completion(d, 3_000, 2);
        t.push_wakeup(d, 900_000, 1);
        t.extend_ready(d, &mut vec![3, 8]);
        t.push_completion(DomainId::LoadStore, 7_000, 9);

        let mut w = serde::codec::ByteWriter::new();
        t.save(&mut w);
        let bytes = w.into_vec();
        let mut r = serde::codec::ByteReader::new(&bytes);
        let mut restored = DomainTimeline::load(&mut r).unwrap();
        r.finish().unwrap();

        assert_eq!(restored.ready(d), t.ready(d));
        assert_eq!(restored.stats(), t.stats());
        for now in [2_000, 5_000, 1_000_000] {
            assert_eq!(
                drain(&mut restored, d, now),
                drain(&mut t, d, now),
                "drain divergence at {now}"
            );
            assert_eq!(
                drain(&mut restored, DomainId::LoadStore, now),
                drain(&mut t, DomainId::LoadStore, now)
            );
        }
        assert_eq!(restored.stats(), t.stats());
    }

    #[test]
    fn timeline_load_rejects_bad_event_kind() {
        let mut t = DomainTimeline::new();
        t.push_completion(DomainId::Integer, 500, 1);
        let mut w = serde::codec::ByteWriter::new();
        t.save(&mut w);
        let mut bytes = w.into_vec();
        // The single serialized event's kind byte is the last byte of its
        // 17-byte record; corrupt every 0x00 kind byte candidate by
        // scanning for the event payload (time=500, seq=1).
        let needle = {
            let mut n = Vec::new();
            n.extend_from_slice(&500u64.to_le_bytes());
            n.extend_from_slice(&1u64.to_le_bytes());
            n.push(0);
            n
        };
        let pos = bytes
            .windows(needle.len())
            .position(|win| win == needle)
            .expect("serialized event not found");
        bytes[pos + needle.len() - 1] = 7;
        let mut r = serde::codec::ByteReader::new(&bytes);
        assert!(DomainTimeline::load(&mut r).is_err());
    }

    #[test]
    fn traffic_counters_accumulate() {
        let mut t = DomainTimeline::new();
        let d = DomainId::Integer;
        t.push_completion(d, 1_000, 1);
        t.push_wakeup(d, 1_500, 2);
        t.push_wakeup(d, 9_000, 3);
        // A pass with nothing due is not a drain.
        let _ = drain(&mut t, d, 500);
        let _ = drain(&mut t, d, 2_000);
        let s = t.stats();
        assert_eq!(s.pushes, 3);
        assert_eq!(s.pops, 2);
        assert_eq!(s.drains, 1);
    }

    #[test]
    fn save_writes_pending_events_in_ascending_order() {
        // Two timelines holding the same events pushed in different
        // orders (so different heap layouts) must serialize identically.
        let events = [(4_000, 1), (2_000, 7), (2_000, 3), (9_000, 2), (3_000, 5)];
        let mut a = DomainTimeline::new();
        let mut b = DomainTimeline::new();
        for &(time, seq) in &events {
            a.push_completion(DomainId::Integer, time, seq);
        }
        for &(time, seq) in events.iter().rev() {
            b.push_completion(DomainId::Integer, time, seq);
        }
        let bytes = |t: &DomainTimeline| {
            let mut w = serde::codec::ByteWriter::new();
            t.save(&mut w);
            w.into_vec()
        };
        assert_eq!(bytes(&a), bytes(&b));
    }

    #[test]
    fn timeline_load_rejects_forged_lengths() {
        let t = DomainTimeline::new();
        let mut w = serde::codec::ByteWriter::new();
        t.save(&mut w);
        let good = w.into_vec();
        assert!(DomainTimeline::load(&mut serde::codec::ByteReader::new(&good)).is_ok());
        // The first domain's lengths follow the domain count; with every
        // list empty each length is one 8-byte word.
        for (at, what) in [
            (8, "timeline pending length"),
            (16, "timeline ready length"),
        ] {
            let mut bytes = good.clone();
            bytes[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
            assert_eq!(
                DomainTimeline::load(&mut serde::codec::ByteReader::new(&bytes)).err(),
                Some(serde::codec::CodecError::BadTag {
                    what,
                    got: u64::MAX
                })
            );
        }
    }
}
