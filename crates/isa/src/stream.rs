//! Instruction-stream abstraction.
//!
//! The simulator is driven by anything implementing [`InstructionStream`]:
//! a pull-based source of [`DynInst`] records in program order.  Workload
//! generators in `mcd-workloads` implement this trait; fixed vectors of
//! instructions ([`VecStream`], [`SliceStream`]) are provided here for unit
//! tests and micro-workloads.

use crate::inst::{DynInst, SeqNum};
use crate::op::OpClass;

/// A pull-based, program-ordered source of dynamic instructions.
///
/// Implementations must return instructions with strictly increasing
/// sequence numbers starting at the value returned first; once `None` is
/// returned the stream is exhausted and must keep returning `None`.
pub trait InstructionStream {
    /// Returns the next instruction in program order, or `None` when the
    /// stream is exhausted.
    fn next_inst(&mut self) -> Option<DynInst>;

    /// An optional hint of how many instructions remain (used only for
    /// progress reporting).
    fn remaining_hint(&self) -> Option<u64> {
        None
    }

    /// Adapter limiting the stream to the first `n` instructions.
    fn take_insts(self, n: u64) -> Take<Self>
    where
        Self: Sized,
    {
        Take {
            inner: self,
            remaining: n,
        }
    }
}

impl<S: InstructionStream + ?Sized> InstructionStream for Box<S> {
    fn next_inst(&mut self) -> Option<DynInst> {
        (**self).next_inst()
    }
    fn remaining_hint(&self) -> Option<u64> {
        (**self).remaining_hint()
    }
}

/// Adapter returned by [`InstructionStream::take_insts`].
#[derive(Debug, Clone)]
pub struct Take<S> {
    inner: S,
    remaining: u64,
}

impl<S: InstructionStream> InstructionStream for Take<S> {
    fn next_inst(&mut self) -> Option<DynInst> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        self.inner.next_inst()
    }

    fn remaining_hint(&self) -> Option<u64> {
        Some(match self.inner.remaining_hint() {
            Some(r) => r.min(self.remaining),
            None => self.remaining,
        })
    }
}

/// A stream backed by an owned vector of instructions.
#[derive(Debug, Clone, Default)]
pub struct VecStream {
    insts: Vec<DynInst>,
    pos: usize,
}

impl VecStream {
    /// Creates a stream from a vector of instructions (already in program
    /// order).
    pub fn new(insts: Vec<DynInst>) -> Self {
        VecStream { insts, pos: 0 }
    }

    /// Number of instructions not yet consumed.
    pub fn remaining(&self) -> usize {
        self.insts.len() - self.pos
    }
}

impl InstructionStream for VecStream {
    fn next_inst(&mut self) -> Option<DynInst> {
        let inst = self.insts.get(self.pos).copied();
        if inst.is_some() {
            self.pos += 1;
        }
        inst
    }

    fn remaining_hint(&self) -> Option<u64> {
        Some(self.remaining() as u64)
    }
}

impl FromIterator<DynInst> for VecStream {
    fn from_iter<T: IntoIterator<Item = DynInst>>(iter: T) -> Self {
        VecStream::new(iter.into_iter().collect())
    }
}

/// A stream borrowing a slice of instructions.
#[derive(Debug, Clone)]
pub struct SliceStream<'a> {
    insts: &'a [DynInst],
    pos: usize,
}

impl<'a> SliceStream<'a> {
    /// Creates a stream over a borrowed slice.
    pub fn new(insts: &'a [DynInst]) -> Self {
        SliceStream { insts, pos: 0 }
    }
}

impl InstructionStream for SliceStream<'_> {
    fn next_inst(&mut self) -> Option<DynInst> {
        let inst = self.insts.get(self.pos).copied();
        if inst.is_some() {
            self.pos += 1;
        }
        inst
    }

    fn remaining_hint(&self) -> Option<u64> {
        Some((self.insts.len() - self.pos) as u64)
    }
}

/// Aggregate statistics over a finite instruction stream, used to validate
/// workload generators against their specifications.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StreamStats {
    /// Total instructions observed.
    pub total: u64,
    /// Loads.
    pub loads: u64,
    /// Stores.
    pub stores: u64,
    /// Conditional branches.
    pub cond_branches: u64,
    /// All control transfers.
    pub branches: u64,
    /// Taken conditional branches.
    pub taken_cond_branches: u64,
    /// Floating-point operations.
    pub fp_ops: u64,
    /// Integer ALU/mult/div operations (excluding branches).
    pub int_ops: u64,
    /// Nops.
    pub nops: u64,
    /// Distinct 64-byte cache lines touched by memory operations.
    pub distinct_lines: u64,
    /// Highest sequence number observed.
    pub last_seq: SeqNum,
}

impl StreamStats {
    /// Consumes a stream (up to `limit` instructions) and gathers
    /// statistics.
    pub fn gather<S: InstructionStream>(stream: &mut S, limit: u64) -> Self {
        let mut stats = StreamStats::default();
        // Ordered set (the workspace hash-iteration lint): only
        // membership and `len` are used, but result-affecting code keeps
        // deterministic structures throughout.
        let mut lines = std::collections::BTreeSet::new();
        for _ in 0..limit {
            let Some(inst) = stream.next_inst() else {
                break;
            };
            stats.total += 1;
            stats.last_seq = inst.seq;
            match inst.op {
                OpClass::Load => stats.loads += 1,
                OpClass::Store => stats.stores += 1,
                OpClass::Nop => stats.nops += 1,
                op if op.is_fp() => stats.fp_ops += 1,
                op if op.is_branch() => {}
                _ => stats.int_ops += 1,
            }
            if inst.op.is_branch() {
                stats.branches += 1;
                if inst.op.is_cond_branch() {
                    stats.cond_branches += 1;
                    if inst.branch.map(|b| b.taken).unwrap_or(false) {
                        stats.taken_cond_branches += 1;
                    }
                }
            }
            if let Some(mem) = inst.mem {
                lines.insert(mem.line_addr(64));
            }
        }
        stats.distinct_lines = lines.len() as u64;
        stats
    }

    /// Fraction of instructions that are memory operations.
    pub fn mem_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            (self.loads + self.stores) as f64 / self.total as f64
        }
    }

    /// Fraction of instructions that are floating point.
    pub fn fp_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.fp_ops as f64 / self.total as f64
        }
    }

    /// Fraction of instructions that are conditional branches.
    pub fn branch_fraction(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.cond_branches as f64 / self.total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::MemInfo;
    use crate::reg::Reg;

    fn sample_insts(n: u64) -> Vec<DynInst> {
        (0..n)
            .map(|i| match i % 4 {
                0 => DynInst::alu(i, 0x1000 + 4 * i, Reg::int(1), &[Reg::int(2)]),
                1 => DynInst::load(
                    i,
                    0x1000 + 4 * i,
                    Reg::int(3),
                    &[Reg::int(1)],
                    MemInfo::new(64 * i, 8),
                ),
                2 => DynInst::fp_add(i, 0x1000 + 4 * i, Reg::fp(1), &[Reg::fp(2)]),
                _ => DynInst::branch(i, 0x1000 + 4 * i, &[Reg::int(3)], i % 8 == 3, 0x1000),
            })
            .collect()
    }

    #[test]
    fn vec_stream_yields_all_in_order() {
        let mut s = VecStream::new(sample_insts(16));
        let mut prev = None;
        let mut count = 0;
        while let Some(i) = s.next_inst() {
            if let Some(p) = prev {
                assert!(i.seq > p);
            }
            prev = Some(i.seq);
            count += 1;
        }
        assert_eq!(count, 16);
        assert_eq!(s.next_inst(), None);
        assert_eq!(s.remaining(), 0);
    }

    #[test]
    fn slice_stream_borrows() {
        let v = sample_insts(8);
        let mut s = SliceStream::new(&v);
        assert_eq!(s.remaining_hint(), Some(8));
        assert!(s.next_inst().is_some());
        assert_eq!(s.remaining_hint(), Some(7));
    }

    #[test]
    fn take_limits_stream() {
        let mut s = VecStream::new(sample_insts(100)).take_insts(10);
        let mut n = 0;
        while s.next_inst().is_some() {
            n += 1;
        }
        assert_eq!(n, 10);
    }

    #[test]
    fn take_hint_is_min_of_inner_and_limit() {
        let s = VecStream::new(sample_insts(5)).take_insts(10);
        assert_eq!(s.remaining_hint(), Some(5));
        let s2 = VecStream::new(sample_insts(50)).take_insts(10);
        assert_eq!(s2.remaining_hint(), Some(10));
    }

    #[test]
    fn boxed_stream_is_a_stream() {
        let mut s: Box<dyn InstructionStream> = Box::new(VecStream::new(sample_insts(4)));
        assert!(s.next_inst().is_some());
        assert_eq!(s.remaining_hint(), Some(3));
    }

    #[test]
    fn stats_gathering_counts_classes() {
        let mut s = VecStream::new(sample_insts(400));
        let stats = StreamStats::gather(&mut s, 1_000);
        assert_eq!(stats.total, 400);
        assert_eq!(stats.loads, 100);
        assert_eq!(stats.fp_ops, 100);
        assert_eq!(stats.cond_branches, 100);
        assert_eq!(stats.int_ops, 100);
        assert!(stats.mem_fraction() > 0.24 && stats.mem_fraction() < 0.26);
        assert!(stats.distinct_lines > 0);
    }

    #[test]
    fn stats_respect_limit() {
        let mut s = VecStream::new(sample_insts(400));
        let stats = StreamStats::gather(&mut s, 40);
        assert_eq!(stats.total, 40);
    }

    #[test]
    fn from_iterator_collects() {
        let s: VecStream = sample_insts(6).into_iter().collect();
        assert_eq!(s.remaining(), 6);
    }

    #[test]
    fn empty_stats_have_zero_fractions() {
        let stats = StreamStats::default();
        assert_eq!(stats.mem_fraction(), 0.0);
        assert_eq!(stats.fp_fraction(), 0.0);
        assert_eq!(stats.branch_fraction(), 0.0);
    }
}
