//! Quick-fit pooled memory for kernel envelopes and wire buffers.
//!
//! The C Chare Kernel devoted an entire kernel module to dynamic memory
//! management for messages: quick-fit free lists serving the handful of
//! block sizes message traffic actually uses, because a general-purpose
//! `malloc`/`free` pair per message *is* the kernel's overhead. This
//! module is the host-side analogue for the reproduction. Every kernel
//! packet wraps one [`SysMsg`] in a `Box`, and message combining ships
//! `Vec<SysMsg>` wire buffers; both are allocated and freed at the full
//! rate of simulated traffic. The pool recycles them through
//! thread-local free lists (one exact-size list for envelope boxes —
//! the quick-fit "quick list" — and capacity-classed lists for wire
//! buffers), so steady-state message traffic performs no heap
//! allocation at all.
//!
//! Pooling is **invisible to simulated results**: the same values flow
//! through the same code paths, only the host allocations differ. The
//! `perf_invariants` suite pins this down by diffing whole experiment
//! tables with pooling on and off.
//!
//! Pooling is on by default; [`set_pooling`] toggles recycling at
//! runtime on the current thread (the unpooled reference of the A/B
//! determinism tests).
//!
//! Free lists are thread-local, which makes them safe on both backends:
//! the discrete-event simulator runs a whole machine on one thread (one
//! pool), the thread backend runs one PE per thread (one pool each —
//! envelopes allocated by a sender and reclaimed by a receiver simply
//! migrate between lists).

use std::cell::{Cell, RefCell};

use multicomputer::Payload;

use crate::envelope::SysMsg;

/// Most free envelope boxes kept per thread (~64 B each).
const ENVELOPE_KEEP: usize = 8192;
/// Most free wire buffers kept per thread, per size class.
const BATCH_KEEP: usize = 512;
/// Most free ack-sequence buffers kept per thread.
const SEQ_KEEP: usize = 512;
/// Wire-buffer capacity classes: `<= 8`, `<= 32`, `<= 128`, larger.
const BATCH_CLASS_CAPS: [usize; 3] = [8, 32, 128];

#[derive(Default)]
struct Pool {
    // The boxes ARE the pooled resource: callers hold `Box<SysMsg>`
    // envelopes, and recycling must keep each heap allocation alive.
    #[allow(clippy::vec_box)]
    envelopes: Vec<Box<SysMsg>>,
    batches: [Vec<Vec<SysMsg>>; 4],
    seqs: Vec<Vec<u64>>,
    recycled: u64,
    allocated: u64,
}

/// Counters for one thread's pool (diagnostics only).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Allocations served from a free list.
    pub recycled: u64,
    /// Allocations that had to hit the heap.
    pub allocated: u64,
}

thread_local! {
    static POOL: RefCell<Pool> = RefCell::new(Pool::default());
    static ENABLED: Cell<bool> = const { Cell::new(true) };
}

fn batch_class(cap: usize) -> usize {
    BATCH_CLASS_CAPS
        .iter()
        .position(|&c| cap <= c)
        .unwrap_or(BATCH_CLASS_CAPS.len())
}

/// Enable or disable recycling on the current thread. Off, every call
/// allocates and every reclaim frees — the unpooled A/B baseline.
pub fn set_pooling(on: bool) {
    ENABLED.with(|e| e.set(on));
}

/// Whether recycling is active on the current thread.
pub fn pooling() -> bool {
    ENABLED.with(|e| e.get())
}

/// This thread's pool counters.
pub fn stats() -> PoolStats {
    POOL.with(|p| {
        let p = p.borrow();
        PoolStats {
            recycled: p.recycled,
            allocated: p.allocated,
        }
    })
}

/// Box `sys` as a machine-layer payload, reusing a recycled envelope
/// allocation when one is free.
pub fn payload(sys: SysMsg) -> Payload {
    if pooling() {
        return POOL.with(|p| {
            let mut p = p.borrow_mut();
            match p.envelopes.pop() {
                Some(mut bx) => {
                    p.recycled += 1;
                    *bx = sys;
                    bx
                }
                None => {
                    p.allocated += 1;
                    Box::new(sys)
                }
            }
        });
    }
    Box::new(sys)
}

/// Take the message out of a received envelope and return the box's
/// allocation to the free list.
pub fn reclaim(bx: Box<SysMsg>) -> SysMsg {
    if pooling() {
        let mut bx = bx;
        // `WorkNack` is the unit variant: a placeholder that costs one
        // enum-sized move and drops nothing.
        let sys = std::mem::replace(&mut *bx, SysMsg::WorkNack);
        POOL.with(|p| {
            let mut p = p.borrow_mut();
            if p.envelopes.len() < ENVELOPE_KEEP {
                p.envelopes.push(bx);
            }
        });
        return sys;
    }
    *bx
}

/// An empty wire buffer with at least `cap_hint` capacity if a recycled
/// one is available (larger classes are searched before allocating).
pub fn batch(cap_hint: usize) -> Vec<SysMsg> {
    if pooling() {
        return POOL.with(|p| {
            let mut p = p.borrow_mut();
            for class in batch_class(cap_hint)..p.batches.len() {
                if let Some(v) = p.batches[class].pop() {
                    p.recycled += 1;
                    return v;
                }
            }
            p.allocated += 1;
            Vec::with_capacity(cap_hint)
        });
    }
    Vec::with_capacity(cap_hint)
}

/// Return an emptied wire buffer to its size class.
pub fn recycle_batch(v: Vec<SysMsg>) {
    if pooling() && v.capacity() > 0 {
        debug_assert!(v.is_empty(), "recycled wire buffer must be drained");
        POOL.with(|p| {
            let mut p = p.borrow_mut();
            let class = batch_class(v.capacity());
            if p.batches[class].len() < BATCH_KEEP {
                p.batches[class].push(v);
            }
        });
        return;
    }
    drop(v);
}

/// An empty ack-sequence buffer (reliable-delivery wire traffic).
pub fn seq_vec() -> Vec<u64> {
    if pooling() {
        return POOL.with(|p| {
            let mut p = p.borrow_mut();
            match p.seqs.pop() {
                Some(v) => {
                    p.recycled += 1;
                    v
                }
                None => {
                    p.allocated += 1;
                    Vec::new()
                }
            }
        });
    }
    Vec::new()
}

/// Return an ack-sequence buffer to the free list.
pub fn recycle_seq_vec(mut v: Vec<u64>) {
    if pooling() && v.capacity() > 0 {
        v.clear();
        POOL.with(|p| {
            let mut p = p.borrow_mut();
            if p.seqs.len() < SEQ_KEEP {
                p.seqs.push(v);
            }
        });
        return;
    }
    drop(v);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// RAII guard: run a closure with pooling forced to a given state,
    /// restoring the previous state after.
    fn with_pooling<R>(on: bool, f: impl FnOnce() -> R) -> R {
        let before = pooling();
        set_pooling(on);
        let r = f();
        set_pooling(before);
        r
    }

    #[test]
    fn envelope_round_trip_preserves_value() {
        for on in [false, true] {
            with_pooling(on, || {
                let p = payload(SysMsg::QdPoll { wave: 42 });
                let bx = p.downcast::<SysMsg>().unwrap();
                match reclaim(bx) {
                    SysMsg::QdPoll { wave } => assert_eq!(wave, 42),
                    _ => panic!("wrong message came back"),
                }
            });
        }
    }

    #[test]
    fn recycled_envelope_allocation_is_reused() {
        with_pooling(true, || {
            let before = stats();
            let p = payload(SysMsg::WorkNack);
            let _ = reclaim(p.downcast::<SysMsg>().unwrap());
            let p2 = payload(SysMsg::QdPoll { wave: 1 });
            let after = stats();
            assert!(
                after.recycled > before.recycled,
                "second allocation must come from the free list"
            );
            let _ = reclaim(p2.downcast::<SysMsg>().unwrap());
        });
    }

    #[test]
    fn batch_classes_round_trip() {
        for on in [false, true] {
            with_pooling(on, || {
                let mut v = batch(4);
                v.push(SysMsg::WorkNack);
                v.clear();
                recycle_batch(v);
                let v2 = batch(100);
                assert!(v2.is_empty());
                recycle_batch(v2);
            });
        }
    }

    #[test]
    fn seq_vec_round_trip() {
        for on in [false, true] {
            with_pooling(on, || {
                let mut v = seq_vec();
                v.extend([1u64, 2, 3]);
                recycle_seq_vec(v);
                let v2 = seq_vec();
                assert!(v2.is_empty(), "recycled seq buffers come back empty");
                recycle_seq_vec(v2);
            });
        }
    }

    #[test]
    fn size_classes_partition_capacities() {
        assert_eq!(batch_class(0), 0);
        assert_eq!(batch_class(8), 0);
        assert_eq!(batch_class(9), 1);
        assert_eq!(batch_class(32), 1);
        assert_eq!(batch_class(128), 2);
        assert_eq!(batch_class(129), 3);
        assert_eq!(batch_class(usize::MAX), 3);
    }
}
