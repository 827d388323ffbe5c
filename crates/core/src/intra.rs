//! Intra-epoch conflict detection (paper §III-C, first error class).
//!
//! Within an epoch, nonblocking RMA operations complete at an undefined
//! point before the closing synchronization, so they race with:
//!
//! * other operations of the same epoch whose **target** footprints
//!   overlap at the same target process (checked against Table I), and
//! * any access to the local buffers they read or write between issue and
//!   completion — a pending `MPI_Get` acts as a deferred store into its
//!   origin buffer (Figures 1 and 6), a pending `MPI_Put`/
//!   `MPI_Accumulate` as a deferred load of it (Figure 2a / the ADLB
//!   stack bug), and an MPI-3 atomic as a deferred load of its operand
//!   plus a deferred store into its result buffer.
//!
//! MPI-3 refinements: a request-based operation waited with `MPI_Wait`
//! completes at the wait, so later accesses in the same epoch are ordered
//! after it; flushes split passive epochs into sub-epochs upstream (in
//! [`crate::epoch`]), so cross-flush pairs never reach this detector.

use crate::epoch::Epoch;
#[cfg(test)]
use crate::epoch::Epochs;
#[cfg(test)]
use crate::pair;
use crate::pair::{Cause, RawPair, Side, Sites};
use crate::preprocess::{Ctx, ResolvedAccess};
#[cfg(test)]
use crate::report::ConsistencyError;
use crate::report::{ErrorScope, Severity};
use mcc_types::{conflicts, ConflictKind, EventKind, EventRef, MemRegion, Trace};
use std::collections::HashSet;

struct ResolvedOp {
    ev: EventRef,
    ra: ResolvedAccess,
    /// Early completion point (request-based op that was waited).
    close: Option<EventRef>,
}

impl ResolvedOp {
    /// Whether `other_idx` (an event index at the same rank) is ordered
    /// after this op's completion.
    fn completed_before(&self, other_idx: usize) -> bool {
        self.close.is_some_and(|c| other_idx > c.idx)
    }
}

/// Scans every epoch for conflicting pairs — the reference the unit
/// tests drive directly ([`crate::session::AnalysisSession`] runs
/// [`check_epoch`] per epoch on the thread pool and merges).
#[cfg(test)]
pub(crate) fn detect(trace: &Trace, ctx: &Ctx, epochs: &Epochs) -> Vec<ConsistencyError> {
    let sites = Sites::new(trace);
    let mut out = Vec::new();
    for (idx, epoch) in epochs.epochs.iter().enumerate() {
        out.extend(check_epoch(trace, ctx, &sites, epoch, epochs.ordinals[idx]));
    }
    pair::dedup(trace, &sites, &mut out);
    out.iter().map(|p| p.to_error(trace)).collect()
}

/// Checks one epoch — the unit of parallel work of the intra-epoch
/// detector. Epochs are independent (every pair this detector reports
/// lives inside a single epoch), so the session can run them on any
/// thread in any order. Pairs are deduplicated within the epoch as they
/// are found, first found first kept; the caller merges globally.
pub(crate) fn check_epoch(
    trace: &Trace,
    ctx: &Ctx,
    sites: &Sites,
    epoch: &Epoch,
    epoch_idx: u32,
) -> Vec<RawPair> {
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    epoch_pairs(trace, ctx, epoch, epoch_idx, |p| {
        if seen.insert(p.dedup_key(trace, sites)) {
            out.push(p);
        }
    });
    out
}

/// Emits every conflicting pair of one epoch, loop repeats included.
/// [`crate::hb::racing_events`] needs the repeats — a deduplicated report
/// would hide racing loop iterations from the schedule explorer.
pub(crate) fn epoch_pairs(
    trace: &Trace,
    ctx: &Ctx,
    epoch: &Epoch,
    epoch_idx: u32,
    mut emit: impl FnMut(RawPair),
) {
    let ops: Vec<ResolvedOp> = epoch
        .ops
        .iter()
        .map(|&ev| {
            let ra = ctx
                .resolve_rma_event(ev.rank, &trace.event(ev).kind)
                .expect("epoch ops are RMA events");
            ResolvedOp { ev, ra, close: epoch.op_close.get(&ev).copied() }
        })
        .collect();
    let scope = ErrorScope::IntraEpoch { rank: epoch.rank, win: epoch.win };
    let op_side = |op: &ResolvedOp, origin_side: bool| Side {
        ev: op.ev,
        region: op_region(op, origin_side),
        epoch: Some(epoch_idx),
    };
    let mut push = |a: Side, b: Side, kind: ConflictKind, cause: Cause| {
        emit(RawPair { a, b, scope, kind, severity: Severity::Error, cause });
    };

    // Operation pairs within the epoch. Pairs where one op completed
    // (early wait) before the other was issued are program-ordered.
    for i in 0..ops.len() {
        for j in (i + 1)..ops.len() {
            let (a, b) = (&ops[i], &ops[j]);
            debug_assert!(a.ev.idx < b.ev.idx, "epoch ops are in issue order");
            if a.completed_before(b.ev.idx) {
                continue;
            }
            // Origin-buffer side (both buffers live at this rank).
            if a.ra.origin_conflicts_with(&b.ra) {
                push(
                    op_side(a, true),
                    op_side(b, true),
                    ConflictKind::OverlapViolation,
                    Cause::SharedBuffer { close: epoch.close },
                );
            }
            // Target-window side.
            if a.ra.target_abs == b.ra.target_abs && a.ra.win == b.ra.win {
                let overlap = a.ra.target_map.overlaps_at(0, &b.ra.target_map, 0);
                if let Some(kind) = conflicts(a.ra.class, b.ra.class, overlap) {
                    push(
                        op_side(a, false),
                        op_side(b, false),
                        kind,
                        Cause::SameTarget {
                            classes: (a.ra.class, b.ra.class),
                            target: a.ra.target_abs,
                        },
                    );
                }
            }
        }
    }

    // Operation vs. local access: only accesses between issue and the
    // op's completion (early wait, else epoch close).
    for op in &ops {
        for &acc in &epoch.locals {
            if acc.idx <= op.ev.idx || op.completed_before(acc.idx) {
                continue;
            }
            let (is_store, addr, len) = match trace.event(acc).kind {
                EventKind::Load { addr, len } => (false, addr, len),
                EventKind::Store { addr, len } => (true, addr, len),
                _ => continue,
            };
            let region = MemRegion::new(addr, len);
            if op.ra.origin_conflicts_with_access(is_store, region) {
                push(
                    op_side(op, true),
                    Side { ev: acc, region: Some(region), epoch: None },
                    ConflictKind::OverlapViolation,
                    Cause::PendingBuffer {
                        writes: op.ra.writes.overlaps_region_at(0, region),
                        close: epoch.close,
                    },
                );
            }
        }
    }
}

/// The contended memory of one op: its local buffer (what it writes, else
/// what it reads) or its target footprint.
fn op_region(op: &ResolvedOp, origin_side: bool) -> Option<MemRegion> {
    let map = if origin_side {
        if op.ra.writes.is_empty() {
            &op.ra.reads
        } else {
            &op.ra.writes
        }
    } else {
        &op.ra.target_map
    };
    (!map.is_empty()).then(|| map.bounding_region_at(0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::epoch::extract;
    use crate::preprocess::preprocess;
    use crate::report::ErrorScope;
    use mcc_types::{
        AtomicKind, AtomicOp, CommId, DatatypeId, Rank, ReduceOp, RmaKind, RmaOp, SourceLoc,
        TraceBuilder, WinId,
    };

    fn rma(kind: RmaKind, origin: u64, target: u32, disp: u64, count: u32) -> EventKind {
        EventKind::Rma(RmaOp {
            kind,
            win: WinId(0),
            target: Rank(target),
            origin_addr: origin,
            origin_count: count,
            origin_dtype: DatatypeId::INT,
            target_disp: disp,
            target_count: count,
            target_dtype: DatatypeId::INT,
        })
    }

    fn scaffold(b: &mut TraceBuilder, n: u32) {
        for r in 0..n {
            b.push(
                Rank(r),
                EventKind::WinCreate { win: WinId(0), base: 64, len: 64, comm: CommId::WORLD },
            );
            b.push(Rank(r), EventKind::Fence { win: WinId(0) });
        }
    }

    fn close(b: &mut TraceBuilder, n: u32) {
        for r in 0..n {
            b.push(Rank(r), EventKind::Fence { win: WinId(0) });
        }
    }

    fn run(t: &Trace) -> Vec<ConsistencyError> {
        let ctx = preprocess(t);
        let eps = extract(t, &ctx);
        detect(t, &ctx, &eps)
    }

    /// Figure 2a: put then store to the same buffer within one epoch.
    #[test]
    fn fig2a_put_then_store() {
        let mut b = TraceBuilder::new(2);
        scaffold(&mut b, 2);
        b.push_at(Rank(0), rma(RmaKind::Put, 200, 1, 0, 1), SourceLoc::new("fig2a.c", 3, "main"));
        b.push_at(
            Rank(0),
            EventKind::Store { addr: 200, len: 4 },
            SourceLoc::new("fig2a.c", 4, "main"),
        );
        close(&mut b, 2);
        let errors = run(&b.build());
        assert_eq!(errors.len(), 1);
        let e = &errors[0];
        assert_eq!(e.severity, Severity::Error);
        assert!(matches!(e.scope, ErrorScope::IntraEpoch { rank: Rank(0), .. }));
        assert_eq!(e.a.op, "MPI_Put");
        assert_eq!(e.b.op, "store");
        assert_eq!(e.a.loc.line, 3);
        assert_eq!(e.b.loc.line, 4);
    }

    /// Figure 1 / Figure 6: get then load of the origin buffer.
    #[test]
    fn fig6_get_then_load() {
        let mut b = TraceBuilder::new(2);
        scaffold(&mut b, 2);
        b.push_at(Rank(0), rma(RmaKind::Get, 200, 1, 0, 1), SourceLoc::new("bt.c", 5, "main"));
        b.push_at(
            Rank(0),
            EventKind::Load { addr: 200, len: 4 },
            SourceLoc::new("bt.c", 4, "main"),
        );
        close(&mut b, 2);
        let errors = run(&b.build());
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].a.op, "MPI_Get");
        assert_eq!(errors[0].b.op, "load");
    }

    #[test]
    fn load_before_issue_is_ordered() {
        let mut b = TraceBuilder::new(2);
        scaffold(&mut b, 2);
        b.push(Rank(0), EventKind::Load { addr: 200, len: 4 });
        b.push(Rank(0), rma(RmaKind::Get, 200, 1, 0, 1));
        close(&mut b, 2);
        assert!(run(&b.build()).is_empty(), "access before issue cannot race");
    }

    #[test]
    fn load_of_put_origin_is_fine() {
        let mut b = TraceBuilder::new(2);
        scaffold(&mut b, 2);
        b.push(Rank(0), rma(RmaKind::Put, 200, 1, 0, 1));
        b.push(Rank(0), EventKind::Load { addr: 200, len: 4 });
        close(&mut b, 2);
        assert!(run(&b.build()).is_empty(), "both only read the origin buffer");
    }

    #[test]
    fn disjoint_buffers_no_conflict() {
        let mut b = TraceBuilder::new(2);
        scaffold(&mut b, 2);
        b.push(Rank(0), rma(RmaKind::Get, 200, 1, 0, 1));
        b.push(Rank(0), EventKind::Store { addr: 300, len: 4 });
        close(&mut b, 2);
        assert!(run(&b.build()).is_empty());
    }

    #[test]
    fn two_puts_overlapping_target() {
        let mut b = TraceBuilder::new(2);
        scaffold(&mut b, 2);
        b.push(Rank(0), rma(RmaKind::Put, 200, 1, 0, 1));
        b.push(Rank(0), rma(RmaKind::Put, 300, 1, 0, 1));
        close(&mut b, 2);
        let errors = run(&b.build());
        assert_eq!(errors.len(), 1, "two puts to the same target location in one epoch");
        assert_eq!(errors[0].kind, ConflictKind::OverlapViolation);
    }

    #[test]
    fn two_puts_disjoint_target_fine() {
        let mut b = TraceBuilder::new(2);
        scaffold(&mut b, 2);
        b.push(Rank(0), rma(RmaKind::Put, 200, 1, 0, 1));
        b.push(Rank(0), rma(RmaKind::Put, 300, 1, 8, 1));
        close(&mut b, 2);
        assert!(run(&b.build()).is_empty());
    }

    #[test]
    fn same_op_accumulates_may_overlap() {
        let mut b = TraceBuilder::new(2);
        scaffold(&mut b, 2);
        b.push(Rank(0), rma(RmaKind::Acc(ReduceOp::Sum), 200, 1, 0, 1));
        b.push(Rank(0), rma(RmaKind::Acc(ReduceOp::Sum), 300, 1, 0, 1));
        close(&mut b, 2);
        assert!(run(&b.build()).is_empty(), "same-op same-dtype accumulates commute");
    }

    #[test]
    fn different_op_accumulates_conflict() {
        let mut b = TraceBuilder::new(2);
        scaffold(&mut b, 2);
        b.push(Rank(0), rma(RmaKind::Acc(ReduceOp::Sum), 200, 1, 0, 1));
        b.push(Rank(0), rma(RmaKind::Acc(ReduceOp::Prod), 300, 1, 0, 1));
        close(&mut b, 2);
        assert_eq!(run(&b.build()).len(), 1);
    }

    #[test]
    fn two_gets_same_origin_conflict() {
        // Both gets write the same local buffer concurrently.
        let mut b = TraceBuilder::new(3);
        for r in 0..3u32 {
            b.push(
                Rank(r),
                EventKind::WinCreate { win: WinId(0), base: 64, len: 64, comm: CommId::WORLD },
            );
            b.push(Rank(r), EventKind::Fence { win: WinId(0) });
        }
        b.push(Rank(0), rma(RmaKind::Get, 200, 1, 0, 1));
        b.push(Rank(0), rma(RmaKind::Get, 200, 2, 0, 1));
        for r in 0..3u32 {
            b.push(Rank(r), EventKind::Fence { win: WinId(0) });
        }
        let errors = run(&b.build());
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].a.op, "MPI_Get");
        assert_eq!(errors[0].b.op, "MPI_Get");
    }

    #[test]
    fn loop_conflicts_deduplicated() {
        // The same source-level pair repeated 10 times reports once per
        // distinct finding class.
        let mut b = TraceBuilder::new(2);
        scaffold(&mut b, 2);
        for _ in 0..10 {
            b.push_at(Rank(0), rma(RmaKind::Get, 200, 1, 0, 1), SourceLoc::new("x.c", 5, "f"));
            b.push_at(
                Rank(0),
                EventKind::Load { addr: 200, len: 4 },
                SourceLoc::new("x.c", 4, "f"),
            );
        }
        close(&mut b, 2);
        let errors = run(&b.build());
        assert_eq!(
            errors.len(),
            2,
            "one get-vs-load and one get-vs-get finding, each deduplicated across iterations"
        );
    }

    #[test]
    fn conflicts_isolated_per_epoch() {
        // Get in epoch 1, load of the same buffer in epoch 2: the fence
        // orders them.
        let mut b = TraceBuilder::new(2);
        scaffold(&mut b, 2);
        b.push(Rank(0), rma(RmaKind::Get, 200, 1, 0, 1));
        close(&mut b, 2);
        b.push(Rank(0), EventKind::Load { addr: 200, len: 4 });
        close(&mut b, 2);
        assert!(run(&b.build()).is_empty());
    }

    // ------------------------------------------------------------------
    // MPI-3 cases.
    // ------------------------------------------------------------------

    fn fetch_op(origin: u64, result: u64, target: u32) -> EventKind {
        EventKind::RmaAtomic(AtomicOp {
            kind: AtomicKind::FetchAndOp(ReduceOp::Sum),
            win: WinId(0),
            target: Rank(target),
            origin_addr: origin,
            result_addr: result,
            compare_addr: None,
            count: 1,
            dtype: DatatypeId::INT,
            target_disp: 0,
        })
    }

    #[test]
    fn fetch_and_op_result_buffer_race() {
        // Reading the result buffer before the epoch closes is the MPI-3
        // analogue of Figure 6.
        let mut b = TraceBuilder::new(2);
        scaffold(&mut b, 2);
        b.push(Rank(0), fetch_op(200, 240, 1));
        b.push(Rank(0), EventKind::Load { addr: 240, len: 4 });
        close(&mut b, 2);
        let errors = run(&b.build());
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].a.op, "MPI_Fetch_and_op");
        assert_eq!(errors[0].b.op, "load");
    }

    #[test]
    fn fetch_and_op_operand_store_race() {
        let mut b = TraceBuilder::new(2);
        scaffold(&mut b, 2);
        b.push(Rank(0), fetch_op(200, 240, 1));
        b.push(Rank(0), EventKind::Store { addr: 200, len: 4 });
        close(&mut b, 2);
        assert_eq!(run(&b.build()).len(), 1, "operand overwritten while pending");
    }

    #[test]
    fn fetch_and_op_unrelated_access_fine() {
        let mut b = TraceBuilder::new(2);
        scaffold(&mut b, 2);
        b.push(Rank(0), fetch_op(200, 240, 1));
        b.push(Rank(0), EventKind::Load { addr: 300, len: 4 });
        // Reading the *operand* is also fine (both reads).
        b.push(Rank(0), EventKind::Load { addr: 200, len: 4 });
        close(&mut b, 2);
        assert!(run(&b.build()).is_empty());
    }

    #[test]
    fn same_op_atomics_overlap_at_target() {
        let mut b = TraceBuilder::new(2);
        scaffold(&mut b, 2);
        b.push(Rank(0), fetch_op(200, 240, 1));
        b.push(Rank(0), fetch_op(204, 244, 1));
        close(&mut b, 2);
        assert!(run(&b.build()).is_empty(), "same-op atomics may target the same cell");
    }

    #[test]
    fn atomic_vs_put_target_conflict() {
        let mut b = TraceBuilder::new(2);
        scaffold(&mut b, 2);
        b.push(Rank(0), fetch_op(200, 240, 1));
        b.push(Rank(0), rma(RmaKind::Put, 300, 1, 0, 1));
        close(&mut b, 2);
        let errors = run(&b.build());
        assert_eq!(errors.len(), 1, "Acc vs Put overlapping at the target");
    }

    #[test]
    fn waited_request_op_is_ordered() {
        // rput; wait; store origin — safe, the wait completes the op.
        let mut b = TraceBuilder::new(2);
        scaffold(&mut b, 2);
        b.push(
            Rank(0),
            EventKind::RmaReq {
                op: RmaOp {
                    kind: RmaKind::Put,
                    win: WinId(0),
                    target: Rank(1),
                    origin_addr: 200,
                    origin_count: 1,
                    origin_dtype: DatatypeId::INT,
                    target_disp: 0,
                    target_count: 1,
                    target_dtype: DatatypeId::INT,
                },
                req: 9,
            },
        );
        b.push(Rank(0), EventKind::WaitReq { req: 9 });
        b.push(Rank(0), EventKind::Store { addr: 200, len: 4 });
        close(&mut b, 2);
        assert!(run(&b.build()).is_empty(), "MPI_Wait completes the rput");
    }

    #[test]
    fn unwaited_request_op_races() {
        // rput; store origin; wait — the store is before completion.
        let mut b = TraceBuilder::new(2);
        scaffold(&mut b, 2);
        b.push(
            Rank(0),
            EventKind::RmaReq {
                op: RmaOp {
                    kind: RmaKind::Put,
                    win: WinId(0),
                    target: Rank(1),
                    origin_addr: 200,
                    origin_count: 1,
                    origin_dtype: DatatypeId::INT,
                    target_disp: 0,
                    target_count: 1,
                    target_dtype: DatatypeId::INT,
                },
                req: 9,
            },
        );
        b.push(Rank(0), EventKind::Store { addr: 200, len: 4 });
        b.push(Rank(0), EventKind::WaitReq { req: 9 });
        close(&mut b, 2);
        let errors = run(&b.build());
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].a.op, "MPI_Rput");
    }
}
