//! Raw conflicting pairs: what the detectors emit, before any finding is
//! built.
//!
//! A trace can contain thousands of conflicting pairs that all repeat one
//! source-level conflict (a loop of `MPI_Get`s into one buffer), and the
//! canonical merge keeps one representative per source-level conflict.
//! So the detectors emit compact [`RawPair`]s: event references, scope,
//! rule, severity, the contended regions, and just enough context to
//! phrase the explanation later. The merge sorts and deduplicates the
//! pairs on small keys ([`RawPair::canonical_key`], and
//! [`RawPair::dedup_key`] over call-site ids), and only the survivors become
//! [`ConsistencyError`]s ([`RawPair::to_error`]). The survivors and their
//! text are exactly what building every finding first and then
//! deduplicating would give: the two keys order and group pairs the way
//! [`ConsistencyError::canonical_key`] and
//! [`ConsistencyError::dedup_key`] order and group the built findings.

use crate::report::{Confidence, ConsistencyError, ErrorScope, OpInfo, Severity};
use mcc_types::{compat, AccessClass, ConflictKind, EventRef, MemRegion, Rank, SourceLoc, Trace};
use std::collections::{HashMap, HashSet};

/// One side of a pair: the event, the memory it contends, and its epoch
/// index (RMA operations only).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Side {
    pub(crate) ev: EventRef,
    pub(crate) region: Option<MemRegion>,
    pub(crate) epoch: Option<u32>,
}

/// Why the pair conflicts: the context its explanation needs, captured
/// when the pair is found.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Cause {
    /// Two operations of one epoch access the same local buffer.
    SharedBuffer {
        /// The epoch's closing synchronization, if the trace has one.
        close: Option<EventRef>,
    },
    /// Two operations of one epoch update overlapping window memory at
    /// one target.
    SameTarget { classes: (AccessClass, AccessClass), target: Rank },
    /// A pending operation (side `a`) against a load or store (side `b`)
    /// of its local buffer.
    PendingBuffer {
        /// Whether the operation writes the accessed memory (else it
        /// reads it).
        writes: bool,
        close: Option<EventRef>,
    },
    /// Two one-sided operations reach `target`'s window unordered.
    Remote { classes: (AccessClass, AccessClass), target: Rank },
    /// A remote operation (side `a`) against the target's own load or
    /// store of window memory (side `b`).
    RemoteVsLocal { rma: AccessClass, target: Rank, is_store: bool },
}

/// A conflicting pair, oriented as its finding will be.
#[derive(Debug)]
pub(crate) struct RawPair {
    pub(crate) a: Side,
    pub(crate) b: Side,
    pub(crate) scope: ErrorScope,
    pub(crate) kind: ConflictKind,
    pub(crate) severity: Severity,
    pub(crate) cause: Cause,
}

/// Call-site ids for deduplication: sites with equal `(file, line)` get
/// equal ids, across ranks, so ids compare as the sites' strings do.
pub(crate) struct Sites {
    /// Per rank, the id of each interned location.
    ids: Vec<Vec<u32>>,
    /// The id of the unknown location, for events without one.
    unknown: u32,
}

impl Sites {
    pub(crate) fn new(trace: &Trace) -> Self {
        let mut index: HashMap<(&str, u32), u32> = HashMap::new();
        let mut id = |file, line| {
            let next = index.len() as u32;
            *index.entry((file, line)).or_insert(next)
        };
        let unknown = SourceLoc::unknown();
        let unknown = id(unknown.file.as_str(), unknown.line);
        let ids = trace.procs.iter().map(|p| p.locs.iter().map(|l| id(&l.file, l.line)).collect());
        Sites { ids: ids.collect(), unknown }
    }

    /// `(site id, call name)` of an event.
    fn of(&self, trace: &Trace, ev: EventRef) -> (u32, &'static str) {
        let e = trace.event(ev);
        let site = self.ids[ev.rank.idx()].get(e.loc.0 as usize).copied();
        (site.unwrap_or(self.unknown), e.kind.call_name())
    }
}

/// The deduplication key of a pair: scope, rule, and the unordered pair
/// of `(site id, call name)`.
type DedupKey = (ErrorScope, ConflictKind, (u32, &'static str), (u32, &'static str));

impl RawPair {
    /// [`ConsistencyError::canonical_key`] of the finding this pair
    /// builds.
    pub(crate) fn canonical_key(&self) -> (EventRef, EventRef, u64, u64) {
        let off = |s: &Side| s.region.map_or(u64::MAX, |r| r.base);
        (self.a.ev, self.b.ev, off(&self.a), off(&self.b))
    }

    /// The counterpart of [`ConsistencyError::dedup_key`], equal exactly
    /// when the built findings' keys are equal: that string is scope,
    /// rule and the unordered pair of `file:line:call` texts, which are
    /// injective (the line is numeric and call names hold no colon), and
    /// a site id stands for its `(file, line)`.
    pub(crate) fn dedup_key(&self, trace: &Trace, sites: &Sites) -> DedupKey {
        let (sa, sb) = (sites.of(trace, self.a.ev), sites.of(trace, self.b.ev));
        let (lo, hi) = if sa <= sb { (sa, sb) } else { (sb, sa) };
        (self.scope, self.kind, lo, hi)
    }

    /// Builds the finding.
    pub(crate) fn to_error(&self, trace: &Trace) -> ConsistencyError {
        let side = |s: &Side| OpInfo::from_trace(trace, s.ev, s.region).with_epoch(s.epoch);
        ConsistencyError {
            severity: self.severity,
            scope: self.scope,
            a: side(&self.a),
            b: side(&self.b),
            kind: self.kind,
            explanation: self.explain(trace),
            confidence: Confidence::Complete,
        }
    }

    fn explain(&self, trace: &Trace) -> String {
        let close_desc = |close: Option<EventRef>| match close {
            Some(c) => format!("{} at {}", trace.event(c).kind.call_name(), trace.loc_of(c)),
            None => "never closed in this trace".to_string(),
        };
        match self.cause {
            Cause::SharedBuffer { close } => format!(
                "both operations access the same local buffer while nonblocking \
                     and unordered within the epoch (at least one updates it); \
                     the result is undefined until the epoch closes at {}",
                close_desc(close)
            ),
            Cause::SameTarget { classes: (a, b), target } => format!(
                "unordered {a} and {b} update overlapping window memory at target \
                     {target} within one epoch (Table I: {})",
                compat(a, b)
            ),
            Cause::PendingBuffer { writes, close } => format!(
                "the nonblocking {} {}; the {} of the same memory races with it \
                     (close: {})",
                trace.event(self.a.ev).kind.call_name(),
                if writes {
                    "writes local memory at an undefined time before it completes"
                } else {
                    "reads its local buffer at an undefined time before it completes"
                },
                trace.event(self.b.ev).kind.call_name(),
                close_desc(close),
            ),
            Cause::Remote { classes: (a, b), target } => format!(
                "concurrent {a} and {b} reach the window of {target} with no happens-before or \
                 consistency ordering between them"
            ),
            Cause::RemoteVsLocal { rma, target, is_store } => format!(
                "a remote {rma} to {target}'s window is concurrent with the target's own {} of \
                 window memory",
                if is_store { "store" } else { "load" }
            ),
        }
    }
}

/// Keeps the first pair of each dedup key, in the order given.
pub(crate) fn dedup(trace: &Trace, sites: &Sites, pairs: &mut Vec<RawPair>) {
    let mut seen = HashSet::new();
    pairs.retain(|p| seen.insert(p.dedup_key(trace, sites)));
}

/// The canonical merge: a stable sort by canonical key, then the first
/// pair of each dedup key, so the representative of a repeated conflict
/// is its canonically smallest occurrence whatever order the pairs
/// arrived in. Builds findings for the survivors only.
pub(crate) fn merge(
    trace: &Trace,
    sites: &Sites,
    mut pairs: Vec<RawPair>,
) -> Vec<ConsistencyError> {
    pairs.sort_by_key(RawPair::canonical_key);
    dedup(trace, sites, &mut pairs);
    pairs.iter().map(|p| p.to_error(trace)).collect()
}
