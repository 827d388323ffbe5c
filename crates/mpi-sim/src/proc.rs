//! The per-rank handle: the MPI-like API applications program against.
//!
//! A [`Proc`] is handed to each rank's closure by [`crate::run`]. It owns
//! the rank's datatype registry, epoch bookkeeping, event sink and RNG, and
//! talks to the other ranks through [`crate::shared::Shared`].
//!
//! # Memory accessors and instrumentation
//!
//! Application data lives in the rank's arena and is accessed through
//! typed accessors that mirror what compiled loads/stores would be:
//!
//! * `peek_*` / `poke_*` — never logged; building blocks for the IR
//!   interpreter and runtime-internal moves;
//! * `load_*` / `store_*` — ordinary program accesses; logged only under
//!   [`Instrument::All`] (the instrument-everything strawman);
//! * `tload_*` / `tstore_*` — accesses to *relevant* variables (window or
//!   RMA-origin buffers), i.e. the ones the paper's ST-Analyzer marks for
//!   instrumentation; logged under both `Relevant` and `All`.
//!
//! All logging captures the caller's source location via
//! `#[track_caller]`; [`Proc::set_func`] sets the routine name recorded in
//! diagnostics.

use crate::config::{DeliveryPolicy, Instrument, RecoveryPolicy, SimConfig};
use crate::datatype::{TypeInfo, TypeRegistry};
use crate::schedule::{ChoicePoint, Delivery, ScheduleOracle};
use crate::shared::{AbortReason, BlockSite, CollTag, Shared, WinInfo};
use crate::tracer::EventSink;
use mcc_types::{
    AtomicKind, AtomicOp, CommId, DataMap, DatatypeId, EventKind, GroupId, LocId, LockKind, Rank,
    ReduceOp, RmaKind, RmaOp, SourceLoc, Tag, WinId,
};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;
use std::panic::Location;
use std::sync::Arc;

/// A one-sided operation whose memory effect has not been applied yet.
#[derive(Debug, Clone)]
struct PendingOp {
    kind: RmaKind,
    target_abs: u32,
    origin_addr: u64,
    origin_map: DataMap,
    /// Absolute address of the operation's start in the target arena
    /// (window base + displacement).
    target_addr: u64,
    target_map: DataMap,
    basic: Option<DatatypeId>,
}

/// The per-rank MPI handle. See the module docs for the accessor taxonomy.
pub struct Proc {
    rank: u32,
    nprocs: u32,
    shared: Arc<Shared>,
    types: TypeRegistry,
    sink: EventSink,
    rng: ChaCha8Rng,
    delivery: DeliveryPolicy,
    /// Controlled scheduler for the adversarial choice points; `None`
    /// falls back to `rng` (the historical behaviour, bit-for-bit).
    oracle: Option<Arc<dyn ScheduleOracle>>,
    /// Delivery choices consulted so far — the per-rank choice index
    /// handed to the oracle.
    choices_made: u64,
    func: String,
    /// Bumped on `set_func` so the call-site cache never serves a stale
    /// routine name.
    func_epoch: u32,
    /// Interning cache keyed by `#[track_caller]` call-site identity —
    /// the hot path of instrumented accesses must not hash strings.
    loc_cache: HashMap<(usize, u32), LocId>,
    loc_override: Option<SourceLoc>,

    fence_pending: HashMap<u32, Vec<Pending>>,
    lock_pending: HashMap<(u32, u32), Vec<Pending>>,
    lock_held: HashMap<(u32, u32), LockKind>,
    lock_all_held: std::collections::HashSet<u32>,
    start_pending: HashMap<u32, Vec<Pending>>,
    start_group: HashMap<u32, Vec<u32>>,
    post_group: HashMap<u32, Vec<u32>>,
    pscw_post_seen: HashMap<(u32, u32), u64>,
    pscw_complete_seen: HashMap<(u32, u32), u64>,
    /// Request-based ops not yet waited: req → (win, target_abs).
    req_open: HashMap<u64, (u32, u32)>,
    /// Posted nonblocking receives: req → receive arguments.
    irecv_open: HashMap<u64, PostedRecv>,
    next_req: u64,

    // Fault-injection state (see `crate::config::Fault`).
    /// Abort once `events_seen` reaches this count.
    abort_after: Option<u64>,
    /// Recovery contract of the scheduled death ([`None`] when no
    /// terminal fault targets this rank).
    recover: Option<RecoveryPolicy>,
    /// Park forever at this synchronization-call index.
    hang_at: Option<u64>,
    /// Synchronization calls made so far (tracked only when `hang_at` is
    /// set, so unfaulted runs pay nothing).
    sync_seen: u64,
    /// Instrumentation points passed so far.
    events_seen: u64,
    /// Per-op probability (percent) of losing an RMA memory effect.
    drop_rma_pct: u8,
    /// Per-op probability (percent) of forcing AtClose delivery.
    delay_rma_pct: u8,
    /// Dedicated RNG for fault decisions, so injecting faults never
    /// perturbs the seeded delivery schedule.
    fault_rng: ChaCha8Rng,

    // Fault-tolerance state (failure notification, checkpoint/restore).
    /// RMA epochs this rank has *completed* (closing sync returned);
    /// recorded on the failure board when the rank dies survivably.
    epochs_closed: u64,
    /// Failed ranks already observed (and logged) by this rank.
    failures_seen: std::collections::HashSet<u32>,
    /// Latest in-memory checkpoint per window: `win -> (id, bytes)` of
    /// this rank's exposed segment.
    checkpoints: HashMap<u32, (u64, Vec<u8>)>,
    /// Fresh checkpoint-id counter.
    next_ckpt: u64,
}

/// A posted `MPI_Irecv`, completed by `wait_req`.
#[derive(Debug, Clone)]
struct PostedRecv {
    addr: u64,
    map: DataMap,
    comm: CommId,
    src_abs: u32,
    tag: u32,
}

/// A deferred one-sided operation, plain or atomic, optionally tied to a
/// request handle.
#[derive(Debug, Clone)]
enum Pending {
    Plain { op: PendingOp, req: Option<u64> },
    Atomic(PendingAtomic),
}

#[derive(Debug, Clone)]
struct PendingAtomic {
    kind: AtomicKind,
    target_abs: u32,
    origin_addr: u64,
    result_addr: u64,
    compare_addr: Option<u64>,
    count: u32,
    dtype: DatatypeId,
    target_addr: u64,
}

impl Proc {
    pub(crate) fn new(rank: u32, cfg: &SimConfig, shared: Arc<Shared>) -> Self {
        let resolved = cfg.faults.resolved_for_rank(rank);
        Self {
            rank,
            nprocs: cfg.nprocs,
            shared,
            types: TypeRegistry::new(),
            sink: EventSink::new(cfg.instrument, cfg.keep_events),
            rng: ChaCha8Rng::seed_from_u64(
                cfg.seed ^ (0x9e37_79b9_7f4a_7c15u64).wrapping_mul(rank as u64 + 1),
            ),
            delivery: cfg.delivery,
            oracle: cfg.oracle.clone(),
            choices_made: 0,
            func: "main".to_string(),
            func_epoch: 0,
            loc_cache: HashMap::new(),
            loc_override: None,
            fence_pending: HashMap::new(),
            lock_pending: HashMap::new(),
            lock_held: HashMap::new(),
            lock_all_held: std::collections::HashSet::new(),
            start_pending: HashMap::new(),
            start_group: HashMap::new(),
            post_group: HashMap::new(),
            pscw_post_seen: HashMap::new(),
            pscw_complete_seen: HashMap::new(),
            req_open: HashMap::new(),
            irecv_open: HashMap::new(),
            next_req: 0,
            abort_after: resolved.abort_after,
            recover: resolved.recover,
            hang_at: resolved.hang_at,
            sync_seen: 0,
            events_seen: 0,
            drop_rma_pct: resolved.drop_rma_pct,
            delay_rma_pct: resolved.delay_rma_pct,
            fault_rng: ChaCha8Rng::seed_from_u64(
                cfg.seed ^ (0xd1b5_4a32_d192_ed03u64).wrapping_mul(rank as u64 + 1),
            ),
            epochs_closed: 0,
            failures_seen: std::collections::HashSet::new(),
            checkpoints: HashMap::new(),
            next_ckpt: 0,
        }
    }

    pub(crate) fn into_sink(self) -> EventSink {
        let clean = self.fence_pending.values().all(Vec::is_empty)
            && self.lock_pending.values().all(Vec::is_empty)
            && self.start_pending.values().all(Vec::is_empty)
            && self.req_open.is_empty()
            && self.irecv_open.is_empty();
        if !clean {
            std::panic::panic_any(AbortReason::Protocol {
                rank: self.rank,
                message: "finished with unsynchronized RMA operations or unwaited receives \
                          in flight"
                    .to_string(),
            });
        }
        self.sink
    }

    /// Salvage path used by tolerant runs: hands back whatever the sink
    /// holds even when the rank exited (or died) mid-epoch with
    /// unsynchronized operations in flight.
    pub(crate) fn into_sink_lossy(self) -> EventSink {
        self.sink
    }

    // ------------------------------------------------------------------
    // Fault-injection hooks.
    // ------------------------------------------------------------------

    /// Per-instrumentation-point fault hook: kills the rank with a typed
    /// payload once its scheduled event budget is exhausted. A survivable
    /// recovery policy records the failure (rank + completed epochs) on
    /// the failure board first, so peers can complete collectives around
    /// this rank and log the notification; a plain abort poisons the run
    /// through the runner as before.
    fn fault_event_point(&mut self) {
        if let Some(after) = self.abort_after {
            if self.events_seen >= after {
                if self.recover.is_some_and(RecoveryPolicy::survivable) {
                    self.shared.record_failure(self.rank, self.epochs_closed);
                    std::panic::panic_any(AbortReason::InjectedFailure {
                        rank: self.rank,
                        after_events: after,
                    });
                }
                std::panic::panic_any(AbortReason::InjectedAbort {
                    rank: self.rank,
                    after_events: after,
                });
            }
        }
        self.events_seen += 1;
    }

    /// Logs `rank_failed` notifications for failures this rank has not
    /// observed yet. `failed` is the stand-in list a completed collective
    /// returned — already sorted by rank, and deterministic because such
    /// a collective can only complete once the failure is on the board.
    fn note_failures(&mut self, failed: &[(u32, u64)], loc: LocId) {
        for &(rank, epoch) in failed {
            if self.failures_seen.insert(rank) {
                self.sink.log_mpi(EventKind::RankFailed { failed: Rank(rank), epoch }, loc);
            }
        }
    }

    /// How many ranks sit in a blocking primitive right now; tests use it
    /// to force an interleaving.
    #[cfg(test)]
    pub(crate) fn blocked_ranks(&self) -> u32 {
        self.shared.ctl().blocked_count()
    }

    fn comm_members(&self, comm: CommId) -> Vec<u32> {
        self.shared.comms.read().members(comm).to_vec()
    }

    /// Per-synchronization-call fault hook: when the plan hangs this rank
    /// here, register as blocked and park until the abort protocol (rank
    /// failure or watchdog) wakes us to unwind.
    fn sync_point(&mut self, describe: impl FnOnce() -> String) {
        let Some(nth) = self.hang_at else { return };
        let n = self.sync_seen;
        self.sync_seen += 1;
        if n != nth {
            return;
        }
        self.shared
            .ctl()
            .enter_blocked(self.rank, BlockSite::InjectedHang { nth_sync: n, at: describe() });
        self.shared.hang()
    }

    // ------------------------------------------------------------------
    // Identity.
    // ------------------------------------------------------------------

    /// This rank's absolute rank (position in `MPI_COMM_WORLD`).
    pub fn rank(&self) -> u32 {
        self.rank
    }

    /// World size.
    pub fn size(&self) -> u32 {
        self.nprocs
    }

    /// Sets the routine name recorded in subsequent event locations.
    pub fn set_func(&mut self, name: &str) {
        if self.func != name {
            self.func = name.to_string();
            self.func_epoch += 1;
        }
    }

    /// `MPI_Comm_rank`: this rank's position in `comm` (logged support
    /// call). Panics if the rank is not a member.
    #[track_caller]
    pub fn comm_rank(&mut self, comm: CommId) -> u32 {
        let rel = self
            .shared
            .comms
            .read()
            .rel_rank(comm, self.rank)
            .unwrap_or_else(|| panic!("rank {} not in {comm}", self.rank));
        let loc = self.caller_loc();
        self.sink.log_mpi(EventKind::CommRank { comm, rank: Rank(rel) }, loc);
        rel
    }

    /// `MPI_Comm_size` (logged support call).
    #[track_caller]
    pub fn comm_size(&mut self, comm: CommId) -> u32 {
        let n = self.shared.comms.read().members(comm).len() as u32;
        let loc = self.caller_loc();
        self.sink.log_mpi(EventKind::CommSize { comm, size: n }, loc);
        n
    }

    // ------------------------------------------------------------------
    // Location plumbing.
    // ------------------------------------------------------------------

    #[track_caller]
    fn caller_loc(&mut self) -> LocId {
        // Every instrumentation point passes through here exactly once,
        // which makes it the natural clock for scheduled rank aborts.
        self.fault_event_point();
        if !self.sink.enabled() {
            return LocId::UNKNOWN;
        }
        if let Some(over) = self.loc_override.take() {
            let id = self.sink.intern(&over.file, over.line, &over.func);
            self.loc_override = Some(over);
            return id;
        }
        let c = Location::caller();
        // A `&'static Location` is one instance per call site, so its
        // address plus the current routine-name epoch identifies the
        // source location without hashing any strings.
        let key = (c as *const Location as usize, self.func_epoch);
        if let Some(&id) = self.loc_cache.get(&key) {
            return id;
        }
        let func = std::mem::take(&mut self.func);
        let id = self.sink.intern(c.file(), c.line(), &func);
        self.func = func;
        self.loc_cache.insert(key, id);
        id
    }

    /// Overrides the source location recorded for subsequent events —
    /// used by interpreters executing a program that has its own notion of
    /// source lines. `None` restores caller-location capture.
    pub fn set_loc_override(&mut self, loc: Option<SourceLoc>) {
        self.loc_override = loc;
    }

    /// Interns an explicit source location (used by the IR interpreter).
    pub fn intern_loc(&mut self, loc: &SourceLoc) -> LocId {
        self.sink.intern(&loc.file, loc.line, &loc.func)
    }

    // ------------------------------------------------------------------
    // Memory.
    // ------------------------------------------------------------------

    /// Allocates `len` zeroed bytes in this rank's arena.
    pub fn alloc(&mut self, len: u64) -> u64 {
        self.shared.arenas[self.rank as usize].lock().alloc(len)
    }

    /// Allocates an array of `n` `i32`s.
    pub fn alloc_i32s(&mut self, n: usize) -> u64 {
        self.alloc(4 * n as u64)
    }

    /// Allocates an array of `n` `f64`s.
    pub fn alloc_f64s(&mut self, n: usize) -> u64 {
        self.alloc(8 * n as u64)
    }

    /// Unlogged raw read (runtime-internal building block).
    pub fn peek_bytes(&self, addr: u64, len: u64) -> Vec<u8> {
        self.shared.arenas[self.rank as usize].lock().read(addr, len).to_vec()
    }

    /// Unlogged raw write.
    pub fn poke_bytes(&mut self, addr: u64, data: &[u8]) {
        self.shared.arenas[self.rank as usize].lock().write(addr, data);
    }

    /// Unlogged `i32` read.
    pub fn peek_i32(&self, addr: u64) -> i32 {
        self.shared.arenas[self.rank as usize].lock().read_i32(addr)
    }

    /// Unlogged `i32` write.
    pub fn poke_i32(&mut self, addr: u64, v: i32) {
        self.shared.arenas[self.rank as usize].lock().write_i32(addr, v);
    }

    /// Unlogged `f64` read.
    pub fn peek_f64(&self, addr: u64) -> f64 {
        self.shared.arenas[self.rank as usize].lock().read_f64(addr)
    }

    /// Unlogged `f64` write.
    pub fn poke_f64(&mut self, addr: u64, v: f64) {
        self.shared.arenas[self.rank as usize].lock().write_f64(addr, v);
    }

    /// Explicit-relevance logged access hook (IR interpreter entry point).
    pub fn log_mem_access(
        &mut self,
        store: bool,
        addr: u64,
        len: u64,
        relevant: bool,
        loc: &SourceLoc,
    ) {
        if !self.sink.enabled() {
            return;
        }
        let id = self.intern_loc(loc);
        let kind =
            if store { EventKind::Store { addr, len } } else { EventKind::Load { addr, len } };
        self.sink.log_mem(kind, id, relevant);
    }

    #[track_caller]
    fn logged_load(&mut self, addr: u64, len: u64, relevant: bool) {
        let record = match self.sink.instrument() {
            Instrument::Off => false,
            Instrument::Relevant => relevant,
            Instrument::All => true,
        };
        if record {
            let loc = self.caller_loc();
            self.sink.log_mem(EventKind::Load { addr, len }, loc, relevant);
        }
    }

    #[track_caller]
    fn logged_store(&mut self, addr: u64, len: u64, relevant: bool) {
        let record = match self.sink.instrument() {
            Instrument::Off => false,
            Instrument::Relevant => relevant,
            Instrument::All => true,
        };
        if record {
            let loc = self.caller_loc();
            self.sink.log_mem(EventKind::Store { addr, len }, loc, relevant);
        }
    }

    /// Ordinary (irrelevant) `i32` load; logged only under `All`.
    #[track_caller]
    pub fn load_i32(&mut self, addr: u64) -> i32 {
        self.logged_load(addr, 4, false);
        self.peek_i32(addr)
    }

    /// Ordinary `i32` store.
    #[track_caller]
    pub fn store_i32(&mut self, addr: u64, v: i32) {
        self.logged_store(addr, 4, false);
        self.poke_i32(addr, v);
    }

    /// Ordinary `f64` load.
    #[track_caller]
    pub fn load_f64(&mut self, addr: u64) -> f64 {
        self.logged_load(addr, 8, false);
        self.peek_f64(addr)
    }

    /// Ordinary `f64` store.
    #[track_caller]
    pub fn store_f64(&mut self, addr: u64, v: f64) {
        self.logged_store(addr, 8, false);
        self.poke_f64(addr, v);
    }

    /// Relevant `i32` load (instrumented by the ST-Analyzer report).
    #[track_caller]
    pub fn tload_i32(&mut self, addr: u64) -> i32 {
        self.logged_load(addr, 4, true);
        self.peek_i32(addr)
    }

    /// Relevant `i32` store.
    #[track_caller]
    pub fn tstore_i32(&mut self, addr: u64, v: i32) {
        self.logged_store(addr, 4, true);
        self.poke_i32(addr, v);
    }

    /// Relevant `f64` load.
    #[track_caller]
    pub fn tload_f64(&mut self, addr: u64) -> f64 {
        self.logged_load(addr, 8, true);
        self.peek_f64(addr)
    }

    /// Relevant `f64` store.
    #[track_caller]
    pub fn tstore_f64(&mut self, addr: u64, v: f64) {
        self.logged_store(addr, 8, true);
        self.poke_f64(addr, v);
    }

    // ------------------------------------------------------------------
    // Datatypes.
    // ------------------------------------------------------------------

    /// `MPI_Type_contiguous`.
    #[track_caller]
    pub fn type_contiguous(&mut self, count: u32, elem: DatatypeId) -> DatatypeId {
        let id = self.types.contiguous(count, elem);
        let loc = self.caller_loc();
        self.sink.log_mpi(EventKind::TypeContiguous { new: id, count, elem }, loc);
        id
    }

    /// `MPI_Type_vector` (stride in elements).
    #[track_caller]
    pub fn type_vector(
        &mut self,
        count: u32,
        blocklen: u32,
        stride: u32,
        elem: DatatypeId,
    ) -> DatatypeId {
        let id = self.types.vector(count, blocklen, stride, elem);
        let loc = self.caller_loc();
        self.sink.log_mpi(EventKind::TypeVector { new: id, count, blocklen, stride, elem }, loc);
        id
    }

    /// `MPI_Type_create_struct`: fields of `(byte displacement, count, type)`.
    #[track_caller]
    pub fn type_struct(&mut self, fields: &[(u64, u32, DatatypeId)]) -> DatatypeId {
        let id = self.types.structured(fields);
        let loc = self.caller_loc();
        self.sink.log_mpi(EventKind::TypeStruct { new: id, fields: fields.to_vec() }, loc);
        id
    }

    fn resolve(&self, dtype: DatatypeId) -> TypeInfo {
        self.types.resolve(dtype)
    }

    // ------------------------------------------------------------------
    // Groups and communicators.
    // ------------------------------------------------------------------

    /// `MPI_Comm_group`.
    #[track_caller]
    pub fn comm_group(&mut self, comm: CommId) -> GroupId {
        let g = self.shared.comms.read().comm_group(comm);
        let loc = self.caller_loc();
        self.sink.log_mpi(EventKind::CommGroup { comm, group: g }, loc);
        g
    }

    /// `MPI_Group_incl`: `ranks` are relative to `group`.
    #[track_caller]
    pub fn group_incl(&mut self, group: GroupId, ranks: &[u32]) -> GroupId {
        let g = self.shared.comms.write().group_incl(group, ranks);
        let loc = self.caller_loc();
        self.sink.log_mpi(EventKind::GroupIncl { old: group, new: g, ranks: ranks.to_vec() }, loc);
        g
    }

    /// `MPI_Comm_create`: collective over `comm`; members of `group` get
    /// the new communicator, everyone else `None`.
    #[track_caller]
    pub fn comm_create(&mut self, comm: CommId, group: GroupId) -> Option<CommId> {
        self.sync_point(|| "comm_create".to_string());
        let loc = self.caller_loc();
        let members = self.comm_members(comm);
        let me = self.rank;
        let shared = self.shared.clone();
        let point = self.shared.coll_point(comm);
        let (result, failed) =
            point.collective(&members, me, CollTag::CommCreate, Vec::new(), move |_| {
                let new = shared.comms.write().comm_create(group);
                new.0.to_le_bytes().to_vec()
            });
        let new = CommId(u32::from_le_bytes(result.try_into().expect("comm id payload")));
        let member = self.shared.comms.read().group_members(group).contains(&self.rank);
        let logged = member.then_some(new);
        self.sink.log_mpi(EventKind::CommCreate { old: comm, group, new: logged }, loc);
        self.note_failures(&failed, loc);
        logged
    }

    // ------------------------------------------------------------------
    // Point-to-point and collectives.
    // ------------------------------------------------------------------

    /// Blocking `MPI_Send` of `count` elements of `dtype` at `addr` to
    /// `dest` (comm-relative).
    #[track_caller]
    pub fn send(
        &mut self,
        addr: u64,
        count: u32,
        dtype: DatatypeId,
        dest: u32,
        tag: u32,
        comm: CommId,
    ) {
        let loc = self.caller_loc();
        let info = self.resolve(dtype);
        let map = info.map.tiled(count as u64);
        let data = self.gather(self.rank, addr, &map);
        let dst_abs = self.shared.comms.read().abs_rank(comm, dest);
        let bytes = data.len() as u64;
        self.shared.mailbox.send(comm, self.rank, dst_abs, tag, data);
        self.sink.log_mpi(EventKind::Send { comm, to: Rank(dest), tag: Tag(tag), bytes }, loc);
    }

    /// Blocking `MPI_Recv` from `src` (comm-relative); `tag` may be
    /// [`Tag::ANY`]'s raw value (`u32::MAX`). Returns the matched tag.
    #[track_caller]
    pub fn recv(
        &mut self,
        addr: u64,
        count: u32,
        dtype: DatatypeId,
        src: u32,
        tag: u32,
        comm: CommId,
    ) -> u32 {
        self.sync_point(|| format!("recv(rank {src})"));
        let loc = self.caller_loc();
        let info = self.resolve(dtype);
        let map = info.map.tiled(count as u64);
        let src_abs = self.shared.comms.read().abs_rank(comm, src);
        let (got_tag, data) = self.shared.mailbox.recv(comm, src_abs, self.rank, tag);
        assert_eq!(data.len() as u64, map.size(), "recv size mismatch");
        let bytes = data.len() as u64;
        self.scatter(self.rank, addr, &map, &data);
        self.sink.log_mpi(EventKind::Recv { comm, from: Rank(src), tag: Tag(got_tag), bytes }, loc);
        got_tag
    }

    /// Nonblocking `MPI_Isend`: the message is buffered immediately;
    /// complete the request with [`Proc::wait_req`].
    #[track_caller]
    pub fn isend(
        &mut self,
        addr: u64,
        count: u32,
        dtype: DatatypeId,
        dest: u32,
        tag: u32,
        comm: CommId,
    ) -> u64 {
        let loc = self.caller_loc();
        let info = self.resolve(dtype);
        let map = info.map.tiled(count as u64);
        let data = self.gather(self.rank, addr, &map);
        let dst_abs = self.shared.comms.read().abs_rank(comm, dest);
        let bytes = data.len() as u64;
        self.shared.mailbox.send(comm, self.rank, dst_abs, tag, data);
        let req = self.next_req;
        self.next_req += 1;
        self.sink
            .log_mpi(EventKind::Isend { comm, to: Rank(dest), tag: Tag(tag), bytes, req }, loc);
        req
    }

    /// Nonblocking `MPI_Irecv`: posts the receive; the buffer is filled
    /// when [`Proc::wait_req`] completes the request.
    #[track_caller]
    pub fn irecv(
        &mut self,
        addr: u64,
        count: u32,
        dtype: DatatypeId,
        src: u32,
        tag: u32,
        comm: CommId,
    ) -> u64 {
        let loc = self.caller_loc();
        let info = self.resolve(dtype);
        let map = info.map.tiled(count as u64);
        let src_abs = self.shared.comms.read().abs_rank(comm, src);
        let req = self.next_req;
        self.next_req += 1;
        self.irecv_open.insert(req, PostedRecv { addr, map, comm, src_abs, tag });
        self.sink.log_mpi(EventKind::Irecv { comm, from: Rank(src), tag: Tag(tag), req }, loc);
        req
    }

    /// `MPI_Barrier`.
    #[track_caller]
    pub fn barrier(&mut self, comm: CommId) {
        self.sync_point(|| "barrier".to_string());
        let loc = self.caller_loc();
        let members = self.comm_members(comm);
        let point = self.shared.coll_point(comm);
        let (_, failed) =
            point.collective(&members, self.rank, CollTag::Barrier, Vec::new(), |_| Vec::new());
        self.sink.log_mpi(EventKind::Barrier { comm }, loc);
        self.note_failures(&failed, loc);
    }

    /// `MPI_Bcast` of `count` elements of `dtype` at `addr`, rooted at
    /// `root` (comm-relative).
    #[track_caller]
    pub fn bcast(&mut self, addr: u64, count: u32, dtype: DatatypeId, root: u32, comm: CommId) {
        self.sync_point(|| "bcast".to_string());
        let loc = self.caller_loc();
        let info = self.resolve(dtype);
        let map = info.map.tiled(count as u64);
        let (_, rel) = self.comm_shape(comm);
        let members = self.comm_members(comm);
        let root_abs = self.shared.comms.read().abs_rank(comm, root);
        let contrib = if rel == root { self.gather(self.rank, addr, &map) } else { Vec::new() };
        let bytes = map.size();
        let point = self.shared.coll_point(comm);
        let (result, failed) = point.collective(
            &members,
            self.rank,
            CollTag::Bcast { root, bytes },
            contrib,
            move |c| c[&root_abs].clone(),
        );
        if rel != root {
            self.scatter(self.rank, addr, &map, &result);
        }
        self.sink.log_mpi(EventKind::Bcast { comm, root: Rank(root), bytes }, loc);
        self.note_failures(&failed, loc);
    }

    /// `MPI_Reduce` of primitive elements: `recv_addr` is significant only
    /// at the root.
    #[track_caller]
    #[allow(clippy::too_many_arguments)]
    pub fn reduce(
        &mut self,
        send_addr: u64,
        recv_addr: u64,
        count: u32,
        dtype: DatatypeId,
        op: ReduceOp,
        root: u32,
        comm: CommId,
    ) {
        self.sync_point(|| "reduce".to_string());
        let loc = self.caller_loc();
        let info = self.resolve(dtype);
        let basic = info.basic.expect("reduce requires a homogeneous datatype");
        let map = info.map.tiled(count as u64);
        let (_, rel) = self.comm_shape(comm);
        let members: Vec<u32> = self.shared.comms.read().members(comm).to_vec();
        let combine_members = members.clone();
        let contrib = self.gather(self.rank, send_addr, &map);
        let point = self.shared.coll_point(comm);
        let (result, failed) = point.collective(
            &members,
            self.rank,
            CollTag::Reduce { root, op, dtype, count },
            contrib,
            move |c| Shared::combine_reduce(c, &combine_members, op, basic),
        );
        if rel == root {
            self.scatter(self.rank, recv_addr, &map, &result);
        }
        self.sink.log_mpi(EventKind::Reduce { comm, root: Rank(root), bytes: map.size() }, loc);
        self.note_failures(&failed, loc);
    }

    /// `MPI_Allreduce`.
    #[track_caller]
    pub fn allreduce(
        &mut self,
        send_addr: u64,
        recv_addr: u64,
        count: u32,
        dtype: DatatypeId,
        op: ReduceOp,
        comm: CommId,
    ) {
        self.sync_point(|| "allreduce".to_string());
        let loc = self.caller_loc();
        let info = self.resolve(dtype);
        let basic = info.basic.expect("allreduce requires a homogeneous datatype");
        let map = info.map.tiled(count as u64);
        let members: Vec<u32> = self.shared.comms.read().members(comm).to_vec();
        let combine_members = members.clone();
        let contrib = self.gather(self.rank, send_addr, &map);
        let point = self.shared.coll_point(comm);
        let (result, failed) = point.collective(
            &members,
            self.rank,
            CollTag::Allreduce { op, dtype, count },
            contrib,
            move |c| Shared::combine_reduce(c, &combine_members, op, basic),
        );
        self.scatter(self.rank, recv_addr, &map, &result);
        self.sink.log_mpi(EventKind::Allreduce { comm, bytes: map.size() }, loc);
        self.note_failures(&failed, loc);
    }

    fn comm_shape(&self, comm: CommId) -> (u32, u32) {
        let t = self.shared.comms.read();
        let n = t.members(comm).len() as u32;
        let rel = t
            .rel_rank(comm, self.rank)
            .unwrap_or_else(|| panic!("rank {} not in {comm}", self.rank));
        (n, rel)
    }

    // ------------------------------------------------------------------
    // Windows and one-sided communication.
    // ------------------------------------------------------------------

    /// Collective `MPI_Win_create`: exposes `[base, base+len)` of this
    /// rank's arena.
    #[track_caller]
    pub fn win_create(&mut self, base: u64, len: u64, comm: CommId) -> WinId {
        self.sync_point(|| "win_create".to_string());
        let loc = self.caller_loc();
        let shared = self.shared.clone();
        let members: Vec<u32> = self.shared.comms.read().members(comm).to_vec();
        let combine_members = members.clone();
        let mut contrib = Vec::with_capacity(16);
        contrib.extend_from_slice(&base.to_le_bytes());
        contrib.extend_from_slice(&len.to_le_bytes());
        let point = self.shared.coll_point(comm);
        let (result, failed) =
            point.collective(&members, self.rank, CollTag::WinCreate, contrib, move |c| {
                let id = shared.fresh_win_id();
                let ranks = combine_members
                    .iter()
                    .map(|m| {
                        let b = &c[m];
                        (
                            u64::from_le_bytes(b[0..8].try_into().unwrap()),
                            u64::from_le_bytes(b[8..16].try_into().unwrap()),
                        )
                    })
                    .collect();
                shared.wins.write().insert(id.0, WinInfo { comm, ranks, generation: 0 });
                id.0.to_le_bytes().to_vec()
            });
        let win = WinId(u32::from_le_bytes(result.try_into().expect("win id payload")));
        self.sink.log_mpi(EventKind::WinCreate { win, base, len, comm }, loc);
        self.note_failures(&failed, loc);
        win
    }

    /// Collective `MPI_Win_free`.
    #[track_caller]
    pub fn win_free(&mut self, win: WinId) {
        self.sync_point(|| format!("win_free({win})"));
        let loc = self.caller_loc();
        assert!(
            self.fence_pending.get(&win.0).is_none_or(Vec::is_empty),
            "win_free with unsynchronized operations on {win}"
        );
        let comm = self.win_comm(win);
        let members = self.comm_members(comm);
        let point = self.shared.coll_point(comm);
        let (_, failed) =
            point.collective(&members, self.rank, CollTag::WinFree { win }, Vec::new(), |_| {
                Vec::new()
            });
        self.sink.log_mpi(EventKind::WinFree { win }, loc);
        self.note_failures(&failed, loc);
    }

    fn win_comm(&self, win: WinId) -> CommId {
        self.shared.wins.read().get(&win.0).unwrap_or_else(|| panic!("unknown {win}")).comm
    }

    fn win_target(&self, win: WinId, target_rel: u32) -> (u32, u64, u64) {
        let wins = self.shared.wins.read();
        let info = wins.get(&win.0).unwrap_or_else(|| panic!("unknown {win}"));
        let abs = self.shared.comms.read().abs_rank(info.comm, target_rel);
        let (base, len) = info.ranks[target_rel as usize];
        (abs, base, len)
    }

    /// `MPI_Win_fence`: closes (and reopens) the active-target epoch,
    /// applying every pending operation; collective over the window's
    /// communicator.
    #[track_caller]
    pub fn win_fence(&mut self, win: WinId) {
        self.sync_point(|| format!("fence({win})"));
        let loc = self.caller_loc();
        let pending = self.fence_pending.remove(&win.0).unwrap_or_default();
        for op in &pending {
            self.apply_pending(op);
        }
        let comm = self.win_comm(win);
        let members = self.comm_members(comm);
        let point = self.shared.coll_point(comm);
        let (_, failed) =
            point.collective(&members, self.rank, CollTag::Fence { win }, Vec::new(), |_| {
                Vec::new()
            });
        self.epochs_closed += 1;
        self.sink.log_mpi(EventKind::Fence { win }, loc);
        self.note_failures(&failed, loc);
    }

    // ------------------------------------------------------------------
    // Fault tolerance: notification, re-exposure, checkpoint/restore
    // (Besta & Hoefler's recovery idioms).
    // ------------------------------------------------------------------

    /// Ranks known (to the runtime) to have failed survivably, sorted.
    /// Unlogged query for recovery control flow; the *observation* of a
    /// failure in the trace is the `rank_failed` marker logged at a
    /// collective synchronization.
    pub fn failed_ranks(&self) -> Vec<u32> {
        self.shared.ctl().failed_snapshot().into_iter().map(|(r, _)| r).collect()
    }

    /// Current exposure generation of `win` (0 until the first
    /// re-exposure). Unlogged query.
    pub fn win_generation(&self, win: WinId) -> u32 {
        self.shared.wins.read().get(&win.0).unwrap_or_else(|| panic!("unknown {win}")).generation
    }

    /// Collective window re-exposure: opens a fresh epoch *generation*
    /// over the same memory (the `MPI_Win_free` + re-create recovery
    /// idiom, without invalidating the handle). Completes around failed
    /// members; returns the new generation. Any RMA operation issued
    /// against the previous generation that lands after this call is a
    /// lost update — the checker flags it.
    #[track_caller]
    pub fn win_reexpose(&mut self, win: WinId) -> u32 {
        self.sync_point(|| format!("win_reexpose({win})"));
        let loc = self.caller_loc();
        let comm = self.win_comm(win);
        let members = self.comm_members(comm);
        let shared = self.shared.clone();
        let point = self.shared.coll_point(comm);
        let (result, failed) = point.collective(
            &members,
            self.rank,
            CollTag::Reexpose { win },
            Vec::new(),
            move |_| {
                let mut wins = shared.wins.write();
                let info = wins.get_mut(&win.0).expect("re-exposure of unknown window");
                info.generation += 1;
                info.generation.to_le_bytes().to_vec()
            },
        );
        let generation = u32::from_le_bytes(result.try_into().expect("generation payload"));
        self.epochs_closed += 1;
        self.sink.log_mpi(EventKind::WinReexpose { win, generation }, loc);
        self.note_failures(&failed, loc);
        generation
    }

    /// Takes a seeded in-memory checkpoint of this rank's exposed segment
    /// of `win`; returns the checkpoint id. Only the latest checkpoint
    /// per window is retained.
    #[track_caller]
    pub fn checkpoint(&mut self, win: WinId) -> u64 {
        let loc = self.caller_loc();
        let (base, len) = self.win_self_segment(win);
        let data = self.peek_bytes(base, len);
        let id = self.next_ckpt;
        self.next_ckpt += 1;
        self.checkpoints.insert(win.0, (id, data));
        self.sink.log_mpi(EventKind::Checkpoint { win, id }, loc);
        id
    }

    /// Rolls this rank's exposed segment of `win` back to its latest
    /// checkpoint (writes the snapshot back into the arena).
    ///
    /// # Panics
    /// Panics if no checkpoint was taken for `win`.
    #[track_caller]
    pub fn restore(&mut self, win: WinId) -> u64 {
        let loc = self.caller_loc();
        let (base, _) = self.win_self_segment(win);
        let (id, data) = self
            .checkpoints
            .get(&win.0)
            .cloned()
            .unwrap_or_else(|| panic!("restore of {win} without a checkpoint"));
        self.poke_bytes(base, &data);
        self.sink.log_mpi(EventKind::Restore { win, id }, loc);
        id
    }

    /// This rank's own exposed `(base, len)` segment of `win`.
    fn win_self_segment(&self, win: WinId) -> (u64, u64) {
        let wins = self.shared.wins.read();
        let info = wins.get(&win.0).unwrap_or_else(|| panic!("unknown {win}"));
        let rel = self
            .shared
            .comms
            .read()
            .rel_rank(info.comm, self.rank)
            .unwrap_or_else(|| panic!("rank {} not in {win}'s communicator", self.rank));
        info.ranks[rel as usize]
    }

    /// `MPI_Win_lock` on `target` (comm-relative).
    #[track_caller]
    pub fn win_lock(&mut self, kind: LockKind, target: u32, win: WinId) {
        self.sync_point(|| format!("lock({win}, target {target})"));
        let loc = self.caller_loc();
        let (abs, _, _) = self.win_target(win, target);
        self.shared.winlocks.lock(self.rank, win, abs, kind == LockKind::Exclusive);
        self.lock_held.insert((win.0, abs), kind);
        self.sink.log_mpi(EventKind::Lock { win, target: Rank(target), kind }, loc);
    }

    /// `MPI_Win_unlock`: applies the epoch's pending operations, then
    /// releases the lock.
    #[track_caller]
    pub fn win_unlock(&mut self, target: u32, win: WinId) {
        self.sync_point(|| format!("unlock({win}, target {target})"));
        let loc = self.caller_loc();
        let (abs, _, _) = self.win_target(win, target);
        let kind = self
            .lock_held
            .remove(&(win.0, abs))
            .unwrap_or_else(|| panic!("unlock of {win} target {target} without lock"));
        let pending = self.lock_pending.remove(&(win.0, abs)).unwrap_or_default();
        for op in &pending {
            self.apply_pending(op);
        }
        self.shared.winlocks.unlock(win, abs, kind == LockKind::Exclusive);
        self.epochs_closed += 1;
        self.sink.log_mpi(EventKind::Unlock { win, target: Rank(target) }, loc);
    }

    /// `MPI_Win_post`: opens an exposure epoch towards the origins in
    /// `group`.
    #[track_caller]
    pub fn win_post(&mut self, group: GroupId, win: WinId) {
        self.sync_point(|| format!("post({win})"));
        let loc = self.caller_loc();
        let origins: Vec<u32> = self.shared.comms.read().group_members(group).to_vec();
        self.shared.pscw.post(win, self.rank, &origins);
        self.post_group.insert(win.0, origins);
        self.sink.log_mpi(EventKind::Post { win, group }, loc);
    }

    /// `MPI_Win_start`: opens an access epoch towards the targets in
    /// `group`; blocks until all targets have posted.
    #[track_caller]
    pub fn win_start(&mut self, group: GroupId, win: WinId) {
        self.sync_point(|| format!("start({win})"));
        let loc = self.caller_loc();
        let targets: Vec<u32> = self.shared.comms.read().group_members(group).to_vec();
        self.shared.pscw.start(win, self.rank, &targets, &mut self.pscw_post_seen);
        self.start_group.insert(win.0, targets);
        self.sink.log_mpi(EventKind::Start { win, group }, loc);
    }

    /// `MPI_Win_complete`: closes the access epoch, applying its pending
    /// operations and signalling the targets.
    #[track_caller]
    pub fn win_complete(&mut self, win: WinId) {
        self.sync_point(|| format!("complete({win})"));
        let loc = self.caller_loc();
        let pending = self.start_pending.remove(&win.0).unwrap_or_default();
        for op in &pending {
            self.apply_pending(op);
        }
        let targets = self
            .start_group
            .remove(&win.0)
            .unwrap_or_else(|| panic!("win_complete on {win} without win_start"));
        self.shared.pscw.complete(win, self.rank, &targets);
        self.epochs_closed += 1;
        self.sink.log_mpi(EventKind::Complete { win }, loc);
    }

    /// `MPI_Win_wait`: closes the exposure epoch, blocking until every
    /// origin has completed.
    #[track_caller]
    pub fn win_wait(&mut self, win: WinId) {
        self.sync_point(|| format!("wait({win})"));
        let loc = self.caller_loc();
        let origins = self
            .post_group
            .remove(&win.0)
            .unwrap_or_else(|| panic!("win_wait on {win} without win_post"));
        self.shared.pscw.wait(win, self.rank, &origins, &mut self.pscw_complete_seen);
        self.epochs_closed += 1;
        self.sink.log_mpi(EventKind::WaitWin { win }, loc);
    }

    /// Nonblocking `MPI_Put`.
    #[track_caller]
    #[allow(clippy::too_many_arguments)]
    pub fn put(
        &mut self,
        origin_addr: u64,
        origin_count: u32,
        origin_dtype: DatatypeId,
        target: u32,
        target_disp: u64,
        target_count: u32,
        target_dtype: DatatypeId,
        win: WinId,
    ) {
        let loc = self.caller_loc();
        self.rma(
            RmaKind::Put,
            origin_addr,
            origin_count,
            origin_dtype,
            target,
            target_disp,
            target_count,
            target_dtype,
            win,
            loc,
        );
    }

    /// Nonblocking `MPI_Get`.
    #[track_caller]
    #[allow(clippy::too_many_arguments)]
    pub fn get(
        &mut self,
        origin_addr: u64,
        origin_count: u32,
        origin_dtype: DatatypeId,
        target: u32,
        target_disp: u64,
        target_count: u32,
        target_dtype: DatatypeId,
        win: WinId,
    ) {
        let loc = self.caller_loc();
        self.rma(
            RmaKind::Get,
            origin_addr,
            origin_count,
            origin_dtype,
            target,
            target_disp,
            target_count,
            target_dtype,
            win,
            loc,
        );
    }

    /// Nonblocking `MPI_Accumulate`.
    #[track_caller]
    #[allow(clippy::too_many_arguments)]
    pub fn accumulate(
        &mut self,
        origin_addr: u64,
        origin_count: u32,
        origin_dtype: DatatypeId,
        target: u32,
        target_disp: u64,
        target_count: u32,
        target_dtype: DatatypeId,
        op: ReduceOp,
        win: WinId,
    ) {
        let loc = self.caller_loc();
        self.rma(
            RmaKind::Acc(op),
            origin_addr,
            origin_count,
            origin_dtype,
            target,
            target_disp,
            target_count,
            target_dtype,
            win,
            loc,
        );
    }

    // ------------------------------------------------------------------
    // MPI-3 one-sided extensions.
    // ------------------------------------------------------------------

    /// MPI-3 `MPI_Win_lock_all`: opens a shared passive epoch towards
    /// every member of the window. Locks are acquired in rank order to
    /// stay deadlock-free against concurrent exclusive locks.
    #[track_caller]
    pub fn win_lock_all(&mut self, win: WinId) {
        self.sync_point(|| format!("lock_all({win})"));
        let loc = self.caller_loc();
        let comm = self.win_comm(win);
        let members: Vec<u32> = self.shared.comms.read().members(comm).to_vec();
        for &m in &members {
            self.shared.winlocks.lock(self.rank, win, m, false);
        }
        self.lock_all_held.insert(win.0);
        self.sink.log_mpi(EventKind::LockAll { win }, loc);
    }

    /// MPI-3 `MPI_Win_unlock_all`: applies every pending operation of the
    /// epoch and releases all locks.
    #[track_caller]
    pub fn win_unlock_all(&mut self, win: WinId) {
        self.sync_point(|| format!("unlock_all({win})"));
        let loc = self.caller_loc();
        assert!(self.lock_all_held.remove(&win.0), "unlock_all without lock_all on {win}");
        let keys: Vec<(u32, u32)> =
            self.lock_pending.keys().filter(|(w, _)| *w == win.0).copied().collect();
        for key in keys {
            let pending = self.lock_pending.remove(&key).unwrap_or_default();
            for op in &pending {
                self.apply_pending(op);
            }
        }
        let comm = self.win_comm(win);
        let members: Vec<u32> = self.shared.comms.read().members(comm).to_vec();
        for &m in &members {
            self.shared.winlocks.unlock(win, m, false);
        }
        self.epochs_closed += 1;
        self.sink.log_mpi(EventKind::UnlockAll { win }, loc);
    }

    /// MPI-3 `MPI_Win_flush`: completes all pending operations to
    /// `target` (comm-relative) without closing the passive epoch.
    #[track_caller]
    pub fn win_flush(&mut self, target: u32, win: WinId) {
        self.sync_point(|| format!("flush({win}, target {target})"));
        let loc = self.caller_loc();
        let (abs, _, _) = self.win_target(win, target);
        let pending = self.lock_pending.remove(&(win.0, abs)).unwrap_or_default();
        for op in &pending {
            self.apply_pending(op);
        }
        self.sink.log_mpi(EventKind::Flush { win, target: Rank(target) }, loc);
    }

    /// MPI-3 `MPI_Win_flush_all`.
    #[track_caller]
    pub fn win_flush_all(&mut self, win: WinId) {
        self.sync_point(|| format!("flush_all({win})"));
        let loc = self.caller_loc();
        let keys: Vec<(u32, u32)> =
            self.lock_pending.keys().filter(|(w, _)| *w == win.0).copied().collect();
        for key in keys {
            let pending = self.lock_pending.remove(&key).unwrap_or_default();
            for op in &pending {
                self.apply_pending(op);
            }
        }
        self.sink.log_mpi(EventKind::FlushAll { win }, loc);
    }

    /// MPI-3 `MPI_Rput`: request-based put; complete with
    /// [`Proc::wait_req`] (or the epoch close).
    #[track_caller]
    #[allow(clippy::too_many_arguments)]
    pub fn rput(
        &mut self,
        origin_addr: u64,
        origin_count: u32,
        origin_dtype: DatatypeId,
        target: u32,
        target_disp: u64,
        target_count: u32,
        target_dtype: DatatypeId,
        win: WinId,
    ) -> u64 {
        let loc = self.caller_loc();
        self.rma_req(
            RmaKind::Put,
            origin_addr,
            origin_count,
            origin_dtype,
            target,
            target_disp,
            target_count,
            target_dtype,
            win,
            loc,
        )
    }

    /// MPI-3 `MPI_Rget`.
    #[track_caller]
    #[allow(clippy::too_many_arguments)]
    pub fn rget(
        &mut self,
        origin_addr: u64,
        origin_count: u32,
        origin_dtype: DatatypeId,
        target: u32,
        target_disp: u64,
        target_count: u32,
        target_dtype: DatatypeId,
        win: WinId,
    ) -> u64 {
        let loc = self.caller_loc();
        self.rma_req(
            RmaKind::Get,
            origin_addr,
            origin_count,
            origin_dtype,
            target,
            target_disp,
            target_count,
            target_dtype,
            win,
            loc,
        )
    }

    /// `MPI_Wait` on a request: completes a request-based RMA operation
    /// or a posted nonblocking receive (isend requests complete
    /// trivially — the message was buffered at the call).
    #[track_caller]
    pub fn wait_req(&mut self, req: u64) {
        self.sync_point(|| format!("wait(req {req})"));
        let loc = self.caller_loc();
        if let Some(rx) = self.irecv_open.remove(&req) {
            let (_tag, data) = self.shared.mailbox.recv(rx.comm, rx.src_abs, self.rank, rx.tag);
            assert_eq!(data.len() as u64, rx.map.size(), "irecv size mismatch");
            self.scatter(self.rank, rx.addr, &rx.map, &data);
            self.sink.log_mpi(EventKind::WaitReq { req }, loc);
            return;
        }
        if let Some((win, target_abs)) = self.req_open.remove(&req) {
            // Pull the matching pending op out of whichever bucket holds
            // it and apply it now.
            let matcher =
                |p: &Pending| matches!(p, Pending::Plain { req: Some(r), .. } if *r == req);
            let mut found = None;
            if let Some(b) = self.lock_pending.get_mut(&(win, target_abs)) {
                if let Some(pos) = b.iter().position(matcher) {
                    found = Some(b.remove(pos));
                }
            }
            if found.is_none() {
                if let Some(b) = self.start_pending.get_mut(&win) {
                    if let Some(pos) = b.iter().position(matcher) {
                        found = Some(b.remove(pos));
                    }
                }
            }
            if found.is_none() {
                if let Some(b) = self.fence_pending.get_mut(&win) {
                    if let Some(pos) = b.iter().position(matcher) {
                        found = Some(b.remove(pos));
                    }
                }
            }
            if let Some(Pending::Plain { op, .. }) = found {
                self.apply(&op);
            }
        }
        self.sink.log_mpi(EventKind::WaitReq { req }, loc);
    }

    /// MPI-3 `MPI_Fetch_and_op`: atomically fetches the old single-element
    /// target value into `result_addr` and combines `origin_addr` into the
    /// target.
    #[track_caller]
    #[allow(clippy::too_many_arguments)]
    pub fn fetch_and_op(
        &mut self,
        origin_addr: u64,
        result_addr: u64,
        dtype: DatatypeId,
        target: u32,
        target_disp: u64,
        op: ReduceOp,
        win: WinId,
    ) {
        let loc = self.caller_loc();
        self.atomic(
            AtomicKind::FetchAndOp(op),
            origin_addr,
            result_addr,
            None,
            1,
            dtype,
            target,
            target_disp,
            win,
            loc,
        );
    }

    /// MPI-3 `MPI_Get_accumulate`.
    #[track_caller]
    #[allow(clippy::too_many_arguments)]
    pub fn get_accumulate(
        &mut self,
        origin_addr: u64,
        result_addr: u64,
        count: u32,
        dtype: DatatypeId,
        target: u32,
        target_disp: u64,
        op: ReduceOp,
        win: WinId,
    ) {
        let loc = self.caller_loc();
        self.atomic(
            AtomicKind::GetAccumulate(op),
            origin_addr,
            result_addr,
            None,
            count,
            dtype,
            target,
            target_disp,
            win,
            loc,
        );
    }

    /// MPI-3 `MPI_Compare_and_swap`.
    #[track_caller]
    #[allow(clippy::too_many_arguments)]
    pub fn compare_and_swap(
        &mut self,
        origin_addr: u64,
        compare_addr: u64,
        result_addr: u64,
        dtype: DatatypeId,
        target: u32,
        target_disp: u64,
        win: WinId,
    ) {
        let loc = self.caller_loc();
        self.atomic(
            AtomicKind::CompareAndSwap,
            origin_addr,
            result_addr,
            Some(compare_addr),
            1,
            dtype,
            target,
            target_disp,
            win,
            loc,
        );
    }

    #[allow(clippy::too_many_arguments)]
    fn atomic(
        &mut self,
        kind: AtomicKind,
        origin_addr: u64,
        result_addr: u64,
        compare_addr: Option<u64>,
        count: u32,
        dtype: DatatypeId,
        target: u32,
        target_disp: u64,
        win: WinId,
        loc: LocId,
    ) {
        let elem = dtype.primitive_size().expect("atomics require a basic datatype");
        let (target_abs, win_base, win_len) = self.win_target(win, target);
        assert!(
            target_disp + elem * count as u64 <= win_len,
            "{kind}: access past the end of {win} at target {target}"
        );
        self.sink.log_mpi(
            EventKind::RmaAtomic(AtomicOp {
                kind,
                win,
                target: Rank(target),
                origin_addr,
                result_addr,
                compare_addr,
                count,
                dtype,
                target_disp,
            }),
            loc,
        );
        let pending = Pending::Atomic(PendingAtomic {
            kind,
            target_abs,
            origin_addr,
            result_addr,
            compare_addr,
            count,
            dtype,
            target_addr: win_base + target_disp,
        });
        self.defer_or_apply(win, target_abs, pending);
    }

    #[allow(clippy::too_many_arguments)]
    fn rma_req(
        &mut self,
        kind: RmaKind,
        origin_addr: u64,
        origin_count: u32,
        origin_dtype: DatatypeId,
        target: u32,
        target_disp: u64,
        target_count: u32,
        target_dtype: DatatypeId,
        win: WinId,
        loc: LocId,
    ) -> u64 {
        let req = self.next_req;
        self.next_req += 1;
        let origin_info = self.resolve(origin_dtype);
        let target_info = self.resolve(target_dtype);
        let origin_map = origin_info.map.tiled(origin_count as u64);
        let target_map = target_info.map.tiled(target_count as u64);
        assert_eq!(origin_map.size(), target_map.size(), "{kind}: byte counts differ");
        let (target_abs, win_base, win_len) = self.win_target(win, target);
        assert!(
            target_disp + target_map.span() <= win_len,
            "{kind}: access past the end of {win} at target {target}"
        );
        self.sink.log_mpi(
            EventKind::RmaReq {
                op: RmaOp {
                    kind,
                    win,
                    target: Rank(target),
                    origin_addr,
                    origin_count,
                    origin_dtype,
                    target_disp,
                    target_count,
                    target_dtype,
                },
                req,
            },
            loc,
        );
        let op = PendingOp {
            kind,
            target_abs,
            origin_addr,
            origin_map,
            target_addr: win_base + target_disp,
            target_map,
            basic: origin_info.basic,
        };
        self.req_open.insert(req, (win.0, target_abs));
        self.defer_or_apply(win, target_abs, Pending::Plain { op, req: Some(req) });
        req
    }

    #[allow(clippy::too_many_arguments)]
    fn rma(
        &mut self,
        kind: RmaKind,
        origin_addr: u64,
        origin_count: u32,
        origin_dtype: DatatypeId,
        target: u32,
        target_disp: u64,
        target_count: u32,
        target_dtype: DatatypeId,
        win: WinId,
        loc: LocId,
    ) {
        let origin_info = self.resolve(origin_dtype);
        let target_info = self.resolve(target_dtype);
        let origin_map = origin_info.map.tiled(origin_count as u64);
        let target_map = target_info.map.tiled(target_count as u64);
        assert_eq!(
            origin_map.size(),
            target_map.size(),
            "{kind}: origin/target byte counts differ"
        );
        let (target_abs, win_base, win_len) = self.win_target(win, target);
        assert!(
            target_disp + target_map.span() <= win_len,
            "{kind}: access past the end of {win} at target {target} (disp {target_disp} + span {} > len {win_len})",
            target_map.span()
        );
        let basic = match kind {
            RmaKind::Acc(_) => {
                Some(origin_info.basic.expect("accumulate requires a homogeneous origin datatype"))
            }
            _ => origin_info.basic,
        };
        let op = PendingOp {
            kind,
            target_abs,
            origin_addr,
            origin_map,
            target_addr: win_base + target_disp,
            target_map,
            basic,
        };
        self.sink.log_mpi(
            EventKind::Rma(RmaOp {
                kind,
                win,
                target: Rank(target),
                origin_addr,
                origin_count,
                origin_dtype,
                target_disp,
                target_count,
                target_dtype,
            }),
            loc,
        );
        self.defer_or_apply(win, target_abs, Pending::Plain { op, req: None });
    }

    /// Applies the operation now (eager delivery) or queues it into the
    /// epoch that will complete it: a held passive-target lock (or
    /// lock_all) on the target, an open PSCW access epoch, or the ambient
    /// fence epoch. Request-tied operations always defer so `wait_req`
    /// has something to complete.
    fn defer_or_apply(&mut self, win: WinId, target_abs: u32, pending: Pending) {
        // Injected delivery faults: a dropped operation's memory effect
        // vanishes entirely (the call was already logged, so trace and
        // memory now disagree); a delayed one is forced to the closing
        // synchronization even under eager delivery.
        if self.drop_rma_pct > 0
            && self.fault_rng.gen_range(0..100u32) < u32::from(self.drop_rma_pct)
        {
            if let Pending::Plain { req: Some(req), .. } = &pending {
                self.req_open.remove(req);
            }
            return;
        }
        let delayed = self.delay_rma_pct > 0
            && self.fault_rng.gen_range(0..100u32) < u32::from(self.delay_rma_pct);
        let is_req = matches!(pending, Pending::Plain { req: Some(_), .. });
        let eager = !is_req
            && !delayed
            && match self.delivery {
                DeliveryPolicy::Eager => true,
                DeliveryPolicy::AtClose => false,
                DeliveryPolicy::Adversarial => match self.oracle.clone() {
                    None => self.rng.gen_bool(0.5),
                    Some(oracle) => {
                        let index = self.choices_made;
                        self.choices_made += 1;
                        // The operation was logged just before this call,
                        // so the last event of this rank's log is the one
                        // the answer controls.
                        let event_idx = if self.sink.enabled() {
                            Some(self.sink.events_logged().saturating_sub(1))
                        } else {
                            None
                        };
                        let choice = ChoicePoint { rank: self.rank, index, event_idx };
                        oracle.decide(choice) == Delivery::Eager
                    }
                },
            };
        if eager {
            self.apply_pending(&pending);
            return;
        }
        if self.lock_held.contains_key(&(win.0, target_abs)) || self.lock_all_held.contains(&win.0)
        {
            self.lock_pending.entry((win.0, target_abs)).or_default().push(pending);
        } else if self.start_group.contains_key(&win.0) {
            self.start_pending.entry(win.0).or_default().push(pending);
        } else {
            self.fence_pending.entry(win.0).or_default().push(pending);
        }
    }

    fn apply_pending(&mut self, pending: &Pending) {
        match pending {
            Pending::Plain { op, req } => {
                self.apply(op);
                if let Some(req) = req {
                    self.req_open.remove(req);
                }
            }
            Pending::Atomic(op) => self.apply_atomic(op),
        }
    }

    fn gather(&self, rank_abs: u32, base: u64, map: &DataMap) -> Vec<u8> {
        let arena = self.shared.arenas[rank_abs as usize].lock();
        let mut out = Vec::with_capacity(map.size() as usize);
        for seg in map.segments() {
            out.extend_from_slice(arena.read(base + seg.disp, seg.len));
        }
        out
    }

    fn scatter(&self, rank_abs: u32, base: u64, map: &DataMap, data: &[u8]) {
        debug_assert_eq!(data.len() as u64, map.size());
        let mut arena = self.shared.arenas[rank_abs as usize].lock();
        let mut off = 0usize;
        for seg in map.segments() {
            arena.write(base + seg.disp, &data[off..off + seg.len as usize]);
            off += seg.len as usize;
        }
    }

    /// Applies an atomic read-modify-write: the fetch of the old value and
    /// the update happen under one target-arena lock (element-wise
    /// atomicity, as MPI-3 guarantees for predefined datatypes).
    fn apply_atomic(&mut self, op: &PendingAtomic) {
        let elem = op.dtype.primitive_size().expect("atomics use basic datatypes");
        let len = elem * op.count as u64;
        let operand = self.peek_bytes(op.origin_addr, len);
        let compare = op.compare_addr.map(|c| self.peek_bytes(c, len));
        let old = {
            let mut arena = self.shared.arenas[op.target_abs as usize].lock();
            let old = arena.read(op.target_addr, len).to_vec();
            match op.kind {
                AtomicKind::GetAccumulate(rop) | AtomicKind::FetchAndOp(rop) => {
                    let mut current = old.clone();
                    crate::reduce::reduce_bytes(rop, op.dtype, &mut current, &operand);
                    arena.write(op.target_addr, &current);
                }
                AtomicKind::CompareAndSwap => {
                    if old == *compare.as_ref().expect("CAS carries a compare buffer") {
                        arena.write(op.target_addr, &operand);
                    }
                }
            }
            old
        };
        // The fetched value lands in the local result buffer.
        self.poke_bytes(op.result_addr, &old);
    }

    fn apply(&self, op: &PendingOp) {
        match op.kind {
            RmaKind::Put => {
                let data = self.gather(self.rank, op.origin_addr, &op.origin_map);
                self.scatter(op.target_abs, op.target_addr, &op.target_map, &data);
            }
            RmaKind::Get => {
                let data = self.gather(op.target_abs, op.target_addr, &op.target_map);
                self.scatter(self.rank, op.origin_addr, &op.origin_map, &data);
            }
            RmaKind::Acc(rop) => {
                let data = self.gather(self.rank, op.origin_addr, &op.origin_map);
                let basic = op.basic.expect("accumulate basic datatype");
                // Read-modify-write under a single target arena lock so
                // concurrent same-op accumulates never lose updates (the
                // combination MPI explicitly permits).
                let mut arena = self.shared.arenas[op.target_abs as usize].lock();
                let mut current = Vec::with_capacity(op.target_map.size() as usize);
                for seg in op.target_map.segments() {
                    current.extend_from_slice(arena.read(op.target_addr + seg.disp, seg.len));
                }
                crate::reduce::reduce_bytes(rop, basic, &mut current, &data);
                let mut off = 0usize;
                for seg in op.target_map.segments() {
                    arena.write(op.target_addr + seg.disp, &current[off..off + seg.len as usize]);
                    off += seg.len as usize;
                }
            }
        }
    }
}
