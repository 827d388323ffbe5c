//! Global runtime state shared by all rank threads.
//!
//! Everything here is internal machinery behind [`crate::Proc`]'s API:
//! per-rank arenas, the communicator/group/window registries, a generic
//! collective-rendezvous engine, the point-to-point mailbox, passive-target
//! window locks, and the post/start/complete/wait counters.
//!
//! Lock discipline: no thread ever holds two arena locks at once (RMA
//! transfers stage through a flat buffer), and registry locks are never
//! held while blocking on a condition variable.
//!
//! Wake-up protocol: every blocking primitive keeps its state in a
//! [`Gate`] and waits on it without a timeout. A waiter re-checks its
//! condition, the poison flag and the failure board while holding the
//! gate's mutex. Whoever changes one of them notifies: a primitive's own
//! state change notifies its gate, and poisoning the run or recording a
//! failure ([`Shared::trigger_abort`], [`Shared::declare_deadlock`],
//! [`Shared::record_failure`]) wakes every gate. A wake-up takes the
//! gate's mutex first, so it cannot slip between a waiter's check and its
//! wait.

use crate::memory::Arena;
use crate::reduce::reduce_bytes;
use mcc_types::{CommId, DatatypeId, GroupId, ReduceOp, WinId};
use parking_lot::{Condvar, Mutex, MutexGuard, RwLock};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

/// Typed panic payload for every unwind the simulator itself raises.
/// The runner downcasts to this to tell a root-cause failure from the
/// collateral unwinding of its peers (instead of matching panic-message
/// prefixes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AbortReason {
    /// Another rank failed (or the watchdog fired); this rank's unwind is
    /// collateral, not a root cause.
    PeerFailure,
    /// Fault injection killed this rank on schedule.
    InjectedAbort {
        /// The rank that was killed.
        rank: u32,
        /// The event count the abort was scheduled after.
        after_events: u64,
    },
    /// Fault injection killed this rank with a *survivable* recovery
    /// policy: the failure is recorded on the failure board, peers are
    /// notified at their next collective synchronization, and the run is
    /// NOT poisoned — survivors keep going without the dead rank.
    InjectedFailure {
        /// The rank that failed.
        rank: u32,
        /// The event count the failure was scheduled after.
        after_events: u64,
    },
    /// The rank broke the simulator's MPI protocol rules (e.g. exited
    /// with unsynchronized RMA operations in flight).
    Protocol {
        /// The offending rank.
        rank: u32,
        /// What was violated.
        message: String,
    },
}

/// What a blocked rank is waiting on, registered with [`Ctl`] so the
/// deadlock watchdog can name the primitive in its verdict.
#[derive(Debug, Clone, PartialEq)]
pub enum BlockSite {
    /// Waiting inside a collective rendezvous.
    Collective(CollTag),
    /// Waiting in `MPI_Recv` for a message from `src` (absolute rank).
    Recv {
        /// Absolute source rank.
        src: u32,
        /// Tag being matched (`u32::MAX` is the wildcard).
        tag: u32,
    },
    /// Waiting to acquire a passive-target window lock.
    WinLock {
        /// The window.
        win: WinId,
        /// Absolute target rank whose lock is contended.
        target: u32,
    },
    /// Waiting in `MPI_Win_start` for a target's post.
    PscwStart {
        /// The window.
        win: WinId,
        /// Absolute target rank that has not posted.
        target: u32,
    },
    /// Waiting in `MPI_Win_wait` for an origin's complete.
    PscwWait {
        /// The window.
        win: WinId,
        /// Absolute origin rank that has not completed.
        origin: u32,
    },
    /// Parked by an injected [`crate::config::Fault::HangAtSync`].
    InjectedHang {
        /// Index of the synchronization call the rank hung at.
        nth_sync: u64,
        /// Description of the call the rank would have made.
        at: String,
    },
}

impl fmt::Display for BlockSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlockSite::Collective(CollTag::Fence { win }) => write!(f, "fence({win})"),
            BlockSite::Collective(CollTag::Barrier) => write!(f, "barrier"),
            BlockSite::Collective(tag) => write!(f, "collective {tag:?}"),
            BlockSite::Recv { src, tag } if *tag == u32::MAX => {
                write!(f, "recv from rank {src} (any tag)")
            }
            BlockSite::Recv { src, tag } => write!(f, "recv from rank {src} (tag {tag})"),
            BlockSite::WinLock { win, target } => write!(f, "lock({win}, target {target})"),
            BlockSite::PscwStart { win, target } => {
                write!(f, "win_start({win}) awaiting post from rank {target}")
            }
            BlockSite::PscwWait { win, origin } => {
                write!(f, "win_wait({win}) awaiting complete from rank {origin}")
            }
            BlockSite::InjectedHang { nth_sync, at } => {
                write!(f, "injected hang at sync call #{nth_sync} ({at})")
            }
        }
    }
}

/// A primitive's mutex-guarded state and the condition variable its
/// waiters sleep on.
pub(crate) struct Gate<T> {
    state: Mutex<T>,
    cv: Condvar,
}

impl<T> Gate<T> {
    fn new(state: T) -> Self {
        Self { state: Mutex::new(state), cv: Condvar::new() }
    }

    fn lock(&self) -> MutexGuard<'_, T> {
        self.state.lock()
    }

    /// Sleeps until notified, unwinding first if the run is poisoned.
    fn wait(&self, ctl: &Ctl, guard: &mut MutexGuard<'_, T>) {
        ctl.check_abort();
        self.cv.wait(guard);
    }

    /// Wakes every waiter after a change outside the gate's state (the
    /// poison flag or the failure board). Taking the mutex orders this
    /// after any waiter's check-then-wait, so the waiter is either asleep
    /// (and woken here) or has not checked yet (and will see the change).
    fn wake(&self) {
        drop(self.state.lock());
        self.cv.notify_all();
    }
}

/// Run-wide control block: the poison flag, a global progress counter,
/// the blocked-rank registry, and the watchdog's verdict. Shared (via
/// `Arc`) by every blocking primitive, each rank thread, the watchdog and
/// the runner.
pub struct Ctl {
    abort: AtomicBool,
    /// Bumped by every action that can unblock a peer (message deposit,
    /// lock release, PSCW signal, collective completion, block exit).
    /// Blocked waiters sleep without bumping, so a stalled counter plus a
    /// fully-blocked rank set is a sound deadlock signal.
    progress: AtomicU64,
    /// Ranks still running (spawned and not yet returned or panicked).
    alive: AtomicU32,
    /// `rank -> site` for every rank currently inside a blocking wait.
    blocked: Mutex<HashMap<u32, BlockSite>>,
    /// The watchdog's verdict, set at most once.
    deadlock: Mutex<Option<Vec<(u32, String)>>>,
    /// Failure board: `(rank, epochs_completed)` for every rank that died
    /// under a survivable [`crate::config::RecoveryPolicy`], in failure
    /// order. Collectives complete around these ranks, and survivors log
    /// `rank_failed` notifications from this board.
    failed: Mutex<Vec<(u32, u64)>>,
}

impl Ctl {
    /// Creates the control block for `n` ranks.
    pub fn new(n: u32) -> Self {
        Self {
            abort: AtomicBool::new(false),
            progress: AtomicU64::new(0),
            alive: AtomicU32::new(n),
            blocked: Mutex::new(HashMap::new()),
            deadlock: Mutex::new(None),
            failed: Mutex::new(Vec::new()),
        }
    }

    /// Raises the poison flag. Blocked ranks see it once woken
    /// ([`Shared::trigger_abort`] does both).
    pub fn trigger_abort(&self) {
        self.abort.store(true, Ordering::SeqCst);
    }

    /// Whether the poison flag is raised.
    pub fn aborted(&self) -> bool {
        self.abort.load(Ordering::SeqCst)
    }

    /// Panics with [`AbortReason::PeerFailure`] if the run is poisoned.
    /// Every blocking wait calls this before each sleep.
    pub fn check_abort(&self) {
        if self.aborted() {
            std::panic::panic_any(AbortReason::PeerFailure);
        }
    }

    /// Records one unit of global progress.
    pub fn bump(&self) {
        self.progress.fetch_add(1, Ordering::Relaxed);
    }

    /// Current progress count.
    pub fn progress(&self) -> u64 {
        self.progress.load(Ordering::Relaxed)
    }

    /// Number of ranks still running.
    pub fn alive(&self) -> u32 {
        self.alive.load(Ordering::SeqCst)
    }

    /// Marks a rank as finished (returned or panicked): it no longer
    /// counts towards the all-blocked deadlock condition.
    pub fn rank_done(&self, rank: u32) {
        self.blocked.lock().remove(&rank);
        self.alive.fetch_sub(1, Ordering::SeqCst);
        self.bump();
    }

    /// Registers `rank` as blocked on `site`.
    pub fn enter_blocked(&self, rank: u32, site: BlockSite) {
        self.blocked.lock().insert(rank, site);
    }

    /// Clears `rank`'s blocked registration; counts as progress.
    pub fn exit_blocked(&self, rank: u32) {
        self.blocked.lock().remove(&rank);
        self.bump();
    }

    /// How many ranks are currently registered blocked.
    pub fn blocked_count(&self) -> u32 {
        self.blocked.lock().len() as u32
    }

    /// Snapshot of the blocked registry as `(rank, description)`, sorted
    /// by rank.
    pub fn blocked_snapshot(&self) -> Vec<(u32, String)> {
        let mut v: Vec<(u32, String)> =
            self.blocked.lock().iter().map(|(r, s)| (*r, s.to_string())).collect();
        v.sort_by_key(|(r, _)| *r);
        v
    }

    /// Records the watchdog's verdict (first writer wins) and raises the
    /// poison flag; [`Shared::declare_deadlock`] also wakes the blocked
    /// ranks so they unwind.
    pub fn declare_deadlock(&self, blocked: Vec<(u32, String)>) {
        let mut d = self.deadlock.lock();
        if d.is_none() {
            *d = Some(blocked);
        }
        drop(d);
        self.trigger_abort();
    }

    /// Takes the deadlock verdict, if one was declared.
    pub fn take_deadlock(&self) -> Option<Vec<(u32, String)>> {
        self.deadlock.lock().take()
    }

    /// Records a survivable rank failure on the failure board: the rank
    /// and how many RMA epochs it had *completed* when it died. Counts as
    /// progress because it can complete a collective the survivors are
    /// blocked in; [`Shared::record_failure`] also wakes them.
    pub fn record_failure(&self, rank: u32, epochs_completed: u64) {
        let mut f = self.failed.lock();
        if !f.iter().any(|(r, _)| *r == rank) {
            f.push((rank, epochs_completed));
        }
        drop(f);
        self.bump();
    }

    /// Snapshot of the failure board, sorted by rank.
    pub fn failed_snapshot(&self) -> Vec<(u32, u64)> {
        let mut v = self.failed.lock().clone();
        v.sort_by_key(|(r, _)| *r);
        v
    }

    /// How many of `members` are on the failure board.
    pub fn failed_among(&self, members: &[u32]) -> u32 {
        let f = self.failed.lock();
        members.iter().filter(|m| f.iter().any(|(r, _)| r == *m)).count() as u32
    }
}

/// Identifies which collective a rank is participating in, so mismatched
/// collectives (a real application bug) fail fast instead of deadlocking.
/// Variant fields carry the arguments every member must agree on.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)]
pub enum CollTag {
    /// `MPI_Barrier`
    Barrier,
    /// `MPI_Bcast`
    Bcast { root: u32, bytes: u64 },
    /// `MPI_Reduce`
    Reduce { root: u32, op: ReduceOp, dtype: DatatypeId, count: u32 },
    /// `MPI_Allreduce`
    Allreduce { op: ReduceOp, dtype: DatatypeId, count: u32 },
    /// `MPI_Win_create`
    WinCreate,
    /// `MPI_Win_free`
    WinFree { win: WinId },
    /// `MPI_Win_fence`
    Fence { win: WinId },
    /// `MPI_Comm_create`. Group handles are process-local, so they are
    /// not part of the tag (each member legitimately holds a different
    /// handle for the same logical group).
    CommCreate,
    /// `win_reexpose` — the fault-tolerance re-exposure collective: a new
    /// epoch generation over the same window memory (Besta & Hoefler's
    /// window re-creation idiom).
    Reexpose { win: WinId },
}

#[derive(Default)]
struct CollSlot {
    gen: u64,
    arrived: u32,
    tag: Option<CollTag>,
    /// Contribution of each member, keyed by absolute rank.
    contrib: HashMap<u32, Vec<u8>>,
    result: Vec<u8>,
    /// Members whose recorded failure stood in for their arrival when the
    /// last generation completed, as `(rank, epochs_completed)` sorted by
    /// rank. This is every member's deterministic failure-observation
    /// point: such a collective can only complete *because* the failure
    /// was recorded, so its position in each survivor's log is fixed by
    /// program order, not by thread scheduling.
    failed: Vec<(u32, u64)>,
}

/// One rendezvous point per communicator.
pub struct CollPoint {
    slot: Gate<CollSlot>,
    ctl: Arc<Ctl>,
}

impl CollPoint {
    /// Creates a rendezvous point tied to the run's control block.
    pub fn new(ctl: Arc<Ctl>) -> Self {
        Self { slot: Gate::new(CollSlot::default()), ctl }
    }

    /// Executes one collective over `members`: blocks until every *live*
    /// member arrives, then every arriver returns `combine`'s result plus
    /// the failed members whose recorded failure stood in for their
    /// arrival. `combine` runs exactly once, while the slot is locked.
    ///
    /// Failure awareness: a member on the failure board never arrives, so
    /// the collective completes once `arrived + failed == n`. Recording a
    /// failure wakes the waiters (a member may die *while* the others are
    /// already blocked here), and the first to re-check becomes the
    /// completer. The dead member contributes nothing; combiners that need
    /// every member's contribution (reductions rooted at or spanning the
    /// dead rank) are outside the recovery contract and will panic.
    pub fn collective<F>(
        &self,
        members: &[u32],
        me: u32,
        tag: CollTag,
        contrib: Vec<u8>,
        combine: F,
    ) -> (Vec<u8>, Vec<(u32, u64)>)
    where
        F: FnOnce(&HashMap<u32, Vec<u8>>) -> Vec<u8>,
    {
        let n = members.len() as u32;
        let mut combine = Some(combine);
        let mut s = self.slot.lock();
        match &s.tag {
            None => s.tag = Some(tag.clone()),
            Some(t) => assert_eq!(
                *t, tag,
                "collective mismatch on communicator: rank {me} called {tag:?}, others {t:?}"
            ),
        }
        let my_gen = s.gen;
        s.contrib.insert(me, contrib);
        s.arrived += 1;
        let mut registered = false;
        loop {
            if s.gen != my_gen {
                // Someone else completed this generation.
                break;
            }
            if s.arrived + self.ctl.failed_among(members) >= n {
                // A member can never be both arrived and on the board
                // within one generation (death only happens at
                // instrumentation points, never inside the rendezvous),
                // so the failed members are exactly the non-arrivers.
                let failed: Vec<(u32, u64)> = self
                    .ctl
                    .failed_snapshot()
                    .into_iter()
                    .filter(|(r, _)| members.contains(r) && !s.contrib.contains_key(r))
                    .collect();
                s.result = (combine.take().expect("combine runs once"))(&s.contrib);
                s.failed = failed;
                s.contrib.clear();
                s.arrived = 0;
                s.tag = None;
                s.gen += 1;
                self.ctl.bump();
                self.slot.cv.notify_all();
                break;
            }
            if !registered {
                self.ctl.enter_blocked(me, BlockSite::Collective(tag.clone()));
                registered = true;
            }
            self.slot.wait(&self.ctl, &mut s);
        }
        if registered {
            self.ctl.exit_blocked(me);
        }
        (s.result.clone(), s.failed.clone())
    }
}

/// Group and communicator registry. Groups are lists of absolute ranks;
/// each communicator is backed by a group.
pub struct CommTable {
    groups: Vec<Vec<u32>>,
    /// `comms[c]` is the group index backing communicator `c`.
    comms: Vec<u32>,
}

impl CommTable {
    /// World group/communicator for `n` ranks.
    pub fn new(n: u32) -> Self {
        Self { groups: vec![(0..n).collect()], comms: vec![0] }
    }

    /// Members (absolute ranks) of a communicator, in group order.
    pub fn members(&self, comm: CommId) -> &[u32] {
        &self.groups[self.comms[comm.0 as usize] as usize]
    }

    /// Members of a group.
    pub fn group_members(&self, group: GroupId) -> &[u32] {
        &self.groups[group.0 as usize]
    }

    /// Translates a comm-relative rank to an absolute rank.
    pub fn abs_rank(&self, comm: CommId, rel: u32) -> u32 {
        self.members(comm)[rel as usize]
    }

    /// Translates an absolute rank to its position in a communicator.
    pub fn rel_rank(&self, comm: CommId, abs: u32) -> Option<u32> {
        self.members(comm).iter().position(|&r| r == abs).map(|p| p as u32)
    }

    /// `MPI_Group_incl`: registers a new group containing the listed
    /// (old-group-relative) members of `old`.
    pub fn group_incl(&mut self, old: GroupId, ranks: &[u32]) -> GroupId {
        let old_members = self.groups[old.0 as usize].clone();
        let new: Vec<u32> = ranks.iter().map(|&r| old_members[r as usize]).collect();
        self.groups.push(new);
        GroupId((self.groups.len() - 1) as u32)
    }

    /// Registers a communicator backed by `group`.
    pub fn comm_create(&mut self, group: GroupId) -> CommId {
        self.comms.push(group.0);
        CommId((self.comms.len() - 1) as u32)
    }

    /// The group backing a communicator.
    pub fn comm_group(&self, comm: CommId) -> GroupId {
        GroupId(self.comms[comm.0 as usize])
    }
}

/// Window registry entry: the communicator the window was created over and
/// each member's exposed `(base, len)`, indexed by member position.
#[derive(Debug, Clone)]
pub struct WinInfo {
    /// Communicator the window spans.
    pub comm: CommId,
    /// `(base, len)` per member position.
    pub ranks: Vec<(u64, u64)>,
    /// Exposure generation: 0 at `win_create`, bumped by each
    /// `win_reexpose` after a failure. Same memory, fresh epoch lineage.
    pub generation: u32,
}

/// One queued message: `(tag, payload)`.
type QueuedMsg = (u32, Vec<u8>);

/// Message FIFOs keyed by `(comm, src, dst)`.
type Queues = HashMap<(u32, u32, u32), VecDeque<QueuedMsg>>;

/// Point-to-point mailbox: per `(comm, src, dst)` FIFO of `(tag, payload)`.
pub struct Mailbox {
    queues: Gate<Queues>,
    ctl: Arc<Ctl>,
}

impl Mailbox {
    /// Creates a mailbox tied to the run's control block.
    pub fn new(ctl: Arc<Ctl>) -> Self {
        Self { queues: Gate::new(HashMap::new()), ctl }
    }

    /// Deposits a message (buffered standard-mode send: does not block).
    pub fn send(&self, comm: CommId, src_abs: u32, dst_abs: u32, tag: u32, data: Vec<u8>) {
        let mut q = self.queues.lock();
        q.entry((comm.0, src_abs, dst_abs)).or_default().push_back((tag, data));
        self.ctl.bump();
        self.queues.cv.notify_all();
    }

    /// Blocks until a message with a matching tag is available and removes
    /// it. `tag == u32::MAX` is the wildcard.
    pub fn recv(&self, comm: CommId, src_abs: u32, dst_abs: u32, tag: u32) -> (u32, Vec<u8>) {
        let key = (comm.0, src_abs, dst_abs);
        let mut q = self.queues.lock();
        let mut registered = false;
        loop {
            if let Some(dq) = q.get_mut(&key) {
                let pos = if tag == u32::MAX {
                    if dq.is_empty() {
                        None
                    } else {
                        Some(0)
                    }
                } else {
                    dq.iter().position(|(t, _)| *t == tag)
                };
                if let Some(pos) = pos {
                    if registered {
                        self.ctl.exit_blocked(dst_abs);
                    }
                    return dq.remove(pos).expect("position just found");
                }
            }
            if !registered {
                self.ctl.enter_blocked(dst_abs, BlockSite::Recv { src: src_abs, tag });
                registered = true;
            }
            self.queues.wait(&self.ctl, &mut q);
        }
    }
}

#[derive(Default, Debug)]
struct LockSt {
    exclusive: bool,
    shared: u32,
}

/// Passive-target window locks, one logical lock per `(window, target)`.
pub struct WinLocks {
    locks: Gate<HashMap<(u32, u32), LockSt>>,
    ctl: Arc<Ctl>,
}

impl WinLocks {
    /// Creates the lock table tied to the run's control block.
    pub fn new(ctl: Arc<Ctl>) -> Self {
        Self { locks: Gate::new(HashMap::new()), ctl }
    }

    /// Acquires the lock for `origin` (absolute rank, used for blocked-
    /// rank bookkeeping), blocking until compatible.
    pub fn lock(&self, origin: u32, win: WinId, target_abs: u32, exclusive: bool) {
        let key = (win.0, target_abs);
        let mut map = self.locks.lock();
        let mut registered = false;
        loop {
            let st = map.entry(key).or_default();
            let grantable = if exclusive { !st.exclusive && st.shared == 0 } else { !st.exclusive };
            if grantable {
                if exclusive {
                    st.exclusive = true;
                } else {
                    st.shared += 1;
                }
                if registered {
                    self.ctl.exit_blocked(origin);
                }
                return;
            }
            if !registered {
                self.ctl.enter_blocked(origin, BlockSite::WinLock { win, target: target_abs });
                registered = true;
            }
            self.locks.wait(&self.ctl, &mut map);
        }
    }

    /// Releases the lock.
    pub fn unlock(&self, win: WinId, target_abs: u32, exclusive: bool) {
        let key = (win.0, target_abs);
        let mut map = self.locks.lock();
        let st = map.get_mut(&key).expect("unlock without lock");
        if exclusive {
            assert!(st.exclusive, "unlock exclusive without holding it");
            st.exclusive = false;
        } else {
            assert!(st.shared > 0, "unlock shared without holding it");
            st.shared -= 1;
        }
        self.ctl.bump();
        self.locks.cv.notify_all();
    }
}

#[derive(Default, Debug, Clone, Copy)]
struct PscwCnt {
    posted: u64,
    completed: u64,
}

type PscwCounts = HashMap<(u32, u32, u32), PscwCnt>;

/// Post/start/complete/wait rendezvous counters, keyed by
/// `(window, origin, target)`, all absolute ranks.
pub struct Pscw {
    counts: Gate<PscwCounts>,
    ctl: Arc<Ctl>,
}

impl Pscw {
    /// Creates the counter table tied to the run's control block.
    pub fn new(ctl: Arc<Ctl>) -> Self {
        Self { counts: Gate::new(HashMap::new()), ctl }
    }

    /// Target `me` exposes its window to each origin in `origins`.
    pub fn post(&self, win: WinId, me: u32, origins: &[u32]) {
        let mut c = self.counts.lock();
        for &o in origins {
            c.entry((win.0, o, me)).or_default().posted += 1;
        }
        self.ctl.bump();
        self.counts.cv.notify_all();
    }

    /// Origin `me` waits until every target in `targets` has posted more
    /// times than `seen[target]`, then bumps the seen counts.
    pub fn start(&self, win: WinId, me: u32, targets: &[u32], seen: &mut HashMap<(u32, u32), u64>) {
        let mut c = self.counts.lock();
        for &t in targets {
            let seen_cnt = seen.entry((win.0, t)).or_default();
            let mut registered = false;
            loop {
                let posted = c.get(&(win.0, me, t)).map_or(0, |x| x.posted);
                if posted > *seen_cnt {
                    *seen_cnt += 1;
                    if registered {
                        self.ctl.exit_blocked(me);
                    }
                    break;
                }
                if !registered {
                    self.ctl.enter_blocked(me, BlockSite::PscwStart { win, target: t });
                    registered = true;
                }
                self.counts.wait(&self.ctl, &mut c);
            }
        }
    }

    /// Origin `me` completes its access epoch towards each target.
    pub fn complete(&self, win: WinId, me: u32, targets: &[u32]) {
        let mut c = self.counts.lock();
        for &t in targets {
            c.entry((win.0, me, t)).or_default().completed += 1;
        }
        self.ctl.bump();
        self.counts.cv.notify_all();
    }

    /// Target `me` waits until every origin in `origins` has completed.
    pub fn wait(&self, win: WinId, me: u32, origins: &[u32], seen: &mut HashMap<(u32, u32), u64>) {
        let mut c = self.counts.lock();
        for &o in origins {
            let seen_cnt = seen.entry((win.0, o)).or_default();
            let mut registered = false;
            loop {
                let completed = c.get(&(win.0, o, me)).map_or(0, |x| x.completed);
                if completed > *seen_cnt {
                    *seen_cnt += 1;
                    if registered {
                        self.ctl.exit_blocked(me);
                    }
                    break;
                }
                if !registered {
                    self.ctl.enter_blocked(me, BlockSite::PscwWait { win, origin: o });
                    registered = true;
                }
                self.counts.wait(&self.ctl, &mut c);
            }
        }
    }
}

/// Everything shared between rank threads.
pub struct Shared {
    /// Per-rank arenas.
    pub arenas: Vec<Mutex<Arena>>,
    /// Group / communicator registry.
    pub comms: RwLock<CommTable>,
    /// Window registry.
    pub wins: RwLock<HashMap<u32, WinInfo>>,
    /// Collective rendezvous points, keyed by communicator.
    coll: Mutex<HashMap<u32, std::sync::Arc<CollPoint>>>,
    /// Point-to-point mailbox.
    pub mailbox: Mailbox,
    /// Passive-target locks.
    pub winlocks: WinLocks,
    /// PSCW counters.
    pub pscw: Pscw,
    /// Fresh-id counters (windows, communicators share one space each).
    next_win: Mutex<u32>,
    /// Where an injected hang sleeps until the run is poisoned.
    hang: Gate<()>,
    /// Run-wide control block (poison flag, progress, blocked registry).
    ctl: Arc<Ctl>,
}

impl Shared {
    /// Creates the shared state for `n` ranks with `arena_bytes` arenas.
    pub fn new(n: u32, arena_bytes: u64) -> Self {
        let ctl = Arc::new(Ctl::new(n));
        Self {
            arenas: (0..n).map(|_| Mutex::new(Arena::new(arena_bytes))).collect(),
            comms: RwLock::new(CommTable::new(n)),
            wins: RwLock::new(HashMap::new()),
            coll: Mutex::new(HashMap::new()),
            mailbox: Mailbox::new(ctl.clone()),
            winlocks: WinLocks::new(ctl.clone()),
            pscw: Pscw::new(ctl.clone()),
            next_win: Mutex::new(0),
            hang: Gate::new(()),
            ctl,
        }
    }

    /// The rendezvous point for a communicator (created on first use).
    pub fn coll_point(&self, comm: CommId) -> std::sync::Arc<CollPoint> {
        self.coll
            .lock()
            .entry(comm.0)
            .or_insert_with(|| std::sync::Arc::new(CollPoint::new(self.ctl.clone())))
            .clone()
    }

    /// The run's control block.
    pub fn ctl(&self) -> &Arc<Ctl> {
        &self.ctl
    }

    /// Raises the poison flag and wakes every blocked rank so it unwinds
    /// (called by the runner when a rank panics).
    pub fn trigger_abort(&self) {
        self.ctl.trigger_abort();
        self.wake_all();
    }

    /// Records the watchdog's deadlock verdict, poisons the run and wakes
    /// every blocked rank so it unwinds.
    pub fn declare_deadlock(&self, blocked: Vec<(u32, String)>) {
        self.ctl.declare_deadlock(blocked);
        self.wake_all();
    }

    /// Records a survivable rank failure and wakes every blocked rank: a
    /// collective its peers wait in may now complete around it.
    pub fn record_failure(&self, rank: u32, epochs_completed: u64) {
        self.ctl.record_failure(rank, epochs_completed);
        self.wake_all();
    }

    /// Parks the calling rank (an injected hang) until the run is
    /// poisoned, then unwinds with [`AbortReason::PeerFailure`].
    pub fn hang(&self) -> ! {
        let mut guard = self.hang.lock();
        loop {
            self.hang.wait(&self.ctl, &mut guard);
        }
    }

    /// Wakes every blocking primitive's waiters so they re-check the
    /// poison flag and the failure board.
    fn wake_all(&self) {
        // Collected first: no rendezvous slot is locked while the map is.
        let points: Vec<Arc<CollPoint>> = self.coll.lock().values().cloned().collect();
        for p in &points {
            p.slot.wake();
        }
        self.mailbox.queues.wake();
        self.winlocks.locks.wake();
        self.pscw.counts.wake();
        self.hang.wake();
    }

    /// Allocates a fresh window id (called by the `win_create` combiner).
    pub fn fresh_win_id(&self) -> WinId {
        let mut w = self.next_win.lock();
        let id = WinId(*w);
        *w += 1;
        id
    }

    /// Performs a reduction over per-member contributions, in member-rank
    /// order (deterministic).
    pub fn combine_reduce(
        contribs: &HashMap<u32, Vec<u8>>,
        members: &[u32],
        op: ReduceOp,
        dtype: DatatypeId,
    ) -> Vec<u8> {
        let mut iter = members.iter();
        let first = *iter.next().expect("reduce over empty communicator");
        let mut acc = contribs[&first].clone();
        for &m in iter {
            reduce_bytes(op, dtype, &mut acc, &contribs[&m]);
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn ctl() -> Arc<Ctl> {
        Arc::new(Ctl::new(4))
    }

    #[test]
    fn comm_table_world() {
        let t = CommTable::new(4);
        assert_eq!(t.members(CommId::WORLD), &[0, 1, 2, 3]);
        assert_eq!(t.abs_rank(CommId::WORLD, 2), 2);
        assert_eq!(t.rel_rank(CommId::WORLD, 3), Some(3));
    }

    #[test]
    fn group_incl_translates_relative_ranks() {
        let mut t = CommTable::new(6);
        // Sub-group of even ranks.
        let even = t.group_incl(GroupId::WORLD, &[0, 2, 4]);
        assert_eq!(t.group_members(even), &[0, 2, 4]);
        // Nested: ranks relative to `even`.
        let g = t.group_incl(even, &[1, 2]);
        assert_eq!(t.group_members(g), &[2, 4]);
        let c = t.comm_create(g);
        assert_eq!(t.members(c), &[2, 4]);
        assert_eq!(t.abs_rank(c, 0), 2);
        assert_eq!(t.rel_rank(c, 4), Some(1));
        assert_eq!(t.rel_rank(c, 0), None);
        assert_eq!(t.comm_group(c), g);
    }

    #[test]
    fn mailbox_fifo_and_tags() {
        let mb = Mailbox::new(ctl());
        mb.send(CommId::WORLD, 0, 1, 5, vec![1]);
        mb.send(CommId::WORLD, 0, 1, 6, vec![2]);
        mb.send(CommId::WORLD, 0, 1, 5, vec![3]);
        // Tag-selective receive skips non-matching messages.
        assert_eq!(mb.recv(CommId::WORLD, 0, 1, 6), (6, vec![2]));
        assert_eq!(mb.recv(CommId::WORLD, 0, 1, 5), (5, vec![1]));
        // Wildcard takes the head.
        assert_eq!(mb.recv(CommId::WORLD, 0, 1, u32::MAX), (5, vec![3]));
    }

    #[test]
    fn mailbox_blocks_until_send() {
        let mb = Arc::new(Mailbox::new(ctl()));
        let mb2 = mb.clone();
        let h = std::thread::spawn(move || mb2.recv(CommId::WORLD, 0, 1, 9));
        std::thread::sleep(std::time::Duration::from_millis(20));
        mb.send(CommId::WORLD, 0, 1, 9, vec![42]);
        assert_eq!(h.join().unwrap(), (9, vec![42]));
    }

    #[test]
    fn collective_rendezvous() {
        let point = Arc::new(CollPoint::new(ctl()));
        let n = 4u32;
        let members: Vec<u32> = (0..n).collect();
        type RoundTrip = (Vec<u8>, Vec<(u32, u64)>);
        let results: Vec<RoundTrip> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..n)
                .map(|me| {
                    let p = point.clone();
                    let members = members.clone();
                    s.spawn(move || {
                        p.collective(&members, me, CollTag::Barrier, vec![me as u8], |c| {
                            let mut sum = 0u8;
                            for v in c.values() {
                                sum += v[0];
                            }
                            vec![sum]
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (r, failed) in results {
            assert_eq!(r, vec![1 + 2 + 3]);
            assert!(failed.is_empty());
        }
    }

    #[test]
    fn collective_repeated_generations() {
        let point = Arc::new(CollPoint::new(ctl()));
        let n = 3u32;
        std::thread::scope(|s| {
            for me in 0..n {
                let p = point.clone();
                s.spawn(move || {
                    for round in 0..50u8 {
                        let out =
                            p.collective(&[0, 1, 2], me, CollTag::Barrier, vec![round], |c| {
                                // All contributions must be from the same round.
                                let r = c.values().next().unwrap()[0];
                                assert!(c.values().all(|v| v[0] == r));
                                vec![r]
                            });
                        assert_eq!(out.0, vec![round]);
                    }
                });
            }
        });
    }

    #[test]
    fn win_locks_shared_vs_exclusive() {
        let locks = Arc::new(WinLocks::new(ctl()));
        locks.lock(0, WinId(0), 1, false);
        locks.lock(0, WinId(0), 1, false); // second shared ok
                                           // Exclusive on another target is independent.
        locks.lock(0, WinId(0), 2, true);
        locks.unlock(WinId(0), 2, true);
        // Exclusive must wait for shared holders.
        let l2 = locks.clone();
        let h = std::thread::spawn(move || {
            l2.lock(1, WinId(0), 1, true);
            l2.unlock(WinId(0), 1, true);
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        locks.unlock(WinId(0), 1, false);
        locks.unlock(WinId(0), 1, false);
        h.join().unwrap();
    }

    #[test]
    fn pscw_rendezvous() {
        let pscw = Arc::new(Pscw::new(ctl()));
        let p2 = pscw.clone();
        // Origin 0, target 1.
        let origin = std::thread::spawn(move || {
            let mut seen = HashMap::new();
            p2.start(WinId(0), 0, &[1], &mut seen);
            p2.complete(WinId(0), 0, &[1]);
        });
        let mut seen = HashMap::new();
        pscw.post(WinId(0), 1, &[0]);
        pscw.wait(WinId(0), 1, &[0], &mut seen);
        origin.join().unwrap();
    }

    #[test]
    #[should_panic(expected = "collective mismatch")]
    fn mismatched_collectives_panic() {
        let point = Arc::new(CollPoint::new(ctl()));
        let p = point.clone();
        let h = std::thread::spawn(move || {
            p.collective(&[0, 1], 0, CollTag::Barrier, vec![], |_| vec![])
        });
        // Give the first thread time to set the tag.
        std::thread::sleep(std::time::Duration::from_millis(20));
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            point.collective(&[0, 1], 1, CollTag::WinCreate, vec![], |_| vec![]);
        }));
        // Unblock thread 0 so the test does not hang, then re-panic.
        point.collective(&[0, 1], 1, CollTag::Barrier, vec![], |_| vec![]);
        h.join().unwrap();
        if let Err(e) = r {
            std::panic::resume_unwind(e);
        }
    }

    #[test]
    fn collective_completes_around_a_failed_rank() {
        let shared = Shared::new(4, 64);
        let c = shared.ctl().clone();
        let point = shared.coll_point(CommId::WORLD);
        let members = [0u32, 1, 2, 3];
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..3u32)
                .map(|me| {
                    let p = point.clone();
                    s.spawn(move || {
                        p.collective(&members, me, CollTag::Barrier, vec![], |_| vec![7])
                    })
                })
                .collect();
            // Let the three survivors block, then fail rank 3: recording
            // the failure must wake a waiter to complete the collective.
            while c.blocked_count() < 3 {
                std::thread::yield_now();
            }
            shared.record_failure(3, 2);
            for h in handles {
                let (result, failed) = h.join().unwrap();
                assert_eq!(result, vec![7]);
                assert_eq!(failed, vec![(3, 2)], "completion names the stand-in failure");
            }
        });
        assert_eq!(c.failed_snapshot(), vec![(3, 2)]);
        assert_eq!(c.failed_among(&members), 1);
        assert_eq!(c.failed_among(&[0, 1, 2]), 0);
        // Recording the same failure twice is idempotent.
        c.record_failure(3, 9);
        assert_eq!(c.failed_snapshot(), vec![(3, 2)]);
    }

    #[test]
    fn check_abort_panics_with_typed_payload() {
        let c = ctl();
        c.trigger_abort();
        let err = std::panic::catch_unwind(|| c.check_abort()).unwrap_err();
        assert_eq!(err.downcast_ref::<AbortReason>(), Some(&AbortReason::PeerFailure));
    }

    #[test]
    fn blocked_registry_tracks_waiters() {
        let c = ctl();
        assert_eq!(c.blocked_count(), 0);
        c.enter_blocked(2, BlockSite::Collective(CollTag::Fence { win: WinId(0) }));
        c.enter_blocked(0, BlockSite::Recv { src: 1, tag: u32::MAX });
        assert_eq!(c.blocked_count(), 2);
        let snap = c.blocked_snapshot();
        assert_eq!(snap[0], (0, "recv from rank 1 (any tag)".to_string()));
        assert_eq!(snap[1], (2, "fence(win0)".to_string()));
        let before = c.progress();
        c.exit_blocked(2);
        assert_eq!(c.blocked_count(), 1);
        assert!(c.progress() > before, "unblocking counts as progress");
    }

    #[test]
    fn rank_done_clears_blocked_entry() {
        let c = ctl();
        assert_eq!(c.alive(), 4);
        c.enter_blocked(1, BlockSite::Collective(CollTag::Barrier));
        c.rank_done(1);
        assert_eq!(c.alive(), 3);
        assert_eq!(c.blocked_count(), 0, "a dead rank is not a blocked rank");
    }

    #[test]
    fn deadlock_verdict_is_first_writer_wins() {
        let c = ctl();
        c.declare_deadlock(vec![(0, "barrier".into())]);
        assert!(c.aborted(), "declaring a deadlock poisons the run");
        c.declare_deadlock(vec![(9, "late".into())]);
        assert_eq!(c.take_deadlock(), Some(vec![(0, "barrier".into())]));
        assert_eq!(c.take_deadlock(), None);
    }

    #[test]
    fn mailbox_recv_registers_blocked_site() {
        let c = ctl();
        let mb = Arc::new(Mailbox::new(c.clone()));
        let mb2 = mb.clone();
        let h = std::thread::spawn(move || mb2.recv(CommId::WORLD, 0, 1, 9));
        // Wait for the receiver to register itself.
        for _ in 0..200 {
            if c.blocked_count() == 1 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert_eq!(c.blocked_snapshot(), vec![(1, "recv from rank 0 (tag 9)".to_string())]);
        mb.send(CommId::WORLD, 0, 1, 9, vec![1]);
        h.join().unwrap();
        assert_eq!(c.blocked_count(), 0, "delivery clears the registration");
    }

    #[test]
    fn block_site_display_forms() {
        let win = WinId(3);
        assert_eq!(BlockSite::WinLock { win, target: 2 }.to_string(), "lock(win3, target 2)");
        assert_eq!(
            BlockSite::PscwStart { win, target: 1 }.to_string(),
            "win_start(win3) awaiting post from rank 1"
        );
        assert_eq!(
            BlockSite::PscwWait { win, origin: 0 }.to_string(),
            "win_wait(win3) awaiting complete from rank 0"
        );
        assert_eq!(
            BlockSite::InjectedHang { nth_sync: 2, at: "fence(win3)".into() }.to_string(),
            "injected hang at sync call #2 (fence(win3))"
        );
        assert_eq!(BlockSite::Collective(CollTag::Barrier).to_string(), "barrier");
    }
}
