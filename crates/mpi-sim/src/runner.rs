//! Spawning and joining a simulated run: the strict and fault-tolerant
//! entry points, panic-payload classification, and the deadlock watchdog.

use crate::config::SimConfig;
use crate::error::SimError;
use crate::proc::Proc;
use crate::shared::{AbortReason, Ctl, Shared};
use crate::tracer::{EventCounts, EventSink};
use mcc_types::{ProcessTrace, Trace};
use std::any::Any;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-rank statistics of a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct RankStats {
    /// Logged MPI call events.
    pub mpi_events: u64,
    /// Logged load/store events.
    pub mem_events: u64,
    /// Bytes moved by one-sided operations.
    pub rma_bytes: u64,
}

impl From<EventCounts> for RankStats {
    fn from(c: EventCounts) -> Self {
        Self { mpi_events: c.mpi, mem_events: c.mem, rma_bytes: c.rma_bytes }
    }
}

/// Aggregate statistics of a run.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Wall-clock time of the parallel section.
    pub wall: Duration,
    /// Per-rank counters.
    pub per_rank: Vec<RankStats>,
    /// Ranks that died survivably (`Fault::RankFailure`), as
    /// `(rank, epochs_completed)` in rank order. Empty for a run without
    /// survivable failures.
    pub failures: Vec<(u32, u64)>,
}

impl RunStats {
    /// Total logged events across all ranks.
    pub fn total_events(&self) -> u64 {
        self.per_rank.iter().map(|r| r.mpi_events + r.mem_events).sum()
    }

    /// Total load/store events.
    pub fn total_mem_events(&self) -> u64 {
        self.per_rank.iter().map(|r| r.mem_events).sum()
    }

    /// Total MPI call events.
    pub fn total_mpi_events(&self) -> u64 {
        self.per_rank.iter().map(|r| r.mpi_events).sum()
    }
}

/// The outcome of a run: the trace (when event retention was on) and the
/// run statistics.
#[derive(Debug)]
pub struct SimResult {
    /// Full per-rank event logs, if `keep_events` was set and tracing was
    /// enabled.
    pub trace: Option<Trace>,
    /// Timing and event-rate statistics.
    pub stats: RunStats,
}

/// Outcome of [`run_tolerant`]: whatever per-rank data survived the run,
/// plus the classified failure if the run did not complete cleanly.
#[derive(Debug)]
pub struct TolerantOutcome {
    /// Per-rank event logs in rank order (when `keep_events` was set and
    /// tracing was enabled). Ranks that died keep the events they logged
    /// before dying, so a crash mid-epoch yields a truncated — not
    /// missing — per-rank log.
    pub trace: Option<Trace>,
    /// Timing and event-rate statistics over the salvaged events.
    pub stats: RunStats,
    /// The classified failure, or `None` for a clean run.
    pub error: Option<SimError>,
}

/// One rank's finished event log and its counters.
type RankLog = (ProcessTrace, EventCounts);

/// What one rank's thread produced: its log (complete or salvaged) and
/// the panic payload if the rank unwound.
type RankOutcome = (Option<RankLog>, Option<Box<dyn Any + Send>>);

/// Turns a rank's sink into its finished log. Runs on the rank's own
/// thread, so the sink's location lookup table is freed on the thread
/// that allocated it (see the note on freeing in [`execute`]).
fn finish(sink: EventSink) -> RankLog {
    let counts = sink.counts();
    (sink.into_trace(), counts)
}

/// The deadlock watchdog: declares a deadlock once no rank has made
/// progress for `timeout` while every live rank sits in a blocking
/// primitive. Force-unblocks everyone via the abort flag so the run
/// terminates instead of hanging.
///
/// It sleeps in `park_timeout` between checks, and the runner unparks it
/// once every rank has returned, so a clean run never waits out a tick.
/// The stall clock is wall time since progress was last seen, so an
/// early or spurious wake-up can only delay the verdict, never bring it
/// forward.
fn watchdog(shared: &Shared, timeout: Duration) {
    let ctl = shared.ctl();
    let tick = (timeout / 4).clamp(Duration::from_millis(1), Duration::from_millis(50));
    let mut last_progress = ctl.progress();
    let mut stalled_since = Instant::now();
    loop {
        std::thread::park_timeout(tick);
        if ctl.aborted() {
            return;
        }
        let alive = ctl.alive();
        if alive == 0 {
            return;
        }
        let progress = ctl.progress();
        if progress != last_progress || ctl.blocked_count() < alive {
            // Someone moved, or someone is computing (not blocked): not a
            // deadlock, restart the stall clock.
            last_progress = progress;
            stalled_since = Instant::now();
            continue;
        }
        if stalled_since.elapsed() >= timeout {
            shared.declare_deadlock(ctl.blocked_snapshot());
            return;
        }
    }
}

/// Classifies the panic payloads of a finished run into at most one
/// [`SimError`], preferring a real root cause over collateral damage.
///
/// Priority: a watchdog deadlock verdict wins (every unwound rank is then
/// collateral of the forced unblock); otherwise the lowest-ranked real
/// failure (plain panic, protocol violation, or injected abort) wins;
/// [`AbortReason::PeerFailure`] payloads are collateral and never
/// reported as the cause.
fn classify(ctl: &Ctl, results: &[RankOutcome]) -> Option<SimError> {
    if let Some(blocked) = ctl.take_deadlock() {
        return Some(SimError::Deadlock { blocked });
    }
    let mut collateral = false;
    for (rank, (_, payload)) in results.iter().enumerate() {
        let Some(payload) = payload else { continue };
        if let Some(reason) = payload.downcast_ref::<AbortReason>() {
            match reason {
                AbortReason::PeerFailure => {
                    collateral = true;
                    continue;
                }
                AbortReason::InjectedAbort { rank, after_events } => {
                    return Some(SimError::RankPanicked {
                        rank: *rank,
                        message: format!(
                            "fault injection: rank aborted after {after_events} events"
                        ),
                    });
                }
                AbortReason::InjectedFailure { .. } => {
                    // A survivable failure is part of the experiment, not
                    // an error: survivors keep running and the failure is
                    // reported through `RunStats::failures`.
                    continue;
                }
                AbortReason::Protocol { rank, message } => {
                    return Some(SimError::Protocol { rank: *rank, message: message.clone() });
                }
            }
        }
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "<non-string panic payload>".into());
        return Some(SimError::RankPanicked { rank: rank as u32, message });
    }
    collateral.then(|| SimError::RankPanicked {
        rank: 0,
        message: "run aborted without an identified root cause".into(),
    })
}

/// What `execute` hands back: each rank's (possibly salvaged) event
/// log, the classified root-cause error if any rank failed, the
/// wall-clock duration of the run, and the survivable-failure board.
type ExecuteOutcome = (Vec<Option<RankLog>>, Option<SimError>, Duration, Vec<(u32, u64)>);

/// Spawns the per-rank threads (and the watchdog, when configured), joins
/// them, and classifies the outcome. `tolerant` controls whether a
/// failing rank's sink is salvaged and whether exit-time protocol checks
/// run.
fn execute<F>(config: &SimConfig, body: &F, tolerant: bool) -> Result<ExecuteOutcome, SimError>
where
    F: Fn(&mut Proc) + Send + Sync,
{
    if config.nprocs == 0 {
        return Err(SimError::InvalidConfig("nprocs must be at least 1".into()));
    }
    let shared = Arc::new(Shared::new(config.nprocs, config.arena_bytes));
    let ctl = shared.ctl().clone();
    let start = Instant::now();
    let results: Vec<RankOutcome> = std::thread::scope(|s| {
        let dog = config.watchdog.map(|timeout| {
            let shared = shared.clone();
            s.spawn(move || watchdog(&shared, timeout))
        });
        let handles: Vec<_> = (0..config.nprocs)
            .map(|rank| {
                let shared = shared.clone();
                let body = &body;
                let cfg = &config;
                s.spawn(move || {
                    let ctl = shared.ctl().clone();
                    let mut proc = Proc::new(rank, cfg, shared.clone());
                    let outcome: RankOutcome =
                        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            body(&mut proc)
                        })) {
                            Ok(()) => {
                                if tolerant {
                                    (Some(finish(proc.into_sink_lossy())), None)
                                } else {
                                    // Exit-time protocol checks can panic
                                    // (typed payload); catch them so the
                                    // run is classified, not poisoned.
                                    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(
                                        move || proc.into_sink(),
                                    )) {
                                        Ok(sink) => (Some(finish(sink)), None),
                                        Err(payload) => (None, Some(payload)),
                                    }
                                }
                            }
                            Err(payload) => {
                                // Salvage whatever the rank logged before
                                // dying.
                                (Some(finish(proc.into_sink_lossy())), Some(payload))
                            }
                        };
                    let survivable = outcome.1.as_ref().is_some_and(|p| {
                        matches!(
                            p.downcast_ref::<AbortReason>(),
                            Some(AbortReason::InjectedFailure { .. })
                        )
                    });
                    if outcome.1.is_some() && !survivable {
                        // Poison the run so peers blocked on this rank
                        // unwind instead of deadlocking. A survivable
                        // failure skips this: the rank recorded itself on
                        // the failure board, so peers complete collectives
                        // around it and the run continues.
                        shared.trigger_abort();
                    }
                    ctl.rank_done(rank);
                    outcome
                })
            })
            .collect();
        // Freeing: the ranks allocated most of the shared state (mailbox
        // queues, rendezvous slots, lock tables), so the last rank (or
        // the watchdog) frees it. Freed on this thread instead, those small chunks
        // would enter this thread's malloc cache and be reused for
        // whatever the caller keeps, pinning the rank threads' arenas:
        // an explorer that keeps thousands of reports held megabytes of
        // free arena memory resident that way.
        drop(shared);
        let results =
            handles.into_iter().map(|h| h.join().unwrap_or_else(|p| (None, Some(p)))).collect();
        if let Some(dog) = dog {
            dog.thread().unpark();
            let _ = dog.join();
        }
        results
    });
    let wall = start.elapsed();
    let error = classify(&ctl, &results);
    let failures = ctl.failed_snapshot();
    let logs = results.into_iter().map(|(log, _)| log).collect();
    Ok((logs, error, wall, failures))
}

/// Builds a [`Trace`] + [`RunStats`] from per-rank logs, substituting an
/// empty log for any rank whose log did not survive.
fn assemble(
    config: &SimConfig,
    logs: Vec<Option<RankLog>>,
    wall: Duration,
    failures: Vec<(u32, u64)>,
) -> (Option<Trace>, RunStats) {
    let (procs, per_rank): (Vec<ProcessTrace>, Vec<RankStats>) = logs
        .into_iter()
        .map(|log| log.unwrap_or_default())
        .map(|(p, c)| (p, RankStats::from(c)))
        .unzip();
    let tracing = config.instrument != crate::config::Instrument::Off;
    let trace = (tracing && config.keep_events).then_some(Trace { procs });
    (trace, RunStats { wall, per_rank, failures })
}

/// Runs `body` once per rank on its own thread and collects traces.
///
/// The closure receives this rank's [`Proc`]. Any rank failing aborts the
/// run: a plain panic surfaces as [`SimError::RankPanicked`], a rank
/// finishing with unsynchronized operations in flight as
/// [`SimError::Protocol`], and — when [`SimConfig::watchdog`] is set — a
/// run where every live rank is blocked with no progress for the timeout
/// as [`SimError::Deadlock`]. Peers force-unblocked by a failure are
/// collateral and never reported as the cause.
pub fn run<F>(config: SimConfig, body: F) -> Result<SimResult, SimError>
where
    F: Fn(&mut Proc) + Send + Sync,
{
    let _span = mcc_obs::global().span("sim.run");
    let (logs, error, wall, failures) = execute(&config, &body, false)?;
    if let Some(error) = error {
        return Err(error);
    }
    let (trace, stats) = assemble(&config, logs, wall, failures);
    Ok(SimResult { trace, stats })
}

/// Like [`run`], but salvages per-rank traces even when the run fails.
///
/// Every rank's sink survives: a rank that panicked (or was killed by
/// fault injection) contributes the events it logged before dying, and
/// exit-time protocol checks are skipped so a salvaged log is never
/// discarded for being incomplete. The classified failure, if any, is
/// returned alongside the partial data instead of replacing it. This is
/// the entry point for crash-consistency demos and degraded-mode
/// checking.
///
/// Configuration errors (e.g. zero ranks) still fail hard.
pub fn run_tolerant<F>(config: SimConfig, body: F) -> Result<TolerantOutcome, SimError>
where
    F: Fn(&mut Proc) + Send + Sync,
{
    let _span = mcc_obs::global().span("sim.run");
    let (logs, error, wall, failures) = execute(&config, &body, true)?;
    let (trace, stats) = assemble(&config, logs, wall, failures);
    Ok(TolerantOutcome { trace, stats, error })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DeliveryPolicy, Fault, Instrument};
    use mcc_types::{CommId, DatatypeId, EventKind, LockKind, ReduceOp};

    fn cfg(n: u32) -> SimConfig {
        SimConfig::new(n).with_seed(42)
    }

    #[test]
    fn zero_ranks_rejected() {
        assert!(matches!(run(cfg(0), |_| {}), Err(SimError::InvalidConfig(_))));
    }

    #[test]
    fn rank_panic_propagates() {
        let err = run(cfg(2), |p| {
            if p.rank() == 1 {
                panic!("deliberate failure");
            }
            // Rank 0 does no collective so it finishes cleanly.
        })
        .unwrap_err();
        match err {
            SimError::RankPanicked { rank, message } => {
                assert_eq!(rank, 1);
                assert!(message.contains("deliberate failure"));
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn put_through_fence_epoch() {
        let r = run(cfg(2).with_delivery(DeliveryPolicy::AtClose), |p| {
            let buf = p.alloc_i32s(4);
            let win = p.win_create(buf, 16, CommId::WORLD);
            p.win_fence(win);
            if p.rank() == 0 {
                let src = p.alloc_i32s(4);
                for i in 0..4 {
                    p.poke_i32(src + 4 * i, 10 + i as i32);
                }
                p.put(src, 4, DatatypeId::INT, 1, 0, 4, DatatypeId::INT, win);
                // AtClose: the target must NOT see the data yet; we cannot
                // check the target from here, but our own buffer is intact.
                assert_eq!(p.peek_i32(src), 10);
            }
            p.win_fence(win);
            if p.rank() == 1 {
                for i in 0..4 {
                    assert_eq!(p.peek_i32(buf + 4 * i), 10 + i as i32);
                }
            }
            p.win_free(win);
        })
        .unwrap();
        assert!(r.trace.is_some());
        assert!(r.stats.total_mpi_events() > 0);
    }

    #[test]
    fn get_through_fence_epoch() {
        run(cfg(2).with_delivery(DeliveryPolicy::AtClose), |p| {
            let buf = p.alloc_i32s(1);
            if p.rank() == 1 {
                p.poke_i32(buf, 77);
            }
            let win = p.win_create(buf, 4, CommId::WORLD);
            p.win_fence(win);
            let dst = p.alloc_i32s(1);
            if p.rank() == 0 {
                p.get(dst, 1, DatatypeId::INT, 1, 0, 1, DatatypeId::INT, win);
                // Nonblocking with AtClose delivery: not yet visible.
                assert_eq!(p.peek_i32(dst), 0);
            }
            p.win_fence(win);
            if p.rank() == 0 {
                assert_eq!(p.peek_i32(dst), 77);
            }
            p.win_free(win);
        })
        .unwrap();
    }

    #[test]
    fn eager_delivery_is_immediate() {
        run(cfg(2).with_delivery(DeliveryPolicy::Eager), |p| {
            let buf = p.alloc_i32s(1);
            if p.rank() == 1 {
                p.poke_i32(buf, 5);
            }
            let win = p.win_create(buf, 4, CommId::WORLD);
            p.win_fence(win);
            if p.rank() == 0 {
                let dst = p.alloc_i32s(1);
                p.get(dst, 1, DatatypeId::INT, 1, 0, 1, DatatypeId::INT, win);
                assert_eq!(p.peek_i32(dst), 5, "eager get completes at issue");
            }
            p.win_fence(win);
            p.win_free(win);
        })
        .unwrap();
    }

    #[test]
    fn accumulate_concurrent_sum() {
        // All ranks accumulate into rank 0 concurrently; sum must not lose
        // updates (the combination MPI permits).
        let n = 8u32;
        run(cfg(n).with_delivery(DeliveryPolicy::Adversarial), |p| {
            let buf = p.alloc_i32s(1);
            let win = p.win_create(buf, 4, CommId::WORLD);
            p.win_fence(win);
            let src = p.alloc_i32s(1);
            p.poke_i32(src, 1 + p.rank() as i32);
            p.accumulate(src, 1, DatatypeId::INT, 0, 0, 1, DatatypeId::INT, ReduceOp::Sum, win);
            p.win_fence(win);
            if p.rank() == 0 {
                let expect: i32 = (1..=n as i32).sum();
                assert_eq!(p.peek_i32(buf), expect);
            }
            p.win_free(win);
        })
        .unwrap();
    }

    #[test]
    fn passive_target_lock_epoch() {
        run(cfg(3).with_delivery(DeliveryPolicy::AtClose), |p| {
            let buf = p.alloc_i32s(1);
            let win = p.win_create(buf, 4, CommId::WORLD);
            p.barrier(CommId::WORLD);
            if p.rank() != 0 {
                let src = p.alloc_i32s(1);
                p.poke_i32(src, p.rank() as i32);
                p.win_lock(LockKind::Exclusive, 0, win);
                p.put(src, 1, DatatypeId::INT, 0, 0, 1, DatatypeId::INT, win);
                p.win_unlock(0, win);
            }
            p.barrier(CommId::WORLD);
            if p.rank() == 0 {
                let v = p.peek_i32(buf);
                assert!(v == 1 || v == 2, "one of the puts won: {v}");
            }
            p.win_free(win);
        })
        .unwrap();
    }

    #[test]
    fn pscw_epoch() {
        run(cfg(2).with_delivery(DeliveryPolicy::AtClose), |p| {
            let buf = p.alloc_i32s(1);
            let win = p.win_create(buf, 4, CommId::WORLD);
            let world = p.comm_group(CommId::WORLD);
            if p.rank() == 0 {
                let targets = p.group_incl(world, &[1]);
                let src = p.alloc_i32s(1);
                p.poke_i32(src, 99);
                p.win_start(targets, win);
                p.put(src, 1, DatatypeId::INT, 1, 0, 1, DatatypeId::INT, win);
                p.win_complete(win);
            } else {
                let origins = p.group_incl(world, &[0]);
                p.win_post(origins, win);
                p.win_wait(win);
                assert_eq!(p.peek_i32(buf), 99);
            }
            p.win_free(win);
        })
        .unwrap();
    }

    #[test]
    fn send_recv_roundtrip() {
        run(cfg(2), |p| {
            let buf = p.alloc_i32s(2);
            if p.rank() == 0 {
                p.poke_i32(buf, 3);
                p.poke_i32(buf + 4, 4);
                p.send(buf, 2, DatatypeId::INT, 1, 7, CommId::WORLD);
            } else {
                p.recv(buf, 2, DatatypeId::INT, 0, 7, CommId::WORLD);
                assert_eq!(p.peek_i32(buf), 3);
                assert_eq!(p.peek_i32(buf + 4), 4);
            }
        })
        .unwrap();
    }

    #[test]
    fn bcast_and_reductions() {
        run(cfg(4), |p| {
            let x = p.alloc_f64s(2);
            if p.rank() == 2 {
                p.poke_f64(x, 1.5);
                p.poke_f64(x + 8, -2.0);
            }
            p.bcast(x, 2, DatatypeId::DOUBLE, 2, CommId::WORLD);
            assert_eq!(p.peek_f64(x), 1.5);
            assert_eq!(p.peek_f64(x + 8), -2.0);

            let v = p.alloc_i32s(1);
            p.poke_i32(v, 1 << p.rank());
            let out = p.alloc_i32s(1);
            p.reduce(v, out, 1, DatatypeId::INT, ReduceOp::Sum, 0, CommId::WORLD);
            if p.rank() == 0 {
                assert_eq!(p.peek_i32(out), 0b1111);
            }
            let all = p.alloc_i32s(1);
            p.allreduce(v, all, 1, DatatypeId::INT, ReduceOp::Max, CommId::WORLD);
            assert_eq!(p.peek_i32(all), 8);
        })
        .unwrap();
    }

    #[test]
    fn subcommunicator_collectives() {
        run(cfg(4), |p| {
            let world = p.comm_group(CommId::WORLD);
            let evens = p.group_incl(world, &[0, 2]);
            let sub = p.comm_create(CommId::WORLD, evens);
            if p.rank() % 2 == 0 {
                let comm = sub.expect("member receives communicator");
                assert_eq!(p.comm_size(comm), 2);
                let rel = p.comm_rank(comm);
                assert_eq!(rel, p.rank() / 2);
                let v = p.alloc_i32s(1);
                p.poke_i32(v, 10 + p.rank() as i32);
                p.bcast(v, 1, DatatypeId::INT, 0, comm);
                assert_eq!(p.peek_i32(v), 10);
            } else {
                assert!(sub.is_none());
            }
        })
        .unwrap();
    }

    #[test]
    fn derived_datatype_strided_put() {
        run(cfg(2).with_delivery(DeliveryPolicy::AtClose), |p| {
            // 4x4 int matrix at the target; origin puts a column.
            let mat = p.alloc_i32s(16);
            let win = p.win_create(mat, 64, CommId::WORLD);
            let col = p.type_vector(4, 1, 4, DatatypeId::INT);
            p.win_fence(win);
            if p.rank() == 0 {
                let src = p.alloc_i32s(4);
                for i in 0..4 {
                    p.poke_i32(src + 4 * i, (i + 1) as i32);
                }
                // Column 2 of the remote matrix.
                p.put(src, 4, DatatypeId::INT, 1, 8, 1, col, win);
            }
            p.win_fence(win);
            if p.rank() == 1 {
                for row in 0..4u64 {
                    assert_eq!(p.peek_i32(mat + row * 16 + 8), (row + 1) as i32);
                }
                // Neighbouring column untouched.
                assert_eq!(p.peek_i32(mat + 4), 0);
            }
            p.win_free(win);
        })
        .unwrap();
    }

    #[test]
    fn trace_records_calls_and_relevant_accesses() {
        let r = run(cfg(2).with_instrument(Instrument::Relevant), |p| {
            let buf = p.alloc_i32s(1);
            let win = p.win_create(buf, 4, CommId::WORLD);
            p.win_fence(win);
            p.tstore_i32(buf, 1); // relevant: recorded
            let tmp = p.alloc_i32s(1);
            p.store_i32(tmp, 2); // irrelevant: dropped under Relevant
            p.win_fence(win);
            p.win_free(win);
        })
        .unwrap();
        let trace = r.trace.unwrap();
        let p0 = &trace.procs[0];
        let stores = p0.events.iter().filter(|e| matches!(e.kind, EventKind::Store { .. })).count();
        assert_eq!(stores, 1);
        let fences = p0.events.iter().filter(|e| matches!(e.kind, EventKind::Fence { .. })).count();
        assert_eq!(fences, 2);
        // Program order: WinCreate, Fence, Store, Fence, WinFree.
        assert!(matches!(p0.events[0].kind, EventKind::WinCreate { .. }));
        // Locations recorded with this file.
        let loc = p0.loc(p0.events[0].loc);
        assert!(loc.file.ends_with("runner.rs"), "got {}", loc.file);
    }

    #[test]
    fn instrument_all_records_everything() {
        let r = run(cfg(1).with_instrument(Instrument::All), |p| {
            let a = p.alloc_i32s(1);
            p.store_i32(a, 1);
            let _ = p.load_i32(a);
        })
        .unwrap();
        assert_eq!(r.stats.total_mem_events(), 2);
    }

    #[test]
    fn instrument_off_records_nothing() {
        let r = run(cfg(1).with_instrument(Instrument::Off), |p| {
            let a = p.alloc_i32s(1);
            p.tstore_i32(a, 1);
        })
        .unwrap();
        assert!(r.trace.is_none());
        assert_eq!(r.stats.total_events(), 0);
    }

    #[test]
    fn counter_only_mode() {
        let r = run(cfg(1).with_keep_events(false), |p| {
            let a = p.alloc_i32s(1);
            p.tstore_i32(a, 1);
            p.barrier(CommId::WORLD);
        })
        .unwrap();
        assert!(r.trace.is_none());
        assert_eq!(r.stats.total_mem_events(), 1);
        assert_eq!(r.stats.total_mpi_events(), 1);
    }

    #[test]
    #[should_panic(expected = "unsynchronized")]
    fn leaking_pending_ops_panics() {
        let _ = run(cfg(2).with_delivery(DeliveryPolicy::AtClose), |p| {
            let buf = p.alloc_i32s(1);
            let win = p.win_create(buf, 4, CommId::WORLD);
            p.win_fence(win);
            if p.rank() == 0 {
                let src = p.alloc_i32s(1);
                p.put(src, 1, DatatypeId::INT, 1, 0, 1, DatatypeId::INT, win);
            }
            // Missing closing fence: into_sink must flag rank 0. Unwrap the
            // error into a panic so should_panic sees it on both ranks.
        })
        .map_err(|e| panic!("{e}"));
    }

    #[test]
    fn lock_all_flush_epoch() {
        run(cfg(3).with_delivery(DeliveryPolicy::AtClose), |p| {
            let buf = p.alloc_i32s(1);
            let win = p.win_create(buf, 4, CommId::WORLD);
            p.barrier(CommId::WORLD);
            if p.rank() == 0 {
                let src = p.alloc_i32s(1);
                p.poke_i32(src, 55);
                p.win_lock_all(win);
                p.put(src, 1, DatatypeId::INT, 1, 0, 1, DatatypeId::INT, win);
                p.win_flush(1, win);
                // After the flush the data is at the target even though
                // the epoch is still open.
                let back = p.alloc_i32s(1);
                p.get(back, 1, DatatypeId::INT, 1, 0, 1, DatatypeId::INT, win);
                p.win_flush_all(win);
                assert_eq!(p.peek_i32(back), 55);
                p.win_unlock_all(win);
            }
            p.barrier(CommId::WORLD);
            if p.rank() == 1 {
                assert_eq!(p.peek_i32(buf), 55);
            }
            p.win_free(win);
        })
        .unwrap();
    }

    #[test]
    fn fetch_and_op_is_atomic() {
        // Every rank atomically increments rank 0's counter; no update is
        // lost and every fetched pre-value is distinct.
        let n = 8u32;
        let r = run(cfg(n).with_delivery(DeliveryPolicy::Adversarial), |p| {
            let counter = p.alloc_i32s(1);
            let win = p.win_create(counter, 4, CommId::WORLD);
            p.barrier(CommId::WORLD);
            let one = p.alloc_i32s(1);
            p.poke_i32(one, 1);
            let old = p.alloc_i32s(1);
            p.win_lock_all(win);
            p.fetch_and_op(one, old, DatatypeId::INT, 0, 0, ReduceOp::Sum, win);
            p.win_unlock_all(win);
            p.barrier(CommId::WORLD);
            if p.rank() == 0 {
                assert_eq!(p.peek_i32(counter), n as i32, "no lost updates");
            }
            let fetched = p.peek_i32(old);
            assert!((0..n as i32).contains(&fetched), "fetched a valid ticket");
            p.win_free(win);
        })
        .unwrap();
        assert!(r.stats.total_mpi_events() > 0);
    }

    #[test]
    fn compare_and_swap_elects_one_winner() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let winners = AtomicU32::new(0);
        run(cfg(6).with_delivery(DeliveryPolicy::Adversarial), |p| {
            let slot = p.alloc_i32s(1);
            p.poke_i32(slot, -1);
            let win = p.win_create(slot, 4, CommId::WORLD);
            p.barrier(CommId::WORLD);
            let me = p.alloc_i32s(1);
            p.poke_i32(me, p.rank() as i32);
            let expect = p.alloc_i32s(1);
            p.poke_i32(expect, -1);
            let old = p.alloc_i32s(1);
            p.win_lock_all(win);
            p.compare_and_swap(me, expect, old, DatatypeId::INT, 0, 0, win);
            p.win_unlock_all(win);
            p.barrier(CommId::WORLD);
            if p.peek_i32(old) == -1 {
                winners.fetch_add(1, Ordering::Relaxed);
            }
            p.win_free(win);
        })
        .unwrap();
        assert_eq!(winners.load(std::sync::atomic::Ordering::Relaxed), 1, "exactly one CAS wins");
    }

    #[test]
    fn request_ops_complete_at_wait() {
        run(cfg(2).with_delivery(DeliveryPolicy::AtClose), |p| {
            let buf = p.alloc_i32s(1);
            if p.rank() == 1 {
                p.poke_i32(buf, 31);
            }
            let win = p.win_create(buf, 4, CommId::WORLD);
            p.barrier(CommId::WORLD);
            if p.rank() == 0 {
                let dst = p.alloc_i32s(1);
                p.win_lock_all(win);
                let req = p.rget(dst, 1, DatatypeId::INT, 1, 0, 1, DatatypeId::INT, win);
                assert_eq!(p.peek_i32(dst), 0, "AtClose: not delivered before the wait");
                p.wait_req(req);
                assert_eq!(p.peek_i32(dst), 31, "MPI_Wait completes the rget");
                p.win_unlock_all(win);
            }
            p.barrier(CommId::WORLD);
            p.win_free(win);
        })
        .unwrap();
    }

    #[test]
    fn get_accumulate_fetches_and_combines() {
        run(cfg(2).with_delivery(DeliveryPolicy::Eager), |p| {
            let buf = p.alloc_i32s(2);
            if p.rank() == 1 {
                p.poke_i32(buf, 10);
                p.poke_i32(buf + 4, 20);
            }
            let win = p.win_create(buf, 8, CommId::WORLD);
            p.barrier(CommId::WORLD);
            if p.rank() == 0 {
                let src = p.alloc_i32s(2);
                p.poke_i32(src, 1);
                p.poke_i32(src + 4, 2);
                let old = p.alloc_i32s(2);
                p.win_lock_all(win);
                p.get_accumulate(src, old, 2, DatatypeId::INT, 1, 0, ReduceOp::Sum, win);
                p.win_unlock_all(win);
                assert_eq!(p.peek_i32(old), 10);
                assert_eq!(p.peek_i32(old + 4), 20);
            }
            p.barrier(CommId::WORLD);
            if p.rank() == 1 {
                assert_eq!(p.peek_i32(buf), 11);
                assert_eq!(p.peek_i32(buf + 4), 22);
            }
            p.win_free(win);
        })
        .unwrap();
    }

    #[test]
    #[should_panic(expected = "unsynchronized")]
    fn unwaited_request_flagged_at_exit() {
        let _ = run(cfg(2).with_delivery(DeliveryPolicy::AtClose), |p| {
            let buf = p.alloc_i32s(1);
            let win = p.win_create(buf, 4, CommId::WORLD);
            p.barrier(CommId::WORLD);
            if p.rank() == 0 {
                let src = p.alloc_i32s(1);
                p.win_lock_all(win);
                let _req = p.rput(src, 1, DatatypeId::INT, 1, 0, 1, DatatypeId::INT, win);
                p.win_unlock_all(win);
                // unlock_all applied the op, but the request was never
                // waited — `req_open` is cleared by the apply, so this is
                // actually fine; leak a *fresh* request instead.
                let _leak = p.rput(src, 1, DatatypeId::INT, 1, 0, 1, DatatypeId::INT, win);
            }
        })
        .map_err(|e| panic!("{e}"));
    }

    #[test]
    fn seeded_adversarial_is_deterministic() {
        let observe = || {
            let mut seen = Vec::new();
            let r = run(cfg(2).with_seed(123).with_delivery(DeliveryPolicy::Adversarial), |p| {
                let buf = p.alloc_i32s(1);
                let win = p.win_create(buf, 4, CommId::WORLD);
                p.win_fence(win);
                if p.rank() == 0 {
                    let src = p.alloc_i32s(1);
                    p.poke_i32(src, 1);
                    for _ in 0..10 {
                        p.put(src, 1, DatatypeId::INT, 1, 0, 1, DatatypeId::INT, win);
                    }
                }
                p.win_fence(win);
                p.win_free(win);
            })
            .unwrap();
            seen.push(r.stats.total_mpi_events());
            seen
        };
        assert_eq!(observe(), observe());
    }

    /// Acceptance criterion: a rank that skips a fence hangs the other
    /// ranks; the watchdog names the hung rank and the fence everyone
    /// else is stuck on, instead of hanging the test suite.
    #[test]
    fn hung_rank_is_caught_by_watchdog() {
        let cfg = cfg(4)
            .with_fault(Fault::HangAtSync { rank: 2, nth_sync: 1 })
            .unwrap()
            .with_watchdog(Duration::from_millis(300));
        let err = run(cfg, |p| {
            let buf = p.alloc_i32s(1);
            let win = p.win_create(buf, 4, CommId::WORLD); // sync #0
            p.win_fence(win); // sync #1: rank 2 parks here
            p.win_fence(win);
            p.win_free(win);
        })
        .unwrap_err();
        match err {
            SimError::Deadlock { blocked } => {
                assert_eq!(blocked.len(), 4, "all four ranks blocked: {blocked:?}");
                let (_, hung) = blocked.iter().find(|(r, _)| *r == 2).expect("rank 2 named");
                assert!(hung.contains("injected hang"), "got {hung}");
                assert!(hung.contains("fence(win0)"), "got {hung}");
                for r in [0u32, 1, 3] {
                    let (_, site) = blocked.iter().find(|(b, _)| *b == r).expect("peer named");
                    assert!(site.contains("fence(win0)"), "rank {r} stuck on {site}");
                }
            }
            other => panic!("expected deadlock, got {other}"),
        }
    }

    /// A rank blocked forever because its peer simply exited is also a
    /// watchdog-detected deadlock, not a hang.
    #[test]
    fn watchdog_detects_abandoned_collective() {
        let err = run(cfg(2).with_watchdog(Duration::from_millis(200)), |p| {
            if p.rank() == 0 {
                p.barrier(CommId::WORLD); // rank 1 never arrives
            }
        })
        .unwrap_err();
        match err {
            SimError::Deadlock { blocked } => {
                assert_eq!(blocked.len(), 1);
                assert_eq!(blocked[0].0, 0);
                assert!(blocked[0].1.contains("barrier"), "got {}", blocked[0].1);
            }
            other => panic!("expected deadlock, got {other}"),
        }
    }

    /// The watchdog must stay quiet on a healthy run.
    #[test]
    fn watchdog_quiet_on_healthy_run() {
        run(cfg(4).with_watchdog(Duration::from_millis(200)), |p| {
            let buf = p.alloc_i32s(1);
            let win = p.win_create(buf, 4, CommId::WORLD);
            p.win_fence(win);
            p.win_fence(win);
            p.win_free(win);
        })
        .unwrap();
    }

    /// The runner wakes the watchdog when the ranks are done, so a clean
    /// run costs its work, not a watchdog tick: 20 runs under a 10 s
    /// watchdog finish in well under the 20 x 50 ms a polling watchdog
    /// would add.
    #[test]
    fn clean_runs_do_not_wait_for_the_watchdog() {
        let start = Instant::now();
        for _ in 0..20 {
            run(cfg(2).with_watchdog(Duration::from_secs(10)), |p| {
                let buf = p.alloc_i32s(1);
                let win = p.win_create(buf, 4, CommId::WORLD);
                p.win_fence(win);
                p.win_free(win);
            })
            .unwrap();
        }
        let took = start.elapsed();
        assert!(took < Duration::from_secs(1), "20 clean runs took {took:?}");
    }

    /// The stall clock counts wall time, so no wake-up of the watchdog
    /// can declare a deadlock before the timeout has really elapsed.
    #[test]
    fn deadlock_is_never_declared_early() {
        let timeout = Duration::from_millis(200);
        for _ in 0..3 {
            let start = Instant::now();
            let err = run(cfg(2).with_watchdog(timeout), |p| {
                if p.rank() == 0 {
                    p.barrier(CommId::WORLD); // rank 1 never arrives
                }
            })
            .unwrap_err();
            assert!(matches!(err, SimError::Deadlock { .. }), "got {err}");
            let took = start.elapsed();
            assert!(took >= timeout, "deadlock declared after {took:?}");
        }
    }

    /// Poisoning the run wakes a rank blocked in `recv` at once. The 10 s
    /// watchdog is only a backstop: were the wake-up lost, the rank would
    /// unwind through a deadlock verdict 10 s later and fail the bound.
    #[test]
    fn blocked_recv_unwinds_promptly_after_peer_panic() {
        let panicked_at = std::sync::Mutex::new(None);
        let err = run(cfg(2).with_watchdog(Duration::from_secs(10)), |p| {
            let buf = p.alloc_i32s(1);
            if p.rank() == 0 {
                p.recv(buf, 1, DatatypeId::INT, 1, 0, CommId::WORLD);
            } else {
                while p.blocked_ranks() == 0 {
                    std::thread::yield_now(); // until rank 0 waits in recv
                }
                *panicked_at.lock().unwrap() = Some(Instant::now());
                panic!("deliberate failure");
            }
        })
        .unwrap_err();
        let unwound = panicked_at.lock().unwrap().expect("rank 1 panicked").elapsed();
        assert!(matches!(err, SimError::RankPanicked { rank: 1, .. }), "got {err}");
        assert!(unwound < Duration::from_secs(1), "rank 0 unwound after {unwound:?}");
    }

    #[test]
    fn injected_abort_kills_rank_on_schedule() {
        let cfg = cfg(2).with_fault(Fault::RankAbort { rank: 1, after_events: 2 }).unwrap();
        let err = run(cfg, |p| {
            let buf = p.alloc_i32s(1);
            let win = p.win_create(buf, 4, CommId::WORLD);
            p.win_fence(win);
            p.win_fence(win);
            p.win_free(win);
        })
        .unwrap_err();
        match err {
            SimError::RankPanicked { rank, message } => {
                assert_eq!(rank, 1, "the injected rank is the root cause");
                assert!(message.contains("fault injection"), "got {message}");
                assert!(message.contains("after 2 events"), "got {message}");
            }
            other => panic!("expected injected abort, got {other}"),
        }
    }

    /// A survivable rank failure does not fail the run: survivors finish,
    /// the failure is reported through `RunStats::failures`, and every
    /// survivor logs a `RankFailed` marker at its next synchronization.
    #[test]
    fn survivable_failure_lets_survivors_finish() {
        use crate::config::RecoveryPolicy;
        let cfg = cfg(3)
            .with_delivery(DeliveryPolicy::AtClose)
            .with_fault(Fault::RankFailure {
                rank: 2,
                after_events: 2,
                recover: RecoveryPolicy::Notify,
            })
            .unwrap();
        let r = run(cfg, |p| {
            let buf = p.alloc_i32s(1);
            let win = p.win_create(buf, 4, CommId::WORLD); // call #1
            p.win_fence(win); // call #2: closes epoch 1
            p.win_fence(win); // call #3: rank 2 dies; survivors complete around it
            p.win_free(win);
        })
        .unwrap();
        assert_eq!(r.stats.failures, vec![(2, 1)], "rank 2 died after closing 1 epoch");
        let trace = r.trace.unwrap();
        for survivor in [0usize, 1] {
            let markers: Vec<_> = trace.procs[survivor]
                .events
                .iter()
                .filter_map(|e| match e.kind {
                    EventKind::RankFailed { failed, epoch } => Some((failed.0, epoch)),
                    _ => None,
                })
                .collect();
            assert_eq!(markers, vec![(2, 1)], "rank {survivor} observed the failure once");
        }
        // The dead rank's own log is truncated, with no failure marker.
        assert!(trace.procs[2]
            .events
            .iter()
            .all(|e| !matches!(e.kind, EventKind::RankFailed { .. })));
    }

    /// Both survivors observe the failure at the same program point: the
    /// first collective that completed around the dead rank. Determinism
    /// holds across repeated runs.
    #[test]
    fn failure_observation_is_deterministic() {
        use crate::config::RecoveryPolicy;
        let observe = || {
            let r = run(
                cfg(4)
                    .with_delivery(DeliveryPolicy::AtClose)
                    .with_fault(Fault::RankFailure {
                        rank: 3,
                        after_events: 3,
                        recover: RecoveryPolicy::Notify,
                    })
                    .unwrap(),
                |p| {
                    let buf = p.alloc_i32s(1);
                    let win = p.win_create(buf, 4, CommId::WORLD);
                    p.win_fence(win);
                    p.win_fence(win); // rank 3 (3 events logged) dies here
                    p.win_fence(win);
                    p.win_free(win);
                },
            )
            .unwrap();
            let trace = r.trace.unwrap();
            (0..3)
                .map(|rank| {
                    trace.procs[rank]
                        .events
                        .iter()
                        .position(|e| matches!(e.kind, EventKind::RankFailed { .. }))
                })
                .collect::<Vec<_>>()
        };
        let first = observe();
        assert!(first.iter().all(|p| p.is_some()), "every survivor notified: {first:?}");
        for _ in 0..5 {
            assert_eq!(observe(), first, "notification position is scheduling-independent");
        }
    }

    #[test]
    fn dropped_rma_loses_update_but_is_logged() {
        let cfg = cfg(2)
            .with_delivery(DeliveryPolicy::Eager)
            .with_fault(Fault::DropRma { rank: 0, percent: 100 })
            .unwrap();
        let r = run(cfg, |p| {
            let buf = p.alloc_i32s(1);
            let win = p.win_create(buf, 4, CommId::WORLD);
            p.win_fence(win);
            if p.rank() == 0 {
                let src = p.alloc_i32s(1);
                p.poke_i32(src, 7);
                p.put(src, 1, DatatypeId::INT, 1, 0, 1, DatatypeId::INT, win);
            }
            p.win_fence(win);
            if p.rank() == 1 {
                assert_eq!(p.peek_i32(buf), 0, "dropped put never landed");
            }
            p.win_free(win);
        })
        .unwrap();
        // The call is still in the trace: the log and memory now disagree,
        // which is exactly the hazard degraded-mode checking must survive.
        let trace = r.trace.unwrap();
        let puts =
            trace.procs[0].events.iter().filter(|e| matches!(e.kind, EventKind::Rma(_))).count();
        assert_eq!(puts, 1, "dropped op is still logged");
    }

    #[test]
    fn delayed_rma_defeats_eager_delivery() {
        let cfg = cfg(2)
            .with_delivery(DeliveryPolicy::Eager)
            .with_fault(Fault::DelayRma { rank: 0, percent: 100 })
            .unwrap();
        run(cfg, |p| {
            let buf = p.alloc_i32s(1);
            if p.rank() == 1 {
                p.poke_i32(buf, 5);
            }
            let win = p.win_create(buf, 4, CommId::WORLD);
            p.win_fence(win);
            let dst = p.alloc_i32s(1);
            if p.rank() == 0 {
                p.get(dst, 1, DatatypeId::INT, 1, 0, 1, DatatypeId::INT, win);
                assert_eq!(p.peek_i32(dst), 0, "delayed despite the eager policy");
            }
            p.win_fence(win);
            if p.rank() == 0 {
                assert_eq!(p.peek_i32(dst), 5, "delivered at the closing fence");
            }
            p.win_free(win);
        })
        .unwrap();
    }

    #[test]
    fn run_tolerant_salvages_partial_trace() {
        let cfg = cfg(2)
            .with_instrument(Instrument::Relevant)
            .with_fault(Fault::RankAbort { rank: 1, after_events: 2 })
            .unwrap();
        let out = run_tolerant(cfg, |p| {
            let buf = p.alloc_i32s(1);
            let win = p.win_create(buf, 4, CommId::WORLD);
            p.win_fence(win);
            p.tstore_i32(buf, 1);
            p.win_fence(win);
            p.win_free(win);
        })
        .unwrap();
        match out.error {
            Some(SimError::RankPanicked { rank: 1, ref message }) => {
                assert!(message.contains("fault injection"), "got {message}");
            }
            ref other => panic!("expected rank 1 injected abort, got {other:?}"),
        }
        let trace = out.trace.expect("partial trace survives the crash");
        assert_eq!(trace.procs.len(), 2, "every rank has a (possibly truncated) log");
        assert!(!trace.procs[1].events.is_empty(), "rank 1 logged events before dying");
        assert!(
            trace.procs[1].events.len() < trace.procs[0].events.len(),
            "rank 1's log is truncated relative to the survivor ({} vs {})",
            trace.procs[1].events.len(),
            trace.procs[0].events.len()
        );
    }

    #[test]
    fn run_tolerant_clean_run_has_no_error() {
        let out = run_tolerant(cfg(2), |p| {
            p.barrier(CommId::WORLD);
        })
        .unwrap();
        assert!(out.error.is_none(), "got {:?}", out.error);
        let trace = out.trace.unwrap();
        assert_eq!(trace.procs.len(), 2);
        assert!(trace.procs.iter().all(|p| !p.events.is_empty()));
    }

    #[test]
    fn run_tolerant_skips_exit_protocol_checks() {
        // The same leak that makes strict `run` fail with a protocol error
        // is salvaged — with the leaked op still in the log.
        let out = run_tolerant(cfg(2).with_delivery(DeliveryPolicy::AtClose), |p| {
            let buf = p.alloc_i32s(1);
            let win = p.win_create(buf, 4, CommId::WORLD);
            p.win_fence(win);
            if p.rank() == 0 {
                let src = p.alloc_i32s(1);
                p.put(src, 1, DatatypeId::INT, 1, 0, 1, DatatypeId::INT, win);
            }
        })
        .unwrap();
        assert!(out.error.is_none(), "tolerant mode skips exit checks: {:?}", out.error);
        let trace = out.trace.unwrap();
        let puts =
            trace.procs[0].events.iter().filter(|e| matches!(e.kind, EventKind::Rma(_))).count();
        assert_eq!(puts, 1, "the unsynchronized op is preserved for the checker");
    }
}
