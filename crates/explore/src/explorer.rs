//! The DFS engine: one controlled run per schedule, sleep-set pruning
//! from the happens-before analysis, fingerprint deduplication, and a
//! static shard split for parallel exploration.

use crate::decision::{DecisionVec, WitnessError};
use crate::oracle::{Executed, ReplayOracle};
use crate::report::{ExploreReport, Findings, ReplayOutcome, Schedules, Verdict};
use mcc_core::{racing_events, AnalysisSession, ConsistencyError, Severity};
use mcc_mpi_sim::{run_tolerant, Delivery, Proc, SimConfig, SimError};
use mcc_types::{EventRef, Rank, Trace};
use std::collections::HashSet;
use std::fmt::{self, Write as _};
use std::sync::Arc;
use std::time::Duration;

/// One decision on the DFS stack.
#[derive(Debug, Clone)]
struct Frame {
    rank: u32,
    index: u64,
    /// Event-log position of the operation the decision controls, from
    /// the most recent run that executed this frame.
    event_idx: Option<u64>,
    decision: Delivery,
    /// Already flipped once: both branches of this frame are covered.
    flipped: bool,
    /// Pinned by the shard split: never flipped in this shard.
    fixed: bool,
    /// Cited by a happens-before finding in some run — the only frames
    /// worth flipping (see the crate docs for the sleep-set argument).
    racing: bool,
}

/// One executed schedule before the cross-shard merge.
#[derive(Debug, Clone)]
struct RawRecord {
    witness: String,
    verdict: Verdict,
    findings: Vec<ConsistencyError>,
    fingerprint: Option<u64>,
    note: Option<String>,
}

/// The mutable state of one shard's DFS.
#[derive(Debug, Clone, Default)]
struct ShardState {
    stack: Vec<Frame>,
    seen: HashSet<u64>,
    records: Vec<RawRecord>,
    runs: u64,
    pruned: u64,
    choice_points: u64,
    exhausted: bool,
}

/// An FNV-1a hash state. Fed through `fmt::Write`, it hashes `Debug`
/// output as it is produced, without building the string.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
    }
}

impl fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.bytes(s.as_bytes());
        Ok(())
    }
}

/// Canonical fingerprint of a trace: two runs whose ranks logged the same
/// event sequences are behaviourally equivalent for the checker, whatever
/// decision vectors produced them.
fn fingerprint(trace: &Trace) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    for p in &trace.procs {
        h.bytes(&(p.events.len() as u64).to_le_bytes());
        for e in &p.events {
            // Writing into `Fnv` cannot fail.
            let _ = write!(h, "{:?}", e.kind);
        }
    }
    h.0
}

/// Systematic exploration of the delivery schedules of one simulated
/// program. See the crate docs for the algorithm.
#[derive(Debug, Clone)]
pub struct Explorer {
    nprocs: u32,
    max_schedules: u64,
    max_depth: usize,
    threads: usize,
    watchdog: Duration,
}

impl Explorer {
    /// An explorer for a `nprocs`-rank program with the default bounds:
    /// 256 schedules, flip depth 64, sequential, 500 ms deadlock
    /// watchdog.
    pub fn new(nprocs: u32) -> Self {
        Self {
            nprocs,
            max_schedules: 256,
            max_depth: 64,
            threads: 1,
            watchdog: Duration::from_millis(500),
        }
    }

    /// Caps the number of simulated runs.
    pub fn with_max_schedules(mut self, max: u64) -> Self {
        self.max_schedules = max.max(1);
        self
    }

    /// Caps the stack depth at which decisions may be flipped.
    pub fn with_max_depth(mut self, depth: usize) -> Self {
        self.max_depth = depth.max(1);
        self
    }

    /// Number of worker threads for the shard phase. The report is
    /// byte-identical at every thread count; threads only change
    /// wall-clock time.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Deadlock watchdog timeout for every run.
    pub fn with_watchdog(mut self, timeout: Duration) -> Self {
        self.watchdog = timeout;
        self
    }

    /// One controlled run: replay `prefix`, default the rest to at-close
    /// (the worst legal delivery), salvage the trace even on failure.
    fn run_once<F>(
        &self,
        body: &F,
        prefix: DecisionVec,
    ) -> (Option<Trace>, Option<SimError>, Vec<Vec<Executed>>)
    where
        F: Fn(&mut Proc) + Send + Sync,
    {
        let oracle = Arc::new(ReplayOracle::new(prefix, self.nprocs, Delivery::AtClose));
        let config =
            SimConfig::new(self.nprocs).with_watchdog(self.watchdog).with_oracle(oracle.clone());
        let (trace, error) = match run_tolerant(config, body) {
            Ok(out) => (out.trace, out.error),
            Err(e) => (None, Some(e)),
        };
        (trace, error, oracle.take_executed())
    }

    /// Runs the schedule described by the current stack, syncs the stack
    /// with what actually executed, and records the outcome.
    fn step<F>(&self, body: &F, state: &mut ShardState)
    where
        F: Fn(&mut Proc) + Send + Sync,
    {
        let mut prefix = DecisionVec::new(self.nprocs);
        let mut per_rank: Vec<Vec<(u64, Delivery)>> = vec![Vec::new(); self.nprocs as usize];
        for f in &state.stack {
            per_rank[f.rank as usize].push((f.index, f.decision));
        }
        for (rank, decisions) in per_rank.into_iter().enumerate() {
            for (index, decision) in decisions {
                prefix.push(rank as u32, index, decision);
            }
        }
        let (trace, error, executed) = self.run_once(body, prefix);

        let mut full = DecisionVec::new(self.nprocs);
        for (rank, decisions) in executed.iter().enumerate() {
            for (i, (d, _)) in decisions.iter().enumerate() {
                full.push(rank as u32, i as u64, *d);
            }
        }
        let witness = full.witness();
        state.choice_points = state.choice_points.max(full.len() as u64);

        // A failed run can stop before consuming the whole prefix: drop
        // frames that never executed, refresh event positions for those
        // that did.
        state.stack.retain(|f| (f.index as usize) < executed[f.rank as usize].len());
        for f in &mut state.stack {
            f.event_idx = executed[f.rank as usize][f.index as usize].1;
        }

        let record = match (error, trace) {
            (Some(e), _) => {
                // No analysis of a deadlocked/crashed run's salvaged
                // trace: conservatively every decision may matter.
                self.extend_stack(state, &executed);
                for f in &mut state.stack {
                    f.racing = true;
                }
                let verdict = if matches!(e, SimError::Deadlock { .. }) {
                    Verdict::Deadlock
                } else {
                    Verdict::Crashed
                };
                RawRecord {
                    witness,
                    verdict,
                    findings: Vec::new(),
                    fingerprint: None,
                    note: Some(e.to_string()),
                }
            }
            (None, Some(trace)) => {
                let fp = fingerprint(&trace);
                if !state.seen.insert(fp) {
                    // Equivalent trace already explored. Its subtree
                    // would replicate the original's, so no new frames
                    // and no racing marks: the whole branch is cut.
                    RawRecord {
                        witness,
                        verdict: Verdict::Deduped,
                        findings: Vec::new(),
                        fingerprint: Some(fp),
                        note: None,
                    }
                } else {
                    self.extend_stack(state, &executed);
                    let racing = racing_events(&trace);
                    for f in &mut state.stack {
                        if let Some(idx) = f.event_idx {
                            if racing.contains(&EventRef::new(Rank(f.rank), idx as usize)) {
                                f.racing = true;
                            }
                        }
                    }
                    let findings = AnalysisSession::new().run(&trace).diagnostics;
                    let verdict = if findings.iter().any(|d| d.severity == Severity::Error) {
                        Verdict::Buggy
                    } else {
                        Verdict::Clean
                    };
                    RawRecord { witness, verdict, findings, fingerprint: Some(fp), note: None }
                }
            }
            (None, None) => RawRecord {
                witness,
                verdict: Verdict::Crashed,
                findings: Vec::new(),
                fingerprint: None,
                note: Some("run produced no trace".into()),
            },
        };
        state.records.push(record);
    }

    /// Appends frames for the choice points the last run reached beyond
    /// the current stack, in deterministic `(rank, index)` order.
    fn extend_stack(&self, state: &mut ShardState, executed: &[Vec<Executed>]) {
        let mut counts = vec![0usize; self.nprocs as usize];
        for f in &state.stack {
            counts[f.rank as usize] += 1;
        }
        let mut fresh = Vec::new();
        for (rank, decisions) in executed.iter().enumerate() {
            for (index, &(decision, event_idx)) in decisions.iter().enumerate().skip(counts[rank]) {
                fresh.push(Frame {
                    rank: rank as u32,
                    index: index as u64,
                    event_idx,
                    decision,
                    flipped: false,
                    fixed: false,
                    racing: false,
                });
            }
        }
        fresh.sort_by_key(|f| (f.rank, f.index));
        state.stack.extend(fresh);
    }

    /// Flips the deepest unflipped racing frame within the depth bound
    /// and truncates everything after it. Returns `false` when the shard
    /// is finished. Frames popped without ever being flipped are the
    /// pruned subtrees; a flippable frame beyond the depth bound means
    /// the space was not covered.
    fn backtrack(&self, state: &mut ShardState) -> bool {
        let flippable = |f: &Frame| !f.fixed && !f.flipped && f.racing;
        if state.stack.len() > self.max_depth && state.stack[self.max_depth..].iter().any(flippable)
        {
            state.exhausted = true;
        }
        let bounded = self.max_depth.min(state.stack.len());
        match state.stack[..bounded].iter().rposition(flippable) {
            Some(i) => {
                state.pruned += state.stack[i + 1..]
                    .iter()
                    .filter(|f| !f.fixed && !f.flipped && !f.racing)
                    .count() as u64;
                state.stack.truncate(i + 1);
                let f = &mut state.stack[i];
                f.decision = f.decision.flipped();
                f.flipped = true;
                f.event_idx = None;
                true
            }
            None => {
                state.pruned +=
                    state.stack.iter().filter(|f| !f.fixed && !f.flipped && !f.racing).count()
                        as u64;
                false
            }
        }
    }

    /// Runs one shard's DFS to completion or budget exhaustion. With
    /// `resume` the state already reflects an executed schedule and the
    /// loop starts at the backtrack.
    fn explore_shard<F>(
        &self,
        body: &F,
        mut state: ShardState,
        budget: u64,
        resume: bool,
    ) -> ShardState
    where
        F: Fn(&mut Proc) + Send + Sync,
    {
        let _span = mcc_obs::global().span("explore.shard");
        let mut ran = 0u64;
        if !resume {
            if budget == 0 {
                // This shard's subtree was never entered.
                state.exhausted = true;
                state.runs = 0;
                return state;
            }
            self.step(body, &mut state);
            ran = 1;
        }
        while self.backtrack(&mut state) {
            if ran >= budget {
                state.exhausted = true;
                break;
            }
            self.step(body, &mut state);
            ran += 1;
        }
        state.runs = ran;
        state
    }

    /// Explores the schedules of `body` and returns the merged report.
    pub fn run<F>(&self, body: F) -> ExploreReport
    where
        F: Fn(&mut Proc) + Send + Sync,
    {
        let _span = mcc_obs::global().span("explore.run");
        // Schedule 0: everything at-close, the all-default root.
        let mut root = ShardState::default();
        self.step(&body, &mut root);
        let root_record = root.records.drain(..).next().expect("root run recorded");
        let root_cp = root.choice_points;

        // Static split: the first (up to) two racing frames of the root
        // stack define up to four shard prefixes. The decomposition
        // depends only on the root run, never on the thread count.
        let splits: Vec<usize> = root
            .stack
            .iter()
            .enumerate()
            .filter(|(i, f)| *i < self.max_depth && !f.fixed && !f.flipped && f.racing)
            .map(|(i, _)| i)
            .take(2)
            .collect();
        let remaining = self.max_schedules.saturating_sub(1);

        let shards: Vec<ShardState> = if splits.is_empty() || remaining == 0 {
            root.choice_points = 0;
            vec![self.explore_shard(&body, root, remaining, true)]
        } else {
            let last_split = *splits.last().expect("splits nonempty");
            let nshards = 1usize << splits.len();
            let inits: Vec<(ShardState, bool)> = (0..nshards)
                .map(|combo| {
                    let mut st = ShardState {
                        stack: root.stack.clone(),
                        seen: root.seen.clone(),
                        ..ShardState::default()
                    };
                    if combo == 0 {
                        // Resumes the root's DFS with the shared prefix
                        // pinned; the other shards own the flips.
                        for f in &mut st.stack[..=last_split] {
                            f.fixed = true;
                        }
                    } else {
                        st.stack.truncate(last_split + 1);
                        for f in &mut st.stack {
                            f.fixed = true;
                        }
                        for (bit, &pos) in splits.iter().enumerate() {
                            if combo & (1 << bit) != 0 {
                                let f = &mut st.stack[pos];
                                f.decision = f.decision.flipped();
                                f.event_idx = None;
                            }
                        }
                    }
                    (st, combo == 0)
                })
                .collect();
            let base = remaining / nshards as u64;
            let extra = remaining % nshards as u64;
            rayon::par_map(nshards, self.threads, |i| {
                let (state, resume) = inits[i].clone();
                let budget = base + u64::from((i as u64) < extra);
                self.explore_shard(&body, state, budget, resume)
            })
        };
        self.merge(root_record, root_cp, shards)
    }

    /// Merges the root record and the shard outcomes into the report,
    /// applying the cross-shard fingerprint dedup in a fixed order.
    fn merge(
        &self,
        root_record: RawRecord,
        root_cp: u64,
        shards: Vec<ShardState>,
    ) -> ExploreReport {
        let mut records = vec![root_record];
        let mut pruned = 0u64;
        let mut choice_points = root_cp;
        let mut exhausted = false;
        for s in shards {
            records.extend(s.records);
            pruned += s.pruned;
            choice_points = choice_points.max(s.choice_points);
            exhausted |= s.exhausted;
        }
        let mut seen = HashSet::new();
        for r in &mut records {
            if let Some(fp) = r.fingerprint {
                if !seen.insert(fp) && matches!(r.verdict, Verdict::Clean | Verdict::Buggy) {
                    r.verdict = Verdict::Deduped;
                    r.findings.clear();
                }
            }
        }
        let deduped = records.iter().filter(|r| r.verdict == Verdict::Deduped).count() as u64;
        let first_buggy =
            records.iter().position(|r| r.verdict == Verdict::Buggy).map(|i| i as u64);
        let mut finding_keys = HashSet::new();
        let mut findings = Findings::default();
        for (i, r) in records.iter().enumerate() {
            for e in &r.findings {
                if finding_keys.insert(e.dedup_key()) {
                    findings.push(i as u64, &r.witness, e);
                }
            }
        }
        // The report outlives the search (callers keep it), so it holds
        // no spare capacity: its buffers grew by doubling.
        findings.shrink_to_fit();
        let mut schedules = Schedules::with_capacity(records.len());
        for r in &records {
            schedules.push(&r.witness, r.verdict, r.findings.len() as u64, r.note.as_deref());
        }
        schedules.shrink_to_fit();
        let naive_schedules = if choice_points >= 64 { u64::MAX } else { 1u64 << choice_points };
        // Counters are emitted here, after the deterministic cross-shard
        // merge, so their values depend only on the decomposition — never
        // on the thread count.
        let obs = mcc_obs::global();
        obs.add(mcc_obs::names::EXPLORE_SCHEDULES_RUN, records.len() as u64);
        obs.add(mcc_obs::names::EXPLORE_SCHEDULES_PRUNED, pruned);
        obs.add(mcc_obs::names::EXPLORE_SCHEDULES_DEDUPED, deduped);
        ExploreReport {
            schema_version: 1,
            nprocs: self.nprocs,
            max_schedules: self.max_schedules,
            max_depth: self.max_depth,
            schedules_explored: records.len() as u64,
            deduped,
            pruned,
            choice_points,
            naive_schedules,
            exhausted,
            first_buggy,
            schedules,
            findings,
        }
    }

    /// Replays one witness decision vector and reports what that exact
    /// schedule does.
    pub fn replay<F>(&self, witness: &str, body: F) -> Result<ReplayOutcome, WitnessError>
    where
        F: Fn(&mut Proc) + Send + Sync,
    {
        let prefix = DecisionVec::parse(witness)?;
        if prefix.nprocs() != self.nprocs {
            return Err(WitnessError {
                message: format!(
                    "witness names {} rank(s) but the case runs {}",
                    prefix.nprocs(),
                    self.nprocs
                ),
            });
        }
        let (trace, error, executed) = self.run_once(&body, prefix);
        let mut full = DecisionVec::new(self.nprocs);
        for (rank, decisions) in executed.iter().enumerate() {
            for (i, (d, _)) in decisions.iter().enumerate() {
                full.push(rank as u32, i as u64, *d);
            }
        }
        let findings = match (&error, &trace) {
            (None, Some(t)) => AnalysisSession::new().run(t).diagnostics,
            _ => Vec::new(),
        };
        Ok(ReplayOutcome {
            witness: full.witness(),
            findings,
            sim_error: error.map(|e| e.to_string()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcc_apps::bugs::archetypes;
    use mcc_apps::bugs::bt_broadcast;
    use mcc_apps::bugs::pingpong;

    #[test]
    fn fig2a_covers_the_space_and_finds_the_bug() {
        let report = Explorer::new(2).run(archetypes::fig2a);
        assert!(!report.exhausted, "two schedules cover one choice point");
        assert_eq!(report.first_buggy, Some(0), "at-close root exposes the race");
        assert_eq!(report.choice_points, 1);
        assert_eq!(report.naive_schedules, 2);
        assert!(report.schedules_explored <= 2, "got {}", report.schedules_explored);
        assert!(report.has_errors());
        assert_eq!(report.exit_code(), 1);
        let witness = report.findings.get(0).unwrap().witness;
        assert!(witness.contains('c'), "root witness is all at-close: {witness}");
    }

    #[test]
    fn fixed_ping_pong_prunes_every_flip() {
        let report = Explorer::new(2).run(pingpong::fixed);
        assert_eq!(report.schedules_explored, 1, "no racing decision to flip");
        assert_eq!(report.first_buggy, None);
        assert!(!report.exhausted);
        assert!(report.findings.is_empty());
        assert_eq!(report.exit_code(), 0);
        assert!(report.pruned > 0, "the fixed puts are pruned, not explored");
        assert!(report.naive_schedules > report.schedules_explored);
    }

    #[test]
    fn reports_are_identical_across_thread_counts() {
        let json: Vec<String> = [1usize, 2, 4]
            .iter()
            .map(|&t| Explorer::new(2).with_threads(t).run(pingpong::buggy).to_json())
            .collect();
        assert_eq!(json[0], json[1], "1 vs 2 threads");
        assert_eq!(json[0], json[2], "1 vs 4 threads");
    }

    #[test]
    fn budget_of_one_reports_exhaustion_when_flips_remain() {
        let report = Explorer::new(2).with_max_schedules(1).run(archetypes::fig2a);
        assert_eq!(report.schedules_explored, 1);
        assert!(report.exhausted, "the eager sibling was never visited");
        // The bug is still found in the root schedule.
        assert_eq!(report.first_buggy, Some(0));
    }

    #[test]
    fn replay_reproduces_the_recorded_schedule() {
        let report = Explorer::new(2).run(archetypes::fig2a);
        let finding = report.findings.get(0).unwrap();
        let outcome = Explorer::new(2).replay(&finding.witness, archetypes::fig2a).unwrap();
        assert_eq!(outcome.witness, finding.witness);
        assert!(outcome.sim_error.is_none());
        assert_eq!(outcome.findings.len(), report.schedules.get(0).unwrap().findings as usize);
        assert_eq!(
            outcome.findings[0].dedup_key(),
            finding.error.dedup_key(),
            "the replayed schedule reproduces the same finding"
        );
    }

    /// Reports are kept by callers, so they must not carry the search's
    /// spare capacity. bt-broadcast explores dozens of schedules, enough
    /// for an in-place collect or doubling growth to leave slack.
    #[test]
    fn report_vectors_hold_no_spare_capacity() {
        let report = Explorer::new(2).run(bt_broadcast::buggy);
        assert!(report.schedules.len() > 16, "got {}", report.schedules.len());
        assert!(!report.findings.is_empty());
        let (text, items) = report.schedules.buffers();
        assert_eq!(items.capacity(), items.len());
        assert_eq!(text.capacity(), text.len());
        let (text, items) = report.findings.buffers();
        assert_eq!(items.capacity(), items.len());
        assert_eq!(text.capacity(), text.len());
    }

    #[test]
    fn replay_rejects_wrong_rank_count() {
        let err = Explorer::new(2).replay("c/c/c", archetypes::fig2a).unwrap_err();
        assert!(err.to_string().contains("3 rank(s)"), "{err}");
    }
}
