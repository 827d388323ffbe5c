//! The merged result of one exploration: per-schedule verdicts, witness
//! decision vectors, and the deduplicated findings.

use mcc_core::{Confidence, ConsistencyError, ErrorScope, OpInfo, Severity};
use mcc_types::{ConflictKind, EventRef, MemRegion, Rank, SourceLoc};
use serde::{Serialize, Value};
use std::fmt::Write as _;

/// What one explored schedule did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum Verdict {
    /// Ran to completion, no consistency errors.
    Clean,
    /// Ran to completion with at least one consistency error.
    Buggy,
    /// Ran to completion but produced a trace already seen under another
    /// decision vector — an equivalent schedule, not analyzed twice.
    Deduped,
    /// The schedule deadlocked; the watchdog terminated it and the
    /// decision vector is recorded so the hang can be replayed.
    Deadlock,
    /// A rank panicked or violated the RMA protocol under this schedule.
    Crashed,
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Verdict::Clean => f.write_str("clean"),
            Verdict::Buggy => f.write_str("buggy"),
            Verdict::Deduped => f.write_str("deduplicated"),
            Verdict::Deadlock => f.write_str("deadlock"),
            Verdict::Crashed => f.write_str("crashed"),
        }
    }
}

/// One explored schedule.
#[derive(Debug, Clone, Serialize)]
pub struct ScheduleRecord {
    /// Position in exploration order (0 is the all-default root).
    pub index: u64,
    /// The full decision vector that reproduces this schedule.
    pub witness: String,
    /// What happened.
    pub verdict: Verdict,
    /// Consistency errors and warnings found in this schedule (0 for
    /// deduplicated, deadlocked, and crashed schedules).
    pub findings: u64,
    /// The simulator's failure description for deadlocked/crashed
    /// schedules.
    pub note: Option<String>,
}

/// One finding with the schedule that produced it.
#[derive(Debug, Clone, Serialize)]
pub struct ExploreFinding {
    /// Index of the schedule the finding was first seen in.
    pub schedule: u64,
    /// Decision vector for `mcc explore --replay`.
    pub witness: String,
    /// The finding itself.
    pub error: ConsistencyError,
}

/// A report's strings, each distinct one stored once in one buffer.
///
/// Callers may keep many reports (the bench keeps thousands), and most
/// of a report's strings are short or repeated: every finding of a
/// schedule shares its witness, and the findings of one program share
/// source files, routines, operation names and often explanations.
#[derive(Debug, Clone, Default)]
struct Text(String);

/// A substring of a [`Text`].
#[derive(Debug, Clone, Copy)]
struct Span {
    start: u32,
    len: u32,
}

impl Text {
    /// The span of `s`, appending it if it is not there yet (as a whole
    /// string or inside another one). A report holds at most a few
    /// kilobytes of text, so a scan is enough.
    fn intern(&mut self, s: &str) -> Span {
        let start = self.0.find(s).unwrap_or_else(|| {
            self.0.push_str(s);
            self.0.len() - s.len()
        });
        Span { start: start as u32, len: s.len() as u32 }
    }

    fn get(&self, span: Span) -> String {
        self.0[span.start as usize..(span.start + span.len) as usize].to_string()
    }
}

/// The explored schedules of a report, stored compactly: witnesses and
/// notes live in one text buffer. [`Schedules::get`] and
/// [`Schedules::iter`] rebuild whole [`ScheduleRecord`]s, and the JSON
/// form is the array of whole records.
#[derive(Debug, Clone, Default)]
pub struct Schedules {
    text: Text,
    items: Vec<Slot>,
}

/// One schedule with its strings replaced by spans; its index is its
/// position.
#[derive(Debug, Clone)]
struct Slot {
    verdict: Verdict,
    findings: u64,
    witness: Span,
    note: Option<Span>,
}

impl Schedules {
    /// Creates an empty list with room for `n` schedules.
    pub(crate) fn with_capacity(n: usize) -> Self {
        Self { text: Text::default(), items: Vec::with_capacity(n) }
    }

    /// Appends the next schedule.
    pub(crate) fn push(
        &mut self,
        witness: &str,
        verdict: Verdict,
        findings: u64,
        note: Option<&str>,
    ) {
        let slot = Slot {
            verdict,
            findings,
            witness: self.text.intern(witness),
            note: note.map(|n| self.text.intern(n)),
        };
        self.items.push(slot);
    }

    /// Drops the spare capacity left by building.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.text.0.shrink_to_fit();
        self.items.shrink_to_fit();
    }

    /// The buffers a report keeps, for the capacity test.
    #[cfg(test)]
    pub(crate) fn buffers(&self) -> (&String, &Vec<impl Sized>) {
        (&self.text.0, &self.items)
    }

    fn rebuild(&self, index: usize, s: &Slot) -> ScheduleRecord {
        ScheduleRecord {
            index: index as u64,
            witness: self.text.get(s.witness),
            verdict: s.verdict,
            findings: s.findings,
            note: s.note.map(|n| self.text.get(n)),
        }
    }

    /// Number of schedules.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether no schedule was explored.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The `i`-th schedule, rebuilt whole.
    pub fn get(&self, i: usize) -> Option<ScheduleRecord> {
        self.items.get(i).map(|s| self.rebuild(i, s))
    }

    /// Every schedule in exploration order, rebuilt whole.
    pub fn iter(&self) -> impl Iterator<Item = ScheduleRecord> + '_ {
        self.items.iter().enumerate().map(|(i, s)| self.rebuild(i, s))
    }
}

impl Serialize for Schedules {
    fn to_value(&self) -> Value {
        Value::Arr(self.iter().map(|s| s.to_value()).collect())
    }
}

/// The deduplicated findings of a report, stored compactly: each
/// distinct string (witness, operation, file, routine, explanation) is
/// stored once in a per-report text buffer, so a report costs two
/// allocations however many findings it holds. [`Findings::get`] and
/// [`Findings::iter`] rebuild whole [`ExploreFinding`]s, and the JSON
/// form is the array of whole findings.
#[derive(Debug, Clone, Default)]
pub struct Findings {
    text: Text,
    items: Vec<Entry>,
}

/// One finding with its strings replaced by spans.
#[derive(Debug, Clone)]
struct Entry {
    schedule: u64,
    witness: Span,
    severity: Severity,
    scope: ErrorScope,
    kind: ConflictKind,
    confidence: Confidence,
    explanation: Span,
    a: Side,
    b: Side,
}

/// One side of a finding ([`OpInfo`]) with its strings replaced by spans.
#[derive(Debug, Clone)]
struct Side {
    rank: Rank,
    ev: EventRef,
    op: Span,
    file: Span,
    line: u32,
    func: Span,
    region: Option<MemRegion>,
    epoch: Option<u32>,
}

impl Findings {
    /// Appends a finding, storing each of its strings once per report.
    pub(crate) fn push(&mut self, schedule: u64, witness: &str, error: &ConsistencyError) {
        let entry = Entry {
            schedule,
            witness: self.text.intern(witness),
            severity: error.severity,
            scope: error.scope,
            kind: error.kind,
            confidence: error.confidence,
            explanation: self.text.intern(&error.explanation),
            a: self.side(&error.a),
            b: self.side(&error.b),
        };
        self.items.push(entry);
    }

    /// Drops the spare capacity left by building.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.text.0.shrink_to_fit();
        self.items.shrink_to_fit();
    }

    /// The buffers a report keeps, for the capacity test.
    #[cfg(test)]
    pub(crate) fn buffers(&self) -> (&String, &Vec<impl Sized>) {
        (&self.text.0, &self.items)
    }

    fn side(&mut self, o: &OpInfo) -> Side {
        Side {
            rank: o.rank,
            ev: o.ev,
            op: self.text.intern(&o.op),
            file: self.text.intern(&o.loc.file),
            line: o.loc.line,
            func: self.text.intern(&o.loc.func),
            region: o.region,
            epoch: o.epoch,
        }
    }

    fn op(&self, s: &Side) -> OpInfo {
        OpInfo {
            rank: s.rank,
            ev: s.ev,
            op: self.text.get(s.op),
            loc: SourceLoc {
                file: self.text.get(s.file),
                line: s.line,
                func: self.text.get(s.func),
            },
            region: s.region,
            epoch: s.epoch,
        }
    }

    fn rebuild(&self, e: &Entry) -> ExploreFinding {
        ExploreFinding {
            schedule: e.schedule,
            witness: self.text.get(e.witness),
            error: ConsistencyError {
                severity: e.severity,
                scope: e.scope,
                a: self.op(&e.a),
                b: self.op(&e.b),
                kind: e.kind,
                explanation: self.text.get(e.explanation),
                confidence: e.confidence,
            },
        }
    }

    /// Number of findings.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether there are no findings.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The `i`-th finding, rebuilt whole.
    pub fn get(&self, i: usize) -> Option<ExploreFinding> {
        self.items.get(i).map(|e| self.rebuild(e))
    }

    /// Every finding in report order, rebuilt whole.
    pub fn iter(&self) -> impl Iterator<Item = ExploreFinding> + '_ {
        self.items.iter().map(|e| self.rebuild(e))
    }

    /// Whether any finding has error severity.
    pub fn has_errors(&self) -> bool {
        self.items.iter().any(|e| e.severity == Severity::Error)
    }
}

impl Serialize for Findings {
    fn to_value(&self) -> Value {
        Value::Arr(self.iter().map(|f| f.to_value()).collect())
    }
}

/// The merged exploration result.
#[derive(Debug, Clone, Serialize)]
pub struct ExploreReport {
    /// Report schema version.
    pub schema_version: u32,
    /// Ranks per schedule.
    pub nprocs: u32,
    /// The schedule budget the search ran under.
    pub max_schedules: u64,
    /// The flip-depth bound the search ran under.
    pub max_depth: usize,
    /// Simulated runs actually executed.
    pub schedules_explored: u64,
    /// Runs whose trace matched an earlier schedule's fingerprint.
    pub deduped: u64,
    /// Subtrees skipped because their decision commutes with every
    /// conflicting access (the sleep-set argument).
    pub pruned: u64,
    /// Distinct choice points observed in a single run, maximized over
    /// runs.
    pub choice_points: u64,
    /// `2^choice_points` (saturating): what naive enumeration would cost.
    pub naive_schedules: u64,
    /// Whether the budget or depth bound cut the search before the space
    /// was covered.
    pub exhausted: bool,
    /// Index of the first schedule with a [`Verdict::Buggy`] verdict.
    pub first_buggy: Option<u64>,
    /// Every explored schedule in exploration order.
    pub schedules: Schedules,
    /// Deduplicated findings, each with its witness.
    pub findings: Findings,
}

impl ExploreReport {
    /// Whether any schedule produced an error-severity finding.
    pub fn has_errors(&self) -> bool {
        self.findings.has_errors()
    }

    /// The documented process exit code: 1 when errors were found, 7 when
    /// the budget ran out before covering the space without finding any,
    /// 0 for full coverage with no errors (see `mc_checker::EXIT_CODE_TABLE`).
    pub fn exit_code(&self) -> u8 {
        if self.has_errors() {
            1
        } else if self.exhausted {
            7
        } else {
            0
        }
    }

    /// The stable JSON document (byte-identical at every thread count).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serializes")
    }

    /// Human-readable rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "schedule exploration over {} rank(s): {} schedule(s) explored \
             (naive enumeration: {} over {} choice point(s)), {} pruned, {} deduplicated",
            self.nprocs,
            self.schedules_explored,
            self.naive_schedules,
            self.choice_points,
            self.pruned,
            self.deduped,
        );
        for s in self.schedules.iter() {
            let _ = write!(out, "  [{}] {:<12} {}", s.index, s.witness, s.verdict);
            if s.verdict == Verdict::Buggy {
                let _ = write!(out, ": {} finding(s)", s.findings);
            }
            if let Some(note) = &s.note {
                let _ = write!(out, " ({note})");
            }
            out.push('\n');
        }
        match self.first_buggy {
            Some(k) => {
                let witness = self.schedules.get(k as usize).expect("a recorded schedule").witness;
                let _ = writeln!(
                    out,
                    "bug found at schedule {k} of {} — replay with --replay {witness}",
                    self.schedules_explored,
                );
            }
            None if self.exhausted => {
                let _ = writeln!(
                    out,
                    "schedule budget exhausted before covering the space (no errors found)"
                );
            }
            None => {
                let _ = writeln!(
                    out,
                    "no consistency error in any schedule ({} schedule(s) cover the space)",
                    self.schedules_explored,
                );
            }
        }
        for (i, f) in self.findings.iter().enumerate() {
            let _ = writeln!(
                out,
                "--- finding {} (schedule {}, witness {}) ---\n{}\n",
                i + 1,
                f.schedule,
                f.witness,
                f.error,
            );
        }
        out
    }
}

/// The outcome of replaying one witness.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// The decision vector actually executed (the witness, extended by
    /// defaults if the run asked for more decisions than it supplied).
    pub witness: String,
    /// Findings of the replayed schedule.
    pub findings: Vec<ConsistencyError>,
    /// Failure description when the schedule deadlocked or crashed.
    pub sim_error: Option<String>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty_report() -> ExploreReport {
        ExploreReport {
            schema_version: 1,
            nprocs: 2,
            max_schedules: 64,
            max_depth: 64,
            schedules_explored: 1,
            deduped: 0,
            pruned: 3,
            choice_points: 3,
            naive_schedules: 8,
            exhausted: false,
            first_buggy: None,
            schedules: {
                let mut s = Schedules::default();
                s.push("ccc/-", Verdict::Clean, 0, None);
                s
            },
            findings: Findings::default(),
        }
    }

    #[test]
    fn exit_codes_follow_the_documented_table() {
        let mut r = empty_report();
        assert_eq!(r.exit_code(), 0);
        r.exhausted = true;
        assert_eq!(r.exit_code(), 7, "exhausted without errors is exit 7");
    }

    #[test]
    fn clean_render_names_full_coverage() {
        let r = empty_report();
        let text = r.render();
        assert!(text.contains("no consistency error in any schedule"), "{text}");
        assert!(text.contains("3 pruned"), "{text}");
    }

    #[test]
    fn exhausted_render_names_the_budget() {
        let mut r = empty_report();
        r.exhausted = true;
        assert!(r
            .render()
            .contains("schedule budget exhausted before covering the space (no errors found)"));
    }
}
