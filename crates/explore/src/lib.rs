#![warn(missing_docs)]
//! `mcc-explore` — systematic schedule exploration with partial-order
//! reduction.
//!
//! The simulator's adversarial delivery policy answers one binary
//! question per one-sided operation: apply the memory effect eagerly or
//! at the closing synchronization. Randomizing those answers (the
//! historical seeded mode) makes buggy programs misbehave
//! *intermittently*; this crate instead enumerates the answers
//! **systematically**:
//!
//! 1. every run executes under a [`ReplayOracle`] that replays an
//!    explicit per-rank decision vector and records the choice points it
//!    encounters;
//! 2. a DFS over the decision tree flips one recorded decision at a time
//!    and re-runs, so every reachable delivery schedule is visited;
//! 3. **sleep-set-style pruning** cuts the tree down: after each run the
//!    happens-before analysis ([`mcc_core::racing_events`]) names the
//!    operations that are vector-clock concurrent with a conflicting
//!    access. Flipping the delivery of any *other* operation commutes
//!    with everything around it and cannot change observable behaviour,
//!    so only racing decisions are ever flipped;
//! 4. schedules whose traces are identical (canonical FNV fingerprint)
//!    are **deduplicated** — their subtrees replicate an already-explored
//!    subtree and are cut;
//! 5. independent subtree prefixes are explored as shards on a thread
//!    pool, with a static split so the merged [`ExploreReport`] is
//!    byte-identical at every thread count.
//!
//! Every completed schedule is analyzed by the normal
//! [`mcc_core::AnalysisSession`]; findings carry the **witness** decision
//! vector that replays them deterministically (`mcc explore --replay`).
//! Schedules that deadlock under some delivery timing are caught by the
//! simulator's watchdog and recorded with a [`Verdict::Deadlock`] instead
//! of hanging the search.

pub mod decision;
pub mod explorer;
pub mod oracle;
pub mod report;

pub use decision::{DecisionVec, WitnessError};
pub use explorer::Explorer;
pub use oracle::ReplayOracle;
pub use report::{
    ExploreFinding, ExploreReport, Findings, ReplayOutcome, ScheduleRecord, Schedules, Verdict,
};
