//! End-to-end tests of `mcc explore`'s engine: deterministic reports at
//! every thread count, witness replay, ground truth over the bug
//! gallery, and deadlock-bearing schedules recorded instead of hung.

use mc_checker::apps::bugs;
use mc_checker::explore::{Explorer, Verdict};
use mc_checker::prelude::*;
use std::time::Duration;

/// A program whose behaviour genuinely depends on the delivery decision:
/// under eager delivery rank 0 sees the flag and exits cleanly; under
/// at-close delivery it reads a stale 0 and waits on a barrier rank 1
/// never joins — a schedule-dependent deadlock.
fn conditional_barrier(p: &mut Proc) {
    let flag = p.alloc_i32s(1);
    if p.rank() == 1 {
        p.poke_i32(flag, 1);
    }
    let win = p.win_create(flag, 4, CommId::WORLD);
    p.barrier(CommId::WORLD);
    let mut seen = 1;
    if p.rank() == 0 {
        let dst = p.alloc_i32s(1);
        p.win_lock(LockKind::Shared, 1, win);
        p.get(dst, 1, DatatypeId::INT, 1, 0, 1, DatatypeId::INT, win);
        // Eager delivery: 1. At-close: still 0 — the get completes only
        // at the unlock below.
        seen = p.peek_i32(dst);
        p.win_unlock(1, win);
    }
    p.win_free(win);
    if p.rank() == 0 && seen == 0 {
        p.barrier(CommId::WORLD); // rank 1 has already exited: abandoned
    }
}

/// Hides the panic backtraces of force-unblocked ranks in the deadlock
/// tests, restoring the previous hook afterwards.
fn quiet_panics<T>(f: impl FnOnce() -> T) -> T {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(prev);
    out
}

#[test]
fn reports_byte_identical_across_thread_counts() {
    for (name, body) in [
        ("fig2a", bugs::archetypes::fig2a as fn(&mut Proc)),
        ("ping-pong buggy", bugs::pingpong::buggy),
        ("ping-pong fixed", bugs::pingpong::fixed),
    ] {
        let json: Vec<String> = [1usize, 2, 4]
            .iter()
            .map(|&t| Explorer::new(2).with_threads(t).run(body).to_json())
            .collect();
        assert_eq!(json[0], json[1], "{name}: 1 vs 2 threads");
        assert_eq!(json[0], json[2], "{name}: 1 vs 4 threads");
        assert!(json[0].contains("\"schema_version\""), "{name}: report document");
    }
}

/// A gallery case: name, process count, body.
type GalleryCase = (&'static str, u32, fn(&mut Proc));

#[test]
fn gallery_ground_truth_under_exploration() {
    let buggy: [GalleryCase; 4] = [
        ("fig2a", 2, bugs::archetypes::fig2a),
        ("fig2d", 2, bugs::archetypes::fig2d),
        ("ping-pong", 2, bugs::pingpong::buggy),
        ("emulate", 2, bugs::emulate::buggy),
    ];
    for (name, nprocs, body) in buggy {
        let report = Explorer::new(nprocs).run(body);
        assert!(report.first_buggy.is_some(), "{name}: the bug must surface in some schedule");
        assert!(report.has_errors(), "{name}: error-severity findings expected");
        assert_eq!(report.exit_code(), 1, "{name}");
        let witness = report.findings.get(0).unwrap().witness;
        assert!(!witness.is_empty(), "{name}: finding carries its witness");
    }
    let fixed: [GalleryCase; 2] =
        [("ping-pong", 2, bugs::pingpong::fixed), ("emulate", 2, bugs::emulate::fixed)];
    for (name, nprocs, body) in fixed {
        let report = Explorer::new(nprocs).run(body);
        assert_eq!(report.first_buggy, None, "{name} (fixed): no buggy schedule");
        assert!(!report.has_errors(), "{name} (fixed)");
        assert!(!report.exhausted, "{name} (fixed): the space must be covered, not cut");
        assert_eq!(report.exit_code(), 0, "{name} (fixed)");
        assert!(
            report.render().contains("no consistency error in any"),
            "{name} (fixed): exhaustive verdict rendered"
        );
    }
}

#[test]
fn witness_replay_reproduces_the_finding() {
    let report = Explorer::new(2).run(bugs::archetypes::fig2a);
    let finding = report.findings.get(0).unwrap();
    let outcome = Explorer::new(2).replay(&finding.witness, bugs::archetypes::fig2a).unwrap();
    assert_eq!(outcome.witness, finding.witness, "replay follows the witness exactly");
    assert!(outcome.sim_error.is_none());
    let keys: Vec<String> = outcome.findings.iter().map(|e| e.dedup_key()).collect();
    assert!(
        keys.contains(&finding.error.dedup_key()),
        "replayed schedule reproduces the explored finding: {keys:?}"
    );
}

#[test]
fn deadlocking_schedule_is_recorded_with_witness() {
    let report = quiet_panics(|| {
        Explorer::new(2).with_watchdog(Duration::from_millis(300)).run(conditional_barrier)
    });
    let deadlocked: Vec<_> =
        report.schedules.iter().filter(|s| s.verdict == Verdict::Deadlock).collect();
    assert_eq!(deadlocked.len(), 1, "exactly the at-close schedule hangs: {report:?}");
    assert_eq!(deadlocked[0].witness, "c/-", "the hanging decision vector is recorded");
    assert!(deadlocked[0].note.is_some(), "the simulator's deadlock verdict is kept");
    assert!(
        report.schedules.iter().any(|s| s.verdict == Verdict::Clean && s.witness == "e/-"),
        "the eager sibling schedule completes cleanly: {report:?}"
    );
    assert!(!report.has_errors(), "a deadlock is not a memory consistency error");
    assert!(!report.exhausted, "both schedules of the single choice point were visited");
}

#[test]
fn deadlock_under_budget_one_exits_seven() {
    let report = quiet_panics(|| {
        Explorer::new(2)
            .with_watchdog(Duration::from_millis(300))
            .with_max_schedules(1)
            .run(conditional_barrier)
    });
    assert_eq!(report.schedules.len(), 1);
    assert_eq!(report.schedules.get(0).unwrap().verdict, Verdict::Deadlock);
    assert!(report.exhausted, "the eager sibling was never tried");
    assert_eq!(report.exit_code(), 7, "budget exhausted without errors is the documented 7");
}

/// Every gallery case with at most 4 ranks, buggy and fixed: fixture
/// name, process count, body.
fn fixture_cases() -> Vec<GalleryCase> {
    use bugs::{adlb, archetypes, bt_broadcast, emulate, jacobi, mpi3_queue, pingpong};
    vec![
        ("emulate", 2, emulate::buggy),
        ("emulate-fixed", 2, emulate::fixed),
        ("bt-broadcast", 2, bt_broadcast::buggy),
        ("bt-broadcast-fixed", 2, bt_broadcast::fixed),
        ("ping-pong", 2, pingpong::buggy),
        ("ping-pong-fixed", 2, pingpong::fixed),
        ("jacobi", 4, jacobi::buggy),
        ("jacobi-fixed", 4, jacobi::fixed),
        ("adlb", 2, adlb::buggy),
        ("adlb-fixed", 2, adlb::fixed),
        ("mpi3-queue", 4, mpi3_queue::buggy),
        ("mpi3-queue-fixed", 4, mpi3_queue::fixed),
        ("fig2a", 2, archetypes::fig2a),
        ("fig2b", 3, archetypes::fig2b),
        ("fig2c", 3, archetypes::fig2c),
        ("fig2d", 2, archetypes::fig2d),
    ]
}

/// The exploration report of every small gallery case matches its
/// committed fixture byte for byte. bt-broadcast and jacobi put thousands
/// of raw conflict pairs through the canonical dedup, so any change to
/// which pair represents a finding shows up here. Regenerate with
/// `MCC_BLESS_FIXTURES=1 cargo test --test explore_pipeline`.
#[test]
fn gallery_reports_match_fixtures_byte_for_byte() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/explore");
    let bless = std::env::var_os("MCC_BLESS_FIXTURES").is_some();
    for (name, nprocs, body) in fixture_cases() {
        let json = Explorer::new(nprocs).run(body).to_json();
        let path = dir.join(format!("{name}.json"));
        if bless {
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(&path, &json).unwrap();
            continue;
        }
        let want =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert!(json == want, "{name}: explore report differs from {}", path.display());
    }
}
