//! `explore-gallery`: `Explorer::run` with `mcc explore`'s defaults
//! (500 ms watchdog, budget 256, depth 64, one thread) over every
//! gallery case with at most 4 ranks, buggy and fixed variants.
//!
//! It is the only user of `mcc-explore` and the only workload where the
//! simulator's watchdog join is on the critical path. One unit is one
//! case explored; a run measures whole passes over all cases, so every
//! run sees the same mix of cases. Known answer: a buggy case yields a
//! Buggy schedule; a fixed case covers its space with no Buggy, Deadlock
//! or Crashed schedule and no budget exhaustion. fig2a–d have no fixed
//! body. The seed shuffles the case order.

use crate::report::Outcome;
use crate::trace::{Scope, Tracer};
use crate::{end_to_end, finish_trace, repeated_setup, shuffle, stats, time_boxed, RunCfg, Sample};
use mcc_apps::bugs::{self, adlb, archetypes, bt_broadcast, emulate, jacobi, mpi3_queue, pingpong};
use mcc_core::{racing_events, AnalysisSession};
use mcc_explore::{ExploreReport, Explorer, Verdict};
use mcc_mpi_sim::Proc;
use std::time::Instant;

#[derive(Clone, Copy)]
struct Case {
    name: &'static str,
    nprocs: u32,
    buggy: bool,
    body: fn(&mut Proc),
}

fn cases() -> Vec<Case> {
    let c = |name, nprocs, buggy, body| Case { name, nprocs, buggy, body };
    vec![
        c("emulate", 2, true, emulate::buggy as fn(&mut Proc)),
        c("emulate-fixed", 2, false, emulate::fixed),
        c("bt-broadcast", 2, true, bt_broadcast::buggy),
        c("bt-broadcast-fixed", 2, false, bt_broadcast::fixed),
        c("ping-pong", 2, true, pingpong::buggy),
        c("ping-pong-fixed", 2, false, pingpong::fixed),
        c("jacobi", 4, true, jacobi::buggy),
        c("jacobi-fixed", 4, false, jacobi::fixed),
        c("adlb", 2, true, adlb::buggy),
        c("adlb-fixed", 2, false, adlb::fixed),
        c("mpi3-queue", 4, true, mpi3_queue::buggy),
        c("mpi3-queue-fixed", 4, false, mpi3_queue::fixed),
        c("fig2a", 2, true, archetypes::fig2a),
        c("fig2b", 3, true, archetypes::fig2b),
        c("fig2c", 3, true, archetypes::fig2c),
        c("fig2d", 2, true, archetypes::fig2d),
    ]
}

/// The unit's verdict gate against the gallery's ground truth.
pub fn gate(name: &str, buggy: bool, r: &ExploreReport) -> Result<(), String> {
    let count = |v: Verdict| r.schedules.iter().filter(|s| s.verdict == v).count();
    let ok = if buggy {
        r.first_buggy.is_some() && count(Verdict::Buggy) > 0
    } else {
        r.first_buggy.is_none()
            && !r.exhausted
            && count(Verdict::Buggy) + count(Verdict::Deadlock) + count(Verdict::Crashed) == 0
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "{name}: expected {}, explored {} schedule(s), first buggy {:?}, exhausted {}",
            if buggy { "a buggy schedule" } else { "a clean covered space" },
            r.schedules_explored,
            r.first_buggy,
            r.exhausted
        ))
    }
}

fn explore(case: &Case) -> ExploreReport {
    Explorer::new(case.nprocs).run(case.body)
}

/// Explores whole passes over `cases` until the phase has elapsed; unit
/// `i` explores case `i mod cases.len()`. With a tracer, each unit gets
/// a fresh process recorder so the program's own `explore.run` and
/// `sim.run` spans can be charged to it.
fn measure(
    out: &mut Outcome,
    cases: &[Case],
    cfg: &RunCfg,
    tracer: Option<&Tracer>,
) -> Vec<Sample<ExploreReport>> {
    time_boxed(cfg.phase(), cases.len(), 0, tracer, |unit, scope| {
        let case = &cases[unit as usize % cases.len()];
        let report = match scope {
            None => explore(case),
            Some(s) => {
                let rec = mcc_obs::RecorderHandle::enabled();
                let epoch_us = s.tr.us(Instant::now());
                mcc_obs::set_global(rec.clone());
                let report = explore(case);
                mcc_obs::set_global(mcc_obs::RecorderHandle::disabled());
                import_spans(s, &rec, epoch_us);
                report
            }
        };
        out.verdict(gate(case.name, case.buggy, &report));
        report
    })
}

/// Charges the program's `explore.run` span to `explore` and each
/// `sim.run` span inside it (one per schedule) to `mpi-sim`.
fn import_spans(s: &Scope, rec: &mcc_obs::RecorderHandle, epoch_us: f64) {
    let spans = rec.spans();
    let at = |us: u64| epoch_us + us as f64;
    for run in spans.iter().filter(|x| x.name == "explore.run") {
        let (a, b) = (at(run.start_us), at(run.start_us + run.dur_us));
        let id = s.tr.record("explore.run", s.unit, Some(s.parent), a, b);
        for sim in spans.iter().filter(|x| x.name == "sim.run") {
            let (sa, sb) = (at(sim.start_us), at(sim.start_us + sim.dur_us));
            s.tr.record("mpi-sim.schedule", s.unit, Some(id), sa, sb);
        }
    }
}

pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    // Deadlocking and crashing schedules are expected outcomes of the
    // enumeration; keep their rank panics off stderr while exploring.
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    // Set-up: the seeded case order; per case, the events of one run at
    // the explorer's default all-at-close schedule (the size of one
    // schedule's trace); and one warm-up exploration of fig2a.
    let setup = repeated_setup(&mut out, cfg, || {
        let mut cases = cases();
        let warm = cases.iter().find(|c| c.name == "fig2a").expect("fig2a is in the gallery");
        gate(warm.name, warm.buggy, &explore(warm))?;
        shuffle(&mut cases, cfg.seed);
        let events: Vec<usize> = cases
            .iter()
            .map(|c| bugs::trace_of(c.nprocs, cfg.seed, c.body).total_events())
            .collect();
        Ok((cases, events))
    });
    let measured = setup.map(|(cases, events)| {
        let untraced = measure(&mut out, &cases, cfg, None);
        let traced = cfg.trace.then(|| {
            let tr = Tracer::new();
            let runs = measure(&mut out, &cases, cfg, Some(&tr));
            (tr, runs)
        });
        (cases, events, untraced, traced)
    });
    std::panic::set_hook(prev);
    let (cases, events, untraced, traced) = measured?;
    out.prov("case_order", cases.iter().map(|c| c.name).collect::<Vec<_>>().join(","));
    out.prov("events_per_schedule", format!("{events:?}"));

    let case = |u: &Sample<ExploreReport>| u.unit as usize % cases.len();
    let schedules = |runs: &[Sample<ExploreReport>]| {
        runs.iter().map(|r| r.value.schedules_explored).sum::<u64>()
    };
    let walls: Vec<f64> = untraced.iter().map(|r| r.wall_ms).collect();
    let wall_s = walls.iter().sum::<f64>() / 1e3;
    let carried: f64 =
        untraced.iter().map(|r| r.value.schedules_explored as f64 * events[case(r)] as f64).sum();
    out.prov("events_per_unit", format!("{:.0}", carried / untraced.len() as f64));
    out.prov("passes", untraced.len() / cases.len());
    out.set("schedules_per_s", "1/s", schedules(&untraced) as f64 / wall_s, untraced.len());
    if !cfg.trace {
        end_to_end(&mut out, &walls, carried / wall_s, untraced.len())?;
        return Ok(out);
    }

    let (tr, runs) = traced.expect("traced phase ran");
    finish_trace(&mut out, &tr, stats::mean(&walls), cfg)?;

    let n = runs.len();
    let total = schedules(&runs) as f64;
    let sim_us: f64 = tr
        .spans()
        .iter()
        .filter(|s| s.name == "mpi-sim.schedule")
        .map(|s| s.end_us - s.start_us)
        .sum();
    out.set("mpi-sim.schedule_ms", "ms", sim_us / 1e3 / total, total as usize);
    let deduped: u64 = runs.iter().map(|r| r.value.deduped).sum();
    let per_unit = |v: u64| v as f64 / n as f64;
    out.set("explore.schedules", "count", per_unit(total as u64), n);
    out.set("explore.deduped", "count", per_unit(deduped), n);
    out.set("explore.pruned", "count", per_unit(runs.iter().map(|r| r.value.pruned).sum()), n);
    out.set("explore.useful_ratio", "ratio", (total - deduped as f64) / total, n);

    // The explorer analyses every non-deduplicated schedule with
    // `racing_events` and an `AnalysisSession` check, inside its own
    // self time and without spans of their own. Probe both per case on
    // the all-at-close trace and weight by analysed schedules.
    let (mut racing, mut check, mut analysed) = (0.0, 0.0, 0.0);
    for (i, c) in cases.iter().enumerate() {
        let trace = bugs::trace_of(c.nprocs, cfg.seed, c.body);
        let k: f64 = runs
            .iter()
            .filter(|r| case(r) == i)
            .map(|r| (r.value.schedules_explored - r.value.deduped) as f64)
            .sum();
        racing += k * stats::probe_ms(5, || {
            std::hint::black_box(racing_events(&trace));
        });
        check += k * stats::probe_ms(5, || {
            std::hint::black_box(AnalysisSession::new().run(&trace));
        });
        analysed += k;
    }
    out.set("core.racing_ms", "ms", racing / analysed, analysed as usize);
    out.set("core.check_ms", "ms", check / analysed, analysed as usize);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gallery_gate_accepts_ground_truth_and_refuses_a_wrong_expectation() {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let buggy = explore(&cases()[12]); // fig2a
        let fixed = explore(&cases()[1]); // emulate-fixed
        std::panic::set_hook(prev);
        assert_eq!(gate("fig2a", true, &buggy), Ok(()));
        assert_eq!(gate("emulate-fixed", false, &fixed), Ok(()));
        assert!(gate("fig2a", false, &buggy).is_err());
        assert!(gate("emulate-fixed", true, &fixed).is_err());
    }
}
