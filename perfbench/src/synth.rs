//! `check-synth`: a batch `AnalysisSession` check of one large in-memory
//! synthetic trace with few, large fence regions and a dense 5%
//! conflict fraction, at `available_parallelism` threads.
//!
//! It exercises `mcc-core` detection and the finding merge/dedup path at
//! scale — the apps are clean and a serve session has a handful of
//! findings — and bypasses the simulator, the profiler and the daemon.
//! One unit is one check plus rendering its report. Known answer: the
//! naive engine's findings on the same trace, computed during set-up
//! (sweep ≡ naive). The seed seeds the trace generator.

use crate::report::{process_cpu_ms, Outcome};
use crate::trace::{core_run, timed, Scope, Tracer};
use crate::{end_to_end, finish_trace, phase_rows, repeated_setup, stats, time_boxed, RunCfg};
use mcc_bench::synth::{synth_trace, SynthParams};
use mcc_core::{AnalysisSession, AnalysisStats, ConsistencyError, Engine};
use mcc_types::Trace;
use std::time::{Duration, Instant};

/// Trace shape: 8 ranks, 7 fence regions of 8 × 600 RMA accesses each.
/// One check takes ~0.3 s on a quiet 2-core host and up to ~0.5 s on a
/// busy one, so a 22 s run gathers 40–199 checks and always reports the
/// same tail percentile (p75).
pub fn params(seed: u64) -> SynthParams {
    SynthParams {
        nprocs: 8,
        rounds: 7,
        ops_per_round: 600,
        locals_per_round: 300,
        win_len: 4096,
        seed,
    }
}

pub const CONFLICT_FRACTION: f64 = 0.05;

/// The unit's verdict gate: the checked findings must equal the
/// reference findings exactly, order included.
pub fn gate(found: &[ConsistencyError], expected: &[ConsistencyError]) -> Result<(), String> {
    if found == expected {
        return Ok(());
    }
    let first = found.iter().zip(expected).position(|(a, b)| a != b);
    Err(format!(
        "sweep reported {} finding(s), naive reference {} (first difference at {:?})",
        found.len(),
        expected.len(),
        first
    ))
}

struct Input {
    trace: Trace,
    reference: Vec<ConsistencyError>,
}

/// What one check leaves behind; the report itself is dropped so that
/// memory does not grow with the number of units.
struct Check {
    stats: AnalysisStats,
    findings: usize,
    render: Duration,
    counters: Option<mcc_obs::Snapshot>,
    verdict: Result<(), String>,
    /// Traced only: process CPU time and wall time of the whole check.
    cpu_wall_ms: Option<(f64, f64)>,
}

fn check(input: &Input, threads: usize, scope: Option<&Scope>) -> Check {
    let (wall0, cpu0) = (Instant::now(), scope.and_then(|_| process_cpu_ms()));
    let recorder = match scope {
        Some(_) => mcc_obs::RecorderHandle::enabled(),
        None => mcc_obs::RecorderHandle::disabled(),
    };
    let session = AnalysisSession::builder().threads(threads).recorder(recorder.clone()).build();
    let report = core_run(scope, &session, &input.trace);
    let t0 = Instant::now();
    std::hint::black_box(timed(scope, "core.report", || report.render()));
    let render = t0.elapsed();
    let verdict = gate(&report.diagnostics, &input.reference);
    let counters = scope.map(|_| recorder.snapshot());
    let cpu_wall_ms =
        cpu0.zip(process_cpu_ms()).map(|(a, b)| (b - a, wall0.elapsed().as_secs_f64() * 1e3));
    Check {
        render,
        findings: report.diagnostics.len(),
        verdict,
        stats: report.stats,
        counters,
        cpu_wall_ms,
    }
}

pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let input = repeated_setup(&mut out, cfg, || {
        let trace = synth_trace(&params(cfg.seed), CONFLICT_FRACTION);
        let reference =
            AnalysisSession::builder().engine(Engine::Naive).build().run(&trace).diagnostics;
        Ok(Input { trace, reference })
    })?;
    let events = input.trace.total_events();
    out.prov("events_per_unit", events);
    out.prov("reference_findings", input.reference.len());
    out.prov("threads", threads);

    let measure = |out: &mut Outcome, tracer: Option<&Tracer>, first: u64| {
        time_boxed(cfg.phase(), 1, first, tracer, |_, scope| {
            let c = check(&input, threads, scope);
            out.verdict(c.verdict.clone());
            c
        })
    };
    let untraced = measure(&mut out, None, 0);
    let walls: Vec<f64> = untraced.iter().map(|u| u.wall_ms).collect();
    if !cfg.trace {
        let per_s = events as f64 * walls.len() as f64 / (walls.iter().sum::<f64>() / 1e3);
        end_to_end(&mut out, &walls, per_s, walls.len())?;
        return Ok(out);
    }

    let tr = Tracer::new();
    let checks: Vec<Check> =
        measure(&mut out, Some(&tr), 1 << 32).into_iter().map(|u| u.value).collect();
    finish_trace(&mut out, &tr, stats::mean(&walls), cfg)?;

    let n = checks.len();
    let mean = |f: &dyn Fn(&Check) -> f64| checks.iter().map(f).sum::<f64>() / n.max(1) as f64;
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let counter = |c: &Check, name: &str| {
        c.counters.as_ref().and_then(|s| s.counters.get(name)).copied().unwrap_or(0) as f64
    };
    phase_rows(&mut out, &checks.iter().map(|c| vec![&c.stats]).collect::<Vec<_>>());
    out.set("core.report_ms", "ms", mean(&|c| ms(c.render)), n);
    let findings = mean(&|c| c.findings as f64);
    let pairs = mean(&|c| counter(c, "interval_pairs_total"));
    out.set("core.findings", "count", findings, n);
    out.set("core.interval_pairs", "count", pairs, n);
    out.set("core.findings_per_pair", "ratio", if pairs > 0.0 { findings / pairs } else { 0.0 }, n);
    out.set("core.dedup_dropped", "count", mean(&|c| counter(c, "dedup_dropped_total")), n);

    // Shard efficiency: the detect phase's busy time over its wall times
    // the thread count. Busy time is the check's process CPU time minus
    // the single-threaded rest of the check (its wall outside detect).
    let (mut busy, mut capacity) = (0.0, 0.0);
    for c in &checks {
        let (cpu, wall) = c.cpu_wall_ms.ok_or("no CPU time in /proc/self/stat")?;
        let detect = ms(c.stats.detect_time);
        busy += cpu - (wall - detect);
        capacity += detect * threads as f64;
    }
    out.set("core.shard_efficiency", "ratio", busy / capacity, n);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The gate must be able to fail: a deliberately wrong expected
    /// verdict — the real reference with one finding removed — is
    /// refused, and counts as a failed unit.
    #[test]
    fn a_wrong_expected_verdict_fails_the_gate() {
        let trace = synth_trace(&SynthParams { rounds: 2, ..Default::default() }, 0.2);
        let reference =
            AnalysisSession::builder().engine(Engine::Naive).build().run(&trace).diagnostics;
        assert!(reference.len() > 1, "the test trace must have findings");
        let found = AnalysisSession::builder().threads(2).build().run(&trace).diagnostics;
        assert_eq!(gate(&found, &reference), Ok(()));

        let mut wrong = reference.clone();
        wrong.pop();
        let mut out = Outcome::default();
        out.verdict(gate(&found, &wrong));
        assert!(!out.correct());
        assert_eq!(out.failed, 1);
        assert!(gate(&found, &[]).is_err());
    }
}
