//! `check-apps`: the `mcc check` pipeline on the five Fig 8 apps.
//!
//! One unit is one pass over all five apps at 4 ranks. Per app the pass
//! runs the simulator natively and under relevant-only profiling (no
//! watchdog, as `mcc demo` runs it), writes the profiled trace with
//! `write_trace_dir`, reads it back with `read_trace_dir`, analyses it
//! with `AnalysisSession::run` and renders the report. Known answer:
//! every app is clean and the trace survives the disk round trip whole.
//!
//! The app parameters are scaled from fig8's so that no single app
//! dominates a pass (at fig8's sizes LU alone is most of it) and a pass
//! takes a few hundred milliseconds. The seed shuffles the app order and
//! seeds every simulator run.

use crate::report::Outcome;
use crate::trace::{core_run, timed, Scope, Tracer};
use crate::{
    end_to_end, finish_trace, mix, phase_rows, repeated_setup, shuffle, stats, time_boxed, RunCfg,
};
use mcc_apps::overhead::{
    boltzmann::{boltzmann, BoltzmannParams},
    lennard_jones::{lennard_jones, LjParams},
    lu::{lu, LuParams},
    scf::{scf, ScfParams},
    skampi::{skampi, SkampiParams},
};
use mcc_core::{AnalysisSession, AnalysisStats};
use mcc_mpi_sim::{Instrument, Proc, SimConfig};
use std::path::Path;
use std::time::{Duration, Instant};

const RANKS: u32 = 4;

type Body = Box<dyn Fn(&mut Proc) + Send + Sync>;

struct App {
    name: &'static str,
    body: Body,
}

fn apps() -> Vec<App> {
    let lj = LjParams { particles_per_rank: 24, steps: 2 };
    let sc = ScfParams { rows: 8, iters: 2 };
    let bz = BoltzmannParams { cells_per_rank: 192, steps: 6 };
    let sk = SkampiParams { max_elems: 128, reps: 10 };
    let lup = LuParams { n: 24 };
    vec![
        App { name: "Lennard-Jones", body: Box::new(move |p| lennard_jones(p, &lj)) },
        App { name: "SCF", body: Box::new(move |p| scf(p, &sc)) },
        App { name: "Boltzmann", body: Box::new(move |p| boltzmann(p, &bz)) },
        App { name: "SKaMPI", body: Box::new(move |p| skampi(p, &sk)) },
        App {
            name: "LU",
            body: Box::new(move |p| {
                lu(p, &lup);
            }),
        },
    ]
}

/// What one app contributed to one pass.
struct AppRun {
    native: Duration,
    profiled: Duration,
    events: usize,
    write: Duration,
    read: Duration,
    bytes: u64,
    stats: AnalysisStats,
    render: Duration,
}

fn dir_bytes(dir: &Path) -> Result<u64, String> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        let meta = entry.and_then(|e| e.metadata()).map_err(|e| e.to_string())?;
        total += meta.len();
    }
    Ok(total)
}

/// Runs one app through the whole pipeline and checks its verdict.
fn check_app(
    app: &App,
    sim_seed: u64,
    dir: &Path,
    scope: Option<&Scope>,
) -> Result<AppRun, String> {
    let base = SimConfig::new(RANKS).with_seed(sim_seed);
    let fail = |what: &str, e: &dyn std::fmt::Display| format!("{}: {what}: {e}", app.name);
    let native = timed(scope, "mpi-sim.native", || {
        mcc_mpi_sim::run(
            base.clone().with_instrument(Instrument::Off).with_keep_events(false),
            &app.body,
        )
    })
    .map_err(|e| fail("native run", &e))?;
    let profiled = timed(scope, "mpi-sim.profiled", || {
        mcc_mpi_sim::run(base.clone().with_instrument(Instrument::Relevant), &app.body)
    })
    .map_err(|e| fail("profiled run", &e))?;
    let trace =
        profiled.trace.ok_or_else(|| format!("{}: profiled run kept no trace", app.name))?;

    let _ = std::fs::remove_dir_all(dir);
    let t0 = Instant::now();
    timed(scope, "profiler.write", || mcc_profiler::write_trace_dir(&trace, dir))
        .map_err(|e| fail("write_trace_dir", &e))?;
    let write = t0.elapsed();
    let t0 = Instant::now();
    let back = timed(scope, "profiler.read", || mcc_profiler::read_trace_dir(dir))
        .map_err(|e| fail("read_trace_dir", &e))?;
    let read = t0.elapsed();
    let bytes = if scope.is_some() { dir_bytes(dir)? } else { 0 };

    let report = core_run(scope, &AnalysisSession::new(), &back);
    let t0 = Instant::now();
    let text = timed(scope, "core.report", || report.render());
    let render = t0.elapsed();

    if back.total_events() != trace.total_events() {
        return Err(format!(
            "{}: {} events written, {} read back",
            app.name,
            trace.total_events(),
            back.total_events()
        ));
    }
    if !report.diagnostics.is_empty() || text.is_empty() {
        return Err(format!(
            "{}: expected clean, got {} finding(s)",
            app.name,
            report.diagnostics.len()
        ));
    }
    Ok(AppRun {
        native: native.stats.wall,
        profiled: profiled.stats.wall,
        events: trace.total_events(),
        write,
        read,
        bytes,
        stats: report.stats,
        render,
    })
}

/// One pass over every app; `Err` holds the first wrong verdict.
fn pass(
    apps: &[App],
    seed: u64,
    unit: u64,
    dir: &Path,
    scope: Option<&Scope>,
) -> Result<Vec<AppRun>, String> {
    apps.iter()
        .enumerate()
        .map(|(i, app)| {
            check_app(
                app,
                mix(seed, unit.wrapping_mul(16) + i as u64),
                &dir.join(i.to_string()),
                scope,
            )
        })
        .collect()
}

/// Per-unit samples from one measuring phase.
#[derive(Default)]
struct Phase {
    wall_ms: Vec<f64>,
    events: usize,
    /// Per app (in pass order): native and profiled simulator walls, ms.
    native_ms: Vec<Vec<f64>>,
    profiled_ms: Vec<Vec<f64>>,
    runs: Vec<Vec<AppRun>>,
}

impl Phase {
    fn wall_s(&self) -> f64 {
        self.wall_ms.iter().sum::<f64>() / 1e3
    }

    /// Geometric mean over apps of median profiled ÷ median native.
    fn norm_time(&self) -> f64 {
        let ratios: Vec<f64> = self
            .native_ms
            .iter()
            .zip(&self.profiled_ms)
            .map(|(n, p)| stats::median(p) / stats::median(n))
            .collect();
        stats::geomean(&ratios)
    }
}

fn measure(
    out: &mut Outcome,
    apps: &[App],
    cfg: &RunCfg,
    first_unit: u64,
    tracer: Option<&Tracer>,
) -> Phase {
    let mut ph = Phase {
        native_ms: vec![Vec::new(); apps.len()],
        profiled_ms: vec![Vec::new(); apps.len()],
        ..Default::default()
    };
    let units = time_boxed(cfg.phase(), 1, first_unit, tracer, |unit, scope| {
        pass(apps, cfg.seed, unit, &cfg.work_dir, scope)
    });
    for u in units {
        ph.wall_ms.push(u.wall_ms);
        match u.value {
            Ok(runs) => {
                for (i, r) in runs.iter().enumerate() {
                    ph.native_ms[i].push(r.native.as_secs_f64() * 1e3);
                    ph.profiled_ms[i].push(r.profiled.as_secs_f64() * 1e3);
                    ph.events += r.events;
                }
                ph.runs.push(runs);
                out.verdict(Ok(()));
            }
            Err(why) => out.verdict(Err(why)),
        }
    }
    ph
}

pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    // Set-up builds the seeded app order and runs one unmeasured pass,
    // which must already be clean, so lazy initialisation is paid here.
    let apps = repeated_setup(&mut out, cfg, || {
        let mut apps = apps();
        shuffle(&mut apps, cfg.seed);
        pass(&apps, cfg.seed, u64::MAX / 2, &cfg.work_dir, None)?;
        Ok(apps)
    })?;
    let order: Vec<&str> = apps.iter().map(|a| a.name).collect();
    out.prov("app_order", order.join(","));
    out.prov("ranks", RANKS);

    let untraced = measure(&mut out, &apps, cfg, 0, None);
    if untraced.runs.is_empty() {
        return Err("no pass completed".into());
    }
    let events_per_unit = untraced.events as f64 / untraced.runs.len() as f64;
    out.prov("events_per_unit", format!("{events_per_unit:.0}"));
    out.set("profiled_norm_time", "ratio", untraced.norm_time(), untraced.runs.len());
    if !cfg.trace {
        let per_s = untraced.events as f64 / untraced.wall_s();
        end_to_end(&mut out, &untraced.wall_ms, per_s, untraced.runs.len())?;
        return Ok(out);
    }

    let tr = Tracer::new();
    let traced = measure(&mut out, &apps, cfg, 1 << 32, Some(&tr));
    finish_trace(&mut out, &tr, stats::mean(&untraced.wall_ms), cfg)?;

    let n = traced.runs.len();
    let per_unit = |f: &dyn Fn(&AppRun) -> f64| -> f64 {
        traced.runs.iter().map(|p| p.iter().map(f).sum::<f64>()).sum::<f64>() / n.max(1) as f64
    };
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    let events = per_unit(&|r| r.events as f64);
    out.set("mpi-sim.native_ms", "ms", per_unit(&|r| ms(r.native)), n);
    out.set("mpi-sim.profiled_ms", "ms", per_unit(&|r| ms(r.profiled)), n);
    out.set("mpi-sim.events", "count", events, n);
    out.set("profiler.write_us_per_event", "us", per_unit(&|r| ms(r.write)) * 1e3 / events, n);
    out.set("profiler.read_us_per_event", "us", per_unit(&|r| ms(r.read)) * 1e3 / events, n);
    out.set("profiler.bytes_per_event", "bytes", per_unit(&|r| r.bytes as f64) / events, n);
    let stats: Vec<Vec<_>> =
        traced.runs.iter().map(|p| p.iter().map(|r| &r.stats).collect()).collect();
    phase_rows(&mut out, &stats);
    out.set("core.report_ms", "ms", per_unit(&|r| ms(r.render)), n);
    Ok(out)
}
