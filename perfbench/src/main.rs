//! One benchmark for MC-Checker: four workloads from program to verdict,
//! and a traced run that splits each workload's time into the layers it
//! crosses.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload check-apps --seed 1 --seconds 22 --trace 0
//! ```
//!
//! Workloads: `check-apps`, `check-synth`, `serve-stream`,
//! `explore-gallery` (see `perfbench/METRICS.md`). `BENCHMARK.json`
//! gates all but `check-synth`, whose timings follow the host's load by
//! more than its bounds allow; it stays runnable by hand. With
//! `--trace 0` the run measures the end-to-end metrics with tracing off;
//! with `--trace 1` it measures untraced for half the time and traced for
//! the other half, and reports the per-layer metrics. Every unit's verdict is checked
//! against a known answer; the last stdout line is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}` and the exit code is 1
//! when any verdict was wrong, 2 on a usage or set-up error (no result).

mod apps;
mod explore;
mod report;
mod serve;
mod stats;
mod synth;
mod trace;

use mcc_core::AnalysisStats;
use report::{Outcome, END_TO_END, PER_LAYER};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{LayerTable, Scope, Tracer};

/// Set-ups per `--trace 0` run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// What every workload is run with.
pub struct RunCfg {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory inside the checkout for trace dirs and journals.
    pub work_dir: PathBuf,
}

impl RunCfg {
    /// Length of one measuring phase: the whole run untraced, or half of
    /// it per phase when the run also traces.
    pub fn phase(&self) -> Duration {
        Duration::from_secs_f64(if self.trace { self.seconds / 2.0 } else { self.seconds })
    }
}

/// SplitMix64: the benchmark's only source of seeded randomness.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(i.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeded Fisher–Yates shuffle.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    for i in (1..items.len()).rev() {
        items.swap(i, (mix(seed, i as u64) % (i as u64 + 1)) as usize);
    }
}

/// Runs `setup` [`SETUP_REPS`] times (once when the run traces),
/// records the median wall as `setup_s`, and returns the last result.
/// The peak-RSS mark is then reset, so `peak_rss_mb` covers the
/// measured phase (and what set-up leaves resident), not set-up's peak.
pub fn repeated_setup<T>(
    out: &mut Outcome,
    cfg: &RunCfg,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<T, String> {
    let reps = if cfg.trace { 1 } else { SETUP_REPS };
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        last = Some(setup()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    out.set("setup_s", "s", stats::median(&times), times.len());
    report::reset_peak_rss()?;
    Ok(last.expect("at least one set-up"))
}

/// One measured unit: its id, its wall time and what it returned.
pub struct Sample<T> {
    pub unit: u64,
    pub wall_ms: f64,
    pub value: T,
}

/// Runs units `first_unit, first_unit + 1, ...` back to back until
/// `phase` has elapsed, stopping only at the end of a whole pass of
/// `pass_len` units (so at least one pass runs). With a tracer, each
/// unit runs inside its root span and `f` receives the unit's scope.
pub fn time_boxed<T>(
    phase: Duration,
    pass_len: usize,
    first_unit: u64,
    tracer: Option<&Tracer>,
    mut f: impl FnMut(u64, Option<&Scope>) -> T,
) -> Vec<Sample<T>> {
    let mut samples = Vec::new();
    let start = Instant::now();
    loop {
        let unit = first_unit + samples.len() as u64;
        let t0 = Instant::now();
        let value = match tracer {
            Some(tr) => Scope::unit(tr, unit, |s| f(unit, Some(&s))),
            None => f(unit, None),
        };
        samples.push(Sample { unit, wall_ms: t0.elapsed().as_secs_f64() * 1e3, value });
        if start.elapsed() >= phase && samples.len() % pass_len == 0 {
            return samples;
        }
    }
}

/// Records the untraced end-to-end figures every workload reports: the
/// latency summary of its units and the events they carried per second.
pub fn end_to_end(
    out: &mut Outcome,
    walls_ms: &[f64],
    events_per_s: f64,
    samples: usize,
) -> Result<(), String> {
    let l = stats::Latency::of(walls_ms).ok_or_else(|| {
        format!("verdict_ms: {} samples are too few for a tail percentile", walls_ms.len())
    })?;
    out.set("verdict_ms.p50", "ms", l.p50, l.samples);
    let beyond = l.samples - stats::rank(l.tail_pct, l.samples);
    let note = format!("p{} ({beyond} samples beyond)", l.tail_pct);
    out.note("verdict_ms.tail", "ms", l.tail, l.samples, note);
    out.prov("verdict_ms.tail_percentile", l.tail_pct);
    out.set("events_per_s", "1/s", events_per_s, samples);
    Ok(())
}

/// Ends a traced run: records the layer table of `tracer`'s spans —
/// self time per layer, the unattributed rest, the traced and untraced
/// walls and their difference — and writes the spans out. Fails if the
/// rows do not add up to the traced wall.
pub fn finish_trace(
    out: &mut Outcome,
    tracer: &Tracer,
    untraced_wall_ms: f64,
    cfg: &RunCfg,
) -> Result<(), String> {
    let mut table = LayerTable::default();
    table.add_spans(&tracer.spans());
    let n = table.units();
    let mut rows = 0.0;
    for layer in trace::LAYERS {
        let ms = table.layer_ms(layer);
        rows += ms;
        out.set(&format!("{layer}.self_ms"), "ms", ms, n);
    }
    rows += table.unattributed_ms();
    let wall = table.wall_ms();
    if n == 0 || (rows - wall).abs() > 1e-6 * wall {
        return Err(format!("layer rows sum to {rows} ms over {n} units, traced wall {wall} ms"));
    }
    out.set("unattributed_ms", "ms", table.unattributed_ms(), n);
    out.note("traced_wall_ms", "ms", wall, n, format!("layer rows sum to {rows:.4}"));
    out.set("untraced_wall_ms", "ms", untraced_wall_ms, n);
    out.set("tracing_overhead_ms", "ms", wall - untraced_wall_ms, n);

    let path = cfg.work_dir.with_extension("spans.jsonl");
    tracer.write_jsonl(&path).map_err(|e| format!("writing spans: {e}"))?;
    out.prov("spans", path.display());
    Ok(())
}

/// Records each `AnalysisStats` phase as `<span name>_ms`: its total
/// over the checks of one unit, averaged over `units`.
pub fn phase_rows(out: &mut Outcome, units: &[Vec<&AnalysisStats>]) {
    let n = units.len();
    let mut totals = [0.0; 6];
    for st in units.iter().flatten() {
        for (total, (_, d)) in totals.iter_mut().zip(trace::phases(st)) {
            *total += d.as_secs_f64() * 1e3;
        }
    }
    for ((name, _), total) in trace::phases(&AnalysisStats::default()).into_iter().zip(totals) {
        out.set(&format!("{name}_ms"), "ms", total / n.max(1) as f64, n);
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        argv.get(i + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let seconds: f64 = get("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Args {
        workload: get("--workload")?.to_string(),
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace expects 0 or 1, got `{other}`")),
        },
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload check-apps|check-synth|serve-stream|explore-gallery \
                 --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) {
        eprintln!("perfbench: refusing to measure a debug build; build with --release");
        return ExitCode::from(2);
    }
    let cfg = RunCfg {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        work_dir: PathBuf::from(".bench_work").join(format!(
            "{}-{}",
            args.workload,
            std::process::id()
        )),
    };
    let started = Instant::now();
    let result = match args.workload.as_str() {
        "check-apps" => apps::run(&cfg),
        "check-synth" => synth::run(&cfg),
        "serve-stream" => serve::run(&cfg),
        "explore-gallery" => explore::run(&cfg),
        other => Err(format!("unknown workload `{other}`")),
    };
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
    let mut out = match result.and_then(|mut out| {
        if !cfg.trace {
            out.set("peak_rss_mb", "MB", report::peak_rss_mb()?, 1);
        }
        Ok(out)
    }) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    out.prov("available_parallelism", cores);
    out.prov("seed", cfg.seed);
    out.prov("seconds", cfg.seconds);
    out.prov("trace", u8::from(cfg.trace));
    out.prov("build", "release");
    out.prov("run_wall_s", format!("{:.3}", started.elapsed().as_secs_f64()));
    print!("{}", out.table(&args.workload));
    let names: &[(&str, &str)] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    match out.json_line(names) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    }
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_boxed_runs_whole_passes_with_one_root_span_per_unit() {
        let units = time_boxed(Duration::ZERO, 3, 5, None, |unit, scope| {
            assert!(scope.is_none());
            unit
        });
        let ids: Vec<u64> = units.iter().map(|u| u.value).collect();
        assert_eq!(ids, [5, 6, 7]);

        let tr = Tracer::new();
        let units = time_boxed(Duration::from_millis(2), 2, 0, Some(&tr), |unit, scope| {
            assert_eq!(scope.map(|s| s.unit), Some(unit));
        });
        assert_eq!(units.len() % 2, 0);
        assert_eq!(tr.spans().len(), units.len());
        assert!(tr.spans().iter().all(|s| s.layer().is_none()));
    }
}
