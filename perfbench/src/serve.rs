//! `serve-stream`: an in-process `mcc serve` daemon on loopback TCP with
//! a journal directory and the default fsync policy, driven by two
//! closed-loop clients that submit the 11,928-event serve synth trace
//! back to back — one sends plain sessions, the other durable ones.
//!
//! `mcc-codec`, `mcc-serve` and the journal do most of the work here and
//! nowhere else; the analyzer sees 19 small regions flushed as they
//! complete instead of a few large ones. Durable sessions put journal
//! writes beside the plain sessions' reads, so a change that helps one
//! and hurts the other shows. It is closed-loop because each
//! `mcc submit` caller waits for its report. One unit is one plain
//! session, submit to report. Known answer: every report is `Complete`,
//! ingested every event, and its findings equal the batch
//! `AnalysisSession` findings (streaming ≡ batch). The
//! seed seeds the trace generator.

use crate::report::Outcome;
use crate::trace::{Tracer, ROOT};
use crate::{end_to_end, finish_trace, repeated_setup, stats, RunCfg};
use mcc_bench::synth::{synth_trace, SynthParams};
use mcc_core::{AnalysisSession, Confidence, ConsistencyError};
use mcc_obs::RecorderHandle;
use mcc_serve::client::{self, RetryPolicy, SubmitCfg, SubmitInfo, SubmitStats};
use mcc_serve::{ServeConfig, Server, ServerHandle, SessionOpts, SessionReport};
use mcc_types::Trace;
use std::collections::BTreeMap;
use std::path::Path;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Plain sessions traced per run: enough for stable per-session means,
/// few enough that the daemon recorder's span store never fills.
const MAX_TRACED_UNITS: usize = 100;

const CONFLICT_FRACTION: f64 = 0.02;

/// The serve bench's default trace: 8 ranks, 16 fence rounds of 12 RMA
/// and 80 local accesses per rank, 11,928 events.
fn params(seed: u64) -> SynthParams {
    SynthParams {
        nprocs: 8,
        rounds: 16,
        ops_per_round: 12,
        locals_per_round: 80,
        seed,
        ..SynthParams::default()
    }
}

struct Daemon {
    addr: String,
    handle: ServerHandle,
    thread: JoinHandle<std::io::Result<()>>,
}

impl Daemon {
    fn start(journal: &Path, recorder: RecorderHandle) -> Result<Self, String> {
        let _ = std::fs::remove_dir_all(journal);
        std::fs::create_dir_all(journal).map_err(|e| format!("{}: {e}", journal.display()))?;
        let cfg = ServeConfig {
            journal_dir: Some(journal.to_path_buf()),
            recorder,
            ..ServeConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", cfg).map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().to_string();
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run());
        Ok(Self { addr, handle, thread })
    }

    fn stop(self) -> Result<(), String> {
        self.handle.shutdown();
        match self.thread.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("daemon: {e}")),
            Err(_) => Err("daemon thread panicked".into()),
        }
    }
}

struct Plain {
    start: Instant,
    end: Instant,
    result: Result<(SessionReport, SubmitInfo), String>,
    /// Id of the bench span wrapping the submit in the daemon recorder.
    span: u64,
}

struct Durable {
    wall: Duration,
    result: Result<(SessionReport, SubmitStats), String>,
}

/// The unit's verdict gate: a submit that failed or was refused, a
/// session that was not analysed whole (degraded, or short of events),
/// or a report whose findings differ from the batch findings, is wrong.
fn gate<T>(
    result: &Result<(SessionReport, T), String>,
    trace: &Trace,
    batch: &[ConsistencyError],
) -> Result<(), String> {
    let (report, _) = result.as_ref().map_err(Clone::clone)?;
    if report.confidence != Confidence::Complete {
        return Err(format!("streamed session ended {:?}", report.confidence));
    }
    if report.events_ingested != trace.total_events() as u64 {
        return Err(format!(
            "streamed session ingested {} of {} events",
            report.events_ingested,
            trace.total_events()
        ));
    }
    if report.findings != batch {
        return Err(format!(
            "streamed session reported {} finding(s), batch {}",
            report.findings.len(),
            batch.len()
        ));
    }
    Ok(())
}

/// Runs both closed-loop clients until `phase` elapses (or `max_plain`
/// plain sessions are done).
fn closed_loop(
    addr: &str,
    trace: &Trace,
    phase: Duration,
    max_plain: usize,
    recorder: &RecorderHandle,
) -> (Vec<Plain>, Vec<Durable>) {
    let deadline = Instant::now() + phase;
    let done = std::sync::atomic::AtomicBool::new(false);
    std::thread::scope(|s| {
        let plain = s.spawn(|| {
            let mut out = Vec::new();
            while Instant::now() < deadline && out.len() < max_plain {
                let span = recorder.span("bench.plain");
                let start = Instant::now();
                let result = client::submit_tcp_cfg(
                    addr,
                    trace,
                    &SessionOpts::default(),
                    &SubmitCfg::default(),
                )
                .map_err(|e| format!("plain submit: {e}"));
                let end = Instant::now();
                let id = span.id();
                drop(span);
                out.push(Plain { start, end, result, span: id });
            }
            done.store(true, std::sync::atomic::Ordering::Relaxed);
            out
        });
        let durable = s.spawn(|| {
            let mut out = Vec::new();
            while !done.load(std::sync::atomic::Ordering::Relaxed) && Instant::now() < deadline {
                let t0 = Instant::now();
                let result = client::submit_durable_tcp_cfg(
                    addr,
                    trace,
                    &SessionOpts::default(),
                    &RetryPolicy::default(),
                    &SubmitCfg::default(),
                )
                .map_err(|e| format!("durable submit: {e}"));
                out.push(Durable { wall: t0.elapsed(), result });
            }
            out
        });
        (
            plain.join().expect("plain client thread panicked"),
            durable.join().expect("durable client thread panicked"),
        )
    })
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Daemon span id → client span id, from the recorder's trace-context
/// links (exported only in its Chrome-trace rendering, in span order).
fn remote_parents(recorder: &RecorderHandle) -> BTreeMap<u64, u64> {
    let chrome = recorder.to_chrome_trace();
    let num = |s: &str| -> Option<u64> {
        s.trim_start().split(|c: char| !c.is_ascii_digit()).next()?.parse().ok()
    };
    chrome
        .split("\"args\":{\"id\":")
        .skip(1)
        .filter_map(|args| {
            let args = &args[..args.find('}')?];
            let id = num(args)?;
            let parent = num(&args[args.find("\"remoteParent\":")? + 15..])?;
            Some((id, parent))
        })
        .collect()
}

/// Per-session daemon figures of one traced plain session.
struct Session {
    session_ms: f64,
    flush_ms: Vec<f64>,
}

/// Builds one plain unit's spans on the client's timeline and returns
/// the daemon figures of its session.
///
/// The client sends `Hello`, waits for `Welcome` (the daemon's session
/// span opens then), flattens and encodes the whole trace, writes it,
/// sends `Finish` and waits for the report. Connect and handshake run
/// up to the session start; the `client` pieces (flatten from a probe,
/// encode and socket writes from `SubmitInfo`) are laid end to end from
/// there. The wait after the last write is charged to the daemon's
/// region analyses (`core`) and the rest of its session span (`serve`)
/// where they fall in it, and to nothing otherwise.
fn plain_unit_spans(
    tr: &Tracer,
    unit: u64,
    p: &Plain,
    client: [(&'static str, f64); 3],
    s: &mcc_obs::SpanRecord,
    flushes: &[&mcc_obs::SpanRecord],
    epoch_us: f64,
) -> Session {
    let to_us = |us: u64| epoch_us + us as f64;
    let (t0, t1) = (tr.us(p.start), tr.us(p.end));
    let root = tr.record(ROOT, unit, None, t0, t1);
    let clip = |a: f64, b: f64, lo: f64, hi: f64| (a.clamp(lo, hi), b.clamp(lo, hi));
    let piece = |name, a: f64, b: f64, parent: u64| {
        if b > a {
            tr.record(name, unit, Some(parent), a, b);
        }
    };
    let (ss, se) = (to_us(s.start_us), to_us(s.start_us + s.dur_us));
    let w = ss.clamp(t0, t1);
    piece("serve.handshake", t0, w, root);
    let mut t = w;
    for (name, d) in client {
        let (a, b) = clip(t, t + d, t0, t1);
        piece(name, a, b, root);
        t = b;
    }
    let (wa, wb) = clip(ss.max(t), se, t, t1);
    if wb > wa {
        let sid = tr.record("serve.session", unit, Some(root), wa, wb);
        for f in flushes {
            let (a, b) = clip(to_us(f.start_us), to_us(f.start_us + f.dur_us), wa, wb);
            piece("core.stream_flush", a, b, sid);
        }
    }
    Session {
        session_ms: s.dur_us as f64 / 1e3,
        flush_ms: flushes
            .iter()
            .filter(|f| f.name == "stream.flush_region")
            .map(|f| f.dur_us as f64 / 1e3)
            .collect(),
    }
}

pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let journal = cfg.work_dir.join("journal");
    let mut daemon: Option<Daemon> = None;
    // Set-up: build the trace, compute the batch reference, start the
    // daemon (a previous rep's daemon is stopped first) and pass one
    // plain and one durable warm-up session through it.
    let (trace, batch) = repeated_setup(&mut out, cfg, || {
        if let Some(d) = daemon.take() {
            d.stop()?;
        }
        let trace = synth_trace(&params(cfg.seed), CONFLICT_FRACTION);
        let batch = AnalysisSession::new().run(&trace).diagnostics;
        let d = Daemon::start(&journal, RecorderHandle::disabled())?;
        let (plain, durable) =
            closed_loop(&d.addr, &trace, Duration::from_secs(60), 1, &RecorderHandle::disabled());
        for p in &plain {
            gate(&p.result, &trace, &batch)?;
        }
        for d in &durable {
            gate(&d.result, &trace, &batch)?;
        }
        daemon = Some(d);
        Ok((trace, batch))
    })?;
    let events = trace.total_events();
    out.prov("events_per_unit", events);
    out.prov("batch_findings", batch.len());
    out.prov("clients", "2 closed-loop (1 plain, 1 durable)");

    let d = daemon.take().expect("set-up started a daemon");
    let t0 = Instant::now();
    let (plain, durable) =
        closed_loop(&d.addr, &trace, cfg.phase(), usize::MAX, &RecorderHandle::disabled());
    let elapsed = t0.elapsed().as_secs_f64();
    d.stop()?;
    let mut walls = Vec::new();
    for p in &plain {
        out.verdict(gate(&p.result, &trace, &batch));
        walls.push(ms(p.end - p.start));
    }
    let mut durable_ms = Vec::new();
    for d in &durable {
        out.verdict(gate(&d.result, &trace, &batch));
        durable_ms.push(ms(d.wall));
    }
    if durable_ms.is_empty() {
        return Err("no durable session completed".into());
    }
    out.set("durable_verdict_ms.p50", "ms", stats::median(&durable_ms), durable_ms.len());
    out.prov("plain_sessions", plain.len());
    out.prov("durable_sessions", durable.len());
    if !cfg.trace {
        let sessions = plain.len() + durable.len();
        end_to_end(&mut out, &walls, (sessions * events) as f64 / elapsed, sessions)?;
        return Ok(out);
    }

    // Traced phase: a fresh daemon whose recorder is also the process
    // recorder, so client spans, daemon spans and trace-context links
    // land in one store with one epoch.
    let recorder = RecorderHandle::enabled();
    let epoch = Instant::now();
    mcc_obs::set_global(recorder.clone());
    let flatten_us = 1e3
        * stats::probe_ms(5, || {
            std::hint::black_box(client::flatten_events(&trace));
        });
    let d = Daemon::start(&journal, recorder.clone())?;
    let (tplain, tdurable) = closed_loop(&d.addr, &trace, cfg.phase(), MAX_TRACED_UNITS, &recorder);
    d.stop()?;
    mcc_obs::set_global(RecorderHandle::disabled());
    if recorder.spans_dropped() > 0 {
        return Err(format!("daemon recorder dropped {} spans", recorder.spans_dropped()));
    }

    let tr = Tracer::new();
    let epoch_us = tr.us(epoch);
    let spans = recorder.spans();
    let links = remote_parents(&recorder);
    let mut kids: BTreeMap<u64, Vec<&mcc_obs::SpanRecord>> = BTreeMap::new();
    for s in &spans {
        if let Some(p) = s.parent {
            kids.entry(p).or_default().push(s);
        }
    }
    // A session's region analyses: its outermost `stream.*` spans.
    fn streams<'a>(
        id: u64,
        kids: &BTreeMap<u64, Vec<&'a mcc_obs::SpanRecord>>,
        out: &mut Vec<&'a mcc_obs::SpanRecord>,
    ) {
        for k in kids.get(&id).into_iter().flatten() {
            if k.name.starts_with("stream.") {
                out.push(k);
            } else {
                streams(k.id, kids, out);
            }
        }
    }
    let mut sessions = Vec::new();
    let mut infos = Vec::new();
    let mut reports = Vec::new();
    for (unit, p) in tplain.iter().enumerate() {
        out.verdict(gate(&p.result, &trace, &batch));
        let Ok((report, info)) = &p.result else { continue };
        let submit = kids.get(&p.span).and_then(|k| k.iter().find(|s| s.name == "client.submit"));
        let session = submit
            .and_then(|c| {
                spans.iter().find(|s| s.name == "serve.session" && links.get(&s.id) == Some(&c.id))
            })
            .ok_or("a traced plain session has no linked daemon session span")?;
        let mut flushes = Vec::new();
        streams(session.id, &kids, &mut flushes);
        let client = [
            ("serve.flatten", flatten_us),
            ("codec.encode", info.encode.as_secs_f64() * 1e6),
            ("serve.client_io", info.io.as_secs_f64() * 1e6),
        ];
        let unit = unit as u64;
        sessions.push(plain_unit_spans(&tr, unit, p, client, session, &flushes, epoch_us));
        infos.push(*info);
        reports.push(report);
    }
    for d in &tdurable {
        out.verdict(gate(&d.result, &trace, &batch));
    }
    finish_trace(&mut out, &tr, stats::mean(&walls), cfg)?;

    let n = infos.len();
    let mean = |v: Vec<f64>| stats::mean(&v);
    let ev = events as f64;
    out.set("serve.flatten_us_per_event", "us", flatten_us / ev, 5);
    out.set(
        "codec.encode_us_per_event",
        "us",
        mean(infos.iter().map(|i| i.encode.as_secs_f64() * 1e6 / ev).collect()),
        n,
    );
    out.set(
        "codec.bytes_per_event",
        "bytes",
        mean(infos.iter().map(|i| i.bytes_sent as f64 / ev).collect()),
        n,
    );
    out.set("serve.client_io_ms", "ms", mean(infos.iter().map(|i| ms(i.io)).collect()), n);
    out.set("serve.session_ms", "ms", mean(sessions.iter().map(|s| s.session_ms).collect()), n);
    let flushes: Vec<f64> = sessions.iter().flat_map(|s| s.flush_ms.iter().copied()).collect();
    out.set("core.stream_flush_ms", "ms", stats::mean(&flushes), flushes.len());
    out.set(
        "core.regions_flushed",
        "count",
        mean(reports.iter().map(|r| r.regions_flushed as f64).collect()),
        n,
    );
    out.set(
        "serve.peak_buffered",
        "count",
        mean(reports.iter().map(|r| r.peak_buffered as f64).collect()),
        n,
    );
    let fsync = recorder.snapshot().hists.get(mcc_obs::names::JOURNAL_FSYNC_US).cloned();
    let (fsync_us, fsyncs) =
        fsync.map_or((0.0, 0), |h| (h.sum as f64 / h.count.max(1) as f64, h.count));
    out.set("serve.journal_fsync_us", "us", fsync_us, fsyncs as usize);
    let resumes: Vec<f64> = tdurable
        .iter()
        .filter_map(|d| d.result.as_ref().ok())
        .map(|(_, s)| s.resumes as f64)
        .collect();
    out.set("serve.resumes", "count", stats::mean(&resumes), resumes.len());
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The gate must be able to fail: a degraded or short session is
    /// refused even when its findings equal the batch findings, and so
    /// is a complete session with one finding missing.
    #[test]
    fn gate_refuses_degraded_short_or_wrong_sessions() {
        let trace = synth_trace(&params(1), CONFLICT_FRACTION);
        let batch = AnalysisSession::new().run(&trace).diagnostics;
        assert!(!batch.is_empty(), "the serve trace must have findings");
        let whole = SessionReport {
            schema_version: mcc_serve::REPORT_SCHEMA_VERSION,
            confidence: Confidence::Complete,
            findings: batch.clone(),
            events_ingested: trace.total_events() as u64,
            regions_flushed: 0,
            peak_buffered: 0,
            evictions: 0,
        };
        let check = |r: &SessionReport| gate(&Ok::<_, String>((r.clone(), ())), &trace, &batch);
        assert_eq!(check(&whole), Ok(()));
        assert!(
            check(&SessionReport { confidence: Confidence::Degraded, ..whole.clone() }).is_err()
        );
        assert!(check(&SessionReport { events_ingested: 1, ..whole.clone() }).is_err());
        let mut short = whole.clone();
        short.findings.pop();
        assert!(check(&short).is_err());
        assert!(gate(&Err::<(SessionReport, ()), _>("Busy".into()), &trace, &batch).is_err());
    }
}
