//! The traced run's span store and the self-time arithmetic behind the
//! layer table.
//!
//! Spans are recorded around the calls the benchmark makes into each
//! layer (or rebuilt from durations and spans the program itself
//! measured), kept in memory, and written out when the run ends. Every
//! span carries the id of the unit it belongs to; the unit's root span
//! is named [`ROOT`].
//!
//! A span's *self time* is its duration minus the part of it that its
//! children cover. Summed by layer over one unit, self times plus the
//! root's own self time (`unattributed`) equal the unit's wall time,
//! provided children lie inside their parent and siblings do not
//! overlap — which is how every workload builds its spans.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Name of the root span of one unit.
pub const ROOT: &str = "unit";

/// The layers a span can be charged to, in report order.
pub const LAYERS: [&str; 6] = ["mpi-sim", "profiler", "core", "codec", "serve", "explore"];

/// One finished span; times in microseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub unit: u64,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    /// The layer this span is charged to: its name up to the first `.`,
    /// or `None` for a unit root.
    pub fn layer(&self) -> Option<&'static str> {
        (self.name != ROOT).then(|| self.name.split('.').next().unwrap_or(self.name))
    }

    fn dur(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// In-memory span store shared by the benchmark's threads.
pub struct Tracer {
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self { epoch: Instant::now(), next: AtomicU64::new(1), spans: Mutex::new(Vec::new()) }
    }

    /// Microseconds from the epoch to `t` (negative if `t` is earlier).
    pub fn us(&self, t: Instant) -> f64 {
        match t.checked_duration_since(self.epoch) {
            Some(d) => d.as_secs_f64() * 1e6,
            None => -(self.epoch.duration_since(t).as_secs_f64() * 1e6),
        }
    }

    /// Stores a span and returns its id.
    pub fn record(
        &self,
        name: &'static str,
        unit: u64,
        parent: Option<u64>,
        start_us: f64,
        end_us: f64,
    ) -> u64 {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let span = Span { id, parent, unit, name, start_us, end_us: end_us.max(start_us) };
        self.spans.lock().expect("span store poisoned by a panicking thread").push(span);
        id
    }

    /// Times `f` as a span; `f` receives the span's id for its children.
    /// Returns `f`'s result, the span's id and its start.
    pub fn span<T>(
        &self,
        name: &'static str,
        unit: u64,
        parent: Option<u64>,
        f: impl FnOnce(u64) -> T,
    ) -> (T, u64, f64) {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start_us = self.us(Instant::now());
        let out = f(id);
        let end_us = self.us(Instant::now());
        let span = Span { id, parent, unit, name, start_us, end_us };
        self.spans.lock().expect("span store poisoned by a panicking thread").push(span);
        (out, id, start_us)
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned by a panicking thread").clone()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let parent = s.parent.map_or_else(|| "null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"unit\":{},\"name\":\"{}\",\
                 \"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.id, s.unit, s.name, s.start_us, s.end_us
            )?;
        }
        out.flush()
    }
}

/// Where a traced call's span goes: its tracer, unit and parent.
#[derive(Clone, Copy)]
pub struct Scope<'a> {
    pub tr: &'a Tracer,
    pub unit: u64,
    pub parent: u64,
}

impl<'a> Scope<'a> {
    /// Opens a unit: records its root span around `f`, which receives
    /// the scope for the unit's children.
    pub fn unit<T>(tr: &'a Tracer, unit: u64, f: impl FnOnce(Scope<'a>) -> T) -> T {
        tr.span(ROOT, unit, None, |id| f(Scope { tr, unit, parent: id })).0
    }

    /// Times `f` as a child span; returns its result, id and start.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, u64, f64) {
        self.tr.span(name, self.unit, Some(self.parent), |_| f())
    }

    /// The scope for children of span `parent`.
    pub fn under(&self, parent: u64) -> Scope<'a> {
        Scope { parent, ..*self }
    }

    /// Records back-to-back child spans of the given lengths from
    /// `start_us`: phases the program timed itself, in the order it ran
    /// them.
    pub fn sequence(&self, start_us: f64, parts: &[(&'static str, std::time::Duration)]) {
        let mut t = start_us;
        for &(name, d) in parts {
            let end = t + d.as_secs_f64() * 1e6;
            self.tr.record(name, self.unit, Some(self.parent), t, end);
            t = end;
        }
    }
}

/// Runs `f`, as a span of `scope` when the run is traced.
pub fn timed<T>(scope: Option<&Scope>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match scope {
        Some(s) => s.span(name, f).0,
        None => f(),
    }
}

/// Runs `session` on `trace`; when traced, as a `core.run` span whose
/// children are the pipeline phases `AnalysisStats` timed, in the order
/// the pipeline runs them (detection has no public entry point).
pub fn core_run(
    scope: Option<&Scope>,
    session: &mcc_core::AnalysisSession,
    trace: &mcc_types::Trace,
) -> mcc_core::CheckReport {
    let Some(s) = scope else {
        return session.run(trace);
    };
    let (report, id, start) = s.span("core.run", || session.run(trace));
    s.under(id).sequence(start, &phases(&report.stats));
    report
}

/// The pipeline phases `AnalysisStats` times, in the order the pipeline
/// runs them, as (span name, duration).
pub fn phases(st: &mcc_core::AnalysisStats) -> [(&'static str, std::time::Duration); 6] {
    [
        ("core.preprocess", st.preprocess_time),
        ("core.matching", st.matching_time),
        ("core.dag", st.dag_time),
        ("core.regions", st.region_time),
        ("core.detect", st.detect_time),
        ("core.merge", st.merge_time),
    ]
}

/// Self times of one unit's spans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UnitSelf {
    /// Root span duration, µs.
    pub wall_us: f64,
    /// Root span self time, µs.
    pub unattributed_us: f64,
    /// Layer → summed self time, µs.
    pub layers: BTreeMap<&'static str, f64>,
}

/// Splits one unit's wall time into layer self times. `spans` must hold
/// exactly one root.
///
/// Each child is first clipped to its parent and to the end of the
/// sibling before it, so time outside a parent or covered twice is never
/// counted: spans rebuilt from the program's whole-µs timestamps can
/// stick out by a fraction of a µs. The self times then add up to the
/// root's duration exactly.
pub fn unit_self_times(spans: &[Span]) -> UnitSelf {
    let mut out = UnitSelf::default();
    let Some(root) = spans.iter().find(|s| s.layer().is_none()) else {
        return out;
    };
    out.wall_us = root.dur();
    let mut stack = vec![(root, root.start_us, root.end_us)];
    while let Some((span, lo, hi)) = stack.pop() {
        let mut kids: Vec<&Span> = spans.iter().filter(|c| c.parent == Some(span.id)).collect();
        kids.sort_by(|a, b| a.start_us.total_cmp(&b.start_us));
        let (mut covered, mut last) = (0.0, lo);
        for kid in kids {
            let (a, b) = (kid.start_us.max(last), kid.end_us.min(hi));
            if b > a {
                covered += b - a;
                last = b;
                stack.push((kid, a, b));
            }
        }
        let own = (hi - lo) - covered;
        match span.layer() {
            None => out.unattributed_us = own,
            Some(layer) => *out.layers.entry(layer).or_default() += own,
        }
    }
    out
}

/// Per-unit means of layer self times over many units.
#[derive(Debug, Clone, Default)]
pub struct LayerTable {
    units: usize,
    wall_us: f64,
    unattributed_us: f64,
    layers: BTreeMap<&'static str, f64>,
}

impl LayerTable {
    /// Adds the units found in `spans` (grouped by unit id).
    pub fn add_spans(&mut self, spans: &[Span]) {
        let mut by_unit: BTreeMap<u64, Vec<Span>> = BTreeMap::new();
        for s in spans {
            by_unit.entry(s.unit).or_default().push(s.clone());
        }
        for unit in by_unit.values() {
            let u = unit_self_times(unit);
            self.units += 1;
            self.wall_us += u.wall_us;
            self.unattributed_us += u.unattributed_us;
            for (layer, us) in u.layers {
                *self.layers.entry(layer).or_default() += us;
            }
        }
    }

    pub fn units(&self) -> usize {
        self.units
    }

    fn per_unit_ms(&self, total_us: f64) -> f64 {
        if self.units == 0 {
            0.0
        } else {
            total_us / self.units as f64 / 1e3
        }
    }

    /// Mean traced wall time of one unit, ms.
    pub fn wall_ms(&self) -> f64 {
        self.per_unit_ms(self.wall_us)
    }

    /// Mean unattributed time of one unit, ms.
    pub fn unattributed_ms(&self) -> f64 {
        self.per_unit_ms(self.unattributed_us)
    }

    /// Mean self time of `layer` in one unit, ms (0 if never crossed).
    pub fn layer_ms(&self, layer: &str) -> f64 {
        self.per_unit_ms(self.layers.get(layer).copied().unwrap_or(0.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, unit: u64, name: &'static str, s: f64, e: f64) -> Span {
        Span { id, parent, unit, name, start_us: s, end_us: e }
    }

    #[test]
    fn self_times_plus_unattributed_equal_wall() {
        // unit [0,100]: sim [0,30], profiler [30,70] holding core [40,60],
        // and an uncovered tail [70,100].
        let spans = vec![
            span(1, None, 7, ROOT, 0.0, 100.0),
            span(2, Some(1), 7, "mpi-sim.profiled", 0.0, 30.0),
            span(3, Some(1), 7, "profiler.write", 30.0, 70.0),
            span(4, Some(3), 7, "core.run", 40.0, 60.0),
        ];
        let u = unit_self_times(&spans);
        assert_eq!(u.wall_us, 100.0);
        assert_eq!(u.unattributed_us, 30.0);
        assert_eq!(u.layers["mpi-sim"], 30.0);
        assert_eq!(u.layers["profiler"], 20.0);
        assert_eq!(u.layers["core"], 20.0);
        let sum: f64 = u.layers.values().sum::<f64>() + u.unattributed_us;
        assert_eq!(sum, u.wall_us);

        let mut t = LayerTable::default();
        t.add_spans(&spans);
        let rows: f64 = LAYERS.iter().map(|l| t.layer_ms(l)).sum::<f64>() + t.unattributed_ms();
        assert!((rows - t.wall_ms()).abs() < 1e-12);
    }

    #[test]
    fn layer_rows_are_per_unit_not_sums_over_concurrent_units() {
        // Two units running at the same time, each spending 10 µs in
        // core: the row is 10 µs per unit, never their 20 µs sum.
        let spans = vec![
            span(1, None, 1, ROOT, 0.0, 40.0),
            span(2, Some(1), 1, "core.stream_flush", 5.0, 15.0),
            span(3, None, 2, ROOT, 2.0, 42.0),
            span(4, Some(3), 2, "core.stream_flush", 6.0, 16.0),
        ];
        let mut t = LayerTable::default();
        t.add_spans(&spans);
        assert_eq!(t.units(), 2);
        assert!((t.layer_ms("core") - 0.010).abs() < 1e-12);
        assert!((t.wall_ms() - 0.040).abs() < 1e-12);
        assert!((t.unattributed_ms() - 0.030).abs() < 1e-12);
    }

    #[test]
    fn children_sticking_out_or_overlapping_are_clipped() {
        // core.run starts before the unit and overlaps the sim span; the
        // rows still add up to the unit's wall.
        let spans = vec![
            span(1, None, 3, ROOT, 10.0, 50.0),
            span(2, Some(1), 3, "mpi-sim.schedule", 9.5, 30.0),
            span(3, Some(1), 3, "core.run", 29.0, 51.0),
        ];
        let u = unit_self_times(&spans);
        assert_eq!(u.layers["mpi-sim"], 20.0);
        assert_eq!(u.layers["core"], 20.0);
        assert_eq!(u.unattributed_us, 0.0);
        assert_eq!(u.layers.values().sum::<f64>() + u.unattributed_us, u.wall_us);
    }
}
