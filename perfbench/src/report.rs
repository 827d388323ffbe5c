//! What one run reports: the JSON result line that ends its output, a
//! human-readable table before it, and the provenance recorded with
//! every result.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics every workload reports (`--trace 0`), with units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("verdict_ms.p50", "ms"),
    ("verdict_ms.tail", "ms"),
    ("events_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics every workload reports (`--trace 1`), with units.
/// A layer a workload does not cross reads 0 there. check-synth's own
/// rows (`core.findings`, `core.interval_pairs`, `core.findings_per_pair`,
/// `core.dedup_dropped`, `core.shard_efficiency`) are printed in its
/// table only: it is not one of the workloads `BENCHMARK.json` gates.
pub const PER_LAYER: [(&str, &str); 43] = [
    // Layer self times per unit; with `unattributed_ms` they add up to
    // `traced_wall_ms`.
    ("mpi-sim.self_ms", "ms"),
    ("profiler.self_ms", "ms"),
    ("core.self_ms", "ms"),
    ("codec.self_ms", "ms"),
    ("serve.self_ms", "ms"),
    ("explore.self_ms", "ms"),
    ("unattributed_ms", "ms"),
    ("traced_wall_ms", "ms"),
    ("untraced_wall_ms", "ms"),
    ("tracing_overhead_ms", "ms"),
    // check-apps
    ("mpi-sim.native_ms", "ms"),
    ("mpi-sim.profiled_ms", "ms"),
    ("mpi-sim.events", "count"),
    ("profiler.write_us_per_event", "us"),
    ("profiler.read_us_per_event", "us"),
    ("profiler.bytes_per_event", "bytes"),
    ("profiled_norm_time", "ratio"),
    // check-apps (and check-synth)
    ("core.preprocess_ms", "ms"),
    ("core.matching_ms", "ms"),
    ("core.dag_ms", "ms"),
    ("core.regions_ms", "ms"),
    ("core.detect_ms", "ms"),
    ("core.merge_ms", "ms"),
    ("core.report_ms", "ms"),
    // serve-stream
    ("serve.flatten_us_per_event", "us"),
    ("codec.encode_us_per_event", "us"),
    ("codec.bytes_per_event", "bytes"),
    ("serve.client_io_ms", "ms"),
    ("serve.session_ms", "ms"),
    ("core.stream_flush_ms", "ms"),
    ("core.regions_flushed", "count"),
    ("serve.peak_buffered", "count"),
    ("serve.journal_fsync_us", "us"),
    ("serve.resumes", "count"),
    ("durable_verdict_ms.p50", "ms"),
    // explore-gallery
    ("mpi-sim.schedule_ms", "ms"),
    ("core.racing_ms", "ms"),
    ("core.check_ms", "ms"),
    ("explore.schedules", "count"),
    ("explore.deduped", "count"),
    ("explore.pruned", "count"),
    ("explore.useful_ratio", "ratio"),
    ("schedules_per_s", "1/s"),
];

/// One measured value with the number of samples behind it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
    /// Extra context for the human table (e.g. the tail percentile).
    pub note: String,
}

/// Everything one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, Metric>,
    pub provenance: Vec<(String, String)>,
    /// Why a unit failed, for the first few failures.
    pub failures: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, unit: &'static str, value: f64, samples: usize) {
        self.note(name, unit, value, samples, String::new());
    }

    pub fn note(
        &mut self,
        name: &str,
        unit: &'static str,
        value: f64,
        samples: usize,
        note: String,
    ) {
        self.metrics.insert(name.to_string(), Metric { value, unit, samples, note });
    }

    pub fn prov(&mut self, key: &str, value: impl ToString) {
        self.provenance.push((key.to_string(), value.to_string()));
    }

    /// Counts one unit; a wrong or missing verdict counts as failed.
    pub fn verdict(&mut self, ok: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = ok {
            self.failed += 1;
            if self.failures.len() < 5 {
                self.failures.push(why);
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The human-readable table: every metric with unit and samples,
    /// then the provenance.
    pub fn table(&self, workload: &str) -> String {
        let mut out = format!("workload {workload}\n");
        for (name, m) in &self.metrics {
            let _ = writeln!(
                out,
                "  {name:<28} {:>16.4} {:<6} n={:<6} {}",
                m.value, m.unit, m.samples, m.note
            );
        }
        let ratio = self.failed as f64 / self.attempted.max(1) as f64;
        let _ = writeln!(
            out,
            "  {:<28} {:>16.4} {:<6} n={:<6} ({} of {} units)",
            "failed_ratio", ratio, "ratio", self.attempted, self.failed, self.attempted
        );
        for why in &self.failures {
            let _ = writeln!(out, "  FAILED: {why}");
        }
        for (k, v) in &self.provenance {
            let _ = writeln!(out, "  provenance {k} = {v}");
        }
        out
    }

    /// The JSON result line: the named metrics, in `names` order.
    pub fn json_line(&self, names: &[(&str, &str)]) -> Result<String, String> {
        let mut metrics = Vec::new();
        for (name, unit) in names {
            let v = self.metrics.get(*name).map_or(0.0, |m| m.value);
            if !v.is_finite() {
                return Err(format!("metric {name} is not a finite number"));
            }
            metrics.push(format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Hands the heap that set-up freed back to the kernel, then resets this
/// process's peak-RSS mark (`VmHWM`) to its current RSS.
pub fn reset_peak_rss() -> Result<(), String> {
    #[cfg(target_env = "gnu")]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` only releases free heap pages.
        unsafe { malloc_trim(0) };
    }
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset the peak RSS through /proc/self/clear_refs: {e}"))
}

/// CPU time this process has used, all threads, in ms (`/proc/self/stat`
/// `utime` + `stime`, in the kernel's fixed 100 ticks per second).
pub fn process_cpu_ms() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields after the parenthesised command name, from `state` on.
    let fields: Vec<&str> = stat.rsplit_once(')')?.1.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i)?.parse::<f64>().ok();
    Some((ticks(11)? + ticks(12)?) * 10.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_wrong_verdict_fails_the_run() {
        let mut o = Outcome::default();
        o.verdict(Ok(()));
        o.verdict(Err("expected clean, got 1 finding".into()));
        assert!(!o.correct());
        assert_eq!((o.attempted, o.failed), (2, 1));
        let line = o.json_line(&END_TO_END).unwrap();
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1,"));
    }

    #[test]
    fn metric_names_are_unique_and_valid() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(name.len() <= 64 && name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit.len() <= 16);
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let text = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        assert_eq!(text.matches("\"unit\":").count(), END_TO_END.len() + PER_LAYER.len());
    }
}
