//! Metric names, units, sample statistics and the result line.

use std::collections::BTreeMap;

/// The end-to-end metrics every workload reports in an untraced run,
/// as `(name, unit)`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("run_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("sim_rounds", "rounds"),
    ("job_p50_ms", "ms"),
    ("job_p99_ms", "ms"),
    ("jobs_per_s", "1/s"),
];

/// The per-layer metrics every workload reports in a traced run, as
/// `(name, unit)`. A layer the workload does not load reports 0.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("graph.build_s", "s"),
    ("graph.bytes", "bytes"),
    ("engine.build_s", "s"),
    ("engine.teardown_s", "s"),
    ("engine.step_s", "s"),
    ("engine.fast_forward_s", "s"),
    ("engine.step_p50_us", "us"),
    ("engine.step_max_ms", "ms"),
    ("engine.executed_rounds", "rounds"),
    ("engine.ff_skipped_rounds", "rounds"),
    ("engine.messages", "count"),
    ("engine.total_bits", "bits"),
    ("engine.peak_mem_bytes", "bytes"),
    ("wire.codec_s", "s"),
    ("wire.codec_msgs", "count"),
    ("wire.ns_per_msg", "ns"),
    ("core.simple_mst_s", "s"),
    ("core.dom_partition_s", "s"),
    ("core.fastdom_within_s", "s"),
    ("core.partition_charge_rounds", "rounds"),
    ("mst.bfs_s", "s"),
    ("mst.pipeline_s", "s"),
    ("mst.assemble_s", "s"),
    ("jobs.queue_wait_p50_ms", "ms"),
    ("jobs.queue_wait_p99_ms", "ms"),
    ("jobs.runner_p50_ms", "ms"),
    ("jobs.cache_hit_ratio", "ratio"),
    ("jobs.cache_lookups", "count"),
    ("jobs.cache_evictions", "count"),
    ("jobs.engine_runs", "count"),
    ("serve.submit_rtt_ms", "ms"),
    ("serve.wait_rtt_hit_ms", "ms"),
    ("verify.s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.residual_pct", "%"),
];

/// The largest share of a traced operation's wall time that may fall
/// outside every layer span (the benchmark's own glue) before the traced
/// run counts as a failure.
pub const MAX_RESIDUAL_PCT: f64 = 5.0;

/// Named metric values of one run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Sets `name` to `value`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The per-name median over several runs' metrics.
    pub fn median_of(runs: &[Metrics]) -> Metrics {
        let mut out = Metrics::default();
        let names: std::collections::BTreeSet<&'static str> =
            runs.iter().flat_map(|m| m.0.keys().copied()).collect();
        for name in names {
            let values: Vec<f64> = runs.iter().filter_map(|m| m.get(name)).collect();
            out.set(name, quantile(&values, 0.5));
        }
        out
    }
}

/// The `q`-quantile of `samples` by linear interpolation between the
/// closest ranks; 0 for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// Whether `name` is a legal metric name: `[A-Za-z0-9_.-]+`, starting
/// with a letter or digit, at most 64 characters.
pub fn is_valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Failure bookkeeping: every operation is attempted once; a panic, a
/// simulator error, an `ERR` reply or a failed certification marks it
/// failed. Reasons go to standard error as they happen.
#[derive(Clone, Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Tally {
    /// Counts one attempted operation.
    pub fn attempt(&mut self) {
        self.attempted += 1;
    }

    /// Counts a failure (of an operation already attempted) when
    /// `result` is an error.
    pub fn check(&mut self, what: &str, result: Result<(), String>) {
        if let Err(e) = result {
            eprintln!("FAILED {what}: {e}");
            self.failed += 1;
        }
    }

    /// Adds another tally's counts.
    pub fn absorb(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// A workload run's verdict and numbers.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Attempted and failed operations.
    pub tally: Tally,
    /// The metrics the run's mode reports.
    pub metrics: Metrics,
}

impl Outcome {
    /// Whether the run passed: something was attempted, nothing failed,
    /// and every metric of `table` is present and finite.
    pub fn correct(&self, table: &[(&str, &str)]) -> bool {
        self.tally.attempted > 0
            && self.tally.failed == 0
            && table
                .iter()
                .all(|(name, _)| self.metrics.get(name).is_some_and(f64::is_finite))
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed`, and every metric of `table` with its unit. A missing or
    /// non-finite metric is written as 0 and makes `correct` false.
    pub fn to_json(&self, table: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = table
            .iter()
            .map(|(name, unit)| {
                let v = self
                    .metrics
                    .get(name)
                    .filter(|v| v.is_finite())
                    .unwrap_or(0.0);
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(table),
            self.tally.attempted.max(1),
            self.tally.failed.max(u64::from(self.tally.attempted == 0)),
            metrics.join(", ")
        )
    }
}

/// The process's high-water resident set size in MiB (`VmHWM`), or 0
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(quantile(&s, 0.5), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn json_line_names_every_metric() {
        let mut m = Metrics::default();
        m.set("run_s", 1.5);
        let out = Outcome {
            tally: Tally {
                attempted: 3,
                failed: 0,
            },
            metrics: m,
        };
        let line = out.to_json(&[("run_s", "s"), ("setup_s", "s")]);
        assert!(line.contains("\"run_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(
            line.starts_with("{\"correct\": false"),
            "setup_s is missing"
        );
    }
}
