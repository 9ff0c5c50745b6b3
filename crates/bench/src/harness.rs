//! A tiny self-contained wall-clock benchmark harness.
//!
//! Exposes the subset of the `criterion` API the benches under
//! `benches/` consume — [`Criterion`], benchmark groups,
//! [`Bencher::iter`], and the [`criterion_group!`]/[`criterion_main!`]
//! macros — so the workspace needs **no external crates** to time its
//! experiments. Timing is plain [`std::time::Instant`]: per benchmark a
//! short warm-up, then batched measurement until a time budget is spent,
//! reporting min/mean/median over the batches.
//!
//! The budget is tuned via `KDOM_BENCH_MS` (milliseconds per benchmark,
//! default 300); set `KDOM_BENCH_MS=0` for a single-iteration smoke run
//! (useful in CI, where only "does it run" matters).

use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One recorded measurement, kept for [`write_engine_json`].
#[derive(Clone, Debug)]
struct Sample {
    name: String,
    median_secs: f64,
    rounds: Option<u64>,
    extras: Vec<(String, u64)>,
}

/// Every benchmark run in this process, in execution order. Smoke runs
/// (`KDOM_BENCH_MS=0`) record their single probe iteration so CI can
/// still emit an artifact.
static RESULTS: Mutex<Vec<Sample>> = Mutex::new(Vec::new());

/// Records a measurement taken outside [`Criterion`] (the experiments
/// binary times its engine-scaling legs directly) so it lands in
/// [`write_engine_json`] alongside harness-timed targets.
pub fn record_measurement(name: &str, median_secs: f64) {
    record(name, median_secs);
}

fn record(name: &str, median_secs: f64) {
    let mut r = RESULTS.lock().unwrap();
    r.push(Sample {
        name: name.to_string(),
        median_secs,
        rounds: None,
        extras: Vec::new(),
    });
}

/// Attaches a round count to the most recent measurement named `name`,
/// so [`write_engine_json`] can report rounds/second.
pub fn note_rounds(name: &str, rounds: u64) {
    let mut r = RESULTS.lock().unwrap();
    if let Some(s) = r.iter_mut().rev().find(|s| s.name == name) {
        s.rounds = Some(rounds);
    }
}

/// Attaches an auxiliary integer field (e.g. fast-forward skip counts)
/// to the most recent measurement named `name`. Extras are appended
/// after `median_secs` in the JSON row; [`check_regression_gate`]'s
/// line scrape ignores them, so they never affect the gate.
pub fn note_extra(name: &str, key: &str, value: u64) {
    let mut r = RESULTS.lock().unwrap();
    if let Some(s) = r.iter_mut().rev().find(|s| s.name == name) {
        s.extras.push((key.to_string(), value));
    }
}

/// Whether this machine can honestly *time* a `threads`-way leg:
/// requires `available_parallelism() >= threads`. When undersubscribed
/// it logs the skip to stderr and returns `false` — callers must then
/// neither record the measurement nor let it into a baseline file, or
/// an undersubscribed machine would write multi-thread rows that a real
/// multi-core host is later gated against. Byte-identity checks of
/// multi-thread legs are unaffected: correctness does not need real
/// parallelism, only timing does.
pub fn can_bench_threads(threads: usize) -> bool {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    if nproc >= threads {
        return true;
    }
    eprintln!("kdom-bench: skipping {threads}-thread timing legs: only {nproc} CPU(s) available");
    false
}

/// Writes every recorded measurement to `BENCH_engine.json` at the repo
/// root: per-target median wall-clock seconds, plus rounds/second where
/// [`note_rounds`] was called. Returns the path written.
///
/// This file is the regression-gate baseline
/// ([`check_regression_gate`]), so only the engine bench — whose target
/// names the gate matches on — may call this. Everything else (the e21
/// experiment) goes through [`write_json`] with its own file name;
/// history shows why: e21 runs inside `cargo test` via the quick-suite
/// test and used to silently replace the committed baseline with
/// targets the gate never matches, turning the gate into a vacuous
/// pass.
pub fn write_engine_json() -> std::io::Result<PathBuf> {
    write_json("BENCH_engine.json")
}

/// Writes every recorded measurement to `file_name` at the repo root in
/// the `BENCH_engine.json` format. Returns the path written.
pub fn write_json(file_name: &str) -> std::io::Result<PathBuf> {
    let path = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../..")).join(file_name);
    let results = RESULTS.lock().unwrap();
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let mut out = String::from("{\n");
    out.push_str(&format!("  \"nproc\": {nproc},\n"));
    out.push_str("  \"targets\": [\n");
    for (i, s) in results.iter().enumerate() {
        let name = s.name.replace('\\', "\\\\").replace('"', "\\\"");
        out.push_str(&format!("    {{\"name\": \"{name}\""));
        out.push_str(&format!(", \"median_secs\": {:.9}", s.median_secs));
        if let Some(rounds) = s.rounds {
            let rps = rounds as f64 / s.median_secs.max(1e-12);
            out.push_str(&format!(
                ", \"rounds\": {rounds}, \"rounds_per_sec\": {rps:.1}"
            ));
        }
        for (key, value) in &s.extras {
            let key = key.replace('\\', "\\\\").replace('"', "\\\"");
            out.push_str(&format!(", \"{key}\": {value}"));
        }
        out.push('}');
        if i + 1 < results.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    std::fs::write(&path, out)?;
    eprintln!("wrote {}", path.display());
    Ok(path)
}

/// Compares the measurements recorded so far against the **committed**
/// `BENCH_engine.json` and panics if any shared engine target got slower
/// beyond the tolerance. Call this *before* [`write_engine_json`]
/// replaces the baseline.
///
/// The comparison is **machine-relative**: the `legacy-loop` legs (the
/// frozen pre-engine reference loop, re-measured in this very run) serve
/// as a speed probe for the current host. Each baseline median is scaled
/// by the median `fresh / baseline` ratio over the shared legacy-loop
/// legs before comparing, so a runner 3× slower than the machine that
/// committed the baseline does not fail spuriously — and a faster runner
/// does not mask a real regression.
///
/// Opt-in: runs only when `KDOM_BENCH_GATE=1` (CI sets the variable on a
/// dedicated non-smoke job). `KDOM_BENCH_TOLERANCE` sets the allowed
/// calibrated slowdown in percent (default 15). Targets present on only
/// one side are ignored, so adding or retiring benchmarks never trips
/// the gate — but with the gate on, an unreadable baseline, a stale
/// scrape that parses nothing, or zero shared targets is an error, never
/// a silent pass.
pub fn check_regression_gate() {
    // fail-fast flag parse: `KDOM_BENCH_GATE=yes please` must abort, not
    // silently skip the gate (the historical `!= Ok("1")` did exactly that)
    if !kdom_graph::knob::knob_flag("KDOM_BENCH_GATE", false) {
        return;
    }
    let tolerance_pct = kdom_graph::knob::knob("KDOM_BENCH_TOLERANCE", 15.0f64);
    let path = PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_engine.json"
    ));
    let baseline = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "bench gate: cannot read committed baseline {}: {e}",
            path.display()
        )
    });
    let old = parse_medians(&baseline);
    assert!(
        !old.is_empty(),
        "bench gate: parsed no medians from {} — did write_engine_json's format drift?",
        path.display()
    );
    let results = RESULTS.lock().unwrap();

    // calibrate: how fast is this machine relative to the one that
    // committed the baseline, per the shared legacy-loop legs?
    let is_probe = |name: &str| name.ends_with("/legacy-loop");
    let mut ratios: Vec<f64> = results
        .iter()
        .filter(|s| is_probe(&s.name) && s.median_secs > 0.0)
        .filter_map(|s| {
            old.iter()
                .find(|(n, m)| n == &s.name && *m > 0.0)
                .map(|(_, m)| s.median_secs / m)
        })
        .collect();
    assert!(
        !ratios.is_empty(),
        "bench gate: no shared legacy-loop probe targets to calibrate against"
    );
    ratios.sort_by(|a, b| a.total_cmp(b));
    let speed = ratios[ratios.len() / 2];

    let mut regressions = Vec::new();
    let mut compared = 0usize;
    for s in results.iter().filter(|s| !is_probe(&s.name)) {
        let Some(&was) = old.iter().find(|(n, _)| n == &s.name).map(|(_, m)| m) else {
            continue;
        };
        compared += 1;
        let allowed = was * speed * (1.0 + tolerance_pct / 100.0);
        if s.median_secs > allowed {
            regressions.push(format!(
                "  {}: {:.6}s -> {:.6}s (+{:.1}% machine-adjusted, tolerance {:.0}%)",
                s.name,
                was * speed,
                s.median_secs,
                (s.median_secs / (was * speed) - 1.0) * 100.0,
                tolerance_pct
            ));
        }
    }
    assert!(
        compared > 0,
        "bench gate: no engine targets shared with the committed baseline — gate would be vacuous"
    );
    // The inverse direction: a baseline row whose name no longer shows
    // up in the fresh run means that target silently stopped being
    // gated — usually a renamed or retired bench. Warn per row, and
    // refuse to pass if the gate lost most of its coverage.
    let baseline_rows: Vec<_> = old.iter().filter(|(n, _)| !is_probe(n)).collect();
    let mut unmatched = 0usize;
    for (name, _) in &baseline_rows {
        if !results.iter().any(|s| &s.name == name) {
            unmatched += 1;
            eprintln!(
                "bench gate: warning: baseline row {name} has no fresh counterpart — it is no longer gated"
            );
        }
    }
    assert!(
        unmatched * 2 <= baseline_rows.len(),
        "bench gate: {unmatched} of {} baseline rows have no fresh counterpart — over half the \
         baseline is no longer exercised; refresh BENCH_engine.json or restore the missing targets",
        baseline_rows.len()
    );
    assert!(
        regressions.is_empty(),
        "bench gate: {} of {compared} targets regressed beyond {tolerance_pct}% (machine speed factor {speed:.3}):\n{}",
        regressions.len(),
        regressions.join("\n")
    );
    eprintln!(
        "bench gate: {compared} targets within {tolerance_pct}% of the committed baseline \
         (machine speed factor {speed:.3} from {} legacy-loop probes)",
        ratios.len()
    );
}

/// Extracts `(name, median_secs)` pairs from a `BENCH_engine.json`
/// document — a line-oriented scrape of the fixed format
/// [`write_engine_json`] emits, so the workspace stays dependency-free.
fn parse_medians(json: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in json.lines() {
        let Some(rest) = line.split("\"name\": \"").nth(1) else {
            continue;
        };
        let Some(name) = rest.split('"').next() else {
            continue;
        };
        let Some(med) = rest
            .split("\"median_secs\": ")
            .nth(1)
            .and_then(|m| m.split([',', '}']).next())
            .and_then(|m| m.trim().parse::<f64>().ok())
        else {
            continue;
        };
        out.push((name.to_string(), med));
    }
    out
}

/// A log₂-bucketed latency histogram (nanosecond resolution).
///
/// Used by the engine bench's round profiler to summarize wall time per
/// *simulated* round: each executed round's duration lands in bucket
/// `⌊log₂ ns⌋`, so six decades of latency fit in 64 counters with no
/// allocation on the hot path. Rounds skipped wholesale by quiescence
/// fast-forward never reach the histogram — report them separately via
/// the engine's fast-forward counters.
#[derive(Clone, Debug)]
pub struct Histogram {
    buckets: [u64; 64],
    count: u64,
    total_ns: u128,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [0; 64],
            count: 0,
            total_ns: 0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one duration.
    pub fn record(&mut self, d: Duration) {
        let ns = d.as_nanos().max(1);
        let bucket = (127 - ns.leading_zeros()).min(63) as usize;
        self.buckets[bucket] += 1;
        self.count += 1;
        self.total_ns += ns;
    }

    /// Number of recorded durations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded durations.
    pub fn total(&self) -> Duration {
        Duration::from_nanos(u64::try_from(self.total_ns).unwrap_or(u64::MAX))
    }

    /// Upper bound of the bucket containing the q-th quantile
    /// (`0.0 ≤ q ≤ 1.0`), or zero for an empty histogram. Bucketed, so
    /// accurate to within a factor of 2 — plenty for spotting a
    /// heavy-tailed round distribution.
    pub fn quantile(&self, q: f64) -> Duration {
        if self.count == 0 {
            return Duration::ZERO;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let upper = if b >= 63 { u64::MAX } else { 1u64 << (b + 1) };
                return Duration::from_nanos(upper);
            }
        }
        Duration::from_nanos(u64::MAX)
    }

    /// A one-line summary: count, mean, and bucketed p50/p90/p99.
    pub fn summary(&self) -> String {
        if self.count == 0 {
            return "0 samples".to_string();
        }
        let mean = Duration::from_secs_f64(self.total_ns as f64 / 1e9 / self.count as f64);
        format!(
            "{} samples, mean {} / p50 ≤{} / p90 ≤{} / p99 ≤{}",
            self.count,
            fmt_dur(mean),
            fmt_dur(self.quantile(0.5)),
            fmt_dur(self.quantile(0.9)),
            fmt_dur(self.quantile(0.99)),
        )
    }

    /// Non-empty buckets as `(lower_ns, upper_ns, count)` rows.
    pub fn rows(&self) -> Vec<(u64, u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(b, &c)| {
                let lo = 1u64 << b;
                let hi = if b >= 63 {
                    u64::MAX
                } else {
                    (1u64 << (b + 1)) - 1
                };
                (lo, hi, c)
            })
            .collect()
    }
}

/// Top-level harness handle (mirrors `criterion::Criterion`).
#[derive(Debug, Default)]
pub struct Criterion {
    _priv: (),
}

impl Criterion {
    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let name = name.into();
        eprintln!("group {name}");
        BenchmarkGroup { _c: self, name }
    }

    /// Runs a single benchmark outside any group.
    pub fn bench_function<F>(&mut self, name: impl Into<String>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_one(&name.into(), f);
        self
    }
}

/// A named collection of benchmarks (mirrors `criterion::BenchmarkGroup`).
pub struct BenchmarkGroup<'c> {
    _c: &'c mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Accepted for `criterion` compatibility; this harness sizes batches
    /// by time budget instead, so the hint is ignored.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Times `f` under `name` within this group.
    pub fn bench_function<F>(&mut self, name: impl Into<String>, f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        run_one(&format!("{}/{}", self.name, name.into()), f);
        self
    }

    /// Ends the group (output is flushed eagerly, so this is a no-op).
    pub fn finish(self) {}
}

/// Passed to each benchmark closure; call [`Bencher::iter`] with the
/// routine to measure.
pub struct Bencher {
    /// Iterations the routine should run this batch.
    iters: u64,
    /// Measured duration of the batch, filled in by [`Bencher::iter`].
    elapsed: Duration,
}

impl Bencher {
    /// Measures `routine`, keeping its output alive via `black_box` so
    /// the optimizer cannot delete the work.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let start = Instant::now();
        for _ in 0..self.iters {
            std::hint::black_box(routine());
        }
        self.elapsed = start.elapsed();
    }
}

fn budget() -> Duration {
    Duration::from_millis(kdom_graph::knob::knob("KDOM_BENCH_MS", 300u64))
}

fn run_one<F: FnMut(&mut Bencher)>(name: &str, mut f: F) {
    let budget = budget();
    // One probe iteration: warms caches and sizes the batches.
    let mut b = Bencher {
        iters: 1,
        elapsed: Duration::ZERO,
    };
    f(&mut b);
    let probe = b.elapsed.max(Duration::from_nanos(1));
    if budget.is_zero() {
        eprintln!("  {name}: {} (smoke run)", fmt_dur(probe));
        record(name, probe.as_secs_f64());
        return;
    }
    // Batch size targeting ~10 batches within the budget.
    let per_batch = budget.as_nanos() / 10;
    let iters = (per_batch / probe.as_nanos()).clamp(1, 1_000_000) as u64;
    let mut samples: Vec<f64> = Vec::new();
    let start = Instant::now();
    while start.elapsed() < budget || samples.len() < 3 {
        let mut b = Bencher {
            iters,
            elapsed: Duration::ZERO,
        };
        f(&mut b);
        samples.push(b.elapsed.as_secs_f64() / iters as f64);
        if samples.len() >= 1000 {
            break;
        }
    }
    samples.sort_by(|a, b| a.total_cmp(b));
    let min = samples[0];
    let median = samples[samples.len() / 2];
    let mean = samples.iter().sum::<f64>() / samples.len() as f64;
    record(name, median);
    eprintln!(
        "  {name}: min {} / median {} / mean {}  ({} batches × {iters} iters)",
        fmt_secs(min),
        fmt_secs(median),
        fmt_secs(mean),
        samples.len(),
    );
}

fn fmt_secs(s: f64) -> String {
    fmt_dur(Duration::from_secs_f64(s))
}

fn fmt_dur(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

/// Declares a benchmark group runner, mirroring `criterion_group!`.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut c = $crate::harness::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Declares the bench `main`, mirroring `criterion_main!`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            // `cargo bench` passes harness flags like `--bench`; a plain
            // wall-clock harness can ignore them.
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_measures_something() {
        let mut b = Bencher {
            iters: 10,
            elapsed: Duration::ZERO,
        };
        b.iter(|| (0..1000u64).sum::<u64>());
        assert!(b.elapsed > Duration::ZERO);
    }

    #[test]
    fn group_runs_function() {
        std::env::set_var("KDOM_BENCH_MS", "0");
        let mut c = Criterion::default();
        let mut runs = 0;
        {
            let mut g = c.benchmark_group("t");
            g.bench_function("inc", |b| {
                runs += 1;
                b.iter(|| 1 + 1)
            });
            g.finish();
        }
        assert!(runs >= 1);
    }

    #[test]
    fn gate_scrapes_the_json_it_writes() {
        let doc = concat!(
            "{\n  \"nproc\": 1,\n  \"targets\": [\n",
            "    {\"name\": \"engine/a/legacy-loop\", \"median_secs\": 0.135995919, ",
            "\"rounds\": 2001, \"rounds_per_sec\": 14713.7},\n",
            "    {\"name\": \"engine/b\", \"median_secs\": 0.5, \"codec_ns\": 7}\n",
            "  ]\n}\n"
        );
        let m = parse_medians(doc);
        assert_eq!(
            m,
            vec![
                ("engine/a/legacy-loop".to_string(), 0.135995919),
                ("engine/b".to_string(), 0.5),
            ]
        );
    }

    #[test]
    fn histogram_buckets_by_log2_and_quantiles_bound() {
        let mut h = Histogram::new();
        for _ in 0..90 {
            h.record(Duration::from_nanos(100)); // bucket 6: [64, 127]
        }
        for _ in 0..10 {
            h.record(Duration::from_nanos(5000)); // bucket 12: [4096, 8191]
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile(0.5), Duration::from_nanos(128));
        assert_eq!(h.quantile(0.95), Duration::from_nanos(8192));
        let rows = h.rows();
        assert_eq!(rows, vec![(64, 127, 90), (4096, 8191, 10)]);
        assert!(h.summary().contains("100 samples"));
        assert_eq!(Histogram::new().quantile(0.5), Duration::ZERO);
    }

    #[test]
    fn extras_land_in_json_rows() {
        record("extra-test/x", 0.25);
        note_extra("extra-test/x", "ff_skipped", 42);
        let r = RESULTS.lock().unwrap();
        let s = r
            .iter()
            .rev()
            .find(|s| s.name == "extra-test/x")
            .expect("sample recorded");
        assert_eq!(s.extras, vec![("ff_skipped".to_string(), 42)]);
    }

    #[test]
    fn durations_format_across_scales() {
        assert!(fmt_dur(Duration::from_nanos(5)).contains("ns"));
        assert!(fmt_dur(Duration::from_micros(5)).contains("µs"));
        assert!(fmt_dur(Duration::from_millis(5)).contains("ms"));
        assert!(fmt_dur(Duration::from_secs(5)).contains("s"));
    }
}
