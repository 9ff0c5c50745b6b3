//! In-memory span recorder for traced runs.
//!
//! Spans nest: a span's *self* time is its duration minus the time its
//! child spans cover. Spans are aggregated by name as they close, so a
//! traced run with thousands of engine rounds stays a handful of map
//! entries. Individual `engine.step` durations are kept as well, for the
//! per-round latency quantiles.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Aggregated timings of every span with one name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Total {
    /// Summed durations, children included.
    pub inclusive: Duration,
    /// Summed durations minus the time covered by child spans.
    pub self_time: Duration,
}

/// Engine counters harvested at the span boundaries of each engine run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineCounts {
    /// `step()` calls (rounds actually executed).
    pub executed_rounds: u64,
    /// Rounds skipped by quiescence fast-forward.
    pub ff_skipped_rounds: u64,
    /// Messages sent (`RunReport::messages`, summed over runs).
    pub messages: u64,
    /// Message bits sent (`RunReport::total_bits`, summed over runs).
    pub total_bits: u64,
    /// Largest `RunReport::peak_memory_bytes` of any run.
    pub peak_mem_bytes: u64,
    /// Wire-codec round trips (`codec_stats`).
    pub codec_msgs: u64,
}

impl EngineCounts {
    /// Adds another run's counters (peaks take the maximum).
    pub fn absorb(&mut self, other: &EngineCounts) {
        self.executed_rounds += other.executed_rounds;
        self.ff_skipped_rounds += other.ff_skipped_rounds;
        self.messages += other.messages;
        self.total_bits += other.total_bits;
        self.peak_mem_bytes = self.peak_mem_bytes.max(other.peak_mem_bytes);
        self.codec_msgs += other.codec_msgs;
    }
}

/// One thread's span recorder.
#[derive(Debug, Default)]
pub struct Spans {
    open: Vec<(Instant, Duration)>,
    totals: BTreeMap<&'static str, Total>,
    /// Duration of every `engine.step` span, in order.
    pub steps: Vec<Duration>,
    /// Engine counters.
    pub engine: EngineCounts,
    /// Charged `DOMPartition` rounds (the cluster engine's analytic cost).
    pub partition_charge_rounds: u64,
}

impl Spans {
    /// Runs `f` inside a span named `name`. `f` gets the recorder back so
    /// it can open child spans.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        self.open.push((Instant::now(), Duration::ZERO));
        let out = f(self);
        let (start, children) = self.open.pop().expect("span stack balanced");
        let elapsed = start.elapsed();
        if let Some(parent) = self.open.last_mut() {
            parent.1 += elapsed;
        }
        self.add(name, elapsed, elapsed.saturating_sub(children));
        out
    }

    /// Records a leaf span measured by the caller (no children).
    pub fn record(&mut self, name: &'static str, elapsed: Duration) {
        if let Some(parent) = self.open.last_mut() {
            parent.1 += elapsed;
        }
        self.add(name, elapsed, elapsed);
    }

    /// Moves `d` of self time from span `from` to a child span `to` that
    /// the program measured inside it (the wire codec inside engine
    /// steps), so self times keep adding up.
    pub fn carve(&mut self, from: &'static str, to: &'static str, d: Duration) {
        let f = self.totals.entry(from).or_default();
        f.self_time = f.self_time.saturating_sub(d);
        let t = self.totals.entry(to).or_default();
        t.inclusive += d;
        t.self_time += d;
    }

    fn add(&mut self, name: &'static str, inclusive: Duration, self_time: Duration) {
        let t = self.totals.entry(name).or_default();
        t.inclusive += inclusive;
        t.self_time += self_time;
    }

    /// The aggregate of spans named `name` (zero if none closed).
    pub fn total(&self, name: &str) -> Total {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// Inclusive seconds of spans named `name`.
    pub fn secs(&self, name: &str) -> f64 {
        self.total(name).inclusive.as_secs_f64()
    }

    /// Adds another recorder's spans, steps and counters (used to merge
    /// per-job recorders of pool workers).
    pub fn absorb(&mut self, other: &Spans) {
        for (name, t) in &other.totals {
            let mine = self.totals.entry(name).or_default();
            mine.inclusive += t.inclusive;
            mine.self_time += t.self_time;
        }
        self.steps.extend_from_slice(&other.steps);
        self.engine.absorb(&other.engine);
        self.partition_charge_rounds += other.partition_charge_rounds;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_add_up_to_the_root() {
        let mut s = Spans::default();
        s.span("root", |s| {
            s.span("a", |s| {
                s.record("leaf", Duration::from_millis(2));
                std::thread::sleep(Duration::from_millis(3));
            });
            s.span("b", |_| std::thread::sleep(Duration::from_millis(1)));
        });
        s.carve("a", "carved", Duration::from_millis(1));
        let root = s.total("root").inclusive;
        let sum: Duration = ["root", "a", "b", "leaf", "carved"]
            .iter()
            .map(|n| s.total(n).self_time)
            .sum();
        let diff = root.abs_diff(sum);
        assert!(diff < Duration::from_micros(10), "{root:?} vs {sum:?}");
        assert_eq!(s.total("carved").self_time, Duration::from_millis(1));
        assert_eq!(s.total("leaf").inclusive, Duration::from_millis(2));
    }
}
