//! Engine-wide telemetry: a sharded [`MetricsRegistry`] of counters,
//! gauges, and fixed-bucket histograms, plus lightweight phase span
//! timers.
//!
//! # Design
//!
//! * **Observational only.** Nothing in this module feeds back into the
//!   search: timings never enter checkpointed state, never touch an RNG,
//!   and never influence evaluation order. The determinism suite proves
//!   runs are bit-identical with telemetry on vs. off.
//! * **Sharded, merge-deterministic.** A registry holds a fixed number of
//!   shards; each recording thread hashes its [`std::thread::ThreadId`]
//!   to pick one, so worker lanes rarely contend on a lock.
//!   [`MetricsRegistry::snapshot`] merges the shards in index order, and
//!   every merge operation is commutative and associative (counters add,
//!   gauges take the maximum, same-bounds histograms add elementwise), so
//!   merge order can never change a snapshot.
//! * **Zero dependencies.** Plain `std`: `Mutex` shards, `BTreeMap`
//!   storage, `Instant` spans.
//!
//! # Naming conventions
//!
//! Dotted lowercase names, namespaced by subsystem:
//!
//! * `exec.*` — executor/pool metrics (`exec.batches`, `exec.candidates`,
//!   `exec.queue_wait_us`, `exec.lane03.busy_us`, …);
//! * `oracle.*` — amortized-oracle counters (`oracle.fba.solves`, …);
//! * `ode.*` — ODE solver work (`ode.steps`, `ode.rhs_evals`, …);
//! * `serve.*` — daemon scheduler metrics (`serve.turn_us`,
//!   `serve.loop_lag_us`, `serve.jobs_runnable`, …);
//! * `phase.<name>.us` / `phase.<name>.calls` — the counter pair behind a
//!   [`PhaseSpan`]; profile renderers fold these pairs into a phase table.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Fixed shard count. Larger than any pool the executor spawns in
/// practice, small enough that a snapshot merge is trivial.
pub const METRIC_SHARDS: usize = 16;

/// One recorded metric value.
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// Monotone event count; merges by addition.
    Counter(u64),
    /// Last-set instantaneous value; merges by maximum. Set a gauge from
    /// a single thread when you need strict last-value semantics — one
    /// writer always lands in one shard, so its latest write survives.
    Gauge(f64),
    /// Fixed-bucket histogram; same-bounds histograms merge elementwise.
    Histogram(HistogramSnapshot),
}

/// Fixed-point scale for histogram sums: values are accumulated as
/// `value × 2²⁰` in an `i128`. Integer addition is associative, so shard
/// merges are bit-exact in any order — `f64` sums would drift in the last
/// ulp depending on merge order. Resolution ~1e-6 (sub-microsecond for
/// the µs timings recorded here), range ±2¹⁰⁷ in value units.
const SUM_FIXED_ONE: i128 = 1 << 20;

/// A fixed-bucket histogram: `counts[i]` holds observations with
/// `value <= bounds[i]` (and greater than the previous bound); the final
/// extra bucket counts overflow above the last bound. Non-finite
/// observations land in the overflow bucket and are excluded from the
/// sum.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Ascending upper bucket bounds.
    pub bounds: Vec<f64>,
    /// Per-bucket observation counts; `bounds.len() + 1` entries, the
    /// last one the overflow bucket.
    pub counts: Vec<u64>,
    /// Total observations, including overflow.
    pub count: u64,
    /// Sum of all finite observed values, in [`SUM_FIXED_ONE`] fixed
    /// point (kept private so every representation stays merge-exact;
    /// read it via [`HistogramSnapshot::sum`]).
    sum_fixed: i128,
}

impl HistogramSnapshot {
    /// An empty histogram over `bounds`.
    pub fn new(bounds: &[f64]) -> Self {
        HistogramSnapshot {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum_fixed: 0,
        }
    }

    /// Records one observation.
    pub fn observe(&mut self, value: f64) {
        let bucket = if value.is_finite() {
            self.sum_fixed = self
                .sum_fixed
                .saturating_add((value * SUM_FIXED_ONE as f64) as i128);
            self.bounds
                .iter()
                .position(|bound| value <= *bound)
                .unwrap_or(self.bounds.len())
        } else {
            self.bounds.len()
        };
        self.counts[bucket] += 1;
        self.count += 1;
    }

    /// Sum of all finite observed values (fixed-point resolution ~1e-6).
    pub fn sum(&self) -> f64 {
        self.sum_fixed as f64 / SUM_FIXED_ONE as f64
    }

    /// Folds `other` into `self`. Same-bounds histograms add elementwise.
    /// A bounds mismatch is a programming error (one name, two bucket
    /// layouts); it degrades gracefully by folding the other histogram's
    /// total count into the overflow bucket and its sum into the sum.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if self.bounds == other.bounds {
            for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
                *mine += theirs;
            }
        } else if let Some(overflow) = self.counts.last_mut() {
            *overflow += other.count;
        }
        self.count += other.count;
        self.sum_fixed = self.sum_fixed.saturating_add(other.sum_fixed);
    }
}

/// An owned, mergeable view of recorded metrics, keyed by name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// All metrics, sorted by name (a `BTreeMap` keeps iteration
    /// deterministic).
    pub metrics: BTreeMap<String, Metric>,
}

impl MetricsSnapshot {
    /// Adds `delta` to the counter `name`, creating it at zero first.
    pub fn add(&mut self, name: &str, delta: u64) {
        match self
            .metrics
            .entry(name.to_string())
            .or_insert(Metric::Counter(0))
        {
            Metric::Counter(value) => *value += delta,
            _ => debug_assert!(false, "metric '{name}' is not a counter"),
        }
    }

    /// Sets the gauge `name` to `value`.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), Metric::Gauge(value));
    }

    /// Records `value` into the histogram `name` bucketed by `bounds`.
    pub fn observe(&mut self, name: &str, bounds: &[f64], value: f64) {
        match self
            .metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(HistogramSnapshot::new(bounds)))
        {
            Metric::Histogram(histogram) => histogram.observe(value),
            _ => debug_assert!(false, "metric '{name}' is not a histogram"),
        }
    }

    /// Folds every metric of `other` into `self`. Commutative and
    /// associative, so any merge order yields the same snapshot.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, metric) in &other.metrics {
            match self.metrics.get_mut(name) {
                None => {
                    self.metrics.insert(name.clone(), metric.clone());
                }
                Some(Metric::Counter(mine)) => {
                    if let Metric::Counter(theirs) = metric {
                        *mine += theirs;
                    }
                }
                Some(Metric::Gauge(mine)) => {
                    if let Metric::Gauge(theirs) = metric {
                        *mine = mine.max(*theirs);
                    }
                }
                Some(Metric::Histogram(mine)) => {
                    if let Metric::Histogram(theirs) = metric {
                        mine.merge(theirs);
                    }
                }
            }
        }
    }

    /// The counter `name`, if recorded.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.metrics.get(name) {
            Some(Metric::Counter(value)) => Some(*value),
            _ => None,
        }
    }

    /// The histogram `name`, if recorded.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.metrics.get(name) {
            Some(Metric::Histogram(histogram)) => Some(histogram),
            _ => None,
        }
    }
}

/// A cheap-to-clone handle onto a sharded metrics store. Every clone
/// records into the same shards; [`snapshot`](MetricsRegistry::snapshot)
/// merges them deterministically.
#[derive(Debug, Clone)]
pub struct MetricsRegistry {
    shards: Arc<Vec<Mutex<MetricsSnapshot>>>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new()
    }
}

impl MetricsRegistry {
    /// A fresh registry with [`METRIC_SHARDS`] empty shards.
    pub fn new() -> Self {
        MetricsRegistry {
            shards: Arc::new((0..METRIC_SHARDS).map(|_| Mutex::default()).collect()),
        }
    }

    /// The shard the calling thread records into.
    fn shard(&self) -> &Mutex<MetricsSnapshot> {
        let mut hasher = DefaultHasher::new();
        std::thread::current().id().hash(&mut hasher);
        let index = (hasher.finish() as usize) % self.shards.len();
        &self.shards[index]
    }

    /// Adds `delta` to the counter `name`.
    pub fn add(&self, name: &str, delta: u64) {
        self.shard().lock().expect("metrics shard").add(name, delta);
    }

    /// Sets the gauge `name` to `value`.
    pub fn set_gauge(&self, name: &str, value: f64) {
        self.shard()
            .lock()
            .expect("metrics shard")
            .set_gauge(name, value);
    }

    /// Records `value` into the histogram `name` bucketed by `bounds`.
    pub fn observe(&self, name: &str, bounds: &[f64], value: f64) {
        self.shard()
            .lock()
            .expect("metrics shard")
            .observe(name, bounds, value);
    }

    /// Records `elapsed` (as microseconds) into the histogram `name`.
    pub fn observe_duration(&self, name: &str, bounds: &[f64], elapsed: Duration) {
        self.observe(name, bounds, duration_us_f64(elapsed));
    }

    /// Records one completed pass of the phase `name`: bumps the counter
    /// pair `phase.<name>.us` / `phase.<name>.calls`.
    pub fn record_phase(&self, name: &str, elapsed: Duration) {
        let mut shard = self.shard().lock().expect("metrics shard");
        shard.add(&format!("phase.{name}.us"), duration_us(elapsed));
        shard.add(&format!("phase.{name}.calls"), 1);
    }

    /// Starts a phase span; the returned guard records the elapsed time
    /// into `phase.<name>.*` when dropped.
    pub fn phase(&self, name: &'static str) -> PhaseSpan<'_> {
        PhaseSpan {
            registry: self,
            name,
            started: Instant::now(),
        }
    }

    /// Merges every shard (in index order — though any order would give
    /// the same result) into one snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut merged = MetricsSnapshot::default();
        for shard in self.shards.iter() {
            merged.merge(&shard.lock().expect("metrics shard"));
        }
        merged
    }
}

/// Saturating whole microseconds of a duration.
pub fn duration_us(elapsed: Duration) -> u64 {
    u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX)
}

fn duration_us_f64(elapsed: Duration) -> f64 {
    elapsed.as_secs_f64() * 1e6
}

/// Drop guard for one timed pass through a phase; see
/// [`MetricsRegistry::phase`].
#[must_use = "a phase span records on drop; binding it to _ discards the timing"]
pub struct PhaseSpan<'a> {
    registry: &'a MetricsRegistry,
    name: &'static str,
    started: Instant,
}

impl Drop for PhaseSpan<'_> {
    fn drop(&mut self) {
        self.registry
            .record_phase(self.name, self.started.elapsed());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_add_across_threads() {
        let registry = MetricsRegistry::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let registry = registry.clone();
                scope.spawn(move || {
                    for _ in 0..100 {
                        registry.add("test.events", 1);
                    }
                });
            }
        });
        registry.add("test.events", 7);
        assert_eq!(registry.snapshot().counter("test.events"), Some(407));
    }

    #[test]
    fn gauge_single_writer_keeps_last_value() {
        let registry = MetricsRegistry::new();
        registry.set_gauge("test.depth", 9.0);
        registry.set_gauge("test.depth", 3.0);
        assert_eq!(
            registry.snapshot().metrics.get("test.depth"),
            Some(&Metric::Gauge(3.0))
        );
    }

    #[test]
    fn histogram_buckets_use_inclusive_upper_bounds() {
        let mut histogram = HistogramSnapshot::new(&[10.0, 100.0]);
        histogram.observe(10.0); // exactly on a bound: inclusive
        histogram.observe(10.5);
        histogram.observe(100.0);
        histogram.observe(1000.0); // overflow
        histogram.observe(-1.0); // below all bounds: first bucket
        assert_eq!(histogram.counts, vec![2, 2, 1]);
        assert_eq!(histogram.count, 5);
        assert!((histogram.sum() - 1119.5).abs() < 1e-4);
    }

    #[test]
    fn histogram_nonfinite_goes_to_overflow_without_poisoning_sum() {
        let mut histogram = HistogramSnapshot::new(&[1.0]);
        histogram.observe(f64::NAN);
        histogram.observe(f64::INFINITY);
        histogram.observe(0.5);
        assert_eq!(histogram.counts, vec![1, 2]);
        assert_eq!(histogram.count, 3);
        assert!((histogram.sum() - 0.5).abs() < 1e-4);
    }

    #[test]
    fn phase_span_records_us_and_calls() {
        let registry = MetricsRegistry::new();
        {
            let _span = registry.phase("variation");
        }
        {
            let _span = registry.phase("variation");
        }
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counter("phase.variation.calls"), Some(2));
        assert!(snapshot.counter("phase.variation.us").is_some());
    }

    #[test]
    fn merge_is_commutative() {
        let mut left = MetricsSnapshot::default();
        left.add("c", 3);
        left.set_gauge("g", 1.5);
        left.observe("h", &[1.0, 2.0], 0.5);

        let mut right = MetricsSnapshot::default();
        right.add("c", 4);
        right.set_gauge("g", 0.5);
        right.observe("h", &[1.0, 2.0], 5.0);
        right.add("only-right", 1);

        let mut ab = left.clone();
        ab.merge(&right);
        let mut ba = right.clone();
        ba.merge(&left);
        assert_eq!(ab, ba);
        assert_eq!(ab.counter("c"), Some(7));
        assert_eq!(ab.metrics.get("g"), Some(&Metric::Gauge(1.5)));
        assert_eq!(ab.histogram("h").map(|h| h.count), Some(2));
    }

    #[test]
    fn mismatched_bounds_fold_into_overflow() {
        let mut a = HistogramSnapshot::new(&[1.0]);
        a.observe(0.5);
        let mut b = HistogramSnapshot::new(&[2.0]);
        b.observe(0.5);
        b.observe(3.0);
        a.merge(&b);
        assert_eq!(a.count, 3);
        assert_eq!(a.counts, vec![1, 2]);
    }
}
