//! Metrics: named counters, gauges and fixed-bucket histograms.
//!
//! Names follow the `<crate>.<noun>[_<unit>]` convention (DESIGN.md §9):
//! `capture.retries`, `pipeline.stage_ns`, `soc.ticks`,
//! `analysis.distance_reuse_hits`. Each [`crate::Collector`] keeps its own
//! registry, an ordered map behind the collector's mutex; an update lands
//! in the registry of the collector entered on the calling thread.
//! Metric updates happen at stage granularity (per run, per unit, per
//! sweep cell), never per simulated tick, so contention is not a concern;
//! with no collector entered every update is one thread-local read.

use std::collections::BTreeMap;

/// Default histogram bucket upper bounds for durations in nanoseconds:
/// 10 µs … 60 s, roughly logarithmic.
pub const DURATION_NS_BOUNDS: [f64; 10] = [
    1.0e4, 1.0e5, 1.0e6, 1.0e7, 1.0e8, 5.0e8, 1.0e9, 5.0e9, 1.0e10, 6.0e10,
];

/// A fixed-bucket histogram: `bounds[i]` is the inclusive upper bound of
/// bucket `i`; one extra overflow bucket catches everything above the last
/// bound.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Histogram {
    /// An empty histogram with the given bucket upper bounds (must be
    /// ascending; enforced by debug assertion).
    pub fn new(bounds: &[f64]) -> Self {
        debug_assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly ascending"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one observation. A value exactly on a bound lands in that
    /// bound's bucket (bounds are inclusive upper edges); values above the
    /// last bound land in the overflow bucket; NaN is ignored.
    pub fn observe(&mut self, value: f64) {
        if value.is_nan() {
            return;
        }
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Bucket upper bounds.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts; the last entry is the overflow bucket.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest observation (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Fold another histogram with the same bucket bounds into this one,
    /// as if every observation of `other` had been observed here. Used by
    /// the rolling windows to aggregate their live slots before asking
    /// for a quantile. Mismatched bounds are a programming error (debug
    /// assertion) and are ignored in release builds.
    pub fn merge(&mut self, other: &Histogram) {
        debug_assert_eq!(
            self.bounds, other.bounds,
            "histogram merge requires identical bounds"
        );
        if self.bounds != other.bounds || other.count == 0 {
            return;
        }
        for (mine, theirs) in self.counts.iter_mut().zip(&other.counts) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Estimate the `q`-quantile (`q` in `[0, 1]`) from the bucket counts
    /// by linear interpolation within the bucket that crosses the target
    /// rank — the usual fixed-bucket estimator, so the answer is exact
    /// only at bucket edges. Returns `None` when the histogram is empty or
    /// `q` is not in `[0, 1]`. The estimate is clamped to the observed
    /// `[min, max]`, and overflow-bucket ranks report the true maximum
    /// (the overflow bucket has no finite upper edge to interpolate
    /// against).
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let rank = q * self.count as f64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                seen += c;
                continue;
            }
            let upto = seen + c;
            if (upto as f64) >= rank {
                if i == self.bounds.len() {
                    return Some(self.max);
                }
                let lo = if i == 0 { self.min } else { self.bounds[i - 1] };
                let hi = self.bounds[i];
                let within = (rank - seen as f64) / c as f64;
                let est = lo + (hi - lo) * within.clamp(0.0, 1.0);
                return Some(est.clamp(self.min, self.max));
            }
            seen = upto;
        }
        Some(self.max)
    }
}

/// One registered metric.
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// Monotonically increasing count.
    Counter(u64),
    /// Last-write-wins value.
    Gauge(f64),
    /// Fixed-bucket distribution.
    Histogram(Histogram),
}

/// A sliding-window histogram: a ring of [`Histogram`] slots, each
/// covering one fixed time slice. Observations land in the slot for "now";
/// reading merges every slot still inside the window, so quantiles and
/// counts reflect only the last `slots × slot` of traffic instead of the
/// whole process lifetime.
///
/// Time is passed in explicitly as milliseconds since an epoch the caller
/// owns (usually a process-start `Instant`) — that keeps the
/// advance/reset logic deterministic and directly testable. A slot whose
/// stored tick no longer matches the current ring position is stale data
/// from a previous lap and is reset lazily on the next write or skipped on
/// read; nothing advances in the background.
#[derive(Debug, Clone)]
pub struct RollingHistogram {
    bounds: Vec<f64>,
    slot_ms: u64,
    /// `(tick, histogram)` per ring position; tick 0 with an empty
    /// histogram means "never written".
    slots: Vec<(u64, Histogram)>,
}

impl RollingHistogram {
    /// A window of `slots` slices, each `slot_ms` long, over histograms
    /// with the given bucket bounds. `slot_ms` and `slots` are clamped to
    /// at least 1.
    pub fn new(bounds: &[f64], slot_ms: u64, slots: usize) -> Self {
        RollingHistogram {
            bounds: bounds.to_vec(),
            slot_ms: slot_ms.max(1),
            slots: vec![(0, Histogram::new(bounds)); slots.max(1)],
        }
    }

    fn tick(&self, now_ms: u64) -> u64 {
        now_ms / self.slot_ms
    }

    /// The whole window in milliseconds.
    pub fn window_ms(&self) -> u64 {
        self.slot_ms * self.slots.len() as u64
    }

    /// Record one observation at `now_ms` milliseconds since the caller's
    /// epoch. Lazily resets the target slot when the ring has lapped past
    /// its previous occupant.
    pub fn observe_at(&mut self, now_ms: u64, value: f64) {
        let tick = self.tick(now_ms);
        let idx = (tick % self.slots.len() as u64) as usize;
        if self.slots[idx].0 != tick {
            self.slots[idx] = (tick, Histogram::new(&self.bounds));
        }
        self.slots[idx].1.observe(value);
    }

    /// Merge every slot still inside the window ending at `now_ms` into
    /// one histogram (empty when the window saw no traffic).
    pub fn merged_at(&self, now_ms: u64) -> Histogram {
        let tick = self.tick(now_ms);
        let n = self.slots.len() as u64;
        let mut out = Histogram::new(&self.bounds);
        for (slot_tick, hist) in &self.slots {
            // Live slots are within the last `n` ticks; tick 0 slots with
            // no observations are the never-written initial state.
            if tick.saturating_sub(*slot_tick) < n && (*slot_tick > 0 || hist.count() > 0) {
                out.merge(hist);
            }
        }
        out
    }
}

/// A sliding-window counter: the counting companion of
/// [`RollingHistogram`] with the same explicit-time ring-of-slots
/// semantics, used for windowed rates (requests, errors, sheds per
/// second).
#[derive(Debug, Clone)]
pub struct RollingCounter {
    slot_ms: u64,
    slots: Vec<(u64, u64)>,
}

impl RollingCounter {
    /// A window of `slots` slices, each `slot_ms` long (both clamped to
    /// at least 1).
    pub fn new(slot_ms: u64, slots: usize) -> Self {
        RollingCounter {
            slot_ms: slot_ms.max(1),
            slots: vec![(0, 0); slots.max(1)],
        }
    }

    /// The whole window in milliseconds.
    pub fn window_ms(&self) -> u64 {
        self.slot_ms * self.slots.len() as u64
    }

    /// Add `delta` to the slot covering `now_ms`.
    pub fn add_at(&mut self, now_ms: u64, delta: u64) {
        let tick = now_ms / self.slot_ms;
        let idx = (tick % self.slots.len() as u64) as usize;
        if self.slots[idx].0 != tick {
            self.slots[idx] = (tick, 0);
        }
        self.slots[idx].1 += delta;
    }

    /// Sum over every slot still inside the window ending at `now_ms`.
    pub fn total_at(&self, now_ms: u64) -> u64 {
        let tick = now_ms / self.slot_ms;
        let n = self.slots.len() as u64;
        self.slots
            .iter()
            .filter(|(slot_tick, count)| {
                tick.saturating_sub(*slot_tick) < n && (*slot_tick > 0 || *count > 0)
            })
            .map(|&(_, count)| count)
            .sum()
    }

    /// Windowed rate in events per second at `now_ms`. The denominator is
    /// the full window (or the elapsed time, when the process is younger
    /// than one window) so a burst right after boot does not read as an
    /// absurd rate.
    pub fn rate_at(&self, now_ms: u64) -> f64 {
        let span_ms = self.window_ms().min(now_ms.max(1));
        self.total_at(now_ms) as f64 * 1000.0 / span_ms as f64
    }
}

/// Run `f` on the registry of the collector entered on this thread; a
/// no-op when none is.
fn with_registry(f: impl FnOnce(&mut BTreeMap<String, Metric>)) {
    crate::with_scope(|scope| f(&mut scope.collector.store().metrics));
}

/// Add `delta` to the counter `name` (created at 0 on first use). A no-op
/// when no collector is entered, or when `name` is already registered as a
/// different metric kind.
pub fn counter_add(name: &str, delta: u64) {
    with_registry(|map| {
        if let Metric::Counter(v) = map.entry(name.to_owned()).or_insert(Metric::Counter(0)) {
            *v += delta;
        }
    });
}

/// Set the gauge `name` to `value`. No-collector/kind-mismatch semantics
/// as [`counter_add`].
pub fn gauge_set(name: &str, value: f64) {
    with_registry(|map| {
        if let Metric::Gauge(v) = map.entry(name.to_owned()).or_insert(Metric::Gauge(value)) {
            *v = value;
        }
    });
}

/// Record `value` into the histogram `name`, creating it with `bounds` on
/// first use (later calls keep the original bounds). No-collector /
/// kind-mismatch semantics as [`counter_add`].
pub fn observe(name: &str, bounds: &[f64], value: f64) {
    with_registry(|map| {
        if let Metric::Histogram(h) = map
            .entry(name.to_owned())
            .or_insert_with(|| Metric::Histogram(Histogram::new(bounds)))
        {
            h.observe(value);
        }
    });
}

/// Record a duration in nanoseconds into histogram `name` with the
/// standard [`DURATION_NS_BOUNDS`] buckets.
pub fn observe_duration_ns(name: &str, ns: u64) {
    observe(name, &DURATION_NS_BOUNDS, ns as f64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Collector;

    /// Run `f` under a fresh collector and return its registry.
    fn with_metrics(f: impl FnOnce()) -> Vec<(String, Metric)> {
        let collector = Collector::default();
        let entered = collector.enter();
        f();
        drop(entered);
        collector.metrics()
    }

    #[test]
    fn counters_and_gauges_register() {
        let metrics = with_metrics(|| {
            counter_add("t.count", 2);
            counter_add("t.count", 3);
            gauge_set("t.gauge", 1.5);
            gauge_set("t.gauge", 2.5);
        });
        let expected = [
            ("t.count", Metric::Counter(5)),
            ("t.gauge", Metric::Gauge(2.5)),
        ];
        assert_eq!(metrics, expected.map(|(n, m)| (n.to_owned(), m)));
    }

    #[test]
    fn kind_mismatch_is_ignored() {
        let metrics = with_metrics(|| {
            counter_add("t.kind", 1);
            gauge_set("t.kind", 9.0);
            observe("t.kind", &[1.0], 0.5);
        });
        assert_eq!(metrics, [("t.kind".to_owned(), Metric::Counter(1))]);
    }

    #[test]
    fn histogram_bucket_edges() {
        let mut h = Histogram::new(&[1.0, 10.0, 100.0]);
        // Exactly on a bound → that bound's bucket (inclusive upper edge).
        h.observe(1.0);
        h.observe(10.0);
        h.observe(100.0);
        // Strictly inside a bucket.
        h.observe(5.0);
        // Below the first bound.
        h.observe(0.0);
        h.observe(-3.0);
        // Above the last bound → overflow.
        h.observe(100.1);
        h.observe(f64::INFINITY);
        // NaN → dropped entirely.
        h.observe(f64::NAN);
        assert_eq!(h.counts(), &[3, 2, 1, 2]);
        assert_eq!(h.count(), 8);
        assert_eq!(h.min(), -3.0);
        assert_eq!(h.max(), f64::INFINITY);
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let mut h = Histogram::new(&[10.0, 100.0, 1000.0]);
        for v in [5.0, 20.0, 40.0, 60.0, 80.0, 150.0, 300.0, 900.0] {
            h.observe(v);
        }
        assert_eq!(h.quantile(0.0), Some(5.0), "q=0 clamps to the minimum");
        assert_eq!(h.quantile(1.0), Some(900.0), "q=1 is the maximum");
        let p50 = h.quantile(0.5).expect("non-empty");
        assert!((10.0..=100.0).contains(&p50), "median in its bucket: {p50}");
        let p95 = h.quantile(0.95).expect("non-empty");
        assert!((100.0..=1000.0).contains(&p95), "p95 in its bucket: {p95}");
        assert!(h.quantile(-0.1).is_none());
        assert!(h.quantile(1.1).is_none());
        assert!(Histogram::new(&[1.0]).quantile(0.5).is_none(), "empty");
    }

    #[test]
    fn quantile_overflow_bucket_reports_observed_max() {
        let mut h = Histogram::new(&[1.0]);
        h.observe(5.0);
        h.observe(9.0);
        assert_eq!(h.quantile(0.99), Some(9.0));
    }

    #[test]
    fn empty_histogram_stats() {
        let h = Histogram::new(&DURATION_NS_BOUNDS);
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.counts().len(), DURATION_NS_BOUNDS.len() + 1);
    }

    #[test]
    fn updates_outside_a_collector_are_no_ops() {
        let idle = Collector::default();
        counter_add("t.off", 1);
        gauge_set("t.off2", 1.0);
        observe_duration_ns("t.off3", 5);
        assert!(idle.metrics().is_empty());
    }

    #[test]
    fn quantile_single_bucket_interpolates_between_observed_extremes() {
        // One finite bucket holding everything: quantiles interpolate
        // between the observed min and the bucket's upper bound, clamped
        // to the observed max.
        let mut h = Histogram::new(&[100.0]);
        h.observe(10.0);
        h.observe(20.0);
        h.observe(30.0);
        assert_eq!(h.quantile(0.0), Some(10.0));
        assert_eq!(h.quantile(1.0), Some(30.0));
        let p50 = h.quantile(0.5).expect("non-empty");
        assert!(
            (10.0..=30.0).contains(&p50),
            "median clamped to observed range: {p50}"
        );
    }

    #[test]
    fn quantile_overflow_bucket_only_reports_observed_max_at_every_q() {
        // Every observation above the last bound: there is no finite edge
        // to interpolate against, so every quantile is the true max.
        let mut h = Histogram::new(&[1.0, 2.0]);
        for v in [50.0, 60.0, 70.0] {
            h.observe(v);
        }
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(70.0), "q={q}");
        }
    }

    #[test]
    fn quantile_all_values_equal_is_exact_at_every_q() {
        let mut h = Histogram::new(&DURATION_NS_BOUNDS);
        for _ in 0..100 {
            h.observe(5.0e6);
        }
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(5.0e6), "q={q}");
        }
    }

    #[test]
    fn merge_folds_counts_sums_and_extremes() {
        let mut a = Histogram::new(&[10.0, 100.0]);
        a.observe(5.0);
        a.observe(50.0);
        let mut b = Histogram::new(&[10.0, 100.0]);
        b.observe(500.0);
        b.observe(1.0);
        a.merge(&b);
        assert_eq!(a.count(), 4);
        assert_eq!(a.counts(), &[2, 1, 1]);
        assert_eq!(a.sum(), 556.0);
        assert_eq!(a.min(), 1.0);
        assert_eq!(a.max(), 500.0);
        // Merging an empty histogram changes nothing.
        a.merge(&Histogram::new(&[10.0, 100.0]));
        assert_eq!(a.count(), 4);
        assert_eq!(a.min(), 1.0);
    }

    #[test]
    fn rolling_histogram_forgets_slots_outside_the_window() {
        // 3 slots × 100 ms = a 300 ms window.
        let mut r = RollingHistogram::new(&[100.0, 1000.0], 100, 3);
        r.observe_at(0, 10.0);
        r.observe_at(150, 20.0);
        r.observe_at(250, 30.0);
        // All three slots live at t=250.
        let m = r.merged_at(250);
        assert_eq!(m.count(), 3);
        assert_eq!(m.min(), 10.0);
        // At t=320 the tick-0 slot has aged out.
        let m = r.merged_at(320);
        assert_eq!(m.count(), 2);
        assert_eq!(m.min(), 20.0);
        // Far in the future everything is forgotten.
        assert_eq!(r.merged_at(10_000).count(), 0);
    }

    #[test]
    fn rolling_histogram_lapped_slot_resets_instead_of_accumulating() {
        let mut r = RollingHistogram::new(&[100.0], 100, 2);
        r.observe_at(0, 1.0);
        // 200 ms later the ring laps back onto the same index; the write
        // must reset the stale slot, not add to it.
        r.observe_at(200, 2.0);
        let m = r.merged_at(200);
        assert_eq!(m.count(), 1);
        assert_eq!(m.min(), 2.0);
        // Reading without writing also skips the lapped slot.
        r.observe_at(350, 3.0);
        assert_eq!(r.merged_at(450).count(), 1, "only the 350 ms slot lives");
    }

    #[test]
    fn rolling_counter_totals_and_rates_follow_the_window() {
        // 4 slots × 250 ms = a 1 s window.
        let mut c = RollingCounter::new(250, 4);
        assert_eq!(c.window_ms(), 1000);
        c.add_at(0, 5);
        c.add_at(300, 5);
        c.add_at(900, 10);
        assert_eq!(c.total_at(900), 20);
        // Only 900 ms have elapsed, so the denominator is 0.9 s.
        let expect = 20.0 * 1000.0 / 900.0;
        assert!((c.rate_at(900) - expect).abs() < 1e-9, "{}", c.rate_at(900));
        // The tick-0 slot ages out past 1 s.
        assert_eq!(c.total_at(1100), 15);
        // A lapped slot resets on write.
        c.add_at(1000, 1);
        assert_eq!(c.total_at(1050), 16);
        // Empty far future.
        assert_eq!(c.total_at(60_000), 0);
        assert_eq!(c.rate_at(60_000), 0.0);
    }

    #[test]
    fn rolling_counter_early_rates_use_elapsed_not_window() {
        // 10 s window, but only 500 ms of process life: 10 events in
        // 500 ms is 20/s, not 1/s.
        let mut c = RollingCounter::new(1000, 10);
        c.add_at(400, 10);
        let rate = c.rate_at(500);
        assert!((rate - 20.0).abs() < 1e-9, "{rate}");
    }

    #[test]
    fn snapshot_is_sorted_by_name() {
        let metrics = with_metrics(|| {
            counter_add("z.last", 1);
            counter_add("a.first", 1);
            counter_add("m.mid", 1);
        });
        let names: Vec<String> = metrics.into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a.first", "m.mid", "z.last"]);
    }
}
