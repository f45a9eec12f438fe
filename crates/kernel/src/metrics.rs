//! Simple metric primitives: counters, gauges, histograms, and time series.
//!
//! Experiments read these after a run to produce the rows/series in
//! `EXPERIMENTS.md`. Everything is plain data — no atomics — because a
//! simulation run is single-threaded by construction.

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

use crate::time::SimTime;

/// A named-metric registry.
///
/// # Examples
///
/// ```
/// use malsim_kernel::metrics::Metrics;
/// use malsim_kernel::time::SimTime;
///
/// let mut m = Metrics::new();
/// m.incr("hosts_infected");
/// m.incr_by("bytes_exfiltrated", 1024);
/// m.observe("wipe_latency_ms", 250.0);
/// m.series_push("infected", SimTime::EPOCH, 1.0);
/// assert_eq!(m.counter("hosts_infected"), 1);
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Metrics {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
    series: BTreeMap<String, TimeSeries>,
}

/// Streaming summary of observed values.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Histogram {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    values: Vec<f64>,
    sorted_cache: Option<Vec<f64>>,
}

/// An ordered `(time, value)` sequence.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl Metrics {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Adds 1 to a counter, creating it at zero if absent.
    pub fn incr(&mut self, name: &str) {
        self.incr_by(name, 1);
    }

    /// Adds `n` to a counter.
    pub fn incr_by(&mut self, name: &str, n: u64) {
        *self.counters.entry(name.to_owned()).or_insert(0) += n;
    }

    /// Current counter value (zero if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets a gauge to a value.
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        self.gauges.insert(name.to_owned(), value);
    }

    /// Current gauge value, if set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Records one observation into a histogram.
    pub fn observe(&mut self, name: &str, value: f64) {
        self.histograms.entry(name.to_owned()).or_default().observe(value);
    }

    /// Histogram by name, if any observation was made.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Appends a point to a time series.
    pub fn series_push(&mut self, name: &str, time: SimTime, value: f64) {
        self.series.entry(name.to_owned()).or_default().push(time, value);
    }

    /// Time series by name.
    pub fn series(&self, name: &str) -> Option<&TimeSeries> {
        self.series.get(name)
    }

    /// Names of all counters, in sorted order.
    pub fn counter_names(&self) -> impl Iterator<Item = &str> {
        self.counters.keys().map(String::as_str)
    }

    /// Merges another registry into this one (counters add, gauges overwrite,
    /// histograms and series concatenate).
    pub fn merge(&mut self, other: &Metrics) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.gauges {
            self.gauges.insert(k.clone(), *v);
        }
        for (k, h) in &other.histograms {
            let dst = self.histograms.entry(k.clone()).or_default();
            for v in &h.values {
                dst.observe(*v);
            }
        }
        for (k, s) in &other.series {
            let dst = self.series.entry(k.clone()).or_default();
            for (t, v) in &s.points {
                dst.push(*t, *v);
            }
        }
    }
}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (k, v) in &self.counters {
            writeln!(f, "counter {k} = {v}")?;
        }
        for (k, v) in &self.gauges {
            writeln!(f, "gauge   {k} = {v:.3}")?;
        }
        for (k, h) in &self.histograms {
            // Rank on a sorted copy; the registry itself stays untouched.
            let mut ranked = h.clone();
            writeln!(
                f,
                "hist    {k}: n={} mean={:.3} min={:.3} max={:.3} p50={:.3} p99={:.3}",
                h.count(),
                h.mean(),
                h.min(),
                h.max(),
                ranked.quantile(0.5),
                ranked.quantile(0.99)
            )?;
        }
        for (k, s) in &self.series {
            writeln!(f, "series  {k}: {} points, last={:?}", s.len(), s.last())?;
        }
        Ok(())
    }
}

impl Histogram {
    /// Records one value.
    pub fn observe(&mut self, value: f64) {
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum += value;
        self.values.push(value);
        self.sorted_cache = None;
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest observation (0.0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest observation (0.0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Nearest-rank quantile, `q` in `[0, 1]` (0.0 when empty).
    ///
    /// The sorted order is computed on first call and cached until the next
    /// [`Histogram::observe`], so p50/p95/p99 sequences sort once.
    pub fn quantile(&mut self, q: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        let sorted = self.sorted_cache.get_or_insert_with(|| {
            let mut sorted = self.values.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN observation"));
            sorted
        });
        Self::rank_of(sorted, q)
    }

    fn rank_of(sorted: &[f64], q: f64) -> f64 {
        let rank = (q * (sorted.len() as f64 - 1.0)).round() as usize;
        sorted[rank.min(sorted.len() - 1)]
    }
}

impl TimeSeries {
    /// Appends a point. Points are expected in nondecreasing time order and
    /// this is enforced.
    ///
    /// # Panics
    ///
    /// Panics if `time` precedes the last appended point.
    pub fn push(&mut self, time: SimTime, value: f64) {
        if let Some(&(last, _)) = self.points.last() {
            assert!(time >= last, "time series points must be appended in order");
        }
        self.points.push((time, value));
    }

    /// All points in order.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when no point was recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The most recent point.
    pub fn last(&self) -> Option<(SimTime, f64)> {
        self.points.last().copied()
    }

    /// Value at or before `time` (step interpolation).
    pub fn value_at(&self, time: SimTime) -> Option<f64> {
        self.points.iter().rev().find(|(t, _)| *t <= time).map(|(_, v)| *v)
    }

    /// First time the value reached at least `threshold`.
    pub fn first_reaching(&self, threshold: f64) -> Option<SimTime> {
        self.points.iter().find(|(_, v)| *v >= threshold).map(|(t, _)| *t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn counters_and_gauges() {
        let mut m = Metrics::new();
        assert_eq!(m.counter("x"), 0);
        m.incr("x");
        m.incr_by("x", 4);
        assert_eq!(m.counter("x"), 5);
        m.set_gauge("g", 1.5);
        assert_eq!(m.gauge("g"), Some(1.5));
        assert_eq!(m.gauge("absent"), None);
    }

    #[test]
    fn histogram_statistics() {
        let mut h = Histogram::default();
        for v in [5.0, 1.0, 3.0, 2.0, 4.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert!((h.mean() - 3.0).abs() < 1e-12);
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 5.0);
        assert_eq!(h.quantile(0.0), 1.0);
        assert_eq!(h.quantile(0.5), 3.0);
        assert_eq!(h.quantile(1.0), 5.0);
    }

    #[test]
    fn empty_histogram_is_zeroed() {
        let mut h = Histogram::default();
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.quantile(0.99), 0.0);
        assert_eq!(Histogram::default().quantile(0.5), 0.0);
    }

    #[test]
    fn quantile_agrees_with_percentile() {
        let values = [9.0, 7.0, 5.0, 3.0, 1.0, 2.0, 4.0, 6.0, 8.0, 10.0];
        let mut h = Histogram::default();
        for v in values {
            h.observe(v);
        }
        // The nearest-rank percentile, computed naively on a sorted copy.
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let percentile = |p: f64| sorted[(p / 100.0 * (sorted.len() - 1) as f64).round() as usize];
        for p in [0.0, 25.0, 50.0, 95.0, 99.0, 100.0] {
            assert_eq!(h.quantile(p / 100.0), percentile(p), "p={p}");
        }
        assert_eq!(h.quantile(0.5), 6.0, "nearest rank rounds 4.5 up");
        assert_eq!(h.quantile(1.0), 10.0);
    }

    #[test]
    fn quantile_cache_invalidates_on_observe() {
        let mut h = Histogram::default();
        h.observe(1.0);
        h.observe(3.0);
        assert_eq!(h.quantile(1.0), 3.0);
        h.observe(2.0);
        assert_eq!(h.quantile(0.5), 2.0, "new observation re-sorts");
        assert_eq!(h.quantile(1.0), 3.0);
    }

    #[test]
    fn time_series_queries() {
        let mut s = TimeSeries::default();
        let t0 = SimTime::EPOCH;
        s.push(t0, 0.0);
        s.push(t0 + SimDuration::from_secs(10), 5.0);
        s.push(t0 + SimDuration::from_secs(20), 12.0);
        assert_eq!(s.value_at(t0 + SimDuration::from_secs(15)), Some(5.0));
        assert_eq!(s.first_reaching(10.0), Some(t0 + SimDuration::from_secs(20)));
        assert_eq!(s.first_reaching(100.0), None);
        assert_eq!(s.last(), Some((t0 + SimDuration::from_secs(20), 12.0)));
    }

    #[test]
    #[should_panic(expected = "appended in order")]
    fn out_of_order_series_panics() {
        let mut s = TimeSeries::default();
        s.push(SimTime::from_millis(10), 1.0);
        s.push(SimTime::from_millis(5), 2.0);
    }

    #[test]
    fn merge_combines() {
        let mut a = Metrics::new();
        a.incr_by("c", 2);
        a.observe("h", 1.0);
        let mut b = Metrics::new();
        b.incr_by("c", 3);
        b.observe("h", 3.0);
        b.set_gauge("g", 9.0);
        a.merge(&b);
        assert_eq!(a.counter("c"), 5);
        assert_eq!(a.histogram("h").unwrap().count(), 2);
        assert_eq!(a.gauge("g"), Some(9.0));
    }

    #[test]
    fn display_lists_metrics() {
        let mut m = Metrics::new();
        m.incr("infections");
        m.observe("lat", 2.0);
        let s = m.to_string();
        assert!(s.contains("counter infections = 1"));
        assert!(s.contains("hist    lat"));
    }
}
