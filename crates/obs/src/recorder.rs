//! The telemetry recorder: counters, gauges, fixed-bucket histograms,
//! and a ring-buffered event log.
//!
//! One [`Recorder`] lives inside every engine's step core and is fed
//! from the unified pipeline — per-stage wall-clock durations into
//! histograms, kernel-launch statistics into counters — so CPU and GPU
//! runs report through a single path with a single key vocabulary.
//! Backends with nothing to report for a key pre-register it at zero, so
//! the telemetry *shape* never depends on the engine.
//!
//! Keys are `&'static str` by design: recording sits inside the hot step
//! loop and must not allocate. Storage is `BTreeMap`, so every iteration
//! order (and hence every serialization) is deterministic.

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;

/// Default capacity of the event ring.
pub const DEFAULT_EVENT_CAPACITY: usize = 256;

/// Fixed histogram bucket bounds in nanoseconds: powers of four from
/// 1 µs-ish up to ~17 s, plus the implicit overflow bucket. Fixed bounds
/// (rather than adaptive ones) keep merged and serialized histograms
/// comparable across runs and engines.
pub const NS_BUCKET_BOUNDS: [u64; 12] = [
    1 << 10,
    1 << 12,
    1 << 14,
    1 << 16,
    1 << 18,
    1 << 20,
    1 << 22,
    1 << 24,
    1 << 26,
    1 << 28,
    1 << 30,
    1 << 32,
];

/// A fixed-bucket histogram of `u64` samples (nanoseconds by
/// convention), with count/sum/min/max running aggregates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Per-bucket counts; bucket `i` holds samples `<= NS_BUCKET_BOUNDS[i]`,
    /// the final slot holds the overflow.
    buckets: [u64; NS_BUCKET_BOUNDS.len() + 1],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: [0; NS_BUCKET_BOUNDS.len() + 1],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    /// Record one sample.
    pub fn record(&mut self, sample: u64) {
        let slot = NS_BUCKET_BOUNDS
            .iter()
            .position(|&b| sample <= b)
            .unwrap_or(NS_BUCKET_BOUNDS.len());
        self.buckets[slot] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(sample);
        self.min = self.min.min(sample);
        self.max = self.max.max(sample);
    }

    /// Samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean sample (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Per-bucket counts (bounds from [`NS_BUCKET_BOUNDS`], plus the
    /// trailing overflow bucket).
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }
}

/// One entry of the ring-buffered event log: something notable that
/// happened at a step (a spawn burst, a stop-condition trip, a stage
/// spike), kept for post-run inspection without unbounded memory.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Step index the event was recorded at.
    pub step: u64,
    /// Event kind (static vocabulary, e.g. `"lifecycle.spawn"`).
    pub kind: &'static str,
    /// Event payload value.
    pub value: f64,
}

/// The telemetry recorder. See the module docs for the determinism
/// convention: counters and gauges are simulation quantities
/// (bit-reproducible), histograms are wall-clock (noisy).
#[derive(Debug, Clone, Default)]
pub struct Recorder {
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, f64>,
    histograms: BTreeMap<&'static str, Histogram>,
    events: VecDeque<Event>,
    event_capacity: usize,
}

impl Recorder {
    /// A fresh recorder with the default event-ring capacity.
    pub fn new() -> Self {
        Self {
            event_capacity: DEFAULT_EVENT_CAPACITY,
            ..Self::default()
        }
    }

    /// Add `by` to counter `key` (creating it at zero).
    pub fn inc(&mut self, key: &'static str, by: u64) {
        *self.counters.entry(key).or_insert(0) += by;
    }

    /// Ensure counter `key` exists (at zero if new) without changing it —
    /// how a backend declares "this statistic is applicable here but I
    /// have nothing to report", so CPU and GPU telemetry share a shape.
    pub fn ensure_counter(&mut self, key: &'static str) {
        self.counters.entry(key).or_insert(0);
    }

    /// Counter value (0 when never touched).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// Whether counter `key` has been registered at all.
    pub fn has_counter(&self, key: &str) -> bool {
        self.counters.contains_key(key)
    }

    /// Set gauge `key` to `value` (last write wins).
    pub fn set_gauge(&mut self, key: &'static str, value: f64) {
        self.gauges.insert(key, value);
    }

    /// Gauge value, when set.
    pub fn gauge(&self, key: &str) -> Option<f64> {
        self.gauges.get(key).copied()
    }

    /// Record `nanos` into histogram `key` (creating it).
    pub fn observe_ns(&mut self, key: &'static str, nanos: u64) {
        self.histograms.entry(key).or_default().record(nanos);
    }

    /// Ensure histogram `key` exists (empty if new) without recording a
    /// sample — the histogram analogue of [`Recorder::ensure_counter`],
    /// for a stage a backend does not run.
    pub fn ensure_histogram(&mut self, key: &'static str) {
        self.histograms.entry(key).or_default();
    }

    /// Histogram under `key`, when registered or sampled.
    pub fn histogram(&self, key: &str) -> Option<&Histogram> {
        self.histograms.get(key)
    }

    /// Append an event, evicting the oldest once the ring is full.
    pub fn event(&mut self, step: u64, kind: &'static str, value: f64) {
        if self.events.len() == self.event_capacity.max(1) {
            self.events.pop_front();
        }
        self.events.push_back(Event { step, kind, value });
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &Event> {
        self.events.iter()
    }

    /// Counters in key order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(&k, &v)| (k, v))
    }

    /// Gauges in key order.
    pub fn gauges(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.gauges.iter().map(|(&k, &v)| (k, v))
    }

    /// The **deterministic** half of the telemetry as a JSON object
    /// (counters then gauges, keys sorted by the underlying maps):
    /// byte-identical for equal configurations.
    pub fn deterministic_json(&self) -> String {
        let mut s = String::from("{\"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "\"{k}\": {v}");
        }
        s.push_str("}, \"gauges\": {");
        for (i, (k, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "\"{k}\": {}", crate::journal::json_f64(*v));
        }
        s.push_str("}}");
        s
    }

    /// The wall-clock half of the telemetry as a JSON object: one entry
    /// per histogram with count/mean/max in milliseconds. Noisy by
    /// nature; belongs inside a journal record's `"wall"` tail.
    pub fn wall_json(&self) -> String {
        let mut s = String::from("{");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{k}\": {{\"count\": {}, \"mean_ms\": {}, \"max_ms\": {}}}",
                h.count(),
                crate::journal::json_f64(h.mean() / 1e6),
                crate::journal::json_f64(h.max() as f64 / 1e6),
            );
        }
        s.push('}');
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_preregister() {
        let mut r = Recorder::new();
        assert_eq!(r.counter("k.launches"), 0);
        assert!(!r.has_counter("k.launches"));
        r.ensure_counter("k.launches");
        assert!(r.has_counter("k.launches"));
        assert_eq!(r.counter("k.launches"), 0);
        r.inc("k.launches", 3);
        r.inc("k.launches", 2);
        assert_eq!(r.counter("k.launches"), 5);
    }

    #[test]
    fn histogram_buckets_and_aggregates() {
        let mut h = Histogram::default();
        assert_eq!(h.min(), 0);
        assert_eq!(h.mean(), 0.0);
        h.record(100); // first bucket (<= 1024)
        h.record(2_000); // second bucket
        h.record(u64::MAX); // overflow bucket
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), 100);
        assert_eq!(h.max(), u64::MAX);
        assert_eq!(h.buckets()[0], 1);
        assert_eq!(h.buckets()[1], 1);
        assert_eq!(h.buckets()[NS_BUCKET_BOUNDS.len()], 1);
    }

    #[test]
    fn event_ring_is_bounded() {
        let mut r = Recorder::new();
        for step in 0..(DEFAULT_EVENT_CAPACITY as u64 + 10) {
            r.event(step, "e", 1.0);
        }
        let events: Vec<_> = r.events().collect();
        assert_eq!(events.len(), DEFAULT_EVENT_CAPACITY);
        assert_eq!(events[0].step, 10, "oldest entries evicted first");
    }

    #[test]
    fn deterministic_json_is_sorted_and_stable() {
        let mut a = Recorder::new();
        a.inc("z.last", 1);
        a.inc("a.first", 2);
        a.set_gauge("flux", 0.5);
        let mut b = Recorder::new();
        b.set_gauge("flux", 0.5);
        b.inc("a.first", 2);
        b.inc("z.last", 1);
        assert_eq!(a.deterministic_json(), b.deterministic_json());
        let j = a.deterministic_json();
        assert!(j.find("a.first").unwrap() < j.find("z.last").unwrap());
        assert!(j.contains("\"flux\": 0.5"));
    }

    #[test]
    fn wall_json_reports_histograms() {
        let mut r = Recorder::new();
        r.observe_ns("stage.tour_ns", 2_000_000);
        r.observe_ns("stage.tour_ns", 4_000_000);
        r.ensure_histogram("stage.init_ns");
        r.ensure_histogram("stage.tour_ns");
        assert_eq!(r.histogram("stage.tour_ns").unwrap().count(), 2);
        let j = r.wall_json();
        assert!(j.contains("\"stage.tour_ns\""));
        assert!(j.contains("\"count\": 2"));
        assert!(j.contains("\"mean_ms\": 3"));
        assert!(j.contains("\"stage.init_ns\": {\"count\": 0"));
    }
}
