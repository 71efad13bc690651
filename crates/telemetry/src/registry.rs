//! The metrics registry: named counters, gauges, and histograms.
//!
//! Handles are `Arc`s resolved once (at session/scheduler construction) and
//! then updated with relaxed atomics — the registry lock is only taken on
//! registration and snapshot, never on the recording path.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::hist::{Histogram, HistogramSnapshot};

/// A monotonically increasing event/byte counter.
#[derive(Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1 to the counter.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-value / high-water gauge.
#[derive(Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Sets the gauge to `v`.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adjusts the gauge by `delta`.
    #[inline]
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Raises the gauge to `v` if `v` is larger (high-water tracking).
    #[inline]
    pub fn set_max(&self, v: i64) {
        self.value.fetch_max(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

impl Metric {
    fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// A point-in-time copy of one metric's value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(i64),
    /// Full histogram snapshot (counts + summary).
    Histogram(HistogramSnapshot),
}

/// A point-in-time copy of every registered metric, keyed by name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RegistrySnapshot {
    /// Metric name → value, in sorted name order.
    pub entries: BTreeMap<String, MetricValue>,
}

impl RegistrySnapshot {
    /// Looks up a histogram snapshot by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        match self.entries.get(name) {
            Some(MetricValue::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Looks up a counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.entries.get(name) {
            Some(MetricValue::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    /// Looks up a gauge value by name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        match self.entries.get(name) {
            Some(MetricValue::Gauge(v)) => Some(*v),
            _ => None,
        }
    }
}

/// A named-metric registry. Sessions, the scheduler and the snapshot layer
/// register into one of these (usually [`global()`]); exporters walk it.
#[derive(Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// Creates an empty registry (tests use private ones; production code
    /// shares [`global()`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the counter registered under `name`, creating it on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut metrics = self.metrics.lock().unwrap();
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::default())))
        {
            Metric::Counter(c) => Arc::clone(c),
            other => panic!("metric `{name}` is a {}, not a counter", other.kind()),
        }
    }

    /// Returns the gauge registered under `name`, creating it on first use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut metrics = self.metrics.lock().unwrap();
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::default())))
        {
            Metric::Gauge(g) => Arc::clone(g),
            other => panic!("metric `{name}` is a {}, not a gauge", other.kind()),
        }
    }

    /// Returns the histogram registered under `name`, creating it on first
    /// use.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut metrics = self.metrics.lock().unwrap();
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new())))
        {
            Metric::Histogram(h) => Arc::clone(h),
            other => panic!("metric `{name}` is a {}, not a histogram", other.kind()),
        }
    }

    /// Copies every metric's current value.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let metrics = self.metrics.lock().unwrap();
        let entries = metrics
            .iter()
            .map(|(name, metric)| {
                let value = match metric {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                };
                (name.clone(), value)
            })
            .collect();
        RegistrySnapshot { entries }
    }
}

/// The process-wide default registry.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_get_or_create_returns_same_instance() {
        let r = Registry::new();
        let a = r.counter("frames");
        let b = r.counter("frames");
        a.add(3);
        b.incr();
        assert_eq!(a.get(), 4);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn gauge_set_max_tracks_high_water() {
        let g = Gauge::default();
        g.set_max(10);
        g.set_max(3);
        g.set_max(25);
        assert_eq!(g.get(), 25);
    }

    #[test]
    #[should_panic(expected = "not a gauge")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        let _ = r.counter("x");
        let _ = r.gauge("x");
    }

    #[test]
    fn snapshot_captures_all_kinds_sorted() {
        let r = Registry::new();
        r.counter("b.count").add(7);
        r.gauge("a.gauge").set(-2);
        r.histogram("c.hist").record(1_000);
        let snap = r.snapshot();
        let names: Vec<&str> = snap.entries.keys().map(String::as_str).collect();
        assert_eq!(names, ["a.gauge", "b.count", "c.hist"]);
        assert_eq!(snap.counter("b.count"), Some(7));
        assert_eq!(snap.gauge("a.gauge"), Some(-2));
        assert_eq!(snap.histogram("c.hist").unwrap().count(), 1);
        assert_eq!(snap.counter("missing"), None);
    }
}
