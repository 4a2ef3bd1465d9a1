//! Statistics collection: counters, gauges and time series.
//!
//! Keys are `(scope, name)` string pairs — scope is usually a component
//! name such as `"nic3"` or `"switch"`. Cheap enough for simulation-rate
//! updates; values are pulled after a run for report generation.

use std::collections::BTreeMap;

use crate::time::SimTime;

/// A monotonically increasing event counter.
///
/// Arithmetic saturates at `u64::MAX`: a counter that a very long soak
/// drives past 2⁶⁴ pegs at the ceiling instead of panicking in debug
/// builds (or silently wrapping in release, which would corrupt the
/// conservation checks built on these values).
#[derive(Default, Debug, Clone)]
pub struct Counter {
    value: u64,
}

impl Counter {
    /// Increment by one.
    pub fn inc(&mut self) {
        self.value = self.value.saturating_add(1);
    }

    /// Increment by `n`.
    pub fn add(&mut self, n: u64) {
        self.value = self.value.saturating_add(n);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value
    }
}

/// A last-writer-wins instantaneous value.
#[derive(Default, Debug, Clone)]
pub struct Gauge {
    value: f64,
    /// `None` until the first `set` — a zero default would misreport
    /// the maximum of a gauge that only ever held negative values.
    max_seen: Option<f64>,
}

impl Gauge {
    /// Set the current value, tracking the maximum ever seen.
    pub fn set(&mut self, v: f64) {
        self.value = v;
        if self.max_seen.is_none_or(|m| v > m) {
            self.max_seen = Some(v);
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        self.value
    }

    /// Maximum value ever set (0.0 if never set, matching `get`).
    pub fn max(&self) -> f64 {
        self.max_seen.unwrap_or(0.0)
    }
}

/// An append-only `(time, value)` series, e.g. queue depth over time.
#[derive(Default, Debug, Clone)]
pub struct Series {
    points: Vec<(SimTime, f64)>,
}

impl Series {
    /// Append a sample.
    pub fn push(&mut self, t: SimTime, v: f64) {
        self.points.push((t, v));
    }

    /// All samples in insertion (= time) order.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Mean of sample values (0.0 for an empty series).
    pub fn mean(&self) -> f64 {
        if self.points.is_empty() {
            return 0.0;
        }
        self.points.iter().map(|&(_, v)| v).sum::<f64>() / self.points.len() as f64
    }

    /// Maximum sample value (0.0 for an empty series).
    pub fn max(&self) -> f64 {
        self.points.iter().map(|&(_, v)| v).fold(0.0_f64, f64::max)
    }
}

/// Registry of all metrics, keyed by `(scope, name)`.
///
/// Counters live in a two-level map (`scope → name → Counter`) so the
/// per-event hot path — components bump counters on every frame — is a
/// pair of `&str` lookups with **zero allocations** once the counter
/// exists. The flat `(String, String)` key the registry used before
/// cost two `String` allocations per increment just to form the lookup
/// key.
#[derive(Default)]
pub struct StatsRegistry {
    counters: BTreeMap<String, BTreeMap<String, Counter>>,
    gauges: BTreeMap<(String, String), Gauge>,
    series: BTreeMap<(String, String), Series>,
}

impl StatsRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fetch or create a counter. Allocation-free after the counter's
    /// first use.
    pub fn counter(&mut self, scope: &str, name: &str) -> &mut Counter {
        if !self.counters.contains_key(scope) {
            self.counters.insert(scope.to_owned(), BTreeMap::new());
        }
        let scoped = self.counters.get_mut(scope).expect("scope just ensured");
        if !scoped.contains_key(name) {
            scoped.insert(name.to_owned(), Counter::default());
        }
        scoped.get_mut(name).expect("counter just ensured")
    }

    /// Fetch or create a gauge.
    pub fn gauge(&mut self, scope: &str, name: &str) -> &mut Gauge {
        self.gauges
            .entry((scope.to_owned(), name.to_owned()))
            .or_default()
    }

    /// Fetch or create a time series.
    pub fn series(&mut self, scope: &str, name: &str) -> &mut Series {
        self.series
            .entry((scope.to_owned(), name.to_owned()))
            .or_default()
    }

    /// Read a counter value if it exists.
    pub fn counter_value(&self, scope: &str, name: &str) -> Option<u64> {
        self.counters
            .get(scope)
            .and_then(|scoped| scoped.get(name))
            .map(Counter::get)
    }

    /// Read a gauge value if it exists.
    pub fn gauge_value(&self, scope: &str, name: &str) -> Option<f64> {
        self.gauges
            .get(&(scope.to_owned(), name.to_owned()))
            .map(Gauge::get)
    }

    /// Read a gauge's maximum-ever value if it exists.
    pub fn gauge_max(&self, scope: &str, name: &str) -> Option<f64> {
        self.gauges
            .get(&(scope.to_owned(), name.to_owned()))
            .map(Gauge::max)
    }

    /// Read a series if it exists.
    pub fn series_ref(&self, scope: &str, name: &str) -> Option<&Series> {
        self.series.get(&(scope.to_owned(), name.to_owned()))
    }

    /// Iterate all counters in deterministic (sorted key) order.
    pub fn counters(&self) -> impl Iterator<Item = ((&str, &str), u64)> {
        self.counters.iter().flat_map(|(scope, scoped)| {
            scoped
                .iter()
                .map(move |(name, c)| ((scope.as_str(), name.as_str()), c.get()))
        })
    }

    /// Render every metric as a sorted text block (debugging, goldens).
    pub fn dump(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for ((scope, name), v) in self.counters() {
            let _ = writeln!(out, "counter {scope}.{name} = {v}");
        }
        for ((scope, name), g) in &self.gauges {
            let _ = writeln!(
                out,
                "gauge   {scope}.{name} = {} (max {})",
                g.get(),
                g.max()
            );
        }
        for ((scope, name), s) in &self.series {
            let _ = writeln!(
                out,
                "series  {scope}.{name}: n={} mean={:.3} max={:.3}",
                s.len(),
                s.mean(),
                s.max()
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let mut reg = StatsRegistry::new();
        reg.counter("nic0", "frames_tx").inc();
        reg.counter("nic0", "frames_tx").add(4);
        assert_eq!(reg.counter_value("nic0", "frames_tx"), Some(5));
        assert_eq!(reg.counter_value("nic0", "missing"), None);
    }

    #[test]
    fn counter_saturates_instead_of_overflowing() {
        // Regression: `inc`/`add` used unchecked `+=`, so a long soak
        // that pushed a counter past u64::MAX panicked in debug builds.
        let mut c = Counter::default();
        c.add(u64::MAX - 1);
        c.inc();
        assert_eq!(c.get(), u64::MAX);
        c.inc();
        assert_eq!(c.get(), u64::MAX, "inc saturates at the ceiling");
        c.add(1 << 40);
        assert_eq!(c.get(), u64::MAX, "add saturates at the ceiling");
    }

    #[test]
    fn counters_iterate_sorted_by_scope_then_name() {
        let mut reg = StatsRegistry::new();
        reg.counter("b", "y").inc();
        reg.counter("a", "z").inc();
        reg.counter("a", "x").add(2);
        let keys: Vec<(&str, &str)> = reg.counters().map(|(k, _)| k).collect();
        assert_eq!(keys, vec![("a", "x"), ("a", "z"), ("b", "y")]);
    }

    #[test]
    fn gauge_tracks_max() {
        let mut reg = StatsRegistry::new();
        let g = reg.gauge("switch", "queue_depth");
        g.set(3.0);
        g.set(10.0);
        g.set(2.0);
        assert_eq!(g.get(), 2.0);
        assert_eq!(g.max(), 10.0);
    }

    #[test]
    fn gauge_max_of_negative_values_is_negative() {
        // Regression: `max_seen` used to default to 0.0, so a gauge
        // that only ever held negative values reported max 0.0.
        let mut reg = StatsRegistry::new();
        let g = reg.gauge("host", "clock_skew");
        g.set(-5.0);
        g.set(-2.0);
        g.set(-9.0);
        assert_eq!(g.get(), -9.0);
        assert_eq!(g.max(), -2.0);
    }

    #[test]
    fn series_statistics() {
        let mut s = Series::default();
        assert!(s.is_empty());
        assert_eq!(s.mean(), 0.0);
        s.push(SimTime::from_ps(1), 1.0);
        s.push(SimTime::from_ps(2), 3.0);
        assert_eq!(s.mean(), 2.0);
        assert_eq!(s.max(), 3.0);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn dump_is_deterministic_and_sorted() {
        let mut reg = StatsRegistry::new();
        reg.counter("b", "x").inc();
        reg.counter("a", "y").add(2);
        let d = reg.dump();
        let a_pos = d.find("a.y").unwrap();
        let b_pos = d.find("b.x").unwrap();
        assert!(a_pos < b_pos);
    }
}
