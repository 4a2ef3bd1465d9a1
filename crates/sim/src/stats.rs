//! Statistics collection: counters and gauges behind dense handles.
//!
//! Every metric is keyed by a `(scope, name)` string pair — scope is
//! usually a component name such as `"nic3"` or `"switch"`. A key is
//! registered once, when its component is wired
//! ([`Component::register_stats`](crate::Component::register_stats), which
//! [`Simulation::register`](crate::Simulation::register) calls), and the
//! registry hands back a [`CounterId`] or [`GaugeId`]: a dense index into
//! a `Vec` of values. The per-frame hot path bumps by index
//! (`ctx.stats()[id].inc()`) — no string comparison, no allocation. The
//! [`counter_set!`](crate::counter_set) macro declares a component's
//! handle struct with one field per counter name.
//!
//! The string API ([`StatsRegistry::counter`],
//! [`StatsRegistry::counter_value`], [`StatsRegistry::counters`],
//! [`StatsRegistry::dump`]) stays for post-run reads and tests. Iteration
//! is sorted by `(scope, name)` whatever the registration order, so
//! reports built from it never depend on wiring order.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::ops::{Index, IndexMut};

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

/// Dense handle of a registered counter: index the registry with it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CounterId(usize);

impl CounterId {
    /// Placeholder a component holds until it is registered; indexing
    /// a registry with it panics.
    pub const UNREGISTERED: CounterId = CounterId(usize::MAX);
}

/// Dense handle of a registered gauge: index the registry with it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GaugeId(usize);

impl GaugeId {
    /// Placeholder a component holds until it is registered; indexing
    /// a registry with it panics.
    pub const UNREGISTERED: GaugeId = GaugeId(usize::MAX);
}

/// One metric kind: the sorted `(scope, name)` → index map and the
/// values the indices address. Names are `Cow` so handles registered
/// under a literal name store no copy of it.
#[derive(Default)]
struct Table<T> {
    index: BTreeMap<String, BTreeMap<Cow<'static, str>, usize>>,
    values: Vec<T>,
}

impl<T: Default> Table<T> {
    fn find(&self, scope: &str, name: &str) -> Option<usize> {
        self.index.get(scope)?.get(name).copied()
    }

    /// The index of `(scope, name)`, creating a default value on first
    /// use; `key` builds the stored name only then.
    fn intern(
        &mut self,
        scope: &str,
        name: &str,
        key: impl FnOnce() -> Cow<'static, str>,
    ) -> usize {
        if let Some(i) = self.find(scope, name) {
            return i;
        }
        let i = self.values.len();
        self.values.push(T::default());
        match self.index.get_mut(scope) {
            Some(names) => {
                names.insert(key(), i);
            }
            None => {
                self.index
                    .insert(scope.to_owned(), BTreeMap::from([(key(), i)]));
            }
        }
        i
    }

    /// Every entry in sorted `(scope, name)` order.
    fn iter(&self) -> impl Iterator<Item = ((&str, &str), &T)> {
        self.index.iter().flat_map(move |(scope, names)| {
            names
                .iter()
                .map(move |(name, &i)| ((scope.as_str(), name.as_ref()), &self.values[i]))
        })
    }
}

/// Registry of all metrics, keyed by `(scope, name)` and addressed on
/// the hot path by [`CounterId`]/[`GaugeId`] handles.
#[derive(Default)]
pub struct StatsRegistry {
    counters: Table<Counter>,
    gauges: Table<Gauge>,
}

impl StatsRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a counter (idempotent: the same key always yields the
    /// same handle).
    pub fn register_counter(&mut self, scope: &str, name: &'static str) -> CounterId {
        CounterId(self.counters.intern(scope, name, || Cow::Borrowed(name)))
    }

    /// Register a gauge (idempotent: the same key always yields the
    /// same handle).
    pub fn register_gauge(&mut self, scope: &str, name: &'static str) -> GaugeId {
        GaugeId(self.gauges.intern(scope, name, || Cow::Borrowed(name)))
    }

    /// The handle of an already registered counter.
    pub fn counter_id(&self, scope: &str, name: &str) -> Option<CounterId> {
        self.counters.find(scope, name).map(CounterId)
    }

    /// The handle of an already registered gauge.
    pub fn gauge_id(&self, scope: &str, name: &str) -> Option<GaugeId> {
        self.gauges.find(scope, name).map(GaugeId)
    }

    /// Fetch or create a counter by key. Allocation-free once the key
    /// exists, but a string lookup per call: hot paths index by handle.
    pub fn counter(&mut self, scope: &str, name: &str) -> &mut Counter {
        let i = self
            .counters
            .intern(scope, name, || Cow::Owned(name.to_owned()));
        &mut self.counters.values[i]
    }

    /// Fetch or create a gauge by key.
    pub fn gauge(&mut self, scope: &str, name: &str) -> &mut Gauge {
        let i = self
            .gauges
            .intern(scope, name, || Cow::Owned(name.to_owned()));
        &mut self.gauges.values[i]
    }

    /// Read a counter value if it exists.
    pub fn counter_value(&self, scope: &str, name: &str) -> Option<u64> {
        self.counter_id(scope, name).map(|id| self[id].get())
    }

    /// Iterate all counters in deterministic (sorted key) order.
    pub fn counters(&self) -> impl Iterator<Item = ((&str, &str), u64)> {
        self.counters.iter().map(|(key, c)| (key, c.get()))
    }

    /// Render every metric as a sorted text block (debugging, goldens).
    pub fn dump(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for ((scope, name), v) in self.counters() {
            let _ = writeln!(out, "counter {scope}.{name} = {v}");
        }
        for ((scope, name), g) in self.gauges.iter() {
            let _ = writeln!(
                out,
                "gauge   {scope}.{name} = {} (max {})",
                g.get(),
                g.max()
            );
        }
        out
    }
}

impl Index<CounterId> for StatsRegistry {
    type Output = Counter;

    fn index(&self, id: CounterId) -> &Counter {
        self.counters
            .values
            .get(id.0)
            .expect("counter handle not registered in this registry")
    }
}

impl IndexMut<CounterId> for StatsRegistry {
    fn index_mut(&mut self, id: CounterId) -> &mut Counter {
        self.counters
            .values
            .get_mut(id.0)
            .expect("counter handle not registered in this registry")
    }
}

impl Index<GaugeId> for StatsRegistry {
    type Output = Gauge;

    fn index(&self, id: GaugeId) -> &Gauge {
        self.gauges
            .values
            .get(id.0)
            .expect("gauge handle not registered in this registry")
    }
}

impl IndexMut<GaugeId> for StatsRegistry {
    fn index_mut(&mut self, id: GaugeId) -> &mut Gauge {
        self.gauges
            .values
            .get_mut(id.0)
            .expect("gauge handle not registered in this registry")
    }
}

/// Declare a struct of [`CounterId`] handles, one per counter name: the
/// field name *is* the counter name, so a handle and the key it stands
/// for cannot drift apart.
///
/// The struct gets an `UNREGISTERED` constant (every handle a
/// placeholder, for constructors), `register` (create every counter
/// under a scope; for publishers, at wiring time) and `resolve` (look
/// every counter up, panicking on one nobody registered; for readers
/// such as an auditor).
///
/// ```
/// acc_sim::counter_set! {
///     /// Per-port counters.
///     pub struct PortCounters { frames_in, frames_dropped }
/// }
/// let mut stats = acc_sim::StatsRegistry::new();
/// let ids = PortCounters::register(&mut stats, "port0");
/// stats[ids.frames_in].inc();
/// assert_eq!(stats.counter_value("port0", "frames_in"), Some(1));
/// assert_eq!(PortCounters::resolve(&stats, "port0").frames_in, ids.frames_in);
/// ```
#[macro_export]
macro_rules! counter_set {
    ($(#[$meta:meta])* $vis:vis struct $name:ident { $($field:ident),+ $(,)? }) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug)]
        $vis struct $name {
            $($field: $crate::stats::CounterId,)+
        }

        #[allow(dead_code)]
        impl $name {
            /// Every handle a placeholder until `register`.
            $vis const UNREGISTERED: $name = $name {
                $($field: $crate::stats::CounterId::UNREGISTERED,)+
            };

            /// Register every counter under `scope`.
            $vis fn register(stats: &mut $crate::StatsRegistry, scope: &str) -> $name {
                $name {
                    $($field: stats.register_counter(scope, stringify!($field)),)+
                }
            }

            /// Look every counter up under `scope`.
            ///
            /// # Panics
            /// Panics naming the first counter nobody registered.
            $vis fn resolve(stats: &$crate::StatsRegistry, scope: &str) -> $name {
                $name {
                    $($field: stats
                        .counter_id(scope, stringify!($field))
                        .unwrap_or_else(|| {
                            // acc-lint: allow(R5, reason = "wiring-time lookup, never on the event path: a reader naming a counter nobody publishes must fail before the run, not audit zeros")
                            panic!("counter {scope}.{} is not registered", stringify!($field))
                        }),)+
                }
            }
        }
    };
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
    fn handle_and_string_bumps_update_one_counter() {
        let mut reg = StatsRegistry::new();
        let id = reg.register_counter("sw0", "frames_in");
        reg[id].inc();
        reg.counter("sw0", "frames_in").add(2);
        reg[id].add(3);
        assert_eq!(reg[id].get(), 6);
        assert_eq!(reg.counter_value("sw0", "frames_in"), Some(6));
        assert_eq!(reg.counters().count(), 1);
        // A key first created through the string API resolves to the
        // same slot too.
        reg.counter("sw1", "frames_in").inc();
        let late = reg.register_counter("sw1", "frames_in");
        reg[late].inc();
        assert_eq!(reg.counter_value("sw1", "frames_in"), Some(2));
    }

    #[test]
    fn registering_a_key_twice_returns_the_same_id() {
        let mut reg = StatsRegistry::new();
        let a = reg.register_counter("inic3", "retransmits");
        let b = reg.register_counter("inic4", "retransmits");
        assert_ne!(a, b);
        assert_eq!(reg.register_counter("inic3", "retransmits"), a);
        assert_eq!(reg.counter_id("inic3", "retransmits"), Some(a));
        assert_eq!(reg.counter_id("inic3", "missing"), None);
        let g = reg.register_gauge("inic3", "outstanding_bytes");
        assert_eq!(reg.register_gauge("inic3", "outstanding_bytes"), g);
        assert_eq!(reg.gauge_id("inic3", "outstanding_bytes"), Some(g));
    }

    #[test]
    #[should_panic(expected = "counter handle not registered")]
    fn unregistered_handle_panics() {
        let mut reg = StatsRegistry::new();
        reg[CounterId::UNREGISTERED].inc();
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
        // The same through a registry handle.
        let mut reg = StatsRegistry::new();
        let id = reg.register_counter("soak", "frames");
        reg[id].add(u64::MAX);
        reg[id].add(7);
        assert_eq!(reg.counter_value("soak", "frames"), Some(u64::MAX));
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
    fn iteration_and_dump_ignore_registration_order() {
        let keys = [("up1", "b"), ("up0", "z"), ("fsw2", "a"), ("up0", "a")];
        let build = |order: &[usize]| {
            let mut reg = StatsRegistry::new();
            for &k in order {
                let (scope, name) = keys[k];
                let id = reg.register_counter(scope, name);
                reg[id].add(k as u64);
                let g = reg.register_gauge(scope, name);
                reg[g].set(k as f64);
            }
            reg
        };
        let fwd = build(&[0, 1, 2, 3]);
        let rev = build(&[3, 2, 1, 0]);
        let sorted: Vec<((&str, &str), u64)> = fwd.counters().collect();
        assert_eq!(
            sorted,
            vec![
                (("fsw2", "a"), 2),
                (("up0", "a"), 3),
                (("up0", "z"), 1),
                (("up1", "b"), 0)
            ]
        );
        assert_eq!(rev.counters().collect::<Vec<_>>(), sorted);
        assert_eq!(fwd.dump(), rev.dump());
        let d = fwd.dump();
        assert!(d.find("counter up0.z").unwrap() < d.find("counter up1.b").unwrap());
        assert!(d.find("gauge   fsw2.a").unwrap() < d.find("gauge   up0.a").unwrap());
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
    fn dump_is_deterministic_and_sorted() {
        let mut reg = StatsRegistry::new();
        reg.counter("b", "x").inc();
        reg.counter("a", "y").add(2);
        let d = reg.dump();
        let a_pos = d.find("a.y").unwrap();
        let b_pos = d.find("b.x").unwrap();
        assert!(a_pos < b_pos);
    }

    crate::counter_set! {
        struct Pair { hits, misses }
    }

    #[test]
    fn counter_set_registers_and_resolves_by_field_name() {
        let mut reg = StatsRegistry::new();
        let ids = Pair::register(&mut reg, "cache");
        reg[ids.misses].add(4);
        assert_eq!(reg.counter_value("cache", "misses"), Some(4));
        assert_eq!(reg.counter_value("cache", "hits"), Some(0));
        reg[ids.hits].inc();
        assert_eq!(reg.counter_value("cache", "hits"), Some(1));
        assert_eq!(Pair::resolve(&reg, "cache").misses, ids.misses);
    }

    #[test]
    #[should_panic(expected = "counter cache.hits is not registered")]
    fn counter_set_resolve_panics_on_a_missing_counter() {
        let mut reg = StatsRegistry::new();
        reg.counter("cache", "hitz").inc();
        let _ = Pair::resolve(&reg, "cache");
    }
}
