//! The online invariant Auditor.
//!
//! A cluster-attached observer wired only into faulted runs (a fault
//! plan is present on the [`ClusterSpec`](crate::ClusterSpec)): on a
//! periodic tick it reads the conservation counters the ports and cards
//! publish and panics at the first violation with the offending
//! counters. A final, stricter pass ([`final_check`]) runs after the simulation
//! quiesces. Every counter it reads is resolved to a handle when the
//! Auditor is built ([`AuditConfig::resolve`]), so a label or counter
//! name that no component publishes fails the wiring instead of
//! auditing zeros.
//!
//! The invariants:
//!
//! * **frame conservation**, per instrumented port: `frames_offered ≥
//!   frames_delivered + queue_drops + impair_drops` while running (the
//!   remainder is queued), with equality at quiescence unless a killed
//!   card legitimately strands its queue;
//! * **credit conservation**, cluster-wide: credits a card grants are
//!   an upper bound on the bytes senders charge against them
//!   (`credit_bytes_consumed ≤ credit_bytes_granted`), and no sender's
//!   outstanding window ever exceeds the credit window;
//! * **switch conservation**, per routed fabric switch: every frame a
//!   switch accepts resolves to exactly one fate — forwarded into an
//!   output queue, queue-dropped, blackholed (dead switch), or
//!   unroutable (partitioned destination): `frames_fwd + frames_dropped +
//!   frames_blackholed + frames_unroutable ≤ frames_in` while running
//!   (the remainder is in the forwarding pipeline), with equality at
//!   quiescence. Routed switches never flood, so the equality is exact
//!   — a silent multi-port replication or a lost frame both violate it;
//! * **datapath conservation**, per card: bytes leaving the gather
//!   datapath toward the host never exceed the bytes that entered it
//!   plus any zero-fill the card itself generated (`gather_bytes_out ≤
//!   gather_bytes_in + gather_bytes_padded`; padding covers the holes
//!   dead peers leave in a fixed-size interleave assembly, and
//!   retransmitted duplicates count on the way in, so equality is not
//!   required).

use std::any::Any;

use acc_sim::stats::{CounterId, GaugeId};
use acc_sim::{Component, Ctx, SimDuration, StatsRegistry};

/// What the Auditor watches. Built by the cluster wiring, which knows
/// every instrumented stats scope.
#[derive(Clone, Debug)]
pub struct AuditConfig {
    /// Stats labels of every instrumented [`EgressPort`](acc_net::port::EgressPort).
    pub ports: Vec<String>,
    /// Stats labels of every INIC card (empty on commodity runs).
    pub cards: Vec<String>,
    /// Stats labels of every routed fabric switch (empty on the
    /// single-switch baseline, whose flooding replicates frames and has
    /// no one-fate-per-frame invariant).
    pub switches: Vec<String>,
    /// The cards' credit window in bytes (outstanding-bytes bound).
    pub credit_window: u64,
    /// Whether every instrumented port must have fully drained at the
    /// end of the run. False when the plan kills cards: a dead card
    /// legitimately strands whatever its uplink still queued.
    pub expect_quiescent_ports: bool,
    /// Cluster size — the Auditor stops ticking once `drivers_done`
    /// reaches it.
    pub p: u64,
}

acc_sim::counter_set! {
    /// Frame conservation counters of one instrumented port.
    struct PortAudit { frames_offered, frames_delivered, queue_drops, impair_drops }
}

acc_sim::counter_set! {
    /// Frame fates of one routed switch.
    struct SwitchAudit { frames_in, frames_fwd, frames_dropped, frames_blackholed, frames_unroutable }
}

acc_sim::counter_set! {
    /// Datapath and credit counters of one card.
    struct CardAudit {
        gather_bytes_in,
        gather_bytes_out,
        gather_bytes_padded,
        credit_bytes_granted,
        credit_bytes_consumed,
    }
}

/// An [`AuditConfig`] with every counter and gauge it reads resolved to
/// its handle, so the checks index the registry instead of looking
/// strings up, and a key nobody publishes fails before the run.
#[derive(Clone, Debug)]
pub struct AuditHandles {
    ports: Vec<(String, PortAudit)>,
    switches: Vec<(String, SwitchAudit)>,
    /// Each card's counters and its `outstanding_bytes` gauge.
    cards: Vec<(String, CardAudit, GaugeId)>,
    credit_window: u64,
    expect_quiescent_ports: bool,
}

impl AuditConfig {
    /// Resolve every counter and gauge the checks read.
    ///
    /// # Panics
    /// Panics naming the first key no component registered: a
    /// misspelled label or counter name would otherwise audit zeros
    /// against zeros and pass.
    pub fn resolve(&self, stats: &StatsRegistry) -> AuditHandles {
        AuditHandles {
            ports: self
                .ports
                .iter()
                .map(|l| (l.clone(), PortAudit::resolve(stats, l)))
                .collect(),
            switches: self
                .switches
                .iter()
                .map(|l| (l.clone(), SwitchAudit::resolve(stats, l)))
                .collect(),
            cards: self
                .cards
                .iter()
                .map(|l| {
                    let gauge = stats
                        .gauge_id(l, "outstanding_bytes")
                        .unwrap_or_else(|| panic!("gauge {l}.outstanding_bytes is not registered"));
                    (l.clone(), CardAudit::resolve(stats, l), gauge)
                })
                .collect(),
            credit_window: self.credit_window,
            expect_quiescent_ports: self.expect_quiescent_ports,
        }
    }
}

/// Self event driving the periodic audit.
struct AuditTick;

/// The online auditor component. Checks run every [`Auditor::PERIOD`]
/// until every driver has reported done (or the tick cap is reached, a
/// backstop so a wedged run cannot tick forever).
pub struct Auditor {
    label: String,
    handles: AuditHandles,
    /// Cluster size: ticking stops once `drivers_done` reaches it.
    p: u64,
    drivers_done: CounterId,
    audit_ticks: CounterId,
    ticks: u64,
}

impl Auditor {
    /// Audit cadence. A prime micro-count, so ticks drift across the
    /// protocol's natural periods instead of beating against them.
    pub const PERIOD: SimDuration = SimDuration::from_micros(613);

    /// Tick backstop: even if drivers never finish, the auditor goes
    /// quiet after this many ticks so the simulation can drain.
    const MAX_TICKS: u64 = 2_000_000;

    /// Build an auditor for one wired cluster, resolving every counter
    /// it reads in `stats`.
    ///
    /// # Panics
    /// Panics if a watched counter or `cluster.drivers_done` was never
    /// registered (see [`AuditConfig::resolve`]).
    pub fn new(cfg: &AuditConfig, stats: &StatsRegistry) -> Auditor {
        Auditor {
            label: "auditor".to_owned(),
            handles: cfg.resolve(stats),
            p: cfg.p,
            drivers_done: stats
                .counter_id("cluster", "drivers_done")
                .expect("auditor: counter cluster.drivers_done is not registered"),
            audit_ticks: CounterId::UNREGISTERED,
            ticks: 0,
        }
    }

    /// The resolved handles, for the end-of-run [`final_check`].
    pub fn handles(&self) -> &AuditHandles {
        &self.handles
    }
}

impl Component for Auditor {
    fn handle(&mut self, ev: Box<dyn Any>, ctx: &mut Ctx) {
        assert!(ev.downcast_ref::<AuditTick>().is_some() || ev.downcast_ref::<()>().is_some());
        self.ticks += 1;
        let done = ctx.stats()[self.drivers_done].get();
        if done >= self.p || self.ticks > Auditor::MAX_TICKS {
            return; // stop rescheduling; the final check takes over
        }
        check_running(ctx.stats(), &self.handles);
        ctx.stats()[self.audit_ticks].inc();
        ctx.self_in(Auditor::PERIOD, AuditTick);
    }

    fn name(&self) -> &str {
        &self.label
    }

    fn register_stats(&mut self, stats: &mut StatsRegistry) {
        self.audit_ticks = stats.register_counter(&self.label, "audit_ticks");
    }
}

/// The invariants that must hold at every instant of the run. Panics
/// with the offending counters on violation.
pub fn check_running(stats: &StatsRegistry, audit: &AuditHandles) {
    for (port, c) in &audit.ports {
        let offered = stats[c.frames_offered].get();
        let delivered = stats[c.frames_delivered].get();
        let queue_drops = stats[c.queue_drops].get();
        let impair_drops = stats[c.impair_drops].get();
        assert!(
            delivered + queue_drops + impair_drops <= offered,
            "AUDIT VIOLATION: port {port} accounts for more frames than were \
             offered: offered={offered} delivered={delivered} \
             queue_drops={queue_drops} impair_drops={impair_drops}"
        );
    }
    for (sw, c) in &audit.switches {
        let frames_in = stats[c.frames_in].get();
        let fwd = stats[c.frames_fwd].get();
        let dropped = stats[c.frames_dropped].get();
        let blackholed = stats[c.frames_blackholed].get();
        let unroutable = stats[c.frames_unroutable].get();
        assert!(
            fwd + dropped + blackholed + unroutable <= frames_in,
            "AUDIT VIOLATION: switch {sw} accounts for more frames than \
             arrived: in={frames_in} fwd={fwd} dropped={dropped} \
             blackholed={blackholed} unroutable={unroutable}"
        );
    }
    let mut granted_total = 0u64;
    let mut consumed_total = 0u64;
    for (card, c, outstanding) in &audit.cards {
        let bytes_in = stats[c.gather_bytes_in].get();
        let bytes_out = stats[c.gather_bytes_out].get();
        let bytes_padded = stats[c.gather_bytes_padded].get();
        assert!(
            bytes_out <= bytes_in + bytes_padded,
            "AUDIT VIOLATION: card {card} datapath emitted more bytes than \
             entered it: in={bytes_in} padded={bytes_padded} out={bytes_out}"
        );
        let outstanding_max = stats[*outstanding].max();
        assert!(
            outstanding_max <= audit.credit_window as f64,
            "AUDIT VIOLATION: card {card} exceeded its credit window: \
             outstanding max={outstanding_max} window={}",
            audit.credit_window
        );
        granted_total += stats[c.credit_bytes_granted].get();
        consumed_total += stats[c.credit_bytes_consumed].get();
    }
    assert!(
        consumed_total <= granted_total,
        "AUDIT VIOLATION: cluster consumed more credit than was granted: \
         granted={granted_total} consumed={consumed_total}"
    );
}

/// The end-of-run pass: everything [`check_running`] checks, plus frame
/// conservation as an equality on quiescent ports — once the event
/// queue drained, every offered frame must be accounted for as
/// delivered or dropped.
pub fn final_check(stats: &StatsRegistry, audit: &AuditHandles) {
    check_running(stats, audit);
    // Switch conservation tightens to an equality unconditionally: the
    // forwarding pipeline always drains (a dead switch still counts its
    // pipeline casualties as blackholed), so even a run that strands
    // port queues must account for every arrived frame.
    for (sw, c) in &audit.switches {
        let frames_in = stats[c.frames_in].get();
        let fwd = stats[c.frames_fwd].get();
        let dropped = stats[c.frames_dropped].get();
        let blackholed = stats[c.frames_blackholed].get();
        let unroutable = stats[c.frames_unroutable].get();
        assert_eq!(
            frames_in,
            fwd + dropped + blackholed + unroutable,
            "AUDIT VIOLATION: switch {sw} lost track of frames: \
             in={frames_in} fwd={fwd} dropped={dropped} \
             blackholed={blackholed} unroutable={unroutable}"
        );
    }
    if !audit.expect_quiescent_ports {
        return;
    }
    for (port, c) in &audit.ports {
        let offered = stats[c.frames_offered].get();
        let delivered = stats[c.frames_delivered].get();
        let queue_drops = stats[c.queue_drops].get();
        let impair_drops = stats[c.impair_drops].get();
        assert_eq!(
            offered,
            delivered + queue_drops + impair_drops,
            "AUDIT VIOLATION: port {port} did not drain: offered={offered} \
             delivered={delivered} queue_drops={queue_drops} \
             impair_drops={impair_drops}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> AuditConfig {
        AuditConfig {
            ports: vec!["up0".into()],
            cards: vec!["inic0".into()],
            switches: vec!["fsw0".into()],
            credit_window: 1000,
            expect_quiescent_ports: true,
            p: 1,
        }
    }

    const PORT: &[&str] = &[
        "frames_offered",
        "frames_delivered",
        "queue_drops",
        "impair_drops",
    ];
    const SWITCH: &[&str] = &[
        "frames_in",
        "frames_fwd",
        "frames_dropped",
        "frames_blackholed",
        "frames_unroutable",
    ];
    const CARD: &[&str] = &[
        "gather_bytes_in",
        "gather_bytes_out",
        "gather_bytes_padded",
        "credit_bytes_granted",
        "credit_bytes_consumed",
    ];

    /// A registry as the wiring leaves it for [`cfg`]: every watched key
    /// published (at zero), spelled as the publishers spell it.
    fn wired() -> StatsRegistry {
        let mut stats = StatsRegistry::new();
        for (scope, names) in [("up0", PORT), ("fsw0", SWITCH), ("inic0", CARD)] {
            for name in names {
                stats.counter(scope, name);
            }
        }
        stats.gauge("inic0", "outstanding_bytes");
        stats.counter("cluster", "drivers_done");
        stats
    }

    fn running(stats: &StatsRegistry) {
        check_running(stats, &cfg().resolve(stats));
    }

    fn finished(stats: &StatsRegistry, c: &AuditConfig) {
        final_check(stats, &c.resolve(stats));
    }

    #[test]
    fn clean_counters_pass_both_checks() {
        let mut stats = wired();
        stats.counter("up0", "frames_offered").add(10);
        stats.counter("up0", "frames_delivered").add(8);
        stats.counter("up0", "queue_drops").add(1);
        stats.counter("up0", "impair_drops").add(1);
        stats.counter("inic0", "gather_bytes_in").add(4096);
        stats.counter("inic0", "gather_bytes_out").add(4096);
        stats.counter("inic0", "credit_bytes_granted").add(2048);
        stats.counter("inic0", "credit_bytes_consumed").add(2048);
        stats.gauge("inic0", "outstanding_bytes").set(900.0);
        running(&stats);
        finished(&stats, &cfg());
    }

    #[test]
    fn switch_conservation_accepts_all_four_fates() {
        let mut stats = wired();
        stats.counter("fsw0", "frames_in").add(10);
        stats.counter("fsw0", "frames_fwd").add(6);
        stats.counter("fsw0", "frames_dropped").add(1);
        stats.counter("fsw0", "frames_blackholed").add(2);
        stats.counter("fsw0", "frames_unroutable").add(1);
        running(&stats);
        finished(&stats, &cfg());
    }

    #[test]
    #[should_panic(expected = "accounts for more frames")]
    fn switch_over_accounting_is_a_violation() {
        let mut stats = wired();
        stats.counter("fsw0", "frames_in").add(3);
        stats.counter("fsw0", "frames_fwd").add(4);
        running(&stats);
    }

    #[test]
    #[should_panic(expected = "lost track of frames")]
    fn switch_losing_a_frame_fails_the_final_equality() {
        // One arrived frame never resolved to any fate — a silent loss.
        let mut stats = wired();
        stats.counter("fsw0", "frames_in").add(5);
        stats.counter("fsw0", "frames_fwd").add(4);
        let mut c = cfg();
        // Even with non-quiescent ports the switch equality must hold.
        c.expect_quiescent_ports = false;
        finished(&stats, &c);
    }

    #[test]
    #[should_panic(expected = "more frames than were offered")]
    fn over_delivery_is_a_violation() {
        let mut stats = wired();
        stats.counter("up0", "frames_offered").add(5);
        stats.counter("up0", "frames_delivered").add(6);
        running(&stats);
    }

    #[test]
    #[should_panic(expected = "did not drain")]
    fn stranded_frames_fail_the_final_equality() {
        let mut stats = wired();
        stats.counter("up0", "frames_offered").add(5);
        stats.counter("up0", "frames_delivered").add(4);
        finished(&stats, &cfg());
    }

    #[test]
    #[should_panic(expected = "more credit than was granted")]
    fn credit_overdraw_is_a_violation() {
        let mut stats = wired();
        stats.counter("inic0", "credit_bytes_granted").add(100);
        stats.counter("inic0", "credit_bytes_consumed").add(101);
        running(&stats);
    }

    #[test]
    #[should_panic(expected = "exceeded its credit window")]
    fn window_overrun_is_a_violation() {
        let mut stats = wired();
        stats.gauge("inic0", "outstanding_bytes").set(1001.0);
        running(&stats);
    }

    #[test]
    #[should_panic(expected = "counter up0.frames_offered is not registered")]
    fn misspelled_counter_fails_at_construction() {
        // A publisher that spells the counter differently used to be
        // read as 0 and audit 0 against 0; now the Auditor refuses to
        // be built.
        let mut stats = StatsRegistry::new();
        for (scope, names) in [("fsw0", SWITCH), ("inic0", CARD)] {
            for name in names {
                stats.counter(scope, name);
            }
        }
        for name in [
            "frames_ofered",
            "frames_delivered",
            "queue_drops",
            "impair_drops",
        ] {
            stats.counter("up0", name);
        }
        stats.gauge("inic0", "outstanding_bytes");
        stats.counter("cluster", "drivers_done");
        let _ = Auditor::new(&cfg(), &stats);
    }

    #[test]
    #[should_panic(expected = "counter uplink0.frames_offered is not registered")]
    fn misspelled_scope_fails_at_construction() {
        let mut c = cfg();
        c.ports = vec!["uplink0".into()];
        let _ = Auditor::new(&c, &wired());
    }

    #[test]
    #[should_panic(expected = "gauge inic1.outstanding_bytes is not registered")]
    fn unpublished_gauge_fails_at_construction() {
        let mut stats = wired();
        for name in CARD {
            stats.counter("inic1", name);
        }
        let mut c = cfg();
        c.cards.push("inic1".into());
        let _ = Auditor::new(&c, &stats);
    }
}
