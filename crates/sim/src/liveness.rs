//! Liveness watchdog: structured hang detection for guarded runs.
//!
//! A discrete-event scenario can fail to terminate in two ways the plain
//! [`run`](crate::Simulation::run) loop cannot distinguish from progress:
//!
//! * **event spin** — components keep scheduling each other with
//!   time-advancing events (retransmit timers, credit probes) so the queue
//!   never drains;
//! * **same-timestamp livelock** — a cycle of zero-delay events pins the
//!   clock while the event counter climbs.
//!
//! [`Watchdog`] bounds both, plus an optional simulated-time deadline, and
//! [`crate::Simulation::run_guarded`] converts a tripped bound into a
//! structured [`LivenessReport`] instead of a panic or an infinite loop.
//! The report names every component that declares a wait state
//! ([`crate::Component::wait_state`]) and the event-queue head.
//!
//! The guarded loop adds **zero events** to the simulation: it only
//! observes the queue between steps, so a clean run under `run_guarded`
//! is bit-identical to the same run under `run`.

use std::fmt;

use crate::component::ComponentId;
use crate::time::SimTime;

/// Progress bounds for a guarded run. All bounds are optional; the
/// default ([`Watchdog::unlimited`]) never trips and makes
/// [`crate::Simulation::run_guarded`] equivalent to
/// [`crate::Simulation::run`].
#[derive(Debug, Clone, Copy)]
pub struct Watchdog {
    /// Abort after this many events processed within the guarded call.
    pub event_budget: u64,
    /// Abort after this many consecutive events without the committed
    /// simulation time advancing (same-timestamp livelock detector).
    pub stall_events: u64,
    /// Abort when the next pending event lies beyond this simulated
    /// instant. The clock is *not* advanced to the deadline — the abort
    /// happens before the offending event is popped.
    pub deadline: Option<SimTime>,
}

impl Watchdog {
    /// A watchdog with every bound disabled.
    pub fn unlimited() -> Self {
        Watchdog {
            event_budget: u64::MAX,
            stall_events: u64::MAX,
            deadline: None,
        }
    }

    /// Set the event budget for the guarded call.
    pub fn with_event_budget(mut self, budget: u64) -> Self {
        self.event_budget = budget;
        self
    }

    /// Set the no-commit-advance (same-timestamp livelock) threshold.
    pub fn with_stall_events(mut self, events: u64) -> Self {
        self.stall_events = events;
        self
    }

    /// Set the simulated-time deadline.
    pub fn with_deadline(mut self, deadline: SimTime) -> Self {
        self.deadline = Some(deadline);
        self
    }
}

impl Default for Watchdog {
    fn default() -> Self {
        Self::unlimited()
    }
}

/// Which watchdog bound tripped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HangKind {
    /// The per-call event budget was exhausted while events remained.
    EventBudgetExhausted,
    /// The clock failed to advance for `stall_events` consecutive events.
    NoCommitAdvance,
    /// The next pending event lies beyond the simulated-time deadline.
    DeadlineExceeded,
}

impl fmt::Display for HangKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            HangKind::EventBudgetExhausted => "event budget exhausted",
            HangKind::NoCommitAdvance => "no commit advance (same-timestamp livelock)",
            HangKind::DeadlineExceeded => "simulated-time deadline exceeded",
        };
        f.write_str(s)
    }
}

/// One component's self-declared wait state at abort time.
#[derive(Debug, Clone)]
pub struct ComponentWait {
    /// The component's id.
    pub id: ComponentId,
    /// The component's [`crate::Component::name`].
    pub name: String,
    /// What the component reported via [`crate::Component::wait_state`].
    pub wait: String,
}

/// Structured description of a run that tripped the [`Watchdog`].
#[derive(Debug, Clone)]
pub struct LivenessReport {
    /// Which bound tripped.
    pub kind: HangKind,
    /// Committed simulated time at abort.
    pub now: SimTime,
    /// Total events processed by the engine (lifetime, not per-call).
    pub events_processed: u64,
    /// Events still pending in the queue.
    pub events_pending: usize,
    /// Delivery time and target of the queue head, if any.
    pub queue_head: Option<(SimTime, ComponentId)>,
    /// Every component that declared a wait state.
    pub components: Vec<ComponentWait>,
}

impl fmt::Display for LivenessReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "liveness failure: {}", self.kind)?;
        writeln!(
            f,
            "  at t={} after {} events ({} pending)",
            self.now, self.events_processed, self.events_pending
        )?;
        match self.queue_head {
            Some((t, target)) => writeln!(f, "  queue head: t={t} -> {target:?}")?,
            None => writeln!(f, "  queue head: <empty>")?,
        }
        if self.components.is_empty() {
            writeln!(f, "  no component declared a wait state")?;
        } else {
            writeln!(f, "  waiting components:")?;
            for c in &self.components {
                writeln!(f, "    {:?} {}: {}", c.id, c.name, c.wait)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_watchdog_has_no_bounds() {
        let wd = Watchdog::default();
        assert_eq!(wd.event_budget, u64::MAX);
        assert_eq!(wd.stall_events, u64::MAX);
        assert!(wd.deadline.is_none());
    }

    #[test]
    fn builder_sets_bounds() {
        let wd = Watchdog::unlimited()
            .with_event_budget(10)
            .with_stall_events(5)
            .with_deadline(SimTime::from_ps(99));
        assert_eq!(wd.event_budget, 10);
        assert_eq!(wd.stall_events, 5);
        assert_eq!(wd.deadline, Some(SimTime::from_ps(99)));
    }

    #[test]
    fn report_display_names_components_and_head() {
        let report = LivenessReport {
            kind: HangKind::EventBudgetExhausted,
            now: SimTime::from_ps(1_000),
            events_processed: 42,
            events_pending: 3,
            queue_head: Some((SimTime::from_ps(2_000), ComponentId::from_raw(7))),
            components: vec![ComponentWait {
                id: ComponentId::from_raw(1),
                name: "nic".into(),
                wait: "2 frames in flight".into(),
            }],
        };
        let text = report.to_string();
        assert!(text.contains("event budget exhausted"));
        assert!(text.contains("#7"));
        assert!(text.contains("nic: 2 frames in flight"));
    }
}
