//! Components and the scheduling context handed to their event handlers.

use std::any::Any;
use std::fmt;

use crate::event::EventQueue;
use crate::rng::SimRng;
use crate::stats::StatsRegistry;
use crate::time::{SimDuration, SimTime};

/// Opaque handle identifying a registered [`Component`].
///
/// Ids are dense indices assigned by [`crate::Simulation::reserve_id`]; they
/// are cheap to copy and hash and stable for the life of the simulation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ComponentId(usize);

impl ComponentId {
    /// Construct from a raw index. Intended for the engine and for tests;
    /// ids not handed out by `reserve_id` will panic at dispatch.
    pub const fn from_raw(idx: usize) -> Self {
        ComponentId(idx)
    }

    /// The raw dense index.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Debug for ComponentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// A simulated hardware or software block.
///
/// Implementations receive type-erased payloads and downcast to their own
/// message enums. Unknown payload types should panic: receiving a message
/// you cannot decode is a wiring bug in the scenario, not a runtime
/// condition.
///
/// The `Any` supertrait lets scenario drivers downcast components back to
/// their concrete types after a run to extract results.
pub trait Component: Any {
    /// Deliver one event. `ctx` provides the current time, scheduling, the
    /// shared RNG, statistics and tracing.
    fn handle(&mut self, ev: Box<dyn Any>, ctx: &mut Ctx);

    /// Human-readable name used in liveness reports and stats keys.
    fn name(&self) -> &str;

    /// One-line description of what this component is currently waiting
    /// for (credits held, parked resume, frames in flight), or `None`
    /// when it has nothing to report. Collected into the
    /// [`crate::liveness::LivenessReport`] when a guarded run trips its
    /// watchdog; idle or stateless components keep the default.
    fn wait_state(&self) -> Option<String> {
        None
    }

    /// Register the counters and gauges this component publishes and
    /// keep their handles for the hot path. Called once, by
    /// [`crate::Simulation::register`], before the component sees any
    /// event; components that publish nothing keep the default.
    fn register_stats(&mut self, _stats: &mut StatsRegistry) {}
}

/// Mutable simulation services available to a component while it handles an
/// event. Borrowed pieces of the engine — never stored.
pub struct Ctx<'a> {
    pub(crate) now: SimTime,
    pub(crate) self_id: ComponentId,
    pub(crate) queue: &'a mut EventQueue,
    pub(crate) rng: &'a mut SimRng,
    pub(crate) stats: &'a mut StatsRegistry,
}

impl Ctx<'_> {
    /// The current simulated instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The id of the component currently handling an event.
    pub fn self_id(&self) -> ComponentId {
        self.self_id
    }

    /// Deliver `payload` to `target` after `delay`.
    pub fn send_in<M: Any>(&mut self, delay: SimDuration, target: ComponentId, payload: M) {
        self.queue.push(self.now + delay, target, Box::new(payload));
    }

    /// Deliver `payload` to `target` at the current instant (after all
    /// events already queued for this instant).
    pub fn send_now<M: Any>(&mut self, target: ComponentId, payload: M) {
        self.send_in(SimDuration::ZERO, target, payload);
    }

    /// Schedule a message back to the sending component itself.
    pub fn self_in<M: Any>(&mut self, delay: SimDuration, payload: M) {
        let id = self.self_id;
        self.send_in(delay, id, payload);
    }

    /// The shared deterministic RNG.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// The statistics registry.
    pub fn stats(&mut self) -> &mut StatsRegistry {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Simulation;

    /// A component that counts deliveries and echoes to itself `n` times.
    struct Echo {
        remaining: u32,
        seen: u32,
        seen_id: crate::stats::CounterId,
    }

    impl Component for Echo {
        fn handle(&mut self, ev: Box<dyn Any>, ctx: &mut Ctx) {
            let _msg: Box<u32> = ev.downcast().expect("echo expects u32");
            self.seen += 1;
            ctx.stats()[self.seen_id].inc();
            if self.remaining > 0 {
                self.remaining -= 1;
                ctx.self_in(SimDuration::from_nanos(10), 0u32);
            }
        }
        fn name(&self) -> &str {
            "echo"
        }
        fn register_stats(&mut self, stats: &mut StatsRegistry) {
            self.seen_id = stats.register_counter("echo", "seen");
        }
    }

    #[test]
    fn self_scheduling_advances_time() {
        let mut sim = Simulation::new(1);
        let id = sim.reserve_id();
        sim.register(
            id,
            Echo {
                remaining: 4,
                seen: 0,
                seen_id: crate::stats::CounterId::UNREGISTERED,
            },
        );
        sim.schedule_at(SimTime::ZERO, id, 0u32);
        sim.run();
        assert_eq!(sim.now(), SimTime::ZERO + SimDuration::from_nanos(40));
        assert_eq!(sim.stats().counter_value("echo", "seen"), Some(5));
    }

    #[test]
    fn component_id_debug_format() {
        assert_eq!(format!("{:?}", ComponentId::from_raw(7)), "#7");
        assert_eq!(ComponentId::from_raw(7).index(), 7);
    }
}
