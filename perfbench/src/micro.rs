//! Host cost of single operations inside the engine and the wire codec,
//! timed from outside through their public functions.

use std::any::Any;
use std::hint::black_box;
use std::time::Instant;

use acc_proto::{packetize, InicPacket};
use acc_sim::{Component, Ctx, SimDuration, SimTime, Simulation, StatsRegistry};

use crate::report::median;

const REPS: usize = 5;

/// Median over [`REPS`] samples of `f`, which returns (elapsed ns,
/// operations done).
fn per_op_ns(mut f: impl FnMut() -> (f64, u64)) -> f64 {
    let samples: Vec<f64> = (0..REPS)
        .map(|_| {
            let (ns, ops) = f();
            ns / ops as f64
        })
        .collect();
    median(&samples)
}

/// Re-schedules an event to itself until `remaining` runs out.
struct Bouncer {
    remaining: u64,
}

impl Component for Bouncer {
    fn handle(&mut self, _ev: Box<dyn Any>, ctx: &mut Ctx) {
        if self.remaining > 0 {
            self.remaining -= 1;
            ctx.self_in(SimDuration::from_nanos(10), ());
        }
    }
    fn name(&self) -> &str {
        "bouncer"
    }
}

/// Host ns per dispatched event on a self-event chain.
pub fn event_ns() -> f64 {
    const CHAIN: u64 = 200_000;
    per_op_ns(|| {
        let mut sim = Simulation::new(0);
        let id = sim.add(Bouncer { remaining: CHAIN });
        sim.schedule_at(SimTime::ZERO, id, ());
        let t0 = Instant::now();
        // acc-lint: allow(R6, reason = "a bounded self-event chain: the bouncer stops after CHAIN events")
        sim.run();
        let ns = t0.elapsed().as_nanos() as f64;
        let events = sim.events_processed();
        assert_eq!(events, CHAIN + 1, "chain dispatched every event");
        (ns, events)
    })
}

/// Host ns per `StatsRegistry::counter(..).inc()` hit on an existing counter.
pub fn counter_ns() -> f64 {
    const HITS: u64 = 1_000_000;
    per_op_ns(|| {
        let mut reg = StatsRegistry::new();
        reg.counter("port", "frames_out").inc();
        let t0 = Instant::now();
        for _ in 0..HITS {
            black_box(&mut reg).counter("port", "frames_out").inc();
        }
        let ns = t0.elapsed().as_nanos() as f64;
        assert_eq!(reg.counter_value("port", "frames_out"), Some(HITS + 1));
        (ns, HITS)
    })
}

/// Host ns per INIC packet to packetize, encode and decode a message of
/// `message_bytes`.
pub fn inic_codec_ns(message_bytes: usize) -> f64 {
    const MIN_PACKETS: u64 = 20_000;
    let data: Vec<u8> = (0..message_bytes).map(|i| (i % 251) as u8).collect();
    per_op_ns(|| {
        let mut packets = 0u64;
        let t0 = Instant::now();
        while packets < MIN_PACKETS {
            for pkt in packetize(1, 7, black_box(&data)) {
                let back = InicPacket::decode(&pkt.encode()).expect("own encoding decodes");
                assert_eq!(back, pkt, "codec round trip");
                packets += 1;
            }
        }
        (t0.elapsed().as_nanos() as f64, packets)
    })
}
