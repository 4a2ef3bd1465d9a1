//! Benchmarks over the simulation substrate itself: raw event
//! throughput of the discrete-event kernel and end-to-end rates for the
//! two NIC stacks. Plain `harness = false` binaries on
//! [`acc_bench::harness`].

use std::any::Any;

use acc_bench::harness::bench;
use acc_core::{ClusterSpec, RunRequest, Technology};
use acc_net::{
    EtherType, EthernetKind, Frame, FrameArrival, LinkParams, MacAddr, Switch, SwitchParams,
};
use acc_sim::{
    Component, ComponentId, Ctx, EventQueue, SimDuration, SimTime, Simulation, StatsRegistry,
};

/// A component that bounces an event to itself `n` times.
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

/// Absorbs frame arrivals; the far end of every switch port in the
/// broadcast-fanout bench.
struct Sink;

impl Component for Sink {
    fn handle(&mut self, _ev: Box<dyn Any>, _ctx: &mut Ctx) {}
    fn name(&self) -> &str {
        "sink"
    }
}

fn main() {
    let events = 100_000u64;
    bench(
        "des_kernel",
        "self_event_chain_100k",
        20,
        Some(events),
        || {
            let mut sim = Simulation::new(0);
            let id = sim.add(Bouncer { remaining: events });
            sim.schedule_at(SimTime::ZERO, id, ());
            sim.run();
            sim.events_processed()
        },
    );

    // The scheduler under a deep pending set — the shape of sort_2e24
    // at p=1024, where the heap paid O(log n) per operation. Steady
    // state: 10k live events, every pop schedules a replacement far in
    // the future so events migrate down the wheel hierarchy.
    let churn_pops = 200_000u64;
    bench(
        "des_kernel",
        "queue_churn_depth_10k",
        20,
        Some(churn_pops),
        || {
            let mut q = EventQueue::new();
            let id = ComponentId::from_raw(0);
            for i in 0..10_000u64 {
                q.push(SimTime::from_ps(i * 37_321), id, Box::new(()));
            }
            let mut last = 0u64;
            for _ in 0..churn_pops {
                let ev = q.pop().expect("queue stays at depth 10k");
                last = ev.time.as_ps();
                q.push(SimTime::from_ps(last + 373_210_000), id, Box::new(()));
            }
            last
        },
    );

    // Broadcast fan-out through the store-and-forward switch: every
    // broadcast replicates to 31 egress ports, which before the shared
    // PayloadView deep-copied ~1 KiB per replica.
    let storms = 500u64;
    let fan_ports = 32usize;
    bench(
        "net_fabric",
        "broadcast_fanout_p32_500",
        10,
        Some(storms * (fan_ports as u64 - 1)),
        || {
            let mut sim = Simulation::new(7);
            let link = LinkParams::for_kind(EthernetKind::Gigabit);
            let sink_ids: Vec<_> = (0..fan_ports).map(|_| sim.reserve_id()).collect();
            let switch_id = sim.reserve_id();
            let mut switch = Switch::new("sw", SwitchParams::default());
            for (i, &sid) in sink_ids.iter().enumerate() {
                switch.attach(MacAddr::for_node(i, 0), sid, 0, link);
                sim.register(sid, Sink);
            }
            sim.register(switch_id, switch);
            for k in 0..storms {
                let frame = Frame::new(
                    MacAddr::for_node(0, 0),
                    MacAddr::BROADCAST,
                    EtherType::Other(0),
                    vec![k as u8; 1024],
                );
                sim.schedule_at(
                    SimTime::ZERO + SimDuration::from_micros(10 * k),
                    switch_id,
                    FrameArrival { port: 0, frame },
                );
            }
            sim.run();
            sim.events_processed()
        },
    );

    // The per-frame stats path: a switch bumps 2-3 counters per frame,
    // so counter lookup cost is pure simulation overhead. Hits an
    // existing counter the way components do — by &str pair.
    let hits = 1_000_000u64;
    bench("des_kernel", "counter_hit_1m", 20, Some(hits), || {
        let mut stats = StatsRegistry::new();
        for scope in ["switch", "nic0", "nic1", "nic2"] {
            stats.counter(scope, "frames_in");
            stats.counter(scope, "frames_fwd");
        }
        for i in 0..hits {
            let scope = match i & 3 {
                0 => "switch",
                1 => "nic0",
                2 => "nic1",
                _ => "nic2",
            };
            stats.counter(scope, "frames_in").inc();
        }
        stats.counter_value("switch", "frames_in").unwrap_or(0)
    });

    let spec = |tech| {
        let mut s = ClusterSpec::new(4, tech);
        s.verify = false;
        s
    };
    bench("cluster_scenarios", "fft_64_gigabit", 10, None, || {
        RunRequest::fft(spec(Technology::GigabitTcp), 64)
            .execute()
            .into_fft()
    });
    bench("cluster_scenarios", "fft_64_inic_ideal", 10, None, || {
        RunRequest::fft(spec(Technology::InicIdeal), 64)
            .execute()
            .into_fft()
    });
    bench("cluster_scenarios", "sort_2e16_gigabit", 10, None, || {
        RunRequest::sort(spec(Technology::GigabitTcp), 1 << 16)
            .execute()
            .into_sort()
    });
    bench(
        "cluster_scenarios",
        "sort_2e16_inic_ideal",
        10,
        None,
        || {
            RunRequest::sort(spec(Technology::InicIdeal), 1 << 16)
                .execute()
                .into_sort()
        },
    );
}
