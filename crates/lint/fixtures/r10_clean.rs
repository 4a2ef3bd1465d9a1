//! R10 fixture, clean: handle bumps, post-run string reads, look-alike
//! methods, and one justified string-keyed call. Checked as if at
//! `crates/net/src/relay.rs`.

impl Component for Relay {
    fn handle(&mut self, ev: Box<dyn Any>, ctx: &mut Ctx) {
        ctx.stats()[self.counters.frames_in].inc();
        ctx.stats()[self.depth].set(3.0);
        // A counter field on some other receiver is not the registry.
        self.meter.counter(3).inc();
    }

    fn register_stats(&mut self, stats: &mut StatsRegistry) {
        self.counters = RelayCounters::register(stats, &self.label);
        self.depth = stats.register_gauge(&self.label, "depth");
    }
}

pub fn report(sim: &Simulation) -> u64 {
    sim.stats().counter_value("relay", "frames_in").unwrap_or(0)
}

pub fn probe(sim: &mut Simulation) {
    // acc-lint: allow(R10, reason = "fixture: one-off post-run probe, not on the event path")
    sim.stats_mut().counter("relay", "probe").inc();
}

#[cfg(test)]
mod tests {
    fn seed(stats: &mut StatsRegistry) {
        stats.counter("relay", "frames_in").add(2);
    }
}
