//! R10 fixture: string-keyed stats calls on the event path. Checked as
//! if at `crates/net/src/relay.rs`.

impl Component for Relay {
    fn handle(&mut self, ev: Box<dyn Any>, ctx: &mut Ctx) {
        ctx.stats().counter(&self.label, "frames_in").inc();
        ctx.stats()
            .counter(&self.label, "bytes_in")
            .add(64);
        ctx.stats().gauge(&self.label, "depth").set(3.0);
    }
}
