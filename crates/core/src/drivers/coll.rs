//! The collective-engine driver — one rank of any `acc-coll` schedule.
//!
//! Where the FFT and sort drivers hard-code their application's
//! exchange pattern, this driver *interprets* a per-rank
//! [`Schedule`](acc_coll::Schedule) compiled by `acc-coll`'s builders:
//! the same rounds drive all three execution paths, so adding an
//! algorithm to the engine needs no driver changes at all.
//!
//! * **Host-TCP path** (commodity technologies): each round's sends go
//!   out as one TCP message per peer on a per-round channel; `Sum`
//!   receives fold on the host at the calibrated streaming-reduction
//!   rate.
//! * **Combined INIC path**: the card is configured with the
//!   [`Bitstream::collective`](acc_fpga::Bitstream::collective)
//!   datapath (stream router sized to the fan-out, `ReduceSum` only
//!   when the schedule folds data). A `Sum` round becomes a `ReduceF64`
//!   gather — the card accumulates the peer's stream against this
//!   rank's looped-back contribution and only the folded result crosses
//!   to the host, so the host does **zero arithmetic**. Copy/Discard
//!   rounds are raw gathers; sends ride a [`ScatterKind::Unicast`]
//!   per-destination scatter.
//! * **Protocol-only INIC path**: raw gathers and unicast scatters —
//!   the wire protocol is offloaded, the arithmetic stays on the host.
//!
//! Rounds are strictly ordered on each rank: the driver never issues
//! round `t + 1` card requests before round `t`'s gather and scatter
//! both completed, so per-round streams are announced exactly once and
//! stale completions cannot exist within an epoch. Ranks still slide
//! against each other — the cards buffer early packets until the local
//! rank announces the stream.
//!
//! # Fault recovery
//!
//! The driver survives mid-schedule card deaths under every
//! [`RecoveryPolicy`](super::RecoveryPolicy) through the shared
//! recovery core (`drivers::handle`); what it adds is its data
//! handling:
//!
//! * **Round checkpoints** — under [`RecoveryPolicy::Checkpointed`](super::RecoveryPolicy::Checkpointed)
//!   every completed round snapshots the working state, so a resume
//!   re-enters at the cluster-wide minimum completed round instead of
//!   from scratch.
//! * **Failover epochs** — streams and TCP channels are namespaced by
//!   the core's failover epoch (round tags), so pre-failure traffic can
//!   never complete a post-failure round.
//! * **Mixed-technology rounds** — after a rank-local failover the
//!   healthy ranks keep their cards and split each remaining round via
//!   [`acc_coll::recovery::split_round`]: legs touching the dead rank
//!   ride the fallback `TcpHostNic`, and a combined-mode fold whose
//!   source died falls back to host arithmetic.
//! * **Full restart** — before abandoning a still-healthy card, this
//!   driver tells it the peer is dead and aborts the in-flight stream
//!   (see [`CollDriver`]'s `reset` hook), so the card's retransmit
//!   backoff cannot outlive the run.

use std::any::Any;
use std::collections::BTreeMap;

use acc_coll::plan::{ranges_elems, RecvSpec, Round};
use acc_coll::recovery::{split_round, RoundLegs};
use acc_coll::{bytes_to_f64s, f64s_to_bytes, OffloadPlan, RecvOp, Schedule};
use acc_fpga::{
    Bitstream, GatherKind, InicExpect, InicGatherComplete, InicRecover, InicScatter,
    InicScatterDone, ScatterKind,
};
use acc_host::HostKernels;
use acc_proto::{TcpDelivered, TcpSend};
use acc_sim::{Component, Ctx, SimDuration, SimTime};

use super::{Attachment, Driver, DriverCore, DriverProgress};

/// Timing record of one collective run.
#[derive(Clone, Debug, Default)]
pub struct CollTimings {
    /// Wall time spent waiting on round transfers (wire + card).
    pub comm: SimDuration,
    /// Host compute time (`Sum` folds on the host paths, modelled local
    /// sweeps of composed workloads). Zero for pure collectives on the
    /// combined INIC path.
    pub compute: SimDuration,
    /// Completion instant.
    pub done_at: Option<SimTime>,
    /// Start instant (post-configuration).
    pub started_at: Option<SimTime>,
}

/// Per-node schedule interpreter.
pub struct CollDriver {
    core: DriverCore,
    kernels: HostKernels,
    schedule: Schedule,
    /// The pre-validated card datapath (INIC attachments only).
    offload: Option<OffloadPlan>,
    state: Vec<f64>,
    input: Vec<f64>,
    round: usize,
    /// Inbound TCP bytes keyed by `(src rank, round channel)` — peers
    /// may run ahead, so future rounds accumulate here until we arrive.
    rx: BTreeMap<(usize, u16), Vec<u8>>,
    await_gather: bool,
    await_scatter: bool,
    /// Whether the current INIC round still waits on fallback-TCP legs
    /// (receives rerouted around a dead peer).
    await_tcp: bool,
    in_charge: bool,
    /// Host-fold element count parked across the gather/scatter/TCP
    /// completion race of one INIC round.
    pending_sum_elems: u64,
    round_started: SimTime,
    charge_started: SimTime,
    phase_entered: SimTime,
    current_phase: &'static str,
    started: bool,
    done: bool,
    /// Round-level checkpoints: completed-round count → state snapshot.
    /// Armed only under the checkpointed policy with a coordinator.
    ckpts: BTreeMap<u32, Vec<f64>>,
    /// Timing decomposition.
    pub timings: CollTimings,
}

impl CollDriver {
    /// Build a driver for one rank of a compiled schedule. `offload`
    /// must be `Some` exactly when the attachment is an INIC — the
    /// caller validates the CLB budget *before* wiring the cluster, so
    /// an over-capacity schedule is a structured error, not a sim-time
    /// panic.
    pub fn new(
        rank: usize,
        p: usize,
        schedule: Schedule,
        input: Vec<f64>,
        attachment: Attachment,
        kernels: HostKernels,
        offload: Option<OffloadPlan>,
    ) -> CollDriver {
        assert!(rank < p, "rank {rank} out of range for p={p}");
        assert!(
            schedule
                .rounds
                .iter()
                .all(|r| r.sends.iter().all(|s| s.to < p) && r.recvs.iter().all(|r| r.from < p)),
            "schedule references a rank beyond p={p}"
        );
        assert_eq!(
            matches!(attachment, Attachment::Inic { .. }),
            offload.is_some(),
            "offload plan must accompany exactly the INIC attachments"
        );
        assert!(
            schedule.rounds.len() < u16::MAX as usize,
            "round index must fit the TCP channel id"
        );
        CollDriver {
            core: DriverCore::new(format!("coll-driver{rank}"), rank, attachment),
            kernels,
            schedule,
            offload,
            state: Vec::new(),
            input,
            round: 0,
            rx: BTreeMap::new(),
            await_gather: false,
            await_scatter: false,
            await_tcp: false,
            in_charge: false,
            pending_sum_elems: 0,
            round_started: SimTime::ZERO,
            charge_started: SimTime::ZERO,
            phase_entered: SimTime::ZERO,
            current_phase: "init",
            started: false,
            done: false,
            ckpts: BTreeMap::new(),
            timings: CollTimings::default(),
        }
    }

    /// The rank's output slice of the final state, once done.
    pub fn result(&self) -> Vec<f64> {
        assert!(self.done, "driver not finished");
        self.state[self.schedule.output.clone()].to_vec()
    }

    /// Whether the run completed.
    pub fn is_done(&self) -> bool {
        self.done
    }

    fn phase_name(&self) -> &'static str {
        self.current_phase
    }

    fn current_round(&self) -> &Round {
        &self.schedule.rounds[self.round]
    }

    /// Epoch-namespaced round tag: the clean run (epoch 0) reduces to
    /// the bare round index, so its wire traffic is byte-identical to
    /// the pre-recovery engine.
    fn round_tag(&self) -> u64 {
        let tag = self.core.epoch * (self.schedule.rounds.len() as u64 + 1) + self.round as u64;
        assert!(
            tag < u16::MAX as u64,
            "{}: epoch {} round {} overflows the channel id",
            self.core.label,
            self.core.epoch,
            self.round
        );
        tag
    }

    fn stream(&self) -> u32 {
        self.round_tag() as u32 + 1
    }

    fn chan(&self) -> u16 {
        self.round_tag() as u16
    }

    /// Advance past a completed round, snapshotting the state when
    /// checkpoints are armed.
    fn advance_round(&mut self) {
        self.round += 1;
        if self.core.ckpt_armed() {
            self.ckpts.insert(self.round as u32, self.state.clone());
        }
    }

    /// (Re)start the schedule at `self.round` from `state`.
    fn enter(&mut self, state: Vec<f64>, ctx: &mut Ctx) {
        self.timings.started_at.get_or_insert(ctx.now());
        self.started = true;
        self.state = state;
        self.phase_entered = ctx.now();
        self.start_round(ctx);
    }

    /// Enter rounds from `self.round` until one blocks on the network
    /// or a charge window, or the schedule ends.
    fn start_round(&mut self, ctx: &mut Ctx) {
        loop {
            if self.round == self.schedule.rounds.len() {
                self.finish(ctx);
                return;
            }
            let phase = self.current_round().phase;
            if phase != self.current_phase {
                self.current_phase = phase;
                self.phase_entered = ctx.now();
            }
            let round = self.current_round().clone();
            Schedule::apply_copies(&round, &mut self.state);
            if round.sends.is_empty() && round.recvs.is_empty() {
                // Pure local round: charge any modelled compute and move
                // on; an entirely empty round falls straight through.
                if round.compute_elems > 0 {
                    self.charge(ctx, self.sweep_time(round.compute_elems));
                    return;
                }
                self.advance_round();
                continue;
            }
            self.round_started = ctx.now();
            match &self.core.attachment {
                Attachment::Tcp { .. } => self.issue_tcp_round(&round, ctx),
                Attachment::Inic { .. } => self.issue_inic_round(&round, ctx),
            }
            return;
        }
    }

    /// Modelled local-sweep charge (memory-bound streaming over the
    /// round's `compute_elems` doubles).
    fn sweep_time(&self, elems: usize) -> SimDuration {
        self.kernels.reduce_time(elems as u64, 1)
    }

    fn charge(&mut self, ctx: &mut Ctx, t: SimDuration) {
        self.in_charge = true;
        self.charge_started = ctx.now();
        self.core.timer_in(ctx, t, ());
    }

    // ---- host-TCP path -------------------------------------------------

    fn issue_tcp_round(&mut self, round: &Round, ctx: &mut Ctx) {
        let (nic, macs) = match &self.core.attachment {
            Attachment::Tcp { nic, macs } => (*nic, macs.clone()),
            Attachment::Inic { .. } => unreachable!("TCP round on an INIC attachment"),
        };
        let chan = self.chan();
        for send in &round.sends {
            ctx.send_now(
                nic,
                TcpSend {
                    peer: macs[send.to],
                    chan,
                    data: f64s_to_bytes(&Schedule::gather(&send.ranges, &self.state)),
                },
            );
        }
        // Peers running ahead may already have delivered everything.
        self.try_complete_tcp_round(ctx);
    }

    fn try_complete_tcp_round(&mut self, ctx: &mut Ctx) {
        if self.done || !self.started || self.core.paused || self.in_charge || !self.is_tcp() {
            return;
        }
        if self.round == self.schedule.rounds.len() {
            return;
        }
        let chan = self.chan();
        let round = self.current_round().clone();
        let complete = round.recvs.iter().all(|r| {
            let want = ranges_elems(&r.ranges) * 8;
            self.rx
                .get(&(r.from, chan))
                .is_some_and(|b| b.len() >= want)
        });
        if !complete {
            return;
        }
        let mut sum_elems = 0u64;
        for recv in &round.recvs {
            let bytes = self
                .rx
                .remove(&(recv.from, chan))
                .expect("completeness checked");
            assert_eq!(
                bytes.len(),
                ranges_elems(&recv.ranges) * 8,
                "{}: round {} message from rank {} over-delivered",
                self.core.label,
                self.round,
                recv.from
            );
            if recv.op == RecvOp::Sum {
                sum_elems += ranges_elems(&recv.ranges) as u64;
            }
            Schedule::apply_recv(recv, &bytes_to_f64s(&bytes), &mut self.state);
        }
        self.close_round(ctx, &round, sum_elems);
    }

    fn is_tcp(&self) -> bool {
        matches!(self.core.attachment, Attachment::Tcp { .. })
    }

    // ---- INIC paths ----------------------------------------------------

    /// Whether the configured bitstream carries a `ReduceSum` stage.
    fn card_folds(&self) -> bool {
        self.offload.as_ref().is_some_and(|plan| plan.needs_reduce)
    }

    /// The current round's transport partition. With no dead peers this
    /// reproduces the round exactly (everything on the card).
    fn current_legs(&self) -> RoundLegs {
        split_round(self.current_round(), &self.core.dead, self.card_folds())
    }

    fn issue_inic_round(&mut self, round: &Round, ctx: &mut Ctx) {
        let (card, macs) = match &self.core.attachment {
            Attachment::Inic { card, macs, .. } => (*card, macs.clone()),
            Attachment::Tcp { .. } => unreachable!("INIC round on a TCP attachment"),
        };
        let legs = split_round(round, &self.core.dead, self.card_folds());
        let stream = self.stream();
        let mut data = Vec::new();
        let mut parts: Vec<(u32, usize)> = Vec::new();
        for send in &legs.card_sends {
            let bytes = f64s_to_bytes(&Schedule::gather(&send.ranges, &self.state));
            parts.push((send.to as u32, bytes.len()));
            data.extend_from_slice(&bytes);
        }
        if legs.card_fold {
            // One fused gather: the card folds the peer stream against
            // this rank's looped-back contribution, element-wise.
            let recv = &legs.card_recvs[0];
            let elems = ranges_elems(&recv.ranges);
            let own = f64s_to_bytes(&Schedule::gather(&recv.ranges, &self.state));
            parts.push((self.core.rank as u32, own.len()));
            data.extend_from_slice(&own);
            ctx.send_now(
                card,
                InicExpect {
                    stream,
                    kind: GatherKind::ReduceF64 { elems },
                    sources: vec![
                        (recv.from as u32, Some(elems * 8)),
                        (self.core.rank as u32, Some(elems * 8)),
                    ],
                },
            );
            self.await_gather = true;
        } else if !legs.card_recvs.is_empty() {
            // Raw gather, one inbound stream per source; the card hands
            // back the concatenation sorted by source rank.
            let mut froms: Vec<u32> = legs.card_recvs.iter().map(|r| r.from as u32).collect();
            froms.sort_unstable();
            froms.dedup();
            assert_eq!(
                froms.len(),
                legs.card_recvs.len(),
                "raw-gather rounds receive at most one message per source"
            );
            ctx.send_now(
                card,
                InicExpect {
                    stream,
                    kind: GatherKind::Raw,
                    sources: legs
                        .card_recvs
                        .iter()
                        .map(|r| (r.from as u32, Some(ranges_elems(&r.ranges) * 8)))
                        .collect(),
                },
            );
            self.await_gather = true;
        }
        if !parts.is_empty() {
            ctx.send_now(
                card,
                InicScatter {
                    stream,
                    kind: ScatterKind::Unicast { parts },
                    data,
                    dests: macs,
                },
            );
            self.await_scatter = true;
        }
        // Legs around dead peers ride the commodity fallback NIC.
        if legs.uses_tcp() {
            let (fb_nic, fb_macs) = match &self.core.attachment {
                Attachment::Inic {
                    fallback: Some(fb), ..
                } => fb.clone(),
                _ => panic!(
                    "{}: degraded round without a wired fallback path",
                    self.core.label
                ),
            };
            let chan = self.chan();
            for send in &legs.tcp_sends {
                ctx.send_now(
                    fb_nic,
                    TcpSend {
                        peer: fb_macs[send.to],
                        chan,
                        data: f64s_to_bytes(&Schedule::gather(&send.ranges, &self.state)),
                    },
                );
            }
            self.await_tcp = !legs.tcp_recvs.is_empty();
        }
        if self.core.epoch == 0 {
            debug_assert!(
                self.await_gather || self.await_scatter,
                "a non-local round must touch the card"
            );
        }
        if !(self.await_gather || self.await_scatter || self.await_tcp) {
            // Every counterparty is dead and nothing is expected back:
            // the round closes on the spot.
            let round = self.current_round().clone();
            let sum = std::mem::take(&mut self.pending_sum_elems);
            self.close_round(ctx, &round, sum);
            return;
        }
        // A degraded peer running ahead may have pre-delivered its legs.
        self.try_complete_inic_tcp_legs(ctx);
    }

    /// Complete the fallback-TCP legs of the current INIC round, if all
    /// their bytes have arrived.
    fn try_complete_inic_tcp_legs(&mut self, ctx: &mut Ctx) {
        if !self.await_tcp || self.done || self.core.paused || self.in_charge {
            return;
        }
        let chan = self.chan();
        let legs = self.current_legs();
        let complete = legs.tcp_recvs.iter().all(|r| {
            let want = ranges_elems(&r.ranges) * 8;
            self.rx
                .get(&(r.from, chan))
                .is_some_and(|b| b.len() >= want)
        });
        if !complete {
            return;
        }
        let mut host_sum_elems = 0u64;
        for recv in &legs.tcp_recvs {
            let bytes = self
                .rx
                .remove(&(recv.from, chan))
                .expect("completeness checked");
            assert_eq!(
                bytes.len(),
                ranges_elems(&recv.ranges) * 8,
                "{}: round {} fallback leg from rank {} over-delivered",
                self.core.label,
                self.round,
                recv.from
            );
            if recv.op == RecvOp::Sum {
                host_sum_elems += ranges_elems(&recv.ranges) as u64;
            }
            Schedule::apply_recv(recv, &bytes_to_f64s(&bytes), &mut self.state);
        }
        self.await_tcp = false;
        self.maybe_close_inic_round(ctx, host_sum_elems);
    }

    fn on_gather_complete(&mut self, g: InicGatherComplete, ctx: &mut Ctx) {
        if self.core.epoch > 0 && (self.done || g.stream != self.stream() || !self.await_gather) {
            // A pre-failover stream completing against a dead epoch.
            return;
        }
        assert_eq!(g.stream, self.stream(), "{}: stale gather", self.core.label);
        assert!(self.await_gather, "{}: unexpected gather", self.core.label);
        self.await_gather = false;
        let legs = self.current_legs();
        let mut host_sum_elems = 0u64;
        if legs.card_fold {
            // The card already folded own + peer; overwrite in place.
            let recv = &legs.card_recvs[0];
            let folded = RecvSpec {
                from: recv.from,
                ranges: recv.ranges.clone(),
                op: RecvOp::Copy,
            };
            Schedule::apply_recv(&folded, &bytes_to_f64s(&g.data), &mut self.state);
        } else {
            // Raw concatenation sorted by source rank; slice it back to
            // the schedule's receives and fold on the host.
            let mut order: Vec<usize> = (0..legs.card_recvs.len()).collect();
            order.sort_by_key(|&i| legs.card_recvs[i].from);
            let bounds = g.bucket_bounds.unwrap_or_else(|| vec![g.data.len()]);
            assert_eq!(bounds.len(), legs.card_recvs.len(), "one bucket per source");
            let mut at = 0usize;
            for (slot, &i) in order.iter().enumerate() {
                let recv = &legs.card_recvs[i];
                let bytes = &g.data[at..bounds[slot]];
                at = bounds[slot];
                if recv.op == RecvOp::Sum {
                    host_sum_elems += ranges_elems(&recv.ranges) as u64;
                }
                Schedule::apply_recv(recv, &bytes_to_f64s(bytes), &mut self.state);
            }
        }
        self.maybe_close_inic_round(ctx, host_sum_elems);
    }

    fn maybe_close_inic_round(&mut self, ctx: &mut Ctx, host_sum_elems: u64) {
        self.pending_sum_elems += host_sum_elems;
        if self.await_gather || self.await_scatter || self.await_tcp {
            return;
        }
        let round = self.current_round().clone();
        let sum_elems = std::mem::take(&mut self.pending_sum_elems);
        self.close_round(ctx, &round, sum_elems);
    }

    // ---- shared round epilogue ----------------------------------------

    /// Transfers done: account comm, charge host compute (folds + the
    /// modelled sweep), then advance.
    fn close_round(&mut self, ctx: &mut Ctx, round: &Round, host_sum_elems: u64) {
        self.timings.comm += ctx.now().since(self.round_started);
        let mut t = SimDuration::ZERO;
        if host_sum_elems > 0 {
            t += self.kernels.reduce_time(host_sum_elems, 2);
        }
        if round.compute_elems > 0 {
            t += self.sweep_time(round.compute_elems);
        }
        if t > SimDuration::ZERO {
            self.charge(ctx, t);
        } else {
            self.advance_round();
            self.start_round(ctx);
        }
    }

    fn finish(&mut self, ctx: &mut Ctx) {
        self.timings.done_at = Some(ctx.now());
        self.done = true;
        self.current_phase = "done";
        self.phase_entered = ctx.now();
        if self.core.epoch == 0 {
            // Post-failover, bytes parked on dead-epoch channels are
            // expected leftovers; on a clean run they are a protocol bug.
            assert!(
                self.rx.is_empty(),
                "{}: leftover peer bytes at completion",
                self.core.label
            );
        }
        self.core.report_done(ctx);
    }
}

impl Driver for CollDriver {
    /// One kind of charged window: the current round's host compute.
    type Step = ();

    fn core(&self) -> &DriverCore {
        &self.core
    }

    fn core_mut(&mut self) -> &mut DriverCore {
        &mut self.core
    }

    fn progress(&self) -> DriverProgress {
        self.core
            .progress(self.phase_name(), self.phase_entered, self.done)
    }

    fn bitstream(&self) -> Bitstream {
        let plan = self.offload.as_ref().expect("INIC attachment has a plan");
        plan.bitstream.clone()
    }

    fn begin(&mut self, ctx: &mut Ctx) {
        let state = self.schedule.init_state(&self.input);
        self.enter(state, ctx);
    }

    /// Streams announced before the bump can never complete once the
    /// peer set changed: drop the round's outstanding transfers.
    fn abort_in_flight(&mut self) -> Option<u32> {
        let stream = (self.await_gather || self.await_scatter).then(|| self.stream());
        self.await_gather = false;
        self.await_scatter = false;
        self.await_tcp = false;
        self.in_charge = false;
        self.pending_sum_elems = 0;
        stream
    }

    /// Rounds this rank can prove complete. Without checkpoints
    /// (rank-local policy) the honest answer is 0 — a from-scratch
    /// restart.
    fn completed_phase(&self) -> u32 {
        if self.done {
            return self.schedule.rounds.len() as u32;
        }
        self.ckpts.keys().next_back().copied().unwrap_or(0)
    }

    /// Unlike the FFT and sort drivers, a healthy rank first tells its
    /// card the peer is dead and cancels the in-flight stream: otherwise
    /// the abandoned card's retransmit backoff into the void outlives
    /// the run deadline.
    fn reset(&mut self, node: usize, ctx: &mut Ctx) {
        let abort_stream = self.abort_in_flight();
        if let Attachment::Inic { card, macs, .. } = &self.core.attachment {
            if self.core.rank != node {
                let dead = macs[node];
                ctx.send_now(*card, InicRecover { dead, abort_stream });
            }
        }
        self.rx.clear();
        self.ckpts.clear();
        self.done = false;
        self.round = 0;
        let started = self.timings.started_at;
        self.timings = CollTimings::default();
        self.timings.started_at = started;
    }

    /// Every rank resumes from the cluster-wide minimum completed round.
    /// Ranks that already finished rejoin — peers re-executing earlier
    /// rounds need their messages, and the lockstep determinism makes
    /// the re-execution bit-identical.
    fn resume(&mut self, phase: u32, ctx: &mut Ctx) {
        if phase as usize >= self.schedule.rounds.len() {
            return; // every rank had already completed the schedule
        }
        self.done = false;
        self.round = phase as usize;
        let state = if phase == 0 {
            self.schedule.init_state(&self.input)
        } else {
            self.ckpts
                .get(&phase)
                .unwrap_or_else(|| {
                    panic!(
                        "{}: resume round {} without its checkpoint",
                        self.core.label, phase
                    )
                })
                .clone()
        };
        self.enter(state, ctx);
        // Degraded peers running ahead may have pre-delivered their
        // legs for the resumed round.
        self.try_complete_tcp_round(ctx);
        self.try_complete_inic_tcp_legs(ctx);
    }

    fn on_step(&mut self, _charge: (), ctx: &mut Ctx) {
        assert!(
            self.in_charge,
            "{}: stray charge completion",
            self.core.label
        );
        self.in_charge = false;
        self.timings.compute += ctx.now().since(self.charge_started);
        self.advance_round();
        self.start_round(ctx);
        // A peer may have pre-delivered the next round.
        self.try_complete_tcp_round(ctx);
        self.try_complete_inic_tcp_legs(ctx);
    }

    fn on_event(&mut self, ev: Box<dyn Any>, ctx: &mut Ctx) {
        let ev = match ev.downcast::<TcpDelivered>() {
            Ok(d) => {
                let src = self
                    .core
                    .attachment
                    .resolve_src(d.peer)
                    .expect("delivery from an unknown peer");
                self.rx
                    .entry((src, d.chan))
                    .or_default()
                    .extend_from_slice(&d.data);
                self.try_complete_tcp_round(ctx);
                self.try_complete_inic_tcp_legs(ctx);
                return;
            }
            Err(ev) => ev,
        };
        let ev = match ev.downcast::<InicGatherComplete>() {
            Ok(g) => return self.on_gather_complete(*g, ctx),
            Err(ev) => ev,
        };
        let Some(s) = ev.downcast_ref::<InicScatterDone>() else {
            panic!("{}: unknown event", self.core.label);
        };
        if self.core.epoch > 0 && (self.done || s.stream != self.stream() || !self.await_scatter) {
            // A pre-failover scatter completing against a dead epoch.
            return;
        }
        assert_eq!(
            s.stream,
            self.stream(),
            "{}: stale scatter",
            self.core.label
        );
        assert!(
            self.await_scatter,
            "{}: unexpected scatter",
            self.core.label
        );
        self.await_scatter = false;
        self.maybe_close_inic_round(ctx, 0);
    }
}

impl Component for CollDriver {
    fn handle(&mut self, ev: Box<dyn Any>, ctx: &mut Ctx) {
        super::handle(self, ev, ctx);
    }

    fn name(&self) -> &str {
        &self.core.label
    }

    fn wait_state(&self) -> Option<String> {
        if self.done {
            return None;
        }
        Some(format!(
            "rank {} in {} (round {}/{}, epoch {}, gather={}, scatter={}, tcp={}, charge={}{})",
            self.core.rank,
            self.phase_name(),
            self.round,
            self.schedule.rounds.len(),
            self.core.epoch,
            self.await_gather,
            self.await_scatter,
            self.await_tcp,
            self.in_charge,
            self.core.parked(),
        ))
    }
}
