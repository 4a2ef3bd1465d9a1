//! The collective-engine driver — one rank of any `acc-coll` schedule.
//!
//! Where the FFT and sort drivers hard-code their application's
//! exchange pattern, this driver *interprets* a per-rank
//! [`Schedule`] compiled by `acc-coll`'s builders:
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
//! Each round is one exchange of the driver core (`drivers::handle` and
//! its `Exchange`), which waits for the round's gather, its scatter and
//! every TCP leg. Rounds are strictly ordered on each rank: the driver
//! never issues round `t + 1` card requests before round `t` completed,
//! so per-round streams are announced exactly once and stale
//! completions cannot exist within an epoch. Ranks still slide against
//! each other — the cards buffer early packets until the local rank
//! announces the stream, and the core buffers early TCP legs.
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
//! * **Failover epochs** — the core tags streams and TCP channels with
//!   [`acc_coll::recovery::exchange_tag`] (epoch and round), so
//!   pre-failure traffic can never complete a post-failure round.
//! * **Mixed-technology rounds** — after a rank-local failover the
//!   healthy ranks keep their cards and split each remaining round via
//!   [`acc_coll::recovery::split_round`]: legs touching the dead rank
//!   ride the fallback `TcpHostNic`, and a combined-mode fold whose
//!   source died falls back to host arithmetic.
//! * **Full restart** — before abandoning a still-healthy card, this
//!   driver tells it the peer is dead and aborts the in-flight stream
//!   (see [`CollDriver`]'s `reset` hook), so the card's retransmit
//!   backoff cannot outlive the run. The FFT and sort drivers do not.

use std::any::Any;
use std::collections::BTreeMap;

use acc_coll::plan::{ranges_elems, RecvSpec, Round};
use acc_coll::recovery::{split_round, RoundLegs};
use acc_coll::{OffloadPlan, RecvOp, Schedule};
use acc_fpga::{Bitstream, GatherKind, InicRecover, ScatterKind};
use acc_host::HostKernels;
use acc_sim::{Component, Ctx, SimDuration, SimTime, StatsRegistry};

use super::{Attachment, Driver, DriverCore, DriverProgress, ExchangeDone, ExchangePlan, LegLen};

/// Timing record of one collective run.
#[derive(Clone, Debug, Default)]
pub struct CollTimings {
    /// Wall time spent waiting on round transfers (wire + card).
    pub comm: SimDuration,
    /// Host compute time (`Sum` folds on the host paths, modelled local
    /// sweeps of composed workloads). Zero for pure collectives on the
    /// combined INIC path.
    pub compute: SimDuration,
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
    round_started: SimTime,
    charge_started: SimTime,
    phase_entered: SimTime,
    current_phase: &'static str,
    done: bool,
    /// The open round's transport partition, computed once when the
    /// round opens and read again when its exchange completes.
    legs: Option<RoundLegs>,
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
        // One exchange per round.
        let rounds = schedule.rounds.len();
        CollDriver {
            core: DriverCore::new(format!("coll-driver{rank}"), rank, attachment, rounds),
            kernels,
            schedule,
            offload,
            state: Vec::new(),
            input,
            round: 0,
            round_started: SimTime::ZERO,
            charge_started: SimTime::ZERO,
            phase_entered: SimTime::ZERO,
            current_phase: "init",
            done: false,
            legs: None,
            ckpts: BTreeMap::new(),
            timings: CollTimings::default(),
        }
    }

    /// The rank's output slice of the final state, once done.
    pub fn result(&self) -> &[f64] {
        assert!(self.done, "driver not finished");
        &self.state[self.schedule.output.clone()]
    }

    /// Whether the run completed.
    pub fn is_done(&self) -> bool {
        self.done
    }

    fn current_round(&self) -> &Round {
        &self.schedule.rounds[self.round]
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
        self.core.started_at.get_or_insert(ctx.now());
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
            let round = &self.schedule.rounds[self.round];
            if round.phase != self.current_phase {
                self.current_phase = round.phase;
                self.phase_entered = ctx.now();
            }
            Schedule::apply_copies(round, &mut self.state);
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
            let legs = self.current_legs();
            let plan = self.round_plan(&legs);
            self.legs = Some(legs);
            self.open_exchange(self.round, plan, ctx);
            return;
        }
    }

    /// Modelled local-sweep charge (memory-bound streaming over the
    /// round's `compute_elems` doubles).
    fn sweep_time(&self, elems: usize) -> SimDuration {
        self.kernels.reduce_time(elems as u64, 1)
    }

    fn charge(&mut self, ctx: &mut Ctx, t: SimDuration) {
        self.charge_started = ctx.now();
        self.core.timer_in(ctx, t, ());
    }

    /// Whether the configured bitstream carries a `ReduceSum` stage.
    fn card_folds(&self) -> bool {
        self.offload.as_ref().is_some_and(|plan| plan.needs_reduce)
    }

    /// The current round's transport partition. On the host-TCP path
    /// every leg rides TCP; on an INIC only the legs touching a dead
    /// peer do (with no dead peers everything is on the card).
    fn current_legs(&self) -> RoundLegs {
        let round = self.current_round();
        match self.core.attachment {
            Attachment::Tcp { .. } => RoundLegs {
                card_sends: Vec::new(),
                tcp_sends: round.sends.clone(),
                card_recvs: Vec::new(),
                tcp_recvs: round.recvs.clone(),
                card_fold: false,
            },
            Attachment::Inic { .. } => split_round(round, &self.core.dead, self.card_folds()),
        }
    }

    /// The current round as an exchange. Sends to healthy peers ride a
    /// unicast card scatter and receives from them one card gather —
    /// the fused `ReduceF64` fold when the card folds the round, a raw
    /// gather otherwise; every other leg rides TCP. Every payload is
    /// written as little-endian f64s straight from the state: the card
    /// sends and the own contribution into one pre-sized scatter
    /// buffer, each TCP send into its own message.
    fn round_plan(&self, legs: &RoundLegs) -> ExchangePlan {
        let own = legs.card_fold.then(|| &legs.card_recvs[0]);
        let scatter_elems: usize = legs
            .card_sends
            .iter()
            .map(|s| ranges_elems(&s.ranges))
            .chain(own.map(|r| ranges_elems(&r.ranges)))
            .sum();
        let mut data = Vec::with_capacity(scatter_elems * 8);
        let mut parts: Vec<(u32, usize)> = Vec::new();
        for send in &legs.card_sends {
            Schedule::gather_wire(&send.ranges, &self.state, &mut data);
            parts.push((send.to as u32, ranges_elems(&send.ranges) * 8));
        }
        let gather = if let Some(recv) = own {
            // One fused gather: the card folds the peer stream against
            // this rank's looped-back contribution, element-wise.
            let elems = ranges_elems(&recv.ranges);
            Schedule::gather_wire(&recv.ranges, &self.state, &mut data);
            parts.push((self.core.rank as u32, elems * 8));
            let sources = vec![
                (recv.from as u32, Some(elems * 8)),
                (self.core.rank as u32, Some(elems * 8)),
            ];
            Some((GatherKind::ReduceF64 { elems }, sources))
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
            let sources = legs
                .card_recvs
                .iter()
                .map(|r| (r.from as u32, Some(ranges_elems(&r.ranges) * 8)))
                .collect();
            Some((GatherKind::Raw, sources))
        } else {
            None
        };
        debug_assert_eq!(data.len(), scatter_elems * 8);
        debug_assert!(
            self.core.epoch > 0 || self.core.attachment.inic_mode().is_none() || legs.uses_card(),
            "a non-local round must touch the card"
        );
        let tcp_send = |ranges: &[std::ops::Range<usize>]| {
            let mut bytes = Vec::with_capacity(ranges_elems(ranges) * 8);
            Schedule::gather_wire(ranges, &self.state, &mut bytes);
            bytes
        };
        ExchangePlan {
            gather,
            scatter: (!parts.is_empty()).then_some((ScatterKind::Unicast { parts }, data)),
            await_scatter: true,
            sends: legs
                .tcp_sends
                .iter()
                .map(|s| (s.to, tcp_send(&s.ranges)))
                .collect(),
            recvs: legs
                .tcp_recvs
                .iter()
                .map(|r| (r.from, LegLen::Fixed(ranges_elems(&r.ranges) * 8)))
                .collect(),
        }
    }

    /// Transfers done: account comm, charge host compute (folds + the
    /// modelled sweep), then advance.
    fn close_round(&mut self, ctx: &mut Ctx, host_sum_elems: u64) {
        self.timings.comm += ctx.now().since(self.round_started);
        let mut t = SimDuration::ZERO;
        if host_sum_elems > 0 {
            t += self.kernels.reduce_time(host_sum_elems, 2);
        }
        let compute_elems = self.current_round().compute_elems;
        if compute_elems > 0 {
            t += self.sweep_time(compute_elems);
        }
        if t > SimDuration::ZERO {
            self.charge(ctx, t);
        } else {
            self.advance_round();
            self.start_round(ctx);
        }
    }

    fn finish(&mut self, ctx: &mut Ctx) {
        self.done = true;
        self.current_phase = "done";
        self.phase_entered = ctx.now();
        self.core.mark_done(ctx);
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
            .progress(self.current_phase, self.phase_entered, self.done)
    }

    fn bitstream(&self) -> Bitstream {
        let plan = self.offload.as_ref().expect("INIC attachment has a plan");
        plan.bitstream.clone()
    }

    fn begin(&mut self, ctx: &mut Ctx) {
        let state = self.schedule.init_state(&self.input);
        self.enter(state, ctx);
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

    /// A healthy rank first tells its card the peer is dead and cancels
    /// the in-flight stream: otherwise the abandoned card's retransmit
    /// backoff into the void outlives the run deadline.
    fn reset(&mut self, node: usize, stream: Option<u32>, ctx: &mut Ctx) {
        if let Attachment::Inic { card, macs, .. } = &self.core.attachment {
            if self.core.rank != node {
                let dead = macs[node];
                ctx.send_now(
                    *card,
                    InicRecover {
                        dead,
                        abort_stream: stream,
                    },
                );
            }
        }
        self.ckpts.clear();
        self.legs = None;
        self.done = false;
        self.round = 0;
        self.timings = CollTimings::default();
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
    }

    fn on_step(&mut self, _charge: (), ctx: &mut Ctx) {
        self.timings.compute += ctx.now().since(self.charge_started);
        self.advance_round();
        self.start_round(ctx);
    }

    /// The round's transfers are in: fold them into the state (host
    /// arithmetic for every `Sum` the card did not fold) and close it.
    fn on_exchange(&mut self, done: ExchangeDone, ctx: &mut Ctx) {
        let mut legs = self.legs.take().expect("an open round has its legs");
        let mut host_sum_elems = 0u64;
        let mut apply = |recv: &RecvSpec, bytes: &[u8], state: &mut Vec<f64>| {
            if recv.op == RecvOp::Sum {
                host_sum_elems += ranges_elems(&recv.ranges) as u64;
            }
            Schedule::apply_recv_wire(recv, bytes, state);
        };
        if let Some(g) = done.gather {
            if legs.card_fold {
                // The card already folded own + peer; overwrite in place.
                let folded = &mut legs.card_recvs[0];
                folded.op = RecvOp::Copy;
                apply(folded, &g.data, &mut self.state);
            } else {
                // Raw concatenation sorted by source rank; slice it back
                // to the schedule's receives.
                let mut order: Vec<usize> = (0..legs.card_recvs.len()).collect();
                order.sort_by_key(|&i| legs.card_recvs[i].from);
                let bounds = g.bucket_bounds.unwrap_or_else(|| vec![g.data.len()]);
                assert_eq!(bounds.len(), legs.card_recvs.len(), "one bucket per source");
                let mut at = 0usize;
                for (slot, &i) in order.iter().enumerate() {
                    apply(
                        &legs.card_recvs[i],
                        &g.data[at..bounds[slot]],
                        &mut self.state,
                    );
                    at = bounds[slot];
                }
            }
        }
        for ((_, bytes), recv) in done.legs.iter().zip(&legs.tcp_recvs) {
            apply(recv, bytes, &mut self.state);
        }
        self.close_round(ctx, host_sum_elems);
    }

    fn wait_detail(&self) -> Option<String> {
        Some(format!(
            "round {}/{}",
            self.round,
            self.schedule.rounds.len()
        ))
    }
}

impl Component for CollDriver {
    fn handle(&mut self, ev: Box<dyn Any>, ctx: &mut Ctx) {
        super::handle(self, ev, ctx);
    }

    fn name(&self) -> &str {
        &self.core.label
    }

    fn register_stats(&mut self, stats: &mut StatsRegistry) {
        self.core.register_stats(stats);
    }

    fn wait_state(&self) -> Option<String> {
        super::wait_state(self)
    }
}
