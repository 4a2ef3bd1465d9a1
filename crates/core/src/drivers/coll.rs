//! The collective-engine program — one rank of any `acc-coll` schedule.
//!
//! Where the FFT and sort programs hard-code their application's
//! exchange pattern, this one *interprets* a per-rank [`Schedule`]
//! compiled by `acc-coll`'s builders: one stage per schedule round, so
//! adding an algorithm to the engine needs no driver changes at all. The
//! same rounds drive all three execution paths:
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
//! A round is one exchange, then a charge for its host folds and any
//! modelled local sweep; a round with no transfers only charges its
//! sweep, and an entirely empty round falls straight through. The core
//! runs rounds strictly in order on each rank, so per-round streams are
//! announced exactly once and stale completions cannot exist within an
//! epoch. Ranks still slide against each other — the cards buffer early
//! packets until the local rank announces the stream, and the core
//! buffers early TCP legs.
//!
//! A checkpoint is the working state after a round, so a resume
//! re-enters at the cluster-wide minimum completed round. After a
//! rank-local failover the healthy ranks keep their cards and split
//! each remaining round via [`acc_coll::recovery::split_round`]: legs
//! touching the dead rank ride the fallback `TcpHostNic`, and a
//! combined-mode fold whose source died falls back to host arithmetic.

use acc_coll::plan::{ranges_elems, RecvSpec};
use acc_coll::recovery::{split_round, RoundLegs};
use acc_coll::{OffloadPlan, RecvOp, Schedule};
use acc_fpga::{Bitstream, GatherKind, InicRecover, ScatterKind};
use acc_host::HostKernels;
use acc_sim::{Ctx, SimDuration};

use super::{Attachment, ExchangeDone, ExchangePlan, LegLen, Program, Rank, Step};

/// One rank of a compiled schedule.
pub(crate) struct Coll {
    kernels: HostKernels,
    schedule: Schedule,
    /// The pre-validated card datapath (INIC attachments only).
    offload: Option<OffloadPlan>,
    state: Vec<f64>,
    input: Vec<f64>,
    /// The open round's transport partition, computed once when the
    /// round opens and read again when its exchange completes.
    legs: Option<RoundLegs>,
    /// Elements of the last exchange's `Sum` receives the card did not
    /// fold: host arithmetic to charge.
    host_sum_elems: u64,
}

impl Coll {
    /// Rank `rank` of a compiled schedule. `offload` must be `Some`
    /// exactly on INIC attachments — the caller validates the CLB budget
    /// *before* wiring the cluster, so an over-capacity schedule is a
    /// structured error, not a sim-time panic.
    pub(crate) fn new(
        rank: usize,
        p: usize,
        schedule: Schedule,
        input: Vec<f64>,
        kernels: HostKernels,
        offload: Option<OffloadPlan>,
    ) -> Coll {
        assert!(rank < p, "rank {rank} out of range for p={p}");
        assert!(
            schedule
                .rounds
                .iter()
                .all(|r| r.sends.iter().all(|s| s.to < p) && r.recvs.iter().all(|r| r.from < p)),
            "schedule references a rank beyond p={p}"
        );
        Coll {
            kernels,
            schedule,
            offload,
            state: Vec::new(),
            input,
            legs: None,
            host_sum_elems: 0,
        }
    }

    /// The rank's output slice of the final state, once done.
    pub(crate) fn result(&self) -> &[f64] {
        &self.state[self.schedule.output.clone()]
    }

    /// Modelled local-sweep charge (memory-bound streaming over the
    /// round's `compute_elems` doubles).
    fn sweep_time(&self, elems: usize) -> SimDuration {
        self.kernels.reduce_time(elems as u64, 1)
    }

    /// Whether the configured bitstream carries a `ReduceSum` stage.
    fn card_folds(&self) -> bool {
        self.offload.as_ref().is_some_and(|plan| plan.needs_reduce)
    }

    /// Round `round`'s transport partition. On the host-TCP path every
    /// leg rides TCP; on an INIC only the legs touching a dead peer do
    /// (with no dead peers everything is on the card).
    fn round_legs(&self, rank: &Rank, round: usize) -> RoundLegs {
        let round = &self.schedule.rounds[round];
        match rank.attachment {
            Attachment::Tcp { .. } => RoundLegs {
                card_sends: Vec::new(),
                tcp_sends: round.sends.clone(),
                card_recvs: Vec::new(),
                tcp_recvs: round.recvs.clone(),
                card_fold: false,
            },
            Attachment::Inic { .. } => split_round(round, &rank.dead, self.card_folds()),
        }
    }

    /// A round as an exchange. Sends to healthy peers ride a unicast
    /// card scatter and receives from them one card gather — the fused
    /// `ReduceF64` fold when the card folds the round, a raw gather
    /// otherwise; every other leg rides TCP. Every payload is written as
    /// little-endian f64s straight from the state: the card sends and
    /// the own contribution into one pre-sized scatter buffer, each TCP
    /// send into its own message.
    fn round_plan(&self, rank: &Rank, legs: &RoundLegs) -> ExchangePlan {
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
            parts.push((rank.rank as u32, elems * 8));
            let sources = vec![
                (recv.from as u32, Some(elems * 8)),
                (rank.rank as u32, Some(elems * 8)),
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
            rank.epoch > 0 || rank.attachment.inic_mode().is_none() || legs.uses_card(),
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
}

impl Program for Coll {
    type Snapshot = Vec<f64>;
    const NAME: &'static str = "coll-driver";

    fn stages(&self) -> usize {
        self.schedule.rounds.len()
    }

    /// One exchange tag per round.
    fn exchanges(&self) -> usize {
        self.schedule.rounds.len()
    }

    fn bitstream(&self, _rank: &Rank) -> Bitstream {
        let plan = self.offload.as_ref().expect("INIC attachment has a plan");
        plan.bitstream.clone()
    }

    fn step(&mut self, rank: &Rank, stage: usize, step: usize) -> Option<Step> {
        let round = &self.schedule.rounds[stage];
        let phase = round.phase;
        let transfers = !(round.sends.is_empty() && round.recvs.is_empty());
        match step {
            0 => {
                Schedule::apply_copies(round, &mut self.state);
                if !transfers {
                    // Pure local round: charge any modelled compute; an
                    // entirely empty round falls straight through.
                    let elems = round.compute_elems;
                    return (elems > 0).then(|| Step::Charge {
                        phase,
                        time: self.sweep_time(elems),
                    });
                }
                let legs = self.round_legs(rank, stage);
                let plan = self.round_plan(rank, &legs);
                self.legs = Some(legs);
                Some(Step::Exchange { phase, plan })
            }
            // Transfers done: charge the host folds and the modelled
            // sweep.
            1 if transfers => {
                let mut time = SimDuration::ZERO;
                if self.host_sum_elems > 0 {
                    time += self.kernels.reduce_time(self.host_sum_elems, 2);
                }
                if round.compute_elems > 0 {
                    time += self.sweep_time(round.compute_elems);
                }
                (time > SimDuration::ZERO).then_some(Step::Charge { phase, time })
            }
            _ => None,
        }
    }

    /// The round's transfers are in: fold them into the state (host
    /// arithmetic for every `Sum` the card did not fold).
    fn on_exchange(&mut self, _rank: &Rank, done: ExchangeDone) {
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
                // Raw concatenation sorted by source rank (one stream per
                // source); slice it back to the schedule's receives.
                legs.card_recvs.sort_unstable_by_key(|r| r.from);
                let bounds = g.bucket_bounds.unwrap_or_else(|| vec![g.data.len()]);
                assert_eq!(bounds.len(), legs.card_recvs.len(), "one bucket per source");
                let mut at = 0usize;
                for (recv, &end) in legs.card_recvs.iter().zip(&bounds) {
                    apply(recv, &g.data[at..end], &mut self.state);
                    at = end;
                }
            }
        }
        for ((_, bytes), recv) in done.legs.iter().zip(&legs.tcp_recvs) {
            apply(recv, bytes, &mut self.state);
        }
        self.host_sum_elems = host_sum_elems;
    }

    fn snapshot(&self) -> Vec<f64> {
        self.state.clone()
    }

    fn restore(&mut self, _rank: &Rank, snapshot: Option<Vec<f64>>) {
        self.legs = None;
        self.state = snapshot.unwrap_or_else(|| self.schedule.init_state(&self.input));
    }

    /// A healthy rank first tells its card the peer is dead and cancels
    /// the in-flight stream: otherwise the abandoned card's retransmit
    /// backoff into the void outlives the run deadline.
    fn before_full_restart(
        &mut self,
        rank: &Rank,
        node: usize,
        stream: Option<u32>,
        ctx: &mut Ctx,
    ) {
        if let Attachment::Inic { card, macs, .. } = &rank.attachment {
            if rank.rank != node {
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
    }

    fn wait_detail(&self, _rank: &Rank, stage: usize, _step: usize) -> Option<String> {
        Some(format!("round {stage}/{}", self.schedule.rounds.len()))
    }
}
