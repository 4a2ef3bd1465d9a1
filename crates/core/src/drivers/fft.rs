//! The per-node 2D-FFT driver — the FFTW parallel template of
//! Section 3.1 on every network technology.
//!
//! The four steps (❶ row FFTs, ❷ transpose, ❸ row FFTs, ❹ transpose) are
//! a per-node state machine. Compute steps are identical across
//! technologies (charged through [`HostKernels`], executed for real on
//! the slab). The transpose differs:
//!
//! * **commodity NIC** (Fig. 2(a)): the host charges the local-transpose
//!   memory pass, sends each transposed block to its peer over TCP,
//!   accumulates inbound blocks, then charges the final-permutation pass
//!   before assembling the new slab;
//! * **INIC** (Fig. 2(b)): the whole manipulation — local transpose,
//!   packetize, de-packetize, interleave — runs on the card; the host
//!   hands the slab to [`InicScatter`](acc_fpga::InicScatter) and
//!   receives the assembled result with
//!   [`InicGatherComplete`](acc_fpga::InicGatherComplete), paying no
//!   memory passes at all.
//!
//! # Fault handling
//!
//! With a [`FaultCtl`](super::FaultCtl) wired, the driver also models a host that can
//! stall (every event is deferred to the end of the stall window) and a
//! collective that survives card deaths rank-locally: the dead rank
//! degrades to its fallback `TcpHostNic` while healthy ranks keep the
//! card datapath, running a **mixed-technology transpose** — the card
//! exchanges blocks among healthy ranks, the host carries the dead
//! ranks' blocks over TCP and interleaves them into the card's slab.
//! Each completed phase can checkpoint the slab so a failover resumes
//! from the last phase every rank completed, negotiated through the
//! [`RecoveryCoordinator`](super::RecoveryCoordinator).
//!
//! The recovery protocol and the exchange plumbing live in the driver
//! core (`drivers::handle` and its `Exchange`): this driver supplies
//! only the slab handling around them. Each INIC transpose is one
//! exchange (card gather and scatter plus the TCP legs to dead ranks);
//! the commodity transpose is a pairwise sequence of single-leg
//! exchanges on the transpose's channel.

use std::any::Any;
use std::collections::BTreeMap;

use acc_algos::fft::{fft_in_place, Direction, Matrix};
use acc_algos::transpose::{
    bytes_to_slab, extract_transposed_block, interleave_block, interleave_block_from_wire,
    push_transposed_block, slab_to_bytes,
};
use acc_fpga::{Bitstream, GatherKind, InicMode, ScatterKind};
use acc_host::HostKernels;
use acc_sim::{Component, Ctx, DataSize, SimDuration, SimTime, StatsRegistry};

use super::{Attachment, Driver, DriverCore, DriverProgress, ExchangeDone, ExchangePlan, LegLen};

/// Where the state machine is.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Phase {
    /// Waiting for the start event / card configuration.
    Init,
    /// Row FFTs number `i` (1 or 2).
    Fft(u8),
    /// Transpose number `i`: commodity local-transpose charge running.
    LocalTranspose(u8),
    /// Transpose number `i`: blocks in flight / being gathered.
    Exchange(u8),
    /// Transpose number `i`: final-permutation charge running.
    Permute(u8),
    /// Finished.
    Done,
}

/// Charged compute windows.
pub(crate) enum Step {
    FftCompute,
    LocalTranspose,
    Permute,
}

/// Timing record of one completed run, readable after `sim.run()`.
#[derive(Clone, Debug, Default)]
pub struct FftTimings {
    /// Sum of both row-FFT phases.
    pub compute: SimDuration,
    /// Sum of both transposes (wall time per node, including overlap).
    pub transpose: SimDuration,
    /// Host compute buried inside the transposes (local transpose +
    /// final permutation charges) — zero on INIC paths, where the card
    /// absorbs the data manipulation.
    pub transpose_compute: SimDuration,
}

/// The per-node FFT application driver.
pub struct FftDriver {
    core: DriverCore,
    p: usize,
    rows: usize,
    m: usize,
    kernels: HostKernels,
    slab: Matrix,
    phase: Phase,
    phase_entered: SimTime,
    /// Start of the current transpose sub-phase (local transpose or
    /// final permutation) for the compute/comm decomposition.
    subphase_entered: SimTime,
    /// Current pairwise exchange step (1-based) — commodity path. The
    /// transpose is "a serialized communications step" (Section 3.1.2):
    /// step `s` sends to `(rank+s) mod P` and waits for the block from
    /// `(rank−s) mod P` before proceeding, as FFTW's pairwise exchange
    /// does.
    exchange_step: usize,
    /// Blocks received so far by the pairwise exchange: source rank and
    /// bytes, interleaved once the final-permutation charge ran.
    blocks: Vec<(usize, Vec<u8>)>,
    /// Raw gather held while the final-permutation charge runs
    /// (protocol-processor mode): per-source concatenated blocks plus
    /// per-source end offsets.
    raw_gather: Option<(Vec<u8>, Vec<usize>)>,
    /// Untouched copy of the input slab: `begin_fft` transforms `slab`
    /// in place, so a card-failure restart needs the original back.
    pristine: Matrix,
    /// Phase checkpoints: slab snapshots keyed by completed phase
    /// (1 = row FFTs #1, 2 = transpose #1, 3 = row FFTs #2). Captured
    /// only under [`RecoveryPolicy::Checkpointed`] with a coordinator.
    ckpts: BTreeMap<u32, Matrix>,
    /// Timings, filled as the run progresses.
    pub timings: FftTimings,
}

impl FftDriver {
    /// Build a driver holding `slab` (the node's `rows/P × rows` row
    /// block).
    pub fn new(
        rank: usize,
        p: usize,
        rows: usize,
        slab: Matrix,
        attachment: Attachment,
        kernels: HostKernels,
    ) -> FftDriver {
        assert_eq!(slab.rows(), rows / p, "slab height");
        assert_eq!(slab.cols(), rows, "slab width");
        FftDriver {
            // One exchange per transpose.
            core: DriverCore::new(format!("fft-driver{rank}"), rank, attachment, 2),
            p,
            rows,
            m: rows / p,
            kernels,
            pristine: slab.clone(),
            slab,
            phase: Phase::Init,
            phase_entered: SimTime::ZERO,
            subphase_entered: SimTime::ZERO,
            exchange_step: 0,
            blocks: Vec::new(),
            raw_gather: None,
            ckpts: BTreeMap::new(),
            timings: FftTimings::default(),
        }
    }

    /// The node's final slab (the 2D FFT's row block) once done.
    pub fn result(&self) -> &Matrix {
        assert_eq!(self.phase, Phase::Done, "driver not finished");
        &self.slab
    }

    /// Whether the run completed.
    pub fn is_done(&self) -> bool {
        self.phase == Phase::Done
    }

    /// Phase name for liveness attribution; the two transposes report
    /// as one phase each (their sub-phases share one model budget).
    fn phase_name(&self) -> &'static str {
        match self.phase {
            Phase::Init => "init",
            Phase::Fft(1) => "fft1",
            Phase::Fft(_) => "fft2",
            Phase::LocalTranspose(1) | Phase::Exchange(1) | Phase::Permute(1) => "transpose1",
            Phase::LocalTranspose(_) | Phase::Exchange(_) | Phase::Permute(_) => "transpose2",
            Phase::Done => "done",
        }
    }

    fn partition_bytes(&self) -> DataSize {
        DataSize::from_bytes((self.m * self.rows * 16) as u64)
    }

    fn block_bytes(&self) -> usize {
        self.m * self.m * 16
    }

    /// Block `q` of the slab, transposed, in wire form — what the host
    /// sends when it performs the local transpose itself.
    fn wire_block(&self, q: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.block_bytes());
        push_transposed_block(&self.slab, q, &mut out);
        out
    }

    // ---- phase transitions ----

    fn begin_fft(&mut self, which: u8, ctx: &mut Ctx) {
        self.phase = Phase::Fft(which);
        self.phase_entered = ctx.now();
        if which == 1 {
            self.core.started_at.get_or_insert(ctx.now());
        }
        // The real computation.
        for r in 0..self.slab.rows() {
            fft_in_place(self.slab.row_mut(r), Direction::Forward);
        }
        // The charged time: one of the two Eq. 4 halves.
        let charge = self.kernels.fft_compute_time(self.rows, self.p) / 2;
        self.core.timer_in(ctx, charge, Step::FftCompute);
    }

    fn on_fft_done(&mut self, ctx: &mut Ctx) {
        let Phase::Fft(which) = self.phase else {
            panic!("{}: FftComputeDone outside Fft phase", self.core.label);
        };
        self.timings.compute += ctx.now().since(self.phase_entered);
        if self.core.ckpt_armed() {
            let k = if which == 1 { 1 } else { 3 };
            self.ckpts.insert(k, self.slab.clone());
        }
        self.begin_transpose(which, ctx);
    }

    fn begin_transpose(&mut self, which: u8, ctx: &mut Ctx) {
        self.phase_entered = ctx.now();
        if matches!(
            self.core.attachment.inic_mode(),
            None | Some(InicMode::ProtocolProcessor)
        ) {
            // Host performs the data manipulation (commodity NIC, or an
            // INIC used purely as a protocol processor).
            self.phase = Phase::LocalTranspose(which);
            self.subphase_entered = ctx.now();
            let charge = self.kernels.local_transpose_time(self.partition_bytes());
            self.core.timer_in(ctx, charge, Step::LocalTranspose);
            return;
        }
        self.phase = Phase::Exchange(which);
        let bb = self.block_bytes();
        let dead = &self.core.dead;
        let plan = ExchangePlan {
            gather: Some((
                GatherKind::InterleaveBlocks {
                    m: self.m,
                    rows: self.rows,
                },
                (0..self.p as u32)
                    .filter(|s| !dead.contains(&(*s as usize)))
                    .map(|s| (s, Some(bb)))
                    .collect(),
            )),
            scatter: Some((
                ScatterKind::TransposeBlocks { m: self.m },
                // acc-lint: allow(R7, reason = "the one send-side encode: the slab crosses to the card in wire form")
                slab_to_bytes(&self.slab),
            )),
            // Mixed-technology legs: the dead ranks' blocks cannot ride
            // the card (their cards are gone), so the host extracts and
            // ships them over the fallback TCP path.
            sends: dead.iter().map(|&d| (d, self.wire_block(d))).collect(),
            recvs: dead.iter().map(|&d| (d, LegLen::Fixed(bb))).collect(),
            ..ExchangePlan::default()
        };
        self.open_exchange(usize::from(which) - 1, plan, ctx);
    }

    /// Local transpose charge done. Commodity path: begin the
    /// serialized pairwise exchange. Protocol-processor path: hand the
    /// pre-transposed blocks to the card for transmission.
    fn on_local_transpose_done(&mut self, ctx: &mut Ctx) {
        let Phase::LocalTranspose(which) = self.phase else {
            panic!("{}: LocalTransposeDone out of phase", self.core.label);
        };
        self.timings.transpose_compute += ctx.now().since(self.subphase_entered);
        self.phase = Phase::Exchange(which);
        if self.core.attachment.inic_mode().is_none() {
            self.exchange_step = 0;
            return self.next_step(which, ctx);
        }
        let bb = self.block_bytes();
        // Blocks in ring order (own rank first), transposed on the
        // host — the card only packetizes.
        let mut data = Vec::with_capacity(self.p * bb);
        for step in 0..self.p {
            let q = (self.core.rank + step) % self.p;
            push_transposed_block(&self.slab, q, &mut data);
        }
        let plan = ExchangePlan {
            gather: Some((
                GatherKind::Raw,
                (0..self.p as u32).map(|s| (s, Some(bb))).collect(),
            )),
            scatter: Some((
                ScatterKind::Raw {
                    parts: vec![bb; self.p],
                },
                data,
            )),
            ..ExchangePlan::default()
        };
        self.open_exchange(usize::from(which) - 1, plan, ctx);
    }

    /// Commodity path: post the next pairwise step's block and wait for
    /// its inbound one; after the last step, charge the final
    /// permutation.
    fn next_step(&mut self, which: u8, ctx: &mut Ctx) {
        self.exchange_step += 1;
        if self.exchange_step < self.p {
            let (rank, step) = (self.core.rank, self.exchange_step);
            let to = (rank + step) % self.p;
            let from = (rank + self.p - step) % self.p;
            let plan = ExchangePlan {
                sends: vec![(to, self.wire_block(to))],
                recvs: vec![(from, LegLen::Fixed(self.block_bytes()))],
                ..ExchangePlan::default()
            };
            return self.open_exchange(usize::from(which) - 1, plan, ctx);
        }
        self.begin_permute(which, ctx);
    }

    /// Charge the host's final permutation of transpose `which`.
    fn begin_permute(&mut self, which: u8, ctx: &mut Ctx) {
        self.phase = Phase::Permute(which);
        self.subphase_entered = ctx.now();
        let charge = self.kernels.final_permutation_time(self.partition_bytes());
        self.core.timer_in(ctx, charge, Step::Permute);
    }

    /// Host-transpose paths: permutation charge done — assemble the new
    /// slab.
    fn on_permute_done(&mut self, ctx: &mut Ctx) {
        let Phase::Permute(which) = self.phase else {
            panic!("{}: PermuteDone out of phase", self.core.label);
        };
        self.timings.transpose_compute += ctx.now().since(self.subphase_entered);
        let mut out = Matrix::zeros(self.m, self.rows);
        if let Some((data, bounds)) = self.raw_gather.take() {
            // Protocol-processor path: per-source blocks arrived via the
            // card, already transposed by this host's peers.
            let mut start = 0usize;
            for (s, &end) in bounds.iter().enumerate() {
                interleave_block_from_wire(&mut out, s, &data[start..end]);
                start = end;
            }
        } else {
            let rank = self.core.rank;
            interleave_block(&mut out, rank, &extract_transposed_block(&self.slab, rank));
            for (s, bytes) in self.blocks.drain(..) {
                interleave_block_from_wire(&mut out, s, &bytes);
            }
        }
        self.slab = out;
        self.finish_transpose(which, ctx);
    }

    fn finish_transpose(&mut self, which: u8, ctx: &mut Ctx) {
        self.timings.transpose += ctx.now().since(self.phase_entered);
        match which {
            1 => {
                if self.core.ckpt_armed() {
                    self.ckpts.insert(2, self.slab.clone());
                }
                self.begin_fft(2, ctx);
            }
            2 => {
                self.phase = Phase::Done;
                self.core.mark_done(ctx);
            }
            _ => unreachable!(),
        }
    }
}

impl Driver for FftDriver {
    type Step = Step;

    fn core(&self) -> &DriverCore {
        &self.core
    }

    fn core_mut(&mut self) -> &mut DriverCore {
        &mut self.core
    }

    fn progress(&self) -> DriverProgress {
        self.core
            .progress(self.phase_name(), self.phase_entered, self.is_done())
    }

    fn bitstream(&self) -> Bitstream {
        match self.core.attachment.inic_mode() {
            Some(InicMode::ProtocolProcessor) => Bitstream::protocol_only(),
            _ => Bitstream::fft_transpose(self.m),
        }
    }

    fn begin(&mut self, ctx: &mut Ctx) {
        self.begin_fft(1, ctx);
    }

    /// Highest phase this rank could resume from (4 = finished).
    fn completed_phase(&self) -> u32 {
        if self.phase == Phase::Done {
            return 4;
        }
        (1..=3u32)
            .rev()
            .find(|k| self.ckpts.contains_key(k))
            .unwrap_or(0)
    }

    /// `slab` was transformed in place by the aborted attempt, so the
    /// restart begins again from the pristine copy.
    fn reset(&mut self, _node: usize, _stream: Option<u32>, _ctx: &mut Ctx) {
        self.slab = self.pristine.clone();
        self.blocks.clear();
        self.raw_gather = None;
        self.timings = FftTimings::default();
        self.phase = Phase::Init;
    }

    fn resume(&mut self, phase: u32, ctx: &mut Ctx) {
        if phase >= 4 {
            return; // every rank had already finished
        }
        self.blocks.clear();
        self.raw_gather = None;
        let restore = |ckpts: &BTreeMap<u32, Matrix>, k: u32| {
            ckpts
                .get(&k)
                .cloned()
                .unwrap_or_else(|| panic!("resume phase {k} without its checkpoint"))
        };
        match phase {
            0 => {
                self.slab = self.pristine.clone();
                self.begin_fft(1, ctx);
            }
            1 => {
                self.slab = restore(&self.ckpts, 1);
                self.begin_transpose(1, ctx);
            }
            2 => {
                self.slab = restore(&self.ckpts, 2);
                self.begin_fft(2, ctx);
            }
            3 => {
                self.slab = restore(&self.ckpts, 3);
                self.begin_transpose(2, ctx);
            }
            _ => unreachable!(),
        }
    }

    fn on_step(&mut self, step: Step, ctx: &mut Ctx) {
        match step {
            Step::FftCompute => self.on_fft_done(ctx),
            Step::LocalTranspose => self.on_local_transpose_done(ctx),
            Step::Permute => self.on_permute_done(ctx),
        }
    }

    fn on_exchange(&mut self, mut done: ExchangeDone, ctx: &mut Ctx) {
        let Phase::Exchange(which) = self.phase else {
            panic!("{}: exchange completed out of phase", self.core.label);
        };
        match self.core.attachment.inic_mode() {
            // One pairwise step done.
            None => {
                self.blocks.append(&mut done.legs);
                self.next_step(which, ctx);
            }
            // The host still owes the final permutation.
            Some(InicMode::ProtocolProcessor) => {
                let g = done.gather.expect("raw gather");
                let bounds = g.bucket_bounds.expect("raw gather carries bounds");
                self.raw_gather = Some((g.data, bounds));
                self.begin_permute(which, ctx);
            }
            // The card interleaved the healthy ranks' blocks; the host
            // interleaves the dead ranks' blocks into the same slab
            // (they arrive over TCP, pre-transposed by the degraded
            // sender's host).
            Some(_) => {
                let data = done.gather.expect("interleave gather").data;
                // acc-lint: allow(R7, reason = "the one receive-side decode: the card's interleaved slab becomes the host's matrix")
                let mut out = bytes_to_slab(&data, self.m, self.rows);
                for (d, bytes) in done.legs {
                    interleave_block_from_wire(&mut out, d, &bytes);
                }
                self.slab = out;
                self.finish_transpose(which, ctx);
            }
        }
    }

    fn wait_detail(&self) -> Option<String> {
        (self.core.attachment.inic_mode().is_none() && matches!(self.phase, Phase::Exchange(_)))
            .then(|| format!("pairwise step {}/{}", self.exchange_step, self.p - 1))
    }
}

impl Component for FftDriver {
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
