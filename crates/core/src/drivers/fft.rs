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
//!   hands the slab to [`InicScatter`] and receives the assembled result
//!   with [`InicGatherComplete`], paying no memory passes at all.
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
//! [`RecoveryCoordinator`](super::RecoveryCoordinator). The protocol
//! itself lives in the shared recovery core (`drivers::handle`); this
//! driver supplies only the slab handling around it.

use std::any::Any;
use std::collections::BTreeMap;

use acc_algos::fft::{fft_in_place, Direction, Matrix};
use acc_algos::transpose::{
    bytes_to_slab, extract_transposed_block, interleave_block, slab_to_bytes,
};
use acc_fpga::{
    Bitstream, GatherKind, InicExpect, InicGatherComplete, InicMode, InicScatter, InicScatterDone,
    ScatterKind,
};
use acc_host::HostKernels;
use acc_proto::{TcpDelivered, TcpSend};
use acc_sim::{Component, Ctx, DataSize, SimDuration, SimTime};

use super::{Attachment, Driver, DriverCore, DriverProgress};

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
    /// Inbound block bytes per (src_rank, channel) — TCP legs. The
    /// channel namespaces the transpose number by epoch, so bytes from
    /// an aborted attempt never leak into the restarted one.
    rx: BTreeMap<(usize, u16), Vec<u8>>,
    /// Current pairwise exchange step (1-based) — commodity path. The
    /// transpose is "a serialized communications step" (Section 3.1.2):
    /// step `s` sends to `(rank+s) mod P` and waits for the block from
    /// `(rank−s) mod P` before proceeding, as FFTW's pairwise exchange
    /// does.
    exchange_step: usize,
    /// Assembled results delivered by the card, keyed by stream, held
    /// until the TCP legs of a mixed exchange also complete.
    early_gathers: BTreeMap<u32, Vec<u8>>,
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
            core: DriverCore::new(format!("fft-driver{rank}"), rank, attachment),
            p,
            rows,
            m: rows / p,
            kernels,
            pristine: slab.clone(),
            slab,
            phase: Phase::Init,
            phase_entered: SimTime::ZERO,
            subphase_entered: SimTime::ZERO,
            rx: BTreeMap::new(),
            exchange_step: 0,
            early_gathers: BTreeMap::new(),
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

    /// INIC stream id for transpose `which`, namespaced by epoch so a
    /// restarted exchange never collides with the aborted one's demux
    /// state (epoch 0 keeps the historical ids 1 and 2).
    fn stream(&self, which: u8) -> u32 {
        (self.core.epoch as u32) * 8 + u32::from(which)
    }

    /// TCP channel for transpose `which`, namespaced like [`stream`].
    fn chan(&self, which: u8) -> u16 {
        (self.core.epoch as u16) * 4 + u16::from(which)
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
        match &self.core.attachment {
            Attachment::Inic {
                card,
                macs,
                fallback,
                ..
            } => {
                let card = *card;
                let macs = macs.clone();
                let fallback = fallback.clone();
                let stream = self.stream(which);
                self.phase = Phase::Exchange(which);
                let dead = self.core.dead.clone();
                ctx.send_now(
                    card,
                    InicExpect {
                        stream,
                        kind: GatherKind::InterleaveBlocks {
                            m: self.m,
                            rows: self.rows,
                        },
                        sources: (0..self.p as u32)
                            .filter(|s| !dead.contains(&(*s as usize)))
                            .map(|s| (s, Some(self.m * self.m * 16)))
                            .collect(),
                    },
                );
                ctx.send_now(
                    card,
                    InicScatter {
                        stream,
                        kind: ScatterKind::TransposeBlocks { m: self.m },
                        data: slab_to_bytes(&self.slab),
                        dests: macs,
                    },
                );
                // Mixed-technology legs: the dead ranks' blocks cannot
                // ride the card (their cards are gone), so the host
                // extracts and ships them over the fallback TCP path.
                if !dead.is_empty() {
                    let (fb_nic, fb_macs) =
                        fallback.expect("rank-local degradation needs a fallback path");
                    let chan = self.chan(which);
                    for &d in &dead {
                        let block = extract_transposed_block(&self.slab, d);
                        ctx.send_now(
                            fb_nic,
                            TcpSend {
                                peer: fb_macs[d],
                                chan,
                                data: slab_to_bytes(&block),
                            },
                        );
                    }
                }
                // The card (or a TCP leg) might already have everything
                // (tiny P, fast peers, resume races): finish if so.
                self.try_finish_inic_exchange(which, ctx);
            }
            Attachment::Tcp { .. } => unreachable!("handled above"),
        }
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
        if let Attachment::Inic {
            card, macs, mode, ..
        } = &self.core.attachment
        {
            debug_assert_eq!(*mode, InicMode::ProtocolProcessor);
            let card = *card;
            let macs = macs.clone();
            let stream = self.stream(which);
            let block_bytes = self.m * self.m * 16;
            // Blocks in ring order (own rank first), transposed on the
            // host — the card only packetizes.
            let mut data = Vec::with_capacity(self.p * block_bytes);
            for step in 0..self.p {
                let q = (self.core.rank + step) % self.p;
                data.extend(slab_to_bytes(&extract_transposed_block(&self.slab, q)));
            }
            ctx.send_now(
                card,
                InicExpect {
                    stream,
                    kind: GatherKind::Raw,
                    sources: (0..self.p as u32).map(|s| (s, Some(block_bytes))).collect(),
                },
            );
            ctx.send_now(
                card,
                InicScatter {
                    stream,
                    kind: ScatterKind::Raw {
                        parts: vec![block_bytes; self.p],
                    },
                    data,
                    dests: macs,
                },
            );
            return;
        }
        self.exchange_step = 1;
        self.send_current_step_block(which, ctx);
        self.check_exchange_complete(ctx);
    }

    /// Post the block for the current exchange step.
    fn send_current_step_block(&mut self, which: u8, ctx: &mut Ctx) {
        if self.exchange_step >= self.p {
            return;
        }
        let Attachment::Tcp { nic, macs } = &self.core.attachment else {
            unreachable!("pairwise exchange only on the commodity path");
        };
        let nic = *nic;
        let q = (self.core.rank + self.exchange_step) % self.p;
        let peer = macs[q];
        let block = extract_transposed_block(&self.slab, q);
        ctx.send_now(
            nic,
            TcpSend {
                peer,
                chan: self.chan(which),
                data: slab_to_bytes(&block),
            },
        );
    }

    fn on_tcp_delivered(&mut self, d: TcpDelivered, ctx: &mut Ctx) {
        let src = self
            .core
            .attachment
            .resolve_src(d.peer)
            .expect("delivery from unknown MAC");
        self.rx
            .entry((src, d.chan))
            .or_default()
            .extend_from_slice(&d.data);
        if self.core.paused {
            return; // buffered; consumed after the coordinator resumes us
        }
        if matches!(self.core.attachment, Attachment::Inic { .. }) {
            if let Phase::Exchange(which) = self.phase {
                self.try_finish_inic_exchange(which, ctx);
            }
            return;
        }
        self.check_exchange_complete(ctx);
    }

    /// Advance the serialized exchange as far as received data allows:
    /// step `s` completes only when the block from `(rank−s) mod P` has
    /// fully arrived; only then is step `s+1`'s block posted.
    fn check_exchange_complete(&mut self, ctx: &mut Ctx) {
        let Phase::Exchange(which) = self.phase else {
            return;
        };
        if matches!(self.core.attachment, Attachment::Inic { .. }) {
            return; // completion is signalled by the card
        }
        let block_bytes = self.m * self.m * 16;
        let chan = self.chan(which);
        while self.exchange_step < self.p {
            let from = (self.core.rank + self.p - self.exchange_step) % self.p;
            let have = self
                .rx
                .get(&(from, chan))
                .is_some_and(|b| b.len() >= block_bytes);
            if !have {
                return;
            }
            self.exchange_step += 1;
            self.send_current_step_block(which, ctx);
        }
        // All steps done: charge the final permutation.
        self.phase = Phase::Permute(which);
        self.subphase_entered = ctx.now();
        let charge = self.kernels.final_permutation_time(self.partition_bytes());
        self.core.timer_in(ctx, charge, Step::Permute);
    }

    /// Commodity path: permutation charge done — assemble the new slab.
    fn on_permute_done(&mut self, ctx: &mut Ctx) {
        let Phase::Permute(which) = self.phase else {
            panic!("{}: PermuteDone out of phase", self.core.label);
        };
        self.timings.transpose_compute += ctx.now().since(self.subphase_entered);
        let block_bytes = self.m * self.m * 16;
        let chan = self.chan(which);
        let mut out = Matrix::zeros(self.m, self.rows);
        if let Some((data, bounds)) = self.raw_gather.take() {
            // Protocol-processor path: per-source blocks arrived via the
            // card, already transposed by this host's peers.
            let mut start = 0usize;
            for (s, &end) in bounds.iter().enumerate() {
                let block = bytes_to_slab(&data[start..end], self.m, self.m);
                interleave_block(&mut out, s, &block);
                start = end;
            }
        } else {
            for s in 0..self.p {
                let block = if s == self.core.rank {
                    extract_transposed_block(&self.slab, s)
                } else {
                    let buf = self.rx.get_mut(&(s, chan)).expect("checked complete");
                    let bytes: Vec<u8> = buf.drain(..block_bytes).collect();
                    bytes_to_slab(&bytes, self.m, self.m)
                };
                interleave_block(&mut out, s, &block);
            }
        }
        self.slab = out;
        self.finish_transpose(which, ctx);
    }

    /// INIC path: finish transpose `which` once the card's gather *and*
    /// every mixed-technology TCP leg have arrived. The card interleaves
    /// the healthy ranks' blocks; the host interleaves the dead ranks'
    /// blocks into the same slab (they arrive over TCP, pre-transposed
    /// by the degraded sender's host).
    fn try_finish_inic_exchange(&mut self, which: u8, ctx: &mut Ctx) {
        if self.core.paused {
            return;
        }
        let stream = self.stream(which);
        if !self.early_gathers.contains_key(&stream) {
            return;
        }
        let block_bytes = self.m * self.m * 16;
        let chan = self.chan(which);
        let ready = self.core.dead.iter().all(|&d| {
            self.rx
                .get(&(d, chan))
                .is_some_and(|b| b.len() >= block_bytes)
        });
        if !ready {
            return;
        }
        let bytes = self.early_gathers.remove(&stream).expect("checked present");
        let mut out = bytes_to_slab(&bytes, self.m, self.rows);
        let dead = self.core.dead.clone();
        for &d in &dead {
            let buf = self.rx.get_mut(&(d, chan)).expect("checked ready");
            let block_bytes_vec: Vec<u8> = buf.drain(..block_bytes).collect();
            let block = bytes_to_slab(&block_bytes_vec, self.m, self.m);
            interleave_block(&mut out, d, &block);
        }
        self.slab = out;
        self.finish_transpose(which, ctx);
    }

    fn on_gather(&mut self, g: InicGatherComplete, ctx: &mut Ctx) {
        if self.core.failed_over {
            return; // stale card traffic from before the failure
        }
        if self.core.attachment.inic_mode() == Some(InicMode::ProtocolProcessor) {
            match self.phase {
                Phase::Exchange(which) if self.stream(which) == g.stream => {
                    // Host still owes the final permutation.
                    self.raw_gather =
                        Some((g.data, g.bucket_bounds.expect("raw gather carries bounds")));
                    self.phase = Phase::Permute(which);
                    self.subphase_entered = ctx.now();
                    let charge = self.kernels.final_permutation_time(self.partition_bytes());
                    self.core.timer_in(ctx, charge, Step::Permute);
                }
                _ => {
                    // Stale or early; hold it (a stale stream id can
                    // never match a future one).
                    self.early_gathers.insert(g.stream, g.data);
                }
            }
            return;
        }
        self.early_gathers.insert(g.stream, g.data);
        if let Phase::Exchange(which) = self.phase {
            self.try_finish_inic_exchange(which, ctx);
        }
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

    fn abort_in_flight(&mut self) -> Option<u32> {
        match self.phase {
            Phase::Exchange(which) => Some(self.stream(which)),
            _ => None,
        }
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
    fn reset(&mut self, _node: usize, _ctx: &mut Ctx) {
        self.slab = self.pristine.clone();
        self.rx.clear();
        self.exchange_step = 0;
        self.early_gathers.clear();
        self.raw_gather = None;
        self.timings = FftTimings::default();
        self.phase = Phase::Init;
    }

    fn resume(&mut self, phase: u32, ctx: &mut Ctx) {
        if phase >= 4 {
            return; // every rank had already finished
        }
        self.early_gathers.clear();
        self.raw_gather = None;
        self.exchange_step = 0;
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

    fn on_event(&mut self, ev: Box<dyn Any>, ctx: &mut Ctx) {
        let ev = match ev.downcast::<TcpDelivered>() {
            Ok(d) => return self.on_tcp_delivered(*d, ctx),
            Err(ev) => ev,
        };
        let ev = match ev.downcast::<InicGatherComplete>() {
            Ok(g) => return self.on_gather(*g, ctx),
            Err(ev) => ev,
        };
        if ev.downcast_ref::<InicScatterDone>().is_some() {
            return; // send-side completion is informational here
        }
        panic!("{}: unknown event", self.core.label);
    }
}

impl Component for FftDriver {
    fn handle(&mut self, ev: Box<dyn Any>, ctx: &mut Ctx) {
        super::handle(self, ev, ctx);
    }

    fn name(&self) -> &str {
        &self.core.label
    }

    fn wait_state(&self) -> Option<String> {
        if self.is_done() {
            return None;
        }
        Some(format!(
            "rank {} in {} since {} (epoch {}, exchange step {}{})",
            self.core.rank,
            self.phase_name(),
            self.phase_entered,
            self.core.epoch,
            self.exchange_step,
            self.core.parked()
        ))
    }
}
