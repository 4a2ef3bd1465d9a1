//! The 2D-FFT program — the FFTW parallel template of Section 3.1 on
//! every network technology.
//!
//! Four stages: ❶ row FFTs (`fft1`), ❷ transpose (`transpose1`), ❸ row
//! FFTs (`fft2`), ❹ transpose (`transpose2`). The row FFTs are identical
//! across technologies (charged through [`HostKernels`], executed for
//! real on the slab). The transpose differs:
//!
//! * **commodity NIC** (Fig. 2(a)): the host charges the local-transpose
//!   memory pass, then runs "a serialized communications step"
//!   (Section 3.1.2) of single-leg exchanges on the transpose's channel —
//!   step `s` sends to `(rank+s) mod P` and waits for the block from
//!   `(rank−s) mod P`, as FFTW's pairwise exchange does — and charges
//!   the final-permutation pass before assembling the new slab;
//! * **INIC** (Fig. 2(b)): the whole manipulation — local transpose,
//!   packetize, de-packetize, interleave — runs on the card in one
//!   exchange; the host hands the slab to
//!   [`InicScatter`](acc_fpga::InicScatter) and receives the assembled
//!   result with [`InicGatherComplete`](acc_fpga::InicGatherComplete),
//!   paying no memory passes at all;
//! * **INIC as a protocol processor**: the host's two memory passes
//!   around one raw card exchange.
//!
//! Under rank-local recovery the dead rank degrades to its fallback
//! `TcpHostNic` and runs the commodity transpose, while healthy ranks
//! keep the card datapath in a **mixed-technology transpose**: the card
//! exchanges blocks among healthy ranks, the host carries the dead
//! ranks' blocks over TCP and interleaves them into the card's slab. A
//! checkpoint is the slab after a stage.

use acc_algos::fft::{fft_in_place, Direction, Matrix};
use acc_algos::transpose::{
    bytes_to_slab, extract_transposed_block, interleave_block, interleave_block_from_wire,
    push_transposed_block, slab_to_bytes,
};
use acc_fpga::{Bitstream, GatherKind, InicMode, ScatterKind};
use acc_host::HostKernels;
use acc_sim::DataSize;

use super::{ExchangeDone, ExchangePlan, LegLen, Program, Rank, Step};

/// The phase name of each stage; the transposes are the odd stages.
const PHASES: [&str; 4] = ["fft1", "transpose1", "fft2", "transpose2"];

/// One rank of the 2D FFT.
pub(crate) struct Fft {
    p: usize,
    rows: usize,
    m: usize,
    kernels: HostKernels,
    /// The node's `rows/P × rows` input row block, kept for a restart
    /// from scratch.
    input: Matrix,
    /// The working slab, transformed in place.
    slab: Matrix,
    /// Blocks received by the pairwise exchange: source rank and bytes.
    blocks: Vec<(usize, Vec<u8>)>,
    /// Raw gather (protocol-processor mode): per-source concatenated
    /// blocks plus per-source end offsets.
    raw_gather: Option<(Vec<u8>, Vec<usize>)>,
}

impl Fft {
    /// Rank program holding `input`, the node's `rows/P × rows` row
    /// block.
    pub(crate) fn new(p: usize, rows: usize, input: Matrix, kernels: HostKernels) -> Fft {
        assert_eq!(input.rows(), rows / p, "slab height");
        assert_eq!(input.cols(), rows, "slab width");
        Fft {
            p,
            rows,
            m: rows / p,
            kernels,
            input,
            slab: Matrix::zeros(0, 0),
            blocks: Vec::new(),
            raw_gather: None,
        }
    }

    /// The node's row block of the 2D FFT, once done.
    pub(crate) fn result(&self) -> &Matrix {
        &self.slab
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

    /// Step `step` of a transpose.
    fn transpose(&mut self, rank: &Rank, phase: &'static str, step: usize) -> Option<Step> {
        let mode = rank.attachment.inic_mode();
        if !matches!(mode, None | Some(InicMode::ProtocolProcessor)) {
            return (step == 0).then(|| Step::Exchange {
                phase,
                plan: self.card_transpose(rank),
            });
        }
        // The host performs the data manipulation (commodity NIC, or an
        // INIC used purely as a protocol processor): local transpose,
        // the block exchange, final permutation.
        let permute = if mode.is_none() { self.p } else { 2 };
        let charge = |time| Some(Step::Charge { phase, time });
        match step {
            0 => charge(self.kernels.local_transpose_time(self.partition_bytes())),
            s if s < permute => {
                let plan = if mode.is_none() {
                    self.pairwise(rank, s)
                } else {
                    self.raw_transpose(rank)
                };
                Some(Step::Exchange { phase, plan })
            }
            s if s == permute => {
                self.assemble(rank);
                charge(self.kernels.final_permutation_time(self.partition_bytes()))
            }
            _ => None,
        }
    }

    /// Combined INIC: the card transposes and interleaves. Mixed-
    /// technology legs: the dead ranks' blocks cannot ride the card
    /// (their cards are gone), so the host extracts and ships them over
    /// the fallback TCP path.
    fn card_transpose(&self, rank: &Rank) -> ExchangePlan {
        let bb = self.block_bytes();
        let dead = &rank.dead;
        ExchangePlan {
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
            sends: dead.iter().map(|&d| (d, self.wire_block(d))).collect(),
            recvs: dead.iter().map(|&d| (d, LegLen::Fixed(bb))).collect(),
            ..ExchangePlan::default()
        }
    }

    /// Protocol processor: the blocks in ring order (own rank first),
    /// transposed on the host — the card only packetizes.
    fn raw_transpose(&self, rank: &Rank) -> ExchangePlan {
        let bb = self.block_bytes();
        let mut data = Vec::with_capacity(self.p * bb);
        for step in 0..self.p {
            let q = (rank.rank + step) % self.p;
            push_transposed_block(&self.slab, q, &mut data);
        }
        ExchangePlan {
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
        }
    }

    /// Commodity pairwise step `s`: one block out, one block in.
    fn pairwise(&self, rank: &Rank, s: usize) -> ExchangePlan {
        let to = (rank.rank + s) % self.p;
        let from = (rank.rank + self.p - s) % self.p;
        ExchangePlan {
            sends: vec![(to, self.wire_block(to))],
            recvs: vec![(from, LegLen::Fixed(self.block_bytes()))],
            ..ExchangePlan::default()
        }
    }

    /// Host-transpose paths: assemble the new slab from the received
    /// blocks, as the final permutation's charge begins.
    fn assemble(&mut self, rank: &Rank) {
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
            let own = extract_transposed_block(&self.slab, rank.rank);
            interleave_block(&mut out, rank.rank, &own);
            for (s, bytes) in self.blocks.drain(..) {
                interleave_block_from_wire(&mut out, s, &bytes);
            }
        }
        self.slab = out;
    }
}

impl Program for Fft {
    type Snapshot = Matrix;
    const NAME: &'static str = "fft-driver";

    fn stages(&self) -> usize {
        PHASES.len()
    }

    /// One exchange tag per transpose.
    fn exchanges(&self) -> usize {
        2
    }

    fn exchange_index(&self, stage: usize) -> usize {
        stage / 2
    }

    fn bitstream(&self, rank: &Rank) -> Bitstream {
        match rank.attachment.inic_mode() {
            Some(InicMode::ProtocolProcessor) => Bitstream::protocol_only(),
            _ => Bitstream::fft_transpose(self.m),
        }
    }

    fn step(&mut self, rank: &Rank, stage: usize, step: usize) -> Option<Step> {
        let phase = PHASES[stage];
        if stage % 2 == 1 {
            return self.transpose(rank, phase, step);
        }
        if step > 0 {
            return None;
        }
        for r in 0..self.slab.rows() {
            fft_in_place(self.slab.row_mut(r), Direction::Forward);
        }
        // The charged time: one of the two Eq. 4 halves.
        let time = self.kernels.fft_compute_time(self.rows, self.p) / 2;
        Some(Step::Charge { phase, time })
    }

    fn on_exchange(&mut self, rank: &Rank, mut done: ExchangeDone) {
        match rank.attachment.inic_mode() {
            None => self.blocks.append(&mut done.legs),
            // The host still owes the final permutation.
            Some(InicMode::ProtocolProcessor) => {
                let g = done.gather.expect("raw gather");
                let bounds = g.bucket_bounds.expect("raw gather carries bounds");
                self.raw_gather = Some((g.data, bounds));
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
            }
        }
    }

    fn snapshot(&self) -> Matrix {
        self.slab.clone()
    }

    fn restore(&mut self, _rank: &Rank, snapshot: Option<Matrix>) {
        self.slab = snapshot.unwrap_or_else(|| self.input.clone());
        self.blocks.clear();
        self.raw_gather = None;
    }

    fn wait_detail(&self, rank: &Rank, stage: usize, step: usize) -> Option<String> {
        let pairwise = stage % 2 == 1 && rank.attachment.inic_mode().is_none();
        (pairwise && (1..self.p).contains(&step))
            .then(|| format!("pairwise step {step}/{}", self.p - 1))
    }
}
