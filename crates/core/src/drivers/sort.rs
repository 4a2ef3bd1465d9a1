//! The per-node integer-sort driver — Section 3.2 on every network
//! technology.
//!
//! Pipeline: bucket the local keys by destination rank, exchange
//! (bucket `i` goes to rank `i`), bucket the received keys into
//! cache-sized buckets, count-sort every bucket. Where each step runs
//! depends on the technology:
//!
//! * **commodity NIC** (Fig. 3(a)): both bucket passes on the host CPU;
//!   TCP carries length-prefixed key streams.
//! * **ideal INIC** (Fig. 3(b)): both bucket passes in the card
//!   datapath; the host only count-sorts cache-resident buckets.
//! * **prototype INIC** (Fig. 7): the 4085XLA only fits a 16-bucket
//!   sorter, so the card delivers 16 coarse buckets and the host runs a
//!   second bucket pass before count-sorting — "surprisingly, this can
//!   provide higher performance than having the host sort directly into
//!   16 × N buckets".
//!
//! The key exchange is one exchange of the driver core
//! (`drivers::handle` and its `Exchange`), which also runs fault
//! handling: stalled hosts defer every event, and under rank-local
//! recovery a dead rank degrades to [`SortVariant::HostOnly`] over its
//! fallback NIC while healthy ranks keep the card, carrying the dead
//! ranks' buckets as length-prefixed TCP side streams next to the card
//! exchange. The post-exchange state can be checkpointed so a later
//! failure resumes from the exchange instead of re-running it.

use std::any::Any;

use acc_algos::sort::{
    bucket_index, bucket_sort, bytes_to_keys, count_sort, destination_by_splitters,
    destination_rank, is_sorted, keys_to_bytes,
};
use acc_fpga::{Bitstream, GatherKind, ScatterKind};
use acc_host::HostKernels;
use acc_sim::{Component, Ctx, DataSize, SimDuration, SimTime, StatsRegistry};

use super::{
    recv_buckets_for, Attachment, Driver, DriverCore, DriverProgress, ExchangeDone, ExchangePlan,
    LegLen,
};

/// How the receive-side bucketing is split between card and host.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SortVariant {
    /// Commodity NIC: host does everything.
    HostOnly,
    /// Ideal INIC: card buckets straight into the final `N` buckets.
    InicFull,
    /// Prototype INIC: card buckets into 16; host re-buckets into `N`.
    InicTwoPhase,
    /// INIC as a pure protocol processor: host does both bucket passes,
    /// the card only carries the lightweight protocol (mode ablation).
    ProtocolOnly,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Phase {
    Init,
    /// Host phase-1 bucket charge running (commodity only).
    Bucket1,
    /// Keys in flight.
    Exchange,
    /// Host phase-2 bucket charge running.
    Bucket2,
    /// Count-sort charge running.
    Count,
    Done,
}

/// Charged compute windows.
pub(crate) enum Step {
    Bucket1,
    Bucket2,
    Count,
}

/// Snapshot of the post-exchange state, captured under
/// [`RecoveryPolicy::Checkpointed`] so a later card failure resumes
/// from the exchange instead of re-running it.
#[derive(Clone)]
struct ExchangeCkpt {
    /// Card gather result (INIC variants).
    card: Option<(Vec<u8>, Vec<usize>)>,
    /// Keys held outside the card's gather.
    tcp: Vec<Vec<u32>>,
    /// The variant the exchange ran under — the data layout to resume
    /// with, even if this rank degraded afterwards (the remaining
    /// phases are pure host compute).
    variant: SortVariant,
}

/// Timing decomposition of one node's run.
#[derive(Clone, Debug, Default)]
pub struct SortTimings {
    /// Host phase-1 bucket time (zero on INIC paths).
    pub bucket1: SimDuration,
    /// Exchange wall time (first send to all-received).
    pub comm: SimDuration,
    /// Host phase-2 bucket time (zero on the ideal INIC path).
    pub bucket2: SimDuration,
    /// Final count-sort time.
    pub count: SimDuration,
}

/// The per-node integer-sort driver.
pub struct SortDriver {
    core: DriverCore,
    p: usize,
    variant: SortVariant,
    kernels: HostKernels,
    keys: Vec<u32>,
    /// Optional range splitters for the destination partitioning (the
    /// pre-sort sampling extension for skewed keys); `None` = the
    /// paper's top-bits partitioning.
    splitters: Option<Vec<u32>>,
    /// Final cache-sized bucket count `N`.
    recv_buckets: usize,
    phase: Phase,
    phase_entered: SimTime,
    /// Keys held outside the card's gather: on the commodity path this
    /// rank's own bucket plus every peer's stream, on an INIC the
    /// mixed-technology side streams from degraded peers.
    tcp_keys: Vec<Vec<u32>>,
    /// INIC gather result (16 or N card buckets, concatenated).
    card_bucket_data: Option<(Vec<u8>, Vec<usize>)>,
    sorted: Vec<u32>,
    /// Post-exchange checkpoint, when armed and captured.
    ckpt1: Option<ExchangeCkpt>,
    /// Timing decomposition.
    pub timings: SortTimings,
}

impl SortDriver {
    /// Build a driver holding this rank's initial keys.
    pub fn new(
        rank: usize,
        p: usize,
        keys: Vec<u32>,
        variant: SortVariant,
        attachment: Attachment,
        kernels: HostKernels,
    ) -> SortDriver {
        let recv_buckets = recv_buckets_for(keys.len() as u64);
        SortDriver {
            // One exchange: the key exchange.
            core: DriverCore::new(format!("sort-driver{rank}"), rank, attachment, 1),
            p,
            variant,
            kernels,
            keys,
            splitters: None,
            recv_buckets,
            phase: Phase::Init,
            phase_entered: SimTime::ZERO,
            tcp_keys: Vec::new(),
            card_bucket_data: None,
            sorted: Vec::new(),
            ckpt1: None,
            timings: SortTimings::default(),
        }
    }

    /// Use sampled range splitters instead of top-bits partitioning
    /// (builder style; must be the same table on every rank).
    #[must_use]
    pub fn with_splitters(mut self, splitters: Vec<u32>) -> SortDriver {
        assert_eq!(splitters.len() + 1, self.p, "need P-1 splitters");
        self.splitters = Some(splitters);
        self
    }

    /// Distribute this node's keys to their destination ranks using the
    /// active partitioning (top bits or splitters).
    fn partition_keys(&self) -> Vec<Vec<u32>> {
        match &self.splitters {
            Some(sp) => {
                let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); self.p];
                for &k in &self.keys {
                    buckets[destination_by_splitters(k, sp)].push(k);
                }
                buckets
            }
            None if self.p == 1 => vec![self.keys.clone()],
            None => bucket_sort(&self.keys, self.p),
        }
    }

    /// This rank's sorted key range, available when done.
    pub fn result(&self) -> &[u32] {
        assert_eq!(self.phase, Phase::Done, "driver not finished");
        &self.sorted
    }

    /// Whether the run completed.
    pub fn is_done(&self) -> bool {
        self.phase == Phase::Done
    }

    /// Phase name for liveness attribution.
    fn phase_name(&self) -> &'static str {
        match self.phase {
            Phase::Init => "init",
            Phase::Bucket1 => "bucket1",
            Phase::Exchange => "exchange",
            Phase::Bucket2 => "bucket2",
            Phase::Count => "count",
            Phase::Done => "done",
        }
    }

    fn local_bytes(&self) -> DataSize {
        DataSize::from_bytes(self.keys.len() as u64 * 4)
    }

    // ---- start ----

    fn start(&mut self, ctx: &mut Ctx) {
        self.core.started_at.get_or_insert(ctx.now());
        self.tcp_keys.clear();
        match self.variant {
            SortVariant::HostOnly | SortVariant::ProtocolOnly => {
                self.phase = Phase::Bucket1;
                self.phase_entered = ctx.now();
                let charge = self
                    .kernels
                    .bucket_sort_time(self.keys.len() as u64, self.local_bytes());
                self.core.timer_in(ctx, charge, Step::Bucket1);
            }
            SortVariant::InicFull | SortVariant::InicTwoPhase => {
                // Card does phase 1; hand the raw keys straight over.
                self.phase = Phase::Exchange;
                self.phase_entered = ctx.now();
                let dead = &self.core.dead;
                // Mixed-technology side streams: the card drops chunks
                // destined to dead peers, so the host carries those
                // buckets over the fallback TCP path instead.
                let buckets = if dead.is_empty() {
                    Vec::new()
                } else {
                    self.partition_keys()
                };
                let plan = ExchangePlan {
                    gather: Some((
                        GatherKind::BucketKeys {
                            k: self.card_recv_buckets(),
                        },
                        (0..self.p as u32)
                            .filter(|s| !dead.contains(&(*s as usize)))
                            .map(|s| (s, None))
                            .collect(),
                    )),
                    scatter: Some((
                        ScatterKind::BucketKeys {
                            p: self.p,
                            splitters: self.splitters.clone(),
                        },
                        keys_to_bytes(&self.keys),
                    )),
                    sends: dead.iter().map(|&d| (d, key_stream(&buckets[d]))).collect(),
                    recvs: dead.iter().map(|&d| (d, LegLen::Prefixed)).collect(),
                    ..ExchangePlan::default()
                };
                self.open_exchange(0, plan, ctx);
            }
        }
    }

    /// On-card receive bucket count: the final N on the ideal card, 16
    /// on the prototype.
    fn card_recv_buckets(&self) -> usize {
        match self.variant {
            SortVariant::InicFull => self.recv_buckets,
            SortVariant::InicTwoPhase => 16,
            SortVariant::HostOnly | SortVariant::ProtocolOnly => unreachable!(),
        }
    }

    /// Host phase-1 bucket pass done: exchange the buckets — over TCP
    /// on the commodity path, riding the card's lightweight protocol in
    /// protocol-processor mode.
    fn on_bucket1_done(&mut self, ctx: &mut Ctx) {
        assert_eq!(self.phase, Phase::Bucket1);
        self.timings.bucket1 += ctx.now().since(self.phase_entered);
        self.phase = Phase::Exchange;
        self.phase_entered = ctx.now();
        let rank = self.core.rank;
        let mut buckets = self.partition_keys();
        let plan = if self.variant == SortVariant::ProtocolOnly {
            let mut parts = vec![0usize; self.p];
            let mut data = Vec::with_capacity(self.keys.len() * 4);
            for step in 0..self.p {
                let q = (rank + step) % self.p;
                parts[q] = buckets[q].len() * 4;
                data.extend(keys_to_bytes(&buckets[q]));
            }
            ExchangePlan {
                gather: Some((
                    GatherKind::Raw,
                    (0..self.p as u32).map(|s| (s, None)).collect(),
                )),
                scatter: Some((ScatterKind::Raw { parts }, data)),
                ..ExchangePlan::default()
            }
        } else {
            let peers: Vec<usize> = (1..self.p).map(|step| (rank + step) % self.p).collect();
            let plan = ExchangePlan {
                sends: peers
                    .iter()
                    .map(|&q| (q, key_stream(&buckets[q])))
                    .collect(),
                recvs: peers.iter().map(|&q| (q, LegLen::Prefixed)).collect(),
                ..ExchangePlan::default()
            };
            // Our own bucket stays home.
            self.tcp_keys.push(std::mem::take(&mut buckets[rank]));
            plan
        };
        self.open_exchange(0, plan, ctx);
    }

    /// Phase-2 host bucket pass (commodity; also the prototype's second
    /// phase, reached from the gather instead).
    fn begin_bucket2(&mut self, ctx: &mut Ctx) {
        self.phase = Phase::Bucket2;
        self.phase_entered = ctx.now();
        let card_keys = self
            .card_bucket_data
            .as_ref()
            .map_or(0, |(data, _)| (data.len() / 4) as u64);
        let n_keys = card_keys + self.tcp_keys.iter().map(|v| v.len() as u64).sum::<u64>();
        let working = DataSize::from_bytes(n_keys * 4);
        let charge = self.kernels.bucket_sort_time(n_keys, working);
        self.core.timer_in(ctx, charge, Step::Bucket2);
    }

    fn on_bucket2_done(&mut self, ctx: &mut Ctx) {
        assert_eq!(self.phase, Phase::Bucket2);
        self.timings.bucket2 += ctx.now().since(self.phase_entered);
        self.begin_count(ctx);
    }

    // ---- final count sort (all variants) ----

    fn begin_count(&mut self, ctx: &mut Ctx) {
        self.phase = Phase::Count;
        self.phase_entered = ctx.now();
        // Assemble the node's keys grouped into N cache-sized buckets.
        let card = self.card_bucket_data.take();
        let grouped: Vec<Vec<u32>> = if self.variant == SortVariant::InicFull {
            let (data, bounds) = card.expect("gather data");
            let keys = bytes_to_keys(&data);
            let mut out = Vec::with_capacity(bounds.len());
            let mut start = 0usize;
            for &end in &bounds {
                out.push(keys[start / 4..end / 4].to_vec());
                start = end;
            }
            // Mixed-technology keys arrive unbucketed; sprinkle them
            // into the card's buckets (order within a bucket is
            // irrelevant — count-sort sorts each fully).
            for keys in &self.tcp_keys {
                for &k in keys {
                    out[bucket_index(k, self.recv_buckets)].push(k);
                }
            }
            out
        } else {
            let mut all = card.map_or_else(Vec::new, |(data, _)| bytes_to_keys(&data));
            all.reserve_exact(self.tcp_keys.iter().map(Vec::len).sum());
            for keys in &self.tcp_keys {
                all.extend_from_slice(keys);
            }
            bucket_sort_into_n(&all, self.recv_buckets)
        };
        let n_keys: u64 = grouped.iter().map(|b| b.len() as u64).sum();
        let bucket_bytes = DataSize::from_bytes((n_keys * 4 / self.recv_buckets as u64).max(1));
        let charge = self.kernels.count_sort_time(n_keys, bucket_bytes);
        // The real sort.
        let mut sorted = Vec::with_capacity(n_keys as usize);
        for b in grouped {
            sorted.extend(count_sort(&b));
        }
        debug_assert!(is_sorted(&sorted));
        self.sorted = sorted;
        self.core.timer_in(ctx, charge, Step::Count);
    }

    fn on_count_done(&mut self, ctx: &mut Ctx) {
        assert_eq!(self.phase, Phase::Count);
        self.timings.count += ctx.now().since(self.phase_entered);
        self.phase = Phase::Done;
        self.core.mark_done(ctx);
        // Every key we hold belongs to this rank.
        debug_assert!(match &self.splitters {
            Some(sp) => self
                .sorted
                .iter()
                .all(|&k| destination_by_splitters(k, sp) == self.core.rank),
            None =>
                self.p == 1
                    || self
                        .sorted
                        .iter()
                        .all(|&k| destination_rank(k, self.p) == self.core.rank),
        });
    }
}

/// A key stream with its 8-byte length prefix: the receiver learns
/// each sender's (data-dependent) total from the first 8 bytes.
fn key_stream(keys: &[u32]) -> Vec<u8> {
    let body = keys_to_bytes(keys);
    let mut data = (body.len() as u64).to_le_bytes().to_vec();
    data.extend_from_slice(&body);
    data
}

/// Group keys into `n` buckets by top bits, preserving order (the
/// host-side phase-2 pass, shared by the commodity and prototype paths).
fn bucket_sort_into_n(keys: &[u32], n: usize) -> Vec<Vec<u32>> {
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); n];
    for &k in keys {
        buckets[bucket_index(k, n)].push(k);
    }
    buckets
}

impl Driver for SortDriver {
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
        match self.variant {
            SortVariant::ProtocolOnly => Bitstream::protocol_only(),
            _ => {
                let send_k = self.p.next_power_of_two().max(2);
                Bitstream::int_sort(send_k.max(16), self.card_recv_buckets())
            }
        }
    }

    fn begin(&mut self, ctx: &mut Ctx) {
        self.start(ctx);
    }

    /// Highest phase this rank could resume from (0 = start, 1 = after
    /// the exchange, 2 = finished).
    fn completed_phase(&self) -> u32 {
        if self.phase == Phase::Done {
            return 2;
        }
        if self.ckpt1.is_some() {
            return 1;
        }
        0
    }

    /// The input keys were never mutated, so the restart recomputes
    /// from scratch over the host-only path.
    fn reset(&mut self, _node: usize, _stream: Option<u32>, _ctx: &mut Ctx) {
        self.variant = SortVariant::HostOnly;
        self.card_bucket_data = None;
        self.sorted.clear();
        self.timings = SortTimings::default();
    }

    fn resume(&mut self, phase: u32, ctx: &mut Ctx) {
        if phase >= 2 {
            return; // every rank had already finished
        }
        self.card_bucket_data = None;
        self.sorted.clear();
        match phase {
            0 => {
                if self.core.failed_over {
                    self.variant = SortVariant::HostOnly;
                }
                self.start(ctx);
            }
            1 => {
                let ck = self
                    .ckpt1
                    .clone()
                    .expect("resume phase 1 without its checkpoint");
                self.card_bucket_data = ck.card;
                self.tcp_keys = ck.tcp;
                // Resume under the snapshot's variant: it names the data
                // layout, and the remaining phases are pure host compute
                // even if this rank has since lost its card.
                self.variant = ck.variant;
                match self.variant {
                    SortVariant::InicFull => self.begin_count(ctx),
                    _ => self.begin_bucket2(ctx),
                }
            }
            _ => unreachable!(),
        }
    }

    fn on_step(&mut self, step: Step, ctx: &mut Ctx) {
        match step {
            Step::Bucket1 => self.on_bucket1_done(ctx),
            Step::Bucket2 => self.on_bucket2_done(ctx),
            Step::Count => self.on_count_done(ctx),
        }
    }

    /// The key exchange completed: keep the card's buckets and the TCP
    /// streams, checkpoint them, and run the host's remaining passes.
    fn on_exchange(&mut self, done: ExchangeDone, ctx: &mut Ctx) {
        assert_eq!(self.phase, Phase::Exchange);
        self.card_bucket_data = done.gather.map(|g| {
            let bounds = g.bucket_bounds.expect("bucket/raw gather carries bounds");
            (g.data, bounds)
        });
        self.tcp_keys
            .extend(done.legs.into_iter().map(|(_, body)| bytes_to_keys(&body)));
        self.timings.comm += ctx.now().since(self.phase_entered);
        if self.core.ckpt_armed() {
            self.ckpt1 = Some(ExchangeCkpt {
                card: self.card_bucket_data.clone(),
                tcp: self.tcp_keys.clone(),
                variant: self.variant,
            });
        }
        match self.variant {
            SortVariant::InicFull => self.begin_count(ctx),
            _ => self.begin_bucket2(ctx),
        }
    }
}

impl Component for SortDriver {
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
