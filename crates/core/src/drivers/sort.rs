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
//! Fault handling runs in the shared recovery core (`drivers::handle`):
//! stalled hosts defer every event, and under rank-local recovery a
//! dead rank degrades to [`SortVariant::HostOnly`] over its fallback
//! NIC while healthy ranks keep the card, carrying the dead ranks'
//! buckets as length-prefixed TCP side streams next to the card
//! exchange. The post-exchange state can be checkpointed so a later
//! failure resumes from the exchange instead of re-running it.

use std::any::Any;
use std::collections::BTreeMap;

use acc_algos::sort::{
    bucket_index, bucket_sort, bytes_to_keys, count_sort, destination_by_splitters,
    destination_rank, is_sorted, keys_to_bytes,
};
use acc_fpga::{
    Bitstream, GatherKind, InicExpect, InicGatherComplete, InicMode, InicScatter, InicScatterDone,
    ScatterKind,
};
use acc_host::HostKernels;
use acc_proto::{TcpDelivered, TcpSend};
use acc_sim::{Component, Ctx, DataSize, SimDuration, SimTime};

use super::{recv_buckets_for, Attachment, Driver, DriverCore, DriverProgress};

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
    /// Keys received over TCP (commodity path).
    received: Vec<Vec<u32>>,
    /// Keys received over the mixed-technology TCP side streams.
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
    /// TCP receive reassembly: raw bytes per (src rank, channel). The
    /// channel namespaces the exchange by epoch, so bytes from an
    /// aborted attempt never leak into the restarted one.
    rx: BTreeMap<(usize, u16), Vec<u8>>,
    /// Commodity: keys received (parsed once each stream's length-prefix
    /// is satisfied).
    received_keys: Vec<Vec<u32>>,
    streams_pending: usize,
    /// Mixed-technology exchange: keys from degraded peers, carried over
    /// TCP next to the card exchange.
    mixed_tcp_keys: Vec<Vec<u32>>,
    /// Mixed-technology exchange: TCP side streams still outstanding.
    tcp_pending: usize,
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
            core: DriverCore::new(format!("sort-driver{rank}"), rank, attachment),
            p,
            variant,
            kernels,
            keys,
            splitters: None,
            recv_buckets,
            phase: Phase::Init,
            phase_entered: SimTime::ZERO,
            rx: BTreeMap::new(),
            received_keys: Vec::new(),
            streams_pending: 0,
            mixed_tcp_keys: Vec::new(),
            tcp_pending: 0,
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

    /// INIC stream id for the exchange, namespaced by epoch so a
    /// restarted exchange never collides with the aborted one's demux
    /// state (epoch 0 keeps the historical id 1).
    fn stream(&self) -> u32 {
        (self.core.epoch as u32) * 8 + 1
    }

    /// TCP channel for the exchange, namespaced like [`stream`].
    fn chan(&self) -> u16 {
        (self.core.epoch as u16) * 4 + 1
    }

    /// Capture the post-exchange checkpoint (called at exchange
    /// completion, before any phase consumes the buffers).
    fn capture_ckpt(&mut self) {
        if !self.core.ckpt_armed() {
            return;
        }
        self.ckpt1 = Some(ExchangeCkpt {
            card: self.card_bucket_data.clone(),
            received: self.received_keys.clone(),
            tcp: self.mixed_tcp_keys.clone(),
            variant: self.variant,
        });
    }

    // ---- start ----

    fn start(&mut self, ctx: &mut Ctx) {
        self.core.started_at.get_or_insert(ctx.now());
        self.streams_pending = self.p - 1;
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
                let Attachment::Inic {
                    card,
                    macs,
                    fallback,
                    ..
                } = &self.core.attachment
                else {
                    panic!("INIC variant without INIC attachment");
                };
                let card = *card;
                let macs = macs.clone();
                let fallback = fallback.clone();
                let k = self.card_recv_buckets();
                let dead = self.core.dead.clone();
                let stream = self.stream();
                ctx.send_now(
                    card,
                    InicExpect {
                        stream,
                        kind: GatherKind::BucketKeys { k },
                        sources: (0..self.p as u32)
                            .filter(|s| !dead.contains(&(*s as usize)))
                            .map(|s| (s, None))
                            .collect(),
                    },
                );
                ctx.send_now(
                    card,
                    InicScatter {
                        stream,
                        kind: ScatterKind::BucketKeys {
                            p: self.p,
                            splitters: self.splitters.clone(),
                        },
                        data: keys_to_bytes(&self.keys),
                        dests: macs,
                    },
                );
                // Mixed-technology side streams: the card drops chunks
                // destined to dead peers, so the host carries those
                // buckets over the fallback TCP path instead.
                self.tcp_pending = dead.len();
                if !dead.is_empty() {
                    let (fb_nic, fb_macs) =
                        fallback.expect("rank-local degradation needs a fallback path");
                    let chan = self.chan();
                    let buckets = self.partition_keys();
                    for &d in &dead {
                        let body = keys_to_bytes(&buckets[d]);
                        let mut data = (body.len() as u64).to_le_bytes().to_vec();
                        data.extend_from_slice(&body);
                        ctx.send_now(
                            fb_nic,
                            TcpSend {
                                peer: fb_macs[d],
                                chan,
                                data,
                            },
                        );
                    }
                    // Streams the degraded peers sent while this rank
                    // was still paused are already buffered; consume
                    // them now — no further delivery will re-trigger
                    // the parse.
                    for &d in &dead {
                        if let Some(keys) = self.take_complete_stream(d, chan) {
                            self.mixed_tcp_keys.push(keys);
                            self.tcp_pending -= 1;
                        }
                    }
                }
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

    // ---- commodity path ----

    fn on_bucket1_done(&mut self, ctx: &mut Ctx) {
        assert_eq!(self.phase, Phase::Bucket1);
        self.timings.bucket1 += ctx.now().since(self.phase_entered);
        self.phase = Phase::Exchange;
        self.phase_entered = ctx.now();
        if self.variant == SortVariant::ProtocolOnly {
            return self.raw_exchange_via_card(ctx);
        }
        let Attachment::Tcp { nic, macs } = &self.core.attachment else {
            panic!("HostOnly variant without TCP attachment");
        };
        let nic = *nic;
        let macs = macs.clone();
        let chan = self.chan();
        let buckets = self.partition_keys();
        for step in 1..self.p {
            let q = (self.core.rank + step) % self.p;
            // Length-prefixed key stream: the receiver learns each
            // sender's (data-dependent) total from the first 8 bytes.
            let body = keys_to_bytes(&buckets[q]);
            let mut data = (body.len() as u64).to_le_bytes().to_vec();
            data.extend_from_slice(&body);
            ctx.send_now(
                nic,
                TcpSend {
                    peer: macs[q],
                    chan,
                    data,
                },
            );
        }
        // Our own bucket stays home.
        self.received_keys.push(buckets[self.core.rank].clone());
        self.check_exchange_complete(ctx);
    }

    /// Protocol-processor path: host-bucketed parts ride the card's
    /// lightweight protocol.
    fn raw_exchange_via_card(&mut self, ctx: &mut Ctx) {
        let Attachment::Inic {
            card, macs, mode, ..
        } = &self.core.attachment
        else {
            panic!("ProtocolOnly variant without INIC attachment");
        };
        debug_assert_eq!(*mode, InicMode::ProtocolProcessor);
        let card = *card;
        let macs = macs.clone();
        let stream = self.stream();
        let buckets = self.partition_keys();
        let mut parts = vec![0usize; self.p];
        let mut data = Vec::with_capacity(self.keys.len() * 4);
        for step in 0..self.p {
            let q = (self.core.rank + step) % self.p;
            parts[q] = buckets[q].len() * 4;
            data.extend(keys_to_bytes(&buckets[q]));
        }
        ctx.send_now(
            card,
            InicExpect {
                stream,
                kind: GatherKind::Raw,
                sources: (0..self.p as u32).map(|s| (s, None)).collect(),
            },
        );
        ctx.send_now(
            card,
            InicScatter {
                stream,
                kind: ScatterKind::Raw { parts },
                data,
                dests: macs,
            },
        );
    }

    /// Pop the buffered stream from `(src, chan)` if it is complete
    /// (8-byte length prefix + body), decoded to keys.
    fn take_complete_stream(&mut self, src: usize, chan: u16) -> Option<Vec<u32>> {
        let buf = self.rx.get(&(src, chan))?;
        if buf.len() < 8 {
            return None;
        }
        let want = usize::try_from(u64::from_le_bytes(
            buf[..8]
                .try_into()
                .expect("sort stream length prefix is 8 bytes"),
        ))
        .expect("sort stream length fits usize");
        if buf.len() < 8 + want {
            return None;
        }
        assert_eq!(
            buf.len(),
            8 + want,
            "sender sent more than one stream on this channel"
        );
        let keys = bytes_to_keys(&buf[8..]);
        self.rx.remove(&(src, chan));
        Some(keys)
    }

    fn on_tcp_delivered(&mut self, d: TcpDelivered, ctx: &mut Ctx) {
        let src = self
            .core
            .attachment
            .resolve_src(d.peer)
            .expect("delivery from unknown MAC");
        let chan_now = self.chan();
        let buf = self.rx.entry((src, d.chan)).or_default();
        buf.extend_from_slice(&d.data);
        if self.core.paused || d.chan != chan_now {
            // Stale epoch (the exchange it belonged to was abandoned) or
            // a paused host: leave it buffered, it is never consumed.
            return;
        }
        let Some(keys) = self.take_complete_stream(src, d.chan) else {
            return; // stream still in flight
        };
        if matches!(self.core.attachment, Attachment::Inic { .. }) {
            // Mixed-technology side stream from a degraded peer.
            assert!(self.tcp_pending > 0, "unexpected TCP stream on INIC rank");
            self.mixed_tcp_keys.push(keys);
            self.tcp_pending -= 1;
            self.try_finish_inic_exchange(ctx);
        } else {
            self.received_keys.push(keys);
            self.streams_pending -= 1;
            self.check_exchange_complete(ctx);
        }
    }

    fn check_exchange_complete(&mut self, ctx: &mut Ctx) {
        if self.core.paused || self.phase != Phase::Exchange || self.streams_pending > 0 {
            return;
        }
        if matches!(self.variant, SortVariant::HostOnly) {
            self.timings.comm += ctx.now().since(self.phase_entered);
            self.capture_ckpt();
            self.begin_bucket2(ctx);
        }
    }

    /// Phase-2 host bucket pass (commodity; also the prototype's second
    /// phase, reached from the gather instead).
    fn begin_bucket2(&mut self, ctx: &mut Ctx) {
        self.phase = Phase::Bucket2;
        self.phase_entered = ctx.now();
        let n_keys: u64 = match self.variant {
            SortVariant::HostOnly => self.received_keys.iter().map(|v| v.len() as u64).sum(),
            SortVariant::InicTwoPhase | SortVariant::ProtocolOnly => {
                let (data, _) = self.card_bucket_data.as_ref().expect("gather data");
                (data.len() / 4) as u64
                    + self
                        .mixed_tcp_keys
                        .iter()
                        .map(|v| v.len() as u64)
                        .sum::<u64>()
            }
            SortVariant::InicFull => unreachable!("ideal INIC skips phase 2"),
        };
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
        let grouped: Vec<Vec<u32>> = match self.variant {
            SortVariant::HostOnly => {
                let all: Vec<u32> = self.received_keys.concat();
                bucket_sort_into_n(&all, self.recv_buckets)
            }
            SortVariant::InicTwoPhase | SortVariant::ProtocolOnly => {
                let (data, _bounds) = self.card_bucket_data.take().expect("gather data");
                let mut all = bytes_to_keys(&data);
                for keys in &self.mixed_tcp_keys {
                    all.extend_from_slice(keys);
                }
                bucket_sort_into_n(&all, self.recv_buckets)
            }
            SortVariant::InicFull => {
                let (data, bounds) = self.card_bucket_data.take().expect("gather data");
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
                for keys in &self.mixed_tcp_keys {
                    for &k in keys {
                        out[bucket_index(k, self.recv_buckets)].push(k);
                    }
                }
                out
            }
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

    // ---- INIC path ----

    /// Card gather stored; finish the exchange once the mixed-technology
    /// TCP side streams (if any) are also in.
    fn try_finish_inic_exchange(&mut self, ctx: &mut Ctx) {
        if self.core.paused || self.phase != Phase::Exchange {
            return;
        }
        if self.card_bucket_data.is_none() || self.tcp_pending > 0 {
            return;
        }
        self.timings.comm += ctx.now().since(self.phase_entered);
        self.capture_ckpt();
        match self.variant {
            SortVariant::InicFull => self.begin_count(ctx),
            SortVariant::InicTwoPhase | SortVariant::ProtocolOnly => self.begin_bucket2(ctx),
            SortVariant::HostOnly => unreachable!(),
        }
    }

    fn on_gather(&mut self, g: InicGatherComplete, ctx: &mut Ctx) {
        if self.core.failed_over {
            return; // stale card traffic from before the failure
        }
        if self.core.paused || self.phase != Phase::Exchange || g.stream != self.stream() {
            return; // gather of an abandoned exchange
        }
        let bounds = g.bucket_bounds.expect("bucket/raw gather carries bounds");
        self.card_bucket_data = Some((g.data, bounds));
        self.try_finish_inic_exchange(ctx);
    }
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

    fn abort_in_flight(&mut self) -> Option<u32> {
        let on_card = matches!(self.core.attachment, Attachment::Inic { .. });
        (on_card && self.phase == Phase::Exchange).then(|| self.stream())
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
    fn reset(&mut self, _node: usize, _ctx: &mut Ctx) {
        self.variant = SortVariant::HostOnly;
        self.rx.clear();
        self.received_keys.clear();
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
                self.received_keys.clear();
                self.mixed_tcp_keys.clear();
                self.tcp_pending = 0;
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
                self.received_keys = ck.received;
                self.mixed_tcp_keys = ck.tcp;
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
            return;
        }
        panic!("{}: unknown event", self.core.label);
    }
}

impl Component for SortDriver {
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
            "rank {} in {} since {} (epoch {}, {} card streams + {} tcp streams pending{})",
            self.core.rank,
            self.phase_name(),
            self.phase_entered,
            self.core.epoch,
            self.streams_pending,
            self.tcp_pending,
            self.core.parked()
        ))
    }
}
