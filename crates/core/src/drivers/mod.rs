//! Per-node application drivers.
//!
//! A driver is the "host program" of one cluster node: it owns the
//! node's data partition, charges host compute time through the
//! calibrated kernel models, performs the *actual* data transformations
//! (the same `acc-algos` functions the oracles use), and talks to its
//! network attachment — a [`TcpHostNic`](acc_proto::TcpHostNic) for the
//! commodity technologies or an [`InicCard`](acc_fpga::InicCard) for
//! the INIC technologies.
//!
//! # The driver core
//!
//! Every driver runs on one core, implemented here. `DriverCore` holds
//! the per-rank state and `handle` is the one event prologue: stall
//! deferral, start/configure, the card-failure protocol ([`CardFailed`],
//! [`ResumeAt`], `InicConfigured`, the epoch check on self timers) and
//! the exchange events.
//!
//! An *exchange* is one all-to-all step: the FFT's transpose, the
//! sort's key exchange, one collective round. The core's `Exchange`
//! issues the card gather and scatter, sends the TCP legs (over the
//! commodity NIC, or on an INIC over the fallback NIC to dead peers),
//! reassembles inbound TCP legs per `(source rank, channel)`, namespaces
//! stream and channel ids by failover epoch, drops stale card
//! completions, and calls the driver's `on_exchange` hook once when the
//! gather, any awaited scatter and every TCP leg are in.
//!
//! A driver keeps only its data handling, plugged in through the
//! `Driver` hooks: its bitstream, `begin`, what goes into each exchange
//! and what it does with what comes out, its completed phase, the reset
//! for a full restart and the resume from checkpoint `k`.

pub mod coll;
pub mod fft;
pub mod sort;

use std::any::Any;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};

use acc_coll::recovery::exchange_tag;
use acc_fpga::{
    Bitstream, GatherKind, InicConfigure, InicConfigured, InicExpect, InicGatherComplete, InicMode,
    InicRecover, InicScatter, InicScatterDone, ScatterKind,
};
use acc_host::StallSchedule;
use acc_net::MacAddr;
use acc_proto::{TcpDelivered, TcpSend};
use acc_sim::stats::CounterId;
use acc_sim::{Component, ComponentId, Ctx, SimDuration, SimTime, StatsRegistry};

/// How a node reaches the network.
#[derive(Clone, Debug)]
pub enum Attachment {
    /// Commodity NIC + kernel TCP (Fast or Gigabit Ethernet — the link
    /// rate is a property of the wiring, not the driver).
    Tcp {
        /// The node's `TcpHostNic` component.
        nic: ComponentId,
        /// MAC of every rank.
        macs: Vec<MacAddr>,
    },
    /// Intelligent NIC.
    Inic {
        /// The node's `InicCard` component.
        card: ComponentId,
        /// MAC of every rank.
        macs: Vec<MacAddr>,
        /// Operating mode: [`InicMode::Combined`] fuses the application
        /// operators into the datapath; [`InicMode::ProtocolProcessor`]
        /// offloads only the protocol, leaving the data manipulation on
        /// the host (the Section 2 mode ablation).
        mode: InicMode,
        /// Degradation path: a commodity `TcpHostNic` per rank (this
        /// node's component id, every rank's fallback MAC table), wired
        /// only when the fault plan can kill a card. On [`CardFailed`]
        /// the driver abandons the card and restarts over this path.
        fallback: Option<(ComponentId, Vec<MacAddr>)>,
    },
}

/// Cluster → every driver: node `node`'s INIC card died permanently.
/// What happens next depends on the [`RecoveryPolicy`]: under
/// [`RecoveryPolicy::FullRestart`] all ranks fail over together and
/// restart from their retained inputs over the commodity fallback NICs;
/// under the rank-local policies only the dead rank degrades to its
/// fallback `TcpHostNic`, healthy ranks keep their INIC datapath, and
/// the collective resumes (from the last checkpointed phase when
/// checkpointing is on) as a mixed-technology exchange.
#[derive(Clone, Copy, Debug)]
pub struct CardFailed {
    /// Rank whose card died.
    pub node: u32,
}

/// How the cluster recovers from a permanent card failure.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum RecoveryPolicy {
    /// Every rank abandons its card and restarts the whole collective
    /// from input bytes over the fallback NICs (PR 1 behaviour).
    FullRestart,
    /// Only the dead rank falls back to TCP; healthy ranks keep their
    /// INICs and the collective restarts from scratch as a
    /// mixed-technology exchange.
    RankLocal,
    /// Rank-local degradation plus phase-level checkpoints: the
    /// collective resumes from the earliest phase any rank had not yet
    /// completed, instead of from scratch.
    #[default]
    Checkpointed,
}

/// One rank's phase snapshot, read by the liveness layer to attribute a
/// hang to a named phase and rank. Every driver exposes it via a
/// `progress()` accessor; the phase names match the
/// [`DeadlineHierarchy`](crate::deadline::DeadlineHierarchy) budgets.
#[derive(Clone, Debug)]
pub struct DriverProgress {
    /// The rank.
    pub rank: usize,
    /// Current phase name (`init`, `fft1`, `exchange`, ..., `done`).
    pub phase: &'static str,
    /// When the driver entered that phase.
    pub entered: SimTime,
    /// Whether the driver is parked awaiting a recovery resume.
    pub paused: bool,
    /// Whether the driver finished.
    pub done: bool,
}

/// Host-side latency of one failure-coordination message (detection,
/// kernel path, daemon wakeup). Charged on each report and each resume
/// broadcast.
pub const RECOVERY_LATENCY: SimDuration = SimDuration::from_micros(200);

/// Wrapper for an event a stalled host could not service: the driver
/// re-enqueues the original event for the end of the stall window.
/// (A plain re-send would double-box the `Box<dyn Any>`.)
pub struct Deferred(pub Box<dyn Any>);

/// Per-driver fault-handling configuration, wired by the cluster
/// builder only when a fault plan is attached.
#[derive(Default)]
pub struct FaultCtl {
    /// This node's stall windows from the plan (empty = never stalls).
    pub stalls: StallSchedule,
    /// Card-failure recovery policy.
    pub policy: RecoveryPolicy,
    /// The [`RecoveryCoordinator`], present only when the plan can kill
    /// cards and the policy is rank-local. Its presence also arms
    /// checkpoint capture under [`RecoveryPolicy::Checkpointed`].
    pub coordinator: Option<ComponentId>,
}

/// Driver → coordinator: this rank processed a [`CardFailed`] and can
/// resume from checkpoint `phase` (0 = from scratch).
#[derive(Clone, Copy, Debug)]
pub struct RecoveryReport {
    /// Reporting rank.
    pub rank: u32,
    /// Failover round (the driver's post-bump epoch) the report belongs
    /// to; reports from different rounds are never mixed.
    pub round: u64,
    /// Highest phase checkpoint this rank holds (its phase counter).
    /// The collective engine reports *completed rounds* here — the
    /// coordinator's minimum is then the last round whose checkpoint
    /// every survivor can restore.
    pub phase: u32,
}

/// Coordinator → every driver: all ranks reported for `round`; resume
/// the collective from checkpoint `phase` (the minimum over ranks — a
/// collective phase needs every peer's participation).
#[derive(Clone, Copy, Debug)]
pub struct ResumeAt {
    /// Failover round this decision belongs to.
    pub round: u64,
    /// Phase to restore and resume from.
    pub phase: u32,
}

/// Self event closing a charged host-compute window, tagged with the
/// failover epoch that armed it: a failover bumps the epoch and
/// restarts the state machine, so a timer from the abandoned attempt is
/// dropped instead of firing into the new one.
struct Timer<S>(u64, S);

/// The length of an inbound TCP leg.
#[derive(Clone, Copy, Debug)]
pub(crate) enum LegLen {
    /// Exactly this many bytes.
    Fixed(usize),
    /// An 8-byte little-endian length, then that many bytes: a stream
    /// whose size the receiver cannot know in advance (sort's keys).
    Prefixed,
}

/// The inbound streams of a card gather: `(source rank, total bytes)`
/// each, as [`InicExpect`] takes them.
pub(crate) type Sources = Vec<(u32, Option<usize>)>;

/// What one exchange puts on the wire and what it waits for. Every
/// part is optional; an exchange that waits for nothing completes as
/// soon as it opens.
#[derive(Default)]
pub(crate) struct ExchangePlan {
    /// The card gather to announce: operator and `(source rank, bytes)`
    /// per inbound stream.
    pub gather: Option<(GatherKind, Sources)>,
    /// The card scatter to hand over: operator and partition bytes.
    pub scatter: Option<(ScatterKind, Vec<u8>)>,
    /// Whether completion waits for the scatter's [`InicScatterDone`].
    pub await_scatter: bool,
    /// Outbound TCP legs: destination rank and bytes.
    pub sends: Vec<(usize, Vec<u8>)>,
    /// Inbound TCP legs: source rank and length.
    pub recvs: Vec<(usize, LegLen)>,
}

/// A completed exchange, its bytes moved out of the exchange.
pub(crate) struct ExchangeDone {
    /// The card gather, when the plan announced one.
    pub gather: Option<InicGatherComplete>,
    /// The inbound TCP legs in the plan's order: source rank and bytes
    /// (a length prefix stripped).
    pub legs: Vec<(usize, Vec<u8>)>,
}

/// Where an issued card scatter stands, as far as the exchange knows.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Scatter {
    /// None issued, or an awaited one finished.
    Clear,
    /// Issued; completion waits for its [`InicScatterDone`].
    Awaited,
    /// Issued without waiting: in flight until the exchange completes.
    Untracked,
}

/// The exchange in progress.
struct Open {
    stream: u32,
    chan: u16,
    /// `Some(None)` while the announced gather is outstanding.
    gather: Option<Option<InicGatherComplete>>,
    scatter: Scatter,
    legs: Vec<(usize, LegLen)>,
}

impl Open {
    fn awaiting_gather(&self) -> bool {
        matches!(self.gather, Some(None))
    }
}

/// One rank's exchange engine: TCP reassembly plus the exchange in
/// progress.
#[derive(Default)]
struct Exchange {
    /// Inbound TCP bytes per `(source rank, channel)`. Peers run ahead,
    /// so legs of a later exchange wait here until it opens; bytes on a
    /// stale epoch's channel are never read.
    rx: BTreeMap<(usize, u16), Vec<u8>>,
    open: Option<Open>,
}

impl Exchange {
    /// Buffer delivered TCP bytes; the first delivery on a key is moved
    /// in, not copied.
    fn buffer(&mut self, src: usize, chan: u16, data: Vec<u8>) {
        match self.rx.entry((src, chan)) {
            Entry::Vacant(slot) => {
                slot.insert(data);
            }
            Entry::Occupied(mut buf) => buf.get_mut().extend_from_slice(&data),
        }
    }

    /// Record the card's gather if it belongs to the open exchange.
    /// Anything else is a stale epoch's completion and is dropped; in
    /// epoch 0 there is no stale traffic, so it is a protocol bug.
    fn gathered(&mut self, g: InicGatherComplete, epoch: u64) -> bool {
        match &mut self.open {
            Some(o) if o.stream == g.stream && o.awaiting_gather() => {
                o.gather = Some(Some(g));
                true
            }
            _ => {
                assert!(
                    epoch > 0,
                    "gather on stream {} matches no exchange",
                    g.stream
                );
                false
            }
        }
    }

    /// Record an awaited scatter's completion; others are dropped.
    fn scattered(&mut self, stream: u32) -> bool {
        match &mut self.open {
            Some(o) if o.stream == stream && o.scatter == Scatter::Awaited => {
                o.scatter = Scatter::Clear;
                true
            }
            _ => false,
        }
    }

    /// The body of `src`'s leg once it is whole.
    fn whole(&self, src: usize, chan: u16, len: LegLen) -> Option<usize> {
        let buf = self.rx.get(&(src, chan))?;
        let want = match len {
            LegLen::Fixed(n) => n,
            LegLen::Prefixed => {
                let prefix = buf.get(..8)?.try_into().expect("8-byte length prefix");
                8 + usize::try_from(u64::from_le_bytes(prefix)).expect("leg length fits usize")
            }
        };
        (buf.len() >= want).then_some(want)
    }

    /// Close the open exchange if everything it waits for is in.
    fn take_complete(&mut self) -> Option<ExchangeDone> {
        let o = self.open.as_ref()?;
        if o.awaiting_gather() || o.scatter == Scatter::Awaited {
            return None;
        }
        let wants: Vec<usize> = o
            .legs
            .iter()
            .map(|&(src, len)| self.whole(src, o.chan, len))
            .collect::<Option<_>>()?;
        let o = self.open.take().expect("checked open");
        let legs = o
            .legs
            .iter()
            .zip(wants)
            .map(|(&(src, len), want)| {
                let mut buf = self.rx.remove(&(src, o.chan)).expect("checked whole");
                assert_eq!(
                    buf.len(),
                    want,
                    "leg from rank {src} on channel {} over-delivered",
                    o.chan
                );
                if let LegLen::Prefixed = len {
                    buf.drain(..8);
                }
                (src, buf)
            })
            .collect();
        Some(ExchangeDone {
            gather: o.gather.flatten(),
            legs,
        })
    }

    /// Abandon the open exchange; returns its stream when card work is
    /// still in flight on it (an announced gather outstanding, or a
    /// scatter not known to be done), for the card to abort.
    fn abort(&mut self) -> Option<u32> {
        let o = self.open.take()?;
        (o.awaiting_gather() || o.scatter != Scatter::Clear).then_some(o.stream)
    }

    /// What the open exchange still waits for, for wait states.
    fn describe(&self) -> String {
        let Some(o) = &self.open else {
            return String::new();
        };
        let mut out = String::new();
        if o.awaiting_gather() {
            out += &format!("; awaiting gather on stream {}", o.stream);
        }
        if o.scatter == Scatter::Awaited {
            out += &format!("; awaiting scatter on stream {}", o.stream);
        }
        let pending: Vec<String> = o
            .legs
            .iter()
            .filter(|&&(src, len)| self.whole(src, o.chan, len).is_none())
            .map(|&(src, _)| {
                let have = self.rx.get(&(src, o.chan)).map_or(0, Vec::len);
                format!("rank {src} ({have} B in)")
            })
            .collect();
        if !pending.is_empty() {
            out += &format!(
                "; awaiting tcp legs on channel {} from {}",
                o.chan,
                pending.join(", ")
            );
        }
        out
    }
}

acc_sim::counter_set! {
    /// Per-rank recovery counters.
    struct DriverCounters { card_failovers, stall_deferrals, phase_resumes }
}

/// The per-rank state every driver shares: identity, network attachment,
/// the exchange engine and the card-failure recovery protocol that
/// [`handle`] runs.
pub(crate) struct DriverCore {
    label: String,
    rank: usize,
    /// How the node reaches the network; a failover swaps in the
    /// commodity fallback path.
    attachment: Attachment,
    /// Fault-handling configuration (default when no plan is wired).
    fault_ctl: FaultCtl,
    /// Failover epoch: bumped once per processed card failure, on every
    /// rank, so streams, TCP channels and timers from before a failure
    /// can never satisfy work issued after it.
    epoch: u64,
    /// Exchanges the driver runs per epoch: the span of its tags.
    exchanges: usize,
    /// The exchange engine.
    xchg: Exchange,
    /// Whether this rank abandoned its card for the fallback NIC.
    failed_over: bool,
    /// Ranks whose cards died (rank-local recovery only).
    dead: BTreeSet<usize>,
    /// Parked between reporting a failure and the coordinator's resume.
    paused: bool,
    /// Whether the card finished loading its bitstream. A failover that
    /// lands inside the configuration window must defer its resume
    /// until the card is usable.
    configured: bool,
    /// A [`ResumeAt`] verdict received before `configured`; replayed
    /// when the bitstream lands.
    pending_resume: Option<ResumeAt>,
    /// The checkpoint phase the last resume restarted from.
    resumed_from: Option<u32>,
    /// Whether this driver already counted itself in `drivers_done`.
    reported_done: bool,
    /// When this rank started computing (after configuration on INIC
    /// technologies). Set once: a failover restart keeps the original
    /// instant, so the aborted attempt counts in the degraded run time.
    pub(crate) started_at: Option<SimTime>,
    /// When this rank last finished.
    pub(crate) done_at: Option<SimTime>,
    counters: DriverCounters,
    /// `cluster.drivers_done`, shared by every rank.
    drivers_done: CounterId,
}

impl DriverCore {
    /// A rank running `exchanges` exchanges per epoch.
    fn new(label: String, rank: usize, attachment: Attachment, exchanges: usize) -> DriverCore {
        assert!(
            exchanges < usize::from(u16::MAX),
            "exchange index must fit the TCP channel id"
        );
        DriverCore {
            label,
            rank,
            attachment,
            fault_ctl: FaultCtl::default(),
            epoch: 0,
            exchanges,
            xchg: Exchange::default(),
            failed_over: false,
            dead: BTreeSet::new(),
            paused: false,
            configured: false,
            pending_resume: None,
            resumed_from: None,
            reported_done: false,
            started_at: None,
            done_at: None,
            counters: DriverCounters::UNREGISTERED,
            drivers_done: CounterId::UNREGISTERED,
        }
    }

    /// Register the rank's counters; every driver's
    /// [`Component::register_stats`] delegates here.
    pub(crate) fn register_stats(&mut self, stats: &mut StatsRegistry) {
        self.counters = DriverCounters::register(stats, &self.label);
        self.drivers_done = stats.register_counter("cluster", "drivers_done");
    }

    /// Whether this rank completed over the degraded fallback path.
    pub(crate) fn degraded(&self) -> bool {
        self.failed_over
    }

    /// The checkpoint phase the last failover resumed from, if any.
    pub(crate) fn resumed_from(&self) -> Option<u32> {
        self.resumed_from
    }

    /// Whether phase checkpoints are being captured.
    fn ckpt_armed(&self) -> bool {
        self.fault_ctl.coordinator.is_some()
            && self.fault_ctl.policy == RecoveryPolicy::Checkpointed
    }

    /// Arm a host-compute timer in the current epoch.
    fn timer_in<S: 'static>(&self, ctx: &mut Ctx, after: SimDuration, step: S) {
        ctx.self_in(after, Timer(self.epoch, step));
    }

    /// Record the finish instant and count this rank into the cluster's
    /// `drivers_done` — once, even when a resume re-runs the finished
    /// schedule.
    fn mark_done(&mut self, ctx: &mut Ctx) {
        // Post-failover, bytes parked on dead-epoch channels are expected
        // leftovers; on a clean run they are a protocol bug.
        assert!(
            self.epoch > 0 || self.xchg.rx.is_empty(),
            "{}: leftover peer bytes at completion",
            self.label
        );
        self.done_at = Some(ctx.now());
        if !self.reported_done {
            self.reported_done = true;
            ctx.stats()[self.drivers_done].inc();
        }
    }

    /// Phase snapshot for the liveness layer.
    fn progress(&self, phase: &'static str, entered: SimTime, done: bool) -> DriverProgress {
        DriverProgress {
            rank: self.rank,
            phase,
            entered,
            paused: self.paused,
            done,
        }
    }

    /// Send the wire half of `plan` as exchange `index` of this epoch
    /// and arm the exchange. Card requests go out before the TCP legs,
    /// which ride the commodity NIC, or on an INIC the fallback NIC
    /// (legs to dead peers).
    fn issue(&mut self, index: usize, plan: ExchangePlan, ctx: &mut Ctx) {
        let tag = exchange_tag(self.epoch, self.exchanges, index);
        let (stream, chan) = (u32::from(tag) + 1, tag);
        let scatter = match plan.scatter {
            None => Scatter::Clear,
            Some(_) if plan.await_scatter => Scatter::Awaited,
            Some(_) => Scatter::Untracked,
        };
        let gather = plan.gather.is_some().then_some(None);
        if gather.is_some() || plan.scatter.is_some() {
            let Attachment::Inic { card, macs, .. } = &self.attachment else {
                panic!("{}: card exchange without a card", self.label);
            };
            if let Some((kind, sources)) = plan.gather {
                ctx.send_now(
                    *card,
                    InicExpect {
                        stream,
                        kind,
                        sources,
                    },
                );
            }
            if let Some((kind, data)) = plan.scatter {
                let dests = macs.clone();
                ctx.send_now(
                    *card,
                    InicScatter {
                        stream,
                        kind,
                        data,
                        dests,
                    },
                );
            }
        }
        if !plan.sends.is_empty() {
            let (nic, macs) = match &self.attachment {
                Attachment::Tcp { nic, macs } => (*nic, macs),
                Attachment::Inic {
                    fallback: Some((nic, macs)),
                    ..
                } => (*nic, macs),
                Attachment::Inic { fallback: None, .. } => {
                    panic!("{}: degraded exchange without a fallback path", self.label)
                }
            };
            for (to, data) in plan.sends {
                let peer = macs[to];
                ctx.send_now(nic, TcpSend { peer, chan, data });
            }
        }
        assert!(
            self.xchg.open.is_none(),
            "{}: exchange already open",
            self.label
        );
        self.xchg.open = Some(Open {
            stream,
            chan,
            gather,
            scatter,
            legs: plan.recvs,
        });
    }

    /// Abandon the card for the commodity fallback NIC.
    fn fail_over(&mut self, ctx: &mut Ctx) {
        let (nic, macs) = match &self.attachment {
            Attachment::Inic {
                fallback: Some(fb), ..
            } => fb.clone(),
            _ => panic!("{}: card failure without a wired fallback path", self.label),
        };
        ctx.stats()[self.counters.card_failovers].inc();
        self.failed_over = true;
        self.attachment = Attachment::Tcp { nic, macs };
    }
}

/// The application half of a node driver: its data handling, plugged
/// into the shared recovery protocol of [`handle`].
pub(crate) trait Driver: Component + Sized + 'static {
    /// The driver's kinds of charged host-compute window.
    type Step: 'static;

    /// The shared per-rank state.
    fn core(&self) -> &DriverCore;

    /// The shared per-rank state, mutably.
    fn core_mut(&mut self) -> &mut DriverCore;

    /// Phase snapshot for the liveness layer.
    fn progress(&self) -> DriverProgress;

    /// Attach fault-handling configuration (builder style).
    #[must_use]
    fn with_fault_ctl(mut self, ctl: FaultCtl) -> Self {
        self.core_mut().fault_ctl = ctl;
        self
    }

    /// The bitstream an INIC attachment loads before the run starts.
    fn bitstream(&self) -> Bitstream;

    /// Start the run: on the start event over TCP, once the bitstream
    /// landed on an INIC, and over the fallback after a full restart.
    fn begin(&mut self, ctx: &mut Ctx);

    /// Highest checkpoint this rank can resume from (its final phase
    /// once done), reported to the coordinator.
    fn completed_phase(&self) -> u32;

    /// Forget the aborted attempt before a full restart from the
    /// retained input; `node` is the rank whose card died and `stream`
    /// the card stream the abandoned exchange left in flight.
    fn reset(&mut self, node: usize, stream: Option<u32>, ctx: &mut Ctx);

    /// Restore checkpoint `phase` (0 = from scratch) and continue.
    fn resume(&mut self, phase: u32, ctx: &mut Ctx);

    /// A charged compute window of the current epoch closed.
    fn on_step(&mut self, step: Self::Step, ctx: &mut Ctx);

    /// The open exchange completed.
    fn on_exchange(&mut self, done: ExchangeDone, ctx: &mut Ctx);

    /// One driver-specific detail for the wait state.
    fn wait_detail(&self) -> Option<String> {
        None
    }

    /// Open exchange `index` of the current epoch, and complete it at
    /// once if everything it waits for is already here.
    fn open_exchange(&mut self, index: usize, plan: ExchangePlan, ctx: &mut Ctx) {
        self.core_mut().issue(index, plan, ctx);
        poll(self, ctx);
    }
}

/// Hand the open exchange to the driver if it completed.
fn poll<D: Driver>(d: &mut D, ctx: &mut Ctx) {
    if let Some(done) = d.core_mut().xchg.take_complete() {
        d.on_exchange(done, ctx);
    }
}

/// The wait state of every driver: rank, phase, epoch, what the open
/// exchange still waits for, and the driver's detail.
fn wait_state<D: Driver>(d: &D) -> Option<String> {
    let p = d.progress();
    if p.done {
        return None;
    }
    let core = d.core();
    let mut out = format!(
        "rank {} in {} since {} (epoch {}{}",
        p.rank,
        p.phase,
        p.entered,
        core.epoch,
        core.xchg.describe()
    );
    if let Some(detail) = d.wait_detail() {
        out += &format!("; {detail}");
    }
    if core.paused {
        out += "; parked for recovery resume";
    }
    out.push(')');
    Some(out)
}

/// The one event prologue of every driver.
fn handle<D: Driver>(d: &mut D, ev: Box<dyn Any>, ctx: &mut Ctx) {
    // Unwrap an event this host already deferred once.
    let ev = match ev.downcast::<Deferred>() {
        Ok(deferred) => deferred.0,
        Err(ev) => ev,
    };
    // A stalled host services nothing: kernel completions, NIC
    // interrupts and failure notices all wait for the window's end.
    let core = d.core();
    if let Some(release) = core.fault_ctl.stalls.deferral(ctx.now()) {
        ctx.stats()[core.counters.stall_deferrals].inc();
        ctx.self_in(release.since(ctx.now()), Deferred(ev));
        return;
    }
    if ev.is::<()>() {
        match core.attachment {
            Attachment::Inic { card, .. } => {
                let bitstream = d.bitstream();
                ctx.send_now(card, InicConfigure { bitstream });
            }
            Attachment::Tcp { .. } => d.begin(ctx),
        }
        return;
    }
    if let Some(cf) = ev.downcast_ref::<CardFailed>() {
        let node = cf.node as usize;
        return match core.fault_ctl.coordinator {
            None => full_restart_failover(d, node, ctx),
            Some(coord) => rank_local_failover(d, node, coord, ctx),
        };
    }
    if let Some(r) = ev.downcast_ref::<ResumeAt>() {
        return on_resume_at(d, *r, ctx);
    }
    if let Some(cfg) = ev.downcast_ref::<InicConfigured>() {
        let core = d.core_mut();
        if core.failed_over {
            return; // the card answered just before it died
        }
        if let Err(e) = &cfg.result {
            panic!("{}: bitstream rejected: {e}", core.label);
        }
        core.configured = true;
        if let Some(r) = core.pending_resume.take() {
            // A failover interrupted the configuration; run the
            // deferred resume instead of a fresh start.
            on_resume_at(d, r, ctx);
        } else if !core.paused {
            // A failure reported but not yet resumed keeps the rank
            // parked: the coordinator's verdict starts it.
            d.begin(ctx);
        }
        return;
    }
    let ev = match ev.downcast::<Timer<D::Step>>() {
        Ok(timer) => {
            let Timer(epoch, step) = *timer;
            if epoch == d.core().epoch {
                d.on_step(step, ctx);
            } // else: a timer from an abandoned attempt
            return;
        }
        Err(ev) => ev,
    };
    let core = d.core_mut();
    let ev = match ev.downcast::<TcpDelivered>() {
        Ok(dlv) => {
            let TcpDelivered { peer, chan, data } = *dlv;
            let src = core
                .attachment
                .resolve_src(peer)
                .expect("delivery from an unknown MAC");
            core.xchg.buffer(src, chan, data);
            return poll(d, ctx);
        }
        Err(ev) => ev,
    };
    let ev = match ev.downcast::<InicGatherComplete>() {
        Ok(g) => {
            if core.xchg.gathered(*g, core.epoch) {
                poll(d, ctx);
            }
            return;
        }
        Err(ev) => ev,
    };
    match ev.downcast_ref::<InicScatterDone>() {
        Some(s) if core.xchg.scattered(s.stream) => poll(d, ctx),
        Some(_) => {} // not awaited, or a stale epoch's
        None => panic!("{}: unknown event", core.label),
    }
}

/// The whole cluster degrades together ([`RecoveryPolicy::FullRestart`],
/// and any run without a coordinator): every rank drops its card — even
/// a healthy one, peers can no longer reach every rank through the INIC
/// path — and restarts from its retained input over the commodity
/// fallback NIC. Only the original start instant survives.
fn full_restart_failover<D: Driver>(d: &mut D, node: usize, ctx: &mut Ctx) {
    let core = d.core_mut();
    if core.failed_over || matches!(core.attachment, Attachment::Tcp { .. }) {
        return; // a second card death changes nothing
    }
    // The restart forgets every buffered leg along with the exchange.
    let stream = std::mem::take(&mut core.xchg).abort();
    d.reset(node, stream, ctx);
    let core = d.core_mut();
    core.fail_over(ctx);
    core.epoch += 1;
    d.begin(ctx);
}

/// Rank-local degradation: only the dead rank abandons its card. Every
/// rank pauses, healthy ranks tell their cards to forget the dead peer
/// (and abort the in-flight stream, if any), and every rank reports its
/// highest completed checkpoint to the coordinator, which answers with
/// the cluster-wide resume phase.
fn rank_local_failover<D: Driver>(d: &mut D, node: usize, coord: ComponentId, ctx: &mut Ctx) {
    if !d.core_mut().dead.insert(node) {
        return; // duplicate death notice
    }
    let core = d.core_mut();
    let abort_stream = core.xchg.abort();
    core.epoch += 1;
    core.paused = true;
    if core.rank == node {
        core.fail_over(ctx);
    } else if let Attachment::Inic { card, macs, .. } = &core.attachment {
        let dead = macs[node];
        ctx.send_now(*card, InicRecover { dead, abort_stream });
    }
    let report = RecoveryReport {
        rank: core.rank as u32,
        round: core.epoch,
        phase: d.completed_phase(),
    };
    ctx.send_in(RECOVERY_LATENCY, coord, report);
}

/// Coordinator verdict: restore the agreed checkpoint and resume.
fn on_resume_at<D: Driver>(d: &mut D, r: ResumeAt, ctx: &mut Ctx) {
    let core = d.core_mut();
    if r.round != core.epoch {
        return; // a newer failure superseded this round
    }
    if !core.configured && matches!(core.attachment, Attachment::Inic { .. }) {
        // The failure landed inside the card's configuration window.
        // Every INIC phase needs a usable card, so the rank stays
        // paused (buffering whatever arrives) until the bitstream
        // lands, then replays this verdict.
        core.pending_resume = Some(r);
        return;
    }
    core.paused = false;
    core.resumed_from = Some(r.phase);
    ctx.stats()[core.counters.phase_resumes].inc();
    d.resume(r.phase, ctx);
}

/// Cluster-attached failover coordinator: gathers one
/// [`RecoveryReport`] per rank per round and broadcasts the minimum
/// completed phase as the cluster-wide resume point. Models the small
/// host-level consensus a real cluster would run over its management
/// network; each hop is charged [`RECOVERY_LATENCY`].
pub struct RecoveryCoordinator {
    label: String,
    drivers: Vec<ComponentId>,
    /// Collected phases per round.
    rounds: BTreeMap<u64, Vec<u32>>,
    recovery_rounds: CounterId,
}

impl RecoveryCoordinator {
    /// Build a coordinator over the given driver components.
    pub fn new(drivers: Vec<ComponentId>) -> RecoveryCoordinator {
        RecoveryCoordinator {
            label: "recovery-coordinator".to_owned(),
            drivers,
            rounds: BTreeMap::new(),
            recovery_rounds: CounterId::UNREGISTERED,
        }
    }
}

impl Component for RecoveryCoordinator {
    fn handle(&mut self, ev: Box<dyn Any>, ctx: &mut Ctx) {
        let report = ev
            .downcast::<RecoveryReport>()
            .unwrap_or_else(|_| panic!("{}: unknown event", self.label));
        let round = report.round;
        let phases = self.rounds.entry(round).or_default();
        phases.push(report.phase);
        if phases.len() < self.drivers.len() {
            return;
        }
        let phase = *phases.iter().min().expect("at least one report");
        ctx.stats()[self.recovery_rounds].inc();
        for &d in &self.drivers {
            ctx.send_in(RECOVERY_LATENCY, d, ResumeAt { round, phase });
        }
    }

    fn name(&self) -> &str {
        &self.label
    }

    fn register_stats(&mut self, stats: &mut StatsRegistry) {
        self.recovery_rounds = stats.register_counter(&self.label, "recovery_rounds");
    }
}

impl Attachment {
    /// MAC table shared by both variants.
    pub fn macs(&self) -> &[MacAddr] {
        match self {
            Attachment::Tcp { macs, .. } | Attachment::Inic { macs, .. } => macs,
        }
    }

    /// The INIC operating mode, if this is an INIC attachment.
    pub fn inic_mode(&self) -> Option<InicMode> {
        match self {
            Attachment::Inic { mode, .. } => Some(*mode),
            Attachment::Tcp { .. } => None,
        }
    }

    /// Resolve a delivery's source MAC to a rank, accepting both the
    /// primary table and (on an INIC attachment with a wired fallback)
    /// the fallback table — a degraded peer sends from its fallback NIC.
    pub fn resolve_src(&self, mac: MacAddr) -> Option<usize> {
        if let Some(rank) = self.macs().iter().position(|&m| m == mac) {
            return Some(rank);
        }
        if let Attachment::Inic {
            fallback: Some((_, fb_macs)),
            ..
        } = self
        {
            return fb_macs.iter().position(|&m| m == mac);
        }
        None
    }
}

/// Receive-side bucket count for a per-node key volume: enough buckets
/// that each bucket fits the processor cache, and never fewer than the
/// paper's 128 ("on a problem size of 2²¹ keys or more, a minimum of 128
/// buckets are needed for the problem to map well into cache").
pub fn recv_buckets_for(keys_per_node: u64) -> usize {
    let target_bucket_bytes = 128 * 1024;
    let needed = (keys_per_node * 4).div_ceil(target_bucket_bytes).max(128);
    needed.next_power_of_two() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Open exchange `index` of `exchanges` in `epoch` on `x`, waiting
    /// for `legs` only.
    fn open(
        x: &mut Exchange,
        epoch: u64,
        exchanges: usize,
        index: usize,
        legs: Vec<(usize, LegLen)>,
    ) -> u16 {
        let chan = exchange_tag(epoch, exchanges, index);
        x.open = Some(Open {
            stream: u32::from(chan) + 1,
            chan,
            gather: None,
            scatter: Scatter::Clear,
            legs,
        });
        chan
    }

    fn prefixed(body: &[u8]) -> Vec<u8> {
        let mut data = (body.len() as u64).to_le_bytes().to_vec();
        data.extend_from_slice(body);
        data
    }

    #[test]
    fn length_prefix_split_across_two_deliveries_completes() {
        let mut x = Exchange::default();
        let chan = open(&mut x, 0, 1, 0, vec![(2, LegLen::Prefixed)]);
        let data = prefixed(&[7; 12]);
        x.buffer(2, chan, data[..5].to_vec());
        assert!(x.take_complete().is_none(), "half a length prefix");
        x.buffer(2, chan, data[5..].to_vec());
        let done = x.take_complete().expect("prefix and body are in");
        assert_eq!(done.legs, vec![(2, vec![7; 12])], "prefix stripped");
        assert!(x.rx.is_empty() && x.open.is_none());
    }

    #[test]
    fn body_split_over_many_deliveries_completes_on_the_last() {
        let mut x = Exchange::default();
        let body: Vec<u8> = (0..=255).collect();
        let chan = open(
            &mut x,
            0,
            1,
            0,
            vec![(1, LegLen::Prefixed), (3, LegLen::Fixed(body.len()))],
        );
        let stream = prefixed(&body);
        for chunk in stream.chunks(7) {
            assert!(x.take_complete().is_none());
            x.buffer(1, chan, chunk.to_vec());
        }
        for chunk in body.chunks(10) {
            assert!(x.take_complete().is_none(), "rank 3's leg is short");
            x.buffer(3, chan, chunk.to_vec());
        }
        let done = x.take_complete().expect("both legs whole");
        assert_eq!(done.legs, vec![(1, body.clone()), (3, body)]);
    }

    #[test]
    fn stale_epoch_bytes_stay_buffered_and_never_complete() {
        let mut x = Exchange::default();
        let stale = exchange_tag(0, 2, 0);
        x.buffer(1, stale, vec![9; 16]);
        // The failover bumped the epoch: the same transpose now runs on
        // a fresh channel, and the old bytes are whole but stale.
        let chan = open(&mut x, 1, 2, 0, vec![(1, LegLen::Fixed(16))]);
        assert_ne!(chan, stale);
        assert!(x.take_complete().is_none());
        x.buffer(1, chan, vec![4; 16]);
        let done = x.take_complete().expect("current leg whole");
        assert_eq!(done.legs, vec![(1, vec![4; 16])]);
        assert_eq!(x.rx.get(&(1, stale)), Some(&vec![9; 16]));
    }

    #[test]
    fn early_legs_of_a_future_round_complete_it_when_it_opens() {
        let mut x = Exchange::default();
        let round1 = open(&mut x, 0, 4, 1, vec![(0, LegLen::Fixed(8))]);
        // A peer running ahead delivers its round-2 leg first.
        x.buffer(0, exchange_tag(0, 4, 2), vec![2; 8]);
        assert!(x.take_complete().is_none());
        x.buffer(0, round1, vec![1; 8]);
        assert_eq!(
            x.take_complete().expect("round 1").legs,
            vec![(0, vec![1; 8])]
        );
        open(&mut x, 0, 4, 2, vec![(0, LegLen::Fixed(8))]);
        let done = x.take_complete().expect("round 2's leg was already here");
        assert_eq!(done.legs, vec![(0, vec![2; 8])]);
        assert!(x.rx.is_empty());
    }

    #[test]
    fn abort_names_the_stream_only_while_card_work_is_in_flight() {
        let mut x = Exchange::default();
        open(&mut x, 0, 1, 0, vec![]);
        assert_eq!(x.abort(), None, "a TCP-only exchange has no card stream");
        for (scatter, in_flight) in [
            (Scatter::Clear, false),
            (Scatter::Awaited, true),
            (Scatter::Untracked, true),
        ] {
            open(&mut x, 0, 1, 0, vec![]);
            x.open.as_mut().expect("open").scatter = scatter;
            assert_eq!(x.abort(), in_flight.then_some(1), "{scatter:?}");
        }
        open(&mut x, 1, 1, 0, vec![]);
        x.open.as_mut().expect("open").gather = Some(None);
        let stale = InicGatherComplete {
            stream: 1,
            data: Vec::new(),
            bucket_bounds: None,
        };
        assert!(!x.gathered(stale, 1), "epoch 0's gather is dropped");
        assert_eq!(x.abort(), Some(3), "the epoch-1 gather is outstanding");
    }

    #[test]
    fn bucket_count_floors_at_128() {
        assert_eq!(recv_buckets_for(1 << 10), 128);
        assert_eq!(recv_buckets_for(1 << 21), 128);
    }

    #[test]
    fn bucket_count_grows_for_big_partitions() {
        // 2²⁵ keys = 128 MiB → 1024 buckets of 128 KiB.
        assert_eq!(recv_buckets_for(1 << 25), 1024);
        // Power of two always.
        for shift in 10..26 {
            assert!(recv_buckets_for(1u64 << shift).is_power_of_two());
        }
    }
}
