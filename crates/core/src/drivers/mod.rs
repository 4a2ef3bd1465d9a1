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
//! # Programs and the driver core
//!
//! Every node runs one driver component, `DriverCore`, generic over the
//! application it runs. An application is a *program*: a list of
//! stages, each a sequence of steps, where a step is a charged
//! host-compute window or one *exchange*. The FFT has four stages
//! (`fft1`, `transpose1`, `fft2`, `transpose2`), the sort two (the key
//! exchange; then bucket2 and count), a collective one per schedule
//! round. A program keeps only its data handling, behind the `Program`
//! trait: what each step computes and puts on the wire, what it does
//! with a completed exchange, its bitstream, a `Snapshot` of its state,
//! and the phase name of each step (the
//! [`DeadlineHierarchy`](crate::deadline::DeadlineHierarchy) budget
//! name).
//!
//! The core owns everything around that, once:
//!
//! * step sequencing, with one epoch-tagged timer for charge windows;
//! * the [`DriverProgress`] the liveness layer reads;
//! * the checkpoint store (a snapshot after each completed stage, when
//!   armed), the completed phase reported to the coordinator, the
//!   resume from checkpoint `k` and the reset for a full restart;
//! * completion;
//! * the per-rank time ledger: the wall time of every charge window and
//!   every exchange, keyed by stage and step ([`LedgerEntry`]), from
//!   which the cluster derives each workload's phase times;
//! * the event prologue: stall deferral, start/configure and the
//!   card-failure protocol ([`CardFailed`], [`ResumeAt`],
//!   `InicConfigured`, the epoch check on timers).
//!
//! An exchange is one all-to-all step: the FFT's transpose, the sort's
//! key exchange, one collective round. The core's `Exchange` issues the
//! card gather and scatter, sends the TCP legs (over the commodity NIC,
//! or on an INIC over the fallback NIC to dead peers), reassembles
//! inbound TCP legs per `(source rank, channel)`, namespaces stream and
//! channel ids by failover epoch, drops stale card completions, and
//! hands the program the exchange once the gather, any awaited scatter
//! and every TCP leg are in.

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
/// hang to a named phase and rank. The phase names match the
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
#[derive(Default)]
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
        if !o
            .legs
            .iter()
            .all(|&(src, len)| self.whole(src, o.chan, len).is_some())
        {
            return None;
        }
        let o = self.open.take().expect("checked open");
        let legs = o
            .legs
            .iter()
            .map(|&(src, len)| {
                let want = self.whole(src, o.chan, len).expect("checked whole");
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

/// What a program may read of its rank: identity, network attachment,
/// the exchange engine and the card-failure recovery state.
pub(crate) struct Rank {
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
    /// Exchanges the program runs per epoch: the span of its tags.
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
    /// Whether this rank already counted itself in `drivers_done`.
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

impl Rank {
    /// A rank running `exchanges` exchanges per epoch.
    fn new(label: String, rank: usize, attachment: Attachment, exchanges: usize) -> Rank {
        assert!(
            exchanges < usize::from(u16::MAX),
            "exchange index must fit the TCP channel id"
        );
        Rank {
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

    /// Record the finish instant and count this rank into the cluster's
    /// `drivers_done` — once, even when a resume re-runs the finished
    /// program.
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

/// What a program runs next within a stage. Each step names its phase:
/// the name the rank reports while the step runs, which is the
/// [`DeadlineHierarchy`](crate::deadline::DeadlineHierarchy) budget it
/// is held to.
pub(crate) enum Step {
    /// A charged host-compute window of length `time`.
    Charge {
        phase: &'static str,
        time: SimDuration,
    },
    /// One exchange.
    Exchange {
        phase: &'static str,
        plan: ExchangePlan,
    },
}

/// An application run by the driver core: its data handling, stage by
/// stage. The core calls [`step`](Program::step) with a step counter
/// that starts at 0 on entering a stage and advances when a charge
/// window closes or an exchange completes; the program performs the
/// step's real data work when it returns the step.
pub(crate) trait Program: 'static {
    /// The program state a checkpoint captures.
    type Snapshot: Clone;

    /// Component label prefix; the rank number follows.
    const NAME: &'static str;

    /// The number of stages.
    fn stages(&self) -> usize;

    /// Exchanges per epoch: the span of the rank's exchange tags.
    fn exchanges(&self) -> usize;

    /// The tag index of the exchanges stage `stage` issues.
    fn exchange_index(&self, stage: usize) -> usize {
        stage
    }

    /// The bitstream an INIC attachment loads before the run starts.
    fn bitstream(&self, rank: &Rank) -> Bitstream;

    /// Step `step` of stage `stage`, or `None` once the stage is
    /// complete.
    fn step(&mut self, rank: &Rank, stage: usize, step: usize) -> Option<Step>;

    /// The exchange of the step in progress completed.
    fn on_exchange(&mut self, rank: &Rank, done: ExchangeDone);

    /// The state to checkpoint after a completed stage.
    fn snapshot(&self) -> Self::Snapshot;

    /// Reinstate a checkpoint, or the input when `snapshot` is `None`,
    /// and forget any partial step: every (re)start begins here.
    fn restore(&mut self, rank: &Rank, snapshot: Option<Self::Snapshot>);

    /// Before a full restart abandons the card: `node` is the rank whose
    /// card died and `stream` the card stream the abandoned exchange left
    /// in flight.
    fn before_full_restart(
        &mut self,
        _rank: &Rank,
        _node: usize,
        _stream: Option<u32>,
        _ctx: &mut Ctx,
    ) {
    }

    /// One program-specific detail for the wait state.
    fn wait_detail(&self, _rank: &Rank, _stage: usize, _step: usize) -> Option<String> {
        None
    }
}

/// What a [`LedgerEntry`] timed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Span {
    /// A charged host-compute window.
    Charge,
    /// An exchange, from issue to completion.
    Exchange,
}

/// One completed step in a rank's time ledger. Steps cut short by a
/// failover are not recorded; a full restart clears the ledger.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct LedgerEntry {
    /// The program stage.
    pub stage: usize,
    /// The step within the stage.
    pub step: usize,
    /// The step's phase name.
    pub phase: &'static str,
    /// What the step was.
    pub span: Span,
    /// Its wall time.
    pub wall: SimDuration,
}

/// Self event closing a charged host-compute window, tagged with the
/// failover epoch that armed it: a failover bumps the epoch and
/// restarts the program, so a timer from the abandoned attempt is
/// dropped instead of firing into the new one.
struct Timer(u64);

/// The one driver component: a [`Rank`] running a [`Program`].
pub(crate) struct DriverCore<P: Program> {
    rank: Rank,
    prog: P,
    /// The stage in progress, and the step within it.
    stage: usize,
    step: usize,
    /// When the step in progress began.
    step_started: SimTime,
    /// The phase the rank reports, and when it entered it.
    phase: &'static str,
    entered: SimTime,
    done: bool,
    /// Checkpoint `k` at index `k` (`1..stages`): the program's
    /// snapshot after stage `k - 1` completed. Empty until the first
    /// capture; a resume leaves later checkpoints in place.
    ckpts: Vec<Option<P::Snapshot>>,
    /// Every completed charge window and exchange.
    ledger: Vec<LedgerEntry>,
}

impl<P: Program> DriverCore<P> {
    /// Rank `rank` running `prog` over `attachment`.
    pub(crate) fn new(rank: usize, attachment: Attachment, prog: P) -> DriverCore<P> {
        let label = format!("{}{rank}", P::NAME);
        DriverCore {
            rank: Rank::new(label, rank, attachment, prog.exchanges()),
            prog,
            stage: 0,
            step: 0,
            step_started: SimTime::ZERO,
            phase: "init",
            entered: SimTime::ZERO,
            done: false,
            ckpts: Vec::new(),
            ledger: Vec::new(),
        }
    }

    /// Attach fault-handling configuration (builder style).
    #[must_use]
    pub(crate) fn with_fault_ctl(mut self, ctl: FaultCtl) -> DriverCore<P> {
        self.rank.fault_ctl = ctl;
        self
    }

    /// The rank's shared state.
    pub(crate) fn rank(&self) -> &Rank {
        &self.rank
    }

    /// The finished program.
    ///
    /// # Panics
    /// If the rank has not finished.
    pub(crate) fn program(&self) -> &P {
        assert!(self.done, "{}: driver not finished", self.rank.label);
        &self.prog
    }

    /// Phase snapshot for the liveness layer.
    pub(crate) fn progress(&self) -> DriverProgress {
        DriverProgress {
            rank: self.rank.rank,
            phase: self.phase,
            entered: self.entered,
            paused: self.rank.paused,
            done: self.done,
        }
    }

    /// Total wall time of the ledger entries `pick` selects.
    pub(crate) fn time(&self, pick: impl Fn(&LedgerEntry) -> bool) -> SimDuration {
        self.ledger
            .iter()
            .filter(|e| pick(e))
            .fold(SimDuration::ZERO, |t, e| t + e.wall)
    }

    /// Highest checkpoint this rank can resume from (the stage count
    /// once done), reported to the coordinator.
    fn completed_phase(&self) -> u32 {
        if self.done {
            return self.prog.stages() as u32;
        }
        self.ckpts.iter().rposition(Option::is_some).unwrap_or(0) as u32
    }

    /// (Re)start at `stage` from `snapshot` (the input when `None`).
    fn start(&mut self, stage: usize, snapshot: Option<P::Snapshot>, ctx: &mut Ctx) {
        let now = ctx.now();
        self.rank.started_at.get_or_insert(now);
        self.entered = now;
        self.done = false;
        self.prog.restore(&self.rank, snapshot);
        self.stage = stage;
        self.step = 0;
        self.advance(ctx);
    }

    /// Run steps until one waits on a charge window or the network, or
    /// the program ends. An exchange that is already complete when it
    /// opens, and a stage with no steps left, fall through at once.
    fn advance(&mut self, ctx: &mut Ctx) {
        let stages = self.prog.stages();
        while self.stage < stages {
            let Some(step) = self.prog.step(&self.rank, self.stage, self.step) else {
                self.stage += 1;
                self.step = 0;
                if self.stage < stages && self.rank.ckpt_armed() {
                    if self.ckpts.is_empty() {
                        self.ckpts.resize_with(stages, || None);
                    }
                    self.ckpts[self.stage] = Some(self.prog.snapshot());
                }
                continue;
            };
            let now = ctx.now();
            self.step_started = now;
            let (Step::Charge { phase, .. } | Step::Exchange { phase, .. }) = step;
            if phase != self.phase {
                self.phase = phase;
                self.entered = now;
            }
            match step {
                Step::Charge { time, .. } => {
                    ctx.self_in(time, Timer(self.rank.epoch));
                    return;
                }
                Step::Exchange { plan, .. } => {
                    let index = self.prog.exchange_index(self.stage);
                    self.rank.issue(index, plan, ctx);
                    match self.rank.xchg.take_complete() {
                        Some(done) => self.close_exchange(done, now),
                        None => return,
                    }
                }
            }
        }
        self.done = true;
        self.phase = "done";
        self.entered = ctx.now();
        self.rank.mark_done(ctx);
    }

    /// Record the step in progress in the ledger and move past it.
    fn close_step(&mut self, span: Span, now: SimTime) {
        self.ledger.push(LedgerEntry {
            stage: self.stage,
            step: self.step,
            phase: self.phase,
            span,
            wall: now.since(self.step_started),
        });
        self.step += 1;
    }

    /// The open exchange completed: hand it to the program.
    fn close_exchange(&mut self, done: ExchangeDone, now: SimTime) {
        self.prog.on_exchange(&self.rank, done);
        self.close_step(Span::Exchange, now);
    }

    /// Continue past the open exchange if it completed.
    fn poll(&mut self, ctx: &mut Ctx) {
        if let Some(done) = self.rank.xchg.take_complete() {
            self.close_exchange(done, ctx.now());
            self.advance(ctx);
        }
    }

    /// Restore checkpoint `k` (0 = the input) and continue from stage
    /// `k`. Ranks that already finished rejoin: peers re-running earlier
    /// stages need their messages, and the lockstep determinism makes
    /// the re-run bit-identical.
    fn resume(&mut self, k: u32, ctx: &mut Ctx) {
        let k = k as usize;
        if k >= self.prog.stages() {
            return; // every rank had already finished
        }
        let snapshot = (k > 0).then(|| {
            self.ckpts.get(k).cloned().flatten().unwrap_or_else(|| {
                panic!(
                    "{}: resume phase {k} without its checkpoint",
                    self.rank.label
                )
            })
        });
        self.start(k, snapshot, ctx);
    }

    /// The whole cluster degrades together ([`RecoveryPolicy::FullRestart`],
    /// and any run without a coordinator): every rank drops its card —
    /// even a healthy one, peers can no longer reach every rank through
    /// the INIC path — and restarts from its retained input over the
    /// commodity fallback NIC. Only the original start instant survives.
    /// Checkpoints are armed only with a coordinator, so there are none
    /// to forget.
    fn full_restart(&mut self, node: usize, ctx: &mut Ctx) {
        let rank = &mut self.rank;
        if rank.failed_over || matches!(rank.attachment, Attachment::Tcp { .. }) {
            return; // a second card death changes nothing
        }
        // The restart forgets every buffered leg along with the exchange.
        let stream = std::mem::take(&mut rank.xchg).abort();
        self.prog.before_full_restart(&self.rank, node, stream, ctx);
        self.ledger.clear();
        self.rank.fail_over(ctx);
        self.rank.epoch += 1;
        self.start(0, None, ctx);
    }

    /// Rank-local degradation: only the dead rank abandons its card.
    /// Every rank pauses, healthy ranks tell their cards to forget the
    /// dead peer (and abort the in-flight stream, if any), and every
    /// rank reports its highest completed checkpoint to the coordinator,
    /// which answers with the cluster-wide resume phase.
    fn rank_local_failover(&mut self, node: usize, coord: ComponentId, ctx: &mut Ctx) {
        let phase = self.completed_phase();
        let rank = &mut self.rank;
        if !rank.dead.insert(node) {
            return; // duplicate death notice
        }
        let abort_stream = rank.xchg.abort();
        rank.epoch += 1;
        rank.paused = true;
        if rank.rank == node {
            rank.fail_over(ctx);
        } else if let Attachment::Inic { card, macs, .. } = &rank.attachment {
            let dead = macs[node];
            ctx.send_now(*card, InicRecover { dead, abort_stream });
        }
        let report = RecoveryReport {
            rank: rank.rank as u32,
            round: rank.epoch,
            phase,
        };
        ctx.send_in(RECOVERY_LATENCY, coord, report);
    }

    /// Coordinator verdict: restore the agreed checkpoint and resume.
    fn on_resume_at(&mut self, r: ResumeAt, ctx: &mut Ctx) {
        let rank = &mut self.rank;
        if r.round != rank.epoch {
            return; // a newer failure superseded this round
        }
        if !rank.configured && matches!(rank.attachment, Attachment::Inic { .. }) {
            // The failure landed inside the card's configuration window.
            // Every INIC phase needs a usable card, so the rank stays
            // paused (buffering whatever arrives) until the bitstream
            // lands, then replays this verdict.
            rank.pending_resume = Some(r);
            return;
        }
        rank.paused = false;
        rank.resumed_from = Some(r.phase);
        ctx.stats()[rank.counters.phase_resumes].inc();
        self.resume(r.phase, ctx);
    }
}

impl<P: Program> Component for DriverCore<P> {
    /// The one event prologue: stall deferral, start/configure, the
    /// card-failure protocol, timers and the exchange events.
    fn handle(&mut self, ev: Box<dyn Any>, ctx: &mut Ctx) {
        // Unwrap an event this host already deferred once.
        let ev = match ev.downcast::<Deferred>() {
            Ok(deferred) => deferred.0,
            Err(ev) => ev,
        };
        // A stalled host services nothing: kernel completions, NIC
        // interrupts and failure notices all wait for the window's end.
        if let Some(release) = self.rank.fault_ctl.stalls.deferral(ctx.now()) {
            ctx.stats()[self.rank.counters.stall_deferrals].inc();
            ctx.self_in(release.since(ctx.now()), Deferred(ev));
            return;
        }
        if ev.is::<()>() {
            match self.rank.attachment {
                Attachment::Inic { card, .. } => {
                    let bitstream = self.prog.bitstream(&self.rank);
                    ctx.send_now(card, InicConfigure { bitstream });
                }
                Attachment::Tcp { .. } => self.start(0, None, ctx),
            }
            return;
        }
        if let Some(cf) = ev.downcast_ref::<CardFailed>() {
            let node = cf.node as usize;
            return match self.rank.fault_ctl.coordinator {
                None => self.full_restart(node, ctx),
                Some(coord) => self.rank_local_failover(node, coord, ctx),
            };
        }
        if let Some(r) = ev.downcast_ref::<ResumeAt>() {
            return self.on_resume_at(*r, ctx);
        }
        if let Some(cfg) = ev.downcast_ref::<InicConfigured>() {
            let rank = &mut self.rank;
            if rank.failed_over {
                return; // the card answered just before it died
            }
            if let Err(e) = &cfg.result {
                panic!("{}: bitstream rejected: {e}", rank.label);
            }
            rank.configured = true;
            if let Some(r) = rank.pending_resume.take() {
                // A failover interrupted the configuration; run the
                // deferred resume instead of a fresh start.
                self.on_resume_at(r, ctx);
            } else if !rank.paused {
                // A failure reported but not yet resumed keeps the rank
                // parked: the coordinator's verdict starts it.
                self.start(0, None, ctx);
            }
            return;
        }
        if let Some(&Timer(epoch)) = ev.downcast_ref::<Timer>() {
            if epoch == self.rank.epoch {
                self.close_step(Span::Charge, ctx.now());
                self.advance(ctx);
            } // else: a timer from an abandoned attempt
            return;
        }
        let rank = &mut self.rank;
        let ev = match ev.downcast::<TcpDelivered>() {
            Ok(dlv) => {
                let TcpDelivered { peer, chan, data } = *dlv;
                let src = rank
                    .attachment
                    .resolve_src(peer)
                    .expect("delivery from an unknown MAC");
                rank.xchg.buffer(src, chan, data);
                return self.poll(ctx);
            }
            Err(ev) => ev,
        };
        let ev = match ev.downcast::<InicGatherComplete>() {
            Ok(g) => {
                if rank.xchg.gathered(*g, rank.epoch) {
                    self.poll(ctx);
                }
                return;
            }
            Err(ev) => ev,
        };
        match ev.downcast_ref::<InicScatterDone>() {
            Some(s) if rank.xchg.scattered(s.stream) => self.poll(ctx),
            Some(_) => {} // not awaited, or a stale epoch's
            None => panic!("{}: unknown event", rank.label),
        }
    }

    fn name(&self) -> &str {
        &self.rank.label
    }

    fn register_stats(&mut self, stats: &mut StatsRegistry) {
        let rank = &mut self.rank;
        rank.counters = DriverCounters::register(stats, &rank.label);
        rank.drivers_done = stats.register_counter("cluster", "drivers_done");
    }

    /// Rank, phase, epoch, what the open exchange still waits for, and
    /// the program's detail.
    fn wait_state(&self) -> Option<String> {
        if self.done {
            return None;
        }
        let rank = &self.rank;
        let mut out = format!(
            "rank {} in {} since {} (epoch {}{}",
            rank.rank,
            self.phase,
            self.entered,
            rank.epoch,
            rank.xchg.describe()
        );
        if let Some(detail) = self.prog.wait_detail(rank, self.stage, self.step) {
            out += &format!("; {detail}");
        }
        if rank.paused {
            out += "; parked for recovery resume";
        }
        out.push(')');
        Some(out)
    }
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
    use crate::deadline::DeadlineHierarchy;

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

    /// A toy two-stage program: stage `s` is one charge of 1 µs named
    /// `PHASES[s]`, and bumps `value` as it starts.
    struct Toy {
        value: u32,
        restores: Vec<Option<u32>>,
    }

    impl Toy {
        const PHASES: [&'static str; 2] = ["one", "two"];
    }

    impl Program for Toy {
        type Snapshot = u32;
        const NAME: &'static str = "toy";

        fn stages(&self) -> usize {
            2
        }

        fn exchanges(&self) -> usize {
            2
        }

        fn bitstream(&self, _rank: &Rank) -> Bitstream {
            Bitstream::protocol_only()
        }

        fn step(&mut self, _rank: &Rank, stage: usize, step: usize) -> Option<Step> {
            (step == 0).then(|| {
                self.value += 1;
                Step::Charge {
                    phase: Toy::PHASES[stage],
                    time: SimDuration::from_micros(1),
                }
            })
        }

        fn on_exchange(&mut self, _rank: &Rank, _done: ExchangeDone) {
            unreachable!("the toy runs no exchanges")
        }

        fn snapshot(&self) -> u32 {
            self.value
        }

        fn restore(&mut self, _rank: &Rank, snapshot: Option<u32>) {
            self.restores.push(snapshot);
            self.value = snapshot.unwrap_or(0);
        }
    }

    /// Swallows the toy's recovery reports.
    struct Sink;

    impl Component for Sink {
        fn handle(&mut self, _ev: Box<dyn Any>, _ctx: &mut Ctx) {}

        fn name(&self) -> &str {
            "sink"
        }
    }

    fn at_us(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    /// A toy rank on TCP, with checkpoints armed when `armed`, started
    /// at t = 0.
    fn toy_sim(armed: bool) -> (acc_sim::Simulation, ComponentId) {
        let mut sim = acc_sim::Simulation::new(1);
        let id = sim.reserve_id();
        let coordinator = armed.then(|| sim.add(Sink));
        let attachment = Attachment::Tcp {
            nic: id,
            macs: vec![MacAddr::for_node(0, 0), MacAddr::for_node(1, 0)],
        };
        let toy = Toy {
            value: 0,
            restores: Vec::new(),
        };
        let ctl = FaultCtl {
            coordinator,
            ..FaultCtl::default()
        };
        sim.register(id, DriverCore::new(0, attachment, toy).with_fault_ctl(ctl));
        sim.schedule_at(SimTime::ZERO, id, ());
        (sim, id)
    }

    #[test]
    fn snapshots_are_taken_only_when_armed() {
        for armed in [false, true] {
            let (mut sim, id) = toy_sim(armed);
            sim.run_until(at_us(1));
            let d = sim.component::<DriverCore<Toy>>(id);
            assert_eq!((d.stage, d.phase), (1, "two"), "stage 0 closed at 1 µs");
            assert_eq!(d.completed_phase(), u32::from(armed));
            let want = if armed {
                vec![None, Some(1)]
            } else {
                Vec::new()
            };
            assert_eq!(d.ckpts, want);
            sim.run();
            let d = sim.component::<DriverCore<Toy>>(id);
            assert!(d.progress().done && d.rank.done_at == Some(at_us(2)));
            assert_eq!(d.completed_phase(), 2, "done reports every stage");
            assert_eq!(
                d.ckpts.len(),
                if armed { 2 } else { 0 },
                "none after the last"
            );
            let phases: Vec<_> = d
                .ledger
                .iter()
                .map(|e| (e.stage, e.step, e.phase))
                .collect();
            assert_eq!(phases, vec![(0, 0, "one"), (1, 0, "two")]);
            assert_eq!(
                d.time(|e| e.span == Span::Charge),
                SimDuration::from_micros(2)
            );
        }
    }

    #[test]
    fn resume_restores_its_checkpoint_and_stale_timers_are_dropped() {
        let (mut sim, id) = toy_sim(true);
        // A card death mid-stage 1 (rank 1's card): the rank parks and
        // its epoch-0 timer, due at 2 µs, must not close the new attempt.
        sim.schedule_at(
            at_us(1) + SimDuration::from_nanos(500),
            id,
            CardFailed { node: 1 },
        );
        sim.schedule_at(at_us(3), id, ResumeAt { round: 1, phase: 1 });
        sim.run_until(at_us(2));
        let d = sim.component::<DriverCore<Toy>>(id);
        assert!(d.progress().paused && !d.progress().done);
        assert_eq!(d.ledger.len(), 1, "the stale timer closed nothing");
        assert_eq!(d.step, 0, "stage 1 is still at its first step");
        sim.run();
        let d = sim.component::<DriverCore<Toy>>(id);
        assert_eq!(
            d.prog.restores,
            vec![None, Some(1)],
            "checkpoint 1 restored"
        );
        assert_eq!(d.prog.value, 2);
        assert_eq!(d.rank.resumed_from(), Some(1));
        assert!(d.progress().done && d.rank.done_at == Some(at_us(4)));
        let walls: Vec<_> = d.ledger.iter().map(|e| (e.stage, e.wall)).collect();
        let us = SimDuration::from_micros(1);
        assert_eq!(walls, vec![(0, us), (1, us)], "the resumed stage 1 only");
    }

    /// Every phase name `prog` reports on `rank`, stepping each stage to
    /// its end; every exchange completes with `done()`.
    fn reported_phases<P: Program>(
        mut prog: P,
        rank: &Rank,
        done: impl Fn() -> ExchangeDone,
    ) -> BTreeSet<&'static str> {
        prog.restore(rank, None);
        let mut names = BTreeSet::new();
        for stage in 0..prog.stages() {
            let mut step = 0;
            while let Some(next) = prog.step(rank, stage, step) {
                match next {
                    Step::Charge { phase, .. } => names.insert(phase),
                    Step::Exchange { phase, .. } => {
                        prog.on_exchange(rank, done());
                        names.insert(phase)
                    }
                };
                step += 1;
            }
        }
        names
    }

    /// Rank 0 of two on `mode` (`None`: the commodity NIC).
    fn rank_on(mode: Option<InicMode>) -> Rank {
        let id = ComponentId::from_raw(0);
        let macs = vec![MacAddr::for_node(0, 0), MacAddr::for_node(1, 0)];
        let attachment = match mode {
            None => Attachment::Tcp { nic: id, macs },
            Some(mode) => Attachment::Inic {
                card: id,
                macs,
                mode,
                fallback: None,
            },
        };
        Rank::new("rank0".into(), 0, attachment, 2)
    }

    fn gather(data: Vec<u8>, bucket_bounds: Option<Vec<usize>>) -> ExchangeDone {
        ExchangeDone {
            gather: Some(InicGatherComplete {
                stream: 1,
                data,
                bucket_bounds,
            }),
            legs: Vec::new(),
        }
    }

    /// Whether every name is a budget of `h`; `init` and `done`, the
    /// core's own, are the only names no program step reports.
    fn assert_budgeted(names: &BTreeSet<&'static str>, h: &DeadlineHierarchy, what: &str) {
        assert!(!names.is_empty(), "{what} reports no phase");
        for name in names {
            assert!(
                !["init", "done"].contains(name),
                "{what}: {name} is the core's"
            );
            assert!(
                h.phases.iter().any(|b| b.name == *name),
                "{what}: phase {name} has no budget"
            );
        }
    }

    #[test]
    fn every_fft_and_sort_phase_has_a_budget() {
        use crate::cluster::{ClusterSpec, Technology};
        use acc_algos::fft::Matrix;
        use acc_host::HostKernels;

        let (p, rows) = (2, 8);
        let kernels = HostKernels::athlon_1ghz();
        let fft = DeadlineHierarchy::for_run(
            &ClusterSpec::new(p, Technology::GigabitTcp),
            &crate::Workload::Fft { rows },
        );
        let block = (rows / p) * (rows / p) * 16;
        let slab = (rows / p) * rows * 16;
        for mode in [
            None,
            Some(InicMode::Combined),
            Some(InicMode::ProtocolProcessor),
        ] {
            let done = || match mode {
                None => ExchangeDone::default(),
                Some(InicMode::ProtocolProcessor) => {
                    let bounds = (1..=p).map(|s| s * block).collect();
                    gather(vec![0; p * block], Some(bounds))
                }
                Some(_) => gather(vec![0; slab], None),
            };
            let prog = fft::Fft::new(p, rows, Matrix::zeros(rows / p, rows), kernels.clone());
            let names = reported_phases(prog, &rank_on(mode), done);
            assert_budgeted(&names, &fft, &format!("fft on {mode:?}"));
        }

        let spec = ClusterSpec::new(p, Technology::GigabitTcp);
        let sort =
            DeadlineHierarchy::for_run(&spec, &crate::RunRequest::sort(spec.clone(), 64).workload);
        for (variant, mode) in [
            (sort::SortVariant::HostOnly, None),
            (sort::SortVariant::InicFull, Some(InicMode::Combined)),
            (sort::SortVariant::InicTwoPhase, Some(InicMode::Combined)),
            (
                sort::SortVariant::ProtocolOnly,
                Some(InicMode::ProtocolProcessor),
            ),
        ] {
            let done = || match mode {
                None => ExchangeDone::default(),
                Some(_) => gather(Vec::new(), Some(vec![0; 16])),
            };
            let prog = sort::Sort::new(p, (0..32).collect(), variant, kernels.clone());
            let names = reported_phases(prog, &rank_on(mode), done);
            assert_budgeted(&names, &sort, &format!("sort {variant:?}"));
        }
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
