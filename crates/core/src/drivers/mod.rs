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
//! # The recovery core
//!
//! Every driver runs the same card-failure protocol, implemented once
//! here: `DriverCore` holds the per-rank recovery state, and `handle`
//! is the one event prologue — stall deferral, start/configure, the
//! [`CardFailed`] / [`ResumeAt`] / `InicConfigured` arms and the
//! epoch check on self timers. A driver keeps only its data handling,
//! plugged in through the `Driver` hooks: its bitstream, `begin`,
//! the in-flight stream to abort, its completed phase, the reset for a
//! full restart, the resume from checkpoint `k`, and its own events.

pub mod coll;
pub mod fft;
pub mod sort;

use std::any::Any;
use std::collections::{BTreeMap, BTreeSet};

use acc_fpga::{Bitstream, InicConfigure, InicConfigured, InicMode, InicRecover};
use acc_host::StallSchedule;
use acc_net::MacAddr;
use acc_sim::{Component, ComponentId, Ctx, SimDuration, SimTime};

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

/// The per-rank state every driver shares: identity, network attachment
/// and the card-failure recovery protocol that [`handle`] runs.
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
}

impl DriverCore {
    fn new(label: String, rank: usize, attachment: Attachment) -> DriverCore {
        DriverCore {
            label,
            rank,
            attachment,
            fault_ctl: FaultCtl::default(),
            epoch: 0,
            failed_over: false,
            dead: BTreeSet::new(),
            paused: false,
            configured: false,
            pending_resume: None,
            resumed_from: None,
            reported_done: false,
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

    /// Arm a host-compute timer in the current epoch.
    fn timer_in<S: 'static>(&self, ctx: &mut Ctx, after: SimDuration, step: S) {
        ctx.self_in(after, Timer(self.epoch, step));
    }

    /// Count this rank into the cluster's `drivers_done` — once, even
    /// when a resume re-runs the finished schedule.
    fn report_done(&mut self, ctx: &mut Ctx) {
        if !self.reported_done {
            self.reported_done = true;
            ctx.stats().counter("cluster", "drivers_done").inc();
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

    /// `", parked for recovery resume"` while paused, for wait states.
    fn parked(&self) -> &'static str {
        if self.paused {
            ", parked for recovery resume"
        } else {
            ""
        }
    }

    /// Abandon the card for the commodity fallback NIC.
    fn fail_over(&mut self, ctx: &mut Ctx) {
        let (nic, macs) = match &self.attachment {
            Attachment::Inic {
                fallback: Some(fb), ..
            } => fb.clone(),
            _ => panic!("{}: card failure without a wired fallback path", self.label),
        };
        ctx.stats().counter(&self.label, "card_failovers").inc();
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

    /// Abandon the in-flight exchange; returns the card stream to abort.
    /// Called before the failover bumps the epoch, so the stream named
    /// is the one the card's demux and retransmit state still reference.
    fn abort_in_flight(&mut self) -> Option<u32>;

    /// Highest checkpoint this rank can resume from (its final phase
    /// once done), reported to the coordinator.
    fn completed_phase(&self) -> u32;

    /// Forget the aborted attempt before a full restart from the
    /// retained input; `node` is the rank whose card died.
    fn reset(&mut self, node: usize, ctx: &mut Ctx);

    /// Restore checkpoint `phase` (0 = from scratch) and continue.
    fn resume(&mut self, phase: u32, ctx: &mut Ctx);

    /// A charged compute window of the current epoch closed.
    fn on_step(&mut self, step: Self::Step, ctx: &mut Ctx);

    /// Every event the recovery core does not handle itself.
    fn on_event(&mut self, ev: Box<dyn Any>, ctx: &mut Ctx);
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
        ctx.stats().counter(&core.label, "stall_deferrals").inc();
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
    match ev.downcast::<Timer<D::Step>>() {
        Ok(timer) => {
            let Timer(epoch, step) = *timer;
            if epoch == d.core().epoch {
                d.on_step(step, ctx);
            } // else: a timer from an abandoned attempt
        }
        Err(ev) => d.on_event(ev, ctx),
    }
}

/// The whole cluster degrades together ([`RecoveryPolicy::FullRestart`],
/// and any run without a coordinator): every rank drops its card — even
/// a healthy one, peers can no longer reach every rank through the INIC
/// path — and restarts from its retained input over the commodity
/// fallback NIC. Only the original start instant survives.
fn full_restart_failover<D: Driver>(d: &mut D, node: usize, ctx: &mut Ctx) {
    let core = d.core();
    if core.failed_over || matches!(core.attachment, Attachment::Tcp { .. }) {
        return; // a second card death changes nothing
    }
    d.reset(node, ctx);
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
    let abort_stream = d.abort_in_flight();
    let core = d.core_mut();
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
    ctx.stats().counter(&core.label, "phase_resumes").inc();
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
}

impl RecoveryCoordinator {
    /// Build a coordinator over the given driver components.
    pub fn new(drivers: Vec<ComponentId>) -> RecoveryCoordinator {
        RecoveryCoordinator {
            label: "recovery-coordinator".to_owned(),
            drivers,
            rounds: BTreeMap::new(),
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
        ctx.stats().counter(&self.label, "recovery_rounds").inc();
        for &d in &self.drivers {
            ctx.send_in(RECOVERY_LATENCY, d, ResumeAt { round, phase });
        }
    }

    fn name(&self) -> &str {
        &self.label
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
