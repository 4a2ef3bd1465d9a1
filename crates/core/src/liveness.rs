//! Structured hang diagnosis for cluster runs.
//!
//! A guarded run ends in one of three ways: completion, a simulation
//! [`Watchdog`](acc_sim::Watchdog) abort (event budget, same-timestamp
//! livelock, or the whole-run deadline of the
//! [`DeadlineHierarchy`]), or a
//! *deadlock* — the event queue drains while drivers are still waiting
//! on peers that will never send. All three non-completions produce a
//! [`HangReport`] naming the stuck phase and rank instead of a panic or
//! an infinite loop.

use std::fmt;

use acc_net::PartitionReport;
use acc_sim::{LivenessReport, SimDuration, SimTime};

use crate::cluster::Technology;
use crate::deadline::DeadlineHierarchy;
use crate::drivers::DriverProgress;

/// Why the run failed to complete.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HangCause {
    /// A simulation watchdog bound tripped (events kept flowing without
    /// the run converging).
    Watchdog(acc_sim::HangKind),
    /// The event queue drained with drivers still undone: every rank is
    /// waiting on a message nobody will ever send.
    Deadlock,
}

impl fmt::Display for HangCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HangCause::Watchdog(kind) => write!(f, "{kind}"),
            HangCause::Deadlock => f.write_str("deadlock (event queue drained, drivers undone)"),
        }
    }
}

/// Structured description of a hung cluster run.
#[derive(Clone, Debug)]
pub struct HangReport {
    /// Why the run was declared hung.
    pub cause: HangCause,
    /// The cluster technology.
    pub technology: Technology,
    /// Committed simulated time at abort.
    pub now: SimTime,
    /// Every rank's progress snapshot.
    pub ranks: Vec<DriverProgress>,
    /// The rank most overdue relative to its phase budget — the named
    /// culprit. `None` only if every rank finished (which cannot happen
    /// for a genuine hang).
    pub culprit: Option<DriverProgress>,
    /// How far past its phase budget the culprit is.
    pub overdue: SimDuration,
    /// The simulation-level report, present when the cause was a
    /// watchdog abort (wait states, queue head).
    pub sim: Option<LivenessReport>,
    /// The unfinished ranks' driver wait states at a deadlock, where no
    /// simulation-level report exists: what each rank's open exchange
    /// still waits for.
    pub waits: Vec<String>,
    /// The fabric partition to blame, when the cluster ran on a
    /// multi-switch fabric whose routing timeline disconnected ranks:
    /// the unreachable rank set plus the cut trunks and dead switches
    /// that caused it. `None` on single-switch runs and on hangs with
    /// no partition in the timeline.
    pub partition: Option<PartitionReport>,
}

impl HangReport {
    /// Assemble a report: pick the culprit as the unfinished rank most
    /// overdue relative to its phase budget (ties broken by lowest
    /// rank, deterministically).
    pub fn diagnose(
        cause: HangCause,
        technology: Technology,
        now: SimTime,
        ranks: Vec<DriverProgress>,
        hierarchy: &DeadlineHierarchy,
        sim: Option<LivenessReport>,
    ) -> HangReport {
        let mut culprit: Option<DriverProgress> = None;
        let mut overdue = SimDuration::ZERO;
        let mut best: Option<i128> = None;
        for r in &ranks {
            if r.done {
                continue;
            }
            let waited = now.saturating_since(r.entered);
            let budget = hierarchy.phase_budget(r.phase);
            let over = waited.as_ps() as i128 - budget.as_ps() as i128;
            if best.is_none_or(|b| over > b) {
                best = Some(over);
                overdue = SimDuration::from_ps(over.max(0) as u64);
                culprit = Some(r.clone());
            }
        }
        HangReport {
            cause,
            technology,
            now,
            ranks,
            culprit,
            overdue,
            sim,
            waits: Vec::new(),
            partition: None,
        }
    }

    /// `"<phase> on rank <r>"` — the attribution line, used by tests
    /// and artifact headers.
    pub fn attribution(&self) -> String {
        match &self.culprit {
            Some(c) => format!("{} on rank {}", c.phase, c.rank),
            None => "unattributed".to_owned(),
        }
    }
}

impl fmt::Display for HangReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "hang: {} [{}] at t={}",
            self.cause,
            self.technology.label(),
            self.now
        )?;
        if let Some(c) = &self.culprit {
            writeln!(
                f,
                "  stuck in {} on rank {} (entered {}, {} over budget{})",
                c.phase,
                c.rank,
                c.entered,
                self.overdue,
                if c.paused {
                    ", parked for recovery"
                } else {
                    ""
                }
            )?;
        }
        if let Some(p) = &self.partition {
            writeln!(f, "  fabric partition: {p}")?;
        }
        writeln!(f, "  ranks:")?;
        for r in &self.ranks {
            writeln!(
                f,
                "    rank {}: {}{}{}",
                r.rank,
                r.phase,
                if r.done { " (done)" } else { "" },
                if r.paused { " (paused)" } else { "" }
            )?;
        }
        if !self.waits.is_empty() {
            writeln!(f, "  waiting:")?;
            for w in &self.waits {
                writeln!(f, "    {w}")?;
            }
        }
        if let Some(sim) = &self.sim {
            write!(f, "{sim}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterSpec;
    use crate::runner::RunRequest;

    fn hierarchy() -> DeadlineHierarchy {
        let spec = ClusterSpec::new(4, Technology::InicIdeal);
        DeadlineHierarchy::for_run(&spec, &RunRequest::sort(spec.clone(), 1 << 10).workload)
    }

    fn rank(rank: usize, phase: &'static str, entered_ms: u64, done: bool) -> DriverProgress {
        DriverProgress {
            rank,
            phase,
            entered: SimTime::ZERO + SimDuration::from_millis(entered_ms),
            paused: false,
            done,
        }
    }

    #[test]
    fn culprit_is_the_most_overdue_unfinished_rank() {
        // Far enough out that even the slack-multiplied budgets are
        // clearly blown.
        let now = SimTime::ZERO + SimDuration::from_secs(3600);
        let mut report = HangReport::diagnose(
            HangCause::Deadlock,
            Technology::InicIdeal,
            now,
            vec![
                rank(0, "count", 29_000, true),
                rank(1, "exchange", 10, false),
                rank(2, "exchange", 500, false),
            ],
            &hierarchy(),
            None,
        );
        let culprit = report.culprit.as_ref().expect("culprit");
        assert_eq!(culprit.rank, 1);
        assert_eq!(culprit.phase, "exchange");
        assert_eq!(report.attribution(), "exchange on rank 1");
        assert!(report.overdue > SimDuration::ZERO);
        report.waits = vec!["rank 1 in exchange (epoch 0; awaiting gather on stream 1)".into()];
        let text = report.to_string();
        assert!(text.contains("deadlock"));
        assert!(text.contains("waiting:\n    rank 1 in exchange (epoch 0; awaiting gather"));
        assert!(
            text.contains("exchange on rank 1") || text.contains("stuck in exchange on rank 1")
        );
    }

    #[test]
    fn ties_attribute_to_the_lowest_rank() {
        let now = SimTime::ZERO + SimDuration::from_secs(5);
        let report = HangReport::diagnose(
            HangCause::Deadlock,
            Technology::GigabitTcp,
            now,
            vec![
                rank(0, "exchange", 100, false),
                rank(1, "exchange", 100, false),
            ],
            &hierarchy(),
            None,
        );
        assert_eq!(report.culprit.as_ref().expect("culprit").rank, 0);
    }

    #[test]
    fn all_done_means_no_culprit() {
        let report = HangReport::diagnose(
            HangCause::Watchdog(acc_sim::HangKind::EventBudgetExhausted),
            Technology::InicPrototype,
            SimTime::ZERO,
            vec![rank(0, "count", 0, true)],
            &hierarchy(),
            None,
        );
        assert!(report.culprit.is_none());
        assert_eq!(report.attribution(), "unattributed");
    }
}
