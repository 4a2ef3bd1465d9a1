//! A deliberately hang-inducing fault plan must come back as a
//! structured HangReport (named phase and rank), not a panic or an
//! infinite loop.

use acc_chaos::{FaultEvent, FaultPlan, LinkId};
use acc_core::{ClusterSpec, RunOutcome, RunRequest, Technology};
use acc_sim::{SimDuration, SimTime};

fn ms(v: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(v)
}

/// An outage that swallows every retransmit past the abandon horizon:
/// rank 1 can never deliver its exchange partitions, its card abandons
/// the stream, and the gathers on every peer wait forever.
fn hang_plan() -> FaultPlan {
    FaultPlan::new(0xDEAD).with(FaultEvent::LinkOutage {
        link: LinkId::NodeUplink(1),
        from: ms(0) + SimDuration::from_micros(1),
        until: ms(30_000),
    })
}

#[test]
fn seeded_outage_hang_is_detected_and_attributed() {
    let spec = ClusterSpec::new(4, Technology::InicIdeal)
        .with_fault_plan(hang_plan())
        .with_quiet(true);
    let outcome = RunRequest::sort(spec, 1 << 12).execute();
    let report = match &outcome {
        RunOutcome::Hung(r) => r,
        other => panic!("expected a hang, got {other:?}"),
    };
    assert!(!outcome.verified());
    let culprit = report.culprit.as_ref().expect("culprit named");
    assert_eq!(culprit.phase, "exchange", "stuck phase is named");
    eprintln!("attribution: {}", report.attribution());
    eprintln!("{report}");
}

/// A hung outcome read through its workload accessor names the
/// workload and prints the report's Display form, not a Debug dump.
#[test]
#[should_panic(expected = "sort run hung\nhang: ")]
fn hung_outcome_accessor_names_the_workload() {
    let spec = ClusterSpec::new(4, Technology::InicIdeal)
        .with_fault_plan(hang_plan())
        .with_quiet(true);
    RunRequest::sort(spec, 1 << 12).execute().into_sort();
}
