//! End-to-end matrix tests for the acc-coll collective engine: every
//! collective × algorithm × technology × processor-count cell verifies
//! numerically against the first-principles oracle, runs
//! deterministically, rejects over-capacity offloads with a structured
//! error, and hangs attributably when a fault plan wedges a round.

use acc::coll::{Algorithm, CollectiveOp, OffloadError};
use acc::core::cluster::{plan_collective_offload, ClusterSpec, Technology};
use acc::core::{RunOutcome, RunRequest};
use acc::sim::{SimDuration, SimTime};
use acc_chaos::{FaultEvent, FaultPlan, LinkId};

const PROCS: [usize; 5] = [1, 2, 4, 8, 16];

/// Divisible by every power of two through 16 and by 3 — keeps every
/// algorithm's divisibility precondition satisfiable at one size.
const ELEMS: usize = 96;

#[test]
fn every_cell_verifies_on_every_technology() {
    for op in CollectiveOp::ALL {
        for algo in op.algorithms() {
            for p in PROCS {
                if !acc::coll::supports(op, algo, p, ELEMS) {
                    continue;
                }
                for tech in Technology::ALL {
                    let r = RunRequest::collective(ClusterSpec::new(p, tech), op, algo, ELEMS)
                        .execute()
                        .into_coll();
                    assert!(r.verified, "{op}/{algo} p={p} {}", tech.label());
                }
            }
        }
    }
}

#[test]
fn uneven_vectors_verify_where_supported() {
    // 91 = 7 × 13 shares no factor with any pow-2 p: exercises the
    // uneven segment bounds of the ring/pairwise family.
    let elems = 91;
    for op in CollectiveOp::ALL {
        for algo in op.algorithms() {
            for p in [2usize, 4, 8] {
                if !acc::coll::supports(op, algo, p, elems) {
                    continue;
                }
                for tech in [Technology::GigabitTcp, Technology::InicIdeal] {
                    let r = RunRequest::collective(ClusterSpec::new(p, tech), op, algo, elems)
                        .execute()
                        .into_coll();
                    assert!(r.verified, "{op}/{algo} p={p} {} uneven", tech.label());
                }
            }
        }
    }
}

#[test]
fn collective_runs_are_deterministic() {
    for tech in [Technology::GigabitTcp, Technology::InicIdeal] {
        let a = RunRequest::collective(
            ClusterSpec::new(8, tech),
            CollectiveOp::ReduceScatter,
            Algorithm::Ring,
            4096,
        )
        .execute()
        .into_coll();
        let b = RunRequest::collective(
            ClusterSpec::new(8, tech),
            CollectiveOp::ReduceScatter,
            Algorithm::Ring,
            4096,
        )
        .execute()
        .into_coll();
        assert_eq!(a.total, b.total, "{}", tech.label());
        assert_eq!(a.comm, b.comm);
        assert_eq!(a.compute, b.compute);
    }
}

#[test]
fn over_capacity_offload_is_a_structured_error() {
    // A 128-way stream router outgrows the prototype's XC4085XLA; the
    // planner must reject it *before* any cluster is wired, with the
    // CLB arithmetic in the error.
    let schedules = acc::coll::plan::build_all(CollectiveOp::AllReduce, Algorithm::Ring, 128, 128);
    let err = plan_collective_offload(Technology::InicPrototype, &schedules)
        .expect_err("a 128-way collective cannot fit the prototype card");
    let OffloadError::InsufficientLogic {
        required,
        available,
    } = err;
    assert!(required > available, "{err}");
    assert!(
        err.to_string().contains("CLBs"),
        "the rejection must name the budget: {err}"
    );
    // The same schedules fit the next-generation device, and the
    // host-TCP technologies have nothing to reject.
    assert!(plan_collective_offload(Technology::InicIdeal, &schedules)
        .expect("virtex-class device absorbs the fan-out")
        .is_some());
    assert!(plan_collective_offload(Technology::GigabitTcp, &schedules)
        .expect("nothing to offload on host TCP")
        .is_none());
}

#[test]
fn halo_exchange_verifies_and_is_allreduce_heavy() {
    for tech in [
        Technology::GigabitTcp,
        Technology::InicIdeal,
        Technology::InicProtocol,
    ] {
        let r = RunRequest::halo(ClusterSpec::new(4, tech), 256, 3)
            .execute()
            .into_coll();
        assert!(r.verified, "halo {}", tech.label());
        assert!(r.comm > SimDuration::ZERO);
    }
}

#[test]
fn wedged_collective_round_is_attributed_to_phase_and_rank() {
    // An outage swallowing rank 1's uplink past every retransmit: its
    // ring-step sends can never deliver, every peer's gather waits
    // forever, and the liveness layer must name the engine's phase.
    let plan = FaultPlan::new(0xC011).with(FaultEvent::LinkOutage {
        link: LinkId::NodeUplink(1),
        from: SimTime::ZERO + SimDuration::from_micros(1),
        until: SimTime::ZERO + SimDuration::from_secs(600),
    });
    let spec = ClusterSpec::new(4, Technology::InicIdeal).with_fault_plan(plan);
    let outcome =
        RunRequest::collective(spec, CollectiveOp::AllReduce, Algorithm::Ring, 8192).execute();
    let report = match &outcome {
        RunOutcome::Hung(r) => r,
        other => panic!("expected a hang, got {other:?}"),
    };
    let culprit = report.culprit.as_ref().expect("culprit named");
    assert_eq!(
        culprit.phase, "collective ring step",
        "the engine phase is named"
    );
    assert!(
        report
            .attribution()
            .contains("collective ring step on rank"),
        "attribution: {}",
        report.attribution()
    );
}
