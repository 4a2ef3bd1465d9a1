//! Golden regression values.
//!
//! The whole reproduction is deterministic — integer-picosecond time,
//! seeded workloads, tie-broken event ordering — so key scenario
//! results can be pinned exactly. If a model or protocol change moves
//! any of these numbers, the change is real and EXPERIMENTS.md must be
//! re-generated; this test makes that visible instead of silent.

use acc::coll::{Algorithm, CollectiveOp};
use acc::core::cluster::{ClusterSpec, KeyDistribution, PartitionStrategy, Technology};
use acc::core::model::{FftModel, SortModel};
use acc::core::{RecoveryPolicy, RunRequest};
use acc::sim::{SimDuration, SimTime};
use acc_chaos::{FaultEvent, FaultPlan};

#[test]
fn analytic_models_are_pinned() {
    // Pure closed forms (Eqs. 3–17) — these change only if the
    // equations or the Athlon calibration change.
    let fft = FftModel::new(512);
    assert_eq!(fft.partition_size(8).bytes(), 524_288);
    assert_eq!(fft.t_dth(8).as_ps(), 6_250_000_000); // 512 KiB / 80 MiB/s
    assert_eq!(fft.t_trans(8).as_ps(), 25_173_611_114);
    let sort = SortModel::new(1 << 25);
    assert_eq!(sort.recv_buckets(16), 128);
    assert_eq!(sort.t_dth(16).as_ps(), 100_000_000_000); // 8 MiB / 80 MiB/s
    assert_eq!(sort.t_dfg(16).as_ps(), 88_888_888_889);
}

#[test]
fn simulated_scenarios_are_pinned() {
    // Full end-to-end runs; exact picosecond totals. Small sizes keep
    // this fast while still exercising the entire stack.
    let fft_inic = RunRequest::fft(ClusterSpec::new(4, Technology::InicIdeal), 64)
        .execute()
        .into_fft();
    let fft_gige = RunRequest::fft(ClusterSpec::new(4, Technology::GigabitTcp), 64)
        .execute()
        .into_fft();
    let sort_inic = RunRequest::sort(ClusterSpec::new(4, Technology::InicIdeal), 1 << 16)
        .execute()
        .into_sort();
    assert!(fft_inic.verified && fft_gige.verified && sort_inic.verified);
    // If any of these change, regenerate EXPERIMENTS.md.
    assert_eq!(
        fft_inic.total.as_ps(),
        1_187_879_754,
        "fft inic-ideal p4 n64"
    );
    assert_eq!(fft_gige.total.as_ps(), 3_317_776_996, "fft gigabit p4 n64");
    assert_eq!(
        sort_inic.total.as_ps(),
        2_915_325_717,
        "sort inic-ideal p4 2^16"
    );
    let skewed = RunRequest::sort_custom(
        ClusterSpec::new(4, Technology::InicIdeal),
        1 << 16,
        KeyDistribution::Gaussian,
        PartitionStrategy::SampledSplitters,
    )
    .execute()
    .into_sort();
    assert!(skewed.verified);
    assert_eq!(
        skewed.total.as_ps(),
        3_038_771_747,
        "sort inic-ideal p4 2^16 gaussian sampled-splitters"
    );
}

#[test]
fn simulated_collectives_are_pinned() {
    // One bandwidth-bound and one latency-bound engine cell, on a host
    // path and the combined INIC. Same contract as the scenarios above:
    // if a number moves, a schedule or protocol change is real.
    let ring_inic = RunRequest::collective(
        ClusterSpec::new(4, Technology::InicIdeal),
        CollectiveOp::AllReduce,
        Algorithm::Ring,
        8192,
    )
    .execute()
    .into_coll();
    let rd_gige = RunRequest::collective(
        ClusterSpec::new(4, Technology::GigabitTcp),
        CollectiveOp::AllReduce,
        Algorithm::RecursiveDoubling,
        256,
    )
    .execute()
    .into_coll();
    assert!(ring_inic.verified && rd_gige.verified);
    assert_eq!(
        ring_inic.total.as_ps(),
        3_757_111_770,
        "allreduce ring inic-ideal p4 8192"
    );
    assert_eq!(
        rd_gige.total.as_ps(),
        392_091_820,
        "allreduce rd gigabit p4 256"
    );
    // Halo's simulated time appears in no figure or ablation; the
    // policy-selected allreduce is the `allreduce` workload's path.
    let halo_gige = RunRequest::halo(ClusterSpec::new(4, Technology::GigabitTcp), 256, 3)
        .execute()
        .into_coll();
    let halo_inic = RunRequest::halo(ClusterSpec::new(4, Technology::InicIdeal), 256, 3)
        .execute()
        .into_coll();
    let allreduce = RunRequest::allreduce(ClusterSpec::new(4, Technology::InicIdeal), 4096)
        .execute()
        .into_reduce();
    assert!(halo_gige.verified && halo_inic.verified && allreduce.verified);
    assert_eq!(
        halo_gige.total.as_ps(),
        1_612_589_244,
        "halo gigabit p4 256x3"
    );
    assert_eq!(
        halo_inic.total.as_ps(),
        334_150_227,
        "halo inic-ideal p4 256x3"
    );
    assert_eq!(
        allreduce.total.as_ps(),
        1_992_890_454,
        "allreduce policy inic-ideal p4 4096"
    );
}

/// Card-death cells: p=4 ideal INIC, node 1's card killed at 1 ms
/// (inside the 60 ms bitstream load), under every recovery policy.
/// Pins each cell's total, degraded-rank count and resume phase, so
/// any drift in the shared recovery protocol is visible.
#[test]
fn card_death_recovery_is_pinned() {
    let spec = |policy| {
        let kill = FaultEvent::CardFailure {
            node: 1,
            at: SimTime::ZERO + SimDuration::from_millis(1),
        };
        ClusterSpec::new(4, Technology::InicIdeal)
            .with_fault_plan(FaultPlan::new(0x601D).with(kill))
            .with_recovery_policy(policy)
    };
    // (policy, workload, total ps, degraded ranks, resumed-from phase)
    let golden = [
        (RecoveryPolicy::FullRestart, "fft", 3_317_776_996, 4, None),
        (RecoveryPolicy::FullRestart, "sort", 3_801_910_811, 4, None),
        (
            RecoveryPolicy::FullRestart,
            "allreduce",
            8_322_561_581,
            4,
            None,
        ),
        (RecoveryPolicy::RankLocal, "fft", 61_172_223_368, 1, Some(0)),
        (
            RecoveryPolicy::RankLocal,
            "sort",
            62_172_257_811,
            1,
            Some(0),
        ),
        (
            RecoveryPolicy::RankLocal,
            "allreduce",
            65_224_603_490,
            1,
            Some(0),
        ),
        (
            RecoveryPolicy::Checkpointed,
            "fft",
            61_172_223_368,
            1,
            Some(0),
        ),
        (
            RecoveryPolicy::Checkpointed,
            "sort",
            62_172_257_811,
            1,
            Some(0),
        ),
        (
            RecoveryPolicy::Checkpointed,
            "allreduce",
            65_224_603_490,
            1,
            Some(0),
        ),
    ];
    for (policy, workload, total_ps, degraded, resumed) in golden {
        let (verified, total, faults) = match workload {
            "fft" => {
                let r = RunRequest::fft(spec(policy), 64).execute().into_fft();
                (r.verified, r.total, r.faults)
            }
            "sort" => {
                let r = RunRequest::sort(spec(policy), 1 << 16)
                    .execute()
                    .into_sort();
                (r.verified, r.total, r.faults)
            }
            _ => {
                let r = RunRequest::collective(
                    spec(policy),
                    CollectiveOp::AllReduce,
                    Algorithm::Ring,
                    8192,
                )
                .execute()
                .into_coll();
                (r.verified, r.total, r.faults)
            }
        };
        assert!(verified, "{policy:?} {workload}: wrong data");
        assert_eq!(total.as_ps(), total_ps, "{policy:?} {workload}: total");
        assert_eq!(faults.degraded_nodes, degraded, "{policy:?} {workload}");
        assert_eq!(faults.resumed_from_phase, resumed, "{policy:?} {workload}");
    }
}

#[test]
fn fft_speedup_shape_is_pinned() {
    // The Fig. 4(a) INIC model curve at the paper's anchor points, to
    // three decimals.
    let m = FftModel::new(256);
    let s = |p: usize| (m.speedup(p) * 1000.0).round() / 1000.0;
    assert_eq!(s(2), 1.342);
    assert_eq!(s(8), 7.779);
    assert_eq!(s(16), 15.94);
}
