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
use acc::core::{FaultDiagnostics, RecoveryPolicy, RunRequest};
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

/// Runs `workload` (fft 64, sort 2^16 or ring allreduce 8192) on `spec`
/// and returns (verified, total, fault telemetry).
fn run_cell(workload: &str, spec: ClusterSpec) -> (bool, SimDuration, FaultDiagnostics) {
    match workload {
        "fft" => {
            let r = RunRequest::fft(spec, 64).execute().into_fft();
            (r.verified, r.total, r.faults)
        }
        "sort" => {
            let r = RunRequest::sort(spec, 1 << 16).execute().into_sort();
            (r.verified, r.total, r.faults)
        }
        _ => {
            let r = RunRequest::collective(spec, CollectiveOp::AllReduce, Algorithm::Ring, 8192)
                .execute()
                .into_coll();
            (r.verified, r.total, r.faults)
        }
    }
}

/// A p=4 cluster whose plan kills each `(node, at µs)` card.
fn killing(technology: Technology, policy: RecoveryPolicy, kills: &[(u32, u64)]) -> ClusterSpec {
    let mut plan = FaultPlan::new(0x601D);
    for &(node, at_us) in kills {
        plan = plan.with(FaultEvent::CardFailure {
            node,
            at: SimTime::ZERO + SimDuration::from_micros(at_us),
        });
    }
    ClusterSpec::new(4, technology)
        .with_fault_plan(plan)
        .with_recovery_policy(policy)
}

/// Card-death cells. Pins each cell's total, degraded-rank count and
/// resume phase, so any drift in the shared recovery protocol is
/// visible.
///
/// The first block kills node 1's card at 1 ms, inside the 60 ms
/// bitstream load, under every recovery policy. The second kills cards
/// after configuration, in the middle of an exchange: the first FFT
/// transpose (fft1 ends about 88 µs after configuration) and the sort
/// key exchange. Its two-death rows kill node 2 after the first resume:
/// the FFT one inside the second transpose (a resume from phase 3), the
/// sort one inside the resumed exchange; both then run epoch-2 exchanges
/// with legs to two dead ranks. `InicProtocol` always recovers by full
/// restart, whatever the requested policy.
#[test]
fn card_death_recovery_is_pinned() {
    use RecoveryPolicy::{Checkpointed, FullRestart, RankLocal};
    use Technology::{InicIdeal, InicProtocol, InicPrototype};
    // (policy, workload, total ps, degraded ranks, resumed-from phase)
    let at_1ms = [
        (FullRestart, "fft", 3_317_776_996, 4, None),
        (FullRestart, "sort", 3_801_910_811, 4, None),
        (FullRestart, "allreduce", 8_322_561_581, 4, None),
        (RankLocal, "fft", 61_172_223_368, 1, Some(0)),
        (RankLocal, "sort", 62_172_257_811, 1, Some(0)),
        (RankLocal, "allreduce", 65_224_603_490, 1, Some(0)),
        (Checkpointed, "fft", 61_172_223_368, 1, Some(0)),
        (Checkpointed, "sort", 62_172_257_811, 1, Some(0)),
        (Checkpointed, "allreduce", 65_224_603_490, 1, Some(0)),
    ];
    for (policy, workload, total_ps, degraded, resumed) in at_1ms {
        let cell = (InicIdeal, policy, workload, &[(1, 1_000)][..]);
        check_cell(cell, total_ps, degraded, resumed);
    }
    // (technology, policy, workload, kills (node, µs), total ps,
    //  degraded ranks, resumed-from phase)
    let mid_exchange: [(_, _, _, &[(u32, u64)], _, _, _); 10] = [
        (
            InicIdeal,
            RankLocal,
            "fft",
            &[(1, 60_338)],
            3_323_403_728,
            1,
            Some(0),
        ),
        (
            InicIdeal,
            Checkpointed,
            "fft",
            &[(1, 60_338)],
            3_235_632_304,
            1,
            Some(1),
        ),
        (
            InicPrototype,
            RankLocal,
            "fft",
            &[(1, 200_348)],
            3_333_403_728,
            1,
            Some(0),
        ),
        (
            InicPrototype,
            Checkpointed,
            "fft",
            &[(1, 200_348)],
            3_245_632_304,
            1,
            Some(1),
        ),
        (
            InicPrototype,
            RankLocal,
            "sort",
            &[(1, 201_250)],
            5_671_574_818,
            1,
            Some(0),
        ),
        (
            InicPrototype,
            Checkpointed,
            "sort",
            &[(1, 201_250)],
            5_671_574_818,
            1,
            Some(0),
        ),
        (
            InicProtocol,
            RankLocal,
            "sort",
            &[(1, 61_300)],
            5_101_910_811,
            4,
            None,
        ),
        (
            InicProtocol,
            Checkpointed,
            "sort",
            &[(1, 61_300)],
            5_101_910_811,
            4,
            None,
        ),
        (
            InicIdeal,
            Checkpointed,
            "fft",
            &[(1, 60_338), (2, 62_200)],
            3_895_369_902,
            2,
            Some(3),
        ),
        (
            InicPrototype,
            Checkpointed,
            "sort",
            &[(1, 201_250), (2, 202_450)],
            6_759_746_959,
            2,
            Some(0),
        ),
    ];
    for (technology, policy, workload, kills, total_ps, degraded, resumed) in mid_exchange {
        check_cell(
            (technology, policy, workload, kills),
            total_ps,
            degraded,
            resumed,
        );
    }
}

/// Run one card-death cell and compare it with its pinned values.
fn check_cell(
    (technology, policy, workload, kills): (Technology, RecoveryPolicy, &str, &[(u32, u64)]),
    total_ps: u64,
    degraded: u64,
    resumed: Option<u32>,
) {
    let label = format!("{technology:?} {policy:?} {workload} kills {kills:?}");
    let (verified, total, faults) = run_cell(workload, killing(technology, policy, kills));
    assert!(verified, "{label}: wrong data");
    assert_eq!(total.as_ps(), total_ps, "{label}: total");
    assert_eq!(faults.degraded_nodes, degraded, "{label}");
    assert_eq!(faults.resumed_from_phase, resumed, "{label}");
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
