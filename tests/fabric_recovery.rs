//! Fault-tolerant multi-switch fabrics, end to end: a 3-topology ×
//! 3-fault × 3-recovery-policy matrix over a mid-run allreduce, the
//! headline p=64 fat-tree switch-kill scenario, and the no-fallback
//! (commodity TCP) case where a dead edge switch must surface as an
//! *attributed* partition — never a silent hang.
//!
//! Fault kinds are mapped per topology: on the single switch, where
//! trunk faults cannot exist, the analogous legacy faults (an uplink
//! outage, a card death) fill the Link/Switch columns, so every cell
//! of the matrix is a real run.

use acc::coll::{Algorithm, CollectiveOp};
use acc::core::cluster::{ClusterSpec, Technology};
use acc::core::{RecoveryPolicy, RunOutcome, RunRequest};
use acc::net::FabricSpec;
use acc::sim::{SimDuration, SimTime};
use acc_chaos::{FaultEvent, FaultPlan, LinkId};

fn ms(n: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(n)
}

/// Payload sized so every schedule is still exchanging when the 61 ms
/// fault lands (the 60 ms bitstream load gates the start on INIC
/// runs); divisible by every p in the matrix.
const ELEMS: usize = 6144;

#[derive(Clone, Copy, PartialEq, Debug)]
enum FaultKind {
    None,
    Link,
    Switch,
}

/// The three fabric shapes of the matrix, with their cluster sizes and
/// per-shape fault instantiations.
fn topologies() -> Vec<(FabricSpec, usize)> {
    vec![
        (FabricSpec::SingleSwitch, 8),
        (FabricSpec::FatTree { k: 4 }, 16),
        (FabricSpec::Torus3D { dims: [2, 2, 2] }, 8),
    ]
}

/// The fault plan for one matrix cell, or `None` for the clean column.
fn cell_plan(spec: FabricSpec, kind: FaultKind, seed: u64) -> Option<FaultPlan> {
    let plan = FaultPlan::new(seed);
    let ev = match (spec, kind) {
        (_, FaultKind::None) => return None,
        // Single switch: the closest legacy analogues.
        (FabricSpec::SingleSwitch, FaultKind::Link) => FaultEvent::LinkOutage {
            link: LinkId::NodeUplink(1),
            from: ms(61),
            until: ms(64),
        },
        (FabricSpec::SingleSwitch, FaultKind::Switch) => FaultEvent::CardFailure {
            node: 1,
            at: ms(61),
        },
        // Fat-tree k=4: trunk edge0-agg8 down, or core switch 16 dead.
        // The core kill exercises pure failover routing (no hosts sit
        // on a core, so no rank degrades).
        (FabricSpec::FatTree { .. }, FaultKind::Link) => FaultEvent::LinkDown {
            a: 0,
            b: 8,
            from: ms(61),
            until: ms(64),
        },
        (FabricSpec::FatTree { .. }, FaultKind::Switch) => FaultEvent::SwitchFailure {
            switch: 16,
            at: ms(61),
        },
        // 2x2x2 torus: ring trunk 0-1 down, or switch 1 (rank 1's
        // home) dead — the victim's card dies with it and recovery
        // reroutes rank 1 onto its dual-homed fallback NIC.
        (FabricSpec::Torus3D { .. }, FaultKind::Link) => FaultEvent::LinkDown {
            a: 0,
            b: 1,
            from: ms(61),
            until: ms(64),
        },
        (FabricSpec::Torus3D { .. }, FaultKind::Switch) => FaultEvent::SwitchFailure {
            switch: 1,
            at: ms(61),
        },
    };
    Some(plan.with(ev))
}

/// Ranks a switch kill strands in each topology (and therefore the
/// expected degraded-node count under rank-local recovery).
fn switch_victims(spec: FabricSpec) -> u64 {
    match spec {
        FabricSpec::SingleSwitch => 1,   // the analogous card death
        FabricSpec::FatTree { .. } => 0, // core switch seats no hosts
        FabricSpec::Torus3D { .. } => 1, // one host per switch
    }
}

#[test]
fn fabric_fault_policy_matrix_completes_bit_correct() {
    let policies = [
        RecoveryPolicy::Checkpointed,
        RecoveryPolicy::FullRestart,
        RecoveryPolicy::RankLocal,
    ];
    let mut seed = 0xFAB0u64;
    for (spec, p) in topologies() {
        for kind in [FaultKind::None, FaultKind::Link, FaultKind::Switch] {
            for policy in policies {
                seed += 1;
                let mut cluster = ClusterSpec::new(p, Technology::InicIdeal)
                    .with_fabric(spec)
                    .with_recovery_policy(policy);
                if let Some(plan) = cell_plan(spec, kind, seed) {
                    cluster = cluster.with_fault_plan(plan);
                }
                let outcome = RunRequest::collective(
                    cluster,
                    CollectiveOp::AllReduce,
                    Algorithm::Ring,
                    ELEMS,
                )
                .execute();
                assert!(
                    !outcome.is_hung(),
                    "{spec} p={p} {kind:?} {policy:?} hung:\n{:?}",
                    outcome.hang()
                );
                let r = outcome.into_coll();
                assert!(r.verified, "{spec} p={p} {kind:?} {policy:?}: wrong data");
                match kind {
                    FaultKind::None | FaultKind::Link => assert_eq!(
                        r.faults.degraded_nodes, 0,
                        "{spec} p={p} {kind:?} {policy:?}: transient faults degrade nobody"
                    ),
                    FaultKind::Switch => {
                        let victims = switch_victims(spec);
                        let expect = match policy {
                            // Full restart degrades everyone — but only
                            // if the kill stranded anyone at all.
                            RecoveryPolicy::FullRestart if victims > 0 => p as u64,
                            _ => victims,
                        };
                        assert_eq!(
                            r.faults.degraded_nodes, expect,
                            "{spec} p={p} {policy:?}: degraded-node count"
                        );
                    }
                }
            }
        }
    }
}

/// The headline scenario: a p=64 fat-tree loses a core switch
/// mid-allreduce and the run completes bit-correct over the ECMP
/// failover routes — no degradation, no hang, every frame accounted
/// for by the per-switch conservation audit that faulted runs carry.
#[test]
fn p64_fat_tree_switch_kill_mid_allreduce_completes_over_failover_routes() {
    let plan = FaultPlan::new(0x64FA).with(FaultEvent::SwitchFailure {
        switch: 64, // first core of the k=8 tree
        at: ms(61),
    });
    let spec = ClusterSpec::new(64, Technology::InicIdeal)
        .with_fabric(FabricSpec::FatTree { k: 8 })
        .with_fault_plan(plan);
    let outcome =
        RunRequest::collective(spec, CollectiveOp::AllReduce, Algorithm::Ring, ELEMS).execute();
    assert!(
        !outcome.is_hung(),
        "core-switch kill must fail over, not hang:\n{:?}",
        outcome.hang()
    );
    let r = outcome.into_coll();
    assert!(r.verified, "failover routes must deliver bit-correct data");
    assert_eq!(
        r.faults.degraded_nodes, 0,
        "no host sits on a core switch: nobody degrades"
    );
}

/// No fallback path, no recovery: on commodity TCP a dead edge switch
/// strands its ranks for good. The run must end in a structured,
/// attributed report naming the failed switch and the unreachable
/// ranks — not a silent wedge or an unexplained watchdog trip.
#[test]
fn tcp_edge_switch_kill_yields_attributed_partition_report() {
    let plan = FaultPlan::new(0x7C9).with(FaultEvent::SwitchFailure {
        switch: 0, // edge 0 seats ranks 0 and 1
        at: ms(1),
    });
    let spec = ClusterSpec::new(16, Technology::GigabitTcp)
        .with_fabric(FabricSpec::FatTree { k: 4 })
        .with_fault_plan(plan);
    let outcome =
        RunRequest::collective(spec, CollectiveOp::AllReduce, Algorithm::Ring, ELEMS).execute();
    let RunOutcome::Hung(report) = outcome else {
        panic!("stranded TCP ranks cannot complete, got {outcome:?}");
    };
    let partition = report
        .partition
        .as_ref()
        .expect("the hang must carry the fabric partition");
    assert_eq!(partition.dead_switches, vec![0], "names the failed switch");
    assert_eq!(
        partition.unreachable_ranks,
        vec![0, 1],
        "names the stranded ranks"
    );
    let rendered = format!("{report}");
    assert!(
        rendered.contains("fabric partition"),
        "the report surfaces the partition to humans:\n{rendered}"
    );
}
