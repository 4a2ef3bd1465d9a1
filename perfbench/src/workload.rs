//! The benchmark's three workloads: how each builds its request, which
//! set-up and layer calls the run makes internally (replayed here, from
//! outside, through the same public functions), the simulated ledger
//! each run carries, and the ledger expected on the default seed.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};

use acc_algos::fft::{fft_2d, fft_in_place, Direction, Matrix};
use acc_algos::sort::{bucket_sort, count_sort, is_sorted};
use acc_algos::transpose::{distributed_transpose, join_row_blocks, split_row_blocks};
use acc_algos::workload::{distributed_uniform_keys, random_matrix};
use acc_chaos::{FaultEvent, FaultPlan, LinkId};
use acc_coll::{Algorithm, CollectiveOp, Schedule};
use acc_core::drivers::recv_buckets_for;
use acc_core::{ClusterSpec, RunOutcome, RunRequest, Technology};
use acc_net::routing::{compute_schedule, Attachment};
use acc_net::{FabricSpec, MacAddr};
use acc_sim::{SimDuration, SimTime};

use crate::spans::Trace;

/// The workload seed used when none is given. The cluster gets the
/// seed itself; the fault plan gets `seed ^ FAULT_SEED_SALT`, so the
/// default seed reproduces the repository's default plan seed 0xFA17.
pub const DEFAULT_SEED: u64 = 0xACC;
const FAULT_SEED_SALT: u64 = 0xACC ^ 0xFA17;

const SORT_KEYS: u64 = 1 << 22;
const SORT_P: usize = 8;
const COLL_ELEMS: usize = 1 << 16;
const COLL_P: usize = 64;
const FAT_TREE_K: usize = 8;
const FFT_ROWS: usize = 1024;
const FFT_P: usize = 8;

/// Which workload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Kind {
    /// Integer sort over TCP on one switch.
    SortGige,
    /// Ring AllReduce on the ideal INIC over a fat-tree.
    AllreduceFattree,
    /// 2D FFT on the ACEII prototype card under frame loss and a card death.
    FftAceiiFaulted,
}

impl Kind {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Kind; 3] = [
        Kind::SortGige,
        Kind::AllreduceFattree,
        Kind::FftAceiiFaulted,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::SortGige => "sort_gige",
            Kind::AllreduceFattree => "allreduce_fattree",
            Kind::FftAceiiFaulted => "fft_aceii_faulted",
        }
    }

    /// The workload named `name`.
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Bytes in one point-to-point message of the workload: a rank's
    /// key bucket for one peer, an FFT transpose block, a ring segment.
    pub fn message_bytes(self) -> usize {
        match self {
            Kind::SortGige => (SORT_KEYS as usize / SORT_P) * 4 / SORT_P,
            Kind::AllreduceFattree => COLL_ELEMS * 8 / COLL_P,
            Kind::FftAceiiFaulted => (FFT_ROWS / FFT_P) * (FFT_ROWS / FFT_P) * 16,
        }
    }
}

/// Inputs the set-up replay generates; the layer replay consumes them.
pub enum Inputs {
    /// Each rank's keys.
    Sort(Vec<Vec<u32>>),
    /// The matrix and each rank's row slab.
    Fft(Matrix, Vec<Matrix>),
    /// Each rank's vector and each rank's schedule.
    Coll(Vec<Vec<f64>>, Vec<Schedule>),
}

/// One workload at one seed.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Which workload.
    pub kind: Kind,
    /// The workload seed.
    pub seed: u64,
}

impl Workload {
    fn fault_plan(&self) -> FaultPlan {
        FaultPlan::new(self.seed ^ FAULT_SEED_SALT)
            .with(FaultEvent::FrameLoss {
                link: LinkId::All,
                prob: 0.01,
            })
            .with(FaultEvent::CardFailure {
                node: 3,
                at: SimTime::ZERO + SimDuration::from_millis(40),
            })
    }

    /// The run, with verification on.
    pub fn request(&self) -> RunRequest {
        match self.kind {
            Kind::SortGige => {
                let mut spec = ClusterSpec::new(SORT_P, Technology::GigabitTcp);
                spec.seed = self.seed;
                RunRequest::sort(spec, SORT_KEYS)
            }
            Kind::AllreduceFattree => {
                let mut spec = ClusterSpec::new(COLL_P, Technology::InicIdeal)
                    .with_fabric(FabricSpec::FatTree { k: FAT_TREE_K });
                spec.seed = self.seed;
                RunRequest::collective(spec, CollectiveOp::AllReduce, Algorithm::Ring, COLL_ELEMS)
            }
            Kind::FftAceiiFaulted => {
                let mut spec = ClusterSpec::new(FFT_P, Technology::InicPrototype)
                    .with_fault_plan(self.fault_plan());
                spec.seed = self.seed;
                RunRequest::fft(spec, FFT_ROWS)
            }
        }
    }

    /// Replay the set-up the run does before its first event — input
    /// generation, fault-plan validation, fabric build and routing,
    /// collective planning — as spans under `parent`.
    pub fn setup(&self, t: &mut Trace, parent: Option<usize>) -> Inputs {
        match self.kind {
            Kind::SortGige => {
                let per_node = SORT_KEYS as usize / SORT_P;
                let keys = t.span("algos.keygen", parent, || {
                    distributed_uniform_keys(per_node, SORT_P, self.seed)
                });
                t.span("net.fabric_build", parent, || {
                    black_box(FabricSpec::SingleSwitch.build(SORT_P))
                });
                Inputs::Sort(keys)
            }
            Kind::AllreduceFattree => {
                // The program's own input (`cluster::collective_input`,
                // private to acc-core), rebuilt here so the oracle replay
                // folds the same values.
                let inputs = t.span("coll.inputs", parent, || {
                    (0..COLL_P)
                        .map(|rank| {
                            (0..COLL_ELEMS)
                                .map(|i| ((rank + 1) * (i % 1000 + 1)) as f64)
                                .collect::<Vec<f64>>()
                        })
                        .collect::<Vec<_>>()
                });
                let topo = t.span("net.fabric_build", parent, || {
                    FabricSpec::FatTree { k: FAT_TREE_K }.build(COLL_P)
                });
                t.span("net.routing", parent, || {
                    let attachments: Vec<Attachment> = (0..COLL_P)
                        .map(|rank| Attachment {
                            mac: MacAddr::for_node(rank, 0),
                            switch: topo.home[rank],
                            rank,
                        })
                        .collect();
                    black_box(compute_schedule(&topo, &attachments, &[], &[]))
                });
                let schedules = t.span("coll.plan", parent, || {
                    acc_coll::plan::build_all(
                        CollectiveOp::AllReduce,
                        Algorithm::Ring,
                        COLL_P,
                        COLL_ELEMS,
                    )
                });
                Inputs::Coll(inputs, schedules)
            }
            Kind::FftAceiiFaulted => {
                let (matrix, slabs) = t.span("algos.matrix_gen", parent, || {
                    let matrix = random_matrix(FFT_ROWS, self.seed);
                    let slabs = split_row_blocks(&matrix, FFT_P);
                    (matrix, slabs)
                });
                t.span("chaos.validate", parent, || {
                    self.fault_plan()
                        .validate(FFT_P as u32)
                        .expect("the benchmark's fault plan is valid")
                });
                t.span("net.fabric_build", parent, || {
                    black_box(FabricSpec::SingleSwitch.build(FFT_P))
                });
                Inputs::Fft(matrix, slabs)
            }
        }
    }
}

/// Replay the host kernels and the serial oracle a run executes, on the
/// clean path, as spans under `parent`. Each replay checks its own
/// result, so it is known to do the run's work.
pub fn replay_layers(inputs: &Inputs, t: &mut Trace, parent: Option<usize>) {
    match inputs {
        Inputs::Sort(keys) => {
            let p = keys.len();
            let sent: Vec<Vec<Vec<u32>>> = t.span("algos.bucket_sort", parent, || {
                keys.iter().map(|k| bucket_sort(k, p)).collect()
            });
            let groups = recv_buckets_for(keys[0].len() as u64);
            let grouped: Vec<Vec<Vec<u32>>> = t.span("algos.bucket_sort", parent, || {
                (0..p)
                    .map(|dst| {
                        let received: Vec<u32> =
                            sent.iter().flat_map(|b| b[dst].iter().copied()).collect();
                        bucket_sort(&received, groups)
                    })
                    .collect()
            });
            let sorted: Vec<u32> = t.span("algos.count_sort", parent, || {
                grouped
                    .iter()
                    .flatten()
                    .flat_map(|b| count_sort(b))
                    .collect()
            });
            t.span("algos.sort_oracle", parent, || {
                let mut expect = keys.concat();
                expect.sort_unstable();
                assert!(is_sorted(&sorted), "replayed sort output unsorted");
                assert_eq!(sorted, expect, "replayed sort diverges from the oracle");
            });
        }
        Inputs::Fft(matrix, slabs) => {
            let rows_pass = |slabs: &mut Vec<Matrix>| {
                for slab in slabs.iter_mut() {
                    for r in 0..slab.rows() {
                        fft_in_place(slab.row_mut(r), Direction::Forward);
                    }
                }
            };
            let mut slabs = slabs.clone();
            t.span("algos.fft_rows", parent, || rows_pass(&mut slabs));
            let mut slabs = t.span("algos.transpose", parent, || distributed_transpose(&slabs));
            t.span("algos.fft_rows", parent, || rows_pass(&mut slabs));
            let slabs = t.span("algos.transpose", parent, || distributed_transpose(&slabs));
            t.span("algos.fft_oracle", parent, || {
                let diff = join_row_blocks(&slabs).max_abs_diff(&fft_2d(matrix));
                assert!(
                    diff < 1e-6,
                    "replayed FFT diverges from the oracle by {diff}"
                );
            });
        }
        Inputs::Coll(inputs, _) => {
            t.span("coll.oracle", parent, || {
                let expect = acc_coll::oracle(CollectiveOp::AllReduce, inputs.len(), inputs);
                for (rank, out) in expect.iter().enumerate() {
                    assert_eq!(black_box(out), &expect[0], "rank {rank} oracle mismatch");
                }
            });
        }
    }
}

/// `(messages, bytes)` one rank sends along the collective's critical
/// path, from `plan::profile`; zero for the other workloads.
pub fn coll_profile(inputs: &Inputs) -> (u64, u64) {
    match inputs {
        Inputs::Coll(_, schedules) => {
            let rounds = acc_coll::plan::profile(schedules);
            (
                rounds.len() as u64,
                rounds.iter().map(|r| r.send_bytes).sum(),
            )
        }
        _ => (0, 0),
    }
}

/// The simulated ledger a run reports, one exact value per field. Fields
/// named `*_ms` hold picoseconds; `core.resumed_from_phase` is -1 when
/// no coordinated resume happened.
pub const LEDGER_FIELDS: [&str; 16] = [
    "sim_ms",
    "proto.protocol_cpu_ms",
    "host.interrupts",
    "net.switch_drops",
    "proto.retransmits",
    "core.degraded_nodes",
    "core.resumed_from_phase",
    "core.sort.bucket1_ms",
    "core.sort.comm_ms",
    "core.sort.bucket2_ms",
    "core.sort.count_ms",
    "core.fft.compute_ms",
    "core.fft.transpose_comm_ms",
    "core.fft.transpose_host_ms",
    "core.coll.comm_ms",
    "core.coll.compute_ms",
];

/// A run's simulated ledger, indexed like [`LEDGER_FIELDS`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct Ledger(pub [i64; LEDGER_FIELDS.len()]);

impl Ledger {
    fn index(field: &str) -> usize {
        LEDGER_FIELDS
            .iter()
            .position(|f| *f == field)
            .unwrap_or_else(|| panic!("no ledger field `{field}`"))
    }

    fn set(&mut self, field: &str, value: u64) {
        self.0[Ledger::index(field)] = i64::try_from(value).expect("ledger value fits i64");
    }

    fn set_resumed(&mut self, phase: Option<u32>) {
        self.0[Ledger::index("core.resumed_from_phase")] = phase.map_or(-1, i64::from);
    }

    /// The value of `field` in its metric unit: ms for `*_ms` fields,
    /// the raw count otherwise.
    pub fn metric(&self, field: &str) -> f64 {
        let i = Ledger::index(field);
        if field.ends_with("_ms") {
            self.0[i] as f64 / 1e9
        } else {
            self.0[i] as f64
        }
    }

    /// The ledger of a finished run; `None` for a hung run.
    pub fn of(out: &RunOutcome) -> Option<Ledger> {
        let mut l = Ledger::default();
        let faults = match out {
            RunOutcome::Sort(r) => {
                l.set("sim_ms", r.total.as_ps());
                l.set("proto.protocol_cpu_ms", r.protocol_cpu.as_ps());
                l.set("host.interrupts", r.interrupts);
                l.set("net.switch_drops", r.switch_drops);
                l.set("core.sort.bucket1_ms", r.bucket1.as_ps());
                l.set("core.sort.comm_ms", r.comm.as_ps());
                l.set("core.sort.bucket2_ms", r.bucket2.as_ps());
                l.set("core.sort.count_ms", r.count.as_ps());
                &r.faults
            }
            RunOutcome::Fft(r) => {
                l.set("sim_ms", r.total.as_ps());
                l.set("proto.protocol_cpu_ms", r.protocol_cpu.as_ps());
                l.set("host.interrupts", r.interrupts);
                l.set("net.switch_drops", r.switch_drops);
                l.set("core.fft.compute_ms", r.compute.as_ps());
                l.set("core.fft.transpose_comm_ms", r.transpose_comm.as_ps());
                l.set("core.fft.transpose_host_ms", r.transpose_compute.as_ps());
                &r.faults
            }
            RunOutcome::Coll(r) => {
                l.set("sim_ms", r.total.as_ps());
                l.set("core.coll.comm_ms", r.comm.as_ps());
                l.set("core.coll.compute_ms", r.compute.as_ps());
                &r.faults
            }
            RunOutcome::Reduce(_) | RunOutcome::Hung(_) => return None,
        };
        l.set("proto.retransmits", faults.retransmits);
        l.set("core.degraded_nodes", faults.degraded_nodes);
        l.set_resumed(faults.resumed_from_phase);
        Some(l)
    }

    /// The fields where `self` differs from `expected`, one line each.
    pub fn mismatches(&self, expected: &Ledger) -> Vec<String> {
        LEDGER_FIELDS
            .iter()
            .enumerate()
            .filter(|&(i, _)| self.0[i] != expected.0[i])
            .map(|(i, f)| format!("{f}: expected {}, got {}", expected.0[i], self.0[i]))
            .collect()
    }

    /// The ledger as one whitespace-separated line of integers.
    pub fn to_line(self) -> String {
        let vals: Vec<String> = self.0.iter().map(i64::to_string).collect();
        vals.join(" ")
    }

    /// Parse [`Ledger::to_line`] output.
    pub fn from_line(line: &str) -> Option<Ledger> {
        let vals: Vec<i64> = line
            .split_whitespace()
            .map(str::parse)
            .collect::<Result<_, _>>()
            .ok()?;
        Some(Ledger(vals.try_into().ok()?))
    }
}

/// The ledger every run of `kind` must report on [`DEFAULT_SEED`]
/// (fields not listed are zero). Recorded from the release build when
/// the benchmark was defined; a change that moves any simulated result
/// fails the output check until these values are updated with it.
pub fn expected(kind: Kind) -> Ledger {
    let mut l = Ledger::default();
    l.set_resumed(match kind {
        Kind::FftAceiiFaulted => Some(0),
        Kind::SortGige | Kind::AllreduceFattree => None,
    });
    let fields: &[(&str, u64)] = match kind {
        Kind::SortGige => &[
            ("sim_ms", 163_144_559_981),
            ("proto.protocol_cpu_ms", 42_777_193_793),
            ("host.interrupts", 1363),
            ("core.sort.bucket1_ms", 40_329_846_154),
            ("core.sort.comm_ms", 47_416_744_596),
            ("core.sort.bucket2_ms", 40_430_230_769),
            ("core.sort.count_ms", 35_039_533_333),
        ],
        Kind::AllreduceFattree => &[
            ("sim_ms", 42_375_659_534),
            ("core.coll.comm_ms", 42_375_659_534),
        ],
        Kind::FftAceiiFaulted => &[
            ("sim_ms", 446_663_998_316),
            ("host.interrupts", 14),
            ("proto.retransmits", 18_093),
            ("core.degraded_nodes", 1),
            ("core.fft.compute_ms", 87_381_333_248),
            ("core.fft.transpose_comm_ms", 199_682_665_068),
            ("core.fft.transpose_host_ms", 114_285_714_288),
        ],
    };
    for &(f, v) in fields {
        l.set(f, v);
    }
    l
}

/// Execute `req`, turning a panic (a failed verification assert) into
/// an error naming it.
pub fn execute(req: RunRequest) -> Result<RunOutcome, String> {
    catch_unwind(AssertUnwindSafe(|| req.execute())).map_err(|payload| panic_message(&*payload))
}

/// The text of a caught panic.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_else(|| "non-string panic".to_string())
}

/// Check that one run finished without panicking and verified against
/// its serial oracle; returns its ledger or the problem found.
pub fn check(out: Result<RunOutcome, String>) -> Result<Ledger, Vec<String>> {
    let out = out.map_err(|msg| vec![format!("panicked: {msg}")])?;
    let Some(ledger) = Ledger::of(&out) else {
        let why = out
            .hang()
            .map_or_else(|| "no ledger".to_string(), |h| format!("hung: {h}"));
        return Err(vec![why]);
    };
    if out.verified() {
        Ok(ledger)
    } else {
        Err(vec!["not verified against its serial oracle".to_string()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for k in Kind::ALL {
            assert_eq!(Kind::parse(k.name()), Some(k));
            assert!(crate::report::valid_name(k.name()));
        }
        assert_eq!(Kind::parse("nope"), None);
    }

    #[test]
    fn default_seed_gives_the_repository_plan_seed() {
        let w = Workload {
            kind: Kind::FftAceiiFaulted,
            seed: DEFAULT_SEED,
        };
        assert_eq!(w.fault_plan().seed(), 0xFA17);
    }

    #[test]
    fn ledger_line_round_trips_and_reports_fields_by_name() {
        let mut a = Ledger::default();
        a.set("sim_ms", 446_700_000_000);
        a.set_resumed(None);
        assert_eq!(Ledger::from_line(&a.to_line()), Some(a));
        assert_eq!(Ledger::from_line("1 2"), None);
        assert_eq!(a.metric("sim_ms"), 446.7);
        let mut b = a;
        b.set("proto.retransmits", 3);
        assert_eq!(
            b.mismatches(&a),
            vec!["proto.retransmits: expected 0, got 3"]
        );
    }

    #[test]
    fn ledger_fields_are_per_layer_metrics_or_sim_ms() {
        for f in LEDGER_FIELDS {
            let listed = f == "sim_ms" || crate::report::PER_LAYER.iter().any(|d| d.name == f);
            assert!(listed, "{f}");
        }
    }
}
