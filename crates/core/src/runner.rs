//! A uniform "one run" description shared by every campaign driver.
//!
//! The figure regenerators, ablations, soak and fault campaigns in
//! `acc-bench` all reduce to the same shape: build a [`ClusterSpec`],
//! pick a workload, execute, read the result. [`RunRequest`] captures
//! that shape as a value, so a campaign can *describe* its whole run
//! matrix up front and hand the list to an executor — serial or
//! parallel — instead of interleaving description and execution.
//!
//! Each request is self-contained and owns its spec, so executing it
//! needs no shared state: the foundation of the deterministic parallel
//! executor (`acc-bench`'s `Executor`), which may run requests on any
//! worker thread in any order and still produce results indistinguishable
//! from a serial loop.

use acc_coll::{Algorithm, CollectiveOp};

use crate::cluster::{
    self, ClusterSpec, CollRunResult, FftRunResult, KeyDistribution, PartitionStrategy,
    ReduceRunResult, SortRunResult,
};
use crate::liveness::HangReport;

/// Which application a run executes, with its size parameters.
#[derive(Clone, Debug)]
pub enum Workload {
    /// The 2D FFT of Section 3.1 on an `rows × rows` matrix.
    Fft {
        /// Matrix dimension (rows == columns).
        rows: usize,
    },
    /// The integer sort of Section 3.2. The paper runs uniform keys
    /// with top-bits partitioning; the skew ablation varies both.
    Sort {
        /// Total keys across the cluster.
        total_keys: u64,
        /// Key distribution.
        distribution: KeyDistribution,
        /// Destination-rank assignment strategy.
        strategy: PartitionStrategy,
    },
    /// A flat AllReduce (sum) of one `elems`-element vector per node.
    AllReduce {
        /// Elements per node vector.
        elems: usize,
    },
    /// One collective through the engine with an explicit algorithm
    /// (the ablation axes: collective × algorithm × technology × p).
    Collective {
        /// Which collective.
        op: CollectiveOp,
        /// Which of its algorithms.
        algo: Algorithm,
        /// Elements per node vector.
        elems: usize,
    },
    /// The halo-exchange stencil workload (allreduce-heavy).
    Halo {
        /// Strip width per node, in elements.
        elems: usize,
        /// Stencil sweeps.
        iters: usize,
    },
}

/// One fully-described simulation run: spec + workload.
#[derive(Clone, Debug)]
pub struct RunRequest {
    /// The cluster to build.
    pub spec: ClusterSpec,
    /// The application to run on it.
    pub workload: Workload,
}

impl RunRequest {
    /// An FFT run.
    pub fn fft(spec: ClusterSpec, rows: usize) -> RunRequest {
        RunRequest {
            spec,
            workload: Workload::Fft { rows },
        }
    }

    /// A sort run with the paper's key configuration: uniform keys,
    /// top-bits partitioning.
    pub fn sort(spec: ClusterSpec, total_keys: u64) -> RunRequest {
        use crate::cluster::{KeyDistribution::Uniform, PartitionStrategy::TopBits};
        RunRequest::sort_custom(spec, total_keys, Uniform, TopBits)
    }

    /// A sort run with explicit distribution and partitioning.
    pub fn sort_custom(
        spec: ClusterSpec,
        total_keys: u64,
        distribution: KeyDistribution,
        strategy: PartitionStrategy,
    ) -> RunRequest {
        RunRequest {
            spec,
            workload: Workload::Sort {
                total_keys,
                distribution,
                strategy,
            },
        }
    }

    /// An AllReduce run.
    pub fn allreduce(spec: ClusterSpec, elems: usize) -> RunRequest {
        RunRequest {
            spec,
            workload: Workload::AllReduce { elems },
        }
    }

    /// A collective-engine run with an explicit algorithm.
    pub fn collective(
        spec: ClusterSpec,
        op: CollectiveOp,
        algo: Algorithm,
        elems: usize,
    ) -> RunRequest {
        RunRequest {
            spec,
            workload: Workload::Collective { op, algo, elems },
        }
    }

    /// A halo-exchange run.
    pub fn halo(spec: ClusterSpec, elems: usize, iters: usize) -> RunRequest {
        RunRequest {
            spec,
            workload: Workload::Halo { elems, iters },
        }
    }

    /// Execute the run to completion — the one way to run a workload.
    /// A run that fails to terminate comes back as [`RunOutcome::Hung`]
    /// with the structured hang diagnosis, not a panic or a livelock.
    ///
    /// # Panics
    /// Panics on a malformed request (an FFT edge not a power of two or
    /// not divisible by P, an unsupported collective cell, an offload
    /// past the card's CLB budget) and on an oracle mismatch.
    pub fn execute(self) -> RunOutcome {
        let spec = &self.spec;
        let result = match self.workload {
            Workload::Fft { rows } => cluster::fft(spec, rows).map(RunOutcome::Fft),
            Workload::Sort {
                total_keys,
                distribution,
                strategy,
            } => cluster::sort(spec, total_keys, distribution, strategy).map(RunOutcome::Sort),
            Workload::AllReduce { elems } => {
                let op = CollectiveOp::AllReduce;
                let algo = cluster::select_algorithm(spec.technology, op, spec.p, elems);
                cluster::collective(spec, op, algo, elems).map(|r| {
                    RunOutcome::Reduce(ReduceRunResult {
                        total: r.total,
                        comm: r.comm,
                        reduce: r.compute,
                        verified: r.verified,
                    })
                })
            }
            Workload::Collective { op, algo, elems } => {
                cluster::collective(spec, op, algo, elems).map(RunOutcome::Coll)
            }
            Workload::Halo { elems, iters } => {
                cluster::halo(spec, elems, iters).map(RunOutcome::Coll)
            }
        };
        result.unwrap_or_else(RunOutcome::Hung)
    }
}

/// The result of an executed [`RunRequest`], one variant per workload
/// family.
#[derive(Clone, Debug)]
pub enum RunOutcome {
    /// Result of an FFT run.
    Fft(FftRunResult),
    /// Result of a sort run (default or custom).
    Sort(SortRunResult),
    /// Result of an AllReduce run.
    Reduce(ReduceRunResult),
    /// Result of a collective-engine or halo run.
    Coll(CollRunResult),
    /// The run failed to terminate; the report names the stuck phase
    /// and rank.
    Hung(Box<HangReport>),
}

impl RunOutcome {
    /// Wall time of the run, whatever its workload.
    ///
    /// # Panics
    /// Panics on a hung run — a hang has no wall time, and silently
    /// returning one would corrupt whatever figure asked.
    pub fn total(&self) -> acc_sim::SimDuration {
        match self {
            RunOutcome::Fft(r) => r.total,
            RunOutcome::Sort(r) => r.total,
            RunOutcome::Reduce(r) => r.total,
            RunOutcome::Coll(r) => r.total,
            RunOutcome::Hung(report) => panic!("run hung, no wall time\n{report}"),
        }
    }

    /// Whether the run's output verified against its serial oracle.
    /// A hung run verified nothing.
    pub fn verified(&self) -> bool {
        match self {
            RunOutcome::Fft(r) => r.verified,
            RunOutcome::Sort(r) => r.verified,
            RunOutcome::Reduce(r) => r.verified,
            RunOutcome::Coll(r) => r.verified,
            RunOutcome::Hung(_) => false,
        }
    }

    /// Whether the run hung.
    pub fn is_hung(&self) -> bool {
        matches!(self, RunOutcome::Hung(_))
    }

    /// The hang report, if the run hung.
    pub fn hang(&self) -> Option<&HangReport> {
        match self {
            RunOutcome::Hung(report) => Some(report),
            _ => None,
        }
    }

    /// The FFT result.
    ///
    /// # Panics
    /// Panics if the run hung (`"FFT run hung"` and the report) or
    /// is not an FFT run.
    pub fn into_fft(self) -> FftRunResult {
        match self {
            RunOutcome::Fft(r) => r,
            RunOutcome::Hung(report) => panic!("FFT run hung\n{report}"),
            other => panic!("expected an FFT outcome, got {other:?}"),
        }
    }

    /// The sort result.
    ///
    /// # Panics
    /// Panics if the run hung (`"sort run hung"` and the report) or
    /// is not a sort run.
    pub fn into_sort(self) -> SortRunResult {
        match self {
            RunOutcome::Sort(r) => r,
            RunOutcome::Hung(report) => panic!("sort run hung\n{report}"),
            other => panic!("expected a sort outcome, got {other:?}"),
        }
    }

    /// The AllReduce result.
    ///
    /// # Panics
    /// Panics if the run hung (`"AllReduce run hung"` and the report) or
    /// is not an AllReduce run.
    pub fn into_reduce(self) -> ReduceRunResult {
        match self {
            RunOutcome::Reduce(r) => r,
            RunOutcome::Hung(report) => panic!("AllReduce run hung\n{report}"),
            other => panic!("expected an AllReduce outcome, got {other:?}"),
        }
    }

    /// The collective-engine result.
    ///
    /// # Panics
    /// Panics if the run hung (`"collective run hung"` and the report)
    /// or is not a collective or halo run.
    pub fn into_coll(self) -> CollRunResult {
        match self {
            RunOutcome::Coll(r) => r,
            RunOutcome::Hung(report) => panic!("collective run hung\n{report}"),
            other => panic!("expected a collective outcome, got {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Technology;

    #[test]
    fn sort_request_fills_in_the_papers_key_configuration() {
        let req = RunRequest::sort(ClusterSpec::new(2, Technology::InicIdeal), 1 << 10);
        assert!(matches!(
            req.workload,
            Workload::Sort {
                distribution: KeyDistribution::Uniform,
                strategy: PartitionStrategy::TopBits,
                ..
            }
        ));
        assert!(req.execute().into_sort().verified);
    }

    #[test]
    fn outcome_accessors_route_by_workload() {
        let fft = RunRequest::fft(ClusterSpec::new(2, Technology::InicIdeal), 16).execute();
        assert!(matches!(fft, RunOutcome::Fft(_)));
        assert!(fft.verified());
        assert!(fft.total() > acc_sim::SimDuration::ZERO);
        let reduce =
            RunRequest::allreduce(ClusterSpec::new(2, Technology::GigabitTcp), 64).execute();
        assert!(reduce.verified());
        reduce.into_reduce();
    }

    #[test]
    #[should_panic(expected = "expected a sort outcome")]
    fn wrong_accessor_panics() {
        RunRequest::fft(ClusterSpec::new(2, Technology::InicIdeal), 16)
            .execute()
            .into_sort();
    }
}
