//! The integer-sort program — Section 3.2 on every network technology.
//!
//! Pipeline: bucket the local keys by destination rank, exchange
//! (bucket `i` goes to rank `i`), bucket the received keys into
//! cache-sized buckets, count-sort every bucket. Two stages: the key
//! exchange (`bucket1`, `exchange`), then `bucket2` and `count`. Where
//! each pass runs depends on the technology:
//!
//! * **commodity NIC** (Fig. 3(a)): both bucket passes on the host CPU;
//!   TCP carries length-prefixed key streams.
//! * **ideal INIC** (Fig. 3(b)): both bucket passes in the card
//!   datapath; the host only count-sorts cache-resident buckets.
//! * **prototype INIC** (Fig. 7): the 4085XLA only fits a 16-bucket
//!   sorter, so the card delivers 16 coarse buckets and the host runs a
//!   second bucket pass before count-sorting — "surprisingly, this can
//!   provide higher performance than having the host sort directly into
//!   16 × N buckets".
//!
//! Under rank-local recovery a dead rank degrades to
//! [`SortVariant::HostOnly`] over its fallback NIC while healthy ranks
//! keep the card, carrying the dead ranks' buckets as length-prefixed
//! TCP side streams next to the card exchange. The checkpoint after the
//! key exchange lets a later failure resume from it instead of re-running
//! it.

use acc_algos::sort::{
    bucket_index, bucket_sort, bytes_to_keys, count_sort, destination_by_splitters,
    destination_rank, is_sorted, keys_to_bytes,
};
use acc_fpga::{Bitstream, GatherKind, ScatterKind};
use acc_host::HostKernels;
use acc_sim::DataSize;

use super::{recv_buckets_for, ExchangeDone, ExchangePlan, LegLen, Program, Rank, Step};

/// How the receive-side bucketing is split between card and host.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SortVariant {
    /// Commodity NIC: host does everything.
    HostOnly,
    /// Ideal INIC: card buckets straight into the final `N` buckets.
    InicFull,
    /// Prototype INIC: card buckets into 16; host re-buckets into `N`.
    InicTwoPhase,
    /// INIC as a pure protocol processor: host does both bucket passes,
    /// the card only carries the lightweight protocol (mode ablation).
    ProtocolOnly,
}

/// The state after the key exchange: the checkpoint that lets a later
/// card failure resume from the exchange instead of re-running it.
#[derive(Clone)]
pub(crate) struct Exchanged {
    /// Card gather result (INIC variants).
    card: Option<(Vec<u8>, Vec<usize>)>,
    /// Keys held outside the card's gather.
    tcp: Vec<Vec<u32>>,
    /// The variant the exchange ran under — the data layout to resume
    /// with, even if this rank degraded afterwards (the remaining
    /// passes are pure host compute).
    variant: SortVariant,
}

/// One rank of the integer sort.
pub(crate) struct Sort {
    p: usize,
    kernels: HostKernels,
    keys: Vec<u32>,
    /// Optional range splitters for the destination partitioning (the
    /// pre-sort sampling extension for skewed keys); `None` = the
    /// paper's top-bits partitioning.
    splitters: Option<Vec<u32>>,
    /// Final cache-sized bucket count `N`.
    recv_buckets: usize,
    /// What the key exchange delivered. `tcp` holds the keys outside
    /// the card's gather: on the commodity path this rank's own bucket
    /// plus every peer's stream, on an INIC the mixed-technology side
    /// streams from degraded peers.
    got: Exchanged,
    sorted: Vec<u32>,
}

impl Sort {
    /// Rank program holding this rank's initial keys.
    pub(crate) fn new(
        p: usize,
        keys: Vec<u32>,
        variant: SortVariant,
        kernels: HostKernels,
    ) -> Sort {
        let recv_buckets = recv_buckets_for(keys.len() as u64);
        Sort {
            p,
            kernels,
            keys,
            splitters: None,
            recv_buckets,
            got: Exchanged {
                card: None,
                tcp: Vec::new(),
                variant,
            },
            sorted: Vec::new(),
        }
    }

    /// Use sampled range splitters instead of top-bits partitioning
    /// (builder style; must be the same table on every rank).
    #[must_use]
    pub(crate) fn with_splitters(mut self, splitters: Vec<u32>) -> Sort {
        assert_eq!(splitters.len() + 1, self.p, "need P-1 splitters");
        self.splitters = Some(splitters);
        self
    }

    /// This rank's sorted key range, once done.
    pub(crate) fn result(&self) -> &[u32] {
        &self.sorted
    }

    /// Distribute this node's keys to their destination ranks using the
    /// active partitioning (top bits or splitters).
    fn partition_keys(&self) -> Vec<Vec<u32>> {
        match &self.splitters {
            Some(sp) => {
                let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); self.p];
                for &k in &self.keys {
                    buckets[destination_by_splitters(k, sp)].push(k);
                }
                buckets
            }
            None if self.p == 1 => vec![self.keys.clone()],
            None => bucket_sort(&self.keys, self.p),
        }
    }

    /// On-card receive bucket count: the final N on the ideal card, 16
    /// on the prototype.
    fn card_recv_buckets(&self) -> usize {
        match self.got.variant {
            SortVariant::InicFull => self.recv_buckets,
            SortVariant::InicTwoPhase => 16,
            SortVariant::HostOnly | SortVariant::ProtocolOnly => unreachable!(),
        }
    }

    /// The key exchange: over TCP on the commodity path, riding the
    /// card's lightweight protocol in protocol-processor mode, or into
    /// the card's bucket datapath.
    fn key_exchange(&mut self, rank: &Rank) -> ExchangePlan {
        let (me, p) = (rank.rank, self.p);
        match self.got.variant {
            SortVariant::HostOnly => {
                let mut buckets = self.partition_keys();
                let peers = || (1..p).map(move |step| (me + step) % p);
                let plan = ExchangePlan {
                    sends: peers().map(|q| (q, key_stream(&buckets[q]))).collect(),
                    recvs: peers().map(|q| (q, LegLen::Prefixed)).collect(),
                    ..ExchangePlan::default()
                };
                // Our own bucket stays home.
                self.got.tcp.push(std::mem::take(&mut buckets[me]));
                plan
            }
            SortVariant::ProtocolOnly => {
                let buckets = self.partition_keys();
                let mut parts = vec![0usize; p];
                let mut data = Vec::with_capacity(self.keys.len() * 4);
                for step in 0..p {
                    let q = (me + step) % p;
                    parts[q] = buckets[q].len() * 4;
                    data.extend(keys_to_bytes(&buckets[q]));
                }
                ExchangePlan {
                    gather: Some((GatherKind::Raw, (0..p as u32).map(|s| (s, None)).collect())),
                    scatter: Some((ScatterKind::Raw { parts }, data)),
                    ..ExchangePlan::default()
                }
            }
            // The card does phase 1: hand the raw keys straight over.
            SortVariant::InicFull | SortVariant::InicTwoPhase => {
                let dead = &rank.dead;
                // Mixed-technology side streams: the card drops chunks
                // destined to dead peers, so the host carries those
                // buckets over the fallback TCP path instead.
                let buckets = if dead.is_empty() {
                    Vec::new()
                } else {
                    self.partition_keys()
                };
                ExchangePlan {
                    gather: Some((
                        GatherKind::BucketKeys {
                            k: self.card_recv_buckets(),
                        },
                        (0..p as u32)
                            .filter(|s| !dead.contains(&(*s as usize)))
                            .map(|s| (s, None))
                            .collect(),
                    )),
                    scatter: Some((
                        ScatterKind::BucketKeys {
                            p,
                            splitters: self.splitters.clone(),
                        },
                        keys_to_bytes(&self.keys),
                    )),
                    sends: dead.iter().map(|&d| (d, key_stream(&buckets[d]))).collect(),
                    recvs: dead.iter().map(|&d| (d, LegLen::Prefixed)).collect(),
                    ..ExchangePlan::default()
                }
            }
        }
    }

    /// The host's phase-2 bucket pass (commodity; also the prototype's
    /// second phase, after the card's 16 buckets).
    fn bucket2(&self) -> Step {
        let card_keys = self
            .got
            .card
            .as_ref()
            .map_or(0, |(data, _)| (data.len() / 4) as u64);
        let n_keys = card_keys + self.got.tcp.iter().map(|v| v.len() as u64).sum::<u64>();
        let working = DataSize::from_bytes(n_keys * 4);
        Step::Charge {
            phase: "bucket2",
            time: self.kernels.bucket_sort_time(n_keys, working),
        }
    }

    /// The final count sort (all variants).
    fn count(&mut self, rank: &Rank) -> Step {
        // Assemble the node's keys grouped into N cache-sized buckets.
        let card = self.got.card.take();
        let grouped: Vec<Vec<u32>> = if self.got.variant == SortVariant::InicFull {
            let (data, bounds) = card.expect("gather data");
            let keys = bytes_to_keys(&data);
            let mut out = Vec::with_capacity(bounds.len());
            let mut start = 0usize;
            for &end in &bounds {
                out.push(keys[start / 4..end / 4].to_vec());
                start = end;
            }
            // Mixed-technology keys arrive unbucketed; sprinkle them
            // into the card's buckets (order within a bucket is
            // irrelevant — count-sort sorts each fully).
            for keys in &self.got.tcp {
                for &k in keys {
                    out[bucket_index(k, self.recv_buckets)].push(k);
                }
            }
            out
        } else {
            let mut all = card.map_or_else(Vec::new, |(data, _)| bytes_to_keys(&data));
            all.reserve_exact(self.got.tcp.iter().map(Vec::len).sum());
            for keys in &self.got.tcp {
                all.extend_from_slice(keys);
            }
            bucket_sort_into_n(&all, self.recv_buckets)
        };
        let n_keys: u64 = grouped.iter().map(|b| b.len() as u64).sum();
        let bucket_bytes = DataSize::from_bytes((n_keys * 4 / self.recv_buckets as u64).max(1));
        // The real sort.
        let mut sorted = Vec::with_capacity(n_keys as usize);
        for b in grouped {
            sorted.extend(count_sort(&b));
        }
        debug_assert!(is_sorted(&sorted));
        // Every key we hold belongs to this rank.
        debug_assert!(match &self.splitters {
            Some(sp) => sorted
                .iter()
                .all(|&k| destination_by_splitters(k, sp) == rank.rank),
            None =>
                self.p == 1
                    || sorted
                        .iter()
                        .all(|&k| destination_rank(k, self.p) == rank.rank),
        });
        self.sorted = sorted;
        Step::Charge {
            phase: "count",
            time: self.kernels.count_sort_time(n_keys, bucket_bytes),
        }
    }
}

/// A key stream with its 8-byte length prefix: the receiver learns
/// each sender's (data-dependent) total from the first 8 bytes.
fn key_stream(keys: &[u32]) -> Vec<u8> {
    let body = keys_to_bytes(keys);
    let mut data = (body.len() as u64).to_le_bytes().to_vec();
    data.extend_from_slice(&body);
    data
}

/// Group keys into `n` buckets by top bits, preserving order (the
/// host-side phase-2 pass, shared by the commodity and prototype paths).
fn bucket_sort_into_n(keys: &[u32], n: usize) -> Vec<Vec<u32>> {
    let mut buckets: Vec<Vec<u32>> = vec![Vec::new(); n];
    for &k in keys {
        buckets[bucket_index(k, n)].push(k);
    }
    buckets
}

impl Program for Sort {
    type Snapshot = Exchanged;
    const NAME: &'static str = "sort-driver";

    fn stages(&self) -> usize {
        2
    }

    /// One exchange: the key exchange.
    fn exchanges(&self) -> usize {
        1
    }

    fn bitstream(&self, _rank: &Rank) -> Bitstream {
        match self.got.variant {
            SortVariant::ProtocolOnly => Bitstream::protocol_only(),
            _ => {
                let send_k = self.p.next_power_of_two().max(2);
                Bitstream::int_sort(send_k.max(16), self.card_recv_buckets())
            }
        }
    }

    /// Each stage may open with a host bucket pass: the first unless the
    /// card buckets by destination, the second unless the card already
    /// delivered the final buckets.
    fn step(&mut self, rank: &Rank, stage: usize, step: usize) -> Option<Step> {
        let variant = self.got.variant;
        let host_pass = match stage {
            0 => matches!(variant, SortVariant::HostOnly | SortVariant::ProtocolOnly),
            _ => variant != SortVariant::InicFull,
        };
        match (stage, step, host_pass) {
            (0, 0, true) => Some(Step::Charge {
                phase: "bucket1",
                time: self.kernels.bucket_sort_time(
                    self.keys.len() as u64,
                    DataSize::from_bytes(self.keys.len() as u64 * 4),
                ),
            }),
            (0, 0, false) | (0, 1, true) => Some(Step::Exchange {
                phase: "exchange",
                plan: self.key_exchange(rank),
            }),
            (1, 0, true) => Some(self.bucket2()),
            (1, 0, false) | (1, 1, true) => Some(self.count(rank)),
            _ => None,
        }
    }

    /// Keep the card's buckets and the TCP streams.
    fn on_exchange(&mut self, _rank: &Rank, done: ExchangeDone) {
        self.got.card = done.gather.map(|g| {
            let bounds = g.bucket_bounds.expect("bucket/raw gather carries bounds");
            (g.data, bounds)
        });
        let legs = done.legs.into_iter().map(|(_, body)| bytes_to_keys(&body));
        self.got.tcp.extend(legs);
    }

    fn snapshot(&self) -> Exchanged {
        self.got.clone()
    }

    /// From scratch the input keys are untouched; a rank that lost its
    /// card re-runs over the host-only path. A checkpoint resumes under
    /// its own variant: it names the data layout, and the remaining
    /// passes are pure host compute even if this rank has since lost its
    /// card.
    fn restore(&mut self, rank: &Rank, snapshot: Option<Exchanged>) {
        match snapshot {
            Some(got) => self.got = got,
            None => {
                self.got.card = None;
                self.got.tcp.clear();
                if rank.failed_over {
                    self.got.variant = SortVariant::HostOnly;
                }
            }
        }
    }
}
