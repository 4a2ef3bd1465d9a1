//! Streaming dataflow operators and their resource costs.
//!
//! A bitstream is a set of operators wired into the datapath (Figs. 2(b),
//! 3(b), 7 of the paper all draw exactly these blocks: FIFOs, packetize/
//! de-packetize, a local transpose or bucket sort, and a permutation
//! memory). Each operator costs CLBs — the scarce resource that forced
//! the prototype's two-phase bucket sort — and sustains a streaming rate.

use acc_sim::Bandwidth;

/// The operator vocabulary of the paper's datapath diagrams.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum OperatorKind {
    /// Rate-decoupling FIFO between stages.
    Fifo,
    /// Cut an outgoing stream into wire packets and add headers.
    Packetize,
    /// Strip headers and reassemble an incoming stream.
    Depacketize,
    /// Transpose M×M blocks of 16-byte elements on the fly (FFT send
    /// side, Fig. 2(b) top).
    LocalTranspose {
        /// Block edge length.
        m: usize,
    },
    /// Interleave received blocks into the output slab via the
    /// permutation memory (FFT receive side, Fig. 2(b) bottom).
    InterleaveBlocks {
        /// Block edge length.
        m: usize,
    },
    /// Distribute 32-bit keys into `k` buckets by top bits (integer
    /// sort, Fig. 3(b)); `k` drives the CLB cost — the full receive-side
    /// sort needs ≥128 buckets, which the 4085XLA cannot hold.
    BucketSort {
        /// Bucket count (power of two).
        k: usize,
    },
    /// Element-wise sum of incoming f64 streams into an accumulator in
    /// INIC memory — the collective-operations extension the paper's
    /// summary points at ("the potential to accelerate functions
    /// ranging from collective operations to MPI derived data types").
    ReduceSum,
    /// Steer the per-destination wire streams of a collective schedule:
    /// a `ways`-entry destination table, per-way stream state and the
    /// header mux that interleaves outgoing unicast segments. `ways`
    /// drives the CLB cost, so wide fan-outs are charged against the
    /// device like wide bucket sorters are.
    StreamRouter {
        /// Peer fan-out the router is synthesized for.
        ways: usize,
    },
    /// Identity (protocol-processor mode).
    Passthrough,
}

/// An operator instance with its resource and performance envelope.
#[derive(Clone, Copy, Debug)]
pub struct OperatorSpec {
    /// What it does.
    pub kind: OperatorKind,
    /// Configurable-logic-block cost on the device.
    pub clbs: u32,
    /// Sustained streaming rate through the operator.
    pub rate: Bandwidth,
}

impl OperatorKind {
    /// Default synthesis result for this operator on the 4085XLA-class
    /// parts the prototype uses. CLB counts follow the structure of each
    /// block: the bucket sorter needs a comparator tree, a bucket-state
    /// table and `k` packet builders, so it scales with `k`; transpose
    /// and interleave are address-generator dominated.
    pub fn spec(self) -> OperatorSpec {
        let (clbs, rate_mib) = match self {
            OperatorKind::Fifo => (60, 400),
            OperatorKind::Packetize => (120, 400),
            OperatorKind::Depacketize => (120, 400),
            OperatorKind::LocalTranspose { m } => (250 + (m as u32) / 8, 300),
            OperatorKind::InterleaveBlocks { m } => (250 + (m as u32) / 8, 300),
            OperatorKind::BucketSort { k } => {
                assert!(
                    k.is_power_of_two() && k >= 2,
                    "bucket operator needs power-of-two k"
                );
                (180 + 24 * k as u32, 350)
            }
            // A double-precision accumulator pipeline: wide adder plus
            // accumulator addressing.
            OperatorKind::ReduceSum => (420, 250),
            // Destination table + per-way stream registers + header mux:
            // linear in the fan-out, like the bucket sorter's builders.
            OperatorKind::StreamRouter { ways } => {
                assert!(ways >= 1, "stream router needs at least one way");
                (100 + 28 * ways as u32, 400)
            }
            OperatorKind::Passthrough => (10, 1000),
        };
        OperatorSpec {
            kind: self,
            clbs,
            rate: Bandwidth::from_mib_per_sec(rate_mib),
        }
    }
}

/// Visit the `W`-byte records of a stream cut into `segments` of any
/// lengths, in stream order. A record split by a cut is joined in a
/// `W`-byte carry; every other record is read in place.
///
/// # Panics
/// Panics if the stream ends inside a record.
pub fn for_each_record<const W: usize, S: AsRef<[u8]>>(segments: &[S], mut f: impl FnMut([u8; W])) {
    let mut carry = [0u8; W];
    let mut have = 0usize;
    for seg in segments {
        let mut seg = seg.as_ref();
        if have > 0 {
            let n = (W - have).min(seg.len());
            carry[have..have + n].copy_from_slice(&seg[..n]);
            have += n;
            seg = &seg[n..];
            if have < W {
                continue;
            }
            f(carry);
        }
        let mut records = seg.chunks_exact(W);
        for r in &mut records {
            f(r.try_into().expect("chunks_exact yields W-byte records"));
        }
        let rest = records.remainder();
        carry[..rest.len()].copy_from_slice(rest);
        have = rest.len();
    }
    assert_eq!(have, 0, "stream ends inside a {W}-byte record");
}

/// The [`OperatorKind::ReduceSum`] datapath on wire bytes: add one
/// source's stream of little-endian f64s, cut into `segments` of any
/// lengths, element-wise into `acc` (little-endian f64s, as long as the
/// stream). Each element is one `acc + x` in f64, so a fold over zeroed
/// bytes (+0.0) gives the bits of `acc[i] += x` on a `vec![0.0; n]`.
///
/// # Panics
/// Panics if the stream and the accumulator differ in length.
pub fn reduce_sum_wire<S: AsRef<[u8]>>(acc: &mut [u8], segments: &[S]) {
    let total: usize = segments.iter().map(|s| s.as_ref().len()).sum();
    assert_eq!(total, acc.len(), "reduce stream length mismatch");
    let mut slots = acc.chunks_exact_mut(8);
    for_each_record::<8, S>(segments, |x| {
        let slot = slots.next().expect("stream length checked");
        let sum =
            f64::from_le_bytes((*slot).try_into().expect("8-byte slot")) + f64::from_le_bytes(x);
        slot.copy_from_slice(&sum.to_le_bytes());
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_sort_cost_scales_with_k() {
        let k16 = OperatorKind::BucketSort { k: 16 }.spec().clbs;
        let k128 = OperatorKind::BucketSort { k: 128 }.spec().clbs;
        assert!(k16 < k128);
        // 16 buckets fit a 4085XLA (3136 CLBs) with room for the
        // protocol blocks; 128 buckets alone exceed it.
        assert!(k16 < 1000);
        assert!(k128 > 3136);
    }

    #[test]
    fn transpose_cost_grows_slowly_with_block_size() {
        let m32 = OperatorKind::LocalTranspose { m: 32 }.spec().clbs;
        let m256 = OperatorKind::LocalTranspose { m: 256 }.spec().clbs;
        assert!(m256 > m32);
        assert!(m256 < 400, "transpose must stay cheap: {m256}");
    }

    #[test]
    fn stream_router_cost_scales_with_fanout() {
        let p16 = OperatorKind::StreamRouter { ways: 16 }.spec().clbs;
        let p128 = OperatorKind::StreamRouter { ways: 128 }.spec().clbs;
        assert!(p16 < p128);
        // A cluster-sized router leaves room for the protocol blocks on
        // the prototype part; a 128-way fan-out alone exceeds it.
        assert!(p16 < 1000);
        assert!(p128 > 3136);
    }

    #[test]
    fn rates_exceed_the_card_buses() {
        // Operators must not be the bottleneck on either card generation
        // (the paper's bottlenecks are the buses, not the logic).
        for kind in [
            OperatorKind::Fifo,
            OperatorKind::Packetize,
            OperatorKind::Depacketize,
            OperatorKind::LocalTranspose { m: 64 },
            OperatorKind::InterleaveBlocks { m: 64 },
            OperatorKind::BucketSort { k: 16 },
            OperatorKind::StreamRouter { ways: 16 },
        ] {
            let rate = kind.spec().rate;
            assert!(
                rate.bytes_per_sec() >= Bandwidth::from_mib_per_sec(150).bytes_per_sec(),
                "{kind:?} too slow"
            );
        }
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn bucket_operator_rejects_bad_k() {
        OperatorKind::BucketSort { k: 12 }.spec();
    }
}
