//! The wire-form payload functions of a schedule agree byte for byte
//! with the `f64` reference functions: `gather_wire` writes exactly the
//! little-endian bytes of `gather`, and `apply_recv_wire` leaves exactly
//! the state `apply_recv` leaves — for every op, over random range
//! lists, arbitrary bit patterns and signed zeros.

use std::ops::Range;

use acc_coll::plan::{RecvOp, RecvSpec, Schedule};

/// xorshift64: deterministic, seedable, no external deps.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// A value that is often a signed zero, sometimes a NaN or infinity.
    fn value(&mut self) -> f64 {
        match self.below(6) {
            0 => 0.0,
            1 => -0.0,
            2 => f64::from_bits(self.next()),
            _ => (self.next() >> 11) as f64 / (1u64 << 40) as f64 - 4096.0,
        }
    }

    /// Disjoint ranges of a `len`-element state in random order.
    fn ranges(&mut self, len: usize) -> Vec<Range<usize>> {
        let mut out = Vec::new();
        let mut at = 0usize;
        while at < len {
            let n = 1 + self.below(5);
            let end = (at + n).min(len);
            if self.below(3) != 0 {
                out.push(at..end);
            }
            at = end + self.below(3);
        }
        for i in (1..out.len()).rev() {
            let j = self.below(i + 1);
            out.swap(i, j);
        }
        out
    }
}

fn encode(v: &[f64]) -> Vec<u8> {
    v.iter().flat_map(|x| x.to_le_bytes()).collect()
}

/// Bit-for-bit equal, signed zeros included. Rust leaves the payload
/// of a NaN result unspecified (the optimizer may commute an add), so
/// a NaN need only meet a NaN.
fn same(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()))
}

#[test]
fn gather_wire_writes_the_le_bytes_of_gather() {
    let mut g = Rng(0x5EED_0001);
    for _ in 0..256 {
        let len = 1 + g.below(40);
        let state: Vec<f64> = (0..len).map(|_| g.value()).collect();
        let ranges = g.ranges(len);
        let mut got = vec![0x7F];
        Schedule::gather_wire(&ranges, &state, &mut got);
        assert_eq!(got[0], 0x7F, "appends after existing bytes");
        assert_eq!(&got[1..], &encode(&Schedule::gather(&ranges, &state))[..]);
    }
}

#[test]
fn apply_recv_wire_matches_apply_recv_for_every_op() {
    let mut g = Rng(0x5EED_0002);
    for case in 0..384 {
        let len = 1 + g.below(40);
        let state: Vec<f64> = (0..len).map(|_| g.value()).collect();
        let ranges = g.ranges(len);
        let elems: usize = ranges.iter().map(ExactSizeIterator::len).sum();
        let payload: Vec<f64> = (0..elems).map(|_| g.value()).collect();
        let op = [RecvOp::Sum, RecvOp::Copy, RecvOp::Discard][case % 3];
        let recv = RecvSpec {
            from: 1,
            ranges,
            op,
        };
        let mut expect = state.clone();
        Schedule::apply_recv(&recv, &payload, &mut expect);
        let mut got = state;
        Schedule::apply_recv_wire(&recv, &encode(&payload), &mut got);
        assert!(
            same(&got, &expect),
            "case {case} ({op:?}): {got:?} vs {expect:?}"
        );
    }
}

#[test]
#[should_panic(expected = "mis-sized payload")]
fn apply_recv_wire_rejects_a_torn_payload() {
    let recv = RecvSpec {
        from: 3,
        ranges: vec![0..1, 1..2],
        op: RecvOp::Copy,
    };
    Schedule::apply_recv_wire(&recv, &[0u8; 12], &mut [0.0; 2]);
}
