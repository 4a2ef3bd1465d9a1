//! The card's wire-form operators against their `f64` references, over
//! random stream cuts: the `ReduceSum` fold leaves exactly the bits of
//! the `acc[i] += x` accumulation from `vec![0.0; n]` (signed zeros
//! included; a NaN stays a NaN), and the record walker sees every
//! record of a stream once, in order, wherever the stream was cut.

use acc_fpga::ops::{for_each_record, reduce_sum_wire};

/// Minimal splitmix64 stream for generating test cases.
struct Gen(u64);

impl Gen {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Mostly signed zeros and small values, with NaNs, infinities and
    /// arbitrary bit patterns mixed in.
    fn value(&mut self) -> f64 {
        match self.below(8) {
            0 => 0.0,
            1 => -0.0,
            2 => f64::from_bits(self.next_u64()),
            3 => [f64::INFINITY, f64::NEG_INFINITY, f64::NAN][self.below(3) as usize],
            _ => (self.below(1 << 20) as f64 - (1 << 19) as f64) / 64.0,
        }
    }

    /// `bytes` cut at random points into consecutive segments, empty
    /// ones included.
    fn cuts<'a>(&mut self, bytes: &'a [u8]) -> Vec<&'a [u8]> {
        let mut out = Vec::new();
        let mut at = 0usize;
        while at < bytes.len() {
            let n = (self.below(40) as usize).min(bytes.len() - at);
            out.push(&bytes[at..at + n]);
            at += n;
        }
        if self.below(2) == 0 {
            out.push(&[]);
        }
        out
    }
}

fn encode(v: &[f64]) -> Vec<u8> {
    v.iter().flat_map(|x| x.to_le_bytes()).collect()
}

#[test]
fn reduce_fold_matches_the_f64_accumulation() {
    let mut g = Gen(0xF01D);
    for case in 0..256 {
        let elems = g.below(48) as usize;
        let sources = 1 + g.below(4) as usize;
        let vectors: Vec<Vec<f64>> = (0..sources)
            .map(|_| (0..elems).map(|_| g.value()).collect())
            .collect();
        // The reference: the card's accumulator before it went wire-form.
        let mut acc = vec![0.0f64; elems];
        for v in &vectors {
            for (a, x) in acc.iter_mut().zip(v) {
                *a += x;
            }
        }
        let mut out = vec![0u8; elems * 8];
        for v in &vectors {
            let wire = encode(v);
            reduce_sum_wire(&mut out, &g.cuts(&wire));
        }
        for (i, (got, want)) in out.chunks_exact(8).zip(&acc).enumerate() {
            let got = f64::from_le_bytes(got.try_into().expect("8-byte element"));
            // Rust leaves the payload of a NaN result unspecified (the
            // optimizer may commute an add), so a NaN need only be a
            // NaN; every other result must match bit for bit, signed
            // zeros included.
            assert!(
                got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                "case {case}: element {i} of {sources} x {elems}: {got:?} vs {want:?}"
            );
        }
    }
}

#[test]
fn a_negative_zero_sum_folds_to_positive_zero() {
    // +0.0 + -0.0 = +0.0: the fold starts from +0.0 exactly as the
    // accumulator did, so an all-negative-zero input stays +0.0.
    let mut out = vec![0u8; 8];
    reduce_sum_wire(&mut out, &[(-0.0f64).to_le_bytes()]);
    assert_eq!(out, 0.0f64.to_le_bytes());
}

#[test]
#[should_panic(expected = "reduce stream length mismatch")]
fn reduce_fold_rejects_a_short_stream() {
    reduce_sum_wire(&mut [0u8; 16], &[[0u8; 8]]);
}

#[test]
fn records_survive_any_cut() {
    let mut g = Gen(0xC075);
    for _ in 0..256 {
        let n = g.below(64) as usize;
        let bytes: Vec<u8> = (0..n * 4).map(|_| g.next_u64() as u8).collect();
        let mut seen = Vec::new();
        for_each_record::<4, _>(&g.cuts(&bytes), |r| seen.extend_from_slice(&r));
        assert_eq!(seen, bytes);
    }
}

#[test]
#[should_panic(expected = "stream ends inside a 8-byte record")]
fn a_torn_record_is_rejected() {
    for_each_record::<8, _>(&[[0u8; 12]], |_| {});
}
