//! The frame check both wire codecs store in their 4-byte checksum
//! field: `inic_wire` over header bytes `[0..12)` plus data, `tcp` over
//! the populated header bytes `[0..23)` plus data.
//!
//! Each part is read as little-endian 32-bit words (a ragged tail is
//! zero-padded to a whole word) dealt round-robin to eight independent
//! lanes. Every lane update is one step `h = ((h ^ w) * ODD).rotl(ROT)`,
//! which is a bijection in `h` for fixed `w` and in `w` for fixed `h`.
//! The lanes are then folded through the same step, followed by each
//! part's length and a bijective finalizer. So a change confined to one
//! aligned 4-byte word of a part alters exactly one step input, that
//! lane's final value, the fold and the result — it is detected with
//! certainty. That covers every single-byte change, the guarantee the
//! byte-serial FNV-1a this replaced gave; changes spread over several
//! words escape only by a 32-bit collision.
//!
//! The lanes are independent, so the compiler keeps eight multiplies in
//! flight where FNV-1a waits on one per byte. On a 1036-byte INIC
//! packet (release build, 2-vCPU Xeon) the check takes 85–130 ns,
//! FNV-1a 1.07–1.27 µs, and a table-driven CRC-32 (slicing-by-8)
//! 540–580 ns — only about 2x faster than FNV-1a. CRC-32's burst
//! guarantees buy nothing here: the link model's corruption flips one
//! to three isolated bytes, and the per-word guarantee above already
//! covers a single flip.

const LANES: usize = 8;
const WORD: usize = 4;
const BLOCK: usize = LANES * WORD;

/// Odd multiplier (the 32-bit golden ratio), so multiplication is a
/// bijection mod 2^32.
const ODD: u32 = 0x9E37_79B1;

/// Rotation carrying the multiply's well-mixed high bits back down.
const ROT: u32 = 13;

/// Distinct lane seeds: the first eight primes' square-root fractions.
const SEEDS: [u32; LANES] = [
    0x6A09_E667,
    0xBB67_AE85,
    0x3C6E_F372,
    0xA54F_F53A,
    0x510E_527F,
    0x9B05_688C,
    0x1F83_D9AB,
    0x5BE0_CD19,
];

/// Seed of the fold over the lanes.
const FOLD_SEED: u32 = 0x811C_9DC5;

fn step(h: u32, w: u32) -> u32 {
    (h ^ w).wrapping_mul(ODD).rotate_left(ROT)
}

/// The frame check over `parts`, in order. Each part is word-aligned
/// from its own start and its length is folded in, so the same bytes
/// split differently check differently.
///
/// # Panics
/// Panics if a part is 4 GiB or longer (frames are at most 1500 bytes).
pub(crate) fn frame_check(parts: &[&[u8]]) -> u32 {
    let mut lanes = SEEDS;
    for part in parts {
        let mut blocks = part.chunks_exact(BLOCK);
        for block in &mut blocks {
            for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(WORD)) {
                let w = u32::from_le_bytes(word.try_into().expect("chunks_exact yields 4 bytes"));
                *lane = step(*lane, w);
            }
        }
        for (lane, word) in lanes.iter_mut().zip(blocks.remainder().chunks(WORD)) {
            let mut padded = [0u8; WORD];
            padded[..word.len()].copy_from_slice(word);
            *lane = step(*lane, u32::from_le_bytes(padded));
        }
    }
    let mut h = lanes.iter().fold(FOLD_SEED, |h, &lane| step(h, lane));
    for part in parts {
        h = step(
            h,
            u32::try_from(part.len()).expect("frame check part shorter than 4 GiB"),
        );
    }
    // murmur3's fmix32: xorshifts and odd multiplies, all bijective.
    h ^= h >> 16;
    h = h.wrapping_mul(0x85EB_CA6B);
    h ^= h >> 13;
    h = h.wrapping_mul(0xC2B2_AE35);
    h ^ (h >> 16)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn any_change_inside_one_word_is_detected() {
        // The guarantee is per word, not per byte: flip every pair of
        // bytes sharing a word, in whole blocks and in a ragged tail.
        let base: Vec<u8> = (0..=255u8).cycle().step_by(37).take(45).collect();
        let clean = frame_check(&[&base]);
        for i in 0..base.len() {
            for j in (i + 1)..base.len().min((i / WORD + 1) * WORD) {
                let mut bent = base.clone();
                bent[i] ^= 0x55;
                bent[j] ^= 0xAA;
                assert_ne!(frame_check(&[&bent]), clean, "bytes {i} and {j}");
            }
        }
    }

    #[test]
    fn lengths_and_part_boundaries_are_covered() {
        // Trailing zeros would pad to the same words without the
        // lengths in the finalizer.
        assert_ne!(frame_check(&[&[1, 2, 3]]), frame_check(&[&[1, 2, 3, 0]]));
        assert_ne!(frame_check(&[&[]]), frame_check(&[&[0]]));
        assert_ne!(
            frame_check(&[&[1, 2], &[3, 4]]),
            frame_check(&[&[1, 2, 3], &[4]])
        );
    }
}
