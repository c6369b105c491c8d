//! CRC-32 (IEEE 802.3 polynomial, the one gzip uses), implemented from
//! scratch. Uses the slice-by-16 technique: sixteen 256-entry lookup
//! tables let the hot loop fold 16 input bytes per iteration instead of
//! one. Each step still waits on the one before it, so from
//! [`LANES_FROM`] bytes up the input is cut into four lanes stepped in one
//! loop — four independent dependency chains — and the lane crcs are
//! merged by carry-less multiplication modulo the polynomial, zlib's
//! `crc32_combine` math. The transfer layer checksums every wire payload
//! twice (put + get), so this is on the critical path of the
//! integrity-verified offload. The polynomial is unchanged from the
//! earlier slice-by-8 build, so every stored crc and the wire-crc ledger
//! stay valid.

use std::sync::OnceLock;

const POLY: u32 = 0xEDB8_8320;

/// Inputs from this length up run in four lanes; shorter ones keep the
/// one-lane loop and skip the merge's few 32-step multiplications. At
/// 4 KiB the lanes already read about twice the one-lane speed.
const LANES_FROM: usize = 4096;

fn tables() -> &'static [[u32; 256]; 16] {
    static TABLES: OnceLock<[[u32; 256]; 16]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 16];
        for (i, entry) in t[0].iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
            *entry = crc;
        }
        for k in 1..16 {
            for i in 0..256usize {
                let prev = t[k - 1][i];
                t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            }
        }
        t
    })
}

/// `a · b` modulo the polynomial, both in the reflected bit order of the
/// crc register (bit 31 is x^0).
fn multiply(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    for bit in (0..32).rev() {
        product ^= b & (a >> bit & 1).wrapping_neg();
        b = (b >> 1) ^ (POLY & (b & 1).wrapping_neg());
    }
    product
}

/// x^(2^k) modulo the polynomial for every `k` a bit count of a `u64`
/// can hold.
fn powers() -> &'static [u32; 64] {
    static POWERS: OnceLock<[u32; 64]> = OnceLock::new();
    POWERS.get_or_init(|| {
        // x^1.
        let mut p = 1 << 30;
        std::array::from_fn(|_| {
            let this = p;
            p = multiply(p, p);
            this
        })
    })
}

/// x^(8 · `len`) modulo the polynomial: the factor that moves a crc past
/// `len` bytes. For any byte strings `a` and `b`,
/// `crc32(a ‖ b) == multiply(past(b.len()), crc32(a)) ^ crc32(b)`.
fn past(len: usize) -> u32 {
    let bits = len as u64 * 8;
    powers()
        .iter()
        .enumerate()
        .filter(|&(k, _)| bits >> k & 1 != 0)
        // x^0.
        .fold(1 << 31, |x, (_, &power)| multiply(power, x))
}

/// One slice-by-16 step: the register `crc` after the 16 bytes `chunk`.
#[inline(always)]
fn step(t: &[[u32; 256]; 16], crc: u32, chunk: &[u8; 16]) -> u32 {
    let word = |at: usize| u32::from_le_bytes(chunk[at..at + 4].try_into().expect("4 bytes"));
    let (a, b, c, d) = (word(0) ^ crc, word(4), word(8), word(12));
    t[15][(a & 0xFF) as usize]
        ^ t[14][((a >> 8) & 0xFF) as usize]
        ^ t[13][((a >> 16) & 0xFF) as usize]
        ^ t[12][(a >> 24) as usize]
        ^ t[11][(b & 0xFF) as usize]
        ^ t[10][((b >> 8) & 0xFF) as usize]
        ^ t[9][((b >> 16) & 0xFF) as usize]
        ^ t[8][(b >> 24) as usize]
        ^ t[7][(c & 0xFF) as usize]
        ^ t[6][((c >> 8) & 0xFF) as usize]
        ^ t[5][((c >> 16) & 0xFF) as usize]
        ^ t[4][(c >> 24) as usize]
        ^ t[3][(d & 0xFF) as usize]
        ^ t[2][((d >> 8) & 0xFF) as usize]
        ^ t[1][((d >> 16) & 0xFF) as usize]
        ^ t[0][(d >> 24) as usize]
}

/// Compute the CRC-32 checksum of `data`.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_append(0, data)
}

/// Continue a checksum: given `crc`, the CRC-32 of the bytes so far (0 for
/// none), return the CRC-32 of those bytes followed by `data` — zlib's
/// `crc32(crc, buf, len)`. However a payload is split over calls, the
/// result equals [`crc32`] of the whole, so a caller holding a buffer in
/// another form (typed elements) can checksum it through a bounded
/// scratch instead of serializing all of it first.
pub fn crc32_append(crc: u32, data: &[u8]) -> u32 {
    let t = tables();
    let mut crc = !crc;
    let mut rest = data;
    if data.len() >= LANES_FROM {
        // Four lanes of as many whole 16-byte steps; what is left over goes
        // to the one-lane loop below. Lanes 1–3 start from a zero register:
        // the merge carries lane 0's start through.
        let steps = data.as_chunks::<16>().0;
        let lane = steps.len() / 4;
        let [a, b, c, d] = std::array::from_fn(|k| &steps[k * lane..(k + 1) * lane]);
        // Four named registers, not an array of them, stay in registers.
        let (mut r0, mut r1, mut r2, mut r3) = (crc, 0, 0, 0);
        for (((a, b), c), d) in a.iter().zip(b).zip(c).zip(d) {
            r0 = step(t, r0, a);
            r1 = step(t, r1, b);
            r2 = step(t, r2, c);
            r3 = step(t, r3, d);
        }
        let x = past(16 * lane);
        crc = multiply(multiply(multiply(r0, x) ^ r1, x) ^ r2, x) ^ r3;
        rest = &data[64 * lane..];
    }
    let (chunks, bytes) = rest.as_chunks::<16>();
    for chunk in chunks {
        crc = step(t, crc, chunk);
    }
    for &byte in bytes {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The textbook one-byte-per-step form the sliced implementation must
    /// agree with.
    fn crc32_reference(data: &[u8]) -> u32 {
        let t = tables();
        let mut crc = !0u32;
        for &byte in data {
            crc = (crc >> 8) ^ t[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
        }
        !crc
    }

    proptest! {
        /// Slice-by-16 crc32 equals the bytewise reference on random lengths
        /// and alignments, including every 0..=15 tail after the 16-byte loop.
        #[test]
        fn sliced_equals_reference(
            data in proptest::collection::vec(any::<u8>(), 0..4096),
            offset in 0usize..16,
        ) {
            let s = &data[offset.min(data.len())..];
            prop_assert_eq!(crc32(s), crc32_reference(s));
            for tail in 0..16usize.min(s.len()) {
                let t = &s[..s.len() - tail];
                prop_assert_eq!(crc32(t), crc32_reference(t));
            }
        }
    }

    /// `len` bytes of a seeded stream: varied enough that any lane mixed
    /// into another shows.
    fn bytes(len: usize, seed: u64) -> Vec<u8> {
        let mut x = seed | 1;
        (0..len)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 56) as u8
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Up to 256 KiB — most of it through the four-lane loop — cut at
        /// random into `crc32_append` pieces, small and large, equals the
        /// bytewise reference over the whole.
        #[test]
        fn lanes_and_pieces_equal_reference(
            len in 0usize..256 * 1024 + 1,
            seed in any::<u64>(),
            cuts in proptest::collection::vec(0.0f64..1.0, 0..6),
        ) {
            let data = bytes(len, seed);
            let mut at: Vec<usize> = cuts.iter().map(|&c| (c * len as f64) as usize).collect();
            at.sort_unstable();
            let mut crc = 0;
            let mut from = 0;
            for to in at.into_iter().chain([len]) {
                crc = crc32_append(crc, &data[from..to]);
                from = to;
            }
            let want = crc32_reference(&data);
            prop_assert_eq!(crc, want);
            prop_assert_eq!(crc32(&data), want);
        }
    }

    /// The law the lane merge rests on: the crc of `a ‖ b` from the crcs of
    /// `a` and `b` and the length of `b` alone.
    #[test]
    fn crc_of_a_concatenation_from_its_parts() {
        for (len_a, len_b) in [
            (0, 0),
            (0, 5),
            (7, 0),
            (1, 1),
            (13, 4095),
            (5000, 64),
            (70_000, 9_999),
        ] {
            let a = bytes(len_a, 3);
            let b = bytes(len_b, 4);
            let whole = [&a[..], &b[..]].concat();
            let merged = multiply(past(b.len()), crc32(&a)) ^ crc32(&b);
            assert_eq!(merged, crc32_reference(&whole), "{len_a} + {len_b}");
        }
        // Past 2^k bytes is x^(2^(k + 3)), entry k + 3 of the table.
        assert_eq!(past(1), powers()[3]);
        assert_eq!(past(1 << 20), powers()[23]);
    }

    #[test]
    fn known_vectors() {
        // Reference values from the gzip/zlib CRC-32.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        assert_eq!(crc32_reference(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn sliced_matches_bytewise_at_every_alignment() {
        let data: Vec<u8> = (0..1037u32).map(|i| (i * 31 % 251) as u8).collect();
        for start in 0..17 {
            for end in [
                start,
                start + 1,
                start + 7,
                start + 8,
                start + 15,
                start + 16,
                start + 17,
                data.len(),
            ] {
                let s = &data[start..end];
                assert_eq!(crc32(s), crc32_reference(s), "slice {start}..{end}");
            }
        }
    }

    #[test]
    fn tail_lengths_zero_through_fifteen() {
        // Exercise every possible remainder length after the 16-byte loop.
        let data: Vec<u8> = (0..96u32).map(|i| (i * 97 % 256) as u8).collect();
        for len in 0..=48 {
            let s = &data[..len];
            assert_eq!(crc32(s), crc32_reference(s), "len {len}");
        }
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        let a = crc32(b"hello world");
        let b = crc32(b"hello worle");
        assert_ne!(a, b);
    }

    #[test]
    fn incremental_vs_whole() {
        assert_ne!(crc32(b"ab"), crc32(b"ba"));
        // Any split of the payload over `crc32_append` calls — including
        // pieces that leave a 1..=15 byte tail mid-stream — reads the
        // same as one call over the whole.
        let data: Vec<u8> = (0..1037u32).map(|i| (i * 31 % 251) as u8).collect();
        assert_eq!(crc32_append(crc32(&data), b""), crc32(&data));
        for piece in [1, 3, 15, 16, 17, 64, 1000, 2000] {
            let crc = data.chunks(piece).fold(0, crc32_append);
            assert_eq!(crc, crc32(&data), "pieces of {piece}");
        }
    }
}
