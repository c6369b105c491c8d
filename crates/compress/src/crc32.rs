//! CRC-32 (IEEE 802.3 polynomial, the one gzip uses), implemented from
//! scratch. Uses the slice-by-16 technique: sixteen 256-entry lookup
//! tables let the hot loop fold 16 input bytes per iteration instead of
//! one, breaking the byte-serial dependency chain. The transfer layer
//! checksums every wire payload twice (put + get), so this is on the
//! critical path of the integrity-verified offload. The polynomial is
//! unchanged from the earlier slice-by-8 build, so every stored crc and
//! the wire-crc ledger stay valid.

use std::sync::OnceLock;

const POLY: u32 = 0xEDB8_8320;

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
    let mut chunks = data.chunks_exact(16);
    for chunk in &mut chunks {
        let a = u32::from_le_bytes(chunk[0..4].try_into().unwrap()) ^ crc;
        let b = u32::from_le_bytes(chunk[4..8].try_into().unwrap());
        let c = u32::from_le_bytes(chunk[8..12].try_into().unwrap());
        let d = u32::from_le_bytes(chunk[12..16].try_into().unwrap());
        crc = t[15][(a & 0xFF) as usize]
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
            ^ t[0][(d >> 24) as usize];
    }
    for &byte in chunks.remainder() {
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
