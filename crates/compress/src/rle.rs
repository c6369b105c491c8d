//! Zero-run-length encoding.
//!
//! Token stream: repeated `(zero_run: varint, literal_len: varint,
//! literal_bytes...)` pairs. Either field may be zero; the stream ends when
//! the input is exhausted. Sparse `f32` matrices — the data class the
//! paper's evaluation singles out — are dominated by `0x00` bytes, and this
//! codec turns each zero run into a couple of bytes.

use crate::{varint, Error};

/// Shortest zero run that ends a literal run: breaking a literal for
/// fewer zeros costs more in varints than it saves.
pub(crate) const MIN_ZERO_RUN: usize = 4;

/// Encode `input` into a zero-RLE token stream.
pub fn encode(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 4 + 16);
    let mut i = 0;
    while i < input.len() {
        let zero_start = i;
        while i < input.len() && input[i] == 0 {
            i += 1;
        }
        let zero_run = i - zero_start;

        let lit_start = i;
        // A literal run ends at the next zero run of `MIN_ZERO_RUN` (or
        // end of input).
        while i < input.len() {
            if input[i] == 0 {
                let mut j = i;
                while j < input.len() && j - i < MIN_ZERO_RUN && input[j] == 0 {
                    j += 1;
                }
                if j - i >= MIN_ZERO_RUN || j == input.len() {
                    break;
                }
                i = j;
            } else {
                i += 1;
            }
        }
        let literals = &input[lit_start..i];
        varint::write(&mut out, zero_run as u64);
        varint::write(&mut out, literals.len() as u64);
        out.extend_from_slice(literals);
    }
    out
}

/// Decode a zero-RLE token stream. `expected_len` comes from an untrusted
/// header: it bounds the output and guards against decompression bombs,
/// but memory is reserved only as far as the payload and its validated
/// tokens justify.
pub fn decode(payload: &[u8], expected_len: usize) -> Result<Vec<u8>, Error> {
    let mut out = crate::output_buffer(expected_len, payload.len());
    let mut pos = 0;
    while pos < payload.len() {
        let zero_run = varint::read_len(payload, &mut pos)?;
        let lit_len = varint::read_len(payload, &mut pos)?;
        let room = expected_len - out.len();
        if zero_run > room || lit_len > room - zero_run {
            return Err(Error::Malformed("rle output exceeds declared length"));
        }
        crate::grow(&mut out, zero_run)?;
        out.resize(out.len() + zero_run, 0);
        let lit_end = pos
            .checked_add(lit_len)
            .ok_or(Error::Malformed("rle literal overflow"))?;
        let literals = payload.get(pos..lit_end).ok_or(Error::Truncated)?;
        out.extend_from_slice(literals);
        pos = lit_end;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) {
        let enc = encode(data);
        assert_eq!(decode(&enc, data.len()).unwrap(), data);
    }

    #[test]
    fn all_zero() {
        roundtrip(&[0u8; 1000]);
        assert!(encode(&[0u8; 1000]).len() <= 4);
    }

    #[test]
    fn no_zero() {
        let data: Vec<u8> = (1..=255u8).cycle().take(777).collect();
        roundtrip(&data);
    }

    #[test]
    fn alternating_short_zero_runs_stay_in_literals() {
        // 1-3 zero runs inside literals should not explode into tokens.
        let mut data = Vec::new();
        for i in 0..500u32 {
            data.push((i % 7 + 1) as u8);
            data.extend(std::iter::repeat_n(0u8, (i % 3) as usize));
        }
        let enc = encode(&data);
        roundtrip(&data);
        // One token pair would be ~data.len(); many token pairs would be
        // much larger. Check we stayed close to input size.
        assert!(
            enc.len() < data.len() + 16,
            "enc {} vs raw {}",
            enc.len(),
            data.len()
        );
    }

    #[test]
    fn trailing_zero_run() {
        let mut data = vec![5u8; 10];
        data.extend(std::iter::repeat_n(0u8, 100));
        roundtrip(&data);
    }

    #[test]
    fn bomb_guard_triggers() {
        let mut payload = Vec::new();
        varint::write(&mut payload, 1_000_000);
        varint::write(&mut payload, 0);
        assert!(decode(&payload, 10).is_err());
    }

    #[test]
    fn truncated_literals_error() {
        let mut payload = Vec::new();
        varint::write(&mut payload, 0);
        varint::write(&mut payload, 50);
        payload.extend_from_slice(&[1, 2, 3]); // promises 50, delivers 3
        assert_eq!(decode(&payload, 100), Err(Error::Truncated));
    }
}
