//! Self-describing container for compressed payloads.
//!
//! Layout:
//! ```text
//! +------+-------+---------------------+-------------+---------+
//! | GZL1 | codec | original_len varint | payload ... | crc32le |
//! +------+-------+---------------------+-------------+---------+
//! ```
//! The CRC is over the *original* (uncompressed) bytes, so it catches both
//! wire corruption and codec bugs.

use crate::{varint, Codec, Error};

/// Frame magic: "GZL1".
pub const MAGIC: [u8; 4] = *b"GZL1";

/// Upper bound on the fixed framing cost (magic + codec + max varint + crc).
pub const FRAME_OVERHEAD: usize = 4 + 1 + 10 + 4;

#[derive(Debug)]
pub(crate) struct Parsed<'a> {
    pub codec: Codec,
    pub original_len: usize,
    pub payload: &'a [u8],
    pub checksum: u32,
}

/// A frame's header, in a buffer with room for `payload_capacity` bytes
/// of payload and the trailer: the encoder appends the payload, then
/// [`end`] the trailer.
pub(crate) fn begin(codec: Codec, original_len: usize, payload_capacity: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload_capacity + FRAME_OVERHEAD);
    out.extend_from_slice(&MAGIC);
    out.push(codec.id());
    varint::write(&mut out, original_len as u64);
    out
}

/// Close a frame [`begin`] opened and its encoder filled.
pub(crate) fn end(frame: &mut Vec<u8>, checksum: u32) {
    frame.extend_from_slice(&checksum.to_le_bytes());
}

pub(crate) fn seal(codec: Codec, original_len: usize, payload: &[u8], checksum: u32) -> Vec<u8> {
    let mut out = begin(codec, original_len, payload.len());
    out.extend_from_slice(payload);
    end(&mut out, checksum);
    out
}

pub(crate) fn open(frame: &[u8]) -> Result<Parsed<'_>, Error> {
    if frame.len() < 4 {
        return Err(
            if frame.starts_with(&MAGIC[..frame.len()]) && !frame.is_empty() {
                Error::Truncated
            } else {
                Error::BadMagic
            },
        );
    }
    if frame[..4] != MAGIC {
        return Err(Error::BadMagic);
    }
    let mut pos = 4;
    let codec_id = *frame.get(pos).ok_or(Error::Truncated)?;
    pos += 1;
    let codec = Codec::from_id(codec_id).ok_or(Error::UnknownCodec(codec_id))?;
    let original_len = varint::read_len(frame, &mut pos)?;
    if frame.len() < pos + 4 {
        return Err(Error::Truncated);
    }
    let payload = &frame[pos..frame.len() - 4];
    let crc_bytes: [u8; 4] = frame[frame.len() - 4..].try_into().expect("4 bytes");
    Ok(Parsed {
        codec,
        original_len,
        payload,
        checksum: u32::from_le_bytes(crc_bytes),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crc32;

    #[test]
    fn seal_open_roundtrip() {
        let payload = b"payload bytes";
        let frame = seal(Codec::Lz77, 99, payload, crc32(b"x"));
        let parsed = open(&frame).unwrap();
        assert_eq!(parsed.codec, Codec::Lz77);
        assert_eq!(parsed.original_len, 99);
        assert_eq!(parsed.payload, payload);
        assert_eq!(parsed.checksum, crc32(b"x"));
    }

    #[test]
    fn unknown_codec_id_rejected() {
        let mut frame = seal(Codec::Store, 0, &[], 0);
        frame[4] = 200;
        assert_eq!(open(&frame).unwrap_err(), Error::UnknownCodec(200));
    }

    #[test]
    fn empty_frame_rejected() {
        assert_eq!(open(&[]).unwrap_err(), Error::BadMagic);
    }
}
