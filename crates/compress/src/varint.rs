//! LEB128-style unsigned varints used by the frame header and the token
//! streams of both codecs.

use crate::Error;

/// Append `value` to `out` as a little-endian base-128 varint.
pub fn write(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7F) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Bytes [`write`] emits for `value`.
pub fn len(value: u64) -> usize {
    (64 - (value | 1).leading_zeros() as usize).div_ceil(7)
}

/// Read a varint from `buf` starting at `*pos`, advancing `*pos`.
pub fn read(buf: &[u8], pos: &mut usize) -> Result<u64, Error> {
    // Most token fields are below 128: one byte, no loop.
    if let Some(&byte) = buf.get(*pos).filter(|&&byte| byte < 0x80) {
        *pos += 1;
        return Ok(u64::from(byte));
    }
    let mut value: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *buf.get(*pos).ok_or(Error::Truncated)?;
        *pos += 1;
        if shift == 63 && byte > 1 {
            return Err(Error::Malformed("varint overflows u64"));
        }
        value |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
        if shift > 63 {
            return Err(Error::Malformed("varint too long"));
        }
    }
}

/// [`read`] a length or distance: a value that must fit `usize`.
pub fn read_len(buf: &[u8], pos: &mut usize) -> Result<usize, Error> {
    usize::try_from(read(buf, pos)?).map_err(|_| Error::Malformed("varint overflows usize"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_boundaries() {
        for v in [
            0u64,
            1,
            127,
            128,
            255,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            write(&mut buf, v);
            let mut pos = 0;
            assert_eq!(read(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn truncated_varint_errors() {
        let mut buf = Vec::new();
        write(&mut buf, u64::MAX);
        buf.pop();
        let mut pos = 0;
        assert_eq!(read(&buf, &mut pos), Err(Error::Truncated));
    }

    #[test]
    fn overlong_varint_errors() {
        let buf = [0x80u8; 11];
        let mut pos = 0;
        assert!(read(&buf, &mut pos).is_err());
    }

    #[test]
    fn encoding_is_minimal() {
        let mut buf = Vec::new();
        write(&mut buf, 127);
        assert_eq!(buf.len(), 1);
        buf.clear();
        write(&mut buf, 128);
        assert_eq!(buf.len(), 2);
    }
}
