//! The pack: one self-describing store object holding several small
//! buffers, so a batch of them costs one round trip instead of one each.
//!
//! Layout, integers little-endian:
//!
//! ```text
//! "OPK1" | u32 count | count × (u32 name_len | name | u64 len) | payloads
//! ```
//!
//! `name` is the member's key with the pack's own key directory stripped
//! (members and pack always share it); payloads follow back to back in
//! directory order. The pack travels as the raw bytes of one wire object,
//! so it is sealed, crc'd and decoded exactly like a single buffer.
//!
//! A pack read back from the store is untrusted: [`members`] checks the
//! whole directory against the bytes actually present before it yields
//! anything, allocates nothing, and its loops are bounded by the input
//! length, not by the declared count.

/// First bytes of every pack.
const MAGIC: [u8; 4] = *b"OPK1";

/// Bytes before the first directory entry.
pub(crate) const HEADER_LEN: usize = MAGIC.len() + 4;

/// Bytes the directory entry of a member called `name` takes.
pub(crate) fn entry_len(name: &str) -> usize {
    4 + name.len() + 8
}

/// Append magic, count and directory for `members` (`(name, payload
/// length)` in order); the caller appends the payloads in the same order.
pub(crate) fn write_directory<'a>(
    out: &mut Vec<u8>,
    members: impl ExactSizeIterator<Item = (&'a str, usize)>,
) {
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&(members.len() as u32).to_le_bytes());
    for (name, len) in members {
        out.extend_from_slice(&(name.len() as u32).to_le_bytes());
        out.extend_from_slice(name.as_bytes());
        out.extend_from_slice(&(len as u64).to_le_bytes());
    }
}

/// The `(name, payload)` members of a validated pack, in directory order.
pub(crate) struct Members<'a> {
    directory: &'a [u8],
    payloads: &'a [u8],
}

/// Validate `pack` and iterate its members. `Err` names what is wrong:
/// bad magic, a directory or payload area shorter than declared, lengths
/// that overflow or do not add up to the bytes present.
pub(crate) fn members(pack: &[u8]) -> Result<Members<'_>, &'static str> {
    let mut rest = pack;
    if take(&mut rest, MAGIC.len()) != Some(&MAGIC[..]) {
        return Err("not a pack (bad magic)");
    }
    let count = take(&mut rest, 4).ok_or("truncated pack header")?;
    let count = u32::from_le_bytes(count.try_into().expect("four bytes taken"));
    let directory = rest;
    let mut declared = 0u64;
    // Every entry consumes at least 12 bytes of `rest` or fails, so a
    // hostile count ends the loop with an error, not with work.
    for _ in 0..count {
        let (_, len) = entry(&mut rest)?;
        declared = declared
            .checked_add(len)
            .ok_or("pack member lengths overflow")?;
    }
    if declared != rest.len() as u64 {
        return Err("pack member lengths do not add up to the payload bytes");
    }
    Ok(Members {
        directory: &directory[..directory.len() - rest.len()],
        payloads: rest,
    })
}

impl<'a> Iterator for Members<'a> {
    type Item = (&'a str, &'a [u8]);

    fn next(&mut self) -> Option<Self::Item> {
        // Cannot fail: `members` walked this directory already.
        let (name, len) = entry(&mut self.directory).ok()?;
        Some((name, take(&mut self.payloads, len as usize)?))
    }
}

/// Split `n` bytes off the front of `bytes`.
fn take<'a>(bytes: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    if bytes.len() < n {
        return None;
    }
    let (head, rest) = bytes.split_at(n);
    *bytes = rest;
    Some(head)
}

/// Read one directory entry off the front of `directory`.
fn entry<'a>(directory: &mut &'a [u8]) -> Result<(&'a str, u64), &'static str> {
    const TRUNCATED: &str = "truncated pack directory";
    let name_len = take(directory, 4).ok_or(TRUNCATED)?;
    let name_len = u32::from_le_bytes(name_len.try_into().expect("four bytes taken"));
    let name = take(directory, name_len as usize).ok_or(TRUNCATED)?;
    let name = std::str::from_utf8(name).map_err(|_| "pack member name is not utf-8")?;
    let len = take(directory, 8).ok_or(TRUNCATED)?;
    Ok((
        name,
        u64::from_le_bytes(len.try_into().expect("eight bytes taken")),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pack(members: &[(&str, &[u8])]) -> Vec<u8> {
        let mut out = Vec::new();
        write_directory(&mut out, members.iter().map(|(n, p)| (*n, p.len())));
        for (_, p) in members {
            out.extend_from_slice(p);
        }
        out
    }

    #[test]
    fn directory_round_trips_in_order() {
        let input: [(&str, &[u8]); 3] = [("a", b"xyz"), ("empty", b""), ("sub/b", &[7; 40])];
        let bytes = pack(&input);
        let expected_len = HEADER_LEN
            + input
                .iter()
                .map(|(n, p)| entry_len(n) + p.len())
                .sum::<usize>();
        assert_eq!(bytes.len(), expected_len, "entry_len is the layout's size");
        let back: Vec<_> = members(&bytes).unwrap().collect();
        assert_eq!(back, input);
    }

    #[test]
    fn every_truncation_is_rejected() {
        let bytes = pack(&[("a", b"hello"), ("b", b"world!")]);
        for cut in 0..bytes.len() {
            assert!(members(&bytes[..cut]).is_err(), "cut at {cut} accepted");
        }
        let mut longer = bytes.clone();
        longer.push(0);
        assert!(members(&longer).is_err(), "trailing byte accepted");
    }

    #[test]
    fn hostile_headers_are_rejected() {
        let good = pack(&[("a", b"hello")]);
        // Count far beyond what the bytes can hold.
        let mut hostile = good.clone();
        hostile[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(members(&hostile).is_err());
        // A length that overruns the payload, and two that overflow u64.
        let mut overrun = good.clone();
        let len_at = HEADER_LEN + 4 + 1;
        overrun[len_at..len_at + 8].copy_from_slice(&6u64.to_le_bytes());
        assert!(members(&overrun).is_err());
        let mut overflow = Vec::new();
        overflow.extend_from_slice(&MAGIC);
        overflow.extend_from_slice(&2u32.to_le_bytes());
        for _ in 0..2 {
            overflow.extend_from_slice(&0u32.to_le_bytes());
            overflow.extend_from_slice(&u64::MAX.to_le_bytes());
        }
        assert_eq!(
            members(&overflow).err(),
            Some("pack member lengths overflow")
        );
        // Name that is not utf-8.
        let mut bad_name = good;
        bad_name[HEADER_LEN + 4] = 0xff;
        assert!(members(&bad_name).is_err());
    }
}
