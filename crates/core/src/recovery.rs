//! Tile-granular checkpoint/resume: the driver-side glue between the
//! offload engine and the storage-layer region journal.
//!
//! The journal (`cloud-storage::RegionJournal`) persists opaque byte
//! payloads keyed by `(loop, tile)`. This module defines what those
//! payloads *are* for the cloud device: a self-describing encoding of a
//! tile's private output buffers (`OutPart`s), so a later run can absorb
//! a completed tile's results without re-executing its kernel.
//!
//! The encoding is deliberately dumb — little-endian, length-prefixed,
//! no compression (tiles are small and journal writes ride a background
//! thread). A payload that fails to decode is treated exactly like a
//! missing marker: the tile re-executes. The journal is an optimization
//! of recovery, never an input to correctness — committed outputs go
//! through the transfer manager's two-phase manifest protocol instead.

use cloud_storage::RegionJournal;
use omp_model::view::OutPart;
use omp_model::{ErasedVec, TypeTag};

/// Recovery context of one offloaded region: owns the region journal and
/// translates between tile outputs and journal payloads.
pub struct RegionRecovery {
    journal: RegionJournal,
}

impl RegionRecovery {
    /// Wrap an opened region journal.
    pub fn new(journal: RegionJournal) -> RegionRecovery {
        RegionRecovery { journal }
    }

    /// The underlying journal.
    pub fn journal(&self) -> &RegionJournal {
        &self.journal
    }

    /// Tiles of `loop_idx` already completed by an earlier (interrupted)
    /// run, decoded and sorted by tile id, each with the iteration hull
    /// `[start, end)` it covered. Corrupt or undecodable payloads are
    /// dropped — those tiles simply re-execute. Callers must replay a
    /// tile only where the current plan cuts the same hull (the
    /// fingerprint no longer pins the tile plan).
    pub fn restored_tiles(&self, loop_idx: usize) -> Vec<(usize, (usize, usize), Vec<OutPart>)> {
        self.journal
            .completed(loop_idx)
            .into_iter()
            .filter_map(|(tile, payload)| {
                let (hull, parts) = decode_tile(&payload)?;
                Some((tile, hull, parts))
            })
            .collect()
    }

    /// Journal tile `tile_id` of `loop_idx` as completed with its output
    /// parts and the iteration hull it covered. Asynchronous and
    /// advisory: errors surface only as the journal's error counter.
    pub fn record_tile(
        &self,
        loop_idx: usize,
        tile_id: usize,
        hull: (usize, usize),
        parts: &[OutPart],
    ) {
        self.journal
            .record(loop_idx, tile_id, encode_tile(hull, parts));
    }

    /// Flush outstanding journal writes; returns the number that failed.
    pub fn finish(&self) -> u64 {
        self.journal.drain()
    }

    /// Delete the journal (after the region commits).
    pub fn clear(&self) {
        self.journal.clear();
    }
}

fn tag_code(tag: TypeTag) -> u8 {
    match tag {
        TypeTag::F32 => 0,
        TypeTag::F64 => 1,
        TypeTag::I32 => 2,
        TypeTag::I64 => 3,
        TypeTag::U8 => 4,
        TypeTag::U16 => 5,
        TypeTag::U32 => 6,
        TypeTag::U64 => 7,
    }
}

fn code_tag(code: u8) -> Option<TypeTag> {
    Some(match code {
        0 => TypeTag::F32,
        1 => TypeTag::F64,
        2 => TypeTag::I32,
        3 => TypeTag::I64,
        4 => TypeTag::U8,
        5 => TypeTag::U16,
        6 => TypeTag::U32,
        7 => TypeTag::U64,
        _ => return None,
    })
}

/// Serialize a full tile marker: the iteration hull the tile covered,
/// then its output parts. The hull is what makes a marker safe to
/// replay across tile-plan changes — it is matched against the current
/// plan on restore.
pub fn encode_tile(hull: (usize, usize), parts: &[OutPart]) -> Vec<u8> {
    let body = encode_parts(parts);
    let mut out = Vec::with_capacity(16 + body.len());
    out.extend_from_slice(&(hull.0 as u64).to_le_bytes());
    out.extend_from_slice(&(hull.1 as u64).to_le_bytes());
    out.extend_from_slice(&body);
    out
}

/// Decode a full tile marker; `None` on any structural mismatch.
pub fn decode_tile(payload: &[u8]) -> Option<((usize, usize), Vec<OutPart>)> {
    if payload.len() < 16 {
        return None;
    }
    let start = u64::from_le_bytes(payload[..8].try_into().ok()?) as usize;
    let end = u64::from_le_bytes(payload[8..16].try_into().ok()?) as usize;
    if start > end {
        return None;
    }
    Some(((start, end), decode_parts(&payload[16..])?))
}

/// Serialize a tile's output parts into a journal payload.
pub fn encode_parts(parts: &[OutPart]) -> Vec<u8> {
    let mut out = Vec::with_capacity(
        4 + parts
            .iter()
            .map(|p| MIN_PART_BYTES + p.name.len() + p.data.byte_len())
            .sum::<usize>(),
    );
    out.extend_from_slice(&(parts.len() as u32).to_le_bytes());
    for p in parts {
        out.extend_from_slice(&(p.name.len() as u32).to_le_bytes());
        out.extend_from_slice(p.name.as_bytes());
        out.extend_from_slice(&(p.base as u64).to_le_bytes());
        out.push(p.touched as u8);
        out.push(tag_code(p.data.tag()));
        let bytes = p.data.to_bytes();
        out.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
        out.extend_from_slice(&bytes);
    }
    out
}

/// Wire size of a part with an empty name and no data: name length,
/// base, touched, tag, data length.
const MIN_PART_BYTES: usize = 4 + 8 + 1 + 1 + 8;

/// Decode a journal payload back into output parts; `None` on any
/// structural mismatch (truncation, bad tag, non-UTF-8 name).
pub fn decode_parts(payload: &[u8]) -> Option<Vec<OutPart>> {
    let mut cur = Cursor {
        buf: payload,
        at: 0,
    };
    let count = cur.u32()? as usize;
    // Reserve for what the bytes present can hold, not for what the
    // count field claims.
    let mut parts = Vec::with_capacity(count.min(payload.len() / MIN_PART_BYTES));
    for _ in 0..count {
        let name_len = cur.u32()? as usize;
        let name = String::from_utf8(cur.take(name_len)?.to_vec()).ok()?;
        let base = cur.u64()? as usize;
        let touched = match cur.u8()? {
            0 => false,
            1 => true,
            _ => return None,
        };
        let tag = code_tag(cur.u8()?)?;
        let data_len = cur.u64()? as usize;
        let bytes = cur.take(data_len)?;
        if !data_len.is_multiple_of(tag.elem_size()) {
            return None;
        }
        parts.push(OutPart {
            name,
            base,
            data: ErasedVec::from_bytes(tag, bytes),
            touched,
        });
    }
    if cur.at != payload.len() {
        return None; // trailing garbage
    }
    Some(parts)
}

struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.at.checked_add(n)?;
        let s = self.buf.get(self.at..end)?;
        self.at = end;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cloud_storage::{ObjectStore, RegionFingerprint, S3Store};
    use std::sync::Arc;

    fn sample_parts() -> Vec<OutPart> {
        vec![
            OutPart {
                name: "y".into(),
                base: 128,
                data: ErasedVec::F64(vec![1.5, -2.25, 0.0]),
                touched: true,
            },
            OutPart {
                name: "flags".into(),
                base: 0,
                data: ErasedVec::U8(vec![0xff, 0x01]),
                touched: false,
            },
        ]
    }

    #[test]
    fn parts_roundtrip_bitwise() {
        let parts = sample_parts();
        let decoded = decode_parts(&encode_parts(&parts)).expect("decodes");
        assert_eq!(decoded.len(), 2);
        for (a, b) in parts.iter().zip(&decoded) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.base, b.base);
            assert_eq!(a.touched, b.touched);
            assert_eq!(a.data.to_bytes(), b.data.to_bytes());
            assert_eq!(a.data.tag(), b.data.tag());
        }
    }

    #[test]
    fn truncated_or_garbled_payloads_decode_to_none() {
        let good = encode_parts(&sample_parts());
        assert!(decode_parts(&good[..good.len() - 1]).is_none(), "truncated");
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(decode_parts(&trailing).is_none(), "trailing garbage");
        let mut bad_tag = good.clone();
        // Flip the first part's tag byte (after count, name-len, name,
        // base, touched): 4 + 4 + 1 + 8 + 1 = 18.
        bad_tag[18] = 200;
        assert!(decode_parts(&bad_tag).is_none(), "unknown tag");
        assert!(decode_parts(&[]).is_none(), "empty buffer");
    }

    #[test]
    fn tile_markers_roundtrip_their_hull() {
        let parts = sample_parts();
        let ((s, e), decoded) = decode_tile(&encode_tile((250, 500), &parts)).expect("decodes");
        assert_eq!((s, e), (250, 500));
        assert_eq!(decoded.len(), parts.len());
        // A marker shorter than its hull header is rejected.
        assert!(decode_tile(&[0u8; 15]).is_none());
        // An inverted hull is structural corruption, not a plan.
        let mut inverted = (10u64).to_le_bytes().to_vec();
        inverted.extend_from_slice(&(5u64).to_le_bytes());
        inverted.extend_from_slice(&encode_parts(&parts));
        assert!(decode_tile(&inverted).is_none());
    }

    #[test]
    fn recovery_records_and_restores_through_the_journal() {
        let store: Arc<dyn ObjectStore> = Arc::new(S3Store::standalone("ckpt"));
        let mut fp = RegionFingerprint::new("axpy");
        fp.add_loop(1000);
        let rec = RegionRecovery::new(RegionJournal::open(Arc::clone(&store), "jobs", &fp));
        rec.record_tile(0, 2, (500, 750), &sample_parts());
        rec.record_tile(0, 0, (0, 250), &sample_parts());
        assert_eq!(rec.finish(), 0, "no write errors");

        let rec2 = RegionRecovery::new(RegionJournal::open(Arc::clone(&store), "jobs", &fp));
        let restored = rec2.restored_tiles(0);
        assert_eq!(
            restored.iter().map(|(t, _, _)| *t).collect::<Vec<_>>(),
            vec![0, 2]
        );
        assert_eq!(restored[0].1, (0, 250), "hull travels with the marker");
        assert_eq!(restored[1].1, (500, 750));
        assert_eq!(
            restored[0].2[0].data.to_bytes(),
            sample_parts()[0].data.to_bytes()
        );
        assert!(rec2.restored_tiles(1).is_empty(), "other loops untouched");

        rec2.clear();
        assert!(store.list("jobs/journal/").is_empty(), "journal deleted");
    }
}
