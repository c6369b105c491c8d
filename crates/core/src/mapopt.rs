//! The map-transfer optimizer: send only the bytes that matter.
//!
//! Before a region executes, the optimizer walks its map set and tile
//! plan and decides, per mapped variable, what actually has to cross
//! the host↔cloud link:
//!
//! * dead transfers are elided — a `map(from)` buffer's initial
//!   contents are never read by the region, a `map(to)` buffer is
//!   never read back, and `map(alloc)` scratch moves zero bytes in
//!   either direction;
//! * over-approximated bounds are narrowed — an input partitioned in
//!   every loop only travels up to the union of the iteration hulls
//!   actually touched;
//! * byte-identical buffers within one upload set are deduped — the
//!   second copy aliases the first staged object;
//! * iterative re-executions ship dirty-tile deltas — the
//!   [`DeltaLedger`] remembers the per-tile crc32s of the last
//!   committed upload and re-sends only the tiles that changed.
//!
//! Every decision is recorded in a [`MapPlan`] that flows into the
//! [`OffloadReport`](crate::OffloadReport), so elisions are observable
//! and oracle-checkable byte for byte.

use crate::cache::{CacheDecision, Fingerprint, UploadCache};
use crate::config::CloudConfig;
use crate::resident::Served;
use cloud_storage::{BytePool, PoolBuf};
use omp_model::{
    DataEnv, DataflowHints, ErasedVec, MapClause, MapDir, OmpError, RedOp, TargetRegion, TypeTag,
};
use std::collections::HashMap;
use std::sync::Arc;

/// Why a transfer was elided.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ElideReason {
    /// `map(from)`-only: the region never reads the buffer's initial
    /// contents, so the upload is dead.
    DeadTo,
    /// `map(to)`-only: the region never writes the buffer, so the
    /// download is dead.
    DeadFrom,
    /// `map(alloc)`: device-side scratch, zero bytes in either
    /// direction.
    AllocOnly,
    /// Byte-identical to another buffer in the same upload set; this
    /// one aliases that buffer's staged object.
    Dedup {
        /// The variable whose staged object is shared.
        of: String,
    },
}

impl std::fmt::Display for ElideReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ElideReason::DeadTo => f.write_str("dead-to"),
            ElideReason::DeadFrom => f.write_str("dead-from"),
            ElideReason::AllocOnly => f.write_str("alloc-only"),
            ElideReason::Dedup { of } => write!(f, "dedup-of-{of}"),
        }
    }
}

/// What the optimizer decided for one variable's host→cloud leg.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UploadAction {
    /// Full buffer shipped (the unoptimized behavior).
    Full {
        /// Raw bytes shipped.
        bytes: u64,
    },
    /// Bounds narrowed to the iteration hull actually touched.
    Narrowed {
        /// Raw bytes shipped (the hull).
        bytes: u64,
        /// Raw bytes the unoptimized path would have shipped.
        full_bytes: u64,
    },
    /// Dirty-tile delta against the last committed upload.
    Delta {
        /// Tiles whose crc32 changed since the last commit.
        dirty_tiles: u32,
        /// Total tiles of the buffer.
        total_tiles: u32,
        /// Raw bytes shipped (the encoded patch).
        bytes: u64,
        /// Raw bytes the unoptimized path would have shipped.
        full_bytes: u64,
    },
    /// Delta round with zero dirty tiles: nothing shipped at all, the
    /// cloud replays its committed copy.
    DeltaClean {
        /// Raw bytes the unoptimized path would have shipped.
        full_bytes: u64,
    },
    /// Transfer elided entirely.
    Elided {
        /// Why.
        reason: ElideReason,
        /// Raw bytes that did not move.
        full_bytes: u64,
    },
    /// Served device-resident by the dataflow runtime (producer output
    /// consumed in place; not an optimizer decision, recorded for the
    /// byte ledger).
    Resident {
        /// Raw bytes that did not cross the host link.
        full_bytes: u64,
    },
    /// Unchanged since the last offload per the upload cache
    /// (`data-caching`); the staged object is reused.
    Cached {
        /// Raw bytes of the reused object.
        full_bytes: u64,
    },
}

impl UploadAction {
    /// Raw bytes this decision actually ships host→cloud.
    pub fn bytes_moved(&self) -> u64 {
        match self {
            UploadAction::Full { bytes } => *bytes,
            UploadAction::Narrowed { bytes, .. } => *bytes,
            UploadAction::Delta { bytes, .. } => *bytes,
            UploadAction::DeltaClean { .. }
            | UploadAction::Elided { .. }
            | UploadAction::Resident { .. }
            | UploadAction::Cached { .. } => 0,
        }
    }
}

/// What the optimizer decided for one variable's cloud→host leg.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DownloadAction {
    /// Full buffer comes home (the unoptimized behavior).
    Full {
        /// Raw bytes downloaded.
        bytes: u64,
    },
    /// Transfer elided entirely.
    Elided {
        /// Why.
        reason: ElideReason,
        /// Raw bytes that did not move.
        full_bytes: u64,
    },
    /// Kept device-resident for a later DAG consumer.
    Resident {
        /// Raw bytes that did not cross the host link.
        full_bytes: u64,
    },
}

impl DownloadAction {
    /// Raw bytes this decision actually ships cloud→host.
    pub fn bytes_moved(&self) -> u64 {
        match self {
            DownloadAction::Full { bytes } => *bytes,
            DownloadAction::Elided { .. } | DownloadAction::Resident { .. } => 0,
        }
    }
}

/// The optimizer's decision for one map clause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MapDecision {
    /// Mapped variable.
    pub var: String,
    /// Its map direction.
    pub dir: MapDir,
    /// Host→cloud decision.
    pub upload: UploadAction,
    /// Cloud→host decision.
    pub download: DownloadAction,
}

/// The full decision record of one offload — one entry per map clause.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MapPlan {
    /// Per-variable decisions, in map-clause order.
    pub decisions: Vec<MapDecision>,
}

impl MapPlan {
    /// Decision for `var`, if it was mapped.
    pub fn decision_for(&self, var: &str) -> Option<&MapDecision> {
        self.decisions.iter().find(|d| d.var == var)
    }

    /// Raw bytes planned host→cloud across every decision.
    pub fn upload_bytes(&self) -> u64 {
        self.decisions.iter().map(|d| d.upload.bytes_moved()).sum()
    }

    /// Raw bytes the cluster consumes off the host's side of the store
    /// (`ExecProfile::bytes_to_device`): what the plan ships, plus every
    /// cache hit in full — the device still reads the reused object
    /// whole, only the host's put is spared.
    pub(crate) fn device_input_bytes(&self) -> u64 {
        self.decisions
            .iter()
            .map(|d| match d.upload {
                UploadAction::Cached { full_bytes } => full_bytes,
                ref shipped => shipped.bytes_moved(),
            })
            .sum()
    }

    /// Raw bytes planned cloud→host across every decision.
    pub fn download_bytes(&self) -> u64 {
        self.decisions
            .iter()
            .map(|d| d.download.bytes_moved())
            .sum()
    }

    /// Raw bytes the send-everything path would have moved host→cloud:
    /// every input map full-size (elided/dead/alloc transfers included
    /// at zero — they never moved even before the optimizer).
    pub fn upload_bytes_saved(&self) -> u64 {
        self.decisions
            .iter()
            .map(|d| match &d.upload {
                UploadAction::Narrowed { bytes, full_bytes } => full_bytes - bytes,
                UploadAction::Delta {
                    bytes, full_bytes, ..
                } => full_bytes.saturating_sub(*bytes),
                UploadAction::DeltaClean { full_bytes } => *full_bytes,
                UploadAction::Elided {
                    reason: ElideReason::Dedup { .. },
                    full_bytes,
                } => *full_bytes,
                _ => 0,
            })
            .sum()
    }

    /// Uploads elided outright (dead, alloc-only, or deduped).
    pub fn uploads_elided(&self) -> u32 {
        self.decisions
            .iter()
            .filter(|d| matches!(d.upload, UploadAction::Elided { .. }))
            .count() as u32
    }

    /// Inputs narrowed to their iteration hull.
    pub fn narrowed(&self) -> u32 {
        self.decisions
            .iter()
            .filter(|d| matches!(d.upload, UploadAction::Narrowed { .. }))
            .count() as u32
    }

    /// Delta rounds (dirty or clean) across the plan.
    pub fn delta_rounds(&self) -> u32 {
        self.decisions
            .iter()
            .filter(|d| {
                matches!(
                    d.upload,
                    UploadAction::Delta { .. } | UploadAction::DeltaClean { .. }
                )
            })
            .count() as u32
    }

    /// Dirty tiles re-uploaded across every delta decision.
    pub fn delta_dirty_tiles(&self) -> u32 {
        self.decisions
            .iter()
            .map(|d| match d.upload {
                UploadAction::Delta { dirty_tiles, .. } => dirty_tiles,
                _ => 0,
            })
            .sum()
    }

    /// Whether the optimizer changed anything relative to the
    /// send-everything path.
    pub fn any(&self) -> bool {
        self.decisions.iter().any(|d| {
            !matches!(d.upload, UploadAction::Full { .. })
                || !matches!(d.download, DownloadAction::Full { .. })
        })
    }
}

impl std::fmt::Display for MapPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} maps, {} B up / {} B down planned, {} upload(s) elided, {} narrowed, \
             {} delta round(s) ({} dirty tiles), {} B saved",
            self.decisions.len(),
            self.upload_bytes(),
            self.download_bytes(),
            self.uploads_elided(),
            self.narrowed(),
            self.delta_rounds(),
            self.delta_dirty_tiles(),
            self.upload_bytes_saved(),
        )
    }
}

/// Static bounds analysis: how many *elements* of input `var` the
/// region can possibly touch.
///
/// Narrowing applies when the variable is indexed-partitioned in
/// **every** loop of the region (a loop without a spec broadcasts the
/// buffer whole, so nothing can be trimmed) and the union of the
/// full-trip iteration hulls is a strict prefix of the buffer. Returns
/// the prefix length in elements, or `None` when the whole buffer has
/// to travel.
pub fn narrow_len(region: &TargetRegion, var: &str, len: usize) -> Option<usize> {
    if len == 0 {
        return None;
    }
    let mut hull_end = 0usize;
    for l in &region.loops {
        let spec = l.partitions.get(var).filter(|s| s.is_indexed())?;
        let hull = spec.range_for_tile(0..l.trip_count, len).ok()?;
        if hull.start != 0 {
            // Non-prefix hulls would need scatter-gather on the wire;
            // not worth it for a contiguous object store key.
            return None;
        }
        hull_end = hull_end.max(hull.end);
    }
    (hull_end < len).then_some(hull_end)
}

/// Magic marker of an encoded delta patch (`DPT1`).
const PATCH_MAGIC: [u8; 4] = *b"DPT1";

/// How a buffer compares against its last committed upload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaDiff {
    /// No committed base (first sight, or the length changed): the
    /// full buffer must travel.
    NoBase,
    /// These tile indices changed; everything else is byte-identical.
    Dirty(Vec<usize>),
    /// Byte-identical to the committed base: nothing travels.
    Clean,
}

/// One committed buffer tracked by the [`DeltaLedger`].
struct DeltaEntry {
    /// The committed payload — the model of the cloud-resident copy the
    /// next round patches.
    payload: Vec<u8>,
    /// crc32 per tile of `payload`.
    tile_crcs: Vec<u32>,
    /// crc32 of the whole payload.
    full_crc: u32,
}

/// Driver-side dirty-tile ledger for iterative regions.
///
/// After each *successful* upload+verify the full payload is committed
/// here, tile crc32s and all; the next offload of the same variable
/// diffs against the committed state and ships only the dirty tiles as
/// a [`encode_patch`](DeltaLedger::encode_patch) blob. Commits happen
/// only after the cloud side has materialized and verified the payload,
/// so a transient fault mid-transfer can never corrupt the base the
/// next round patches against.
pub struct DeltaLedger {
    tile_bytes: usize,
    entries: HashMap<String, DeltaEntry>,
}

impl DeltaLedger {
    /// Empty ledger with the given tile granularity (bytes, > 0).
    pub fn new(tile_bytes: usize) -> Self {
        DeltaLedger {
            tile_bytes: tile_bytes.max(1),
            entries: HashMap::new(),
        }
    }

    /// Tile granularity in bytes.
    pub fn tile_bytes(&self) -> usize {
        self.tile_bytes
    }

    /// Number of tiles a payload of `len` bytes splits into.
    pub fn tile_count(&self, len: usize) -> usize {
        len.div_ceil(self.tile_bytes)
    }

    /// Per-tile crc32s of `bytes`.
    fn tile_crcs(&self, bytes: &[u8]) -> Vec<u32> {
        bytes.chunks(self.tile_bytes).map(gzlite::crc32).collect()
    }

    /// Diff `bytes` against the committed base of `name`.
    ///
    /// crc32 detects every single-byte change (a one-byte flip always
    /// alters the checksum), so a dirty tile can never be missed; a
    /// colliding multi-byte change is guarded against by the full-crc
    /// check in [`apply_patch`](DeltaLedger::apply_patch) plus an exact
    /// byte compare here for tiles whose crc matches.
    pub fn diff(&self, name: &str, bytes: &[u8]) -> DeltaDiff {
        let Some(entry) = self.entries.get(name) else {
            return DeltaDiff::NoBase;
        };
        if entry.payload.len() != bytes.len() {
            return DeltaDiff::NoBase;
        }
        let mut dirty = Vec::new();
        for (idx, chunk) in bytes.chunks(self.tile_bytes).enumerate() {
            let start = idx * self.tile_bytes;
            let base = &entry.payload[start..start + chunk.len()];
            // crc first (cheap), memcmp to confirm equality when the
            // crcs agree — collisions re-upload, they never skip.
            if gzlite::crc32(chunk) != entry.tile_crcs[idx] || chunk != base {
                dirty.push(idx);
            }
        }
        if dirty.is_empty() {
            DeltaDiff::Clean
        } else {
            DeltaDiff::Dirty(dirty)
        }
    }

    /// Commit `bytes` as the new base of `name`. Call only after the
    /// cloud side has the full payload materialized and verified.
    pub fn commit(&mut self, name: &str, bytes: &[u8]) {
        let entry = DeltaEntry {
            tile_crcs: self.tile_crcs(bytes),
            full_crc: gzlite::crc32(bytes),
            payload: bytes.to_vec(),
        };
        self.entries.insert(name.to_string(), entry);
    }

    /// The committed base payload of `name`.
    pub fn payload(&self, name: &str) -> Option<&[u8]> {
        self.entries.get(name).map(|e| e.payload.as_slice())
    }

    /// crc32 of the committed base payload of `name`.
    pub fn full_crc(&self, name: &str) -> Option<u32> {
        self.entries.get(name).map(|e| e.full_crc)
    }

    /// Drop the committed base of `name`.
    pub fn forget(&mut self, name: &str) {
        self.entries.remove(name);
    }

    /// Drop every committed base.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Encode the dirty tiles of `bytes` as a self-describing patch:
    ///
    /// ```text
    /// "DPT1" | u32 tile_bytes | u32 total_tiles | u64 full_len |
    /// u32 full_crc | u32 n_dirty | n_dirty × (u32 idx | tile bytes)
    /// ```
    ///
    /// All integers little-endian; the last tile may be short.
    pub fn encode_patch(&self, bytes: &[u8], dirty: &[usize]) -> Vec<u8> {
        let total_tiles = self.tile_count(bytes.len());
        let mut out = Vec::with_capacity(28 + dirty.len() * (4 + self.tile_bytes));
        out.extend_from_slice(&PATCH_MAGIC);
        out.extend_from_slice(&(self.tile_bytes as u32).to_le_bytes());
        out.extend_from_slice(&(total_tiles as u32).to_le_bytes());
        out.extend_from_slice(&(bytes.len() as u64).to_le_bytes());
        out.extend_from_slice(&gzlite::crc32(bytes).to_le_bytes());
        out.extend_from_slice(&(dirty.len() as u32).to_le_bytes());
        for &idx in dirty {
            let start = idx * self.tile_bytes;
            let end = (start + self.tile_bytes).min(bytes.len());
            out.extend_from_slice(&(idx as u32).to_le_bytes());
            out.extend_from_slice(&bytes[start..end]);
        }
        out
    }

    /// Whether `bytes` looks like an encoded patch.
    pub fn is_patch(bytes: &[u8]) -> bool {
        bytes.len() >= 28 && bytes[..4] == PATCH_MAGIC
    }

    /// Apply `patch` on top of the committed base of `name`, returning
    /// the reconstructed full payload. The result is verified against
    /// the patch's full-payload crc32 — a base that drifted from what
    /// the patch was diffed against is detected, never silently used.
    pub fn apply_patch(&self, name: &str, patch: &[u8]) -> Result<Vec<u8>, String> {
        if !Self::is_patch(patch) {
            return Err("not a delta patch (bad magic or truncated header)".into());
        }
        let rd_u32 = |off: usize| -> u32 {
            u32::from_le_bytes(patch[off..off + 4].try_into().expect("bounds checked"))
        };
        let tile_bytes = rd_u32(4) as usize;
        let total_tiles = rd_u32(8) as usize;
        let full_len =
            u64::from_le_bytes(patch[12..20].try_into().expect("bounds checked")) as usize;
        let full_crc = rd_u32(20);
        let n_dirty = rd_u32(24) as usize;
        if tile_bytes != self.tile_bytes {
            return Err(format!(
                "patch tile granularity {tile_bytes} != ledger {}",
                self.tile_bytes
            ));
        }
        let base = self
            .payload(name)
            .ok_or_else(|| format!("no committed base for '{name}'"))?;
        if base.len() != full_len || self.tile_count(full_len) != total_tiles {
            return Err(format!(
                "patch geometry ({full_len} B, {total_tiles} tiles) does not match \
                 the committed base ({} B)",
                base.len()
            ));
        }
        let mut out = base.to_vec();
        let mut off = 28;
        for _ in 0..n_dirty {
            if off + 4 > patch.len() {
                return Err("truncated patch: missing tile index".into());
            }
            let idx = u32::from_le_bytes(patch[off..off + 4].try_into().expect("bounds checked"))
                as usize;
            off += 4;
            if idx >= total_tiles {
                return Err(format!("patch tile index {idx} out of range"));
            }
            let start = idx * tile_bytes;
            let end = (start + tile_bytes).min(full_len);
            let n = end - start;
            if off + n > patch.len() {
                return Err("truncated patch: missing tile payload".into());
            }
            out[start..end].copy_from_slice(&patch[off..off + n]);
            off += n;
        }
        if off != patch.len() {
            return Err("trailing garbage after the last patch tile".into());
        }
        let crc = gzlite::crc32(&out);
        if crc != full_crc {
            return Err(format!(
                "reconstructed payload crc32 {crc:#010x} != patch {full_crc:#010x} \
                 (base drifted?)"
            ));
        }
        Ok(out)
    }
}

/// What the device remembers between offloads so that unchanged bytes
/// stay home: the upload cache (`data-caching`) and the dirty-tile delta
/// ledger (`delta-transfers`). The planner consults them back to back
/// and stage-in commits to both at the same point — after the cloud
/// side holds the payload — so they share one lock.
pub(crate) struct TransferMemory {
    pub cache: UploadCache,
    pub delta: DeltaLedger,
}

/// Where the cluster's copy of one mapped variable comes from.
pub(crate) enum InputSource {
    /// Put under `key` this round and fetched back: in full, as a
    /// narrowed prefix or as a delta patch, as `upload` says.
    Staged { key: String, upload: UploadAction },
    /// Unchanged per the upload cache: fetched from the object an
    /// earlier offload staged under `key`.
    Cached { key: String },
    /// A producer region's output consumed in place — the driver-side
    /// copy (shared, not cloned) of the version committed under `key`,
    /// with the fingerprint the ladder has just checked it against; the
    /// host upload is elided entirely.
    Resident {
        key: String,
        bytes: Arc<Vec<u8>>,
        fp: Fingerprint,
    },
    /// The delta diff came back clean: zero bytes travel and the cluster
    /// copy is the ledger's committed payload, whose crc32 this is.
    DeltaClean { crc: u32 },
    /// Byte-identical to `of`, staged this round under `key`: the alias
    /// shares that object.
    Alias { of: String, key: String },
    /// `map(from)`/`map(alloc)`: host contents never cross the wire;
    /// the driver allocates the buffer (see [`allocate_outputs`]).
    NotUploaded,
}

/// The plan for one map clause: what stage-in, the region fingerprint
/// and the published [`MapDecision`] each need to know about it.
pub(crate) struct InputPlan {
    pub var: String,
    pub dir: MapDir,
    pub tag: TypeTag,
    /// Element count of the host buffer (what a narrowed prefix is
    /// padded back to).
    pub elems: usize,
    /// Raw bytes the send-everything path would move.
    pub full_bytes: u64,
    pub source: InputSource,
    /// Fingerprint of the full payload when `data-caching` is on and the
    /// cache missed: what stage-in records once the bytes are cloud-side.
    pub cache_fp: Option<Fingerprint>,
}

impl InputPlan {
    /// The published decision record; `kept` says a later DAG consumer
    /// reads the output in place.
    fn decision(&self, kept: bool) -> MapDecision {
        let full_bytes = self.full_bytes;
        let elided = |reason| UploadAction::Elided { reason, full_bytes };
        let upload = match &self.source {
            InputSource::Staged { upload, .. } => upload.clone(),
            InputSource::Cached { .. } => UploadAction::Cached { full_bytes },
            InputSource::Resident { .. } => UploadAction::Resident { full_bytes },
            InputSource::DeltaClean { .. } => UploadAction::DeltaClean { full_bytes },
            InputSource::Alias { of, .. } => elided(ElideReason::Dedup { of: of.clone() }),
            InputSource::NotUploaded if self.dir.is_alloc() => elided(ElideReason::AllocOnly),
            // `from`-only: the classic dead `to` transfer.
            InputSource::NotUploaded => elided(ElideReason::DeadTo),
        };
        let dead = |reason| DownloadAction::Elided { reason, full_bytes };
        let download = if self.dir.is_alloc() {
            dead(ElideReason::AllocOnly)
        } else if !self.dir.is_output() {
            dead(ElideReason::DeadFrom)
        } else if kept {
            DownloadAction::Resident { full_bytes }
        } else {
            DownloadAction::Full { bytes: full_bytes }
        };
        MapDecision {
            var: self.var.clone(),
            dir: self.dir,
            upload,
            download,
        }
    }
}

/// What the plan stage hands stage-in: one [`InputPlan`] per map clause,
/// in clause order; the serialized payloads to put; the keys of cache
/// hits to fetch; and the decision record to publish.
#[derive(Default)]
pub(crate) struct StagePlan {
    pub inputs: Vec<InputPlan>,
    pub uploads: Vec<(String, PoolBuf)>,
    pub fetch_only: Vec<String>,
    pub map_plan: MapPlan,
}

impl StagePlan {
    /// The fingerprint of every input the resident ladder served: it has
    /// just checked the bytes against it, so the map phase's residency
    /// lookup need not checksum them again.
    pub(crate) fn verified(&self) -> HashMap<String, Fingerprint> {
        let served = self.inputs.iter().filter_map(|input| match &input.source {
            InputSource::Resident { fp, .. } => Some((input.var.clone(), *fp)),
            _ => None,
        });
        served.collect()
    }
}

/// Where a plan is made: the knobs, the job's key prefix and the pool
/// staging buffers are serialized into.
pub(crate) struct PlanSite<'a> {
    pub config: &'a CloudConfig,
    pub prefix: &'a str,
    pub pool: &'a Arc<BytePool>,
}

impl TransferMemory {
    /// Decide, per map clause of `region`, where the cluster's copy comes
    /// from. `resident` holds the inputs
    /// the recovery ladder already served. Computed before anything
    /// moves: no put is issued and no cache or ledger entry is written —
    /// the cache's hit/miss counters are the only state this moves, so a
    /// failed stage-in leaves nothing behind that a later offload could
    /// trust.
    pub(crate) fn plan(
        &mut self,
        region: &TargetRegion,
        env: &DataEnv,
        hints: &DataflowHints,
        mut resident: HashMap<String, Served>,
        site: &PlanSite<'_>,
    ) -> Result<StagePlan, OmpError> {
        let mut plan = StagePlan::default();
        for m in &region.maps {
            let mut input = InputPlan {
                var: m.name.clone(),
                dir: m.dir,
                tag: TypeTag::U8,
                elems: 0,
                full_bytes: 0,
                source: InputSource::NotUploaded,
                cache_fp: None,
            };
            if let Some(served) = resident.remove(&m.name) {
                input.tag = served.version.tag;
                input.full_bytes = served.bytes.len() as u64;
                input.source = InputSource::Resident {
                    key: served.version.key,
                    bytes: served.bytes,
                    fp: served.version.fp,
                };
            } else {
                let host = env.get_erased(&m.name)?;
                input.tag = host.tag();
                input.elems = host.len();
                input.full_bytes = host.byte_len() as u64;
                let staged = match m.dir.is_input() {
                    true => self.plan_upload(&mut input, host, region, site, &mut plan),
                    false => None,
                };
                if let Some((upload, payload)) = staged {
                    let key = format!("{}/in/{}", site.prefix, m.name);
                    plan.uploads.push((key.clone(), payload));
                    input.source = InputSource::Staged { key, upload };
                }
            }
            plan.map_plan
                .decisions
                .push(input.decision(hints.keeps(&m.name)));
            plan.inputs.push(input);
        }
        Ok(plan)
    }

    /// Choose the cheapest legal way to get host input `host` cloud-side:
    /// delta-clean, cached or deduped (recorded on `input`, nothing to
    /// put), or narrowed, delta-patched or in full — returned as the
    /// upload decision and the payload to stage.
    fn plan_upload(
        &mut self,
        input: &mut InputPlan,
        host: &ErasedVec,
        region: &TargetRegion,
        site: &PlanSite<'_>,
        plan: &mut StagePlan,
    ) -> Option<(UploadAction, PoolBuf)> {
        let (config, pool) = (site.config, site.pool);
        // Serialize into a pooled staging buffer: the allocation is
        // recycled once the wire form is sealed.
        let mut bytes = pool.get(host.byte_len());
        host.write_bytes_into(&mut bytes);
        let full_bytes = input.full_bytes;
        // Delta first: a clean diff means the driver's ledger already holds
        // these bytes, so not even a cache hit's fetch is needed. The cache
        // entry stays as it is, for a later round without delta.
        let diff = config
            .delta_transfers
            .then(|| self.delta.diff(&input.var, &bytes));
        if diff == Some(DeltaDiff::Clean) {
            input.source = InputSource::DeltaClean {
                crc: gzlite::crc32(&bytes),
            };
            return None;
        }
        let cache_fp = config.data_caching.then(|| Fingerprint::of(&bytes));
        if let Some(fp) = cache_fp {
            if let CacheDecision::Hit { storage_key } = self.cache.check(&input.var, fp) {
                // Unchanged since the last offload: the staged object is
                // reused wholesale.
                plan.fetch_only.push(storage_key.clone());
                input.source = InputSource::Cached { key: storage_key };
                return None;
            }
        }
        // Dedupe: a byte-identical same-typed buffer already in this
        // job's upload set is shared, not re-shipped.
        let twin = plan.inputs.iter().find_map(|other| match &other.source {
            InputSource::Staged {
                key,
                upload: UploadAction::Full { .. },
            } if other.tag == input.tag => plan
                .uploads
                .iter()
                .any(|(k, payload)| k == key && payload[..] == bytes[..])
                .then(|| (other.var.clone(), key.clone())),
            _ => None,
        });
        if let Some((of, key)) = twin {
            input.source = InputSource::Alias { of, key };
            input.cache_fp = cache_fp;
            return None;
        }
        // Narrowing: a `map(to)` input partitioned in every loop
        // travels only up to its iteration hull; the cluster copy is
        // padded back to full length. `tofrom` buffers are exempt
        // (their untouched tail must round-trip bit-exactly through
        // the merge), and so are delta rounds (the ledger models
        // full payloads).
        if input.dir == MapDir::To && !config.delta_transfers {
            if let Some(n) = narrow_len(region, &input.var, input.elems) {
                let nbytes = n * (host.byte_len() / input.elems);
                let mut hull = pool.get(nbytes);
                host.write_range_bytes_into(0..n, &mut hull);
                let upload = UploadAction::Narrowed {
                    bytes: nbytes as u64,
                    full_bytes,
                };
                return Some((upload, hull));
            }
        }
        // Delta: ship only the tiles that differ from the last
        // committed payload.
        if let Some(DeltaDiff::Dirty(dirty)) = diff {
            let patch = self.delta.encode_patch(&bytes, &dirty);
            // A patch as large as the payload loses to a plain
            // upload: fall through.
            if patch.len() < bytes.len() {
                let upload = UploadAction::Delta {
                    dirty_tiles: dirty.len() as u32,
                    total_tiles: self.delta.tile_count(bytes.len()) as u32,
                    bytes: patch.len() as u64,
                    full_bytes,
                };
                return Some((upload, patch.into()));
            }
        }
        input.cache_fp = cache_fp;
        Some((UploadAction::Full { bytes: full_bytes }, bytes))
    }

    /// Build the cluster data environment from the payloads stage-in's
    /// round trip fetched, and — only now that the cloud side holds and
    /// has verified each payload — record it: the upload cache learns
    /// where an uploaded variable lives, the delta ledger takes the
    /// payload as the base the next round diffs against. Recording
    /// after materialization is what keeps a failed or faulty transfer
    /// from ever being trusted by a later offload.
    pub(crate) fn materialize(
        &mut self,
        inputs: &[InputPlan],
        mut fetched: HashMap<String, PoolBuf>,
        delta_on: bool,
    ) -> Result<DataEnv, String> {
        let mut cluster_env = DataEnv::new();
        for input in inputs {
            let payload = |key: &str| -> &[u8] {
                &fetched.get(key).expect("every staged input was fetched")[..]
            };
            let (var, tag) = (input.var.as_str(), input.tag);
            let value = match &input.source {
                // Narrowed prefix: pad back to full length. The tail is
                // never read by the region (that is what made the
                // narrowing legal), so identity values are fine.
                InputSource::Staged {
                    key,
                    upload: UploadAction::Narrowed { .. },
                } => {
                    let mut v = ErasedVec::identity(tag, input.elems, RedOp::BitOr);
                    v.write_at(0, &ErasedVec::from_bytes(tag, payload(key)));
                    v
                }
                // Delta patch: reconstruct the full payload against the
                // committed base, then — and only then — commit it as
                // the next round's base.
                InputSource::Staged {
                    key,
                    upload: UploadAction::Delta { .. },
                } => {
                    let full = self
                        .delta
                        .apply_patch(var, payload(key))
                        .map_err(|e| format!("delta patch for '{var}' failed to apply: {e}"))?;
                    self.delta.commit(var, &full);
                    ErasedVec::from_bytes(tag, &full)
                }
                // A full payload, put this round or by the earlier
                // offload the cache remembers.
                InputSource::Staged { key, .. } | InputSource::Cached { key } => {
                    let bytes = payload(key);
                    if let Some(fp) = input.cache_fp {
                        self.cache.record(var, fp, key.clone());
                    }
                    if delta_on {
                        self.delta.commit(var, bytes);
                    }
                    ErasedVec::from_bytes(tag, bytes)
                }
                // The cluster reads the producer's output in place
                // (here: the driver-side copy of the committed key).
                InputSource::Resident { bytes, .. } => ErasedVec::from_bytes(tag, bytes),
                // Never left the host: the cluster copy is the ledger's
                // committed payload (byte-identical by definition).
                InputSource::DeltaClean { .. } => ErasedVec::from_bytes(
                    tag,
                    self.delta
                        .payload(var)
                        .expect("a clean diff implies a committed base"),
                ),
                // The alias shares its source's materialized buffer and
                // staged object — and seeds the delta ledger with it, so
                // a later delta round diffs the alias against this
                // payload instead of paying a fresh full upload.
                InputSource::Alias { of, key } => {
                    let v = ErasedVec::clone(
                        cluster_env
                            .get_erased(of)
                            .expect("a dedupe source precedes its alias in map order"),
                    );
                    if let Some(fp) = input.cache_fp {
                        self.cache.record(var, fp, key.clone());
                    }
                    if delta_on {
                        self.delta.commit(var, &v.to_bytes());
                    }
                    v
                }
                InputSource::NotUploaded => continue,
            };
            cluster_env.insert_erased(var, value);
            // A staged payload has exactly one reader: hand its buffer
            // back now, so the next input's copy reuses the allocation.
            // (A cached object may be shared by several inputs.)
            if let InputSource::Staged { key, .. } = &input.source {
                fetched.remove(key);
            }
        }
        Ok(cluster_env)
    }
}

/// Allocate on the driver every mapped variable whose host contents
/// never cross the wire — output-only and `alloc` — full-size (paper
/// Fig. 3 step 7; sizes come with the job submission). Shared by a
/// region's stage-in and a `target data` scope's entry.
pub(crate) fn allocate_outputs(
    cluster_env: &mut DataEnv,
    host_env: &DataEnv,
    maps: &[MapClause],
) -> Result<(), OmpError> {
    for m in maps.iter().filter(|m| !m.dir.is_input()) {
        let host = host_env.get_erased(&m.name)?;
        let zeroed = ErasedVec::identity(host.tag(), host.len(), RedOp::BitOr);
        cluster_env.insert_erased(&m.name, zeroed);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use omp_model::{PartitionSpec, TargetRegion};

    fn payload(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 7 + 3) as u8).collect()
    }

    #[test]
    fn diff_reports_no_base_then_clean_then_dirty() {
        let mut ledger = DeltaLedger::new(16);
        let data = payload(100);
        assert_eq!(ledger.diff("x", &data), DeltaDiff::NoBase);
        ledger.commit("x", &data);
        assert_eq!(ledger.diff("x", &data), DeltaDiff::Clean);
        let mut changed = data.clone();
        changed[40] ^= 0xFF; // tile 2
        changed[99] ^= 0x01; // tile 6 (short tail tile)
        assert_eq!(ledger.diff("x", &changed), DeltaDiff::Dirty(vec![2, 6]));
        // A length change invalidates the base.
        assert_eq!(ledger.diff("x", &payload(101)), DeltaDiff::NoBase);
    }

    #[test]
    fn patch_roundtrip_reconstructs_exactly() {
        let mut ledger = DeltaLedger::new(16);
        let base = payload(100);
        ledger.commit("x", &base);
        let mut next = base.clone();
        next[0] = 0xAA;
        next[95] = 0xBB;
        let DeltaDiff::Dirty(dirty) = ledger.diff("x", &next) else {
            panic!("expected dirty tiles");
        };
        let patch = ledger.encode_patch(&next, &dirty);
        assert!(DeltaLedger::is_patch(&patch));
        assert!(
            patch.len() < next.len(),
            "patch must beat a full upload here"
        );
        assert_eq!(ledger.apply_patch("x", &patch).unwrap(), next);
    }

    #[test]
    fn apply_patch_rejects_drifted_base() {
        let mut ledger = DeltaLedger::new(16);
        let base = payload(64);
        ledger.commit("x", &base);
        let mut next = base.clone();
        next[5] = 0;
        let DeltaDiff::Dirty(dirty) = ledger.diff("x", &next) else {
            panic!("expected dirty tiles");
        };
        let patch = ledger.encode_patch(&next, &dirty);
        // Drift the base after the patch was cut: apply must detect it.
        let mut drifted = base.clone();
        drifted[30] ^= 0xFF;
        ledger.commit("x", &drifted);
        assert!(ledger.apply_patch("x", &patch).is_err());
    }

    #[test]
    fn apply_patch_rejects_garbage() {
        let mut ledger = DeltaLedger::new(16);
        ledger.commit("x", &payload(64));
        assert!(ledger.apply_patch("x", b"nope").is_err());
        assert!(ledger.apply_patch("x", &[0u8; 40]).is_err());
        let patch = ledger.encode_patch(&payload(64), &[1]);
        assert!(ledger.apply_patch("x", &patch[..patch.len() - 1]).is_err());
        assert!(ledger.apply_patch("y", &patch).is_err(), "unknown base");
    }

    fn narrowable_region(trip: usize) -> TargetRegion {
        TargetRegion::builder("narrow")
            .map_to("x")
            .map_from("y")
            .parallel_for(trip, |l| {
                l.partition("x", PartitionSpec::rows(2))
                    .partition("y", PartitionSpec::rows(2))
                    .body(|_, _, _| {})
            })
            .build()
            .unwrap()
    }

    #[test]
    fn narrowing_trims_to_the_union_hull() {
        // 4 iterations × 2 rows touch elements [0, 8) of a 20-element
        // buffer: 12 elements never travel.
        let region = narrowable_region(4);
        assert_eq!(narrow_len(&region, "x", 20), Some(8));
        // Exact-fit buffers cannot narrow.
        assert_eq!(narrow_len(&region, "x", 8), None);
        // Unpartitioned variables are broadcast whole.
        assert_eq!(narrow_len(&region, "z", 20), None);
    }

    #[test]
    fn narrowing_requires_a_spec_in_every_loop() {
        let region = TargetRegion::builder("two-loops")
            .map_to("x")
            .map_from("y")
            .parallel_for(4, |l| {
                l.partition("x", PartitionSpec::rows(1)).body(|_, _, _| {})
            })
            .parallel_for(4, |l| l.body(|_, _, _| {}))
            .build()
            .unwrap();
        // Loop 2 broadcasts x whole: no narrowing.
        assert_eq!(narrow_len(&region, "x", 100), None);
    }

    /// With caching and delta both on, an unchanged input is served from
    /// the driver's ledger — no store op at all — rather than re-fetched
    /// from the object the cache remembers; the cache entry survives for a
    /// round without delta.
    #[test]
    fn unchanged_input_is_delta_clean_before_it_is_a_cache_hit() {
        let region = TargetRegion::builder("r")
            .map_to("w")
            .map_from("y")
            .parallel_for(4, |l| l.body(|_, _, _| {}))
            .build()
            .unwrap();
        let w = payload(256);
        let mut env = DataEnv::new();
        env.insert("w", w.clone());
        env.insert("y", vec![0u8; 4]);
        let mut memory = TransferMemory {
            cache: UploadCache::new(),
            delta: DeltaLedger::new(64),
        };
        memory
            .cache
            .record("w", Fingerprint::of(&w), "job-0/in/w".into());
        memory.delta.commit("w", &w);
        let mut config = CloudConfig {
            data_caching: true,
            delta_transfers: true,
            ..CloudConfig::default()
        };
        let pool = BytePool::new();
        let mut source_of_w = |config: &CloudConfig| {
            let site = PlanSite {
                config,
                prefix: "job-1",
                pool: &pool,
            };
            let hints = DataflowHints::default();
            let mut plan = memory
                .plan(&region, &env, &hints, HashMap::new(), &site)
                .unwrap();
            assert!(plan.uploads.is_empty());
            (plan.inputs.swap_remove(0).source, plan.fetch_only)
        };
        let (source, fetch_only) = source_of_w(&config);
        assert!(matches!(source, InputSource::DeltaClean { crc } if crc == gzlite::crc32(&w)));
        assert!(fetch_only.is_empty(), "a clean diff fetches nothing");
        config.delta_transfers = false;
        let (source, fetch_only) = source_of_w(&config);
        assert!(matches!(source, InputSource::Cached { key } if key == "job-0/in/w"));
        assert_eq!(fetch_only, ["job-0/in/w"]);
    }

    #[test]
    fn map_plan_tallies_bytes_and_elisions() {
        let plan = MapPlan {
            decisions: vec![
                MapDecision {
                    var: "a".into(),
                    dir: MapDir::To,
                    upload: UploadAction::Full { bytes: 100 },
                    download: DownloadAction::Elided {
                        reason: ElideReason::DeadFrom,
                        full_bytes: 100,
                    },
                },
                MapDecision {
                    var: "b".into(),
                    dir: MapDir::To,
                    upload: UploadAction::Narrowed {
                        bytes: 40,
                        full_bytes: 100,
                    },
                    download: DownloadAction::Elided {
                        reason: ElideReason::DeadFrom,
                        full_bytes: 100,
                    },
                },
                MapDecision {
                    var: "c".into(),
                    dir: MapDir::ToFrom,
                    upload: UploadAction::Delta {
                        dirty_tiles: 2,
                        total_tiles: 10,
                        bytes: 28,
                        full_bytes: 200,
                    },
                    download: DownloadAction::Full { bytes: 200 },
                },
                MapDecision {
                    var: "y".into(),
                    dir: MapDir::From,
                    upload: UploadAction::Elided {
                        reason: ElideReason::DeadTo,
                        full_bytes: 50,
                    },
                    download: DownloadAction::Full { bytes: 50 },
                },
                MapDecision {
                    var: "tmp".into(),
                    dir: MapDir::Alloc,
                    upload: UploadAction::Elided {
                        reason: ElideReason::AllocOnly,
                        full_bytes: 30,
                    },
                    download: DownloadAction::Elided {
                        reason: ElideReason::AllocOnly,
                        full_bytes: 30,
                    },
                },
            ],
        };
        assert_eq!(plan.upload_bytes(), 100 + 40 + 28);
        assert_eq!(plan.download_bytes(), 200 + 50);
        assert_eq!(plan.uploads_elided(), 2);
        assert_eq!(plan.narrowed(), 1);
        assert_eq!(plan.delta_rounds(), 1);
        assert_eq!(plan.delta_dirty_tiles(), 2);
        assert_eq!(plan.upload_bytes_saved(), 60 + 172);
        assert!(plan.any());
        assert!(plan.decision_for("tmp").is_some());
        assert!(plan.decision_for("nope").is_none());
    }
}
