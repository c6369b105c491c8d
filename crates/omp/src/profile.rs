//! Execution profiles — the measurement surface the paper's evaluation is
//! built on.
//!
//! Fig. 5 of the paper decomposes every offloaded run into three parts:
//! *host-target communication* (compression + transmission between the
//! local machine and cloud storage), *Spark overhead* (scheduling and
//! intra-cluster communication), and *computation time* (the parallel
//! loop-body execution). Every device plug-in fills an [`ExecProfile`]
//! with exactly that decomposition, so the figure harnesses can read it
//! off uniformly whether the numbers come from real threads or the
//! discrete-event model.

/// Why a region could not complete on the device it was dispatched to
/// and was re-executed on the host.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FallbackReason {
    /// The device reported itself unreachable before execution started.
    Unavailable,
    /// The device was up but degraded: its circuit breaker is open after
    /// consecutive failed offloads.
    BreakerOpen,
    /// The device started the region but aborted mid-flight.
    MidFlight,
    /// The device resumed the region from its checkpoint journal as many
    /// times as the resume budget allowed and still could not finish.
    ResumeExhausted,
}

impl std::fmt::Display for FallbackReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            FallbackReason::Unavailable => "unavailable",
            FallbackReason::BreakerOpen => "breaker open",
            FallbackReason::MidFlight => "failed mid-flight",
            FallbackReason::ResumeExhausted => "resume exhausted",
        })
    }
}

/// What the inter-region dataflow runtime did — the only declaration of
/// these six counters. [`ExecProfile::dataflow`] is what a device reports
/// for one region (hits, misses, elided downloads, repairs);
/// [`DagReport::dataflow`](crate::DagReport::dataflow) is the sum over a
/// DAG's regions, its recovery replays and its drain, plus the two
/// events the DAG scheduler itself decides (stage fallbacks, lineage
/// recomputes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DataflowSummary {
    /// Inputs the scheduler hinted resident and the device served from
    /// the producer's resident output instead of a host upload. Exactly
    /// one per hand-off: a stage that fails on a lost buffer publishes
    /// no profile, and the version-pinned reads of a recovery replay are
    /// not hits.
    pub resident_hits: u32,
    /// Hinted resident inputs whose driver-side entry had vanished and
    /// was reinstated from the newest lineage version.
    pub resident_misses: u32,
    /// Outputs kept device-resident for a later consumer instead of
    /// being downloaded to the host.
    pub elided_downloads: u32,
    /// Producing regions re-executed on their device to regenerate a
    /// lost resident buffer (lineage recovery).
    pub lineage_recomputes: u32,
    /// DAG stages run on the host individually — the device was down,
    /// failed mid-flight, or lost a buffer past recovery — while the
    /// rest of the chain stayed where it was.
    pub stage_fallbacks: u32,
    /// Resident reads whose driver-side copy was damaged or gone and
    /// repaired from the durable store copy.
    pub resident_repairs: u32,
}

impl DataflowSummary {
    /// Whether the dataflow runtime did anything observable.
    pub fn any(&self) -> bool {
        *self != DataflowSummary::default()
    }
}

impl std::ops::AddAssign for DataflowSummary {
    fn add_assign(&mut self, other: DataflowSummary) {
        self.resident_hits += other.resident_hits;
        self.resident_misses += other.resident_misses;
        self.elided_downloads += other.elided_downloads;
        self.lineage_recomputes += other.lineage_recomputes;
        self.stage_fallbacks += other.stage_fallbacks;
        self.resident_repairs += other.resident_repairs;
    }
}

/// Timing/traffic breakdown of one offloaded target region.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecProfile {
    /// Name of the device that executed the region.
    pub device: String,
    /// Host ↔ device transfer time in seconds (incl. compression).
    pub host_comm_s: f64,
    /// Device-internal overhead in seconds (scheduling, intra-cluster
    /// communication, serialization — "Spark overhead" in Fig. 5).
    pub overhead_s: f64,
    /// Parallel kernel execution time in seconds.
    pub compute_s: f64,
    /// Raw bytes mapped `to` the device.
    pub bytes_to_device: u64,
    /// Raw bytes mapped `from` the device.
    pub bytes_from_device: u64,
    /// Bytes actually on the wire toward the device (post-compression).
    pub wire_bytes_to: u64,
    /// Bytes actually on the wire from the device (post-compression).
    pub wire_bytes_from: u64,
    /// Number of device tasks (tiles) executed.
    pub tasks: u64,
    /// Wall time saved by pipelining: work (compression, store I/O,
    /// result merging) that ran concurrently with another stage instead
    /// of serially after it. Zero when every stage ran back to back.
    pub overlap_s: f64,
    /// Critical-path CPU seconds of the transfer pipelines (compression +
    /// decompression): per-worker busy time normalized by the pool width,
    /// so the figure is comparable to wall time.
    pub compress_busy_s: f64,
    /// Critical-path store seconds of the transfer pipelines (puts +
    /// gets), normalized like `compress_busy_s`.
    pub store_busy_s: f64,
    /// Inter-region dataflow counters of this region (all zero outside
    /// a `depend`/`nowait` DAG). An eager region that drained a pending
    /// DAG carries that DAG's sum as well.
    pub dataflow: DataflowSummary,
    /// Free-form annotations ("fallback to host", codec choices, ...).
    pub notes: Vec<String>,
    /// Device this region was originally dispatched to, when it could
    /// not complete there and the runtime fell back to another device.
    pub fallback_from: Option<String>,
    /// Why the fallback happened — set alongside `fallback_from`.
    pub fallback_reason: Option<FallbackReason>,
}

impl ExecProfile {
    /// New profile for `device`.
    pub fn new(device: impl Into<String>) -> Self {
        ExecProfile {
            device: device.into(),
            ..Default::default()
        }
    }

    /// Total wall time of the offload (`OmpCloud-full` in Fig. 4).
    pub fn total_s(&self) -> f64 {
        self.host_comm_s + self.overhead_s + self.compute_s
    }

    /// Time spent inside the device (`OmpCloud-spark` in Fig. 4).
    pub fn device_s(&self) -> f64 {
        self.overhead_s + self.compute_s
    }

    /// Append an annotation.
    pub fn note(&mut self, msg: impl Into<String>) {
        self.notes.push(msg.into());
    }

    /// Fraction of total time that is pure computation (0..=1).
    pub fn compute_fraction(&self) -> f64 {
        let total = self.total_s();
        if total <= 0.0 {
            0.0
        } else {
            self.compute_s / total
        }
    }
}

impl std::fmt::Display for ExecProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "[{}] total {:.3}s = host-comm {:.3}s + overhead {:.3}s + compute {:.3}s ({} tasks, {}/{} raw bytes to/from, {}/{} on wire, {:.3}s overlapped)",
            self.device,
            self.total_s(),
            self.host_comm_s,
            self.overhead_s,
            self.compute_s,
            self.tasks,
            self.bytes_to_device,
            self.bytes_from_device,
            self.wire_bytes_to,
            self.wire_bytes_from,
            self.overlap_s,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_compose() {
        let p = ExecProfile {
            host_comm_s: 1.0,
            overhead_s: 2.0,
            compute_s: 3.0,
            ..ExecProfile::new("test")
        };
        assert_eq!(p.total_s(), 6.0);
        assert_eq!(p.device_s(), 5.0);
        assert!((p.compute_fraction() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_profile_fraction_is_zero() {
        assert_eq!(ExecProfile::new("x").compute_fraction(), 0.0);
    }

    #[test]
    fn display_mentions_device() {
        let p = ExecProfile::new("cloud");
        assert!(p.to_string().contains("[cloud]"));
    }
}
