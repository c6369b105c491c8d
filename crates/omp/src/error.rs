//! Error type shared across the accelerator-model runtime and its device
//! plug-ins.

use crate::clause::Construct;
use crate::tenant::RejectReason;
use std::fmt;

/// Errors surfaced by the offloading runtime.
#[derive(Debug, Clone, PartialEq)]
pub enum OmpError {
    /// Region referenced a variable not present in the data environment.
    UnknownVariable(String),
    /// Typed access to a variable with a different element type.
    TypeMismatch {
        /// Variable name.
        var: String,
        /// Element type the caller asked for.
        expected: &'static str,
        /// Element type the buffer holds.
        actual: &'static str,
    },
    /// A partition spec evaluated outside its variable's bounds.
    PartitionOutOfBounds {
        /// Which iteration/bound failed and how.
        detail: String,
    },
    /// The selected device cannot run a construct used by the region
    /// (e.g. `barrier` on the cloud device, §III-D).
    UnsupportedConstruct {
        /// Device that refused.
        device: String,
        /// The offending construct.
        construct: Construct,
    },
    /// No device matched the selector and host fallback was disabled.
    NoDevice(String),
    /// The device exists but is not reachable right now.
    DeviceUnavailable {
        /// Device that was selected.
        device: String,
        /// Why it is unreachable.
        reason: String,
        /// The device resumed the region from its checkpoint journal as
        /// often as the resume budget allowed and still could not finish
        /// — "recovery was tried and lost", as opposed to an ordinary
        /// mid-flight abort. The registry's fallback record keys off this.
        resume_exhausted: bool,
    },
    /// Malformed target region (no loops, zero-length body, ...).
    InvalidRegion(String),
    /// Plug-in specific failure (storage, cluster, config, ...).
    Plugin {
        /// Device reporting the failure.
        device: String,
        /// Backend-specific description.
        detail: String,
    },
    /// The admission gate refused the submission: the tenant's window
    /// (or the whole service) is full, or the tenant was shed under
    /// overload. Typed backpressure — the caller should back off or
    /// route elsewhere instead of queueing without bound.
    Rejected {
        /// Tenant whose submission was refused.
        tenant: String,
        /// Why the gate said no.
        reason: RejectReason,
    },
    /// A device-resident dataflow buffer could not be served: the entry
    /// is gone or failed its integrity check and no durable copy could
    /// repair it. The DAG scheduler reacts by re-executing the producing
    /// region (lineage recovery) instead of failing the chain.
    ResidentLoss {
        /// Variable whose resident copy was lost.
        var: String,
        /// How the copy was lost.
        reason: ResidentLossReason,
    },
}

/// Why a device-resident buffer could not be served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResidentLossReason {
    /// No resident entry exists for the variable (deleted, GC'd, or
    /// never committed).
    Miss,
    /// An entry exists but every copy (driver-side and durable) failed
    /// its integrity check.
    Integrity,
}

impl fmt::Display for ResidentLossReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ResidentLossReason::Miss => "missing",
            ResidentLossReason::Integrity => "integrity check failed",
        })
    }
}

impl fmt::Display for OmpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OmpError::UnknownVariable(name) => {
                write!(
                    f,
                    "variable '{name}' is not mapped into the data environment"
                )
            }
            OmpError::TypeMismatch {
                var,
                expected,
                actual,
            } => {
                write!(
                    f,
                    "variable '{var}' holds {actual} elements but was accessed as {expected}"
                )
            }
            OmpError::PartitionOutOfBounds { detail } => {
                write!(f, "partition out of bounds: {detail}")
            }
            OmpError::UnsupportedConstruct { device, construct } => {
                write!(
                    f,
                    "device '{device}' does not support the '{construct}' construct"
                )
            }
            OmpError::NoDevice(selector) => write!(f, "no device matches selector '{selector}'"),
            OmpError::DeviceUnavailable { device, reason, .. } => {
                write!(f, "device '{device}' unavailable: {reason}")
            }
            OmpError::InvalidRegion(detail) => write!(f, "invalid target region: {detail}"),
            OmpError::Plugin { device, detail } => write!(f, "device '{device}' failed: {detail}"),
            OmpError::Rejected { tenant, reason } => {
                write!(f, "submission rejected for tenant '{tenant}': {reason}")
            }
            OmpError::ResidentLoss { var, reason } => {
                write!(f, "device-resident copy of '{var}' lost ({reason})")
            }
        }
    }
}

impl std::error::Error for OmpError {}
