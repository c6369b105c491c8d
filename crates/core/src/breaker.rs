//! Circuit breaker guarding the cloud device.
//!
//! Retries handle *blips*; they make outages worse. When a storage
//! endpoint or the Spark driver is genuinely down, every offload burns
//! its full retry/backoff budget before failing — and the next region
//! does it again. The breaker counts *consecutive* failed offload
//! attempts; at the configured threshold it opens, the device reports
//! itself unavailable, and `omp`'s ordinary device-selection fallback
//! runs subsequent regions on the host immediately. Any successful
//! offload closes it again.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Consecutive-failure circuit breaker. Threshold 0 disables it — the
/// breaker then never opens, matching a `breaker-threshold = 0` config.
#[derive(Debug)]
pub struct CircuitBreaker {
    threshold: u64,
    consecutive: AtomicU64,
    open: AtomicBool,
    trips: AtomicU64,
    total_failures: AtomicU64,
}

impl CircuitBreaker {
    /// Breaker opening after `threshold` consecutive failures.
    pub fn new(threshold: u64) -> CircuitBreaker {
        CircuitBreaker {
            threshold,
            consecutive: AtomicU64::new(0),
            open: AtomicBool::new(false),
            trips: AtomicU64::new(0),
            total_failures: AtomicU64::new(0),
        }
    }

    /// Record a failed offload attempt. Returns `true` when this failure
    /// tripped the breaker open.
    pub fn record_failure(&self) -> bool {
        self.total_failures.fetch_add(1, Ordering::Relaxed);
        let consecutive = self.consecutive.fetch_add(1, Ordering::SeqCst) + 1;
        if self.threshold > 0
            && consecutive >= self.threshold
            && !self.open.swap(true, Ordering::SeqCst)
        {
            self.trips.fetch_add(1, Ordering::Relaxed);
            return true;
        }
        false
    }

    /// Record a successful offload: the streak resets and the breaker
    /// closes.
    pub fn record_success(&self) {
        self.consecutive.store(0, Ordering::SeqCst);
        self.open.store(false, Ordering::SeqCst);
    }

    /// Is the breaker open (device degraded)?
    pub fn is_open(&self) -> bool {
        self.open.load(Ordering::SeqCst)
    }

    /// Current consecutive-failure streak.
    pub fn consecutive_failures(&self) -> u64 {
        self.consecutive.load(Ordering::SeqCst)
    }

    /// Times the breaker has tripped open over its lifetime.
    pub fn trips(&self) -> u64 {
        self.trips.load(Ordering::Relaxed)
    }

    /// Failed offload attempts over the breaker's lifetime.
    pub fn total_failures(&self) -> u64 {
        self.total_failures.load(Ordering::Relaxed)
    }

    /// Force the breaker closed and zero the streak (operator reset).
    pub fn reset(&self) {
        self.record_success();
    }
}

/// Per-tenant circuit breakers sharing one threshold. The default
/// tenant's breaker is pre-built (single-tenant programs pay one map
/// lookup, nothing else); every other tenant gets its own breaker on
/// first touch. Fault isolation is the point: one tenant's failure
/// streak opens *its* breaker and nobody else's.
#[derive(Debug)]
pub struct BreakerBank {
    threshold: u64,
    default: Arc<CircuitBreaker>,
    others: Mutex<HashMap<String, Arc<CircuitBreaker>>>,
}

/// The tenant name whose breaker [`BreakerBank::default_breaker`]
/// returns — what every region carries unless told otherwise.
pub const DEFAULT_TENANT: &str = "default";

impl BreakerBank {
    /// Bank whose breakers open after `threshold` consecutive failures.
    pub fn new(threshold: u64) -> BreakerBank {
        BreakerBank {
            threshold,
            default: Arc::new(CircuitBreaker::new(threshold)),
            others: Mutex::new(HashMap::new()),
        }
    }

    /// The breaker scoped to `tenant`, created on first touch.
    pub fn breaker_for(&self, tenant: &str) -> Arc<CircuitBreaker> {
        if tenant == DEFAULT_TENANT {
            return Arc::clone(&self.default);
        }
        let mut others = self.others.lock();
        Arc::clone(
            others
                .entry(tenant.to_string())
                .or_insert_with(|| Arc::new(CircuitBreaker::new(self.threshold))),
        )
    }

    /// The default tenant's breaker — the single-tenant view.
    pub fn default_breaker(&self) -> &CircuitBreaker {
        &self.default
    }

    /// Is `tenant`'s breaker open? Tenants never seen have closed
    /// breakers by construction.
    pub fn is_open_for(&self, tenant: &str) -> bool {
        if tenant == DEFAULT_TENANT {
            return self.default.is_open();
        }
        self.others.lock().get(tenant).is_some_and(|b| b.is_open())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opens_at_threshold_and_closes_on_success() {
        let b = CircuitBreaker::new(3);
        assert!(!b.record_failure());
        assert!(!b.record_failure());
        assert!(!b.is_open());
        assert!(b.record_failure(), "third consecutive failure trips");
        assert!(b.is_open());
        assert_eq!(b.trips(), 1);
        b.record_success();
        assert!(!b.is_open());
        assert_eq!(b.consecutive_failures(), 0);
    }

    #[test]
    fn success_resets_the_streak() {
        let b = CircuitBreaker::new(2);
        b.record_failure();
        b.record_success();
        assert!(!b.record_failure(), "streak restarted after success");
        assert!(!b.is_open());
        assert_eq!(b.total_failures(), 2, "lifetime count keeps growing");
    }

    #[test]
    fn threshold_zero_never_opens() {
        let b = CircuitBreaker::new(0);
        for _ in 0..100 {
            assert!(!b.record_failure());
        }
        assert!(!b.is_open());
        assert_eq!(b.trips(), 0);
    }

    #[test]
    fn trip_reported_once_per_open() {
        let b = CircuitBreaker::new(1);
        assert!(b.record_failure(), "first failure trips");
        assert!(!b.record_failure(), "already open: not a new trip");
        assert_eq!(b.trips(), 1);
        b.reset();
        assert!(b.record_failure(), "re-trips after reset");
        assert_eq!(b.trips(), 2);
    }

    #[test]
    fn bank_isolates_tenants() {
        let bank = BreakerBank::new(2);
        let a = bank.breaker_for("a");
        a.record_failure();
        a.record_failure();
        assert!(bank.is_open_for("a"));
        assert!(!bank.is_open_for("b"), "b's breaker never saw a failure");
        assert!(!bank.is_open_for(DEFAULT_TENANT));
        assert_eq!(a.trips(), 1);
    }

    #[test]
    fn bank_default_tenant_is_the_default_breaker() {
        let bank = BreakerBank::new(1);
        bank.breaker_for(DEFAULT_TENANT).record_failure();
        assert!(bank.default_breaker().is_open());
        assert!(bank.is_open_for(DEFAULT_TENANT));
        assert!(!bank.is_open_for("other"));
    }
}
