//! Deterministic fault injection for the offload path.
//!
//! WANs and spot instances fail in ways a PCIe bus never does: requests
//! get throttled, packets flip bits, latency spikes, whole endpoints
//! disappear. The mock backends could only "fail the next N ops" — a
//! counter hack that cannot express *scenarios*. [`ChaosStore`] is a
//! composable [`ObjectStore`] decorator (sibling of
//! [`LatencyStore`](crate::LatencyStore)) driven by a seeded
//! [`FaultPlan`]: an ordered list of rules, each matching an op type and
//! key pattern and firing on a deterministic trigger (nth matching op,
//! every-nth, first-n, or a seeded coin flip). Any fault scenario —
//! transient blips, permanent outages, payload corruption, latency
//! spikes, or any mix — becomes a reproducible test case.

use crate::{ObjectStore, StorageError, StoreHandle};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// What a firing rule does to the operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Fail with [`StorageError::Transient`] (throttling, network blip).
    Transient,
    /// Fail with [`StorageError::Unavailable`] (endpoint down).
    Unavailable,
    /// Flip one deterministic bit of the payload: on puts the corrupted
    /// bytes reach the store (at-rest damage), on gets the response is
    /// corrupted in flight (a re-read heals).
    Corrupt,
    /// Sleep this long, then let the op proceed (latency spike). Delays
    /// compose with a later error rule firing on the same op.
    Delay(Duration),
    /// The store dies: the firing op fails with
    /// [`StorageError::Unavailable`] and a latch flips so *every*
    /// subsequent op fails too (lists go empty, `exists` false) until
    /// [`ChaosStore::revive`]. Scoped to a manifest or journal key via
    /// [`FaultRule::on_keys`], this is the classic
    /// kill-between-put-and-manifest crash that a two-phase commit must
    /// survive.
    Kill,
    /// The object vanishes under the reader: a firing *get* deletes the
    /// stored object first, then proceeds — so the op (and every retry)
    /// fails with the store's natural not-found error, exactly like a
    /// lifecycle rule or racing cleaner expiring the key. Scoped to
    /// `/dataflow/` keys via [`FaultRule::on_keys`], this models a
    /// resident buffer lost mid-chain. Only get-matching rules expire;
    /// the kind is ignored on other ops.
    Expire,
}

/// The operation class being evaluated against a rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChaosOp {
    Put,
    Get,
    Delete,
    List,
}

/// Which operations a rule can match.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpFilter {
    /// Writes only.
    Put,
    /// Reads only.
    Get,
    /// Deletions only (storage hygiene, orphan GC).
    Delete,
    /// Listings only; the rule's key pattern matches the *prefix*. An
    /// error kind makes the listing come back empty — an unreachable
    /// index, not a thrown error, because [`ObjectStore::list`] is
    /// infallible by contract.
    List,
    /// The data path: puts and gets. Deliberately excludes
    /// delete/list so seeded schedules written before those ops were
    /// injectable keep their op-index arithmetic.
    Any,
}

impl OpFilter {
    fn matches(self, op: ChaosOp) -> bool {
        match self {
            OpFilter::Put => op == ChaosOp::Put,
            OpFilter::Get => op == ChaosOp::Get,
            OpFilter::Delete => op == ChaosOp::Delete,
            OpFilter::List => op == ChaosOp::List,
            OpFilter::Any => matches!(op, ChaosOp::Put | ChaosOp::Get),
        }
    }
}

/// When a matching op actually fires the rule. `OpIndex`/`EveryNth`/
/// `FirstN` count *ops matching this rule's filter* (0-based), so a
/// schedule written against op indices survives unrelated traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Trigger {
    /// Every matching op.
    Always,
    /// Exactly the nth matching op.
    OpIndex(u64),
    /// Matching ops `n-1, 2n-1, 3n-1, …` (one in `n`).
    EveryNth(u64),
    /// The first `n` matching ops.
    FirstN(u64),
    /// Independent seeded coin flip per matching op.
    Probability(f64),
}

/// One scheduled fault: filter + trigger + effect.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultRule {
    /// Which ops the rule considers.
    pub op: OpFilter,
    /// Only keys containing this substring (`None` = every key).
    pub key_contains: Option<String>,
    /// When a considered op fires.
    pub trigger: Trigger,
    /// What happens when it fires.
    pub kind: FaultKind,
}

impl FaultRule {
    /// Rule matching every key.
    pub fn new(op: OpFilter, trigger: Trigger, kind: FaultKind) -> FaultRule {
        FaultRule {
            op,
            key_contains: None,
            trigger,
            kind,
        }
    }

    /// Restrict the rule to keys containing `pat`.
    pub fn on_keys(mut self, pat: impl Into<String>) -> FaultRule {
        self.key_contains = Some(pat.into());
        self
    }
}

/// A seeded, ordered fault schedule. Rules are evaluated in order per
/// op; delays accumulate, and the first error rule that fires decides
/// the op's fate.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// Empty plan (injects nothing) with the given RNG seed.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            rules: Vec::new(),
        }
    }

    /// Append a rule.
    pub fn rule(mut self, rule: FaultRule) -> FaultPlan {
        self.rules.push(rule);
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The scheduled rules, in evaluation order.
    pub fn rules(&self) -> &[FaultRule] {
        &self.rules
    }

    /// Whether the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }
}

/// Snapshot of the faults a [`ChaosStore`] actually injected — tests use
/// these to prove a scenario really exercised the resilience path.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ChaosStats {
    /// Transient errors returned.
    pub transient: u64,
    /// Unavailable errors returned.
    pub unavailable: u64,
    /// Payloads corrupted (puts + gets).
    pub corruptions: u64,
    /// Latency spikes inserted.
    pub delays: u64,
    /// Kill rules that fired (the latch events, not the ops refused
    /// afterwards — those count as `unavailable`).
    pub kills: u64,
    /// Objects deleted under their reader by [`FaultKind::Expire`].
    pub expirations: u64,
}

impl ChaosStats {
    /// Total faults of every kind.
    pub fn total(&self) -> u64 {
        self.transient
            + self.unavailable
            + self.corruptions
            + self.delays
            + self.kills
            + self.expirations
    }
}

struct RuleState {
    rule: FaultRule,
    /// Ops that matched this rule's filter so far.
    matched: AtomicU64,
}

/// Outcome of evaluating the plan for one op.
struct Verdict {
    error: Option<StorageError>,
    /// Salt for the deterministic bit flip, when a corruption rule fired.
    corrupt_salt: Option<u64>,
    /// Delete the object before serving the get (expiry fired).
    expire: bool,
}

/// [`ObjectStore`] decorator executing a [`FaultPlan`]. Puts, gets,
/// deletes and listings are injectable (via the matching [`OpFilter`]);
/// `exists`/`size`/`checksum` pass through untouched unless the store
/// has been [killed](FaultKind::Kill), after which every op reports the
/// endpoint gone.
pub struct ChaosStore {
    inner: StoreHandle,
    seed: u64,
    rules: Vec<RuleState>,
    rng: parking_lot::Mutex<StdRng>,
    killed: AtomicBool,
    transient: AtomicU64,
    unavailable: AtomicU64,
    corruptions: AtomicU64,
    delays: AtomicU64,
    kills: AtomicU64,
    expirations: AtomicU64,
}

impl ChaosStore {
    /// Wrap `inner` under `plan`.
    pub fn new(inner: StoreHandle, plan: FaultPlan) -> ChaosStore {
        ChaosStore {
            inner,
            seed: plan.seed,
            rng: parking_lot::Mutex::new(StdRng::seed_from_u64(plan.seed)),
            rules: plan
                .rules
                .into_iter()
                .map(|rule| RuleState {
                    rule,
                    matched: AtomicU64::new(0),
                })
                .collect(),
            killed: AtomicBool::new(false),
            transient: AtomicU64::new(0),
            unavailable: AtomicU64::new(0),
            corruptions: AtomicU64::new(0),
            delays: AtomicU64::new(0),
            kills: AtomicU64::new(0),
            expirations: AtomicU64::new(0),
        }
    }

    /// Faults injected so far.
    pub fn stats(&self) -> ChaosStats {
        ChaosStats {
            transient: self.transient.load(Ordering::Relaxed),
            unavailable: self.unavailable.load(Ordering::Relaxed),
            corruptions: self.corruptions.load(Ordering::Relaxed),
            delays: self.delays.load(Ordering::Relaxed),
            kills: self.kills.load(Ordering::Relaxed),
            expirations: self.expirations.load(Ordering::Relaxed),
        }
    }

    /// True once a [`FaultKind::Kill`] rule has fired.
    pub fn is_killed(&self) -> bool {
        self.killed.load(Ordering::Relaxed)
    }

    /// Clear the kill latch: the endpoint comes back (its contents are
    /// whatever landed before the crash — nothing is rolled back).
    pub fn revive(&self) {
        self.killed.store(false, Ordering::Relaxed);
    }

    /// Evaluate the plan for one op: sleep firing delays immediately,
    /// return the error/corruption decision for the caller to apply.
    fn evaluate(&self, op: ChaosOp, key: &str) -> Verdict {
        if self.killed.load(Ordering::Relaxed) {
            self.unavailable.fetch_add(1, Ordering::Relaxed);
            return Verdict {
                error: Some(StorageError::Unavailable(format!(
                    "chaos: store killed; op on {key} refused"
                ))),
                corrupt_salt: None,
                expire: false,
            };
        }
        let mut verdict = Verdict {
            error: None,
            corrupt_salt: None,
            expire: false,
        };
        for state in &self.rules {
            if !state.rule.op.matches(op) {
                continue;
            }
            if let Some(pat) = &state.rule.key_contains {
                if !key.contains(pat.as_str()) {
                    continue;
                }
            }
            let idx = state.matched.fetch_add(1, Ordering::Relaxed);
            let fires = match state.rule.trigger {
                Trigger::Always => true,
                Trigger::OpIndex(n) => idx == n,
                Trigger::EveryNth(n) => n > 0 && (idx + 1) % n == 0,
                Trigger::FirstN(n) => idx < n,
                Trigger::Probability(p) => self.rng.lock().gen_bool(p),
            };
            if !fires {
                continue;
            }
            match state.rule.kind {
                FaultKind::Delay(d) => {
                    self.delays.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(d);
                }
                FaultKind::Transient if verdict.error.is_none() => {
                    self.transient.fetch_add(1, Ordering::Relaxed);
                    verdict.error = Some(StorageError::Transient(format!(
                        "chaos: injected transient fault on {key}"
                    )));
                }
                FaultKind::Unavailable if verdict.error.is_none() => {
                    self.unavailable.fetch_add(1, Ordering::Relaxed);
                    verdict.error = Some(StorageError::Unavailable(format!(
                        "chaos: injected outage on {key}"
                    )));
                }
                FaultKind::Corrupt if verdict.corrupt_salt.is_none() => {
                    verdict.corrupt_salt = Some(idx);
                }
                FaultKind::Expire if op == ChaosOp::Get && !verdict.expire => {
                    self.expirations.fetch_add(1, Ordering::Relaxed);
                    verdict.expire = true;
                }
                FaultKind::Kill => {
                    self.kills.fetch_add(1, Ordering::Relaxed);
                    self.killed.store(true, Ordering::Relaxed);
                    verdict.error = Some(StorageError::Unavailable(format!(
                        "chaos: store killed on {key}"
                    )));
                    // A dead store answers nothing else; later rules moot.
                    verdict.corrupt_salt = None;
                    verdict.expire = false;
                    break;
                }
                _ => {}
            }
        }
        verdict
    }

    /// Flip one bit of `data` at a position derived from `(seed, salt)`
    /// via splitmix64 — a scenario replays bit-identically.
    fn flip_bit(&self, data: &mut [u8], salt: u64) {
        if data.is_empty() {
            return;
        }
        let mut z = self
            .seed
            .wrapping_add(salt)
            .wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        let pos = (z as usize) % data.len();
        data[pos] ^= 1 << ((z >> 61) & 0x7);
        self.corruptions.fetch_add(1, Ordering::Relaxed);
    }
}

impl ObjectStore for ChaosStore {
    fn put(&self, key: &str, mut data: Vec<u8>) -> Result<(), StorageError> {
        let verdict = self.evaluate(ChaosOp::Put, key);
        if let Some(e) = verdict.error {
            return Err(e);
        }
        if let Some(salt) = verdict.corrupt_salt {
            // At-rest damage: the corrupted bytes land in the store.
            self.flip_bit(&mut data, salt);
        }
        self.inner.put(key, data)
    }

    fn get(&self, key: &str) -> Result<Vec<u8>, StorageError> {
        let verdict = self.evaluate(ChaosOp::Get, key);
        if let Some(e) = verdict.error {
            return Err(e);
        }
        if verdict.expire {
            // Lifecycle expiry: the object vanishes under the reader, so
            // this get — and every retry after it — fails with the
            // store's own not-found error.
            let _ = self.inner.delete(key);
        }
        let mut data = self.inner.get(key)?;
        if let Some(salt) = verdict.corrupt_salt {
            // In-flight damage: the stored object stays clean, so a
            // re-fetch heals.
            self.flip_bit(&mut data, salt);
        }
        Ok(data)
    }

    fn delete(&self, key: &str) -> Result<(), StorageError> {
        let verdict = self.evaluate(ChaosOp::Delete, key);
        if let Some(e) = verdict.error {
            return Err(e);
        }
        self.inner.delete(key)
    }

    fn exists(&self, key: &str) -> bool {
        !self.is_killed() && self.inner.exists(key)
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        // `list` is infallible by contract, so an error verdict models
        // an unreachable index: the listing comes back empty.
        let verdict = self.evaluate(ChaosOp::List, prefix);
        if verdict.error.is_some() {
            return Vec::new();
        }
        self.inner.list(prefix)
    }

    fn size(&self, key: &str) -> Option<u64> {
        if self.is_killed() {
            return None;
        }
        self.inner.size(key)
    }

    fn checksum(&self, key: &str) -> Option<u32> {
        if self.is_killed() {
            return None;
        }
        self.inner.checksum(key)
    }

    fn kind(&self) -> &'static str {
        self.inner.kind()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::s3::S3Store;
    use std::sync::Arc;
    use std::time::Instant;

    fn chaos(plan: FaultPlan) -> (ChaosStore, S3Store) {
        let inner = S3Store::standalone("chaos");
        (ChaosStore::new(Arc::new(inner.clone()), plan), inner)
    }

    #[test]
    fn empty_plan_is_transparent() {
        let (store, _) = chaos(FaultPlan::new(1));
        store.put("k", vec![1, 2, 3]).unwrap();
        assert_eq!(store.get("k").unwrap(), vec![1, 2, 3]);
        assert_eq!(store.stats().total(), 0);
    }

    #[test]
    fn op_index_trigger_fires_exactly_once() {
        let (store, _) = chaos(FaultPlan::new(2).rule(FaultRule::new(
            OpFilter::Put,
            Trigger::OpIndex(1),
            FaultKind::Transient,
        )));
        store.put("a", vec![1]).unwrap(); // put #0: clean
        let e = store.put("b", vec![2]).unwrap_err(); // put #1: fault
        assert!(e.is_transient());
        store.put("c", vec![3]).unwrap(); // put #2: clean again
        assert_eq!(store.stats().transient, 1);
        // Gets never matched the Put filter.
        assert_eq!(store.get("a").unwrap(), vec![1]);
    }

    #[test]
    fn every_nth_trigger_fires_periodically() {
        let (store, _) = chaos(FaultPlan::new(3).rule(FaultRule::new(
            OpFilter::Get,
            Trigger::EveryNth(3),
            FaultKind::Transient,
        )));
        store.put("k", vec![7]).unwrap();
        let mut errors = 0;
        for _ in 0..9 {
            if store.get("k").is_err() {
                errors += 1;
            }
        }
        assert_eq!(errors, 3, "one in three gets faults");
    }

    #[test]
    fn get_corruption_flips_one_bit_and_heals_on_refetch() {
        let (store, inner) = chaos(FaultPlan::new(7).rule(FaultRule::new(
            OpFilter::Get,
            Trigger::OpIndex(0),
            FaultKind::Corrupt,
        )));
        let data = vec![0xAAu8; 64];
        store.put("k", data.clone()).unwrap();
        let first = store.get("k").unwrap();
        assert_ne!(first, data, "first read corrupted in flight");
        let differing: Vec<usize> = (0..64).filter(|&i| first[i] != data[i]).collect();
        assert_eq!(differing.len(), 1, "exactly one byte flipped");
        assert_eq!(
            (first[differing[0]] ^ data[differing[0]]).count_ones(),
            1,
            "exactly one bit flipped"
        );
        assert_eq!(store.get("k").unwrap(), data, "re-fetch heals");
        assert_eq!(inner.get("k").unwrap(), data, "stored object never damaged");
        assert_eq!(store.stats().corruptions, 1);
    }

    #[test]
    fn put_corruption_damages_the_stored_object() {
        let (store, inner) = chaos(FaultPlan::new(9).rule(FaultRule::new(
            OpFilter::Put,
            Trigger::Always,
            FaultKind::Corrupt,
        )));
        let data = vec![0x55u8; 32];
        store.put("k", data.clone()).unwrap();
        assert_ne!(inner.get("k").unwrap(), data, "corrupted at rest");
        assert_eq!(store.stats().corruptions, 1);
    }

    #[test]
    fn delay_rule_sleeps_then_proceeds() {
        let (store, _) = chaos(FaultPlan::new(4).rule(FaultRule::new(
            OpFilter::Any,
            Trigger::Always,
            FaultKind::Delay(Duration::from_millis(15)),
        )));
        let t = Instant::now();
        store.put("k", vec![1]).unwrap();
        assert!(t.elapsed() >= Duration::from_millis(15));
        assert_eq!(store.get("k").unwrap(), vec![1]);
        assert_eq!(store.stats().delays, 2);
    }

    #[test]
    fn key_pattern_scopes_the_rule() {
        let (store, _) = chaos(FaultPlan::new(5).rule(
            FaultRule::new(OpFilter::Put, Trigger::Always, FaultKind::Unavailable).on_keys("in/"),
        ));
        assert!(matches!(
            store.put("in/x", vec![1]),
            Err(StorageError::Unavailable(_))
        ));
        store.put("out/x", vec![1]).unwrap();
        assert_eq!(store.stats().unavailable, 1);
    }

    #[test]
    fn probability_trigger_is_reproducible_per_seed() {
        let run = |seed| {
            let (store, _) = chaos(FaultPlan::new(seed).rule(FaultRule::new(
                OpFilter::Put,
                Trigger::Probability(0.3),
                FaultKind::Transient,
            )));
            (0..200)
                .filter(|i| store.put(&format!("k{i}"), vec![1]).is_err())
                .count()
        };
        assert_eq!(run(11), run(11), "same seed, same schedule");
        let hits = run(11);
        assert!((20..=100).contains(&hits), "~30% of 200, got {hits}");
    }

    #[test]
    fn delete_and_list_ops_are_injectable() {
        let (store, _) = chaos(
            FaultPlan::new(21)
                .rule(FaultRule::new(
                    OpFilter::Delete,
                    Trigger::OpIndex(0),
                    FaultKind::Transient,
                ))
                .rule(
                    FaultRule::new(OpFilter::List, Trigger::Always, FaultKind::Unavailable)
                        .on_keys("out/"),
                ),
        );
        store.put("out/x", vec![1]).unwrap();
        store.put("in/y", vec![2]).unwrap();
        let e = store.delete("out/x").unwrap_err();
        assert!(e.is_transient());
        store.delete("out/x").unwrap(); // delete #1: clean
        assert!(
            store.list("out/").is_empty(),
            "faulted listing reads as empty"
        );
        assert_eq!(
            store.list(""),
            vec!["in/y".to_string()],
            "other prefixes ok"
        );
        assert_eq!(store.stats().transient, 1);
        assert_eq!(store.stats().unavailable, 1);
    }

    #[test]
    fn any_filter_still_means_the_data_path_only() {
        // Op-index schedules written before delete/list became
        // injectable must keep their arithmetic: `Any` ignores both.
        let (store, _) = chaos(FaultPlan::new(22).rule(FaultRule::new(
            OpFilter::Any,
            Trigger::OpIndex(1),
            FaultKind::Transient,
        )));
        store.put("a", vec![1]).unwrap(); // data op #0
        store.delete("nope").unwrap(); // not counted
        assert_eq!(store.list(""), vec!["a".to_string()]); // not counted
        assert!(store.get("a").is_err(), "data op #1 faults");
    }

    #[test]
    fn kill_latches_the_whole_endpoint() {
        let (store, inner) = chaos(FaultPlan::new(23).rule(
            FaultRule::new(OpFilter::Put, Trigger::OpIndex(2), FaultKind::Kill).on_keys("t/"),
        ));
        store.put("t/0", vec![0]).unwrap();
        store.put("t/1", vec![1]).unwrap();
        let e = store.put("t/2", vec![2]).unwrap_err();
        assert!(matches!(e, StorageError::Unavailable(_)));
        assert!(store.is_killed());
        // Everything after the crash fails, not just the matching keys.
        assert!(store.get("t/0").is_err());
        assert!(store.delete("t/0").is_err());
        assert!(store.list("t/").is_empty());
        assert!(!store.exists("t/0"));
        assert_eq!(store.size("t/0"), None);
        assert_eq!(store.stats().kills, 1);
        // The objects that landed before the crash survive it.
        assert_eq!(inner.get("t/0").unwrap(), vec![0]);
        store.revive();
        assert_eq!(store.get("t/0").unwrap(), vec![0]);
        assert_eq!(store.list("t/").len(), 2);
    }

    #[test]
    fn kill_between_put_and_manifest_scopes_to_the_commit_key() {
        // The two-phase-commit crash: staged tiles land, the store dies
        // on the manifest publish, the region is never committed.
        let (store, inner) = chaos(FaultPlan::new(24).rule(
            FaultRule::new(OpFilter::Put, Trigger::Always, FaultKind::Kill).on_keys("manifest"),
        ));
        store.put("r/_tmp/out/a", vec![1]).unwrap();
        store.put("r/_tmp/out/b", vec![2]).unwrap();
        assert!(store.put("r/manifest", vec![3]).is_err());
        assert!(store.is_killed());
        assert!(!inner.exists("r/manifest"), "commit never became visible");
        assert_eq!(inner.list("r/_tmp/").len(), 2, "orphans left for GC");
    }

    #[test]
    fn checksum_reports_the_clean_stored_object() {
        let (store, inner) = chaos(FaultPlan::new(8).rule(FaultRule::new(
            OpFilter::Get,
            Trigger::Always,
            FaultKind::Corrupt,
        )));
        let data = vec![3u8; 100];
        store.put("k", data.clone()).unwrap();
        let expected = gzlite::crc32(&data);
        assert_eq!(store.checksum("k"), Some(expected));
        assert_eq!(inner.checksum("k"), Some(expected));
        // The corrupted response disagrees with the checksum — exactly
        // what the integrity layer detects.
        let fetched = store.get("k").unwrap();
        assert_ne!(gzlite::crc32(&fetched), expected);
    }

    #[test]
    fn expire_deletes_the_object_and_every_retry_fails_naturally() {
        let (store, inner) = chaos(FaultPlan::new(9).rule(FaultRule::new(
            OpFilter::Get,
            Trigger::OpIndex(1),
            FaultKind::Expire,
        )));
        store.put("k", vec![5; 16]).unwrap();
        assert_eq!(store.get("k").unwrap(), vec![5; 16]); // get #0: clean
        let e = store.get("k").unwrap_err(); // get #1: expired under us
        assert!(matches!(e, StorageError::NotFound(_)), "got {e:?}");
        assert!(
            !inner.exists("k"),
            "object gone at rest, not just in-flight"
        );
        // Retries keep failing naturally — no chaos needed anymore.
        assert!(store.get("k").is_err());
        assert_eq!(store.stats().expirations, 1);
        assert_eq!(store.stats().total(), 1);
    }

    #[test]
    fn concurrent_scoped_plans_keep_independent_stats() {
        // Two scoped FaultPlans share one backing store, as two tenants'
        // chaos harnesses would. Each wrapper must count exactly the
        // faults its own plan injected — concurrency must neither leak
        // counts across wrappers nor lose any (conservation).
        let inner = S3Store::standalone("chaos-shared");
        let plan_a = FaultPlan::new(11).rule(
            FaultRule::new(OpFilter::Get, Trigger::Always, FaultKind::Transient)
                .on_keys("/tenant-a/"),
        );
        let plan_b = FaultPlan::new(12).rule(
            FaultRule::new(OpFilter::Get, Trigger::EveryNth(2), FaultKind::Transient)
                .on_keys("/tenant-b/"),
        );
        let store_a = Arc::new(ChaosStore::new(Arc::new(inner.clone()), plan_a));
        let store_b = Arc::new(ChaosStore::new(Arc::new(inner.clone()), plan_b));
        store_a.put("jobs/tenant-a/x", vec![1; 8]).unwrap();
        store_b.put("jobs/tenant-b/x", vec![2; 8]).unwrap();

        const GETS: u64 = 40;
        let ta = {
            let store = Arc::clone(&store_a);
            std::thread::spawn(move || {
                (0..GETS)
                    .filter(|_| store.get("jobs/tenant-a/x").is_err())
                    .count() as u64
            })
        };
        let tb = {
            let store = Arc::clone(&store_b);
            std::thread::spawn(move || {
                (0..GETS)
                    .filter(|_| store.get("jobs/tenant-b/x").is_err())
                    .count() as u64
            })
        };
        let errs_a = ta.join().unwrap();
        let errs_b = tb.join().unwrap();

        // Every observed error is counted by its own wrapper, and only
        // there: A's Always rule fails all 40, B's EveryNth(2) half.
        assert_eq!(errs_a, GETS);
        assert_eq!(errs_b, GETS / 2);
        assert_eq!(store_a.stats().transient, GETS);
        assert_eq!(store_b.stats().transient, GETS / 2);
        assert_eq!(
            store_a.stats().total() + store_b.stats().total(),
            errs_a + errs_b,
            "stats conserved across concurrent scoped plans"
        );
        // The shared inner store never saw a fault — the data at rest
        // is intact for both tenants.
        assert_eq!(inner.get("jobs/tenant-a/x").unwrap(), vec![1; 8]);
        assert_eq!(inner.get("jobs/tenant-b/x").unwrap(), vec![2; 8]);
    }

    #[test]
    fn expire_is_scoped_by_key_pattern_and_ignored_off_the_get_path() {
        let (store, inner) = chaos(FaultPlan::new(10).rule(
            FaultRule::new(OpFilter::Any, Trigger::Always, FaultKind::Expire).on_keys("/dataflow/"),
        ));
        store.put("omp/dataflow/d/v0/y", vec![1; 8]).unwrap();
        store.put("omp/in/x", vec![2; 8]).unwrap();
        // Puts match `Any` but Expire only acts on gets.
        assert!(inner.exists("omp/dataflow/d/v0/y"));
        assert!(store.get("omp/dataflow/d/v0/y").is_err());
        assert_eq!(store.get("omp/in/x").unwrap(), vec![2; 8]);
        assert_eq!(store.stats().expirations, 1);
    }
}
