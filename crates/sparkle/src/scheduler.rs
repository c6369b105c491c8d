//! Elastic map-phase scheduler: pull-based dispatch, work stealing, and
//! speculation bookkeeping.
//!
//! The paper assigns `RDD_IN` partitions to executors statically, so the
//! map phase is bound by its slowest worker (Fig. 5). This module replaces
//! the push/round-robin model with a [`Dispatcher`] that executors *pull*
//! from — the cluster-scope analogue of OpenMP `schedule(dynamic)`:
//!
//! * **Dynamic dispatch** — tasks sit in a central queue; idle slots claim
//!   the next one, so a slow executor simply claims fewer tasks.
//! * **Work stealing** — tasks are seeded round-robin onto per-executor
//!   local queues (preserving the static placement as the *preferred*
//!   one); an idle executor with nothing local steals from the back of
//!   the most-loaded peer's queue.
//! * **Locality + delay scheduling** — a task whose input tile is already
//!   resident on executor `e` is seeded onto `e`'s local queue and
//!   protected from thieves for `locality_wait`; after that it is fair
//!   game (Zaharia et al.'s delay scheduling, degraded gracefully).
//! * **Speculation** — the driver watches running attempts and enqueues a
//!   duplicate for any task slower than `spec_factor ×` the running
//!   median; first writer wins, so results stay bitwise-identical.
//!
//! Executors that die simply stop claiming; whatever was seeded on their
//! local queue is *rescued* by any alive executor in every mode, which is
//! what lets a mid-job `kill_executor` fall out of dispatch instead of
//! waiting for the retry sweep.

use parking_lot::{Condvar, Mutex};
use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cluster-scope scheduling policy — the `[offload] schedule=` knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ScheduleMode {
    /// Partitions pre-assigned round-robin; executors run only their own
    /// share (the paper's baseline).
    Static,
    /// Central queue, pull-based claiming — `schedule(dynamic)` at
    /// cluster scope.
    Dynamic,
    /// Per-executor local queues plus stealing by idle executors.
    #[default]
    Stealing,
}

impl ScheduleMode {
    /// Parse `static | dynamic | stealing` (case-insensitive).
    pub fn parse(s: &str) -> Option<ScheduleMode> {
        match s.trim().to_ascii_lowercase().as_str() {
            "static" => Some(ScheduleMode::Static),
            "dynamic" => Some(ScheduleMode::Dynamic),
            "stealing" | "steal" | "work-stealing" => Some(ScheduleMode::Stealing),
            _ => None,
        }
    }

    /// Knob spelling, lowercase.
    pub fn as_str(&self) -> &'static str {
        match self {
            ScheduleMode::Static => "static",
            ScheduleMode::Dynamic => "dynamic",
            ScheduleMode::Stealing => "stealing",
        }
    }
}

impl std::str::FromStr for ScheduleMode {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ScheduleMode::parse(s).ok_or_else(|| {
            format!("unknown schedule mode {s:?} (expected static|dynamic|stealing)")
        })
    }
}

impl std::fmt::Display for ScheduleMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Reuse the OpenMP loop-clause type at cluster scope: an explicit
/// `schedule(...)` on the offloaded loop picks the cluster policy too.
/// `guided` maps to stealing — both adapt granularity to load.
impl From<omp_parfor::Schedule> for ScheduleMode {
    fn from(s: omp_parfor::Schedule) -> ScheduleMode {
        match s {
            omp_parfor::Schedule::Static { .. } => ScheduleMode::Static,
            omp_parfor::Schedule::Dynamic { .. } => ScheduleMode::Dynamic,
            omp_parfor::Schedule::Guided { .. } => ScheduleMode::Stealing,
        }
    }
}

/// Executor-quarantine policy: a decaying per-executor failure score
/// that, past a threshold, blacklists the executor for a penalty
/// window. A flapping machine (task failures, heartbeat misses) stops
/// receiving work — its queued tiles are rescued by healthy peers —
/// instead of burning the job's retry budget, and re-admits itself
/// automatically when the window expires.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuarantineConfig {
    /// Score at which an executor is quarantined. `0.0` disables
    /// quarantine entirely. A plain task failure scores 1.0, a
    /// heartbeat miss 0.5.
    pub threshold: f64,
    /// How long a tripped executor is blacklisted.
    pub penalty: Duration,
    /// Half-life of the failure score: after `decay` with no new
    /// failures, half the score is forgiven — isolated blips never
    /// accumulate into a trip.
    pub decay: Duration,
}

impl QuarantineConfig {
    /// Quarantine disabled (threshold 0).
    pub fn disabled() -> QuarantineConfig {
        QuarantineConfig {
            threshold: 0.0,
            penalty: Duration::ZERO,
            decay: Duration::ZERO,
        }
    }

    /// Whether the policy can trip at all.
    pub fn enabled(&self) -> bool {
        self.threshold > 0.0
    }
}

impl Default for QuarantineConfig {
    fn default() -> QuarantineConfig {
        QuarantineConfig::disabled()
    }
}

/// Per-job scheduling options, set on the context before an action runs.
#[derive(Debug, Clone)]
pub struct JobOptions {
    /// Dispatch policy.
    pub mode: ScheduleMode,
    /// Speculative re-execution threshold: a running task slower than
    /// `spec_factor ×` the median completed task gets a duplicate attempt.
    /// `0.0` disables speculation.
    pub spec_factor: f64,
    /// How long a locality-hinted task is protected from thieves.
    pub locality_wait: Duration,
    /// Executor blacklisting policy (disabled by default).
    pub quarantine: QuarantineConfig,
    /// A running executor that hasn't heartbeat for this long is scored
    /// as a miss. `ZERO` disables heartbeat monitoring.
    pub heartbeat_miss: Duration,
    /// The tenant this job runs for. Quarantine scores are kept per
    /// (tenant, executor): one tenant's failures never bench an
    /// executor for another tenant.
    pub tenant: String,
}

impl Default for JobOptions {
    fn default() -> JobOptions {
        JobOptions {
            mode: ScheduleMode::Stealing,
            spec_factor: 0.0,
            locality_wait: Duration::ZERO,
            quarantine: QuarantineConfig::disabled(),
            heartbeat_miss: Duration::ZERO,
            tenant: "default".to_string(),
        }
    }
}

/// Type-erased partition runner: compute partition `i` of the active job.
pub(crate) type Runner = Arc<dyn Fn(usize) -> Box<dyn Any + Send> + Send + Sync>;

/// State shared between an executor's handle, its slot threads and the
/// dispatcher (liveness, running count, injected slowdown).
pub(crate) struct ExecutorShared {
    alive: AtomicBool,
    running: AtomicUsize,
    /// f64 bits; 1.0 = nominal speed, 8.0 = 8× slower (straggler).
    slow_bits: AtomicU64,
    /// Heartbeat clock: slot threads stamp `epoch.elapsed()` here as
    /// they claim and finish work; the driver reads the age.
    epoch: Instant,
    beat_nanos: AtomicU64,
}

impl ExecutorShared {
    pub fn new() -> ExecutorShared {
        ExecutorShared {
            alive: AtomicBool::new(true),
            running: AtomicUsize::new(0),
            slow_bits: AtomicU64::new(1.0f64.to_bits()),
            epoch: Instant::now(),
            beat_nanos: AtomicU64::new(0),
        }
    }

    /// Stamp "this executor's threads are making progress".
    pub fn heartbeat(&self) {
        self.beat_nanos
            .store(self.epoch.elapsed().as_nanos() as u64, Ordering::Release);
    }

    /// Time since the last heartbeat.
    pub fn beat_age(&self) -> Duration {
        let now = self.epoch.elapsed().as_nanos() as u64;
        Duration::from_nanos(now.saturating_sub(self.beat_nanos.load(Ordering::Acquire)))
    }

    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::Acquire)
    }

    pub fn set_alive(&self, alive: bool) {
        self.alive.store(alive, Ordering::Release);
    }

    pub fn running(&self) -> usize {
        self.running.load(Ordering::Acquire)
    }

    pub fn slow_factor(&self) -> f64 {
        f64::from_bits(self.slow_bits.load(Ordering::Acquire))
    }

    pub fn set_slow_factor(&self, factor: f64) {
        self.slow_bits
            .store(factor.max(1.0).to_bits(), Ordering::Release);
    }
}

/// One queued task attempt.
struct QueueEntry {
    task: usize,
    attempt: usize,
    speculative: bool,
    /// Thieves must leave this entry alone until then (delay scheduling);
    /// the home executor claims it regardless.
    not_before: Option<Instant>,
}

/// A claimed unit of work, handed to an executor slot thread.
pub(crate) struct TaskUnit {
    pub job: u64,
    pub task: usize,
    pub attempt: usize,
    pub speculative: bool,
    pub stolen: bool,
    pub inject_failure: bool,
    pub runner: Runner,
}

/// What a slot thread should do next.
pub(crate) enum Claimed {
    Run(TaskUnit),
    Shutdown,
}

/// Everything the dispatcher tracks for the one active job (the context's
/// job lock serialises jobs, so one slot suffices).
struct ActiveJob {
    job: u64,
    mode: ScheduleMode,
    runner: Runner,
    /// Per-executor local queues (preferred placement).
    local: Vec<VecDeque<QueueEntry>>,
    /// Shared queue: dynamic seeds, retries, speculative duplicates.
    central: VecDeque<QueueEntry>,
    completed: Vec<bool>,
    /// Executors currently running an attempt of each task.
    running_on: Vec<Vec<usize>>,
    /// Start instant of the oldest running attempt per task.
    started: Vec<Option<Instant>>,
    steals: usize,
}

impl ActiveJob {
    /// Remove queue entries for already-completed tasks; true if the
    /// queues still hold claimable work for *some* executor.
    fn prune(&mut self) {
        let completed = &self.completed;
        self.central.retain(|e| !completed[e.task]);
        for q in &mut self.local {
            q.retain(|e| !completed[e.task]);
        }
    }

    fn queued_for(&self, exec: usize) -> usize {
        self.local.get(exec).map_or(0, |q| q.len())
    }
}

struct DispatchState {
    active: Option<ActiveJob>,
    shutdown: bool,
}

/// Per-(tenant, executor) quarantine health (touched on failures and
/// claim checks only — both rare next to task bodies).
struct ExecHealth {
    /// Decaying failure score.
    score: f64,
    /// When the score was last updated (decay reference point).
    scored_at: Instant,
    /// Blacklisted until this instant, when tripped.
    until: Option<Instant>,
    /// Last heartbeat miss recorded, to debounce the driver's tick.
    last_miss: Option<Instant>,
}

impl ExecHealth {
    fn new() -> ExecHealth {
        ExecHealth {
            score: 0.0,
            scored_at: Instant::now(),
            until: None,
            last_miss: None,
        }
    }

    /// Exponential forgiveness: halve the score every `half_life`.
    fn decay(&mut self, now: Instant, half_life: Duration) {
        if half_life.is_zero() {
            return;
        }
        let dt = now.duration_since(self.scored_at).as_secs_f64();
        self.score *= 0.5f64.powf(dt / half_life.as_secs_f64());
        self.scored_at = now;
    }
}

/// The shared scheduler: the driver seeds jobs, executor slot threads
/// claim work. One mutex + condvar — queues are short (one entry per
/// partition), so contention is negligible next to task bodies.
pub(crate) struct Dispatcher {
    state: Mutex<DispatchState>,
    work_cv: Condvar,
    execs: Vec<Arc<ExecutorShared>>,
    injected_failures: AtomicUsize,
    quarantine_cfg: Mutex<QuarantineConfig>,
    /// Quarantine health keyed by (tenant, executor index): one
    /// tenant's failure streak never raises another tenant's penalty
    /// on the same machine.
    health: Mutex<HashMap<String, Vec<ExecHealth>>>,
    /// Tenant of the active job — the scope failures and quarantine
    /// checks are scored against (the job lock serialises jobs).
    tenant: Mutex<String>,
    quarantine_trips: AtomicUsize,
    heartbeat_misses: AtomicUsize,
}

/// Driver-facing description of a job to seed.
pub(crate) struct JobSpec {
    pub job: u64,
    pub partitions: usize,
    pub options: JobOptions,
    /// Preferred executor per task (from tile residency); empty = none.
    pub locality: Vec<Option<usize>>,
    pub runner: Runner,
}

impl Dispatcher {
    pub fn new(execs: Vec<Arc<ExecutorShared>>) -> Dispatcher {
        Dispatcher {
            state: Mutex::new(DispatchState {
                active: None,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            execs,
            injected_failures: AtomicUsize::new(0),
            quarantine_cfg: Mutex::new(QuarantineConfig::disabled()),
            health: Mutex::new(HashMap::new()),
            tenant: Mutex::new("default".to_string()),
            quarantine_trips: AtomicUsize::new(0),
            heartbeat_misses: AtomicUsize::new(0),
        }
    }

    pub fn executor(&self, idx: usize) -> &Arc<ExecutorShared> {
        &self.execs[idx]
    }

    fn alive_executors(&self) -> Vec<usize> {
        (0..self.execs.len())
            .filter(|&e| self.execs[e].is_alive())
            .collect()
    }

    /// Alive executors outside quarantine — the preferred dispatch pool.
    fn healthy_executors(&self) -> Vec<usize> {
        (0..self.execs.len())
            .filter(|&e| self.execs[e].is_alive() && !self.is_quarantined(e))
            .collect()
    }

    /// The pool tasks are seeded to / retried on: healthy executors,
    /// falling back to merely-alive ones when every survivor is
    /// quarantined (a fully-blacklisted cluster still makes progress —
    /// quarantine sheds load, it must never wedge a job).
    fn dispatch_pool(&self) -> Vec<usize> {
        let healthy = self.healthy_executors();
        if healthy.is_empty() {
            self.alive_executors()
        } else {
            healthy
        }
    }

    /// Install the quarantine policy for subsequent scoring.
    pub fn set_quarantine_config(&self, cfg: QuarantineConfig) {
        *self.quarantine_cfg.lock() = cfg;
    }

    /// Is `exec` blacklisted for the active job's tenant? Expired
    /// windows clear lazily.
    pub fn is_quarantined(&self, exec: usize) -> bool {
        let tenant = self.tenant.lock().clone();
        self.is_quarantined_for(&tenant, exec)
    }

    /// Is `exec` blacklisted for `tenant` specifically? A tenant that
    /// has recorded no failures sees every executor as healthy,
    /// whatever its neighbours did to the same machine.
    pub fn is_quarantined_for(&self, tenant: &str, exec: usize) -> bool {
        let mut map = self.health.lock();
        let Some(health) = map.get_mut(tenant).and_then(|v| v.get_mut(exec)) else {
            return false;
        };
        match health.until {
            Some(until) if Instant::now() < until => true,
            Some(_) => {
                health.until = None;
                health.last_miss = None;
                false
            }
            None => false,
        }
    }

    /// Score a failed task attempt against `exec` (weight 1.0).
    pub fn record_task_failure(&self, exec: usize) {
        self.record_failure_weight(exec, 1.0);
    }

    /// Score a missed heartbeat against `exec` (weight 0.5), debounced
    /// to once per `window` so the driver tick doesn't multiply one
    /// stall into many misses.
    pub fn record_heartbeat_miss(&self, exec: usize, window: Duration) -> bool {
        let tenant = self.tenant.lock().clone();
        {
            let mut map = self.health.lock();
            let health = &mut Self::tenant_health(&mut map, &tenant, self.execs.len())[exec];
            let now = Instant::now();
            if health
                .last_miss
                .is_some_and(|at| now.duration_since(at) < window)
            {
                return false;
            }
            health.last_miss = Some(now);
        }
        self.heartbeat_misses.fetch_add(1, Ordering::Relaxed);
        self.record_failure_weight(exec, 0.5);
        true
    }

    /// The current tenant's health row, created on first touch.
    fn tenant_health<'a>(
        map: &'a mut HashMap<String, Vec<ExecHealth>>,
        tenant: &str,
        execs: usize,
    ) -> &'a mut Vec<ExecHealth> {
        if !map.contains_key(tenant) {
            map.insert(
                tenant.to_string(),
                (0..execs).map(|_| ExecHealth::new()).collect(),
            );
        }
        map.get_mut(tenant).expect("just inserted")
    }

    fn record_failure_weight(&self, exec: usize, weight: f64) {
        let cfg = *self.quarantine_cfg.lock();
        if !cfg.enabled() || exec >= self.execs.len() {
            return;
        }
        let tenant = self.tenant.lock().clone();
        let tripped = {
            let mut map = self.health.lock();
            let health = &mut Self::tenant_health(&mut map, &tenant, self.execs.len())[exec];
            let now = Instant::now();
            health.decay(now, cfg.decay);
            health.score += weight;
            // The epsilon absorbs the sliver of decay between
            // back-to-back failures, so "N failures at threshold N"
            // always trips; it is far below the 0.5 weight quantum.
            if health.until.is_none() && health.score >= cfg.threshold - 1e-3 {
                health.until = Some(now + cfg.penalty);
                health.score = 0.0; // a trip clears the slate
                true
            } else {
                false
            }
        };
        if tripped {
            self.quarantine_trips.fetch_add(1, Ordering::Relaxed);
            // Healthy peers should immediately rescue the queue.
            self.work_cv.notify_all();
        }
    }

    /// Total quarantine trips since the dispatcher was created.
    pub fn total_quarantine_trips(&self) -> usize {
        self.quarantine_trips.load(Ordering::Relaxed)
    }

    /// Total heartbeat misses recorded since creation.
    pub fn total_heartbeat_misses(&self) -> usize {
        self.heartbeat_misses.load(Ordering::Relaxed)
    }

    /// Arm the next `n` claims to fail (deterministic retry tests).
    pub fn inject_failures(&self, n: usize) {
        self.injected_failures.store(n, Ordering::SeqCst);
    }

    /// Seed the queues for a job. Fails fast when no executor is alive.
    /// Quarantined executors are skipped for seeding (unless every
    /// survivor is quarantined).
    pub fn submit_job(&self, spec: JobSpec) -> Result<(), crate::SparkError> {
        self.set_quarantine_config(spec.options.quarantine);
        // Scope quarantine scoring (and checks) to this job's tenant.
        spec.options.tenant.clone_into(&mut self.tenant.lock());
        let alive = self.dispatch_pool();
        if alive.is_empty() {
            return Err(crate::SparkError::NoExecutors);
        }
        let JobSpec {
            job,
            partitions,
            options,
            locality,
            runner,
        } = spec;
        let mut active = ActiveJob {
            job,
            mode: options.mode,
            runner,
            local: (0..self.execs.len()).map(|_| VecDeque::new()).collect(),
            central: VecDeque::new(),
            completed: vec![false; partitions],
            running_on: (0..partitions).map(|_| Vec::new()).collect(),
            started: vec![None; partitions],
            steals: 0,
        };
        let now = Instant::now();
        let hinted_until = (!options.locality_wait.is_zero()).then(|| now + options.locality_wait);
        for task in 0..partitions {
            let hint = locality
                .get(task)
                .copied()
                .flatten()
                .filter(|&e| e < self.execs.len() && alive.contains(&e));
            let entry = QueueEntry {
                task,
                attempt: 0,
                speculative: false,
                not_before: hint.and(hinted_until),
            };
            match (options.mode, hint) {
                // A resident tile pins the preferred executor in every mode.
                (_, Some(e)) => active.local[e].push_back(entry),
                (ScheduleMode::Dynamic, None) => active.central.push_back(entry),
                (ScheduleMode::Static | ScheduleMode::Stealing, None) => {
                    active.local[alive[task % alive.len()]].push_back(entry)
                }
            }
        }
        self.state.lock().active = Some(active);
        self.work_cv.notify_all();
        Ok(())
    }

    /// Queue a retry attempt for `task`. Retries go to the central queue
    /// (any executor may pick them up) except in static mode, where they
    /// go to the least-loaded alive executor.
    pub fn enqueue_retry(&self, job: u64, task: usize, attempt: usize) {
        self.enqueue_extra(job, task, attempt, false);
    }

    /// Queue a speculative duplicate of `task`. Claim skips speculative
    /// entries on executors already running the original, so the copy
    /// lands on a different (idle) machine.
    pub fn enqueue_speculative(&self, job: u64, task: usize, attempt: usize) {
        self.enqueue_extra(job, task, attempt, true);
    }

    fn enqueue_extra(&self, job: u64, task: usize, attempt: usize, speculative: bool) {
        let mut state = self.state.lock();
        let Some(active) = state.active.as_mut().filter(|a| a.job == job) else {
            return;
        };
        let entry = QueueEntry {
            task,
            attempt,
            speculative,
            not_before: None,
        };
        match active.mode {
            ScheduleMode::Static => {
                // Prefer a healthy executor not already running this task.
                let busy = active.running_on[task].clone();
                let target = self
                    .dispatch_pool()
                    .into_iter()
                    .filter(|e| !speculative || !busy.contains(e))
                    .min_by_key(|&e| active.queued_for(e) + self.execs[e].running());
                match target {
                    Some(e) => active.local[e].push_back(entry),
                    // Every alive executor is running it; central would
                    // never be scanned in static mode, so park it on the
                    // least-loaded alive queue anyway.
                    None => {
                        if let Some(e) = self.dispatch_pool().first().copied() {
                            active.local[e].push_back(entry);
                        }
                    }
                }
            }
            ScheduleMode::Dynamic | ScheduleMode::Stealing => active.central.push_back(entry),
        }
        drop(state);
        self.work_cv.notify_all();
    }

    /// Driver bookkeeping: the first successful attempt of `task` landed.
    /// Queued duplicates of it will be pruned instead of run.
    pub fn mark_completed(&self, job: u64, task: usize) {
        let mut state = self.state.lock();
        if let Some(active) = state.active.as_mut().filter(|a| a.job == job) {
            if let Some(done) = active.completed.get_mut(task) {
                *done = true;
            }
        }
    }

    /// Driver bookkeeping: one attempt of `task` reported (either way).
    pub fn attempt_settled(&self, job: u64, task: usize, executor: usize) {
        let mut state = self.state.lock();
        if let Some(active) = state.active.as_mut().filter(|a| a.job == job) {
            if let Some(on) = active.running_on.get_mut(task) {
                if let Some(pos) = on.iter().position(|&e| e == executor) {
                    on.swap_remove(pos);
                }
                if on.is_empty() {
                    active.started[task] = None;
                }
            }
        }
    }

    /// Tasks of `job` that have been running longer than `threshold`
    /// with no speculative duplicate queued or running yet.
    pub fn overdue_tasks(&self, job: u64, threshold: Duration) -> Vec<(usize, usize)> {
        let state = self.state.lock();
        let Some(active) = state.active.as_ref().filter(|a| a.job == job) else {
            return Vec::new();
        };
        let now = Instant::now();
        let queued_task_ids: Vec<usize> = active
            .central
            .iter()
            .chain(active.local.iter().flatten())
            .map(|e| e.task)
            .collect();
        active
            .started
            .iter()
            .enumerate()
            .filter(|(task, _)| !active.completed[*task])
            .filter(|(task, _)| active.running_on[*task].len() == 1)
            .filter(|(task, _)| !queued_task_ids.contains(task))
            .filter_map(|(task, started)| {
                let s = (*started)?;
                (now.duration_since(s) > threshold).then(|| (task, active.running_on[task][0]))
            })
            .collect()
    }

    /// True when nothing of `job` is running and no alive executor is
    /// left to claim the rest — the job can never finish.
    pub fn job_stalled(&self, job: u64) -> bool {
        let state = self.state.lock();
        let Some(active) = state.active.as_ref().filter(|a| a.job == job) else {
            return false;
        };
        let anything_running = active.running_on.iter().any(|on| !on.is_empty());
        !anything_running && self.alive_executors().is_empty()
    }

    /// Tear down the job's queues; returns the number of steals recorded.
    pub fn clear_job(&self, job: u64) -> usize {
        let mut state = self.state.lock();
        match state.active.as_ref() {
            Some(a) if a.job == job => state.active.take().map_or(0, |a| a.steals),
            _ => 0,
        }
    }

    /// Stop all slot threads (context shutdown).
    pub fn shutdown(&self) {
        self.state.lock().shutdown = true;
        self.work_cv.notify_all();
    }

    /// Wake sleeping slot threads (kill/revive changed liveness).
    pub fn poke(&self) {
        self.work_cv.notify_all();
    }

    /// Block until there is work for executor `exec` (or shutdown).
    /// Claim order: own local queue → central queue (dynamic/stealing) →
    /// steal from the most-loaded peer (stealing) → rescue entries
    /// seeded on dead or quarantined executors (every mode). A
    /// quarantined executor does not claim while any healthy peer
    /// exists; its queue is rescued like a dead one's.
    pub fn claim(&self, exec: usize) -> Claimed {
        let mut state = self.state.lock();
        loop {
            if state.shutdown {
                return Claimed::Shutdown;
            }
            let benched = self.is_quarantined(exec) && !self.healthy_executors().is_empty();
            if self.execs[exec].is_alive() && !benched {
                if let Some(unit) = self.try_claim_locked(&mut state, exec) {
                    return Claimed::Run(unit);
                }
            }
            // Re-check liveness / locality-wait expiry every few ms even
            // without an explicit poke.
            self.work_cv.wait_for(&mut state, Duration::from_millis(5));
        }
    }

    fn try_claim_locked(&self, state: &mut DispatchState, exec: usize) -> Option<TaskUnit> {
        let active = state.active.as_mut()?;
        active.prune();
        let now = Instant::now();
        let mode = active.mode;

        // Own queue first: home-field claims ignore `not_before`.
        let mut picked = take_claimable(&mut active.local[exec], &active.running_on, exec, None)
            .map(|e| (e, false));

        if picked.is_none() && mode != ScheduleMode::Static {
            picked = take_claimable(&mut active.central, &active.running_on, exec, None)
                .map(|e| (e, false));
        }

        if picked.is_none() && mode == ScheduleMode::Stealing {
            // Steal from the back of the most-loaded alive peer, honoring
            // the locality delay of hinted entries.
            let victim = (0..self.execs.len())
                .filter(|&v| v != exec && self.execs[v].is_alive())
                .max_by_key(|&v| active.local[v].len())
                .filter(|&v| !active.local[v].is_empty());
            if let Some(v) = victim {
                picked =
                    take_claimable_back(&mut active.local[v], &active.running_on, exec, Some(now))
                        .map(|e| (e, true));
            }
        }

        if picked.is_none() {
            // Rescue work stranded on dead or quarantined executors —
            // in every mode.
            for v in (0..self.execs.len()).filter(|&v| v != exec) {
                if self.execs[v].is_alive() && !self.is_quarantined(v) {
                    continue;
                }
                if let Some(e) =
                    take_claimable(&mut active.local[v], &active.running_on, exec, None)
                {
                    picked = Some((e, true));
                    break;
                }
            }
        }

        let (entry, stolen) = picked?;
        if stolen {
            active.steals += 1;
        }
        active.running_on[entry.task].push(exec);
        if active.started[entry.task].is_none() {
            active.started[entry.task] = Some(now);
        }
        self.execs[exec].running.fetch_add(1, Ordering::AcqRel);
        let inject = self.injected_failures.load(Ordering::SeqCst) > 0
            && self
                .injected_failures
                .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                .is_ok();
        Some(TaskUnit {
            job: active.job,
            task: entry.task,
            attempt: entry.attempt,
            speculative: entry.speculative,
            stolen,
            inject_failure: inject,
            runner: Arc::clone(&active.runner),
        })
    }

    /// A slot thread finished executing a unit (result already sent).
    pub fn finished(&self, exec: usize) {
        self.execs[exec].running.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Pop the first claimable entry from the front of `queue` for `exec`.
/// `now`: respect `not_before` (thief); `None`: ignore it (home/rescue).
fn take_claimable(
    queue: &mut VecDeque<QueueEntry>,
    running_on: &[Vec<usize>],
    exec: usize,
    now: Option<Instant>,
) -> Option<QueueEntry> {
    let idx = queue
        .iter()
        .position(|e| claimable(e, running_on, exec, now))?;
    queue.remove(idx)
}

/// Like [`take_claimable`] but scans from the back (steal the victim's
/// coldest work, leave its head for the victim).
fn take_claimable_back(
    queue: &mut VecDeque<QueueEntry>,
    running_on: &[Vec<usize>],
    exec: usize,
    now: Option<Instant>,
) -> Option<QueueEntry> {
    let idx = queue
        .iter()
        .rposition(|e| claimable(e, running_on, exec, now))?;
    queue.remove(idx)
}

fn claimable(
    entry: &QueueEntry,
    running_on: &[Vec<usize>],
    exec: usize,
    now: Option<Instant>,
) -> bool {
    // A speculative copy on the machine already running the original
    // would race itself — leave it for a genuinely idle executor.
    if entry.speculative && running_on[entry.task].contains(&exec) {
        return false;
    }
    match (entry.not_before, now) {
        (Some(nb), Some(now)) => now >= nb,
        _ => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Dispatcher {
        /// Queued entries currently seeded on `exec`'s local queue.
        fn queued_on(&self, exec: usize) -> usize {
            let state = self.state.lock();
            state.active.as_ref().map_or(0, |a| a.queued_for(exec))
        }
    }

    #[test]
    fn schedule_mode_parses_and_displays() {
        assert_eq!(ScheduleMode::parse("static"), Some(ScheduleMode::Static));
        assert_eq!(ScheduleMode::parse("Dynamic"), Some(ScheduleMode::Dynamic));
        assert_eq!(
            ScheduleMode::parse("stealing"),
            Some(ScheduleMode::Stealing)
        );
        assert_eq!(
            ScheduleMode::parse("work-stealing"),
            Some(ScheduleMode::Stealing)
        );
        assert_eq!(ScheduleMode::parse("round-robin"), None);
        assert_eq!(ScheduleMode::Stealing.to_string(), "stealing");
        assert_eq!("dynamic".parse::<ScheduleMode>(), Ok(ScheduleMode::Dynamic));
    }

    #[test]
    fn schedule_clause_maps_to_cluster_mode() {
        use omp_parfor::Schedule;
        assert_eq!(
            ScheduleMode::from(Schedule::Static { chunk: None }),
            ScheduleMode::Static
        );
        assert_eq!(
            ScheduleMode::from(Schedule::Dynamic { chunk: 4 }),
            ScheduleMode::Dynamic
        );
        assert_eq!(
            ScheduleMode::from(Schedule::Guided { min_chunk: 2 }),
            ScheduleMode::Stealing
        );
    }

    fn noop_runner() -> Runner {
        Arc::new(|_| Box::new(()) as Box<dyn Any + Send>)
    }

    fn dispatcher(n: usize) -> Dispatcher {
        Dispatcher::new((0..n).map(|_| Arc::new(ExecutorShared::new())).collect())
    }

    fn spec(job: u64, partitions: usize, options: JobOptions) -> JobSpec {
        JobSpec {
            job,
            partitions,
            options,
            locality: Vec::new(),
            runner: noop_runner(),
        }
    }

    #[test]
    fn static_mode_seeds_round_robin_and_keeps_tasks_home() {
        let d = dispatcher(2);
        let options = JobOptions {
            mode: ScheduleMode::Static,
            ..JobOptions::default()
        };
        d.submit_job(spec(1, 4, options)).unwrap();
        assert_eq!(d.queued_on(0), 2);
        assert_eq!(d.queued_on(1), 2);
        // Executor 1 drains its own two tasks, then finds nothing: static
        // mode never touches a live peer's queue.
        for _ in 0..2 {
            let Claimed::Run(unit) = d.claim(1) else {
                panic!("expected work")
            };
            assert!(!unit.stolen);
            d.finished(1);
            d.attempt_settled(1, unit.task, 1);
            d.mark_completed(1, unit.task);
        }
        assert_eq!(d.queued_on(1), 0);
        assert_eq!(d.queued_on(0), 2, "peer queue untouched in static mode");
        assert_eq!(d.clear_job(1), 0);
    }

    #[test]
    fn stealing_mode_takes_from_loaded_peer() {
        let d = dispatcher(2);
        let options = JobOptions {
            mode: ScheduleMode::Stealing,
            ..JobOptions::default()
        };
        d.submit_job(spec(2, 4, options)).unwrap();
        // Executor 1 claims its own two, then steals both of executor 0's.
        let mut stolen = 0;
        for _ in 0..4 {
            let Claimed::Run(unit) = d.claim(1) else {
                panic!("expected work")
            };
            stolen += unit.stolen as usize;
            d.finished(1);
            d.attempt_settled(2, unit.task, 1);
            d.mark_completed(2, unit.task);
        }
        assert_eq!(stolen, 2);
        assert_eq!(d.clear_job(2), 2, "steal count survives to clear_job");
    }

    #[test]
    fn dead_executor_work_is_rescued_even_in_static_mode() {
        let d = dispatcher(2);
        let options = JobOptions {
            mode: ScheduleMode::Static,
            ..JobOptions::default()
        };
        d.submit_job(spec(3, 4, options)).unwrap();
        d.executor(0).set_alive(false);
        for _ in 0..4 {
            let Claimed::Run(unit) = d.claim(1) else {
                panic!("expected work")
            };
            d.finished(1);
            d.attempt_settled(3, unit.task, 1);
            d.mark_completed(3, unit.task);
        }
        assert_eq!(d.queued_on(0), 0, "stranded work rescued");
        d.clear_job(3);
    }

    #[test]
    fn locality_wait_delays_thieves_but_not_home() {
        let d = dispatcher(2);
        let options = JobOptions {
            mode: ScheduleMode::Stealing,
            locality_wait: Duration::from_secs(60),
            ..JobOptions::default()
        };
        let mut s = spec(4, 2, options);
        s.locality = vec![Some(0), Some(0)]; // both tiles resident on exec 0
        d.submit_job(s).unwrap();
        // Hinted entries are invisible to thieves inside the wait window…
        let mut state = d.state.lock();
        assert!(d.try_claim_locked(&mut state, 1).is_none());
        // …but the home executor claims them immediately.
        assert!(d.try_claim_locked(&mut state, 0).is_some());
        drop(state);
        d.finished(0);
        d.clear_job(4);
    }

    #[test]
    fn speculative_copy_avoids_executor_running_the_original() {
        let d = dispatcher(2);
        let options = JobOptions {
            mode: ScheduleMode::Dynamic,
            ..JobOptions::default()
        };
        d.submit_job(spec(5, 1, options)).unwrap();
        let Claimed::Run(unit) = d.claim(0) else {
            panic!("expected work")
        };
        assert_eq!(unit.task, 0);
        d.enqueue_speculative(5, 0, 0);
        // Executor 0 is running the original; it must not claim the copy.
        let mut state = d.state.lock();
        assert!(d.try_claim_locked(&mut state, 0).is_none());
        let copy = d
            .try_claim_locked(&mut state, 1)
            .expect("idle peer claims the copy");
        assert!(copy.speculative);
        drop(state);
        d.finished(0);
        d.finished(1);
        d.clear_job(5);
    }

    #[test]
    fn submit_with_no_alive_executor_errors() {
        let d = dispatcher(1);
        d.executor(0).set_alive(false);
        let err = d.submit_job(spec(6, 1, JobOptions::default()));
        assert!(matches!(err, Err(crate::SparkError::NoExecutors)));
    }

    fn quarantine_options(threshold: f64) -> JobOptions {
        JobOptions {
            quarantine: QuarantineConfig {
                threshold,
                penalty: Duration::from_secs(60),
                decay: Duration::from_secs(60),
            },
            ..JobOptions::default()
        }
    }

    #[test]
    fn failure_score_trips_quarantine_at_threshold() {
        let d = dispatcher(2);
        d.set_quarantine_config(quarantine_options(2.0).quarantine);
        d.record_task_failure(0);
        assert!(!d.is_quarantined(0), "one failure is below threshold");
        d.record_task_failure(0);
        assert!(d.is_quarantined(0), "second failure trips");
        assert!(!d.is_quarantined(1));
        assert_eq!(d.total_quarantine_trips(), 1);
        assert_eq!(d.healthy_executors(), vec![1]);
    }

    #[test]
    fn quarantine_scores_are_tenant_scoped() {
        // Tenant A hammering executor 0 must not raise tenant B's
        // penalty on the same machine.
        let d = dispatcher(2);
        let mut options = quarantine_options(2.0);
        options.tenant = "alice".to_string();
        d.submit_job(spec(20, 1, options)).unwrap();
        d.record_task_failure(0);
        d.record_task_failure(0);
        assert!(d.is_quarantined(0), "alice tripped executor 0");
        assert!(d.is_quarantined_for("alice", 0));
        assert!(
            !d.is_quarantined_for("bob", 0),
            "bob never saw a failure on executor 0"
        );
        d.clear_job(20);

        // A job for bob sees a fully healthy cluster.
        let mut options = quarantine_options(2.0);
        options.tenant = "bob".to_string();
        d.submit_job(spec(21, 2, options)).unwrap();
        assert!(!d.is_quarantined(0), "bob's view of executor 0 is clean");
        assert_eq!(d.healthy_executors(), vec![0, 1]);
        // One failure for bob stays below *bob's* threshold even though
        // alice already burned her budget on the same executor.
        d.record_task_failure(0);
        assert!(!d.is_quarantined(0));
        d.clear_job(21);

        // Back under alice, the trip is still in force.
        let mut options = quarantine_options(2.0);
        options.tenant = "alice".to_string();
        d.submit_job(spec(22, 1, options)).unwrap();
        assert!(d.is_quarantined(0), "alice's penalty window survives");
        d.clear_job(22);
    }

    #[test]
    fn score_decays_between_failures() {
        let d = dispatcher(1);
        d.set_quarantine_config(QuarantineConfig {
            threshold: 2.0,
            penalty: Duration::from_secs(60),
            decay: Duration::from_millis(5), // aggressive half-life
        });
        d.record_task_failure(0);
        std::thread::sleep(Duration::from_millis(40)); // score ≈ 1/256
        d.record_task_failure(0);
        assert!(
            !d.is_quarantined(0),
            "forgiven blips must not accumulate into a trip"
        );
    }

    #[test]
    fn quarantine_expires_after_the_penalty_window() {
        let d = dispatcher(2);
        d.set_quarantine_config(QuarantineConfig {
            threshold: 1.0,
            penalty: Duration::from_millis(20),
            decay: Duration::from_secs(60),
        });
        d.record_task_failure(1);
        assert!(d.is_quarantined(1));
        std::thread::sleep(Duration::from_millis(30));
        assert!(!d.is_quarantined(1), "penalty window decayed");
        assert_eq!(d.healthy_executors(), vec![0, 1]);
    }

    #[test]
    fn seeding_avoids_a_quarantined_executor_and_drops_its_hints() {
        let d = dispatcher(2);
        let options = JobOptions {
            mode: ScheduleMode::Static,
            ..quarantine_options(1.0)
        };
        // Trip executor 0 *before* the job: seeding must avoid it.
        d.set_quarantine_config(options.quarantine);
        d.record_task_failure(0);
        assert!(d.is_quarantined(0));
        d.submit_job(spec(7, 4, options)).unwrap();
        assert_eq!(d.queued_on(0), 0, "no seeds on the benched executor");
        assert_eq!(d.queued_on(1), 4);
        d.clear_job(7);
        let mut s = spec(8, 1, quarantine_options(1.0));
        s.locality = vec![Some(0)];
        d.submit_job(s).unwrap();
        assert_eq!(
            d.queued_on(0),
            0,
            "hint on a quarantined executor is dropped"
        );
        d.clear_job(8);
    }

    #[test]
    fn mid_job_quarantine_strands_no_work() {
        // Tasks seeded onto an executor that trips *during* the job are
        // rescued by healthy peers, exactly like a dead executor's.
        let d = dispatcher(2);
        let options = JobOptions {
            mode: ScheduleMode::Static,
            ..quarantine_options(1.0)
        };
        d.submit_job(spec(10, 4, options)).unwrap();
        assert_eq!(d.queued_on(0), 2);
        d.record_task_failure(0);
        assert!(d.is_quarantined(0));
        for _ in 0..4 {
            let Claimed::Run(unit) = d.claim(1) else {
                panic!("expected work")
            };
            d.finished(1);
            d.attempt_settled(10, unit.task, 1);
            d.mark_completed(10, unit.task);
        }
        assert_eq!(d.queued_on(0), 0, "benched executor's queue rescued");
        d.clear_job(10);
    }

    #[test]
    fn all_quarantined_cluster_still_dispatches() {
        let d = dispatcher(2);
        let options = quarantine_options(1.0);
        d.set_quarantine_config(options.quarantine);
        d.record_task_failure(0);
        d.record_task_failure(1);
        assert!(d.healthy_executors().is_empty());
        // Seeding falls back to the alive pool: the job must not wedge.
        d.submit_job(spec(9, 2, options)).unwrap();
        assert_eq!(d.queued_on(0) + d.queued_on(1), 2);
        let Claimed::Run(unit) = d.claim(0) else {
            panic!("a fully-quarantined cluster must still hand out work")
        };
        d.finished(0);
        d.attempt_settled(9, unit.task, 0);
        d.clear_job(9);
    }

    #[test]
    fn heartbeat_misses_are_debounced_and_scored() {
        let d = dispatcher(1);
        d.set_quarantine_config(QuarantineConfig {
            threshold: 1.0,
            penalty: Duration::from_secs(60),
            decay: Duration::from_secs(60),
        });
        let window = Duration::from_secs(5);
        assert!(d.record_heartbeat_miss(0, window));
        assert!(
            !d.record_heartbeat_miss(0, window),
            "same stall, same window: one miss"
        );
        assert_eq!(d.total_heartbeat_misses(), 1);
        assert!(!d.is_quarantined(0), "0.5 < threshold 1.0");
        d.record_task_failure(0);
        assert!(
            d.is_quarantined(0),
            "the miss and a task failure share one score"
        );
    }

    #[test]
    fn executor_heartbeat_clock_ages() {
        let e = ExecutorShared::new();
        e.heartbeat();
        assert!(e.beat_age() < Duration::from_millis(100));
        std::thread::sleep(Duration::from_millis(20));
        assert!(e.beat_age() >= Duration::from_millis(20));
        e.heartbeat();
        assert!(e.beat_age() < Duration::from_millis(20));
    }
}
