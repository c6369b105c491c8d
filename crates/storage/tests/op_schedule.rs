//! The pipeline's I/O stage, from the store's side: which op starts when.
//! One job is one store op, taken first in, first out; the only ordering
//! between ops is that an object's get waits for its put to have
//! returned. Nothing here may hang, whatever a put does.

use cloud_storage::{
    ChaosStore, FaultKind, FaultPlan, FaultRule, LatencyStore, ObjectStore, OpFilter, RetryPolicy,
    S3Store, StorageError, StoreHandle, TransferConfig, TransferManager, Trigger,
};
use conformance::rng;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Op {
    Put,
    Get,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Edge {
    Start,
    End,
}

/// What a [`Recorder`] does to puts of keys containing its `bad` pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BadPut {
    /// A terminal error: the retry policy gives up at once.
    Fail,
    /// A bug in the backend.
    Panic,
}

/// One op as it started: what, on which key, and the issuing thread's id
/// and name.
type Issued = (Op, String, ThreadId, Option<String>);

/// [`ObjectStore`] decorator that logs the start and end of every put and
/// get in one global order, and the most ops it ever saw in flight.
struct Recorder {
    inner: StoreHandle,
    log: parking_lot::Mutex<Vec<(Op, Edge, String)>>,
    inflight: AtomicUsize,
    max_inflight: AtomicUsize,
    bad: Option<(&'static str, BadPut)>,
    /// Every op as it started, with the thread that issued it.
    threads: parking_lot::Mutex<Vec<Issued>>,
}

impl Recorder {
    fn new(inner: StoreHandle) -> Recorder {
        Recorder {
            inner,
            log: parking_lot::Mutex::new(Vec::new()),
            inflight: AtomicUsize::new(0),
            max_inflight: AtomicUsize::new(0),
            bad: None,
            threads: parking_lot::Mutex::new(Vec::new()),
        }
    }

    fn with_bad_put(mut self, pattern: &'static str, how: BadPut) -> Recorder {
        self.bad = Some((pattern, how));
        self
    }

    fn enter(&self, op: Op, key: &str) {
        let now = self.inflight.fetch_add(1, Ordering::SeqCst) + 1;
        self.max_inflight.fetch_max(now, Ordering::SeqCst);
        self.log.lock().push((op, Edge::Start, key.to_string()));
        let thread = std::thread::current();
        let name = thread.name().map(str::to_string);
        self.threads
            .lock()
            .push((op, key.to_string(), thread.id(), name));
    }

    fn leave(&self, op: Op, key: &str) {
        self.log.lock().push((op, Edge::End, key.to_string()));
        self.inflight.fetch_sub(1, Ordering::SeqCst);
    }

    fn log(&self) -> Vec<(Op, Edge, String)> {
        self.log.lock().clone()
    }

    /// The ops in the order they started.
    fn starts(&self) -> Vec<(Op, String)> {
        self.log()
            .into_iter()
            .filter(|(_, edge, _)| *edge == Edge::Start)
            .map(|(op, _, key)| (op, key))
            .collect()
    }

    fn max_inflight(&self) -> usize {
        self.max_inflight.load(Ordering::SeqCst)
    }

    /// Forget what was seen so far (the staging before the run under test).
    fn reset(&self) {
        self.log.lock().clear();
        self.threads.lock().clear();
        self.max_inflight.store(0, Ordering::SeqCst);
    }
}

impl ObjectStore for Recorder {
    fn put(&self, key: &str, data: Vec<u8>) -> Result<(), StorageError> {
        self.enter(Op::Put, key);
        let result = match self.bad {
            Some((pattern, how)) if key.contains(pattern) => match how {
                BadPut::Fail => Err(StorageError::Unavailable(format!("{key}: endpoint down"))),
                BadPut::Panic => panic!("{key}: backend bug"),
            },
            _ => self.inner.put(key, data),
        };
        self.leave(Op::Put, key);
        result
    }

    fn get(&self, key: &str) -> Result<Vec<u8>, StorageError> {
        self.enter(Op::Get, key);
        let result = self.inner.get(key);
        self.leave(Op::Get, key);
        result
    }

    fn delete(&self, key: &str) -> Result<(), StorageError> {
        self.inner.delete(key)
    }

    fn exists(&self, key: &str) -> bool {
        self.inner.exists(key)
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        self.inner.list(prefix)
    }

    fn size(&self, key: &str) -> Option<u64> {
        self.inner.size(key)
    }

    fn checksum(&self, key: &str) -> Option<u32> {
        self.inner.checksum(key)
    }

    fn kind(&self) -> &'static str {
        self.inner.kind()
    }
}

fn config() -> TransferConfig {
    TransferConfig {
        retry: RetryPolicy::default().without_backoff(),
        ..TransferConfig::default()
    }
}

/// A manager over a recorded store that takes `per_op` for every op.
fn recorded_manager(per_op: Duration) -> (TransferManager, Arc<Recorder>) {
    let slow = LatencyStore::new(Arc::new(S3Store::standalone("ops")), per_op);
    let recorder = Arc::new(Recorder::new(Arc::new(slow)));
    let manager = TransferManager::new(Arc::clone(&recorder) as StoreHandle, config());
    (manager, recorder)
}

/// In every run, for every key: each get starts after a put of that key
/// returned, unless the key was staged before the log began.
fn assert_gets_follow_their_puts(log: &[(Op, Edge, String)], staged_before: &[String]) {
    for (at, (op, edge, key)) in log.iter().enumerate() {
        if (*op, *edge) == (Op::Get, Edge::Start) && !staged_before.contains(key) {
            assert!(
                log[..at].contains(&(Op::Put, Edge::End, key.clone())),
                "get of {key} started before its put returned: {log:?}"
            );
        }
    }
}

/// Three buffers of `len` bytes, each in a key directory of its own, so
/// each is a store object of its own however small.
fn three_objects(len: usize) -> Vec<(String, Vec<u8>)> {
    (0..3)
        .map(|i| (format!("job-0/d{i}/x"), rng::bytes(len, 40 + i as u64)))
        .collect()
}

#[test]
fn one_worker_takes_ops_first_in_first_out() {
    // Sealing three tiny buffers takes microseconds and a put 20 ms, so
    // all three puts are waiting when the first one lands: its get goes
    // to the back of the queue, not to the front of the worker.
    let (manager, recorder) = recorded_manager(Duration::from_millis(20));
    let (back, report) = manager
        .upload_fetch_pipelined(three_objects(64), vec![], 1)
        .unwrap();
    assert_eq!(back.len(), 3);
    let ops: Vec<Op> = recorder.starts().into_iter().map(|(op, _)| op).collect();
    assert_eq!(
        ops,
        [Op::Put, Op::Put, Op::Put, Op::Get, Op::Get, Op::Get],
        "{:?}",
        recorder.starts()
    );
    assert_gets_follow_their_puts(&recorder.log(), &[]);
    assert_eq!(recorder.max_inflight(), 1);

    // Each object reports the time workers spent on it — its own put and
    // get at least, none of the 40 ms it sat in the queue. Its ops
    // run one after the other, so that is within the wall; all objects'
    // together are within what the workers had.
    for item in &report.items {
        assert!(item.seconds >= 0.040, "{item:?}");
        assert!(item.seconds < 0.070, "queue wait counted: {item:?}");
        assert!(item.seconds <= report.wall_seconds, "{item:?}");
    }
    let workers = (report.cpu_workers + report.io_workers) as f64;
    let spent: f64 = report.items.iter().map(|item| item.seconds).sum();
    assert!(spent <= report.wall_seconds * workers, "{report:?}");
}

#[test]
fn three_objects_on_two_workers_take_three_rounds() {
    // Six 20 ms ops on two workers are three rounds, 60 ms. Put and get
    // fused into one job made that four: put, get, then the third
    // object's put and get on one worker while the other sat idle. The
    // fastest of three runs, so a descheduled thread cannot fail it.
    let mut fastest = Duration::MAX;
    for _ in 0..3 {
        let (manager, recorder) = recorded_manager(Duration::from_millis(20));
        let items = three_objects(64);
        let t = Instant::now();
        let (back, report) = manager
            .upload_fetch_pipelined(items.clone(), vec![], 2)
            .unwrap();
        fastest = fastest.min(t.elapsed());
        for ((key, want), (got_key, got)) in items.iter().zip(&back) {
            assert_eq!(got_key, key);
            assert!(got == want, "{key} changed on the way");
        }
        assert_eq!(recorder.starts().len(), 6, "one put and one get each");
        assert_gets_follow_their_puts(&recorder.log(), &[]);
        assert_eq!(
            recorder.max_inflight(),
            2,
            "both workers used, never a third op"
        );
        assert_eq!(report.io_workers, 2);
        assert!(report.io_busy_seconds >= 0.120, "six ops: {report:?}");
    }
    assert!(
        fastest < Duration::from_millis(70),
        "three rounds of 20 ms took {fastest:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any batch — buffers that pack and buffers that do not, keys put by
    /// this run and keys staged by an earlier one, alone or in a pack —
    /// on one to four workers: every buffer comes back bitwise in request
    /// order, each object is put once and got once, no get starts before
    /// its object's put returned, never more ops in flight than workers.
    #[test]
    fn any_batch_keeps_get_after_put(
        put_sizes in proptest::collection::vec((any::<bool>(), 0usize..3_000), 0..7),
        staged_sizes in proptest::collection::vec((any::<bool>(), 0usize..3_000), 0..5),
        io_threads in 1usize..5,
        seed in any::<u64>(),
    ) {
        // Small enough to share a pack, or too large to join one.
        let named = |dir: &str, sizes: &[(bool, usize)]| -> Vec<(String, Vec<u8>)> {
            sizes
                .iter()
                .enumerate()
                .map(|(i, &(packs, fine))| {
                    let len = if packs { fine } else { 132_000 + fine };
                    (format!("job-0/{dir}/v{i}"), rng::bytes(len, seed ^ i as u64))
                })
                .collect()
        };
        let (manager, recorder) = recorded_manager(Duration::ZERO);
        let staged = named("cached", &staged_sizes);
        manager.upload(staged.clone()).unwrap();
        let staged_objects: Vec<String> = {
            let mut keys: Vec<String> =
                staged.iter().map(|(key, _)| manager.object_key(key)).collect();
            keys.sort();
            keys.dedup();
            keys
        };
        recorder.reset();

        let items = named("in", &put_sizes);
        let fetch_only: Vec<String> = staged.iter().map(|(key, _)| key.clone()).collect();
        let (back, report) = manager
            .upload_fetch_pipelined(items.clone(), fetch_only, io_threads)
            .unwrap();

        prop_assert_eq!(back.len(), items.len() + staged.len());
        for ((key, want), (got_key, got)) in items.iter().chain(&staged).zip(&back) {
            prop_assert_eq!(got_key, key);
            prop_assert!(got == want, "{} changed on the way", key);
        }
        let starts = recorder.starts();
        let puts = starts.iter().filter(|(op, _)| *op == Op::Put).count();
        prop_assert_eq!(puts, report.put_objects);
        prop_assert_eq!(starts.len() - puts, report.items.len());
        prop_assert_eq!(report.items.len(), report.put_objects + staged_objects.len());
        for (i, item) in report.items.iter().enumerate() {
            let wanted = if i < report.put_objects { 2 } else { 1 };
            let ops = starts.iter().filter(|(_, key)| *key == item.key).count();
            prop_assert_eq!(ops, wanted, "{}: {:?}", &item.key, &starts);
            prop_assert!(item.seconds > 0.0 && item.seconds <= report.wall_seconds, "{:?}", item);
        }
        assert_gets_follow_their_puts(&recorder.log(), &staged_objects);
        prop_assert!(recorder.max_inflight() <= io_threads, "{}", recorder.max_inflight());
    }
}

#[test]
fn retries_and_refetches_are_counted_per_op_under_chaos() {
    // Transient puts and corrupt gets land on whichever op the schedule
    // gives them; each is still one counted retry of that op, and what
    // comes back is bitwise what `upload` + `download` of the same batch
    // return from a clean store.
    let plan = FaultPlan::new(14)
        .rule(FaultRule::new(
            OpFilter::Put,
            Trigger::EveryNth(3),
            FaultKind::Transient,
        ))
        .rule(FaultRule::new(
            OpFilter::Get,
            Trigger::EveryNth(4),
            FaultKind::Corrupt,
        ));
    let chaos = Arc::new(ChaosStore::new(
        Arc::new(S3Store::standalone("ops-chaos")),
        plan,
    ));
    let manager = TransferManager::new(Arc::clone(&chaos) as StoreHandle, config());
    // Two packs of small buffers and seven objects of their own.
    let items: Vec<(String, Vec<u8>)> = (0..13)
        .map(|i| {
            let len = if i % 2 == 0 { 140_000 } else { 5_000 };
            (
                format!("job-0/in{}/v{i}", i / 2 % 2),
                rng::bytes(len, 7 + i as u64),
            )
        })
        .collect();
    let (back, report) = manager
        .upload_fetch_pipelined(items.clone(), vec![], 3)
        .unwrap();

    let stats = chaos.stats();
    assert!(stats.transient >= 3 && stats.corruptions >= 2, "{stats:?}");
    assert_eq!(u64::from(report.total_retries()), stats.transient);
    assert_eq!(u64::from(report.total_refetches()), stats.corruptions);

    let serial = TransferManager::new(Arc::new(S3Store::standalone("ops-serial")), config());
    let up = serial.upload(items.clone()).unwrap();
    let (want, _) = serial
        .download(items.iter().map(|(key, _)| key.clone()).collect())
        .unwrap();
    assert_eq!(back, want);
    let objects = |items: &[cloud_storage::ItemReport]| -> Vec<(String, u64, u64)> {
        items
            .iter()
            .map(|i| (i.key.clone(), i.raw_bytes, i.wire_bytes))
            .collect()
    };
    assert_eq!(objects(&report.items), objects(&up.items));
}

/// Run the pipeline over `recorder` on a thread of its own and wait for
/// it at most ten seconds: `Ok` is what it returned, `Err` what it
/// panicked with.
fn run_watched(
    recorder: &Arc<Recorder>,
    items: Vec<(String, Vec<u8>)>,
    io_threads: usize,
) -> std::thread::Result<Result<usize, StorageError>> {
    let manager = TransferManager::new(Arc::clone(recorder) as StoreHandle, config());
    let (done_tx, done_rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            manager
                .upload_fetch_pipelined(items, vec![], io_threads)
                .map(|(payloads, _)| payloads.len())
        }));
        let _ = done_tx.send(result);
    });
    done_rx
        .recv_timeout(Duration::from_secs(10))
        .expect("upload_fetch_pipelined hung")
}

#[test]
fn a_failed_put_ends_the_run_and_never_issues_its_get() {
    for io_threads in 1..=3 {
        let recorder = Arc::new(
            Recorder::new(Arc::new(S3Store::standalone("ops-fail")))
                .with_bad_put("/d1/", BadPut::Fail),
        );
        let result = run_watched(&recorder, three_objects(2_000), io_threads)
            .expect("an error, not a panic");
        assert!(
            matches!(result, Err(StorageError::Unavailable(_))),
            "{result:?}"
        );
        let starts = recorder.starts();
        assert!(
            !starts.contains(&(Op::Get, "job-0/d1/x".to_string())),
            "{starts:?}"
        );
        // The other objects ran to the end, as they always did.
        assert_eq!(starts.len(), 5, "{starts:?}");
        assert_gets_follow_their_puts(&recorder.log(), &[]);
    }
}

#[test]
fn a_panicking_put_propagates_instead_of_hanging() {
    // With one worker the panic takes the whole I/O stage with it and
    // puts are left waiting; with more, the others must still drain the
    // queue and leave.
    for io_threads in 1..=3 {
        let recorder = Arc::new(
            Recorder::new(Arc::new(S3Store::standalone("ops-panic")))
                .with_bad_put("/d1/", BadPut::Panic),
        );
        let result = run_watched(&recorder, three_objects(2_000), io_threads);
        assert!(result.is_err(), "the panic is the caller's: {result:?}");
        let starts = recorder.starts();
        assert!(
            !starts.contains(&(Op::Get, "job-0/d1/x".to_string())),
            "{starts:?}"
        );
    }
}

/// One store object's report item as a batch must keep it: key, raw
/// bytes, wire bytes and whether it travelled compressed.
type Item = (String, u64, u64, bool);

/// The buffers of a batch of `objects` store objects: none; three small
/// buffers that share one pack; or five objects — that pack again, a
/// buffer past `stream_threshold`, two medium buffers and a small one
/// alone in its directory, with the pack's members spread between them.
fn batch(objects: usize) -> Vec<(String, Vec<u8>)> {
    let sparse = |len, seed| rng::sparse_f32_bytes(len, 0.05, seed);
    let pack = [
        ("job-0/in/a", sparse(4_000, 1)),
        ("job-0/in/b", rng::bytes(2_000, 2)),
        ("job-0/in/c", sparse(6_000, 3)),
    ];
    let items: Vec<(&str, Vec<u8>)> = match objects {
        0 => vec![],
        1 => pack.into(),
        5 => {
            let [a, b, c] = pack;
            vec![
                a,
                ("job-0/big/m", sparse(1_200_000, 4)),
                b,
                ("job-0/wide/r", rng::bytes(150_000, 5)),
                c,
                ("job-0/mid/s", sparse(200_000, 6)),
                ("job-0/solo/t", sparse(5_000, 7)),
            ]
        }
        _ => unreachable!("batches of 0, 1 or 5 objects"),
    };
    items.into_iter().map(|(k, v)| (k.to_string(), v)).collect()
}

/// The report items of [`batch`], one per store object in request order.
fn batch_items(objects: usize) -> Vec<Item> {
    let rows: &[(&str, u64, u64, bool)] = match objects {
        0 => &[],
        1 => &[("job-0/in/pack3-fd98864c", 12_000, 2_840, true)],
        _ => &[
            ("job-0/in/pack3-fd98864c", 12_000, 2_840, true),
            ("job-0/big/m", 1_200_000, 90_741, true),
            ("job-0/wide/r", 150_000, 150_000, false),
            ("job-0/mid/s", 200_000, 15_119, true),
            ("job-0/solo/t", 5_000, 374, true),
        ],
    };
    rows.iter()
        .map(|&(key, raw, wire, compressed)| (key.to_string(), raw, wire, compressed))
        .collect()
}

/// A manager two ops wide over a recorded store with a little latency,
/// so the ops of a batch overlap when they may.
fn two_wide_manager() -> (Arc<TransferManager>, Arc<Recorder>) {
    let slow = LatencyStore::new(
        Arc::new(S3Store::standalone("batch")),
        Duration::from_millis(3),
    );
    let recorder = Arc::new(Recorder::new(Arc::new(slow)));
    let config = TransferConfig {
        max_threads: 2,
        ..config()
    };
    let manager = TransferManager::new(Arc::clone(&recorder) as StoreHandle, config);
    (Arc::new(manager), recorder)
}

/// Which thread a one-object batch must run its op on.
enum Runs {
    /// The caller's own.
    On(ThreadId),
    /// The one named so.
    Named(&'static str),
}

/// What every batch entry keeps, whichever engine runs it: each store
/// object gets exactly one `op`, and one report item in request order
/// with the same bytes; never more than two ops are in flight; and a
/// batch of one object runs where `runs` says.
fn assert_batch(
    recorder: &Recorder,
    op: Op,
    items: &[cloud_storage::ItemReport],
    want: &[Item],
    runs: Runs,
) {
    let got: Vec<Item> = items
        .iter()
        .map(|i| (i.key.clone(), i.raw_bytes, i.wire_bytes, i.compressed))
        .collect();
    assert_eq!(got, want, "report items");
    let mut ops = recorder.starts();
    ops.sort();
    let mut want_ops: Vec<(Op, String)> = want.iter().map(|(key, ..)| (op, key.clone())).collect();
    want_ops.sort();
    assert_eq!(ops, want_ops, "store ops");
    assert!(
        recorder.max_inflight() <= 2,
        "{} ops in flight",
        recorder.max_inflight()
    );
    if want.len() == 1 {
        for (op, key, id, name) in recorder.threads.lock().iter() {
            let here = match &runs {
                Runs::On(caller) => id == caller,
                Runs::Named(wanted) => name.as_deref() == Some(*wanted),
            };
            assert!(here, "{op:?} {key} ran on {id:?} ({name:?})");
        }
    }
}

#[test]
fn upload_puts_each_object_once_and_reports_it_in_request_order() {
    for objects in [0, 1, 5] {
        let (manager, recorder) = two_wide_manager();
        let report = manager.upload(batch(objects)).unwrap();
        let caller = std::thread::current().id();
        assert_batch(
            &recorder,
            Op::Put,
            &report.items,
            &batch_items(objects),
            Runs::On(caller),
        );
    }
}

#[test]
fn download_gets_each_object_once_and_returns_every_buffer_in_request_order() {
    for objects in [0, 1, 5] {
        let (manager, recorder) = two_wide_manager();
        let items = batch(objects);
        manager.upload(items.clone()).unwrap();
        recorder.reset();
        let keys = items.iter().map(|(key, _)| key.clone()).collect();
        let (back, report) = manager.download(keys).unwrap();
        assert_eq!(back.len(), items.len());
        for ((key, want), (got_key, got)) in items.iter().zip(&back) {
            assert_eq!(got_key, key);
            assert!(got == want, "{key} changed on the way");
        }
        let caller = std::thread::current().id();
        assert_batch(
            &recorder,
            Op::Get,
            &report.items,
            &batch_items(objects),
            Runs::On(caller),
        );
    }
}

#[test]
fn a_write_behind_put_runs_like_an_upload_and_settles_with_its_report() {
    for objects in [0, 1, 5] {
        let (manager, recorder) = two_wide_manager();
        let items: Vec<(String, Arc<Vec<u8>>)> = batch(objects)
            .into_iter()
            .map(|(key, bytes)| (key, Arc::new(bytes)))
            .collect();
        let told = Arc::new(parking_lot::Mutex::new(None));
        let tell = Arc::clone(&told);
        manager
            .upload_behind(items, move |_, put| {
                *tell.lock() = Some(put.map(|report| report.items.clone()).ok());
            })
            .unwrap();
        manager.settle().unwrap();
        let settled = told.lock().take().expect("told at the settle");
        let settled = settled.expect("the put landed");
        assert_batch(
            &recorder,
            Op::Put,
            &settled,
            &batch_items(objects),
            Runs::Named("write-behind"),
        );
        assert!(
            told.lock().is_none() && manager.settle().is_ok(),
            "told once"
        );
    }
}

#[test]
fn a_one_object_pipeline_runs_its_put_and_get_on_the_calling_thread() {
    let (manager, recorder) = two_wide_manager();
    let items = batch(1);
    let (back, report) = manager
        .upload_fetch_pipelined(items.clone(), vec![], 2)
        .unwrap();
    assert_eq!(back.len(), 3);
    let caller = std::thread::current().id();
    let ops = recorder.threads.lock().clone();
    assert_eq!(ops.len(), 2, "{ops:?}");
    assert!(ops.iter().all(|(.., id, _)| *id == caller), "{ops:?}");
    assert_eq!(report.items.len(), 1);
}
