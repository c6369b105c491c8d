//! A small discrete-event simulation engine with a virtual clock.
//!
//! The figure harnesses replay OmpCloud job plans against paper-scale
//! clusters (16 worker nodes, 256 cores, 1 GB matrices) that this
//! repository cannot physically run. The engine executes *events* —
//! boxed callbacks scheduled at virtual timestamps — in non-decreasing
//! time order, with FIFO tie-breaking so runs are deterministic.

use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::rc::Rc;

/// Virtual time in seconds.
pub type SimTime = f64;

type EventFn = Box<dyn FnOnce(&mut Sim)>;

struct Entry {
    at: SimTime,
    seq: u64,
    f: EventFn,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest first;
        // ties broken by insertion order (seq).
        other
            .at
            .partial_cmp(&self.at)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The simulation: a virtual clock plus a pending-event queue.
#[derive(Default)]
pub struct Sim {
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<Entry>,
}

impl Sim {
    /// Fresh simulation at t = 0.
    pub fn new() -> Self {
        Sim::default()
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `f` at absolute virtual time `at` (clamped to now).
    pub fn schedule_at(&mut self, at: SimTime, f: impl FnOnce(&mut Sim) + 'static) {
        let at = if at < self.now { self.now } else { at };
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Entry {
            at,
            seq,
            f: Box::new(f),
        });
    }

    /// Schedule `f` after a delay of `dt` seconds.
    pub fn schedule_in(&mut self, dt: SimTime, f: impl FnOnce(&mut Sim) + 'static) {
        debug_assert!(dt >= 0.0, "negative delay {dt}");
        self.schedule_at(self.now + dt.max(0.0), f);
    }

    /// Run until the event queue drains; returns the final virtual time.
    pub fn run(&mut self) -> SimTime {
        while let Some(Entry { at, f, .. }) = self.queue.pop() {
            self.now = at;
            f(self);
        }
        self.now
    }
}

/// A capacity-`c` server with a FIFO wait queue — models a worker's core
/// slots or a NIC that serializes transfers.
pub struct Resource {
    capacity: usize,
    in_use: usize,
    waiters: VecDeque<EventFn>,
    peak_in_use: usize,
}

/// Shared handle to a resource usable from event callbacks.
pub type ResourceHandle = Rc<RefCell<Resource>>;

impl Resource {
    /// New resource with `capacity` concurrent slots.
    pub fn new(capacity: usize) -> ResourceHandle {
        Rc::new(RefCell::new(Resource {
            capacity: capacity.max(1),
            in_use: 0,
            waiters: VecDeque::new(),
            peak_in_use: 0,
        }))
    }

    /// Currently held slots.
    pub fn in_use(&self) -> usize {
        self.in_use
    }

    /// Maximum slots ever held at once.
    pub fn peak_in_use(&self) -> usize {
        self.peak_in_use
    }
}

/// Acquire a slot of `res`, running `f` once granted (immediately if a
/// slot is free, otherwise when one is released).
pub fn acquire(sim: &mut Sim, res: &ResourceHandle, f: impl FnOnce(&mut Sim) + 'static) {
    let mut pending: Option<EventFn> = Some(Box::new(f));
    {
        let mut r = res.borrow_mut();
        if r.in_use < r.capacity {
            r.in_use += 1;
            r.peak_in_use = r.peak_in_use.max(r.in_use);
        } else {
            r.waiters.push_back(pending.take().expect("unclaimed"));
        }
    }
    if let Some(cb) = pending {
        // Run the grant callback as an immediate event to keep the call
        // stack shallow under long dependency chains.
        sim.schedule_in(0.0, move |sim| cb(sim));
    }
}

/// Release a slot of `res`, waking the oldest waiter if any.
pub fn release(sim: &mut Sim, res: &ResourceHandle) {
    let next = {
        let mut r = res.borrow_mut();
        match r.waiters.pop_front() {
            Some(w) => Some(w), // slot transfers to the waiter
            None => {
                assert!(r.in_use > 0, "release without acquire");
                r.in_use -= 1;
                None
            }
        }
    };
    if let Some(w) = next {
        sim.schedule_in(0.0, w);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn events_run_in_time_order() {
        let order = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Sim::new();
        for (t, label) in [(5.0, "c"), (1.0, "a"), (3.0, "b")] {
            let order = Rc::clone(&order);
            sim.schedule_at(t, move |sim| {
                order.borrow_mut().push((sim.now(), label));
            });
        }
        let end = sim.run();
        assert_eq!(end, 5.0);
        assert_eq!(*order.borrow(), vec![(1.0, "a"), (3.0, "b"), (5.0, "c")]);
    }

    #[test]
    fn ties_break_in_insertion_order() {
        let order = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Sim::new();
        for label in ["first", "second", "third"] {
            let order = Rc::clone(&order);
            sim.schedule_at(2.0, move |_| order.borrow_mut().push(label));
        }
        sim.run();
        assert_eq!(*order.borrow(), vec!["first", "second", "third"]);
    }

    #[test]
    fn events_can_schedule_events() {
        let hits = Rc::new(RefCell::new(0u32));
        let mut sim = Sim::new();
        let h = Rc::clone(&hits);
        sim.schedule_in(1.0, move |sim| {
            *h.borrow_mut() += 1;
            let h2 = Rc::clone(&h);
            sim.schedule_in(2.0, move |sim| {
                *h2.borrow_mut() += 1;
                assert_eq!(sim.now(), 3.0);
            });
        });
        sim.run();
        assert_eq!(*hits.borrow(), 2);
    }

    #[test]
    fn past_events_clamp_to_now() {
        let mut sim = Sim::new();
        sim.schedule_at(5.0, |sim| {
            sim.schedule_at(1.0, |sim| assert_eq!(sim.now(), 5.0));
        });
        sim.run();
    }

    #[test]
    fn resource_serializes_beyond_capacity() {
        // 3 jobs of 10s on a 2-slot resource: finish at 10, 10, 20.
        let finish = Rc::new(RefCell::new(Vec::new()));
        let mut sim = Sim::new();
        let res = Resource::new(2);
        for _ in 0..3 {
            let res2 = Rc::clone(&res);
            let fin = Rc::clone(&finish);
            acquire(&mut sim, &res, move |sim| {
                let fin2 = Rc::clone(&fin);
                let res3 = Rc::clone(&res2);
                sim.schedule_in(10.0, move |sim| {
                    fin2.borrow_mut().push(sim.now());
                    release(sim, &res3);
                });
            });
        }
        sim.run();
        assert_eq!(*finish.borrow(), vec![10.0, 10.0, 20.0]);
        assert_eq!(res.borrow().peak_in_use(), 2);
        assert_eq!(res.borrow().in_use(), 0);
    }

    #[test]
    fn makespan_matches_closed_form() {
        // 10 unit tasks on 4 cores -> ceil(10/4) = 3 time units.
        let mut sim = Sim::new();
        let cores = Resource::new(4);
        for _ in 0..10 {
            let cores2 = Rc::clone(&cores);
            acquire(&mut sim, &cores, move |sim| {
                let cores3 = Rc::clone(&cores2);
                sim.schedule_in(1.0, move |sim| release(sim, &cores3));
            });
        }
        let end = sim.run();
        assert_eq!(end, 3.0);
    }
}
