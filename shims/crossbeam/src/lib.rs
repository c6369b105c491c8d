#![warn(missing_docs)]

//! A minimal, offline drop-in for the subset of `crossbeam` this
//! workspace uses: `crossbeam::channel::{unbounded, Sender, Receiver}`
//! with multi-producer **multi-consumer** semantics (cloneable receivers),
//! blocking `recv`, non-blocking `try_recv` and a blocking iterator.

pub mod channel {
    //! Unbounded MPMC channel built on `Mutex<VecDeque>` + `Condvar`.

    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex};

    struct Shared<T> {
        queue: Mutex<VecDeque<T>>,
        ready: Condvar,
        senders: AtomicUsize,
        receivers: AtomicUsize,
    }

    /// Sending half; cloneable.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// Receiving half; cloneable (competing consumers).
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    /// Error returned by [`Sender::send`] when every receiver is gone.
    /// Field `0` hands the rejected message back.
    pub struct SendError<T>(pub T);

    impl<T> std::fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "SendError(..)")
        }
    }

    impl<T> std::fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "sending on a disconnected channel")
        }
    }

    /// Error returned by [`Receiver::recv`] when the channel is empty and
    /// every sender is gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    impl std::fmt::Display for RecvError {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "receiving on an empty and disconnected channel")
        }
    }

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// Channel currently empty; senders still connected.
        Empty,
        /// Channel empty and every sender dropped.
        Disconnected,
    }

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// No message arrived within the timeout.
        Timeout,
        /// Channel empty and every sender dropped.
        Disconnected,
    }

    /// Create an unbounded MPMC channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            queue: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            senders: AtomicUsize::new(1),
            receivers: AtomicUsize::new(1),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    impl<T> Sender<T> {
        /// Enqueue `msg`; fails only when every receiver was dropped.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            if self.shared.receivers.load(Ordering::Acquire) == 0 {
                return Err(SendError(msg));
            }
            let mut q = self.shared.queue.lock().unwrap_or_else(|p| p.into_inner());
            q.push_back(msg);
            drop(q);
            self.shared.ready.notify_one();
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.senders.fetch_add(1, Ordering::AcqRel);
            Sender {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if self.shared.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Last sender gone: wake blocked receivers so they observe
                // the disconnect. A receiver checks `senders` and waits
                // under the queue lock, so pass through the lock first:
                // whoever saw a sender alive is parked by the time we
                // notify, and whoever comes later sees none.
                drop(self.shared.queue.lock().unwrap_or_else(|p| p.into_inner()));
                self.shared.ready.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Block until a message arrives or every sender is dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut q = self.shared.queue.lock().unwrap_or_else(|p| p.into_inner());
            loop {
                if let Some(msg) = q.pop_front() {
                    return Ok(msg);
                }
                if self.shared.senders.load(Ordering::Acquire) == 0 {
                    return Err(RecvError);
                }
                q = self.shared.ready.wait(q).unwrap_or_else(|p| p.into_inner());
            }
        }

        /// Block until a message arrives, every sender is dropped, or
        /// `timeout` elapses — whichever comes first.
        pub fn recv_timeout(&self, timeout: std::time::Duration) -> Result<T, RecvTimeoutError> {
            let deadline = std::time::Instant::now() + timeout;
            let mut q = self.shared.queue.lock().unwrap_or_else(|p| p.into_inner());
            loop {
                if let Some(msg) = q.pop_front() {
                    return Ok(msg);
                }
                if self.shared.senders.load(Ordering::Acquire) == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let left = deadline.saturating_duration_since(std::time::Instant::now());
                if left.is_zero() {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (guard, timed_out) = self
                    .shared
                    .ready
                    .wait_timeout(q, left)
                    .unwrap_or_else(|p| p.into_inner());
                q = guard;
                if timed_out.timed_out() && q.is_empty() {
                    return Err(RecvTimeoutError::Timeout);
                }
            }
        }

        /// Non-blocking receive.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut q = self.shared.queue.lock().unwrap_or_else(|p| p.into_inner());
            if let Some(msg) = q.pop_front() {
                return Ok(msg);
            }
            if self.shared.senders.load(Ordering::Acquire) == 0 {
                Err(TryRecvError::Disconnected)
            } else {
                Err(TryRecvError::Empty)
            }
        }

        /// Blocking iterator: yields until the channel disconnects.
        pub fn iter(&self) -> Iter<'_, T> {
            Iter { rx: self }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared.receivers.fetch_add(1, Ordering::AcqRel);
            Receiver {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            if self.shared.receivers.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Last receiver gone: nobody can take what is queued, so
                // drop it now, as upstream does. A message may itself hold
                // a `Sender` of this channel, which would otherwise keep
                // the queue — and so itself — alive for good.
                // Taken out under the lock, dropped after it: a message's
                // own drop may reach back into this channel.
                let unread = std::mem::take(
                    &mut *self.shared.queue.lock().unwrap_or_else(|p| p.into_inner()),
                );
                drop(unread);
            }
        }
    }

    /// Blocking iterator over received messages.
    pub struct Iter<'a, T> {
        rx: &'a Receiver<T>,
    }

    impl<'a, T> Iterator for Iter<'a, T> {
        type Item = T;

        fn next(&mut self) -> Option<T> {
            self.rx.recv().ok()
        }
    }

    /// Owning blocking iterator over received messages.
    pub struct IntoIter<T> {
        rx: Receiver<T>,
    }

    impl<T> Iterator for IntoIter<T> {
        type Item = T;

        fn next(&mut self) -> Option<T> {
            self.rx.recv().ok()
        }
    }

    impl<T> IntoIterator for Receiver<T> {
        type Item = T;
        type IntoIter = IntoIter<T>;

        fn into_iter(self) -> IntoIter<T> {
            IntoIter { rx: self }
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn send_recv_fifo() {
            let (tx, rx) = unbounded();
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.try_recv(), Ok(2));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        }

        #[test]
        fn iter_ends_when_senders_drop() {
            let (tx, rx) = unbounded();
            for i in 0..5 {
                tx.send(i).unwrap();
            }
            drop(tx);
            assert_eq!(rx.iter().collect::<Vec<_>>(), vec![0, 1, 2, 3, 4]);
            assert_eq!(rx.recv(), Err(RecvError));
        }

        #[test]
        fn multiple_consumers_partition_the_stream() {
            let (tx, rx) = unbounded::<u32>();
            let rx2 = rx.clone();
            let sum = std::sync::Arc::new(AtomicUsize::new(0));
            let handles: Vec<_> = [rx, rx2]
                .into_iter()
                .map(|rx| {
                    let sum = std::sync::Arc::clone(&sum);
                    std::thread::spawn(move || {
                        for v in rx.iter() {
                            sum.fetch_add(v as usize, Ordering::Relaxed);
                        }
                    })
                })
                .collect();
            for i in 0..100u32 {
                tx.send(i).unwrap();
            }
            drop(tx);
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(sum.load(Ordering::Relaxed), 4950);
        }

        #[test]
        fn into_iter_drains_then_ends_on_disconnect() {
            let (tx, rx) = unbounded();
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            drop(tx);
            assert_eq!(rx.into_iter().collect::<Vec<_>>(), vec![1, 2]);
        }

        #[test]
        fn recv_timeout_times_out_then_delivers() {
            let (tx, rx) = unbounded();
            let t0 = std::time::Instant::now();
            assert_eq!(
                rx.recv_timeout(std::time::Duration::from_millis(10)),
                Err(RecvTimeoutError::Timeout)
            );
            assert!(t0.elapsed() >= std::time::Duration::from_millis(10));
            tx.send(5).unwrap();
            assert_eq!(rx.recv_timeout(std::time::Duration::from_millis(10)), Ok(5));
            drop(tx);
            assert_eq!(
                rx.recv_timeout(std::time::Duration::from_millis(10)),
                Err(RecvTimeoutError::Disconnected)
            );
        }

        #[test]
        fn queued_messages_drop_with_the_last_receiver() {
            // A message holding a sender of its own channel is a cycle
            // only the receiver's drop can break.
            #[allow(dead_code)]
            struct Job(Sender<Job>, std::sync::Arc<()>);
            let (tx, rx) = unbounded::<Job>();
            let alive = std::sync::Arc::new(());
            tx.send(Job(tx.clone(), std::sync::Arc::clone(&alive)))
                .unwrap_or_else(|_| panic!("receiver alive"));
            drop(tx);
            assert_eq!(std::sync::Arc::strong_count(&alive), 2);
            drop(rx);
            assert_eq!(std::sync::Arc::strong_count(&alive), 1);
        }

        #[test]
        fn a_receiver_about_to_wait_sees_the_last_sender_go() {
            // The disconnect must reach a receiver that found the queue
            // empty and the sender alive a moment before: notifying
            // without the queue lock could land between its check and its
            // wait, and it would sleep for good.
            for _ in 0..10_000 {
                let (tx, rx) = unbounded::<u8>();
                let at_recv = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
                let flag = std::sync::Arc::clone(&at_recv);
                let waiter = std::thread::spawn(move || {
                    flag.store(true, Ordering::Release);
                    rx.recv()
                });
                while !at_recv.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
                drop(tx);
                assert_eq!(waiter.join().unwrap(), Err(RecvError));
            }
        }

        #[test]
        fn send_fails_after_all_receivers_drop() {
            let (tx, rx) = unbounded::<u8>();
            drop(rx);
            assert!(tx.send(7).is_err());
        }
    }
}
