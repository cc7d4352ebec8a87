//! Offline stand-in for `crossbeam`: the `channel` subset the Swing
//! crates use (MPMC `bounded`/`unbounded` channels with `len()`,
//! `try_send`, `try_recv`, `recv_timeout` and disconnection errors).
//!
//! One `Mutex<VecDeque>` and two condvars per channel. Waiter counts are
//! kept under the lock so a send with no parked receiver (the common
//! case on a busy executor) makes no futex call, and the queue length
//! and sender count are mirrored in atomics so polling an empty channel
//! (`try_recv`, `len`, a zero `recv_timeout`) never takes the lock —
//! the real crate is lock-free there, and the runtime's busy loops poll
//! their inboxes millions of times a second.

#![warn(missing_docs)]

pub mod channel {
    //! Multi-producer multi-consumer channels.

    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex, MutexGuard};
    use std::time::{Duration, Instant};

    struct Inner<T> {
        queue: VecDeque<T>,
        receivers: usize,
        recv_waiting: usize,
        send_waiting: usize,
    }

    struct Shared<T> {
        inner: Mutex<Inner<T>>,
        not_empty: Condvar,
        not_full: Condvar,
        /// `None` for unbounded channels.
        cap: Option<usize>,
        /// `queue.len()`, stored (Release) before the lock that changed
        /// it is dropped. A poller that reads 0 either really raced an
        /// in-progress send — which has not completed, so "empty" is a
        /// correct answer — or sees the truth.
        len: AtomicUsize,
        /// Live `Sender`s; only ever read to tell "empty" from
        /// "disconnected".
        senders: AtomicUsize,
    }

    impl<T> Shared<T> {
        fn lock(&self) -> MutexGuard<'_, Inner<T>> {
            // A panic while holding the lock cannot leave the queue
            // half-updated (every critical section is a few pushes and
            // pops), so a poisoned lock is safe to recover.
            self.inner
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
        }

        fn has_room(&self, inner: &Inner<T>) -> bool {
            self.cap.is_none_or(|c| inner.queue.len() < c)
        }
    }

    fn channel<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                receivers: 1,
                recv_waiting: 0,
                send_waiting: 0,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            cap,
            len: AtomicUsize::new(0),
            senders: AtomicUsize::new(1),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    /// A channel of unlimited capacity: `send` never blocks.
    #[must_use]
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        channel(None)
    }

    /// A channel holding at most `cap` messages: `send` blocks while it
    /// is full. (The real crate's zero-capacity rendezvous channel is
    /// not reproduced; `cap` 0 is treated as 1.)
    #[must_use]
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        channel(Some(cap.max(1)))
    }

    /// The sending half; clonable.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// The receiving half; clonable (each message goes to one receiver).
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    impl<T> Sender<T> {
        /// Send, blocking while a bounded channel is full. Fails only
        /// when every receiver is gone.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            let mut inner = self.shared.lock();
            loop {
                if inner.receivers == 0 {
                    return Err(SendError(msg));
                }
                if self.shared.has_room(&inner) {
                    inner.queue.push_back(msg);
                    self.shared.len.store(inner.queue.len(), Ordering::Release);
                    let wake = inner.recv_waiting > 0;
                    drop(inner);
                    if wake {
                        self.shared.not_empty.notify_one();
                    }
                    return Ok(());
                }
                inner.send_waiting += 1;
                inner = self
                    .shared
                    .not_full
                    .wait(inner)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                inner.send_waiting -= 1;
            }
        }

        /// Send without blocking.
        pub fn try_send(&self, msg: T) -> Result<(), TrySendError<T>> {
            let mut inner = self.shared.lock();
            if inner.receivers == 0 {
                return Err(TrySendError::Disconnected(msg));
            }
            if !self.shared.has_room(&inner) {
                return Err(TrySendError::Full(msg));
            }
            inner.queue.push_back(msg);
            self.shared.len.store(inner.queue.len(), Ordering::Release);
            let wake = inner.recv_waiting > 0;
            drop(inner);
            if wake {
                self.shared.not_empty.notify_one();
            }
            Ok(())
        }

        /// Messages currently queued.
        #[must_use]
        pub fn len(&self) -> usize {
            self.shared.len.load(Ordering::Acquire)
        }

        /// Whether the queue is empty.
        #[must_use]
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// The capacity of a bounded channel.
        #[must_use]
        pub fn capacity(&self) -> Option<usize> {
            self.shared.cap
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.senders.fetch_add(1, Ordering::SeqCst);
            Sender {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            // Decrement under the lock: a receiver that found the queue
            // empty and is about to wait holds it, so it either sees the
            // count at zero or is parked before the wake-up below.
            let inner = self.shared.lock();
            let last = self.shared.senders.fetch_sub(1, Ordering::SeqCst) == 1;
            drop(inner);
            if last {
                self.shared.not_empty.notify_all();
            }
        }
    }

    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.pad("Sender { .. }")
        }
    }

    impl<T> Receiver<T> {
        fn disconnected(&self) -> bool {
            self.shared.senders.load(Ordering::SeqCst) == 0
        }

        /// Lock-free answer for a poll of an apparently empty channel:
        /// `Some(disconnected)` when the poll can return without the
        /// lock. A disconnect is only reported from under the lock (the
        /// last message and the last sender's drop may race the two
        /// atomic reads), so this only ever short-cuts "empty".
        fn poll_empty(&self) -> bool {
            self.shared.len.load(Ordering::Acquire) == 0 && !self.disconnected()
        }

        fn pop(&self, mut inner: MutexGuard<'_, Inner<T>>) -> Option<T> {
            let msg = inner.queue.pop_front()?;
            self.shared.len.store(inner.queue.len(), Ordering::Release);
            let wake = inner.send_waiting > 0;
            drop(inner);
            if wake {
                self.shared.not_full.notify_one();
            }
            Some(msg)
        }

        /// Receive, blocking until a message arrives. Fails once the
        /// queue is empty and every sender is gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut inner = self.shared.lock();
            loop {
                if !inner.queue.is_empty() {
                    return Ok(self.pop(inner).expect("non-empty queue"));
                }
                if self.disconnected() {
                    return Err(RecvError);
                }
                inner.recv_waiting += 1;
                inner = self
                    .shared
                    .not_empty
                    .wait(inner)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                inner.recv_waiting -= 1;
            }
        }

        /// Receive without blocking.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            if self.poll_empty() {
                return Err(TryRecvError::Empty);
            }
            let inner = self.shared.lock();
            if inner.queue.is_empty() {
                return Err(if self.disconnected() {
                    TryRecvError::Disconnected
                } else {
                    TryRecvError::Empty
                });
            }
            Ok(self.pop(inner).expect("non-empty queue"))
        }

        /// Receive, blocking for at most `timeout`.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            if timeout.is_zero() && self.poll_empty() {
                return Err(RecvTimeoutError::Timeout);
            }
            let Some(deadline) = Instant::now().checked_add(timeout) else {
                return self.recv().map_err(|_| RecvTimeoutError::Disconnected);
            };
            let mut inner = self.shared.lock();
            loop {
                if !inner.queue.is_empty() {
                    return Ok(self.pop(inner).expect("non-empty queue"));
                }
                if self.disconnected() {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let left = deadline.saturating_duration_since(Instant::now());
                if left.is_zero() {
                    return Err(RecvTimeoutError::Timeout);
                }
                inner.recv_waiting += 1;
                inner = self
                    .shared
                    .not_empty
                    .wait_timeout(inner, left)
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .0;
                inner.recv_waiting -= 1;
            }
        }

        /// Messages currently queued.
        #[must_use]
        pub fn len(&self) -> usize {
            self.shared.len.load(Ordering::Acquire)
        }

        /// Whether the queue is empty.
        #[must_use]
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// Blocking iterator: ends when the channel disconnects.
        pub fn iter(&self) -> impl Iterator<Item = T> + '_ {
            std::iter::from_fn(move || self.recv().ok())
        }

        /// Non-blocking iterator over what is queued right now.
        pub fn try_iter(&self) -> impl Iterator<Item = T> + '_ {
            std::iter::from_fn(move || self.try_recv().ok())
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared.lock().receivers += 1;
            Receiver {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut inner = self.shared.lock();
            inner.receivers -= 1;
            let last = inner.receivers == 0;
            // Like the real crate, messages nobody can receive any more
            // are dropped with the last receiver (outside the lock: a
            // message's own Drop may touch another channel).
            let orphaned = if last {
                self.shared.len.store(0, Ordering::Release);
                std::mem::take(&mut inner.queue)
            } else {
                VecDeque::new()
            };
            drop(inner);
            drop(orphaned);
            if last {
                self.shared.not_full.notify_all();
            }
        }
    }

    impl<T> fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.pad("Receiver { .. }")
        }
    }

    /// The message could not be sent: every receiver is gone.
    #[derive(Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Why [`Sender::try_send`] failed.
    #[derive(Clone, Copy, PartialEq, Eq)]
    pub enum TrySendError<T> {
        /// The bounded channel is full.
        Full(T),
        /// Every receiver is gone.
        Disconnected(T),
    }

    impl<T> TrySendError<T> {
        /// Recover the unsent message.
        pub fn into_inner(self) -> T {
            match self {
                TrySendError::Full(m) | TrySendError::Disconnected(m) => m,
            }
        }

        /// Whether the failure was a full channel.
        pub fn is_full(&self) -> bool {
            matches!(self, TrySendError::Full(_))
        }

        /// Whether the failure was a disconnected channel.
        pub fn is_disconnected(&self) -> bool {
            matches!(self, TrySendError::Disconnected(_))
        }
    }

    /// The channel is empty and every sender is gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Why [`Receiver::try_recv`] failed.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// Nothing queued right now.
        Empty,
        /// Nothing queued and every sender is gone.
        Disconnected,
    }

    /// Why [`Receiver::recv_timeout`] failed.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// Nothing arrived in time.
        Timeout,
        /// Nothing queued and every sender is gone.
        Disconnected,
    }

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.pad("SendError(..)")
        }
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.pad("sending on a disconnected channel")
        }
    }

    impl<T> std::error::Error for SendError<T> {}

    impl<T> fmt::Debug for TrySendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TrySendError::Full(_) => f.pad("Full(..)"),
                TrySendError::Disconnected(_) => f.pad("Disconnected(..)"),
            }
        }
    }

    impl<T> fmt::Display for TrySendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TrySendError::Full(_) => f.pad("sending on a full channel"),
                TrySendError::Disconnected(_) => f.pad("sending on a disconnected channel"),
            }
        }
    }

    impl<T> std::error::Error for TrySendError<T> {}

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.pad("receiving on an empty and disconnected channel")
        }
    }

    impl std::error::Error for RecvError {}

    impl fmt::Display for TryRecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TryRecvError::Empty => f.pad("receiving on an empty channel"),
                TryRecvError::Disconnected => {
                    f.pad("receiving on an empty and disconnected channel")
                }
            }
        }
    }

    impl std::error::Error for TryRecvError {}

    impl fmt::Display for RecvTimeoutError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                RecvTimeoutError::Timeout => f.pad("timed out waiting on receive operation"),
                RecvTimeoutError::Disconnected => f.pad("channel is empty and disconnected"),
            }
        }
    }

    impl std::error::Error for RecvTimeoutError {}

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn fifo_and_len() {
            let (tx, rx) = unbounded();
            for i in 0..5 {
                tx.send(i).unwrap();
            }
            assert_eq!(rx.len(), 5);
            assert_eq!(rx.try_iter().collect::<Vec<_>>(), vec![0, 1, 2, 3, 4]);
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        }

        #[test]
        fn bounded_blocks_until_drained() {
            let (tx, rx) = bounded(2);
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            assert!(tx.try_send(3).unwrap_err().is_full());
            let t = std::thread::spawn(move || tx.send(3));
            assert_eq!(rx.recv(), Ok(1));
            t.join().unwrap().unwrap();
            assert_eq!(rx.recv(), Ok(2));
            assert_eq!(rx.recv(), Ok(3));
            assert_eq!(rx.recv(), Err(RecvError));
        }

        #[test]
        fn disconnect_both_ways() {
            let (tx, rx) = unbounded::<u8>();
            drop(rx);
            assert!(tx.send(1).is_err());
            let (tx, rx) = unbounded::<u8>();
            drop(tx);
            assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(1)),
                Err(RecvTimeoutError::Disconnected)
            );
        }

        #[test]
        fn recv_timeout_times_out_and_wakes() {
            let (tx, rx) = unbounded();
            assert_eq!(
                rx.recv_timeout(Duration::ZERO),
                Err(RecvTimeoutError::Timeout)
            );
            let t = std::thread::spawn(move || rx.recv_timeout(Duration::from_secs(5)));
            tx.send(7).unwrap();
            assert_eq!(t.join().unwrap(), Ok(7));
        }
    }
}
