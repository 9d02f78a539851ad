//! Offline stand-in for `crossbeam`: the two items the workspace uses.
//!
//! * [`queue::ArrayQueue`] — a bounded lock-free MPMC ring (Vyukov's
//!   algorithm, the one the real crate implements), because the mailbox,
//!   completion queue and buffer pool are measured as lock-free code;
//! * [`channel::bounded`] — a blocking bounded channel over
//!   `std::sync::mpsc::sync_channel` (used by the gateway's slot ring).

pub mod queue {
    use std::cell::UnsafeCell;
    use std::mem::MaybeUninit;
    use std::sync::atomic::{AtomicUsize, Ordering};

    struct Slot<T> {
        /// `== index` when the slot is free for the producer of that lap,
        /// `== index + 1` once its value is published for the consumer.
        stamp: AtomicUsize,
        value: UnsafeCell<MaybeUninit<T>>,
    }

    /// Keeps the producer and consumer cursors on separate cache lines.
    #[repr(align(64))]
    struct Padded(AtomicUsize);

    /// A bounded multi-producer multi-consumer queue.
    pub struct ArrayQueue<T> {
        head: Padded,
        tail: Padded,
        slots: Box<[Slot<T>]>,
    }

    // SAFETY: a slot's value is written only by the producer that won the
    // `tail` CAS for that position and read only by the consumer that won
    // the `head` CAS, with the Release store / Acquire load of `stamp`
    // ordering the write before the read. Values cross threads, hence
    // `T: Send`; no `&T` is ever shared, so `T: Sync` is not required.
    unsafe impl<T: Send> Send for ArrayQueue<T> {}
    unsafe impl<T: Send> Sync for ArrayQueue<T> {}

    impl<T> ArrayQueue<T> {
        /// # Panics
        /// Panics if `cap` is zero.
        pub fn new(cap: usize) -> Self {
            assert!(cap > 0, "capacity must be non-zero");
            ArrayQueue {
                head: Padded(AtomicUsize::new(0)),
                tail: Padded(AtomicUsize::new(0)),
                slots: (0..cap)
                    .map(|i| Slot {
                        stamp: AtomicUsize::new(i),
                        value: UnsafeCell::new(MaybeUninit::uninit()),
                    })
                    .collect(),
            }
        }

        /// Append `value`, or hand it back if the queue is full.
        pub fn push(&self, value: T) -> Result<(), T> {
            let mut pos = self.tail.0.load(Ordering::Relaxed);
            loop {
                let slot = &self.slots[pos % self.slots.len()];
                let stamp = slot.stamp.load(Ordering::Acquire);
                if stamp == pos {
                    match self.tail.0.compare_exchange_weak(
                        pos,
                        pos + 1,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => {
                            // SAFETY: winning the CAS on `tail` with
                            // `stamp == pos` makes this thread the only
                            // writer of the slot until the Release store
                            // below publishes it.
                            unsafe { (*slot.value.get()).write(value) };
                            slot.stamp.store(pos + 1, Ordering::Release);
                            return Ok(());
                        }
                        Err(cur) => pos = cur,
                    }
                } else if stamp < pos {
                    // The slot still holds the value of the previous lap.
                    return Err(value);
                } else {
                    pos = self.tail.0.load(Ordering::Relaxed);
                }
            }
        }

        /// Remove the oldest value, if any.
        pub fn pop(&self) -> Option<T> {
            let mut pos = self.head.0.load(Ordering::Relaxed);
            loop {
                let slot = &self.slots[pos % self.slots.len()];
                let stamp = slot.stamp.load(Ordering::Acquire);
                if stamp == pos + 1 {
                    match self.head.0.compare_exchange_weak(
                        pos,
                        pos + 1,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => {
                            // SAFETY: `stamp == pos + 1` (Acquire) means
                            // the producer's write is visible, and winning
                            // the CAS on `head` makes this thread the only
                            // reader; the store frees the slot for the
                            // next lap.
                            let value = unsafe { (*slot.value.get()).assume_init_read() };
                            slot.stamp.store(pos + self.slots.len(), Ordering::Release);
                            return Some(value);
                        }
                        Err(cur) => pos = cur,
                    }
                } else if stamp <= pos {
                    return None;
                } else {
                    pos = self.head.0.load(Ordering::Relaxed);
                }
            }
        }

        /// Number of queued values (a snapshot under concurrency).
        pub fn len(&self) -> usize {
            let head = self.head.0.load(Ordering::SeqCst);
            let tail = self.tail.0.load(Ordering::SeqCst);
            tail.saturating_sub(head).min(self.slots.len())
        }

        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Drop for ArrayQueue<T> {
        fn drop(&mut self) {
            while self.pop().is_some() {}
        }
    }

    impl<T> std::fmt::Debug for ArrayQueue<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.pad("ArrayQueue { .. }")
        }
    }
}

pub mod channel {
    use std::sync::mpsc;
    pub use std::sync::mpsc::{RecvError, SendError};

    pub struct Sender<T>(mpsc::SyncSender<T>);

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            Sender(self.0.clone())
        }
    }

    impl<T> Sender<T> {
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            self.0.send(value)
        }
    }

    pub struct Receiver<T>(mpsc::Receiver<T>);

    impl<T> Receiver<T> {
        pub fn recv(&self) -> Result<T, RecvError> {
            self.0.recv()
        }
    }

    /// A channel holding at most `cap` messages; `send` blocks when full.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::sync_channel(cap);
        (Sender(tx), Receiver(rx))
    }
}
