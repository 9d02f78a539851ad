//! Sharded, blocking, selectively-receivable mailboxes.
//!
//! A [`Mailbox`] is the real-data transport primitive of the simulated
//! fabric: senders push items, receivers block until an item matching a
//! predicate arrives. Unlike a plain channel, `recv_match` lets a protocol
//! stack wait for a *specific* frame (a CTS from node 3, a credit return on
//! channel 7) while unrelated frames stay queued — which is exactly how
//! NIC receive queues are demultiplexed by the real stacks Madeleine drives.
//!
//! ## Sharded hot path
//!
//! The mailbox used to be one condvar-guarded `VecDeque`: every producer
//! and every consumer — even ones touching *different* peers — serialized
//! on a single lock. It is now a demux over [`SHARD_COUNT`] shards keyed by
//! the item's [`Shardable::shard_key`] (for a [`Frame`]: `(src, kind)`).
//! Each shard is a lock-free bounded ring ([`crossbeam`]'s `ArrayQueue`)
//! with a small mutex-guarded staging deque behind it:
//!
//! * **push** stamps the item with a global monotonic sequence number and
//!   does a lock-free ring push (`shard_hits` counts these). Only when the
//!   ring is full does the producer take the shard's staging lock and spill
//!   the ring into the deque (`ring_overflows` counts those).
//! * **keyed receives** (`recv_keyed` and friends — the targeted fast
//!   path: "the ack from peer 3") open exactly one shard: drain its ring
//!   into the staging deque, scan that deque only.
//! * **predicate receives** (`recv_match` — "any frame matching this")
//!   open every non-empty shard in index order and pick the queued match
//!   with the smallest stamp, preserving the FIFO-among-matches contract
//!   of the unsharded mailbox (`full_scans` counts these).
//!
//! Blocking is the crate's [`EventCount`]: producers on the fast path never
//! touch the sleeper list unless a receiver is actually asleep, and every
//! blocking receive polls [`SPIN_LIMIT`] times before it parks. The count
//! is the owning node's arrivals count for an inbox the world builds —
//! every push into any of the node's inboxes notifies it, so one wait can
//! cover them all — and a private one for a mailbox made with
//! [`Mailbox::new`].
//!
//! This module is one of the lock-free hot-path modules linted by
//! `scripts/verify.sh`: no `parking_lot` locks may appear here.

use crossbeam::queue::ArrayQueue;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use crate::eventcount::{lock_unpoisoned, EventCount};
use crate::frame::{Frame, NodeId};

/// Routes an item to its demux shard. Items whose keys are equal always
/// land in the same shard, which is what makes the keyed receives
/// single-shard operations.
pub trait Shardable {
    fn shard_key(&self) -> u64;
}

/// Number of demux shards per mailbox (power of two).
const SHARD_COUNT: usize = 16;
/// Capacity of each shard's lock-free ring; overflow spills to the shard's
/// staging deque, so this bounds memory of the fast path, not the mailbox.
const RING_CAP: usize = 64;
/// Failed attempts before a blocking receive (deadline or not) parks. Under
/// a message storm the next item lands within a few re-checks, and parking
/// would put a futex round-trip *plus* a notify-all of every sleeper on the
/// per-item path; a genuinely idle receiver still parks.
const SPIN_LIMIT: u32 = 64;

/// Fibonacci multiplicative hash of a shard key → shard index.
fn shard_index(key: u64) -> usize {
    (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 60) as usize & (SHARD_COUNT - 1)
}

/// A queued item plus the metadata the demux needs: its global arrival
/// stamp (for FIFO-among-matches across shards) and its shard key (so
/// keyed scans can skip hash-colliding strangers without re-deriving it).
struct Stamped<T> {
    seq: u64,
    key: u64,
    item: T,
}

struct Shard<T> {
    /// Lock-free producer fast path.
    ring: ArrayQueue<Stamped<T>>,
    /// Consumer-side staging: ring items are drained here (under the
    /// shard lock) so predicate scans can skip non-matching items without
    /// losing them. Also the overflow area when the ring fills.
    staged: Mutex<VecDeque<Stamped<T>>>,
    /// Items in ring + staged (advisory; lets full scans skip idle shards).
    count: AtomicUsize,
}

impl<T> Shard<T> {
    fn new() -> Self {
        Shard {
            ring: ArrayQueue::new(RING_CAP),
            staged: Mutex::new(VecDeque::new()),
            count: AtomicUsize::new(0),
        }
    }
}

struct MailboxInner<T> {
    shards: Vec<Shard<T>>,
    /// Global arrival stamp: the cross-shard FIFO order.
    stamp: AtomicU64,
    /// Notified after every push; blocked receivers re-scan when it moves.
    arrivals: Arc<EventCount>,
    /// Operations resolved against a single shard: lock-free ring pushes
    /// plus keyed receives/peeks.
    shard_hits: AtomicU64,
    /// Pushes that found their shard's ring full and spilled to staging.
    ring_overflows: AtomicU64,
    /// Predicate operations that had to open every non-empty shard.
    full_scans: AtomicU64,
}

/// A multi-producer, multi-consumer mailbox with predicate receive.
pub struct Mailbox<T> {
    inner: Arc<MailboxInner<T>>,
}

impl<T> Clone for Mailbox<T> {
    fn clone(&self) -> Self {
        Mailbox {
            inner: Arc::clone(&self.inner),
        }
    }
}

/// Insert into a staging deque preserving ascending-seq order. Ring
/// drain order is already *nearly* sorted — only a producer whose tail
/// CAS lost can publish a slot ahead of a smaller stamp — so the walk
/// from the back is O(1) amortized. Keeping staging sorted is what lets
/// every scan below stop at its *first* match instead of sweeping the
/// whole deque for the smallest stamp (a full sweep per receive turns a
/// backlog into quadratic work).
fn insert_by_seq<T>(staged: &mut VecDeque<Stamped<T>>, s: Stamped<T>) {
    let mut pos = staged.len();
    while pos > 0 && staged[pos - 1].seq > s.seq {
        pos -= 1;
    }
    staged.insert(pos, s);
}

impl<T: Shardable> Mailbox<T> {
    /// A mailbox with an arrivals count of its own.
    pub fn new() -> Self {
        Self::notifying(Arc::default())
    }

    /// A mailbox whose pushes notify `arrivals`, and whose blocking
    /// receives park on it.
    pub(crate) fn notifying(arrivals: Arc<EventCount>) -> Self {
        Mailbox {
            inner: Arc::new(MailboxInner {
                shards: (0..SHARD_COUNT).map(|_| Shard::new()).collect(),
                stamp: AtomicU64::new(0),
                arrivals,
                shard_hits: AtomicU64::new(0),
                ring_overflows: AtomicU64::new(0),
                full_scans: AtomicU64::new(0),
            }),
        }
    }

    /// Deposit an item and wake any waiting receivers (they re-check their
    /// predicates; only matching ones consume). Lock-free unless the
    /// shard's ring is full or a receiver is asleep.
    pub fn push(&self, item: T) {
        let key = item.shard_key();
        let idx = shard_index(key);
        let shard = &self.inner.shards[idx];
        let seq = self.inner.stamp.fetch_add(1, Ordering::Relaxed);
        shard.count.fetch_add(1, Ordering::Release);
        match shard.ring.push(Stamped { seq, key, item }) {
            Ok(()) => {
                self.inner.shard_hits.fetch_add(1, Ordering::Relaxed);
            }
            Err(overflow) => {
                self.inner.ring_overflows.fetch_add(1, Ordering::Relaxed);
                let mut staged = lock_unpoisoned(&shard.staged);
                while let Some(s) = shard.ring.pop() {
                    insert_by_seq(&mut staged, s);
                }
                insert_by_seq(&mut staged, overflow);
            }
        }
        self.inner.arrivals.notify();
    }

    /// Lock one shard's staging deque and fold its ring into it (in seq
    /// order), so the caller sees every queued item of that shard in one
    /// scannable, oldest-first place.
    fn open_shard(&self, idx: usize) -> MutexGuard<'_, VecDeque<Stamped<T>>> {
        let shard = &self.inner.shards[idx];
        let mut staged = lock_unpoisoned(&shard.staged);
        while let Some(s) = shard.ring.pop() {
            insert_by_seq(&mut staged, s);
        }
        staged
    }

    /// Open every shard that plausibly holds items, in index order (the
    /// fixed order makes the multi-lock acquisition deadlock-free).
    #[allow(clippy::type_complexity)]
    fn open_nonempty(&self) -> Vec<(usize, MutexGuard<'_, VecDeque<Stamped<T>>>)> {
        self.inner.full_scans.fetch_add(1, Ordering::Relaxed);
        (0..SHARD_COUNT)
            .filter(|&i| self.inner.shards[i].count.load(Ordering::Acquire) != 0)
            .map(|i| (i, self.open_shard(i)))
            .collect()
    }

    /// Position of the oldest (smallest-stamp) match across the opened
    /// shards: `(guards index, position in that deque)`. Each deque is
    /// seq-sorted, so only the *first* match per shard competes.
    fn best_match(
        guards: &[(usize, MutexGuard<'_, VecDeque<Stamped<T>>>)],
        pred: &mut impl FnMut(&T) -> bool,
    ) -> Option<(usize, usize)> {
        let mut best: Option<(u64, usize, usize)> = None;
        for (gi, (_, g)) in guards.iter().enumerate() {
            if let Some((pos, s)) = g.iter().enumerate().find(|(_, s)| pred(&s.item)) {
                if best.is_none_or(|(bseq, _, _)| s.seq < bseq) {
                    best = Some((s.seq, gi, pos));
                }
            }
        }
        best.map(|(_, gi, pos)| (gi, pos))
    }

    fn take_at(
        &self,
        guards: &mut [(usize, MutexGuard<'_, VecDeque<Stamped<T>>>)],
        gi: usize,
        pos: usize,
    ) -> T {
        let (si, g) = &mut guards[gi];
        let s = g.remove(pos).expect("position just found");
        self.inner.shards[*si].count.fetch_sub(1, Ordering::Release);
        s.item
    }

    /// Run `attempt` until it yields, blocking on pushes in between. With
    /// a real-time `timeout`, `None` once it expires (after one final
    /// attempt: an item may have raced in); without one, always `Some`.
    fn wait_for<R>(
        &self,
        timeout: Option<Duration>,
        attempt: impl FnMut() -> Option<R>,
    ) -> Option<R> {
        self.inner
            .arrivals
            .wait_timeout(SPIN_LIMIT, timeout, attempt)
    }

    /// [`wait_for`](Self::wait_for) without a timeout.
    fn block_on<R>(&self, attempt: impl FnMut() -> Option<R>) -> R {
        let got = self.wait_for(None, attempt);
        got.expect("a wait without a timeout ends only in success")
    }

    /// Block until an item satisfying `pred` is present; remove and return
    /// the *oldest* matching item (FIFO among matches).
    pub fn recv_match(&self, mut pred: impl FnMut(&T) -> bool) -> T {
        self.block_on(|| self.try_recv_match(&mut pred))
    }

    /// Non-blocking variant of [`recv_match`](Self::recv_match).
    pub fn try_recv_match(&self, mut pred: impl FnMut(&T) -> bool) -> Option<T> {
        let mut guards = self.open_nonempty();
        let (gi, pos) = Self::best_match(&guards, &mut pred)?;
        Some(self.take_at(&mut guards, gi, pos))
    }

    /// Block until any item is present; FIFO.
    pub fn recv(&self) -> T {
        self.recv_match(|_| true)
    }

    /// Targeted receive: the oldest item whose [`Shardable::shard_key`]
    /// equals `key` and which satisfies `pred`. Opens exactly one shard —
    /// this is the hot-path variant the protocol stacks use when they know
    /// who they are listening to ("the ack from peer 3").
    pub fn recv_keyed(&self, key: u64, mut pred: impl FnMut(&T) -> bool) -> T {
        self.block_on(|| self.try_recv_keyed(key, &mut pred))
    }

    /// [`recv_keyed`](Self::recv_keyed) with an optional real-time
    /// deadline: `None` if no match arrived within `timeout`. Without one
    /// this is exactly `recv_keyed`'s wait — the fault-bounded waits of the
    /// stacks (see [`crate::stacks`]) make it on a clean world.
    pub fn recv_keyed_timeout(
        &self,
        key: u64,
        mut pred: impl FnMut(&T) -> bool,
        timeout: Option<Duration>,
    ) -> Option<T> {
        self.wait_for(timeout, || self.try_recv_keyed(key, &mut pred))
    }

    /// Non-blocking variant of [`recv_keyed`](Self::recv_keyed). The
    /// staging deque is seq-sorted, so the first key-and-predicate match
    /// is the oldest one — the scan stops there.
    pub fn try_recv_keyed(&self, key: u64, mut pred: impl FnMut(&T) -> bool) -> Option<T> {
        self.inner.shard_hits.fetch_add(1, Ordering::Relaxed);
        let idx = shard_index(key);
        let mut g = self.open_shard(idx);
        let pos = g.iter().position(|s| s.key == key && pred(&s.item))?;
        let s = g.remove(pos).expect("position just found");
        self.inner.shards[idx].count.fetch_sub(1, Ordering::Release);
        Some(s.item)
    }

    /// Non-consuming keyed query: `proj` of the oldest key-and-predicate
    /// match, if any. Single-shard, no clone.
    pub fn try_peek_keyed_map<U>(
        &self,
        key: u64,
        mut pred: impl FnMut(&T) -> bool,
        proj: impl FnOnce(&T) -> U,
    ) -> Option<U> {
        self.inner.shard_hits.fetch_add(1, Ordering::Relaxed);
        let g = self.open_shard(shard_index(key));
        g.iter()
            .find(|s| s.key == key && pred(&s.item))
            .map(|s| proj(&s.item))
    }

    /// Block until an item satisfying `pred` is present and return `proj`
    /// of the oldest match, computed under the shard locks, **without
    /// consuming it**. A projection, not a clone: an announce only needs
    /// a source id or a flag out of a queued frame.
    pub fn peek_wait_map<U>(
        &self,
        mut pred: impl FnMut(&T) -> bool,
        proj: impl FnOnce(&T) -> U,
    ) -> U {
        // The projection is FnOnce but attempts may fail repeatedly; only
        // take it out of the Option once a match is actually in hand.
        let mut proj = Some(proj);
        self.block_on(|| {
            let guards = self.open_nonempty();
            let (gi, pos) = Self::best_match(&guards, &mut pred)?;
            let p = proj.take().expect("only one attempt can succeed");
            Some(p(&guards[gi].1[pos].item))
        })
    }

    /// Non-blocking [`peek_wait_map`](Self::peek_wait_map): `proj` of the
    /// oldest matching item, if any — no clone.
    pub fn try_peek_map<U>(
        &self,
        mut pred: impl FnMut(&T) -> bool,
        proj: impl FnOnce(&T) -> U,
    ) -> Option<U> {
        let guards = self.open_nonempty();
        let (gi, pos) = Self::best_match(&guards, &mut pred)?;
        Some(proj(&guards[gi].1[pos].item))
    }

    /// Number of queued items matching `pred`, without consuming anything.
    /// (The BIP stack sizes its credit refills from the queued-short count;
    /// this replaces its old trick of scanning via an always-false
    /// `try_recv_match` predicate.)
    pub fn count_match(&self, mut pred: impl FnMut(&T) -> bool) -> usize {
        let guards = self.open_nonempty();
        let mut n = 0;
        for (_, g) in &guards {
            for s in g.iter() {
                if pred(&s.item) {
                    n += 1;
                }
            }
        }
        n
    }

    /// Number of queued items (racy; for tests and diagnostics).
    pub fn len(&self) -> usize {
        self.inner
            .shards
            .iter()
            .map(|s| s.count.load(Ordering::Acquire))
            .sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Operations that touched exactly one shard (lock-free ring pushes
    /// plus keyed receives/peeks). Exposed as `mailbox_shard_hits`.
    pub fn shard_hits(&self) -> u64 {
        self.inner.shard_hits.load(Ordering::Relaxed)
    }

    /// Pushes that found their shard's ring full and spilled to the
    /// staging deque under the shard lock.
    pub fn ring_overflows(&self) -> u64 {
        self.inner.ring_overflows.load(Ordering::Relaxed)
    }

    /// Predicate operations that had to open every non-empty shard.
    pub fn full_scans(&self) -> u64 {
        self.inner.full_scans.load(Ordering::Relaxed)
    }
}

impl<T: Shardable> Default for Mailbox<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// Frame-specific demux facade: the shared queries the protocol stacks
/// (tcp / sbp / bip / via) build their receive paths from, so each stack
/// no longer hand-rolls its own `peek_pending_src` helper.
impl Mailbox<Frame> {
    /// The source of the oldest queued frame of `kind` carrying `tag` (any
    /// source), **without consuming it**: the announce query behind every
    /// stack's `peek_pending_src`.
    pub fn poll_src_of(&self, kind: u16, tag: u64) -> Option<NodeId> {
        self.try_peek_map(|f| f.kind == kind && f.tag == tag, |f| f.src)
    }

    /// Targeted blocking receive: oldest frame from `src` of `kind`
    /// satisfying `pred`. Single-shard.
    pub fn recv_from(&self, src: NodeId, kind: u16, pred: impl FnMut(&Frame) -> bool) -> Frame {
        self.recv_keyed(Frame::demux_key(src, kind), pred)
    }

    /// Targeted non-blocking receive. Single-shard.
    pub fn try_recv_from(
        &self,
        src: NodeId,
        kind: u16,
        pred: impl FnMut(&Frame) -> bool,
    ) -> Option<Frame> {
        self.try_recv_keyed(Frame::demux_key(src, kind), pred)
    }

    /// Targeted receive with an optional real-time deadline. Single-shard.
    pub fn recv_from_timeout(
        &self,
        src: NodeId,
        kind: u16,
        pred: impl FnMut(&Frame) -> bool,
        timeout: Option<Duration>,
    ) -> Option<Frame> {
        self.recv_keyed_timeout(Frame::demux_key(src, kind), pred, timeout)
    }

    /// Whether a frame from `src` of `kind` satisfying `pred` is queued.
    /// Single-shard, non-consuming.
    pub fn has_from(&self, src: NodeId, kind: u16, pred: impl FnMut(&Frame) -> bool) -> bool {
        self.try_peek_keyed_map(Frame::demux_key(src, kind), pred, |_| ())
            .is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;
    use std::time::Duration;

    impl Shardable for i32 {
        fn shard_key(&self) -> u64 {
            *self as u64
        }
    }

    #[test]
    fn push_then_recv_fifo() {
        let m = Mailbox::new();
        m.push(1);
        m.push(2);
        assert_eq!(m.recv(), 1);
        assert_eq!(m.recv(), 2);
    }

    #[test]
    fn recv_match_skips_non_matching() {
        let m = Mailbox::new();
        m.push(1);
        m.push(2);
        m.push(3);
        assert_eq!(m.recv_match(|&x| x % 2 == 0), 2);
        // Non-matching items stayed queued in order.
        assert_eq!(m.recv(), 1);
        assert_eq!(m.recv(), 3);
    }

    #[test]
    fn try_recv_match_returns_none_when_absent() {
        let m: Mailbox<i32> = Mailbox::new();
        assert!(m.try_recv_match(|_| true).is_none());
        m.push(5);
        assert_eq!(m.try_recv_match(|&x| x == 9), None);
        assert_eq!(m.try_recv_match(|&x| x == 5), Some(5));
        assert!(m.is_empty());
    }

    #[test]
    fn blocking_recv_wakes_on_push() {
        let m = Mailbox::new();
        let m2 = m.clone();
        let h = thread::spawn(move || m2.recv_match(|&x| x == 42));
        thread::sleep(Duration::from_millis(20));
        m.push(7); // wrong item: receiver keeps waiting
        m.push(42);
        assert_eq!(h.join().unwrap(), 42);
        assert_eq!(m.recv(), 7);
    }

    #[test]
    fn two_waiters_with_different_predicates() {
        let m = Mailbox::new();
        let (ma, mb) = (m.clone(), m.clone());
        let ha = thread::spawn(move || ma.recv_match(|&x| x == 1));
        let hb = thread::spawn(move || mb.recv_match(|&x| x == 2));
        thread::sleep(Duration::from_millis(20));
        m.push(2);
        m.push(1);
        assert_eq!(ha.join().unwrap(), 1);
        assert_eq!(hb.join().unwrap(), 2);
    }

    #[test]
    fn fifo_among_matches() {
        let m = Mailbox::new();
        for i in [10, 11, 12, 13] {
            m.push(i);
        }
        assert_eq!(m.recv_match(|&x| x % 2 == 1), 11);
        assert_eq!(m.recv_match(|&x| x % 2 == 1), 13);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn fifo_preserved_across_shards() {
        // Consecutive keys land in different shards; the global stamp must
        // still deliver them in push order to a predicate receive.
        let m = Mailbox::new();
        for i in 0..64 {
            m.push(i);
        }
        for i in 0..64 {
            assert_eq!(m.recv(), i);
        }
    }

    #[test]
    fn keyed_recv_only_sees_its_key() {
        let m = Mailbox::new();
        m.push(7);
        m.push(9);
        // 7 and 9 may or may not share a shard; the key filter must
        // separate them either way.
        assert_eq!(m.try_recv_keyed(9, |_| true), Some(9));
        assert_eq!(m.try_recv_keyed(9, |_| true), None);
        assert_eq!(m.try_recv_keyed(7, |_| true), Some(7));
    }

    #[test]
    fn keyed_recv_blocks_until_key_arrives() {
        let m = Mailbox::new();
        let m2 = m.clone();
        let h = thread::spawn(move || m2.recv_keyed(5, |_| true));
        thread::sleep(Duration::from_millis(20));
        m.push(6); // different key: waiter stays parked
        m.push(5);
        assert_eq!(h.join().unwrap(), 5);
        assert_eq!(m.recv(), 6);
    }

    #[test]
    fn keyed_timeout_expires_empty() {
        let m: Mailbox<i32> = Mailbox::new();
        let got = m.recv_keyed_timeout(3, |_| true, Some(Duration::from_millis(10)));
        assert_eq!(got, None);
    }

    #[test]
    fn count_match_counts_without_consuming() {
        let m = Mailbox::new();
        for i in [1, 2, 3, 4, 5] {
            m.push(i);
        }
        assert_eq!(m.count_match(|&x| x % 2 == 1), 3);
        assert_eq!(m.len(), 5, "count must not consume");
    }

    #[test]
    fn ring_overflow_spills_to_staging_without_loss() {
        // Same key for every item: one shard's ring (RING_CAP) must
        // overflow into staging; nothing may be lost or reordered.
        let m = Mailbox::new();
        let n = (RING_CAP * 3) as i32;
        for _ in 0..n {
            m.push(8);
        }
        assert!(m.ring_overflows() > 0);
        assert_eq!(m.len(), n as usize);
        for _ in 0..n {
            assert_eq!(m.try_recv_keyed(8, |_| true), Some(8));
        }
        assert!(m.is_empty());
    }

    #[test]
    fn contention_counters_move() {
        let m = Mailbox::new();
        m.push(1);
        assert_eq!(m.shard_hits(), 1, "ring push is a shard hit");
        m.try_recv_keyed(1, |_| true);
        assert_eq!(m.shard_hits(), 2, "keyed receive is a shard hit");
        m.push(2);
        let before = m.full_scans();
        m.try_recv_match(|_| true);
        assert!(m.full_scans() > before);
    }

    /// A type that panics if cloned: proves the projection peeks really
    /// never clone the queued item.
    struct NoClone(u32);
    impl Clone for NoClone {
        fn clone(&self) -> Self {
            panic!("peeked item was cloned");
        }
    }
    impl Shardable for NoClone {
        fn shard_key(&self) -> u64 {
            self.0 as u64
        }
    }

    #[test]
    fn try_peek_map_does_not_clone_or_consume() {
        let m = Mailbox::new();
        assert_eq!(m.try_peek_map(|_: &NoClone| true, |x| x.0), None);
        m.push(NoClone(7));
        m.push(NoClone(8));
        assert_eq!(m.try_peek_map(|x| x.0 > 7, |x| x.0), Some(8));
        assert_eq!(m.len(), 2, "peek must not consume");
    }

    #[test]
    fn peek_wait_map_wakes_on_push_without_cloning() {
        let m = Mailbox::new();
        let m2 = m.clone();
        let h = thread::spawn(move || m2.peek_wait_map(|x: &NoClone| x.0 == 42, |x| x.0));
        thread::sleep(Duration::from_millis(20));
        m.push(NoClone(42));
        assert_eq!(h.join().unwrap(), 42);
        assert_eq!(m.len(), 1, "peek must not consume");
    }

    /// A (key, sequence) item for the interleaving test below: items with
    /// the same key share a shard stream, like frames from one peer.
    struct Keyed {
        key: u64,
        seq: u64,
    }
    impl Shardable for Keyed {
        fn shard_key(&self) -> u64 {
            self.key
        }
    }

    /// Seeded multi-thread interleaving over the shard demux: one producer
    /// and one keyed consumer per key, all running concurrently, with
    /// xorshift-paced yields perturbing the schedule differently per seed.
    /// Every consumer must see *its* key's items exactly once, in push
    /// order (the per-key FIFO the old single-lock mailbox guaranteed),
    /// regardless of how keys collide onto shards or how often rings
    /// overflow into staging.
    #[test]
    fn keyed_streams_stay_fifo_under_seeded_interleaving() {
        const KEYS: u64 = 4;
        const PER_KEY: u64 = 2000;
        for seed in [0x9E37_79B9u64, 0xDEAD_BEEF, 0x1234_5678] {
            let m: Mailbox<Keyed> = Mailbox::new();
            thread::scope(|s| {
                for key in 0..KEYS {
                    let mp = m.clone();
                    let mut rng = seed ^ (key.wrapping_mul(0x85EB_CA6B) | 1);
                    s.spawn(move || {
                        for seq in 0..PER_KEY {
                            mp.push(Keyed { key, seq });
                            rng ^= rng << 13;
                            rng ^= rng >> 7;
                            rng ^= rng << 17;
                            if rng % 7 == 0 {
                                thread::yield_now();
                            }
                        }
                    });
                    let mc = m.clone();
                    let mut rng = seed ^ (key.wrapping_mul(0xC2B2_AE35) | 1);
                    s.spawn(move || {
                        for expect in 0..PER_KEY {
                            let got = mc.recv_keyed(key, |_| true);
                            assert_eq!(got.key, key, "keyed recv crossed streams");
                            assert_eq!(
                                got.seq, expect,
                                "key {key} out of order under seed {seed:#x}"
                            );
                            rng ^= rng << 13;
                            rng ^= rng >> 7;
                            rng ^= rng << 17;
                            if rng % 5 == 0 {
                                thread::yield_now();
                            }
                        }
                    });
                }
            });
            assert!(m.is_empty(), "items lost or duplicated under {seed:#x}");
            assert!(m.shard_hits() > 0);
        }
    }
}
