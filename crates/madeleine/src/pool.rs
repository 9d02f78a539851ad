//! Pooled buffer slabs for the zero-copy send path.
//!
//! Every place the generic layer used to allocate a fresh buffer — per-message
//! headers, SAFER defensive copies, StaticCopy protocol buffers, gateway
//! fragment staging — now checks a segment out of a [`BufPool`] and returns it
//! on drop. On a steady-state workload (ping-pong, RPC storm) every message
//! after the first few reuses warm memory: no allocator traffic, no page
//! faults, and the pool hit-rate is an observable number ([`Stats::pool_hits`]
//! / [`Stats::pool_misses`]) rather than a hope.
//!
//! The design is deliberately simple — a handful of power-of-two-ish size
//! classes, each a **lock-free** free list of `Box<[u8]>` slabs (a bounded
//! MPMC array queue) — because the pool sits on the send hot path: checkout
//! and checkin are one atomic `pop`/`push` each, O(1) with no search and no
//! lock to convoy on when several connections churn buffers at once. A
//! `push` against a full queue simply drops the slab, which doubles as the
//! retention bound. (This file is lint-guarded by `scripts/verify.sh`: no
//! `parking_lot` locks may reappear here.) Classes
//! are sized to the buffers the drivers actually request (16-byte headers,
//! BIP's 1 kB short buffers, VIA's 8 kB, SBP's 32 kB, and megabyte-class
//! bodies for SAFER bulk).

use crate::stats::Stats;
use crossbeam::queue::ArrayQueue;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// Size classes, smallest to largest. A request is served from the smallest
/// class that fits; larger requests fall back to an exact one-shot allocation
/// that is never recycled (and counts as a pool miss).
const CLASS_SIZES: &[usize] = &[64, 1024, 8 * 1024, 32 * 1024, 256 * 1024, 1024 * 1024];

/// Per-class cap on retained free slabs (the free-queue capacity; must be
/// a power of two). A checkin that finds the queue full frees the memory
/// instead of growing the pool without bound.
const MAX_FREE_PER_CLASS: usize = 32;

struct PoolShared {
    classes: Vec<ArrayQueue<Box<[u8]>>>,
    stats: Arc<Stats>,
}

/// A per-channel pool of reusable buffer segments.
///
/// Cloning is cheap (an `Arc` bump); all clones share the same free lists and
/// the same [`Stats`] hit/miss counters.
#[derive(Clone)]
pub struct BufPool {
    shared: Arc<PoolShared>,
}

impl fmt::Debug for BufPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let free: Vec<usize> = self.shared.classes.iter().map(|c| c.len()).collect();
        f.debug_struct("BufPool").field("free", &free).finish()
    }
}

impl BufPool {
    /// A fresh, empty pool whose hit/miss counters land on `stats`.
    pub fn new(stats: Arc<Stats>) -> Self {
        BufPool {
            shared: Arc::new(PoolShared {
                classes: CLASS_SIZES
                    .iter()
                    .map(|_| ArrayQueue::new(MAX_FREE_PER_CLASS))
                    .collect(),
                stats,
            }),
        }
    }

    /// Check out a buffer with at least `size` bytes of capacity.
    ///
    /// The returned handle exposes exactly `size` bytes of capacity (the
    /// backing slab may be larger) and starts empty (`len() == 0`). Dropping
    /// it returns the slab to the pool.
    pub fn checkout(&self, size: usize) -> PooledBuf {
        let class = CLASS_SIZES.iter().position(|&c| c >= size);
        let mem = match class {
            Some(idx) => {
                let recycled = self.shared.classes[idx].pop();
                match recycled {
                    Some(m) => {
                        self.shared.stats.record_pool_hit();
                        m
                    }
                    None => {
                        self.shared.stats.record_pool_miss();
                        vec![0u8; CLASS_SIZES[idx]].into_boxed_slice()
                    }
                }
            }
            None => {
                // Oversized: exact allocation, never recycled.
                self.shared.stats.record_pool_miss();
                vec![0u8; size].into_boxed_slice()
            }
        };
        PooledBuf {
            mem: Some(mem),
            cap: size,
            len: 0,
            class,
            shared: Arc::clone(&self.shared),
        }
    }

    /// Check out a buffer and fill it with a copy of `data`.
    ///
    /// This is the SAFER path: the copy is deliberate and the caller accounts
    /// for it; the pool only saves the allocation.
    pub fn checkout_from(&self, data: &[u8]) -> PooledBuf {
        let mut b = self.checkout(data.len());
        b.extend_from_slice(data);
        b
    }

    /// Free slabs currently retained, summed over all classes (for tests and
    /// debug output).
    pub fn free_count(&self) -> usize {
        self.shared.classes.iter().map(|c| c.len()).sum()
    }

    /// The stats sink shared by this pool.
    pub fn stats(&self) -> &Arc<Stats> {
        &self.shared.stats
    }
}

/// An owned, reusable buffer segment checked out of a [`BufPool`].
///
/// Acts like a fixed-capacity `Vec<u8>`: `len()` bytes are filled, the rest
/// is spare. `Deref`s to the filled prefix. On drop the backing slab goes
/// back to its pool's free list (oversized one-shots are simply freed).
pub struct PooledBuf {
    mem: Option<Box<[u8]>>,
    /// Requested capacity — what the caller is allowed to see, which may be
    /// less than the backing slab's class size.
    cap: usize,
    len: usize,
    class: Option<usize>,
    shared: Arc<PoolShared>,
}

impl PooledBuf {
    pub fn capacity(&self) -> usize {
        self.cap
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn remaining(&self) -> usize {
        self.cap - self.len
    }

    /// The filled prefix.
    pub fn filled(&self) -> &[u8] {
        &self.mem.as_ref().expect("pooled buffer present")[..self.len]
    }

    /// The unfilled tail, up to the requested capacity.
    pub fn spare_mut(&mut self) -> &mut [u8] {
        let len = self.len;
        let cap = self.cap;
        &mut self.mem.as_mut().expect("pooled buffer present")[len..cap]
    }

    /// Declare `n` more bytes filled (after writing them via `spare_mut`).
    pub fn advance(&mut self, n: usize) {
        assert!(self.len + n <= self.cap, "PooledBuf::advance past capacity");
        self.len += n;
    }

    /// Append a copy of `data`. The caller is responsible for charging the
    /// copy to its accounting (the pool does not guess intent).
    pub fn extend_from_slice(&mut self, data: &[u8]) {
        assert!(
            self.len + data.len() <= self.cap,
            "PooledBuf::extend_from_slice past capacity ({} + {} > {})",
            self.len,
            data.len(),
            self.cap
        );
        let len = self.len;
        self.mem.as_mut().expect("pooled buffer present")[len..len + data.len()]
            .copy_from_slice(data);
        self.len += data.len();
    }

    /// Reset to empty without returning the slab.
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// The whole requested capacity, ignoring the fill level. For wrappers
    /// (e.g. `StaticBuf`) that track their own fill length.
    pub fn raw(&self) -> &[u8] {
        &self.mem.as_ref().expect("pooled buffer present")[..self.cap]
    }

    /// Mutable view of the whole requested capacity.
    pub fn raw_mut(&mut self) -> &mut [u8] {
        let cap = self.cap;
        &mut self.mem.as_mut().expect("pooled buffer present")[..cap]
    }
}

impl Deref for PooledBuf {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.filled()
    }
}

impl AsRef<[u8]> for PooledBuf {
    fn as_ref(&self) -> &[u8] {
        self.filled()
    }
}

impl fmt::Debug for PooledBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PooledBuf")
            .field("len", &self.len)
            .field("cap", &self.cap)
            .field("class", &self.class)
            .finish()
    }
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        if let (Some(mem), Some(idx)) = (self.mem.take(), self.class) {
            // Full queue → Err(mem) → the slab drops; the pool is full
            // enough. The queue's bounded capacity IS the retention cap.
            let _ = self.shared.classes[idx].push(mem);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> BufPool {
        BufPool::new(Stats::new())
    }

    #[test]
    fn checkout_checkin_reuses_slab() {
        let p = pool();
        let first = p.checkout(100);
        let ptr = first.mem.as_ref().unwrap().as_ptr();
        drop(first);
        assert_eq!(p.free_count(), 1);
        let second = p.checkout(200); // same 1 kB class
        assert_eq!(ptr, second.mem.as_ref().unwrap().as_ptr(), "slab reused");
        assert_eq!(p.stats().pool_hits(), 1);
        assert_eq!(p.stats().pool_misses(), 1);
    }

    #[test]
    fn capacity_is_the_requested_size() {
        let p = pool();
        let b = p.checkout(100);
        assert_eq!(b.capacity(), 100);
        assert_eq!(b.len(), 0);
        assert_eq!(b.remaining(), 100);
    }

    #[test]
    fn classes_do_not_mix() {
        let p = pool();
        drop(p.checkout(16)); // 64 B class
        let b = p.checkout(4096); // 8 kB class: must miss, not reuse the 64 B slab
        assert!(b.mem.as_ref().unwrap().len() >= 4096);
        assert_eq!(p.stats().pool_hits(), 0);
        assert_eq!(p.stats().pool_misses(), 2);
    }

    #[test]
    fn oversized_requests_fall_back_to_exact_alloc() {
        let p = pool();
        let big = p.checkout(3 * 1024 * 1024);
        assert_eq!(big.capacity(), 3 * 1024 * 1024);
        assert_eq!(big.mem.as_ref().unwrap().len(), 3 * 1024 * 1024);
        drop(big);
        assert_eq!(p.free_count(), 0, "oversized slabs are not retained");
        assert_eq!(p.stats().pool_misses(), 1);
    }

    #[test]
    fn fill_and_read_back() {
        let p = pool();
        let mut b = p.checkout(10);
        b.extend_from_slice(b"hello");
        b.spare_mut()[..2].copy_from_slice(b", ");
        b.advance(2);
        assert_eq!(&b[..], b"hello, ");
        b.clear();
        assert!(b.is_empty());
    }

    #[test]
    #[should_panic(expected = "past capacity")]
    fn overfill_panics() {
        let p = pool();
        let mut b = p.checkout(4);
        b.extend_from_slice(b"12345");
    }

    #[test]
    fn retention_is_bounded() {
        let p = pool();
        let many: Vec<PooledBuf> = (0..MAX_FREE_PER_CLASS + 8)
            .map(|_| p.checkout(32))
            .collect();
        drop(many);
        assert_eq!(p.free_count(), MAX_FREE_PER_CLASS);
    }

    #[test]
    fn steady_state_hit_rate_is_total() {
        let p = pool();
        // Warm-up: one miss.
        drop(p.checkout(1024));
        for _ in 0..100 {
            drop(p.checkout(1024));
        }
        assert_eq!(p.stats().pool_hits(), 100);
        assert_eq!(p.stats().pool_misses(), 1);
    }

    #[test]
    fn concurrent_checkout_from_two_threads() {
        let p = pool();
        let p2 = p.clone();
        let t = std::thread::spawn(move || {
            for i in 0..500 {
                let mut b = p2.checkout(512);
                b.extend_from_slice(&[i as u8; 64]);
                assert_eq!(b.len(), 64);
            }
        });
        for i in 0..500 {
            let mut b = p.checkout(512);
            b.extend_from_slice(&[i as u8; 32]);
            assert_eq!(b.len(), 32);
        }
        t.join().unwrap();
        assert_eq!(p.stats().pool_hits() + p.stats().pool_misses(), 1000);
        assert!(p.free_count() <= MAX_FREE_PER_CLASS);
    }
}
