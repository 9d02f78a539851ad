//! Copy and traffic accounting.
//!
//! The paper's performance argument is largely about *copies avoided*
//! (dynamic buffers, zero-copy rendezvous, static-buffer borrowing on
//! gateways). Every memory-to-memory copy the library performs on behalf of
//! the user is counted here, so tests can assert the zero-copy claims
//! exactly rather than inferring them from timing.

use crate::tm::TmId;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One `(count, bytes)` cell of a [`TrafficTable`].
#[derive(Debug, Default)]
struct TrafficCell {
    n: AtomicU64,
    bytes: AtomicU64,
}

/// Fixed table of traffic cells indexed by TM or rail id. Replaces the
/// old `Mutex<HashMap<..>>` breakdowns: recording is two relaxed
/// `fetch_add`s on the hot send path — no lock, no allocation, no
/// contention between rails. Reads are monotonic but a `(count, bytes)`
/// pair is not a consistent snapshot while writers are live; that is
/// fine for observability counters, which tests read quiesced.
#[derive(Debug)]
struct TrafficTable<const N: usize>([TrafficCell; N]);

impl<const N: usize> Default for TrafficTable<N> {
    fn default() -> Self {
        TrafficTable(std::array::from_fn(|_| TrafficCell::default()))
    }
}

impl<const N: usize> TrafficTable<N> {
    fn record(&self, idx: usize, bytes: usize) {
        let cell = &self.0[idx];
        cell.n.fetch_add(1, Ordering::Relaxed);
        cell.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// `(count, bytes)` recorded under `idx`; `(0, 0)` for ids out of
    /// range (a rail id beyond the mask-imposed cap never records).
    fn get(&self, idx: usize) -> (u64, u64) {
        match self.0.get(idx) {
            Some(c) => (c.n.load(Ordering::Relaxed), c.bytes.load(Ordering::Relaxed)),
            None => (0, 0),
        }
    }

    /// Every id with traffic, in id order (the array is the sort).
    fn breakdown(&self) -> Vec<(usize, u64, u64)> {
        self.0
            .iter()
            .enumerate()
            .filter_map(|(i, c)| {
                let n = c.n.load(Ordering::Relaxed);
                (n > 0).then(|| (i, n, c.bytes.load(Ordering::Relaxed)))
            })
            .collect()
    }
}

/// Shared counters for one channel (or one gateway pipeline).
#[derive(Debug, Default)]
pub struct Stats {
    /// Software copies performed by the *generic layer* (BMM copies into or
    /// out of static buffers, SAFER defensive copies). Wire transfers and
    /// NIC DMA are *not* copies, and neither are copies a protocol's own
    /// machinery performs below the TM interface — those land in
    /// `tm_copies`/`tm_copied_bytes`.
    copies: AtomicU64,
    /// Total bytes moved by those copies.
    copied_bytes: AtomicU64,
    /// Copies performed *inside* transmission modules by protocol machinery
    /// the generic layer cannot avoid (TCP's kernel-style socket copies, a
    /// static-buffer protocol unpacking an arriving frame). Kept separate so
    /// "CHEAPER ⇒ zero generic-layer copies" is assertable exactly.
    tm_copies: AtomicU64,
    tm_copied_bytes: AtomicU64,
    /// Bytes handed to TMs *by reference* (CHEAPER/LATER blocks that
    /// traveled without a generic-layer copy). `borrowed_bytes /
    /// (borrowed_bytes + copied_bytes)` is the copy-avoidance ratio.
    borrowed_bytes: AtomicU64,
    /// Buffer-pool checkouts served from a free list (warm slab reused).
    pool_hits: AtomicU64,
    /// Buffer-pool checkouts that had to allocate.
    pool_misses: AtomicU64,
    /// Scatter/gather flushes: buffer groups handed to a TM in one
    /// `send_gather` call instead of being coalesced with a memcpy.
    gathers: AtomicU64,
    /// Buffers handed to transmission modules.
    buffers_sent: AtomicU64,
    /// BMM flushes (commit operations).
    commits: AtomicU64,
    /// Messages completed (end_packing calls).
    messages: AtomicU64,
    /// Frames retransmitted by a fault-armed TM (TCP/SBP ARQ). Exactly
    /// zero when no `FaultPlan` is installed — the recovery machinery
    /// never arms on a reliable fabric.
    retransmits: AtomicU64,
    /// Bounded waits (credit, rendezvous, flag, ack) that expired.
    link_timeouts: AtomicU64,
    /// Virtual-channel reroutes onto an alternate route after a hop died.
    failovers: AtomicU64,
    /// Partially reassembled fragments discarded on a failover.
    frags_discarded: AtomicU64,
    /// Per-TM traffic: (buffers, bytes) sent through each transmission
    /// module — the observable outcome of the Switch's selection. One
    /// cell per possible [`TmId`] (a `u8`), updated lock-free.
    per_tm: TrafficTable<256>,
    /// Large CHEAPER blocks striped across rails (multirail channels
    /// only; exactly zero on single-rail channels).
    stripes: AtomicU64,
    /// Per-rail traffic: (chunks, bytes) carried by each rail of a
    /// multirail channel — the observable outcome of the RailScheduler.
    /// One cell per rail id (the live-rail mask caps rails at 64),
    /// updated lock-free.
    per_rail: TrafficTable<64>,
    /// Multi-envelope batch frames flushed to the wire (exactly zero when
    /// batching is off — the layer is bypassed entirely).
    batches: AtomicU64,
    /// Packets that traveled inside those batch frames.
    batched_packets: AtomicU64,
    /// Batch flushes broken down by what closed the batch.
    batch_flush_express: AtomicU64,
    batch_flush_full: AtomicU64,
    batch_flush_explicit: AtomicU64,
    batch_flush_deadline: AtomicU64,
    /// Total on-wire bytes of flushed batch frames (headers + envelope
    /// tables + payloads). With `batch_payload_bytes` this exposes the
    /// framing overhead of the batch layer.
    batch_frame_bytes: AtomicU64,
    /// Payload bytes carried inside those frames.
    batch_payload_bytes: AtomicU64,
}

impl Stats {
    pub fn new() -> Arc<Self> {
        Arc::new(Stats::default())
    }

    pub fn record_copy(&self, bytes: usize) {
        self.copies.fetch_add(1, Ordering::Relaxed);
        self.copied_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Account a copy performed below the TM interface by protocol
    /// machinery (socket copy, static-frame unpack). Not a generic-layer
    /// copy: the emission flags could not have avoided it.
    pub fn record_tm_copy(&self, bytes: usize) {
        self.tm_copies.fetch_add(1, Ordering::Relaxed);
        self.tm_copied_bytes
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    /// Account `bytes` handed to a TM by reference (no generic-layer copy).
    pub fn record_borrowed(&self, bytes: usize) {
        self.borrowed_bytes
            .fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub fn record_pool_hit(&self) {
        self.pool_hits.fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_pool_miss(&self) {
        self.pool_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Account one scatter/gather flush (a buffer group sent without a
    /// coalescing memcpy).
    pub fn record_gather(&self) {
        self.gathers.fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_buffer_sent(&self) {
        self.buffers_sent.fetch_add(1, Ordering::Relaxed);
    }

    /// Account `bytes` of payload handed to TM `tm` (lock-free).
    pub fn record_tm_traffic(&self, tm: TmId, bytes: usize) {
        self.per_tm.record(tm as usize, bytes);
    }

    /// (buffers, bytes) sent through TM `tm` so far.
    pub fn tm_traffic(&self, tm: TmId) -> (u64, u64) {
        self.per_tm.get(tm as usize)
    }

    /// Every TM with traffic, sorted by id.
    pub fn tm_breakdown(&self) -> Vec<(TmId, u64, u64)> {
        self.per_tm
            .breakdown()
            .into_iter()
            .map(|(i, n, b)| (i as TmId, n, b))
            .collect()
    }

    /// Account one striped block (a large CHEAPER block split across
    /// rails by the RailScheduler).
    pub fn record_stripe(&self) {
        self.stripes.fetch_add(1, Ordering::Relaxed);
    }

    /// Account `bytes` (headers + payload) carried by rail `rail`
    /// (lock-free — concurrent senders never serialize here).
    pub fn record_rail_traffic(&self, rail: usize, bytes: usize) {
        self.per_rail.record(rail, bytes);
    }

    /// (chunks, bytes) carried by rail `rail` so far.
    pub fn rail_traffic(&self, rail: usize) -> (u64, u64) {
        self.per_rail.get(rail)
    }

    /// Every rail with traffic, sorted by rail id.
    pub fn rail_breakdown(&self) -> Vec<(usize, u64, u64)> {
        self.per_rail.breakdown()
    }

    /// Relative spread of per-rail byte counts: `(max − min) / max` over
    /// the rails that carried traffic. 0.0 for a perfectly balanced
    /// schedule — and when fewer than two rails carried anything.
    pub fn rail_imbalance(&self) -> f64 {
        let touched = self.per_rail.breakdown();
        if touched.len() < 2 {
            return 0.0;
        }
        let max = touched.iter().map(|&(_, _, b)| b).max().unwrap_or(0);
        let min = touched.iter().map(|&(_, _, b)| b).min().unwrap_or(0);
        if max == 0 {
            0.0
        } else {
            (max - min) as f64 / max as f64
        }
    }

    pub fn stripes(&self) -> u64 {
        self.stripes.load(Ordering::Relaxed)
    }

    /// Account one flushed batch frame of `packets` packets, closed for
    /// `reason`.
    pub fn record_batch(&self, reason: crate::batch::FlushReason, packets: usize) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.batched_packets
            .fetch_add(packets as u64, Ordering::Relaxed);
        let ctr = match reason {
            crate::batch::FlushReason::Express => &self.batch_flush_express,
            crate::batch::FlushReason::Full => &self.batch_flush_full,
            crate::batch::FlushReason::Explicit => &self.batch_flush_explicit,
            crate::batch::FlushReason::Deadline => &self.batch_flush_deadline,
        };
        ctr.fetch_add(1, Ordering::Relaxed);
    }

    /// Account one flushed batch frame's on-wire size: `frame` total
    /// bytes, of which `payload` were packet payloads (the rest is
    /// framing — header plus envelope table).
    pub fn record_batch_bytes(&self, frame: usize, payload: usize) {
        self.batch_frame_bytes
            .fetch_add(frame as u64, Ordering::Relaxed);
        self.batch_payload_bytes
            .fetch_add(payload as u64, Ordering::Relaxed);
    }

    pub fn batch_frame_bytes(&self) -> u64 {
        self.batch_frame_bytes.load(Ordering::Relaxed)
    }

    pub fn batch_payload_bytes(&self) -> u64 {
        self.batch_payload_bytes.load(Ordering::Relaxed)
    }

    pub fn batches(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }

    pub fn batched_packets(&self) -> u64 {
        self.batched_packets.load(Ordering::Relaxed)
    }

    /// Flush counts by reason: `(express, full, explicit, deadline)`.
    pub fn batch_flush_reasons(&self) -> (u64, u64, u64, u64) {
        (
            self.batch_flush_express.load(Ordering::Relaxed),
            self.batch_flush_full.load(Ordering::Relaxed),
            self.batch_flush_explicit.load(Ordering::Relaxed),
            self.batch_flush_deadline.load(Ordering::Relaxed),
        )
    }

    pub fn record_commit(&self) {
        self.commits.fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_message(&self) {
        self.messages.fetch_add(1, Ordering::Relaxed);
    }

    /// Account `n` retransmitted frames (fault-armed ARQ only).
    pub fn record_retransmits(&self, n: u64) {
        if n > 0 {
            self.retransmits.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Account one expired bounded wait (credit/rendezvous/ack timeout).
    pub fn record_link_timeout(&self) {
        self.link_timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// Account one virtual-channel failover onto an alternate route.
    pub fn record_failover(&self) {
        self.failovers.fetch_add(1, Ordering::Relaxed);
    }

    /// Account one partial fragment discarded during recovery.
    pub fn record_frag_discarded(&self) {
        self.frags_discarded.fetch_add(1, Ordering::Relaxed);
    }

    pub fn copies(&self) -> u64 {
        self.copies.load(Ordering::Relaxed)
    }

    pub fn copied_bytes(&self) -> u64 {
        self.copied_bytes.load(Ordering::Relaxed)
    }

    pub fn tm_copies(&self) -> u64 {
        self.tm_copies.load(Ordering::Relaxed)
    }

    pub fn tm_copied_bytes(&self) -> u64 {
        self.tm_copied_bytes.load(Ordering::Relaxed)
    }

    pub fn borrowed_bytes(&self) -> u64 {
        self.borrowed_bytes.load(Ordering::Relaxed)
    }

    pub fn pool_hits(&self) -> u64 {
        self.pool_hits.load(Ordering::Relaxed)
    }

    pub fn pool_misses(&self) -> u64 {
        self.pool_misses.load(Ordering::Relaxed)
    }

    pub fn gathers(&self) -> u64 {
        self.gathers.load(Ordering::Relaxed)
    }

    /// Fraction of pool checkouts served from a warm slab, in [0, 1].
    /// 1.0 when the pool was never used (nothing was missed).
    pub fn pool_hit_rate(&self) -> f64 {
        let h = self.pool_hits();
        let m = self.pool_misses();
        if h + m == 0 {
            1.0
        } else {
            h as f64 / (h + m) as f64
        }
    }

    pub fn buffers_sent(&self) -> u64 {
        self.buffers_sent.load(Ordering::Relaxed)
    }

    pub fn commits(&self) -> u64 {
        self.commits.load(Ordering::Relaxed)
    }

    pub fn messages(&self) -> u64 {
        self.messages.load(Ordering::Relaxed)
    }

    pub fn retransmits(&self) -> u64 {
        self.retransmits.load(Ordering::Relaxed)
    }

    pub fn link_timeouts(&self) -> u64 {
        self.link_timeouts.load(Ordering::Relaxed)
    }

    pub fn failovers(&self) -> u64 {
        self.failovers.load(Ordering::Relaxed)
    }

    pub fn frags_discarded(&self) -> u64 {
        self.frags_discarded.load(Ordering::Relaxed)
    }

    /// Snapshot for before/after deltas in tests.
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            copies: self.copies(),
            copied_bytes: self.copied_bytes(),
            tm_copies: self.tm_copies(),
            tm_copied_bytes: self.tm_copied_bytes(),
            borrowed_bytes: self.borrowed_bytes(),
            pool_hits: self.pool_hits(),
            pool_misses: self.pool_misses(),
            gathers: self.gathers(),
            buffers_sent: self.buffers_sent(),
            commits: self.commits(),
            messages: self.messages(),
            retransmits: self.retransmits(),
            link_timeouts: self.link_timeouts(),
            failovers: self.failovers(),
            frags_discarded: self.frags_discarded(),
            stripes: self.stripes(),
            batches: self.batches(),
            batched_packets: self.batched_packets(),
            batch_flush_express: self.batch_flush_express.load(Ordering::Relaxed),
            batch_flush_full: self.batch_flush_full.load(Ordering::Relaxed),
            batch_flush_explicit: self.batch_flush_explicit.load(Ordering::Relaxed),
            batch_flush_deadline: self.batch_flush_deadline.load(Ordering::Relaxed),
            batch_frame_bytes: self.batch_frame_bytes(),
            batch_payload_bytes: self.batch_payload_bytes(),
        }
    }
}

/// A point-in-time copy of [`Stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    pub copies: u64,
    pub copied_bytes: u64,
    pub tm_copies: u64,
    pub tm_copied_bytes: u64,
    pub borrowed_bytes: u64,
    pub pool_hits: u64,
    pub pool_misses: u64,
    pub gathers: u64,
    pub buffers_sent: u64,
    pub commits: u64,
    pub messages: u64,
    pub retransmits: u64,
    pub link_timeouts: u64,
    pub failovers: u64,
    pub frags_discarded: u64,
    pub stripes: u64,
    pub batches: u64,
    pub batched_packets: u64,
    pub batch_flush_express: u64,
    pub batch_flush_full: u64,
    pub batch_flush_explicit: u64,
    pub batch_flush_deadline: u64,
    pub batch_frame_bytes: u64,
    pub batch_payload_bytes: u64,
}

impl StatsSnapshot {
    /// Counter increments since `earlier`.
    pub fn since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            copies: self.copies - earlier.copies,
            copied_bytes: self.copied_bytes - earlier.copied_bytes,
            tm_copies: self.tm_copies - earlier.tm_copies,
            tm_copied_bytes: self.tm_copied_bytes - earlier.tm_copied_bytes,
            borrowed_bytes: self.borrowed_bytes - earlier.borrowed_bytes,
            pool_hits: self.pool_hits - earlier.pool_hits,
            pool_misses: self.pool_misses - earlier.pool_misses,
            gathers: self.gathers - earlier.gathers,
            buffers_sent: self.buffers_sent - earlier.buffers_sent,
            commits: self.commits - earlier.commits,
            messages: self.messages - earlier.messages,
            retransmits: self.retransmits - earlier.retransmits,
            link_timeouts: self.link_timeouts - earlier.link_timeouts,
            failovers: self.failovers - earlier.failovers,
            frags_discarded: self.frags_discarded - earlier.frags_discarded,
            stripes: self.stripes - earlier.stripes,
            batches: self.batches - earlier.batches,
            batched_packets: self.batched_packets - earlier.batched_packets,
            batch_flush_express: self.batch_flush_express - earlier.batch_flush_express,
            batch_flush_full: self.batch_flush_full - earlier.batch_flush_full,
            batch_flush_explicit: self.batch_flush_explicit - earlier.batch_flush_explicit,
            batch_flush_deadline: self.batch_flush_deadline - earlier.batch_flush_deadline,
            batch_frame_bytes: self.batch_frame_bytes - earlier.batch_frame_bytes,
            batch_payload_bytes: self.batch_payload_bytes - earlier.batch_payload_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = Stats::new();
        s.record_copy(100);
        s.record_copy(28);
        s.record_buffer_sent();
        s.record_commit();
        s.record_message();
        assert_eq!(s.copies(), 2);
        assert_eq!(s.copied_bytes(), 128);
        assert_eq!(s.buffers_sent(), 1);
        assert_eq!(s.commits(), 1);
        assert_eq!(s.messages(), 1);
    }

    #[test]
    fn snapshot_delta() {
        let s = Stats::new();
        s.record_copy(10);
        let a = s.snapshot();
        s.record_copy(5);
        s.record_buffer_sent();
        let d = s.snapshot().since(&a);
        assert_eq!(d.copies, 1);
        assert_eq!(d.copied_bytes, 5);
        assert_eq!(d.buffers_sent, 1);
    }

    #[test]
    fn tm_copies_are_separate_from_generic_copies() {
        let s = Stats::new();
        s.record_copy(100);
        s.record_tm_copy(7);
        s.record_tm_copy(9);
        assert_eq!(s.copies(), 1);
        assert_eq!(s.copied_bytes(), 100);
        assert_eq!(s.tm_copies(), 2);
        assert_eq!(s.tm_copied_bytes(), 16);
    }

    #[test]
    fn borrow_pool_and_gather_counters() {
        let s = Stats::new();
        s.record_borrowed(1 << 20);
        s.record_pool_hit();
        s.record_pool_hit();
        s.record_pool_hit();
        s.record_pool_miss();
        s.record_gather();
        assert_eq!(s.borrowed_bytes(), 1 << 20);
        assert_eq!(s.pool_hits(), 3);
        assert_eq!(s.pool_misses(), 1);
        assert_eq!(s.gathers(), 1);
        assert!((s.pool_hit_rate() - 0.75).abs() < 1e-9);
        let d = s.snapshot().since(&StatsSnapshot::default());
        assert_eq!(d.pool_hits, 3);
        assert_eq!(d.gathers, 1);
        assert_eq!(d.borrowed_bytes, 1 << 20);
    }

    #[test]
    fn rail_counters_and_imbalance() {
        let s = Stats::new();
        assert_eq!(s.rail_imbalance(), 0.0, "no rails yet");
        s.record_rail_traffic(0, 1000);
        assert_eq!(s.rail_imbalance(), 0.0, "one rail is never imbalanced");
        s.record_rail_traffic(1, 500);
        s.record_rail_traffic(0, 1000);
        s.record_stripe();
        assert_eq!(s.stripes(), 1);
        assert_eq!(s.rail_traffic(0), (2, 2000));
        assert_eq!(s.rail_traffic(1), (1, 500));
        assert_eq!(s.rail_traffic(7), (0, 0));
        assert_eq!(s.rail_breakdown(), vec![(0, 2, 2000), (1, 1, 500)]);
        assert!((s.rail_imbalance() - 0.75).abs() < 1e-9);
        let d = s.snapshot().since(&StatsSnapshot::default());
        assert_eq!(d.stripes, 1);
    }

    #[test]
    fn batch_counters_accumulate_by_reason() {
        use crate::batch::FlushReason;
        let s = Stats::new();
        s.record_batch(FlushReason::Full, 16);
        s.record_batch(FlushReason::Express, 2);
        s.record_batch(FlushReason::Deadline, 3);
        s.record_batch(FlushReason::Explicit, 1);
        s.record_batch_bytes(200, 176);
        s.record_batch_bytes(100, 90);
        assert_eq!(s.batches(), 4);
        assert_eq!(s.batched_packets(), 22);
        assert_eq!(s.batch_flush_reasons(), (1, 1, 1, 1));
        assert_eq!(s.batch_frame_bytes(), 300);
        assert_eq!(s.batch_payload_bytes(), 266);
        let d = s.snapshot().since(&StatsSnapshot::default());
        assert_eq!(d.batches, 4);
        assert_eq!(d.batched_packets, 22);
        assert_eq!(d.batch_flush_full, 1);
        assert_eq!(d.batch_flush_deadline, 1);
        assert_eq!(d.batch_frame_bytes, 300);
        assert_eq!(d.batch_payload_bytes, 266);
    }

    #[test]
    fn hit_rate_with_no_traffic_is_one() {
        let s = Stats::new();
        assert_eq!(s.pool_hit_rate(), 1.0);
    }

    #[test]
    fn robustness_counters_accumulate() {
        let s = Stats::new();
        s.record_retransmits(0); // no-op
        s.record_retransmits(3);
        s.record_link_timeout();
        s.record_failover();
        s.record_frag_discarded();
        s.record_frag_discarded();
        assert_eq!(s.retransmits(), 3);
        assert_eq!(s.link_timeouts(), 1);
        assert_eq!(s.failovers(), 1);
        assert_eq!(s.frags_discarded(), 2);
        let d = s.snapshot().since(&StatsSnapshot::default());
        assert_eq!(d.retransmits, 3);
        assert_eq!(d.frags_discarded, 2);
    }
}
