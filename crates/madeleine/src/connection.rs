//! The per-peer **connection** layer of the channel stack.
//!
//! Madeleine II guarantees in-order delivery *per connection* (paper §2.1),
//! so the natural home of ordering state is a per-peer object, not the
//! channel. Historically the channel kept two `Mutex<HashMap<NodeId, u32>>`
//! maps for send/recv sequence numbers; every sender — even ones talking to
//! *different* peers — serialized on those locks. [`Connection`] replaces
//! them with plain atomics pinned in an immutable per-channel table
//! ([`Connections`]), so two threads sending to distinct peers never touch
//! the same cache line, and the lookup is a wait-free read of a frozen table.
//!
//! The connection also carries the multirail stripe-block counters: both
//! endpoints count striped blocks per direction, which gives the stripe
//! engine a wire-free agreement on a per-block ack tag (see
//! [`crate::rail`]).

use crate::batch::{RecvBatch, SendBatch};
use crate::progress::{OpQueue, OpSlab};
use madsim_net::NodeId;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};

/// Ordering state for one peer of a channel.
pub struct Connection {
    peer: NodeId,
    /// Stable index of this connection in the channel's member list —
    /// identical on every node (members are listed in world-declaration
    /// order), so schedulers can derive the same home rail everywhere
    /// without negotiating.
    index: usize,
    /// Next message sequence number toward the peer.
    send_seq: AtomicU32,
    /// Expected next sequence number from the peer.
    recv_seq: AtomicU32,
    /// Striped blocks sent toward the peer (multirail only).
    tx_stripe_blocks: AtomicU64,
    /// Striped blocks received from the peer (multirail only).
    rx_stripe_blocks: AtomicU64,
    /// The state of every nonblocking op addressed to this peer: a slab
    /// with generational indices, plus the ops parked in `Batched` behind
    /// their last batch ticket (see [`crate::progress`]). Plain data under
    /// one short lock; posters/waiters on distinct peers share none.
    ops: Mutex<OpSlab>,
    /// The ops still emitting frames toward this peer, oldest first, each
    /// with its state machine. Only the head is ever stepped, so the wire
    /// stream stays in posting order and at most one rendezvous per peer
    /// is outstanding. Its lock *is* the tick: whoever holds it is the one
    /// thread posting, stepping or cancelling on this connection — ticks
    /// on other peers run concurrently. Empty in blocking-only programs.
    tick: Mutex<OpQueue>,
    /// Outgoing small packets coalescing toward the peer (batching
    /// enabled only; stays empty and lock-cheap otherwise).
    send_batch: Mutex<SendBatch>,
    /// Are packets staged in the send batch? With the two fields below,
    /// what the batch publishes: written under the batch lock, read
    /// without it — a flush-everything, a deadline sweep, the engine's
    /// retire pass, a parked op's `started()` and `wait_op` never queue
    /// behind an append, and cost one load when there is nothing to do.
    batch_open: AtomicBool,
    /// Every batch ticket at or below this left on the wire: the watermark
    /// of the last flush that shipped (a failed flush leaves it alone).
    batch_flushed: AtomicU64,
    /// A flush failed and poisoned the batch: every ticket above the
    /// watermark died with that frame or will never ship.
    batch_poisoned: AtomicBool,
    /// The cursor over the arrived batch frame the mirrored `unpack`
    /// calls are consuming; an incoming message holds this lock for as
    /// long as it reads batched packets.
    recv_batch: Mutex<RecvBatch>,
    /// `rail + 1` while that cursor still has packets to hand over (they
    /// arrived on `rail`), 0 otherwise. Written under the cursor's lock,
    /// read without it: "is the next message already in memory?".
    recv_queued: AtomicUsize,
}

impl Connection {
    fn new(peer: NodeId, index: usize) -> Self {
        Connection {
            peer,
            index,
            send_seq: AtomicU32::new(0),
            recv_seq: AtomicU32::new(0),
            tx_stripe_blocks: AtomicU64::new(0),
            rx_stripe_blocks: AtomicU64::new(0),
            ops: Mutex::new(OpSlab::new()),
            tick: Mutex::new(OpQueue::new()),
            send_batch: Mutex::new(SendBatch::new()),
            batch_open: AtomicBool::new(false),
            batch_flushed: AtomicU64::new(0),
            batch_poisoned: AtomicBool::new(false),
            recv_batch: Mutex::new(RecvBatch::new()),
            recv_queued: AtomicUsize::new(0),
        }
    }

    /// The connection's outgoing batch (see [`crate::batch`]).
    pub(crate) fn send_batch(&self) -> &Mutex<SendBatch> {
        &self.send_batch
    }

    /// The cursor over the connection's arrived batch frame.
    pub(crate) fn recv_batch(&self) -> &Mutex<RecvBatch> {
        &self.recv_batch
    }

    /// The rail the packets still waiting under that cursor arrived on,
    /// if any are (see the field docs).
    pub(crate) fn recv_queued(&self) -> Option<usize> {
        self.recv_queued.load(Ordering::Acquire).checked_sub(1)
    }

    /// Publish what the cursor holds; the caller holds its lock.
    pub(crate) fn set_recv_queued(&self, rail: Option<usize>) {
        let v = rail.map_or(0, |r| r + 1);
        self.recv_queued.store(v, Ordering::Release);
    }

    /// The peer this connection points at.
    pub fn peer(&self) -> NodeId {
        self.peer
    }

    /// Position of the peer in the channel's member list (same on every
    /// node).
    pub fn index(&self) -> usize {
        self.index
    }

    /// Claim the next outgoing message sequence number (wait-free).
    pub fn next_send_seq(&self) -> u32 {
        self.send_seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Validate and consume an incoming sequence number: `true` iff `seq`
    /// is exactly the expected next one. Callers are serialized by the
    /// channel's single-open-incoming-message guard, so a load/store pair
    /// suffices — no CAS loop on the hot path.
    pub fn accept_recv_seq(&self, seq: u32) -> bool {
        let expect = self.recv_seq.load(Ordering::Acquire);
        if seq != expect {
            return false;
        }
        self.recv_seq
            .store(expect.wrapping_add(1), Ordering::Release);
        true
    }

    /// Peek the next expected incoming sequence number without consuming
    /// it. Receivers use this to *predict* the exact header bytes the
    /// peer must have sent (variable-length headers cannot be
    /// length-prefixed on exact-read transmission modules); the number is
    /// only consumed via [`accept_recv_seq`](Self::accept_recv_seq) once
    /// the bytes match.
    pub(crate) fn expected_recv_seq(&self) -> u32 {
        self.recv_seq.load(Ordering::Acquire)
    }

    /// Claim the send-side id of the next striped block toward the peer.
    pub(crate) fn next_tx_stripe_block(&self) -> u64 {
        self.tx_stripe_blocks.fetch_add(1, Ordering::Relaxed)
    }

    /// Claim the receive-side id of the next striped block from the peer.
    pub(crate) fn next_rx_stripe_block(&self) -> u64 {
        self.rx_stripe_blocks.fetch_add(1, Ordering::Relaxed)
    }

    /// Are packets staged in the send batch (see the field docs)?
    pub(crate) fn batch_open(&self) -> bool {
        self.batch_open.load(Ordering::Acquire)
    }

    /// Nothing staged and no poison to report: a flush has nothing to do.
    pub(crate) fn batch_idle(&self) -> bool {
        !self.batch_open() && !self.batch_poisoned()
    }

    /// Publish whether the batch holds packets; the caller holds its lock.
    pub(crate) fn set_batch_open(&self, open: bool) {
        self.batch_open.store(open, Ordering::Release);
    }

    /// The flush watermark of the send batch (see the field docs).
    pub(crate) fn batch_flushed(&self) -> u64 {
        self.batch_flushed.load(Ordering::Acquire)
    }

    /// Publish a flush's watermark; the caller holds the batch lock.
    pub(crate) fn set_batch_flushed(&self, through: u64) {
        self.batch_flushed.store(through, Ordering::Release);
    }

    /// Has a failed flush poisoned the send batch (see the field docs)?
    pub(crate) fn batch_poisoned(&self) -> bool {
        self.batch_poisoned.load(Ordering::Acquire)
    }

    /// Publish the poison; the caller holds the batch lock.
    pub(crate) fn poison_batch(&self) {
        self.batch_poisoned.store(true, Ordering::Release);
    }

    /// This connection's op slab (the state of every nonblocking op
    /// toward the peer).
    pub(crate) fn ops(&self) -> &Mutex<OpSlab> {
        &self.ops
    }

    /// This connection's in-flight queue; holding its lock is holding the
    /// tick (per-peer progress serialization).
    pub(crate) fn tick(&self) -> &Mutex<OpQueue> {
        &self.tick
    }
}

/// The frozen connection table of one channel: one [`Connection`] per
/// remote member, built once at channel construction. Lookups after that
/// are read-only — no lock anywhere on the sequence-number path.
pub struct Connections {
    /// Sorted by peer id: a lookup is a short binary search, not a hash.
    conns: Vec<Connection>,
}

impl Connections {
    /// Build the table for a channel whose member list is `peers` (in
    /// world-declaration order, including `me`, which gets no entry).
    pub fn new(me: NodeId, peers: &[NodeId]) -> Self {
        let mut conns: Vec<Connection> = peers
            .iter()
            .enumerate()
            .filter(|&(_, &p)| p != me)
            .map(|(i, &p)| Connection::new(p, i))
            .collect();
        conns.sort_by_key(Connection::peer);
        Connections { conns }
    }

    /// The connection toward `peer`, if it is a member.
    pub fn get(&self, peer: NodeId) -> Option<&Connection> {
        let at = self.conns.binary_search_by_key(&peer, Connection::peer);
        at.ok().map(|i| &self.conns[i])
    }

    /// Number of remote members.
    pub fn len(&self) -> usize {
        self.conns.len()
    }

    pub fn is_empty(&self) -> bool {
        self.conns.is_empty()
    }

    /// Iterate over every peer's connection, in peer order.
    pub fn iter(&self) -> impl Iterator<Item = &Connection> {
        self.conns.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexes_follow_member_order_and_skip_self() {
        let conns = Connections::new(2, &[0, 1, 2, 3]);
        assert_eq!(conns.len(), 3);
        assert!(conns.get(2).is_none());
        assert_eq!(conns.get(0).unwrap().index(), 0);
        assert_eq!(conns.get(1).unwrap().index(), 1);
        assert_eq!(conns.get(3).unwrap().index(), 3);
    }

    #[test]
    fn send_seq_increments_per_peer_independently() {
        let conns = Connections::new(0, &[0, 1, 2]);
        let a = conns.get(1).unwrap();
        let b = conns.get(2).unwrap();
        assert_eq!(a.next_send_seq(), 0);
        assert_eq!(a.next_send_seq(), 1);
        assert_eq!(b.next_send_seq(), 0);
    }

    #[test]
    fn recv_seq_rejects_gaps_and_replays() {
        let conns = Connections::new(0, &[0, 1]);
        let c = conns.get(1).unwrap();
        assert!(c.accept_recv_seq(0));
        assert!(!c.accept_recv_seq(0), "replay must be rejected");
        assert!(!c.accept_recv_seq(2), "gap must be rejected");
        assert!(c.accept_recv_seq(1));
    }

    #[test]
    fn stripe_block_counters_are_per_direction() {
        let conns = Connections::new(0, &[0, 1]);
        let c = conns.get(1).unwrap();
        assert_eq!(c.next_tx_stripe_block(), 0);
        assert_eq!(c.next_tx_stripe_block(), 1);
        assert_eq!(c.next_rx_stripe_block(), 0);
    }
}
