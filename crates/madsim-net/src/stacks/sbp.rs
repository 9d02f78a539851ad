//! SBP (Static Buffer Protocol, Russell & Hatcher) — simulated.
//!
//! SBP is the paper's §6 example of an interface that **requires data to
//! live in protocol-provided static buffers on both ends**: senders must
//! first obtain a kernel buffer, fill it, and hand it back to the protocol;
//! receivers get their data in a kernel buffer they must release. This is
//! the worst case for the gateway's zero-copy analysis ("one extra copy
//! cannot be avoided when *both* networks require static buffers") and is
//! exactly what Madeleine II's `obtain_static_buffer`/`release_static_buffer`
//! TM interface (Table 2) exists to accommodate.
//!
//! Costs: the `sbp` row of the world's [`crate::calib::Calib`]; its host
//! time is one kernel pool operation.

use crate::calib::Row;
use crate::fault::LinkError;
use crate::frame::NodeId;
use crate::stacks::arq::Arq;
use crate::stacks::send_frame;
use crate::time;
use crate::world::{Adapter, NetKind};
use bytes::Bytes;
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::sync::Arc;

const KIND_SBP: u16 = 30;
/// Ack frames of the fault-armed ARQ (payload: 4-byte LE sequence number).
const KIND_SBP_ACK: u16 = 31;

/// Size of every SBP static buffer.
pub const SBP_BUFFER_SIZE: usize = 32 * 1024;
/// Buffers per node-side pool.
pub const SBP_POOL_SIZE: usize = 16;

struct Pool {
    available: Mutex<usize>,
    cond: Condvar,
}

impl Pool {
    fn new(n: usize) -> Arc<Self> {
        Arc::new(Pool {
            available: Mutex::new(n),
            cond: Condvar::new(),
        })
    }

    fn take(&self) {
        let mut n = self.available.lock();
        while *n == 0 {
            self.cond.wait(&mut n);
        }
        *n -= 1;
    }

    fn put(&self) {
        let mut n = self.available.lock();
        *n += 1;
        self.cond.notify_one();
    }

    fn available(&self) -> usize {
        *self.available.lock()
    }
}

/// Sequence state for the fault-armed ARQ, one counter per `(peer, tag)`
/// direction. Shared by all clones of an [`Sbp`] handle so the driver's
/// send and poll sides agree on sequence numbers.
#[derive(Default)]
struct ArqState {
    tx: Mutex<HashMap<(NodeId, u64), u32>>,
    rx: Mutex<HashMap<(NodeId, u64), u32>>,
}

/// A node's handle on the SBP interface of an Ethernet adapter.
#[derive(Clone)]
pub struct Sbp {
    adapter: Adapter,
    tx_pool: Arc<Pool>,
    rx_pool: Arc<Pool>,
    arq: Arc<ArqState>,
}

impl Sbp {
    /// # Panics
    /// Panics if the adapter is not on an Ethernet fabric (SBP is a kernel
    /// protocol for commodity NICs).
    pub fn new(adapter: &Adapter) -> Self {
        assert_eq!(
            adapter.kind(),
            NetKind::Ethernet,
            "SBP requires an Ethernet fabric, got {:?}",
            adapter.kind()
        );
        Sbp {
            adapter: adapter.clone(),
            tx_pool: Pool::new(SBP_POOL_SIZE),
            rx_pool: Pool::new(SBP_POOL_SIZE),
            arq: Arc::new(ArqState::default()),
        }
    }

    pub fn node(&self) -> NodeId {
        self.adapter.node()
    }

    /// Transmit buffers currently available (diagnostics / tests).
    pub fn tx_available(&self) -> usize {
        self.tx_pool.available()
    }

    pub fn rx_available(&self) -> usize {
        self.rx_pool.available()
    }

    /// Obtain an empty transmit buffer, blocking until one is free.
    pub fn obtain_tx(&self) -> SbpTxBuffer {
        self.reserve_tx_slot();
        self.obtain_tx_reserved()
    }

    /// Reserve one transmit-pool slot without materializing the buffer
    /// (the reservation is consumed by [`Self::obtain_tx_reserved`] or returned
    /// by [`Self::unreserve_tx_slot`]). Lets callers that stage data elsewhere
    /// still respect the kernel pool bound.
    pub fn reserve_tx_slot(&self) {
        self.tx_pool.take();
        time::advance(self.adapter.calib().sbp.host());
    }

    /// Return a reservation taken with [`Self::reserve_tx_slot`].
    pub fn unreserve_tx_slot(&self) {
        self.tx_pool.put();
    }

    /// Materialize the buffer for a slot already reserved with
    /// [`Self::reserve_tx_slot`].
    pub fn obtain_tx_reserved(&self) -> SbpTxBuffer {
        SbpTxBuffer {
            data: vec![0u8; SBP_BUFFER_SIZE],
            len: 0,
            pool: Arc::clone(&self.tx_pool),
        }
    }

    /// Send a filled transmit buffer to `dst` under `tag`; the buffer
    /// returns to the pool once the NIC has drained it.
    ///
    /// # Panics
    /// Panics if the fault-armed link dies (use [`try_send`](Self::try_send)
    /// to handle that).
    pub fn send(&self, dst: NodeId, tag: u64, buf: SbpTxBuffer) {
        if let Err(e) = self.try_send(dst, tag, buf) {
            panic!("SBP send to node {dst} failed: {e}");
        }
    }

    /// Fallible [`send`](Self::send). On a fault-free world this is the
    /// original one-frame fast path and always returns `Ok(0)`; on a
    /// fault-armed world the message carries a sequence prefix and is
    /// retransmitted until acked. Returns the retransmission count.
    pub fn try_send(&self, dst: NodeId, tag: u64, buf: SbpTxBuffer) -> Result<u64, LinkError> {
        if !self.adapter.faulty() {
            self.send_fast(dst, tag, &buf);
            return Ok(0);
        }
        let seq = {
            let mut tx = self.arq.tx.lock();
            let e = tx.entry((dst, tag)).or_insert(0);
            let s = *e;
            *e = e.wrapping_add(1);
            s
        };
        let retransmits = self.arq_with(dst, tag).send(seq, &buf.data[..buf.len])?;
        time::advance(self.adapter.calib().sbp.host());
        Ok(retransmits)
        // `buf` drops here and its pool slot frees.
    }

    /// The fault-armed ARQ of the exchange with `peer` under `tag` (see
    /// [`crate::stacks::arq`]). It charges no host time: the pool
    /// operation is charged once per send, not per transmission attempt.
    fn arq_with(&self, peer: NodeId, tag: u64) -> Arq<'_> {
        let row = self.adapter.calib().sbp;
        Arq {
            adapter: &self.adapter,
            peer,
            tag,
            kinds: (KIND_SBP, KIND_SBP_ACK),
            row: Row {
                host_us: 0.0,
                ..row
            },
        }
    }

    /// The original unconditional send path (no sequence prefix, no acks).
    fn send_fast(&self, dst: NodeId, tag: u64, buf: &SbpTxBuffer) {
        let row = self.adapter.calib().sbp;
        let payload = Bytes::copy_from_slice(&buf.data[..buf.len]);
        let frame = (KIND_SBP, tag);
        send_frame(&self.adapter, dst, frame, row, time::now(), payload);
        time::advance(row.host());
    }

    /// Receive the next message under `tag` from `src`, releasing the
    /// kernel buffer after handing its bytes out (a convenience for callers
    /// that copy out immediately, as Madeleine's StaticCopy policy does).
    ///
    /// # Panics
    /// Panics if the fault-armed link dies.
    pub fn recv_from(&self, src: NodeId, tag: u64) -> Bytes {
        match self.try_recv_from(src, tag) {
            Ok(b) => b,
            Err(e) => panic!("SBP receive from node {src} failed: {e}"),
        }
    }

    /// Fallible [`recv_from`](Self::recv_from). On a fault-armed world the
    /// sequence prefix is checked: in-order messages are acked and handed
    /// out, duplicates are re-acked and discarded.
    pub fn try_recv_from(&self, src: NodeId, tag: u64) -> Result<Bytes, LinkError> {
        if !self.adapter.faulty() {
            self.rx_pool.take();
            let f = self
                .adapter
                .inbox()
                .recv_from(src, KIND_SBP, |f| f.tag == tag);
            time::advance_to(f.arrival);
            time::advance(self.adapter.calib().sbp.host());
            self.rx_pool.put();
            return Ok(f.payload);
        }
        let expected = self.arq.rx.lock().get(&(src, tag)).copied().unwrap_or(0);
        let (payload, arrival) = self.arq_with(src, tag).recv(expected)?;
        let next = expected.wrapping_add(1);
        self.arq.rx.lock().insert((src, tag), next);
        self.rx_pool.take();
        time::advance_to(arrival);
        time::advance(self.adapter.calib().sbp.host());
        self.rx_pool.put();
        Ok(payload)
    }

    /// The oldest node with a pending SBP message under `tag`, if any;
    /// nothing is consumed.
    pub fn peek_pending_src(&self, tag: u64) -> Option<NodeId> {
        self.adapter.inbox().poll_src_of(KIND_SBP, tag)
    }

    /// Receive the next message under `tag` into a kernel receive buffer.
    /// The caller must copy the data out and drop the buffer to release it.
    pub fn recv(&self, tag: u64) -> SbpRxBuffer {
        self.rx_pool.take();
        let f = self
            .adapter
            .inbox()
            .recv_match(|f| f.kind == KIND_SBP && f.tag == tag);
        time::advance_to(f.arrival);
        SbpRxBuffer {
            src: f.src,
            data: f.payload,
            pool: Arc::clone(&self.rx_pool),
        }
    }
}

/// A kernel transmit buffer obtained from the SBP pool.
pub struct SbpTxBuffer {
    data: Vec<u8>,
    len: usize,
    pool: Arc<Pool>,
}

impl SbpTxBuffer {
    pub const CAPACITY: usize = SBP_BUFFER_SIZE;

    /// Fill the buffer from `src` (replaces previous contents).
    ///
    /// # Panics
    /// Panics if `src` exceeds the buffer capacity.
    pub fn fill(&mut self, src: &[u8]) {
        assert!(
            src.len() <= SBP_BUFFER_SIZE,
            "SBP buffer overflow: {} > {SBP_BUFFER_SIZE}",
            src.len()
        );
        self.data[..src.len()].copy_from_slice(src);
        self.len = src.len();
    }

    /// Writable view for in-place fills (zero-copy receive-into-tx-buffer on
    /// gateways). Call [`set_len`](Self::set_len) after writing.
    pub fn as_mut_slice(&mut self) -> &mut [u8] {
        &mut self.data
    }

    pub fn set_len(&mut self, len: usize) {
        assert!(len <= SBP_BUFFER_SIZE);
        self.len = len;
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl Drop for SbpTxBuffer {
    fn drop(&mut self) {
        self.pool.put();
    }
}

/// A kernel receive buffer holding an arrived message.
pub struct SbpRxBuffer {
    src: NodeId,
    data: Bytes,
    pool: Arc<Pool>,
}

impl SbpRxBuffer {
    pub fn src(&self) -> NodeId {
        self.src
    }

    pub fn data(&self) -> &[u8] {
        &self.data
    }
}

impl Drop for SbpRxBuffer {
    fn drop(&mut self) {
        self.pool.put();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::WorldBuilder;

    fn eth_pair() -> (crate::world::World, crate::world::NetworkId) {
        let mut b = WorldBuilder::new(2);
        let net = b.network("eth0", NetKind::Ethernet, &[0, 1]);
        (b.build(), net)
    }

    #[test]
    fn static_buffer_roundtrip() {
        let (w, net) = eth_pair();
        let out = w.run(|env| {
            let sbp = Sbp::new(env.adapter_on(net).unwrap());
            if env.id() == 0 {
                let mut buf = sbp.obtain_tx();
                buf.fill(b"static!");
                sbp.send(1, 1, buf);
                Vec::new()
            } else {
                let rx = sbp.recv(1);
                assert_eq!(rx.src(), 0);
                rx.data().to_vec()
            }
        });
        assert_eq!(out[1], b"static!");
    }

    #[test]
    fn tx_pool_slot_returns_after_send() {
        let (w, net) = eth_pair();
        w.run(|env| {
            let sbp = Sbp::new(env.adapter_on(net).unwrap());
            if env.id() == 0 {
                assert_eq!(sbp.tx_available(), SBP_POOL_SIZE);
                let buf = sbp.obtain_tx();
                assert_eq!(sbp.tx_available(), SBP_POOL_SIZE - 1);
                sbp.send(1, 1, buf);
                assert_eq!(sbp.tx_available(), SBP_POOL_SIZE);
            } else {
                let _ = sbp.recv(1);
            }
        });
    }

    #[test]
    fn rx_pool_slot_returns_on_drop() {
        let (w, net) = eth_pair();
        w.run(|env| {
            let sbp = Sbp::new(env.adapter_on(net).unwrap());
            if env.id() == 0 {
                let mut buf = sbp.obtain_tx();
                buf.fill(b"x");
                sbp.send(1, 1, buf);
            } else {
                {
                    let rx = sbp.recv(1);
                    assert_eq!(sbp.rx_available(), SBP_POOL_SIZE - 1);
                    drop(rx);
                }
                assert_eq!(sbp.rx_available(), SBP_POOL_SIZE);
            }
        });
    }

    #[test]
    fn lossy_send_still_delivers_in_order() {
        use crate::fault::FaultPlan;
        let mut b = WorldBuilder::new(2).fault_plan(FaultPlan::new(11).drop_rate(0.05));
        let net = b.network("eth0", NetKind::Ethernet, &[0, 1]);
        let w = b.build();
        let out = w.run(|env| {
            let sbp = Sbp::new(env.adapter_on(net).unwrap());
            if env.id() == 0 {
                for i in 0..20u8 {
                    let mut buf = sbp.obtain_tx();
                    buf.fill(&[i; 100]);
                    sbp.try_send(1, 5, buf).unwrap();
                }
                Vec::new()
            } else {
                let mut got = Vec::new();
                for _ in 0..20 {
                    let msg = sbp.try_recv_from(0, 5).unwrap();
                    assert_eq!(msg.len(), 100);
                    got.push(msg[0]);
                }
                got
            }
        });
        assert_eq!(out[1], (0..20u8).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "SBP buffer overflow")]
    fn oversized_fill_panics() {
        let (w, net) = eth_pair();
        w.run(|env| {
            if env.id() == 0 {
                let sbp = Sbp::new(env.adapter_on(net).unwrap());
                let mut buf = sbp.obtain_tx();
                buf.fill(&vec![0u8; SBP_BUFFER_SIZE + 1]);
            }
        });
    }

    #[test]
    fn in_place_fill_via_mut_slice() {
        let (w, net) = eth_pair();
        let out = w.run(|env| {
            let sbp = Sbp::new(env.adapter_on(net).unwrap());
            if env.id() == 0 {
                let mut buf = sbp.obtain_tx();
                buf.as_mut_slice()[..4].copy_from_slice(b"abcd");
                buf.set_len(4);
                sbp.send(1, 2, buf);
                Vec::new()
            } else {
                sbp.recv(2).data().to_vec()
            }
        });
        assert_eq!(out[1], b"abcd");
    }
}
