//! VIA (Virtual Interface Architecture) — simulated.
//!
//! VIA (Dunning et al., IEEE Micro 1998) is the other "non message-passing"
//! interface the paper calls out: communication happens through per-
//! connection *Virtual Interfaces* with descriptor queues. Its defining
//! constraint for a library like Madeleine II is that **receive descriptors
//! must be posted before the matching send arrives** — a late post means the
//! NIC has nowhere to put the data and the packet is dropped (reliability
//! level permitting). The simulation enforces this as a panic so that the
//! Madeleine VIA transmission module must get its preposting right.
//!
//! Costs: the `via` row of the world's [`crate::calib::Calib`].

use crate::fault::LinkError;
use crate::frame::{Frame, NodeId};
use crate::stacks::{link_wait, send_frame, LINK_BOUND};
use crate::time;
use crate::world::{Adapter, NetKind};
use bytes::Bytes;
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicIsize, Ordering};
use std::sync::Arc;

const KIND_VIA: u16 = 20;

/// A VIA SAN's descriptor counts, one per VI end `(owner, peer, tag)`,
/// shared by both ends of each VI so the sender can observe the receiver's
/// posted descriptors (in hardware this is the flow-control state the NICs
/// negotiate). The world owns one per network (see [`Adapter`]).
#[derive(Default)]
pub(crate) struct ViCells(Mutex<HashMap<(NodeId, NodeId, u64), Arc<AtomicIsize>>>);

impl ViCells {
    fn cell(&self, owner: NodeId, peer: NodeId, tag: u64) -> Arc<AtomicIsize> {
        Arc::clone(self.0.lock().entry((owner, peer, tag)).or_default())
    }
}

/// A node's handle on the VIA provider of a SAN adapter.
#[derive(Clone)]
pub struct Via {
    adapter: Adapter,
}

impl Via {
    /// # Panics
    /// Panics if the adapter is not on a VIA-capable SAN fabric.
    pub fn new(adapter: &Adapter) -> Self {
        assert_eq!(
            adapter.kind(),
            NetKind::ViaSan,
            "VIA requires a SAN fabric, got {:?}",
            adapter.kind()
        );
        Via {
            adapter: adapter.clone(),
        }
    }

    pub fn node(&self) -> NodeId {
        self.adapter.node()
    }

    /// Open a Virtual Interface to `peer`, demultiplexed by `tag`.
    pub fn open_vi(&self, peer: NodeId, tag: u64) -> Vi {
        assert!(
            self.adapter.peers().contains(&peer),
            "node {peer} is not on SAN {:?}",
            self.adapter.name()
        );
        let (me, cells) = (self.node(), self.adapter.vi_cells());
        Vi {
            adapter: self.adapter.clone(),
            peer,
            tag,
            // Our posted receive descriptors (owned by this end).
            my_descs: cells.cell(me, peer, tag),
            // The peer's posted receive descriptors (observed when sending).
            peer_descs: cells.cell(peer, me, tag),
            posted_caps: VecDeque::new(),
        }
    }
}

/// One end of a Virtual Interface.
pub struct Vi {
    adapter: Adapter,
    peer: NodeId,
    tag: u64,
    my_descs: Arc<AtomicIsize>,
    peer_descs: Arc<AtomicIsize>,
    /// Capacities of our posted receive descriptors, FIFO.
    posted_caps: VecDeque<usize>,
}

impl Vi {
    pub fn peer(&self) -> NodeId {
        self.peer
    }

    /// Post a receive descriptor able to hold `capacity` bytes.
    pub fn post_recv(&mut self, capacity: usize) {
        self.my_descs.fetch_add(1, Ordering::AcqRel);
        self.posted_caps.push_back(capacity);
        time::advance(self.adapter.calib().via.host());
    }

    /// Send `data`; consumes one of the peer's preposted descriptors.
    ///
    /// # Panics
    /// Panics if the peer has no receive descriptor posted — real VIA would
    /// drop the packet here.
    pub fn send(&self, data: &[u8]) {
        let prev = self.peer_descs.fetch_sub(1, Ordering::AcqRel);
        assert!(
            prev > 0,
            "VIA send with no preposted receive descriptor on node {} (tag {}): \
             the packet would be dropped",
            self.peer,
            self.tag
        );
        let row = self.adapter.calib().via;
        let (dst, frame) = (self.peer, (KIND_VIA, self.tag));
        let payload = Bytes::copy_from_slice(data);
        send_frame(&self.adapter, dst, frame, row, time::now(), payload);
        time::advance(row.host());
    }

    /// Non-blocking receive: completes the oldest posted receive if a
    /// message has already arrived.
    pub fn poll_recv(&mut self) -> Option<Bytes> {
        let tag = self.tag;
        let f = self
            .adapter
            .inbox()
            .try_recv_from(self.peer, KIND_VIA, |f| f.tag == tag)?;
        Some(self.complete(f))
    }

    /// Complete the oldest posted receive with the arrived frame `f`.
    fn complete(&mut self, f: Frame) -> Bytes {
        let cap = self
            .posted_caps
            .pop_front()
            .expect("VIA recv with no posted descriptor on this end");
        assert!(
            f.payload.len() <= cap,
            "VIA message of {} bytes exceeds descriptor capacity {cap}",
            f.payload.len()
        );
        time::advance_to(f.arrival);
        f.payload
    }

    /// Non-blocking peek: is a message pending on this VI?
    pub fn has_pending(&self) -> bool {
        let tag = self.tag;
        self.adapter
            .inbox()
            .has_from(self.peer, KIND_VIA, |f| f.tag == tag)
    }

    /// Wait for the completion of the oldest posted receive; returns the
    /// received data.
    ///
    /// # Panics
    /// Panics if no receive was posted, if the incoming message exceeds
    /// the descriptor's capacity, or if the fault-armed link fails (see
    /// [`try_recv`](Self::try_recv)).
    pub fn recv(&mut self) -> Bytes {
        self.try_recv()
            .unwrap_or_else(|e| panic!("VIA receive from node {} failed: {e}", self.peer))
    }

    /// Fallible [`recv`](Self::recv): on a fault-armed world the wait is
    /// the link's bounded one (see [`crate::stacks`]). On an error the posted
    /// descriptor stays posted.
    pub fn try_recv(&mut self) -> Result<Bytes, LinkError> {
        assert!(
            !self.posted_caps.is_empty(),
            "VIA recv with no posted descriptor on this end"
        );
        let (peer, tag, inbox) = (self.peer, self.tag, self.adapter.inbox());
        let f = link_wait(&self.adapter, peer, LINK_BOUND, |t| {
            inbox.recv_from_timeout(peer, KIND_VIA, |f| f.tag == tag, t)
        })?;
        Ok(self.complete(f))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::WorldBuilder;

    fn san_pair() -> (crate::world::World, crate::world::NetworkId) {
        let mut b = WorldBuilder::new(2);
        let net = b.network("san0", NetKind::ViaSan, &[0, 1]);
        (b.build(), net)
    }

    #[test]
    fn preposted_send_recv_roundtrip() {
        let (w, net) = san_pair();
        let out = w.run(|env| {
            let via = Via::new(env.adapter_on(net).unwrap());
            if env.id() == 1 {
                let mut vi = via.open_vi(0, 3);
                vi.post_recv(64);
                env.barrier();
                vi.recv().to_vec()
            } else {
                let vi = {
                    let mut vi = via.open_vi(1, 3);
                    vi.post_recv(64); // unused, symmetry
                    vi
                };
                env.barrier();
                vi.send(b"via-data");
                Vec::new()
            }
        });
        assert_eq!(out[1], b"via-data");
    }

    #[test]
    #[should_panic(expected = "no preposted receive descriptor")]
    fn send_without_prepost_panics() {
        let (w, net) = san_pair();
        w.run(|env| {
            let via = Via::new(env.adapter_on(net).unwrap());
            if env.id() == 0 {
                let vi = via.open_vi(1, 4);
                vi.send(b"drop me");
            }
        });
    }

    #[test]
    #[should_panic(expected = "exceeds descriptor capacity")]
    fn oversized_message_panics() {
        let (w, net) = san_pair();
        w.run(|env| {
            let via = Via::new(env.adapter_on(net).unwrap());
            if env.id() == 1 {
                let mut vi = via.open_vi(0, 5);
                vi.post_recv(4);
                env.barrier();
                let _ = vi.recv();
            } else {
                let mut vi = via.open_vi(1, 5);
                vi.post_recv(4);
                env.barrier();
                vi.send(b"way too large");
            }
        });
    }

    #[test]
    fn latency_matches_model() {
        let (w, net) = san_pair();
        let times = w.run(|env| {
            let via = Via::new(env.adapter_on(net).unwrap());
            if env.id() == 1 {
                let mut vi = via.open_vi(0, 6);
                vi.post_recv(16);
                env.barrier();
                vi.recv();
                time::now().as_micros_f64()
            } else {
                let vi = via.open_vi(1, 6);
                env.barrier();
                vi.send(&[0u8; 4]);
                0.0
            }
        });
        let t = crate::calib::Calib::PAPER.via;
        // Receiver clock advances *to* the arrival instant (sender started
        // at virtual 0), which dominates the 0.8 µs descriptor post.
        let expected = t.lat_us + 4.0 * t.per_byte_us;
        assert!(
            (times[1] - expected).abs() < 0.1,
            "got {} expected {}",
            times[1],
            expected
        );
    }
}
