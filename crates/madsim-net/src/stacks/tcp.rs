//! TCP over Fast Ethernet — simulated.
//!
//! The commodity fallback network: reliable, ordered byte streams with
//! 2000-era Fast-Ethernet performance (~60 µs one-way latency through the
//! kernel stack, ~11 MiB/s). Madeleine II uses it both as a first-class
//! protocol (the Nexus/Madeleine-TCP configuration of Fig. 7) and as the
//! control/acknowledgment network of the gateway experiments (§6.2).
//!
//! When the world carries a [`FaultPlan`](crate::fault::FaultPlan), the
//! stream is segmented and each segment runs the stop-and-wait ARQ of
//! [`crate::stacks::arq`]. Without a plan the original unconditional fast
//! path runs — no sequence numbers, no acks, zero overhead.
//!
//! Costs: the `tcp` row of the world's [`crate::calib::Calib`].

use crate::fault::LinkError;
use crate::frame::NodeId;
use crate::stacks::arq::Arq;
use crate::stacks::send_frame;
use crate::time::{self, VTime};
use crate::world::{Adapter, NetKind};
use bytes::Bytes;
use std::collections::VecDeque;

const KIND_TCP: u16 = 10;
/// Ack frames of the fault-armed ARQ (payload: 4-byte LE sequence number).
const KIND_TCP_ACK: u16 = 11;
/// Segment size of the fault-armed path: a lost frame costs one segment's
/// retransmission, not the whole send.
const ARQ_SEGMENT: usize = 64 * 1024;

/// A node's TCP endpoint on an Ethernet adapter.
#[derive(Clone)]
pub struct TcpStack {
    adapter: Adapter,
}

impl TcpStack {
    /// # Panics
    /// Panics if the adapter is not on an Ethernet fabric.
    pub fn new(adapter: &Adapter) -> Self {
        assert_eq!(
            adapter.kind(),
            NetKind::Ethernet,
            "TCP stack requires an Ethernet fabric, got {:?}",
            adapter.kind()
        );
        TcpStack {
            adapter: adapter.clone(),
        }
    }

    pub fn node(&self) -> NodeId {
        self.adapter.node()
    }

    /// The oldest peer with unconsumed stream data on `port`, if any;
    /// nothing is consumed.
    pub fn peek_pending_src(&self, port: u32) -> Option<NodeId> {
        self.adapter.inbox().poll_src_of(KIND_TCP, port as u64)
    }

    /// Establish (both sides call this) a full-duplex connection to `peer`
    /// distinguished by `port`. Setup cost is charged once per side.
    pub fn connect(&self, peer: NodeId, port: u32) -> TcpConn {
        assert!(
            self.adapter.peers().contains(&peer),
            "node {peer} is not on Ethernet network {:?}",
            self.adapter.name()
        );
        // One RTT of handshake, amortized as one latency each side.
        time::advance(self.adapter.calib().tcp.lat());
        TcpConn {
            adapter: self.adapter.clone(),
            peer,
            port,
            rx: VecDeque::new(),
            tx_seq: 0,
            rx_seq: 0,
        }
    }
}

/// One endpoint of an established TCP connection.
pub struct TcpConn {
    adapter: Adapter,
    peer: NodeId,
    port: u32,
    /// Reassembly queue: in-order received chunks not yet consumed.
    rx: VecDeque<(Bytes, VTime)>,
    /// Next sequence number to send (fault-armed ARQ only).
    tx_seq: u32,
    /// Next sequence number expected (fault-armed ARQ only).
    rx_seq: u32,
}

impl TcpConn {
    pub fn peer(&self) -> NodeId {
        self.peer
    }

    /// Send `data` down the stream. Returns once the socket buffer copy is
    /// done (the kernel drains asynchronously).
    ///
    /// # Panics
    /// Panics if the fault-armed link dies (use [`try_send`](Self::try_send)
    /// to handle that).
    pub fn send(&mut self, data: &[u8]) {
        if let Err(e) = self.try_send(data) {
            panic!("TCP send to node {} failed: {e}", self.peer);
        }
    }

    /// Gathering send (`writev`): the chunks leave as one wire unit costing
    /// a single latency, with no intermediate concatenation copy.
    ///
    /// # Panics
    /// Panics if the fault-armed link dies.
    pub fn send_vectored(&mut self, bufs: &[&[u8]]) {
        if let Err(e) = self.try_send_vectored(bufs) {
            panic!("TCP send to node {} failed: {e}", self.peer);
        }
    }

    /// Receive exactly `buf.len()` bytes (blocking). Stream semantics: the
    /// chunking of sends is invisible.
    ///
    /// # Panics
    /// Panics if the fault-armed link dies.
    pub fn recv_exact(&mut self, buf: &mut [u8]) {
        if let Err(e) = self.try_recv_exact(buf) {
            panic!("TCP receive from node {} failed: {e}", self.peer);
        }
    }

    /// Fallible [`send`](Self::send). On a fault-free world this is the
    /// original single-frame fast path and always returns `Ok(0)`; on a
    /// fault-armed world the stream is segmented and each segment runs
    /// stop-and-wait with retransmission. Returns the number of
    /// retransmissions performed.
    pub fn try_send(&mut self, data: &[u8]) -> Result<u64, LinkError> {
        if !self.adapter.faulty() {
            self.send_fast(Bytes::copy_from_slice(data));
            return Ok(0);
        }
        let mut retransmits = 0;
        if data.is_empty() {
            return self.send_segment_reliable(data);
        }
        for chunk in data.chunks(ARQ_SEGMENT) {
            retransmits += self.send_segment_reliable(chunk)?;
        }
        Ok(retransmits)
    }

    /// Fallible [`send_vectored`](Self::send_vectored). Returns the number
    /// of retransmissions performed (always 0 on a fault-free world).
    pub fn try_send_vectored(&mut self, bufs: &[&[u8]]) -> Result<u64, LinkError> {
        // Both paths need the unit contiguous (one frame, or the ARQ's
        // segments); concatenate once.
        let total: usize = bufs.iter().map(|b| b.len()).sum();
        let mut all = Vec::with_capacity(total);
        for b in bufs {
            all.extend_from_slice(b);
        }
        if !self.adapter.faulty() {
            self.send_fast(Bytes::from(all));
            return Ok(0);
        }
        self.try_send(&all)
    }

    /// Fallible [`recv_exact`](Self::recv_exact): `Err` if the fault-armed
    /// peer became unreachable or stopped retransmitting.
    pub fn try_recv_exact(&mut self, buf: &mut [u8]) -> Result<(), LinkError> {
        let mut filled = 0;
        let mut latest = VTime::ZERO;
        while filled < buf.len() {
            if self.rx.is_empty() {
                self.pull_segment()?;
            }
            let (chunk, arr) = self.rx.front_mut().expect("just filled");
            let take = (buf.len() - filled).min(chunk.len());
            buf[filled..filled + take].copy_from_slice(&chunk[..take]);
            latest = latest.max(*arr);
            filled += take;
            if take == chunk.len() {
                self.rx.pop_front();
            } else {
                let rest = chunk.slice(take..);
                self.rx.front_mut().expect("non-empty").0 = rest;
            }
        }
        time::advance_to(latest);
        Ok(())
    }

    /// Block for the next in-order segment and queue it for reassembly.
    fn pull_segment(&mut self) -> Result<(), LinkError> {
        if self.adapter.faulty() {
            return self.recv_segment_reliable();
        }
        let (peer, port) = (self.peer, self.port as u64);
        let f = self
            .adapter
            .inbox()
            .recv_from(peer, KIND_TCP, |f| f.tag == port);
        self.rx.push_back((f.payload, f.arrival));
        Ok(())
    }

    /// Borrow the unconsumed head of the stream: at least `min` contiguous
    /// bytes, blocking for segments until that many arrived. Nothing is
    /// consumed. The head is one arrival segment as it came off the wire
    /// unless it held fewer than `min` bytes — only then are segments
    /// joined, by copy.
    pub fn try_peek(&mut self, min: usize) -> Result<&[u8], LinkError> {
        while self.rx.front().map_or(0, |(head, _)| head.len()) < min {
            if self.rx.len() < 2 {
                self.pull_segment()?;
            }
            if self.rx.len() >= 2 {
                let (a, at_a) = self.rx.pop_front().expect("two queued");
                let (b, at_b) = self.rx.pop_front().expect("two queued");
                let joined = Bytes::from([&a[..], &b[..]].concat());
                self.rx.push_front((joined, at_a.max(at_b)));
            }
        }
        Ok(self.rx.front().map_or(&[], |(head, _)| head))
    }

    /// Receive exactly `len` bytes as one refcounted buffer — a slice of
    /// the arrival segment itself (no copy) whenever the bytes lie in one.
    pub fn try_recv_bytes(&mut self, len: usize) -> Result<Bytes, LinkError> {
        if len == 0 {
            return Ok(Bytes::new());
        }
        self.try_peek(len)?;
        let (head, arrival) = self.rx.front_mut().expect("peeked");
        time::advance_to(*arrival);
        if head.len() == len {
            return Ok(self.rx.pop_front().expect("peeked").0);
        }
        let taken = head.slice(..len);
        *head = head.slice(len..);
        Ok(taken)
    }

    /// The original unconditional send path (no sequence numbers, no
    /// acks): the stream unit leaves as one frame.
    fn send_fast(&mut self, payload: Bytes) {
        let row = self.adapter.calib().tcp;
        let (dst, frame) = (self.peer, (KIND_TCP, self.port as u64));
        send_frame(&self.adapter, dst, frame, row, time::now(), payload);
        time::advance(row.host());
    }

    /// The fault-armed ARQ of this connection's outgoing or incoming
    /// direction (see [`crate::stacks::arq`]).
    fn arq(&self) -> Arq<'_> {
        Arq {
            adapter: &self.adapter,
            peer: self.peer,
            tag: self.port as u64,
            kinds: (KIND_TCP, KIND_TCP_ACK),
            row: self.adapter.calib().tcp,
        }
    }

    /// Stop-and-wait transmission of one segment; returns how many
    /// retransmissions it took.
    fn send_segment_reliable(&mut self, data: &[u8]) -> Result<u64, LinkError> {
        let seq = self.tx_seq;
        self.tx_seq = self.tx_seq.wrapping_add(1);
        self.arq().send(seq, data)
    }

    /// Pull the next in-order segment off the wire into the reassembly
    /// queue.
    fn recv_segment_reliable(&mut self) -> Result<(), LinkError> {
        let segment = self.arq().recv(self.rx_seq)?;
        self.rx_seq = self.rx_seq.wrapping_add(1);
        self.rx.push_back(segment);
        Ok(())
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
    fn stream_roundtrip() {
        let (w, net) = eth_pair();
        let out = w.run(|env| {
            let tcp = TcpStack::new(env.adapter_on(net).unwrap());
            if env.id() == 0 {
                let mut c = tcp.connect(1, 5000);
                c.send(b"hello ");
                c.send(b"world");
                Vec::new()
            } else {
                let mut c = tcp.connect(0, 5000);
                let mut buf = vec![0u8; 11];
                c.recv_exact(&mut buf);
                buf
            }
        });
        assert_eq!(out[1], b"hello world");
    }

    #[test]
    fn recv_smaller_than_send_chunks() {
        let (w, net) = eth_pair();
        let out = w.run(|env| {
            let tcp = TcpStack::new(env.adapter_on(net).unwrap());
            if env.id() == 0 {
                let mut c = tcp.connect(1, 1);
                c.send(b"abcdef");
                Vec::new()
            } else {
                let mut c = tcp.connect(0, 1);
                let mut a = [0u8; 2];
                let mut b2 = [0u8; 4];
                c.recv_exact(&mut a);
                c.recv_exact(&mut b2);
                let mut v = a.to_vec();
                v.extend_from_slice(&b2);
                v
            }
        });
        assert_eq!(out[1], b"abcdef");
    }

    #[test]
    fn peek_shows_the_head_without_consuming_and_units_come_out_whole() {
        let (w, net) = eth_pair();
        let out = w.run(|env| {
            let tcp = TcpStack::new(env.adapter_on(net).unwrap());
            if env.id() == 0 {
                let mut c = tcp.connect(1, 7);
                c.send(b"ab");
                c.send(b"cdefgh");
                c.send(b"ij");
                return Vec::new();
            }
            let mut c = tcp.connect(0, 7);
            // One segment satisfies the peek: it is shown as it arrived.
            assert_eq!(c.try_peek(1).unwrap(), b"ab");
            assert_eq!(c.try_peek(2).unwrap(), b"ab", "a peek consumes nothing");
            // A unit across two segments joins exactly those two.
            assert_eq!(c.try_peek(3).unwrap(), b"abcdefgh");
            let unit = c.try_recv_bytes(5).unwrap();
            // A unit inside one segment is a slice of it; the rest stays.
            assert_eq!(c.try_peek(1).unwrap(), b"fgh");
            let rest = c.try_recv_bytes(3).unwrap();
            assert!(
                c.try_recv_bytes(0).unwrap().is_empty(),
                "no wait for nothing"
            );
            let mut tail = [0u8; 2];
            c.recv_exact(&mut tail);
            [&unit[..], &rest[..], &tail[..]].concat()
        });
        assert_eq!(out[1], b"abcdefghij");
    }

    #[test]
    fn latency_floor_matches_model() {
        let (w, net) = eth_pair();
        let times = w.run(|env| {
            let tcp = TcpStack::new(env.adapter_on(net).unwrap());
            if env.id() == 0 {
                let mut c = tcp.connect(1, 1);
                c.send(&[0u8; 4]);
                0.0
            } else {
                let mut c = tcp.connect(0, 1);
                let mut buf = [0u8; 4];
                c.recv_exact(&mut buf);
                time::now().as_micros_f64()
            }
        });
        let t = crate::calib::Calib::PAPER.tcp;
        // connect (one lat) + one-way message time
        let expected = t.lat_us + t.lat_us + 4.0 * t.per_byte_us;
        assert!(
            (times[1] - expected).abs() < 0.5,
            "got {} expected {}",
            times[1],
            expected
        );
    }

    #[test]
    fn ports_demultiplex_connections() {
        let (w, net) = eth_pair();
        let out = w.run(|env| {
            let tcp = TcpStack::new(env.adapter_on(net).unwrap());
            if env.id() == 0 {
                let mut a = tcp.connect(1, 1);
                let mut b2 = tcp.connect(1, 2);
                b2.send(b"on-two");
                a.send(b"on-one");
                Vec::new()
            } else {
                let mut a = tcp.connect(0, 1);
                let mut b2 = tcp.connect(0, 2);
                let mut buf1 = vec![0u8; 6];
                a.recv_exact(&mut buf1);
                let mut buf2 = vec![0u8; 6];
                b2.recv_exact(&mut buf2);
                vec![buf1, buf2]
            }
        });
        assert_eq!(out[1][0], b"on-one");
        assert_eq!(out[1][1], b"on-two");
    }

    #[test]
    fn lossy_stream_still_delivers() {
        use crate::fault::FaultPlan;
        let mut b = WorldBuilder::new(2).fault_plan(FaultPlan::new(7).drop_rate(0.05));
        let net = b.network("eth0", NetKind::Ethernet, &[0, 1]);
        let w = b.build();
        let out = w.run(|env| {
            let tcp = TcpStack::new(env.adapter_on(net).unwrap());
            if env.id() == 0 {
                let mut c = tcp.connect(1, 9);
                let data: Vec<u8> = (0..200_000).map(|i| (i % 251) as u8).collect();
                c.try_send(&data).unwrap();
                Vec::new()
            } else {
                let mut c = tcp.connect(0, 9);
                let mut buf = vec![0u8; 200_000];
                c.try_recv_exact(&mut buf).unwrap();
                buf
            }
        });
        assert!(out[1]
            .iter()
            .enumerate()
            .all(|(i, &x)| x == (i % 251) as u8));
    }

    #[test]
    fn send_to_crashed_peer_fails_fast() {
        use crate::fault::FaultPlan;
        let mut b = WorldBuilder::new(2).fault_plan(FaultPlan::new(1).crash(1));
        let net = b.network("eth0", NetKind::Ethernet, &[0, 1]);
        let w = b.build();
        w.run(|env| {
            if env.id() == 0 {
                let tcp = TcpStack::new(env.adapter_on(net).unwrap());
                let mut c = tcp.connect(1, 9);
                assert_eq!(c.try_send(b"x"), Err(LinkError::PeerDead));
            }
        });
    }

    #[test]
    fn fast_ethernet_is_slow() {
        let (w, net) = eth_pair();
        let times = w.run(|env| {
            let tcp = TcpStack::new(env.adapter_on(net).unwrap());
            if env.id() == 0 {
                let mut c = tcp.connect(1, 1);
                c.send(&vec![0u8; 1 << 20]);
                0.0
            } else {
                let mut c = tcp.connect(0, 1);
                let mut buf = vec![0u8; 1 << 20];
                c.recv_exact(&mut buf);
                time::now().as_micros_f64()
            }
        });
        let bw = crate::perf::mibps(1 << 20, crate::time::VDuration::from_micros_f64(times[1]));
        assert!(bw > 10.0 && bw < 12.5, "Fast Ethernet bandwidth {bw} MiB/s");
    }
}
