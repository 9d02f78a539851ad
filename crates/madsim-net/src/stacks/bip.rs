//! BIP (Basic Interface for Parallelism) over Myrinet — simulated.
//!
//! BIP (Prylli & Tourancheau) exposes the Myrinet LANai in user space with
//! two distinct sub-interfaces (paper §5.2.2):
//!
//! * **short messages** (< 1 kB): stored on the receiving side in a small
//!   ring of **preallocated buffers**, no receiver participation needed —
//!   but nothing in BIP prevents overrun, so *the caller* must flow-control
//!   (Madeleine II's short-message TM layers a credit scheme on top). The
//!   simulation enforces the contract: overrunning the ring panics.
//! * **long messages**: delivered directly to their final location with no
//!   intermediate copy, which requires a strict **rendezvous** — the sender
//!   blocks until the receiver has posted the receive and acknowledged
//!   readiness.
//!
//! Costs: the `bip_short`, `bip_long` and `bip_cts` rows of the world's
//! [`crate::calib::Calib`].

use crate::fault::LinkError;
use crate::frame::{Frame, NodeId};
use crate::stacks::{link_wait, send_frame, LINK_BOUND};
use crate::time::{self, VTime};
use crate::world::{Adapter, NetKind};
use bytes::Bytes;

/// Largest message accepted by the short path (exclusive bound is 1 kB in
/// the paper; we accept exactly up to 1024 bytes).
pub const BIP_SHORT_MAX: usize = 1024;

/// Number of preallocated short-message buffers per (source, tag) pair on
/// the receiving side. Sending more than this many un-received short
/// messages is a protocol violation.
pub const BIP_SHORT_RING: usize = 8;

const KIND_SHORT: u16 = 1;
const KIND_CTS: u16 = 2;
const KIND_LONG: u16 = 3;

/// A node's handle on the BIP interface of a Myrinet adapter.
#[derive(Clone)]
pub struct Bip {
    adapter: Adapter,
}

impl Bip {
    /// Open BIP on a Myrinet adapter.
    ///
    /// # Panics
    /// Panics if the adapter is not on a Myrinet fabric.
    pub fn new(adapter: &Adapter) -> Self {
        assert_eq!(
            adapter.kind(),
            NetKind::Myrinet,
            "BIP requires a Myrinet fabric, got {:?}",
            adapter.kind()
        );
        Bip {
            adapter: adapter.clone(),
        }
    }

    pub fn node(&self) -> NodeId {
        self.adapter.node()
    }

    /// The adapter this BIP instance drives.
    pub fn adapter(&self) -> &Adapter {
        &self.adapter
    }

    /// Non-blocking receive of a short message with `tag` from `src`.
    pub fn poll_short_from(&self, src: NodeId, tag: u64) -> Option<Bytes> {
        let f = self
            .adapter
            .inbox()
            .try_recv_from(src, KIND_SHORT, |f| f.tag == tag)?;
        Some(self.finish_short(f).1)
    }

    /// Non-blocking peek at the source of the oldest pending short message
    /// with `tag`, without consuming it.
    pub fn peek_short_src(&self, tag: u64) -> Option<NodeId> {
        self.adapter.inbox().poll_src_of(KIND_SHORT, tag)
    }

    /// Send a short message (≤ [`BIP_SHORT_MAX`] bytes). Returns as soon as
    /// the host has posted the frame; delivery is asynchronous.
    ///
    /// # Panics
    /// Panics if `data` exceeds the short limit, or if the receiver's
    /// preallocated ring for `(self, tag)` is already full — the caller was
    /// required to flow-control (paper §5.2.2).
    pub fn send_short(&self, dst: NodeId, tag: u64, data: &[u8]) {
        assert!(
            data.len() <= BIP_SHORT_MAX,
            "BIP short message of {} bytes exceeds {} byte limit",
            data.len(),
            BIP_SHORT_MAX
        );
        let me = self.node();
        // Simulation-level enforcement of the preallocated-ring contract.
        // (In the real system this would corrupt or drop messages.)
        let queued = count_queued_shorts(&self.adapter, dst, me, tag);
        assert!(
            queued < BIP_SHORT_RING,
            "BIP short-message ring overflow: {queued} messages already queued \
             from node {me} tag {tag} — missing credit-based flow control?"
        );

        let row = self.adapter.calib().bip_short;
        let (frame, payload) = ((KIND_SHORT, tag), Bytes::copy_from_slice(data));
        send_frame(&self.adapter, dst, frame, row, time::now(), payload);
        time::advance(row.host());
    }

    /// Block until a short message with `tag` arrives from any source.
    /// Returns the source node and the BIP-internal buffer holding the data
    /// (the caller copies out, as with real BIP receive buffers).
    pub fn recv_short(&self, tag: u64) -> (NodeId, Bytes) {
        let f = self
            .adapter
            .inbox()
            .recv_match(|f| f.kind == KIND_SHORT && f.tag == tag);
        self.finish_short(f)
    }

    /// Like [`recv_short`](Self::recv_short) but from a specific source.
    ///
    /// # Panics
    /// Panics if the fault-armed link fails (see
    /// [`try_recv_short_from`](Self::try_recv_short_from)).
    pub fn recv_short_from(&self, src: NodeId, tag: u64) -> Bytes {
        self.try_recv_short_from(src, tag)
            .unwrap_or_else(|e| panic!("BIP short receive from node {src} failed: {e}"))
    }

    /// Fallible [`recv_short_from`](Self::recv_short_from): on a
    /// fault-armed world the wait is the link's bounded one (see
    /// [`crate::stacks`]), so a dead or silent source is an error, not a hang.
    pub fn try_recv_short_from(&self, src: NodeId, tag: u64) -> Result<Bytes, LinkError> {
        let inbox = self.adapter.inbox();
        let f = link_wait(&self.adapter, src, LINK_BOUND, |t| {
            inbox.recv_from_timeout(src, KIND_SHORT, |f| f.tag == tag, t)
        })?;
        Ok(self.finish_short(f).1)
    }

    fn finish_short(&self, f: Frame) -> (NodeId, Bytes) {
        // The inbound bus crossing was charged by the sender (see
        // `charge_dest_bus`); the arrival stamp is already effective.
        time::advance_to(f.arrival);
        (f.src, f.payload)
    }

    /// Send a long message. Blocks (in virtual and real time) until the
    /// receiver has posted the matching [`recv_long`](Self::recv_long) —
    /// the rendezvous the paper describes — and then until the LANai has
    /// drained the message from host memory (`bip_send` is synchronous for
    /// long messages: the user buffer is reusable on return, so the call
    /// cannot complete before the NIC has read it all).
    ///
    /// # Panics
    /// Panics if the fault-armed link fails (see
    /// [`try_send_long`](Self::try_send_long)).
    pub fn send_long(&self, dst: NodeId, tag: u64, data: Bytes) {
        if let Err(e) = self.try_send_long(dst, tag, data) {
            panic!("BIP long send to node {dst} failed: {e}");
        }
    }

    /// Fallible [`send_long`](Self::send_long). On a fault-armed world the
    /// wait for the receiver's clear-to-send is the link's bounded one:
    /// `Err(PeerDead)` if `dst` is crashed or cut off, `Err(Timeout)` if
    /// it never posted its receive. BIP has no retransmission — a
    /// rendezvous that cannot complete marks the channel down at the layer
    /// above.
    pub fn try_send_long(&self, dst: NodeId, tag: u64, data: Bytes) -> Result<(), LinkError> {
        if !self.adapter.reachable_to(dst) {
            return Err(LinkError::PeerDead);
        }
        let inbox = self.adapter.inbox();
        let cts = link_wait(&self.adapter, dst, LINK_BOUND, |t| {
            inbox.recv_from_timeout(dst, KIND_CTS, |f| f.tag == tag, t)
        })?;
        time::advance_to(cts.arrival);
        let local_done = self.send_long_from(dst, tag, data, time::now());
        time::advance_to(local_done);
        time::advance(self.adapter.calib().bip_long.host());
        Ok(())
    }

    /// Non-blocking check for a pending clear-to-send from `dst` for `tag`;
    /// consumes it and returns its arrival instant. The caller owns the
    /// other half of the rendezvous: having taken the CTS it **must**
    /// follow up with [`send_long_from`](Self::send_long_from).
    pub fn try_take_cts(&self, dst: NodeId, tag: u64) -> Option<VTime> {
        self.adapter
            .inbox()
            .try_recv_from(dst, KIND_CTS, |f| f.tag == tag)
            .map(|f| f.arrival)
    }

    /// Issue a long transfer whose rendezvous already completed, anchored
    /// at the explicit instant `start` (at or after the CTS arrival) rather
    /// than at the caller's clock — the LANai DMAs autonomously, so a
    /// progress engine that notices a CTS late still gets a transfer that
    /// began when the NIC saw it. Does **not** advance the caller's clock;
    /// returns the local-completion instant (user buffer drained; add the
    /// host-post cost for the CPU-side completion).
    pub fn send_long_from(&self, dst: NodeId, tag: u64, data: Bytes, start: VTime) -> VTime {
        let (c, frame) = (self.adapter.calib(), (KIND_LONG, tag));
        let arrival = send_frame(&self.adapter, dst, frame, c.bip_long, start, data);
        // Local completion: the wire hop is the only part that overlaps
        // with the caller.
        arrival.saturating_sub(c.bip_short.lat())
    }

    /// Post a receive for a long message from `src` and block until it has
    /// been delivered **directly into `buf`** (no intermediate copy — real
    /// BIP DMAs to the final location). Returns the message length.
    ///
    /// # Panics
    /// Panics if the incoming message is larger than `buf`.
    pub fn recv_long(&self, src: NodeId, tag: u64, buf: &mut [u8]) -> usize {
        self.post_cts(src, tag);
        self.recv_long_posted(src, tag, buf)
    }

    /// First half of the rendezvous: tell `src` we are ready. Posting early
    /// lets the sender's transfer (a background NIC DMA) overlap whatever
    /// the receiving CPU does next.
    pub fn post_cts(&self, src: NodeId, tag: u64) {
        let me = self.node();
        let cts_arrival = time::now() + self.adapter.calib().bip_cts.lat();
        self.adapter
            .send_raw(src, Frame::control(me, KIND_CTS, tag, cts_arrival));
    }

    /// Second half of the rendezvous: wait for the message matching an
    /// earlier [`post_cts`](Self::post_cts).
    ///
    /// # Panics
    /// Panics if the fault-armed link fails (see
    /// [`try_recv_long_posted`](Self::try_recv_long_posted)).
    pub fn recv_long_posted(&self, src: NodeId, tag: u64, buf: &mut [u8]) -> usize {
        self.try_recv_long_posted(src, tag, buf)
            .unwrap_or_else(|e| panic!("BIP long receive from node {src} failed: {e}"))
    }

    /// Fallible [`recv_long_posted`](Self::recv_long_posted): on a
    /// fault-armed world the wait is the link's bounded one, so a sender
    /// that crashed, or whose rail to us was cut, fails within a slice.
    pub fn try_recv_long_posted(
        &self,
        src: NodeId,
        tag: u64,
        buf: &mut [u8],
    ) -> Result<usize, LinkError> {
        let inbox = self.adapter.inbox();
        let f = link_wait(&self.adapter, src, LINK_BOUND, |t| {
            inbox.recv_from_timeout(src, KIND_LONG, |f| f.tag == tag, t)
        })?;
        assert!(
            f.payload.len() <= buf.len(),
            "BIP long message of {} bytes does not fit posted buffer of {}",
            f.payload.len(),
            buf.len()
        );
        buf[..f.payload.len()].copy_from_slice(&f.payload);
        time::advance_to(f.arrival);
        Ok(f.payload.len())
    }
}

fn count_queued_shorts(adapter: &Adapter, dst: NodeId, src: NodeId, tag: u64) -> usize {
    // Inspect the destination mailbox; simulation-only introspection used to
    // enforce the preallocated-ring contract.
    adapter
        .inbox_of(dst)
        .count_match(|f| f.kind == KIND_SHORT && f.src == src && f.tag == tag)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{NetKind, WorldBuilder};

    fn myrinet_pair() -> (crate::world::World, crate::world::NetworkId) {
        let mut b = WorldBuilder::new(2);
        let net = b.network("myr0", NetKind::Myrinet, &[0, 1]);
        (b.build(), net)
    }

    #[test]
    fn short_message_roundtrip() {
        let (w, net) = myrinet_pair();
        let out = w.run(|env| {
            let bip = Bip::new(env.adapter_on(net).unwrap());
            if env.id() == 0 {
                bip.send_short(1, 7, b"abc");
                Vec::new()
            } else {
                let (src, data) = bip.recv_short(7);
                assert_eq!(src, 0);
                data.to_vec()
            }
        });
        assert_eq!(out[1], b"abc");
    }

    #[test]
    fn short_message_latency_floor() {
        let (w, net) = myrinet_pair();
        let times = w.run(|env| {
            let bip = Bip::new(env.adapter_on(net).unwrap());
            if env.id() == 0 {
                bip.send_short(1, 1, &[0u8; 4]);
                0.0
            } else {
                bip.recv_short(1);
                time::now().as_micros_f64()
            }
        });
        // 4.8 us latency + 4 * 0.009 us
        assert!((times[1] - 4.836).abs() < 0.01, "got {}", times[1]);
    }

    #[test]
    #[should_panic(expected = "exceeds")]
    fn short_message_size_limit() {
        let (w, net) = myrinet_pair();
        w.run(|env| {
            let bip = Bip::new(env.adapter_on(net).unwrap());
            if env.id() == 0 {
                bip.send_short(1, 1, &[0u8; BIP_SHORT_MAX + 1]);
            }
        });
    }

    #[test]
    #[should_panic(expected = "ring overflow")]
    fn short_ring_overflow_is_detected() {
        let (w, net) = myrinet_pair();
        w.run(|env| {
            let bip = Bip::new(env.adapter_on(net).unwrap());
            if env.id() == 0 {
                for _ in 0..=BIP_SHORT_RING {
                    bip.send_short(1, 1, b"x");
                }
            }
        });
    }

    #[test]
    fn long_message_rendezvous_roundtrip() {
        let (w, net) = myrinet_pair();
        let data: Vec<u8> = (0..20_000u32).map(|i| (i % 251) as u8).collect();
        let expect = data.clone();
        let out = w.run(move |env| {
            let bip = Bip::new(env.adapter_on(net).unwrap());
            if env.id() == 0 {
                bip.send_long(1, 9, Bytes::from(data.clone()));
                Vec::new()
            } else {
                let mut buf = vec![0u8; 32_000];
                let n = bip.recv_long(0, 9, &mut buf);
                buf.truncate(n);
                buf
            }
        });
        assert_eq!(out[1], expect);
    }

    #[test]
    fn long_message_time_matches_curve() {
        let (w, net) = myrinet_pair();
        let len = 65536usize;
        let times = w.run(move |env| {
            let bip = Bip::new(env.adapter_on(net).unwrap());
            if env.id() == 0 {
                bip.send_long(1, 2, Bytes::from(vec![0u8; len]));
                0.0
            } else {
                let mut buf = vec![0u8; len];
                bip.recv_long(0, 2, &mut buf);
                time::now().as_micros_f64()
            }
        });
        let c = crate::calib::Calib::PAPER;
        let expected = c.bip_cts.lat_us + c.bip_long.lat_us + len as f64 * c.bip_long.per_byte_us;
        assert!(
            (times[1] - expected).abs() < 1.0,
            "got {} expected {}",
            times[1],
            expected
        );
    }

    #[test]
    fn shorts_from_two_sources_demultiplex() {
        let mut b = WorldBuilder::new(3);
        let net = b.network("myr0", NetKind::Myrinet, &[0, 1, 2]);
        let w = b.build();
        let out = w.run(|env| {
            let bip = Bip::new(env.adapter_on(net).unwrap());
            match env.id() {
                0 => {
                    bip.send_short(2, 5, b"from0");
                    Vec::new()
                }
                1 => {
                    bip.send_short(2, 5, b"from1");
                    Vec::new()
                }
                _ => {
                    let a = bip.recv_short_from(0, 5);
                    let b2 = bip.recv_short_from(1, 5);
                    vec![a.to_vec(), b2.to_vec()]
                }
            }
        });
        assert_eq!(out[2], vec![b"from0".to_vec(), b"from1".to_vec()]);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn long_into_small_buffer_panics() {
        let (w, net) = myrinet_pair();
        w.run(|env| {
            let bip = Bip::new(env.adapter_on(net).unwrap());
            if env.id() == 0 {
                bip.send_long(1, 3, Bytes::from(vec![0u8; 4096]));
            } else {
                let mut buf = vec![0u8; 16];
                bip.recv_long(0, 3, &mut buf);
            }
        });
    }

    #[test]
    #[should_panic(expected = "requires a Myrinet fabric")]
    fn rejects_wrong_fabric() {
        let mut b = WorldBuilder::new(2);
        let net = b.network("eth0", NetKind::Ethernet, &[0, 1]);
        let w = b.build();
        w.run(|env| {
            let _ = Bip::new(env.adapter_on(net).unwrap());
        });
    }
}
