//! The stop-and-wait ARQ the TCP and SBP stacks run on a fault-armed
//! world: data frames carry a 4-byte sequence prefix, the receiver acks
//! every in-order frame and re-acks duplicates, the sender retransmits on
//! timeout with exponential backoff (charging the modeled RTO to the
//! virtual clock, so goodput degrades with the loss rate). Without a
//! [`FaultPlan`](crate::fault::FaultPlan) neither stack comes here.

use crate::calib::Row;
use crate::fault::{
    LinkError, ARQ_MAX_RETRIES, ARQ_RECV_TIMEOUT_MS, ARQ_RTO_REAL_BASE_MS, ARQ_RTO_REAL_MAX_MS,
    ARQ_RTO_VIRT_BASE_US, ARQ_RTO_VIRT_MAX_US,
};
use crate::frame::{Frame, NodeId};
use crate::stacks::{link_wait, send_frame};
use crate::time::{self, VDuration, VTime};
use crate::world::Adapter;
use bytes::Bytes;
use std::time::{Duration, Instant};

/// One direction of one reliable exchange, and what tells one stack's
/// from another's. The sequence counters stay with the stack: `send` and
/// `recv` are told the number to use.
pub(crate) struct Arq<'a> {
    pub adapter: &'a Adapter,
    pub peer: NodeId,
    pub tag: u64,
    /// Frame kinds of data and ack frames.
    pub kinds: (u16, u16),
    /// What a data frame costs; its host time is charged per
    /// transmission attempt, its latency floor per ack.
    pub row: Row,
}

/// Sequence number of a data or ack frame, if it carries one.
fn seq_of(f: &Frame) -> Option<u32> {
    Some(u32::from_le_bytes(f.payload.get(..4)?.try_into().ok()?))
}

impl Arq<'_> {
    /// Transmit `data` as frame `seq`: send (charging the bus model per
    /// attempt), await the matching ack with a real-time RTO as the wait's
    /// bound, retransmit on timeout. Returns the number of
    /// retransmissions. A peer the liveness test finds unreachable — this
    /// rail toward it before each attempt, back from it during the ack
    /// wait — ends the send with `PeerDead` at once.
    pub(crate) fn send(&self, seq: u32, data: &[u8]) -> Result<u64, LinkError> {
        let (peer, tag, (data_kind, ack_kind)) = (self.peer, self.tag, self.kinds);
        let wire = Bytes::from([&seq.to_le_bytes()[..], data].concat());
        let inbox = self.adapter.inbox();
        let mut retransmits = 0u64;
        let mut rto_real = Duration::from_millis(ARQ_RTO_REAL_BASE_MS);
        let mut rto_virt_us = ARQ_RTO_VIRT_BASE_US;
        loop {
            if !self.adapter.reachable_to(peer) {
                return Err(LinkError::PeerDead);
            }
            let (frame, t0) = ((data_kind, tag), time::now());
            send_frame(self.adapter, peer, frame, self.row, t0, wire.clone());
            time::advance(self.row.host());
            // Stale duplicate acks (seq < ours) are consumed and ignored.
            let ack = |f: &Frame| {
                f.tag == tag && f.payload.len() == 4 && seq_of(f).is_some_and(|s| s <= seq)
            };
            let acked = link_wait(self.adapter, peer, rto_real, |t| loop {
                let f = inbox.recv_from_timeout(peer, ack_kind, ack, t)?;
                if seq_of(&f) == Some(seq) {
                    return Some(f);
                }
            });
            match acked {
                Ok(f) => {
                    time::advance_to(f.arrival);
                    return Ok(retransmits);
                }
                Err(LinkError::PeerDead) => return Err(LinkError::PeerDead),
                Err(LinkError::Timeout) => {}
            }
            retransmits += 1;
            if retransmits > u64::from(ARQ_MAX_RETRIES) {
                return Err(LinkError::Timeout);
            }
            time::advance(VDuration::from_micros_f64(rto_virt_us));
            rto_virt_us = (rto_virt_us * 2.0).min(ARQ_RTO_VIRT_MAX_US);
            rto_real = (rto_real * 2).min(Duration::from_millis(ARQ_RTO_REAL_MAX_MS));
        }
    }

    /// Pull frame `expected` off the wire and ack it; duplicates of
    /// delivered frames are re-acked (their ack may have been lost, or the
    /// frame was duplicated in flight) and discarded. Returns the payload
    /// behind the sequence prefix and its arrival instant.
    pub(crate) fn recv(&self, expected: u32) -> Result<(Bytes, VTime), LinkError> {
        let (peer, tag, kind) = (self.peer, self.tag, self.kinds.0);
        let inbox = self.adapter.inbox();
        let deadline = Instant::now() + Duration::from_millis(ARQ_RECV_TIMEOUT_MS);
        loop {
            let bound = deadline.saturating_duration_since(Instant::now());
            let f = link_wait(self.adapter, peer, bound, |t| {
                inbox.recv_from_timeout(peer, kind, |f| f.tag == tag, t)
            })?;
            // A frame ahead of `expected` cannot happen under
            // stop-and-wait; it is dropped like a malformed one.
            let Some(seq) = seq_of(&f).filter(|&s| s <= expected) else {
                continue;
            };
            self.ack(seq, f.arrival);
            if seq == expected {
                return Ok((f.payload.slice(4..), f.arrival));
            }
        }
    }

    /// Ack `seq` back to the peer. Acks ride the loss-exempt control path
    /// ([`Adapter::send_raw_control`]): data-frame loss alone drives the
    /// retransmission machinery, and the final ack of an exchange cannot
    /// vanish after the receiver has gone quiet. They carry no bus charge
    /// — 4-byte control frames.
    fn ack(&self, seq: u32, data_arrival: VTime) {
        let arrival = time::now().max(data_arrival) + self.row.lat();
        self.adapter.send_raw_control(
            self.peer,
            Frame {
                src: self.adapter.node(),
                kind: self.kinds.1,
                tag: self.tag,
                arrival,
                payload: Bytes::copy_from_slice(&seq.to_le_bytes()),
            },
        );
    }
}
