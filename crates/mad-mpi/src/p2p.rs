//! Point-to-point messaging: the `ch_mad` device (paper §5.3.1).
//!
//! Every MPI message becomes one Madeleine message: a 12-byte envelope
//! (context, tag, length: [`MpiEnvelope`]) packed `(CHEAPER, EXPRESS)` —
//! which coalesces with the library's own header into the protocol's
//! small-message path — followed by the payload packed `(CHEAPER,
//! CHEAPER)`, so the multi-protocol transfer-method selection of
//! Madeleine II applies to MPI traffic unchanged: that is the whole point
//! of the port.
//!
//! Tag matching is MPICH-style: messages that arrive while a non-matching
//! receive is outstanding are drained into an *unexpected queue* (one copy,
//! as in real MPICH) and matched later. A message longer than its receive
//! buffer is truncated (`MPI_ERR_TRUNCATE`): the buffer gets its head, the
//! rest is drained, and the status says so.

use crate::comm::Comm;
use bytes::Bytes;
use madeleine::wire::MpiEnvelope;
use madeleine::{IncomingMessage, OpId, RecvMode, SendMode};
use madsim_net::time::{self, VDuration};
use madsim_net::NodeId;
use parking_lot::Mutex;
use std::collections::VecDeque;

/// Wildcard receive selectors.
pub const ANY_SOURCE: Option<usize> = None;
pub const ANY_TAG: Option<i32> = None;

/// Per-message software overhead of the MPI layer (envelope handling,
/// request bookkeeping), calibrated so the MPICH/Madeleine latency sits a
/// few µs above raw Madeleine (Fig. 6).
const MPI_OVERHEAD_US: f64 = 1.6;

/// Completed-receive status.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Status {
    pub source: usize,
    pub tag: i32,
    /// Payload bytes delivered into the receive buffer (for a probe, the
    /// message's length).
    pub len: usize,
    /// The message was longer than the buffer (`MPI_ERR_TRUNCATE`).
    pub truncated: bool,
}

/// A message drained off the wire into the queue: one no posted receive
/// matched, or one a vector receive takes out whole.
struct Unexpected {
    ctx: u16,
    /// Originating *node* (rank depends on the receiving communicator).
    src_node: NodeId,
    tag: i32,
    data: Vec<u8>,
}

impl Unexpected {
    /// Does a receive on `comm` with these selectors match this message?
    fn matches(&self, comm: &Comm, src: Option<usize>, tag: Option<i32>) -> bool {
        self.ctx == comm.ctx()
            && src.is_none_or(|s| s < comm.size() && comm.node_of(s) == self.src_node)
            && tag.is_none_or(|t| t == self.tag)
    }

    fn status(&self, comm: &Comm, (len, truncated): (usize, bool)) -> Status {
        Status {
            source: comm.rank_of(self.src_node),
            tag: self.tag,
            len,
            truncated,
        }
    }
}

/// Copy the head of `data` that fits `buf`: the bytes delivered, and
/// whether the rest was cut off.
fn fill(buf: &mut [u8], data: &[u8]) -> (usize, bool) {
    let n = data.len().min(buf.len());
    buf[..n].copy_from_slice(&data[..n]);
    (n, n < data.len())
}

/// Unpack a message's last block into `body` and end the message.
fn finish<'a>(mut msg: IncomingMessage<'_, 'a>, body: &'a mut [u8]) {
    if !body.is_empty() {
        msg.unpack(body, SendMode::Cheaper, RecvMode::Cheaper);
    }
    msg.end_unpacking();
}

/// [`finish`] into a vector sized by the body.
fn body_vec(msg: IncomingMessage<'_, '_>, len: usize) -> Vec<u8> {
    let mut data = vec![0u8; len];
    finish(msg, &mut data);
    data
}

/// Point-to-point endpoint state of one communicator.
#[derive(Default)]
pub struct P2p {
    unexpected: Mutex<VecDeque<Unexpected>>,
}

impl P2p {
    pub fn new() -> Self {
        P2p::default()
    }

    /// The envelope of both the blocking and the posted send.
    fn envelope(comm: &Comm, tag: i32, data: &[u8]) -> [u8; MpiEnvelope::LEN] {
        MpiEnvelope {
            ctx: comm.ctx(),
            tag,
            len: data.len(),
        }
        .to_wire()
    }

    /// Blocking standard-mode send.
    pub fn send(&self, comm: &Comm, dst_rank: usize, tag: i32, data: &[u8]) {
        time::advance(VDuration::from_micros_f64(MPI_OVERHEAD_US));
        let env = Self::envelope(comm, tag, data);
        let mut msg = comm.channel().begin_packing(comm.node_of(dst_rank));
        msg.pack(&env, SendMode::Cheaper, RecvMode::Express);
        if !data.is_empty() {
            msg.pack(data, SendMode::Cheaper, RecvMode::Cheaper);
        }
        msg.end_packing();
    }

    /// Post a standard-mode send as a **nonblocking op**: returns an op
    /// handle immediately, whatever the message size — the transfer
    /// (including BIP's long-message rendezvous) is driven by the
    /// channel's progress engine inside `test`/`wait`. The wire bytes are
    /// the same envelope + payload a blocking [`send`](Self::send) emits.
    pub(crate) fn post_send(&self, comm: &Comm, dst_rank: usize, tag: i32, data: &[u8]) -> OpId {
        time::advance(VDuration::from_micros_f64(MPI_OVERHEAD_US));
        let env = Self::envelope(comm, tag, data);
        let mut blocks = vec![(
            Bytes::copy_from_slice(&env),
            SendMode::Cheaper,
            RecvMode::Express,
        )];
        if !data.is_empty() {
            blocks.push((
                Bytes::copy_from_slice(data),
                SendMode::Cheaper,
                RecvMode::Cheaper,
            ));
        }
        comm.channel().post_message(comm.node_of(dst_rank), blocks)
    }

    /// Blocking receive with optional source/tag wildcards. The payload is
    /// written to `buf[..status.len]`; a longer message is truncated to
    /// `buf` (see [`Status::truncated`]).
    pub fn recv(
        &self,
        comm: &Comm,
        src: Option<usize>,
        tag: Option<i32>,
        buf: &mut [u8],
    ) -> Status {
        time::advance(VDuration::from_micros_f64(MPI_OVERHEAD_US));
        self.next_match(comm, src, tag, buf, true)
            .expect("a blocking match waits for one")
    }

    /// Blocking receive into a vector sized by the matched message: every
    /// arrival is queued, and the match moves out of the queue whole.
    pub(crate) fn recv_vec(&self, comm: &Comm, src: Option<usize>, tag: Option<i32>) -> Vec<u8> {
        time::advance(VDuration::from_micros_f64(MPI_OVERHEAD_US));
        loop {
            if let Some(u) = self.dequeue(comm, src, tag) {
                return u.data;
            }
            self.pump_one(comm, Some(usize::MAX), None, &mut []);
        }
    }

    /// Read exactly one message off the channel (blocking); if it matches
    /// the `(src, tag)` selectors it fills `buf` and its status is returned,
    /// otherwise it lands in the unexpected queue and `None` is returned.
    fn pump_one(
        &self,
        comm: &Comm,
        src: Option<usize>,
        tag: Option<i32>,
        buf: &mut [u8],
    ) -> Option<Status> {
        let mut msg = comm.channel().begin_unpacking();
        let src_node = msg.src();
        let mut raw = [0u8; MpiEnvelope::LEN];
        msg.unpack_express(&mut raw, SendMode::Cheaper);
        let env = MpiEnvelope::from_wire(&raw).expect("an envelope-long unpack decodes");
        let mut arrived = Unexpected {
            ctx: env.ctx,
            src_node,
            tag: env.tag,
            data: Vec::new(),
        };
        if arrived.matches(comm, src, tag) {
            let delivered = if env.len <= buf.len() {
                finish(msg, &mut buf[..env.len]);
                (env.len, false)
            } else {
                fill(buf, &body_vec(msg, env.len))
            };
            return Some(arrived.status(comm, delivered));
        }
        // Unexpected (wrong source, tag, or communicator context): buffer
        // it — the MPICH copy.
        arrived.data = body_vec(msg, env.len);
        self.unexpected.lock().push_back(arrived);
        None
    }

    /// The unexpected queue first (arrival order), then messages off the
    /// wire until one matches the `(src, tag)` selectors and fills `buf`:
    /// a `block`ing match waits for them, a nonblocking one reads only
    /// those already announced and returns `None` when none matched.
    pub(crate) fn next_match(
        &self,
        comm: &Comm,
        src: Option<usize>,
        tag: Option<i32>,
        buf: &mut [u8],
        block: bool,
    ) -> Option<Status> {
        if let Some(u) = self.dequeue(comm, src, tag) {
            return Some(u.status(comm, fill(buf, &u.data)));
        }
        while block || comm.channel().has_incoming() {
            if let Some(st) = self.pump_one(comm, src, tag, buf) {
                return Some(st);
            }
        }
        None
    }

    /// Nonblocking probe: is a message matching `(src, tag)` available?
    /// Drains announced wire traffic into the unexpected queue to decide
    /// (as MPICH's progress engine does), but consumes no matching message.
    pub fn iprobe(&self, comm: &Comm, src: Option<usize>, tag: Option<i32>) -> Option<Status> {
        loop {
            {
                let q = self.unexpected.lock();
                if let Some(u) = q.iter().find(|u| u.matches(comm, src, tag)) {
                    return Some(u.status(comm, (u.data.len(), false)));
                }
            }
            if !comm.channel().has_incoming() {
                return None;
            }
            // Something is announced: classify it. `pump_one` with
            // never-matching selectors routes it to the unexpected queue.
            let consumed = self.pump_one(comm, Some(usize::MAX), None, &mut []);
            debug_assert!(consumed.is_none(), "impossible selector matched");
        }
    }

    /// Blocking probe.
    pub fn probe(&self, comm: &Comm, src: Option<usize>, tag: Option<i32>) -> Status {
        loop {
            if let Some(st) = self.iprobe(comm, src, tag) {
                return st;
            }
            // Wait for traffic to classify, without consuming it.
            let _ = comm.channel().wait_incoming();
        }
    }

    /// Take the first queued message these selectors match.
    fn dequeue(&self, comm: &Comm, src: Option<usize>, tag: Option<i32>) -> Option<Unexpected> {
        let mut q = self.unexpected.lock();
        let pos = q.iter().position(|u| u.matches(comm, src, tag))?;
        q.remove(pos)
    }

    /// Combined send+receive: send `data` to `dst_rank` and run `recv`,
    /// deadlock-free for pairwise exchanges even over rendezvous protocols
    /// (BIP's long path blocks the sender until the receiver posts): the
    /// lower rank sends first, the higher rank receives first.
    pub fn sendrecv<R>(
        &self,
        comm: &Comm,
        dst_rank: usize,
        tag: i32,
        data: &[u8],
        recv: impl FnOnce() -> R,
    ) -> R {
        assert_ne!(dst_rank, comm.rank(), "sendrecv with self");
        if comm.rank() < dst_rank {
            self.send(comm, dst_rank, tag, data);
            recv()
        } else {
            let got = recv();
            self.send(comm, dst_rank, tag, data);
            got
        }
    }
}
