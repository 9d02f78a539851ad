//! Point-to-point messaging: the `ch_mad` device (paper §5.3.1).
//!
//! Every MPI message becomes one Madeleine message: an 8-byte envelope
//! (tag + length) packed `(CHEAPER, EXPRESS)` — which coalesces with the
//! library's own header into the protocol's small-message path — followed
//! by the payload packed `(CHEAPER, CHEAPER)`, so the multi-protocol
//! transfer-method selection of Madeleine II applies to MPI traffic
//! unchanged: that is the whole point of the port.
//!
//! Tag matching is MPICH-style: messages that arrive while a non-matching
//! receive is outstanding are drained into an *unexpected queue* (one copy,
//! as in real MPICH) and matched later.

use crate::comm::Comm;
use bytes::Bytes;
use madeleine::{OpId, RecvMode, SendMode};
use madsim_net::time::{self, VDuration};
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
    pub len: usize,
}

struct Unexpected {
    ctx: u16,
    /// Originating *node* (rank depends on the receiving communicator).
    src_node: madsim_net::NodeId,
    tag: i32,
    data: Vec<u8>,
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

    /// Blocking standard-mode send.
    pub fn send(&self, comm: &Comm, dst_rank: usize, tag: i32, data: &[u8]) {
        time::advance(VDuration::from_micros_f64(MPI_OVERHEAD_US));
        let ch = comm.channel();
        let mut env = [0u8; 12];
        env[0..2].copy_from_slice(&comm.ctx().to_le_bytes());
        env[4..8].copy_from_slice(&tag.to_le_bytes());
        env[8..12].copy_from_slice(&(data.len() as u32).to_le_bytes());
        let mut msg = ch.begin_packing(comm.node_of(dst_rank));
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
        let ch = comm.channel();
        let mut env = [0u8; 12];
        env[0..2].copy_from_slice(&comm.ctx().to_le_bytes());
        env[4..8].copy_from_slice(&tag.to_le_bytes());
        env[8..12].copy_from_slice(&(data.len() as u32).to_le_bytes());
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
        ch.post_message(comm.node_of(dst_rank), blocks)
    }

    /// Blocking receive with optional source/tag wildcards. Returns the
    /// matched status; the payload is written to `buf[..status.len]`.
    ///
    /// # Panics
    /// Panics if the matched message exceeds `buf` (MPI truncation error).
    pub fn recv(
        &self,
        comm: &Comm,
        src: Option<usize>,
        tag: Option<i32>,
        buf: &mut [u8],
    ) -> Status {
        time::advance(VDuration::from_micros_f64(MPI_OVERHEAD_US));
        // 1. Unexpected queue first (arrival order).
        if let Some(st) = self.take_unexpected(comm, src, tag, buf) {
            return st;
        }
        // 2. Drain the wire until a match shows up.
        loop {
            if let Some(st) = self.pump_one(comm, src, tag, buf) {
                return st;
            }
        }
    }

    /// Read exactly one message off the channel (blocking); if it matches
    /// the `(src, tag)` selectors it fills `buf` and returns its status,
    /// otherwise it lands in the unexpected queue and `None` is returned.
    fn pump_one(
        &self,
        comm: &Comm,
        src: Option<usize>,
        tag: Option<i32>,
        buf: &mut [u8],
    ) -> Option<Status> {
        let ch = comm.channel();
        let mut msg = ch.begin_unpacking();
        let src_node = msg.src();
        let mut env = [0u8; 12];
        msg.unpack_express(&mut env, SendMode::Cheaper);
        let mctx = u16::from_le_bytes(env[0..2].try_into().expect("2 bytes"));
        let mtag = i32::from_le_bytes(env[4..8].try_into().expect("4 bytes"));
        let len = u32::from_le_bytes(env[8..12].try_into().expect("4 bytes")) as usize;
        let matches = mctx == comm.ctx()
            && src.is_none_or(|s| s < comm.size() && comm.node_of(s) == src_node)
            && tag.is_none_or(|t| t == mtag);
        if matches {
            assert!(
                len <= buf.len(),
                "MPI truncation: message of {len} bytes into buffer of {}",
                buf.len()
            );
            if len > 0 {
                msg.unpack(&mut buf[..len], SendMode::Cheaper, RecvMode::Cheaper);
            }
            msg.end_unpacking();
            return Some(Status {
                source: comm.rank_of(src_node),
                tag: mtag,
                len,
            });
        }
        // Unexpected (wrong source, tag, or communicator context): buffer
        // it — the MPICH copy.
        let mut data = vec![0u8; len];
        if len > 0 {
            msg.unpack(&mut data, SendMode::Cheaper, RecvMode::Cheaper);
        }
        msg.end_unpacking();
        self.unexpected.lock().push_back(Unexpected {
            ctx: mctx,
            src_node,
            tag: mtag,
            data,
        });
        None
    }

    /// Nonblocking match attempt: the unexpected queue first, then any
    /// messages already announced on the wire. Returns `None` when a
    /// matching message has not arrived yet.
    pub(crate) fn try_match(
        &self,
        comm: &Comm,
        src: Option<usize>,
        tag: Option<i32>,
        buf: &mut [u8],
    ) -> Option<Status> {
        if let Some(st) = self.take_unexpected(comm, src, tag, buf) {
            return Some(st);
        }
        while comm.channel().has_incoming() {
            if let Some(st) = self.pump_one(comm, src, tag, buf) {
                return Some(st);
            }
        }
        None
    }

    /// Block until some message is announced on the channel (without
    /// consuming it); used by `wait`/`waitall` between match attempts.
    pub(crate) fn block_for_traffic(&self, comm: &Comm) {
        let _ = comm.channel().wait_incoming();
    }

    /// Nonblocking probe: is a message matching `(src, tag)` available?
    /// Drains announced wire traffic into the unexpected queue to decide
    /// (as MPICH's progress engine does), but consumes no matching message.
    pub fn iprobe(&self, comm: &Comm, src: Option<usize>, tag: Option<i32>) -> Option<Status> {
        loop {
            {
                let q = self.unexpected.lock();
                if let Some(u) = q.iter().find(|u| {
                    u.ctx == comm.ctx()
                        && src.is_none_or(|s| s < comm.size() && comm.node_of(s) == u.src_node)
                        && tag.is_none_or(|t| t == u.tag)
                }) {
                    return Some(Status {
                        source: comm.rank_of(u.src_node),
                        tag: u.tag,
                        len: u.data.len(),
                    });
                }
            }
            if !comm.channel().has_incoming() {
                return None;
            }
            // Something is announced: classify it. `pump_one` with
            // never-matching selectors routes it to the unexpected queue.
            let mut sink = [0u8; 0];
            let consumed = self.pump_one(comm, Some(usize::MAX), None, &mut sink);
            debug_assert!(consumed.is_none(), "impossible selector matched");
        }
    }

    /// Blocking probe.
    pub fn probe(&self, comm: &Comm, src: Option<usize>, tag: Option<i32>) -> Status {
        loop {
            if let Some(st) = self.iprobe(comm, src, tag) {
                return st;
            }
            self.block_for_traffic(comm);
        }
    }

    fn take_unexpected(
        &self,
        comm: &Comm,
        src: Option<usize>,
        tag: Option<i32>,
        buf: &mut [u8],
    ) -> Option<Status> {
        let mut q = self.unexpected.lock();
        let pos = q.iter().position(|u| {
            u.ctx == comm.ctx()
                && src.is_none_or(|s| s < comm.size() && comm.node_of(s) == u.src_node)
                && tag.is_none_or(|t| t == u.tag)
        })?;
        let u = q.remove(pos).expect("position just found");
        assert!(
            u.data.len() <= buf.len(),
            "MPI truncation: message of {} bytes into buffer of {}",
            u.data.len(),
            buf.len()
        );
        buf[..u.data.len()].copy_from_slice(&u.data);
        Some(Status {
            source: comm.rank_of(u.src_node),
            tag: u.tag,
            len: u.data.len(),
        })
    }

    /// Combined send+receive, deadlock-free for pairwise exchanges even
    /// over rendezvous protocols (BIP's long path blocks the sender until
    /// the receiver posts): the lower rank sends first, the higher rank
    /// receives first.
    #[allow(clippy::too_many_arguments)]
    pub fn sendrecv(
        &self,
        comm: &Comm,
        dst_rank: usize,
        send_tag: i32,
        data: &[u8],
        src: Option<usize>,
        recv_tag: Option<i32>,
        buf: &mut [u8],
    ) -> Status {
        assert_ne!(dst_rank, comm.rank(), "sendrecv with self");
        if comm.rank() < dst_rank {
            self.send(comm, dst_rank, send_tag, data);
            self.recv(comm, src, recv_tag, buf)
        } else {
            let st = self.recv(comm, src, recv_tag, buf);
            self.send(comm, dst_rank, send_tag, data);
            st
        }
    }
}
