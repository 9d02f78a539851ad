//! The TCP protocol module.
//!
//! One transmission module: the kernel byte stream. Dynamic buffers with
//! aggregation — grouped blocks leave in a single `writev`, so a message of
//! many small blocks costs one kernel traversal instead of one per block.
//! Receiving always copies once (socket buffer → user memory), charged as a
//! host memcpy — by this TM on a `receive_buffer`, by the caller on a
//! `receive_delimited`, which hands the unit over still in its socket
//! buffer.

use crate::bmm::SendPolicy;
use crate::config::HostModel;
use crate::error::{MadError, MadResult};
use crate::flags::{RecvMode, SendMode};
use crate::pmm::Pmm;
use crate::stats::Stats;
use crate::tm::{TmCaps, TmId, TransmissionModule};
use crate::trace::{TraceEvent, Tracer};
use bytes::Bytes;
use madsim_net::stacks::tcp::{TcpConn, TcpStack};
use madsim_net::time;
use madsim_net::world::Adapter;
use madsim_net::NodeId;
use parking_lot::{Mutex, MutexGuard};
use std::sync::Arc;

/// Build the TCP PMM for one channel. Establishes a connection to every
/// peer eagerly (all session members call this during init).
pub fn build(
    adapter: &Adapter,
    channel_id: u32,
    stats: Arc<Stats>,
    tracer: Arc<Tracer>,
) -> Arc<dyn Pmm> {
    let stack = TcpStack::new(adapter);
    let me = stack.node();
    let mut peers: Vec<NodeId> = adapter.peers().to_vec();
    peers.retain(|&peer| peer != me);
    peers.sort_unstable();
    let conns = peers
        .into_iter()
        .map(|peer| (peer, Mutex::new(stack.connect(peer, channel_id))))
        .collect();
    let tm: Arc<dyn TransmissionModule> = Arc::new(TcpTm {
        conns,
        host: adapter.calib().host,
        stats,
        tracer,
    });
    Arc::new(TcpPmm {
        stack,
        port: channel_id,
        tms: [tm],
    })
}

struct TcpPmm {
    stack: TcpStack,
    port: u32,
    tms: [Arc<dyn TransmissionModule>; 1],
}

impl Pmm for TcpPmm {
    fn name(&self) -> &'static str {
        "tcp"
    }

    fn tms(&self) -> &[Arc<dyn TransmissionModule>] {
        &self.tms
    }

    fn select(&self, _len: usize, _s: SendMode, _r: RecvMode) -> TmId {
        0
    }

    fn policy(&self, _id: TmId) -> SendPolicy {
        SendPolicy::Aggregate
    }

    fn poll_incoming(&self) -> Option<NodeId> {
        self.stack.peek_pending_src(self.port)
    }

    fn supports_batching(&self) -> bool {
        // The byte stream carries any frame length; batch frames ride the
        // same ARQ segments as ordinary sends.
        true
    }
}

struct TcpTm {
    /// One connection per peer, sorted by peer id, each behind its own
    /// lock: threads talking to different peers share nothing, and a
    /// lookup is a short binary search.
    conns: Vec<(NodeId, Mutex<TcpConn>)>,
    host: HostModel,
    stats: Arc<Stats>,
    tracer: Arc<Tracer>,
}

impl TcpTm {
    fn conn(&self, peer: NodeId) -> MutexGuard<'_, TcpConn> {
        let at = self.conns.binary_search_by_key(&peer, |&(p, _)| p);
        let at = at.unwrap_or_else(|_| panic!("no TCP connection to node {peer}"));
        self.conns[at].1.lock()
    }

    /// Account a completed reliable send: `n` retransmissions happened
    /// before the ack arrived (0 on the fault-free fast path).
    fn note_retransmits(&self, peer: NodeId, n: u64) {
        if n > 0 {
            self.stats.record_retransmits(n);
            self.tracer
                .record(TraceEvent::Retransmit { peer, retries: n });
        }
    }
}

impl TransmissionModule for TcpTm {
    fn name(&self) -> &'static str {
        "tcp/stream"
    }

    fn caps(&self) -> TmCaps {
        TmCaps {
            static_buffers: false,
            buffer_cap: usize::MAX,
            gather: true,
        }
    }

    fn send_buffer(&self, dst: NodeId, data: &[u8]) -> MadResult<()> {
        let n = self.conn(dst).try_send(data).map_err(MadError::from_link(
            dst,
            &self.stats,
            &self.tracer,
        ))?;
        self.note_retransmits(dst, n);
        Ok(())
    }

    /// Native gather: the blocks go to the kernel in one writev-style call,
    /// straight from where they lie — no coalescing staging copy.
    fn send_buffer_group(&self, dst: NodeId, bufs: &[&[u8]]) -> MadResult<()> {
        if bufs.is_empty() {
            return Ok(());
        }
        let n = self
            .conn(dst)
            .try_send_vectored(bufs)
            .map_err(MadError::from_link(dst, &self.stats, &self.tracer))?;
        self.note_retransmits(dst, n);
        Ok(())
    }

    fn receive_buffer(&self, src: NodeId, dst: &mut [u8]) -> MadResult<()> {
        self.conn(src)
            .try_recv_exact(dst)
            .map_err(MadError::from_link(src, &self.stats, &self.tracer))?;
        // Socket buffer → user memory copy: a cost of the protocol itself,
        // not of the generic layer (no emission flag could avoid it).
        time::advance(self.host.memcpy(dst.len()));
        self.stats.record_tm_copy(dst.len());
        Ok(())
    }

    fn receive_sub_buffer_group(&self, src: NodeId, dsts: &mut [&mut [u8]]) -> MadResult<()> {
        let mut total = 0;
        let mut conn = self.conn(src);
        let lift = MadError::from_link(src, &self.stats, &self.tracer);
        for d in dsts.iter_mut() {
            conn.try_recv_exact(d).map_err(&lift)?;
            total += d.len();
        }
        drop(conn);
        if total > 0 {
            time::advance(self.host.memcpy(total));
            self.stats.record_tm_copy(total);
        }
        Ok(())
    }

    fn receive_delimited(
        &self,
        src: NodeId,
        unit_len: &mut dyn FnMut(&[u8]) -> MadResult<Option<usize>>,
    ) -> MadResult<Bytes> {
        let mut conn = self.conn(src);
        let lift = MadError::from_link(src, &self.stats, &self.tracer);
        let mut want = 1;
        let len = loop {
            let head = conn.try_peek(want).map_err(&lift)?;
            match unit_len(head)? {
                Some(len) => break len,
                None => want = head.len() + 1,
            }
        };
        // Still in its socket buffer: the copy out is the caller's.
        conn.try_recv_bytes(len).map_err(lift)
    }
}
