//! # mad-mpi — MPICH/Madeleine II (Rust reproduction of paper §5.3.1)
//!
//! The paper integrates Madeleine II into MPICH as a new `ch_mad` ADI
//! device so MPI applications inherit the library's multi-protocol,
//! multi-adapter transfer selection. This crate reproduces that layering:
//! a compact MPI subset (communicators, tagged blocking point-to-point with
//! wildcards and an unexpected-message queue, and the usual collectives)
//! whose *entire* transport is Madeleine messages — one 12-byte envelope
//! packed `receive_EXPRESS` plus the payload packed `receive_CHEAPER`.
//!
//! ```no_run
//! use madeleine::{Config, Madeleine, Protocol};
//! use mad_mpi::Mpi;
//! use madsim_net::{NetKind, WorldBuilder};
//!
//! let mut b = WorldBuilder::new(4);
//! b.network("sci0", NetKind::Sci, &[0, 1, 2, 3]);
//! let world = b.build();
//! world.run(|env| {
//!     let mad = Madeleine::init(&env, &Config::one("mpi", "sci0", Protocol::Sisci));
//!     let mpi = Mpi::init(&mad, "mpi");
//!     if mpi.rank() == 0 {
//!         mpi.send(1, 42, b"hello");
//!     } else if mpi.rank() == 1 {
//!         let mut buf = [0u8; 5];
//!         let st = mpi.recv(Some(0), Some(42), &mut buf);
//!         assert_eq!(st.len, 5);
//!     }
//!     mpi.barrier();
//! });
//! ```
//!
//! [`baselines`] carries the analytic SCI-MPICH / ScaMPI models used as the
//! closed-source comparators of Fig. 6.

#![forbid(unsafe_code)]

pub mod baselines;
pub mod collectives;
pub mod comm;
pub mod p2p;
pub mod request;

pub use collectives::{ReduceOp, Topology};
pub use comm::Comm;
pub use p2p::{Status, ANY_SOURCE, ANY_TAG};
pub use request::{waitall, Request};

use madeleine::wire::{Reader, Writer};
use madeleine::Madeleine;
use std::sync::Arc;

/// An MPI world: communicator + point-to-point state over one channel.
/// Sub-communicators created with [`split`](Self::split) share the
/// channel-draining state (one progress engine per node per channel, as in
/// MPICH) but match messages only within their own context.
pub struct Mpi {
    comm: Comm,
    p2p: Arc<p2p::P2p>,
}

impl Mpi {
    /// Bring up MPI over the named Madeleine channel (collective across the
    /// channel's members).
    pub fn init(mad: &Madeleine, channel: &str) -> Arc<Mpi> {
        Arc::new(Mpi {
            comm: Comm::world(Arc::clone(mad.channel(channel))),
            p2p: Arc::new(p2p::P2p::new()),
        })
    }

    /// Bring up MPI over an arbitrary channel object and member subset —
    /// e.g. a `mad-gateway` virtual channel whose end nodes form the MPI
    /// world while its gateways only forward.
    pub fn init_over(
        chan: std::sync::Arc<madeleine::Channel>,
        members: Option<&[madsim_net::NodeId]>,
    ) -> Arc<Mpi> {
        Arc::new(Mpi {
            comm: Comm::from_members(chan, members),
            p2p: Arc::new(p2p::P2p::new()),
        })
    }

    /// Split this communicator by color (MPI_Comm_split with key = rank):
    /// collective over *this* communicator; every member receives the
    /// sub-communicator of its color. Context ids are derived
    /// deterministically: at most 15 distinct colors per split and a
    /// nesting depth of 4 splits.
    pub fn split(&self, color: u32) -> Arc<Mpi> {
        // Agree on everyone's color.
        let mut mine = Writer::new();
        let all = collectives::allgather(&self.comm, &self.p2p, mine.put_u32(color).as_slice());
        let colors: Vec<u32> = all
            .iter()
            .map(|b| Reader::new(b).get_u32().expect("a rank's color"))
            .collect();
        let mut distinct: Vec<u32> = colors.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert!(
            distinct.len() <= 15,
            "at most 15 distinct colors per split (got {})",
            distinct.len()
        );
        let parent_ctx = self.comm.ctx();
        assert!(
            parent_ctx < 0x1000,
            "communicator nesting too deep for the context-id scheme"
        );
        let idx = distinct
            .iter()
            .position(|&c| c == color)
            .expect("own color present") as u16;
        let ctx = (parent_ctx << 4) | (idx + 1);
        let members: Vec<madsim_net::NodeId> = colors
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c == color)
            .map(|(r, _)| self.comm.node_of(r))
            .collect();
        Arc::new(Mpi {
            comm: Comm::with_context(Arc::clone(self.comm.channel_pub()), Some(&members), ctx),
            p2p: Arc::clone(&self.p2p),
        })
    }

    pub fn rank(&self) -> usize {
        self.comm.rank()
    }

    pub fn size(&self) -> usize {
        self.comm.size()
    }

    pub fn comm(&self) -> &Comm {
        &self.comm
    }

    /// Blocking standard-mode send.
    pub fn send(&self, dst_rank: usize, tag: i32, data: &[u8]) {
        self.p2p.send(&self.comm, dst_rank, tag, data);
    }

    /// Blocking receive; `None` selectors are MPI wildcards.
    pub fn recv(&self, src: Option<usize>, tag: Option<i32>, buf: &mut [u8]) -> Status {
        self.p2p.recv(&self.comm, src, tag, buf)
    }

    /// Nonblocking receive: post now, complete via
    /// [`Request::test`]/[`Request::wait`] or [`Mpi::waitall`].
    pub fn irecv<'a>(
        &self,
        src: Option<usize>,
        tag: Option<i32>,
        buf: &'a mut [u8],
    ) -> Request<'a> {
        Request::recv(src, tag, buf)
    }

    /// Nonblocking send: posts the message to the channel's progress
    /// engine and returns immediately, whatever the size or protocol —
    /// including BIP's long-message rendezvous, which completes inside a
    /// later [`test`](Self::test)/[`wait`](Self::wait) tick while the
    /// transfer overlaps local compute (see [`request`] module docs).
    pub fn isend(&self, dst_rank: usize, tag: i32, data: &[u8]) -> Request<'static> {
        let op = self.p2p.post_send(&self.comm, dst_rank, tag, data);
        Request::send_op(op, dst_rank, tag, data.len())
    }

    /// Nonblocking progress on a request.
    pub fn test(&self, req: &mut Request<'_>) -> Option<Status> {
        req.test(&self.comm, &self.p2p)
    }

    /// Block until a request completes.
    pub fn wait(&self, req: Request<'_>) -> Status {
        req.wait(&self.comm, &self.p2p)
    }

    /// Block until every request completes; statuses in request order.
    pub fn waitall(&self, reqs: Vec<Request<'_>>) -> Vec<Status> {
        request::waitall(&self.comm, &self.p2p, reqs)
    }

    /// Deadlock-safe pairwise exchange.
    pub fn sendrecv(
        &self,
        dst_rank: usize,
        send_tag: i32,
        data: &[u8],
        src: Option<usize>,
        recv_tag: Option<i32>,
        buf: &mut [u8],
    ) -> Status {
        self.p2p.sendrecv(&self.comm, dst_rank, send_tag, data, || {
            self.p2p.recv(&self.comm, src, recv_tag, buf)
        })
    }

    /// Nonblocking probe for a matching message (MPI_Iprobe).
    pub fn iprobe(&self, src: Option<usize>, tag: Option<i32>) -> Option<Status> {
        self.p2p.iprobe(&self.comm, src, tag)
    }

    /// Blocking probe (MPI_Probe): learn a pending message's envelope —
    /// typically its length, to size the receive buffer — without
    /// receiving it.
    pub fn probe(&self, src: Option<usize>, tag: Option<i32>) -> Status {
        self.p2p.probe(&self.comm, src, tag)
    }

    pub fn barrier(&self) {
        collectives::barrier(&self.comm, &self.p2p);
    }

    pub fn bcast(&self, root: usize, buf: &mut [u8]) {
        collectives::bcast(&self.comm, &self.p2p, root, buf);
    }

    pub fn reduce(&self, root: usize, op: ReduceOp, data: &[f64]) -> Option<Vec<f64>> {
        collectives::reduce(&self.comm, &self.p2p, root, op, data)
    }

    pub fn allreduce(&self, op: ReduceOp, data: &[f64]) -> Vec<f64> {
        collectives::allreduce(&self.comm, &self.p2p, op, data)
    }

    pub fn gather(&self, root: usize, data: &[u8]) -> Option<Vec<Vec<u8>>> {
        collectives::gather(&self.comm, &self.p2p, root, data)
    }

    pub fn alltoall(&self, blocks: &[Vec<u8>]) -> Vec<Vec<u8>> {
        collectives::alltoall(&self.comm, &self.p2p, blocks)
    }

    pub fn scatter(&self, root: usize, blocks: Option<&[Vec<u8>]>) -> Vec<u8> {
        collectives::scatter(&self.comm, &self.p2p, root, blocks)
    }

    pub fn allgather(&self, data: &[u8]) -> Vec<Vec<u8>> {
        collectives::allgather(&self.comm, &self.p2p, data)
    }

    /// Inclusive prefix reduction.
    pub fn scan(&self, op: ReduceOp, data: &[f64]) -> Vec<f64> {
        collectives::scan(&self.comm, &self.p2p, op, data)
    }

    /// Topology-aware broadcast: leader tree across clusters (one gateway
    /// crossing per remote cluster), binomial tree inside each cluster,
    /// large payloads chunk-pipelined through the nonblocking engine.
    pub fn bcast_hier(&self, topo: &Topology, root: usize, buf: &mut [u8]) {
        collectives::bcast_hier(&self.comm, &self.p2p, topo, root, buf);
    }

    /// Topology-aware allreduce (see [`collectives::allreduce_hier`] for
    /// the exactness conditions under which it is bit-identical to the
    /// flat algorithm).
    pub fn allreduce_hier(&self, topo: &Topology, op: ReduceOp, data: &[f64]) -> Vec<f64> {
        collectives::allreduce_hier(&self.comm, &self.p2p, topo, op, data)
    }

    /// Topology-aware gather: cluster-local gathers, then one message per
    /// remote cluster to `root`.
    pub fn gather_hier(&self, topo: &Topology, root: usize, data: &[u8]) -> Option<Vec<Vec<u8>>> {
        collectives::gather_hier(&self.comm, &self.p2p, topo, root, data)
    }
}
