//! Collective operations over the `ch_mad` device.
//!
//! Simple linear/binomial algorithms — enough to exercise the device with
//! realistic MPI workloads (the paper's port exposes the full MPICH
//! collective stack, which layers on the same point-to-point device).
//!
//! The `*_hier` variants are **topology-aware** (paper §6: clusters of
//! clusters joined by gateways). Given a [`Topology`] mapping ranks to
//! clusters, they run a two-level schedule: one binomial tree over the
//! per-cluster *leaders* — so the payload crosses a gateway exactly once
//! per remote cluster — and one binomial tree inside each cluster, which
//! never leaves the leaf network. The flat algorithms route every tree
//! edge independently, so on a two-cluster world roughly half the edges
//! of `bcast` re-cross the gateway; the hierarchical schedule pays the
//! slow inter-cluster hop `clusters - 1` times instead. Large payloads
//! are cut into chunks and pipelined through the nonblocking engine
//! ([`crate::request`]), so a tree node forwards chunk *k* while chunk
//! *k+1* is still in flight from its parent — and each in-flight chunk is
//! itself striped across the channel's rails by the Madeleine layer.

use crate::comm::Comm;
use crate::p2p::P2p;
use crate::request::{waitall, Request};
use madeleine::wire::{Reader, Writer};

/// Internal tag space (user tags must be non-negative, like in MPI).
const TAG_BARRIER: i32 = -1;
const TAG_BCAST: i32 = -2;
const TAG_REDUCE: i32 = -3;
const TAG_GATHER: i32 = -4;
const TAG_ALLTOALL: i32 = -5;
const TAG_SCATTER: i32 = -6;
const TAG_ALLGATHER: i32 = -7;
const TAG_SCAN: i32 = -8;
const TAG_HBCAST: i32 = -9;
const TAG_HREDUCE: i32 = -10;
const TAG_HGATHER: i32 = -11;
/// Inter-cluster (leader-to-leader) stage of every hierarchical collective.
const TAG_HLEADER: i32 = -12;

/// Payloads at or above this size are pipelined in chunks through the
/// nonblocking engine instead of moving as one message per tree edge.
const PIPELINE_THRESHOLD: usize = 64 << 10;
/// Chunk size of the pipeline (two chunks in flight already overlap the
/// store-and-forward latency of a tree level).
const PIPELINE_CHUNK: usize = 32 << 10;

/// Reduction operators over `f64`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReduceOp {
    Sum,
    Max,
    Min,
}

impl ReduceOp {
    pub(crate) fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Max => a.max(b),
            ReduceOp::Min => a.min(b),
        }
    }
}

/// An operand vector's wire form: its values back to back.
fn operands_to_wire(v: &[f64]) -> Vec<u8> {
    let mut w = Writer::new();
    for &x in v {
        w.put_f64(x);
    }
    w.into_vec()
}

/// The operands in `bytes`, as [`operands_to_wire`] wrote them.
fn operands_from_wire(bytes: &[u8]) -> impl Iterator<Item = f64> + '_ {
    let mut r = Reader::new(bytes);
    std::iter::from_fn(move || r.get_f64().ok())
}

/// Block until every rank has entered (linear fan-in to rank 0, fan-out).
pub fn barrier(comm: &Comm, p2p: &P2p) {
    let mut token = [0u8; 1];
    if comm.rank() == 0 {
        for r in 1..comm.size() {
            p2p.recv(comm, Some(r), Some(TAG_BARRIER), &mut token);
        }
        for r in 1..comm.size() {
            p2p.send(comm, r, TAG_BARRIER, &token);
        }
    } else {
        p2p.send(comm, 0, TAG_BARRIER, &token);
        p2p.recv(comm, Some(0), Some(TAG_BARRIER), &mut token);
    }
}

/// Broadcast `buf` from `root` to every rank (MPICH's binomial tree).
pub fn bcast(comm: &Comm, p2p: &P2p, root: usize, buf: &mut [u8]) {
    let size = comm.size();
    let me = (comm.rank() + size - root) % size; // virtual rank, root = 0
                                                 // Receive from the parent (the virtual rank with my lowest set bit
                                                 // cleared); the root falls through with mask = 2^ceil(log2 size).
    let mut mask = 1usize;
    while mask < size {
        if me & mask != 0 {
            let parent = (me ^ mask) + root;
            p2p.recv(comm, Some(parent % size), Some(TAG_BCAST), buf);
            break;
        }
        mask <<= 1;
    }
    // Forward to children: every bit position below where we received.
    mask >>= 1;
    while mask > 0 {
        let child = me | mask;
        if child != me && child < size {
            p2p.send(comm, (child + root) % size, TAG_BCAST, buf);
        }
        mask >>= 1;
    }
}

/// Element-wise reduction of `data` to `root`; returns the result there.
pub fn reduce(comm: &Comm, p2p: &P2p, root: usize, op: ReduceOp, data: &[f64]) -> Option<Vec<f64>> {
    if comm.rank() == root {
        let mut acc = data.to_vec();
        for r in 0..comm.size() {
            if r == root {
                continue;
            }
            let theirs = p2p.recv_vec(comm, Some(r), Some(TAG_REDUCE));
            for (a, v) in acc.iter_mut().zip(operands_from_wire(&theirs)) {
                *a = op.apply(*a, v);
            }
        }
        Some(acc)
    } else {
        p2p.send(comm, root, TAG_REDUCE, &operands_to_wire(data));
        None
    }
}

/// Reduction whose result lands on every rank.
pub fn allreduce(comm: &Comm, p2p: &P2p, op: ReduceOp, data: &[f64]) -> Vec<f64> {
    let reduced = reduce(comm, p2p, 0, op, data);
    let mut bytes = match reduced {
        Some(v) => operands_to_wire(&v),
        None => vec![0u8; data.len() * 8],
    };
    bcast(comm, p2p, 0, &mut bytes);
    operands_from_wire(&bytes).collect()
}

/// Gather every rank's block at `root` (rank order).
pub fn gather(comm: &Comm, p2p: &P2p, root: usize, data: &[u8]) -> Option<Vec<Vec<u8>>> {
    if comm.rank() == root {
        let mut out = vec![Vec::new(); comm.size()];
        out[root] = data.to_vec();
        for (r, slot) in out.iter_mut().enumerate() {
            if r == root {
                continue;
            }
            *slot = p2p.recv_vec(comm, Some(r), Some(TAG_GATHER));
        }
        Some(out)
    } else {
        p2p.send(comm, root, TAG_GATHER, data);
        None
    }
}

/// Personalized all-to-all exchange: `blocks[r]` goes to rank `r`; returns
/// the blocks received, indexed by source rank.
pub fn alltoall(comm: &Comm, p2p: &P2p, blocks: &[Vec<u8>]) -> Vec<Vec<u8>> {
    assert_eq!(blocks.len(), comm.size(), "one block per rank");
    let me = comm.rank();
    let size = comm.size();
    let mut out = vec![Vec::new(); size];
    out[me] = blocks[me].clone();
    // Pairwise exchange schedule (XOR pairing rounds for power-of-two
    // sizes; rank-ordered exchange otherwise).
    for round in 1..size.next_power_of_two() {
        let peer = me ^ round;
        if peer >= size {
            continue;
        }
        out[peer] = p2p.sendrecv(comm, peer, TAG_ALLTOALL, &blocks[peer], || {
            p2p.recv_vec(comm, Some(peer), Some(TAG_ALLTOALL))
        });
    }
    out
}

/// Scatter `blocks[r]` (present at `root`) to every rank `r`; returns this
/// rank's block.
pub fn scatter(comm: &Comm, p2p: &P2p, root: usize, blocks: Option<&[Vec<u8>]>) -> Vec<u8> {
    if comm.rank() == root {
        let blocks = blocks.expect("root provides the blocks");
        assert_eq!(blocks.len(), comm.size(), "one block per rank");
        for (r, b) in blocks.iter().enumerate() {
            if r != root {
                p2p.send(comm, r, TAG_SCATTER, b);
            }
        }
        blocks[root].clone()
    } else {
        p2p.recv_vec(comm, Some(root), Some(TAG_SCATTER))
    }
}

/// Every rank contributes a block; every rank receives all blocks, indexed
/// by source rank (ring algorithm).
pub fn allgather(comm: &Comm, p2p: &P2p, data: &[u8]) -> Vec<Vec<u8>> {
    let size = comm.size();
    let me = comm.rank();
    let mut out = vec![Vec::new(); size];
    out[me] = data.to_vec();
    if size == 1 {
        return out;
    }
    let right = (me + 1) % size;
    let left = (me + size - 1) % size;
    // Ring: in step s, pass along the block originally from (me - s).
    for s in 0..size - 1 {
        let send_idx = (me + size - s) % size;
        let recv_idx = (me + size - s - 1) % size;
        out[recv_idx] = p2p.sendrecv(comm, right, TAG_ALLGATHER, &out[send_idx], || {
            p2p.recv_vec(comm, Some(left), Some(TAG_ALLGATHER))
        });
    }
    out
}

/// Rank-to-cluster map driving the topology-aware collectives.
///
/// Rank `r` lives in cluster `cluster_of[r]`. Cluster ids must be dense
/// (every id in `0..clusters()` has at least one member). The map is a
/// piece of shared configuration: every rank constructs the same
/// `Topology`, so leader election and tree shapes agree without any wire
/// traffic — the same symmetric-function discipline the Madeleine layer
/// uses for transfer-method selection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Topology {
    cluster_of: Vec<usize>,
}

impl Topology {
    /// Build from an explicit rank → cluster map.
    ///
    /// # Panics
    /// Panics if the map is empty or a cluster id in `0..max` is unused.
    pub fn new(cluster_of: Vec<usize>) -> Topology {
        assert!(
            !cluster_of.is_empty(),
            "topology must cover at least one rank"
        );
        let clusters = cluster_of.iter().max().expect("non-empty") + 1;
        for c in 0..clusters {
            assert!(
                cluster_of.contains(&c),
                "cluster {c} has no members (ids must be dense)"
            );
        }
        Topology { cluster_of }
    }

    /// Single-cluster topology: the hierarchical collectives degenerate to
    /// their flat binomial forms.
    pub fn flat(size: usize) -> Topology {
        Topology::new(vec![0; size])
    }

    /// Two clusters split at `boundary`: ranks `0..boundary` form cluster
    /// 0, ranks `boundary..size` cluster 1 — the canonical bridged world.
    pub fn split_at(size: usize, boundary: usize) -> Topology {
        assert!(
            boundary > 0 && boundary < size,
            "both clusters need members"
        );
        Topology::new((0..size).map(|r| usize::from(r >= boundary)).collect())
    }

    /// Number of clusters.
    pub fn clusters(&self) -> usize {
        self.cluster_of.iter().max().expect("non-empty") + 1
    }

    /// Number of ranks covered by the map.
    pub fn size(&self) -> usize {
        self.cluster_of.len()
    }

    /// Cluster of `rank`.
    pub fn cluster(&self, rank: usize) -> usize {
        self.cluster_of[rank]
    }

    /// Ranks of `cluster`, ascending.
    pub fn members_of(&self, cluster: usize) -> Vec<usize> {
        (0..self.size())
            .filter(|&r| self.cluster_of[r] == cluster)
            .collect()
    }

    /// One leader per cluster, indexed by cluster id: `root` in its own
    /// cluster (so the root never relays through another rank), the
    /// lowest rank elsewhere.
    fn leaders(&self, root: usize) -> Vec<usize> {
        (0..self.clusters())
            .map(|c| {
                if c == self.cluster(root) {
                    root
                } else {
                    *self.members_of(c).first().expect("dense cluster ids")
                }
            })
            .collect()
    }

    fn check(&self, comm_size: usize) {
        assert_eq!(
            self.size(),
            comm_size,
            "topology covers {} ranks but the communicator has {comm_size}",
            self.size()
        );
    }
}

/// Chunk spans of a payload: one span below the pipelining threshold,
/// fixed-size chunks above it.
fn chunk_spans(len: usize) -> Vec<(usize, usize)> {
    if len < PIPELINE_THRESHOLD {
        return vec![(0, len)];
    }
    (0..len)
        .step_by(PIPELINE_CHUNK)
        .map(|off| (off, PIPELINE_CHUNK.min(len - off)))
        .collect()
}

/// Binomial-tree plan for virtual rank `vme` of `n`: the virtual parent
/// (none at the root) and virtual children, in send order.
fn tree_plan(n: usize, vme: usize) -> (Option<usize>, Vec<usize>) {
    let mut mask = 1usize;
    let mut parent = None;
    while mask < n {
        if vme & mask != 0 {
            parent = Some(vme ^ mask);
            break;
        }
        mask <<= 1;
    }
    let mut children = Vec::new();
    let mut m = mask >> 1;
    while m > 0 {
        let child = vme | m;
        if child != vme && child < n {
            children.push(child);
        }
        m >>= 1;
    }
    (parent, children)
}

/// Pipelined binomial bcast over the ranks of `ranks` (no-op for ranks
/// outside the slice), rooted at position `root_pos`. Each chunk is
/// forwarded to the children as soon as it lands, through the nonblocking
/// engine, so chunks stream down the tree instead of store-and-forwarding
/// whole payloads level by level.
fn tree_bcast(comm: &Comm, p2p: &P2p, ranks: &[usize], root_pos: usize, tag: i32, buf: &mut [u8]) {
    let n = ranks.len();
    if n <= 1 {
        return;
    }
    let Some(me_pos) = ranks.iter().position(|&r| r == comm.rank()) else {
        return;
    };
    let vme = (me_pos + n - root_pos) % n;
    let (vparent, vchildren) = tree_plan(n, vme);
    let to_rank = |v: usize| ranks[(v + root_pos) % n];
    let spans = chunk_spans(buf.len());
    let mut reqs: Vec<Request<'_>> = Vec::new();
    for &(off, len) in &spans {
        if let Some(p) = vparent {
            p2p.recv(comm, Some(to_rank(p)), Some(tag), &mut buf[off..off + len]);
        }
        for &c in &vchildren {
            let dst = to_rank(c);
            let op = p2p.post_send(comm, dst, tag, &buf[off..off + len]);
            reqs.push(Request::send_op(op, dst, tag, len));
        }
    }
    waitall(comm, p2p, reqs);
}

/// Binomial fan-in reduction over the ranks of `ranks`, rooted at position
/// `root_pos`; returns the reduced vector at the root, `None` elsewhere
/// (and on ranks outside the slice).
fn tree_reduce(
    comm: &Comm,
    p2p: &P2p,
    ranks: &[usize],
    root_pos: usize,
    tag: i32,
    op: ReduceOp,
    data: &[f64],
) -> Option<Vec<f64>> {
    let n = ranks.len();
    let me_pos = ranks.iter().position(|&r| r == comm.rank())?;
    let vme = (me_pos + n - root_pos) % n;
    let to_rank = |v: usize| ranks[(v + root_pos) % n];
    let mut acc = data.to_vec();
    let mut mask = 1usize;
    while mask < n {
        if vme & mask != 0 {
            p2p.send(comm, to_rank(vme ^ mask), tag, &operands_to_wire(&acc));
            return None;
        }
        let child = vme | mask;
        if child < n {
            let theirs = p2p.recv_vec(comm, Some(to_rank(child)), Some(tag));
            for (a, v) in acc.iter_mut().zip(operands_from_wire(&theirs)) {
                *a = op.apply(*a, v);
            }
        }
        mask <<= 1;
    }
    Some(acc)
}

/// Topology-aware broadcast: one binomial tree over the cluster leaders
/// (each edge crosses a gateway exactly once), then a binomial tree inside
/// each cluster that never leaves the leaf network.
pub fn bcast_hier(comm: &Comm, p2p: &P2p, topo: &Topology, root: usize, buf: &mut [u8]) {
    topo.check(comm.size());
    let me = comm.rank();
    let leaders = topo.leaders(root);
    let root_pos = topo.cluster(root);
    tree_bcast(comm, p2p, &leaders, root_pos, TAG_HLEADER, buf);
    let members = topo.members_of(topo.cluster(me));
    let leader = leaders[topo.cluster(me)];
    let leader_pos = members
        .iter()
        .position(|&r| r == leader)
        .expect("leader is a cluster member");
    tree_bcast(comm, p2p, &members, leader_pos, TAG_HBCAST, buf);
}

/// Topology-aware allreduce: binomial fan-in to each cluster leader, an
/// allreduce over the leader set (one gateway crossing per edge), then a
/// binomial bcast back down inside each cluster. Exact (bit-identical to
/// the flat algorithm) whenever the operator is order-insensitive on the
/// inputs — Max/Min always, Sum when the values and partial sums are
/// exactly representable (e.g. integer-valued `f64` below 2^53).
pub fn allreduce_hier(
    comm: &Comm,
    p2p: &P2p,
    topo: &Topology,
    op: ReduceOp,
    data: &[f64],
) -> Vec<f64> {
    topo.check(comm.size());
    let me = comm.rank();
    let leaders = topo.leaders(0);
    let my_cluster = topo.cluster(me);
    let members = topo.members_of(my_cluster);
    let leader = leaders[my_cluster];
    let leader_pos = members
        .iter()
        .position(|&r| r == leader)
        .expect("leader is a cluster member");
    let reduced = tree_reduce(comm, p2p, &members, leader_pos, TAG_HREDUCE, op, data);
    let mut bytes = match reduced {
        Some(acc) => {
            // This rank is its cluster's leader: allreduce over the leader
            // set (fan-in to the root cluster's leader, bcast back out).
            let inter = tree_reduce(comm, p2p, &leaders, 0, TAG_HLEADER, op, &acc);
            let mut b = match inter {
                Some(v) => operands_to_wire(&v),
                None => vec![0u8; data.len() * 8],
            };
            tree_bcast(comm, p2p, &leaders, 0, TAG_HLEADER, &mut b);
            b
        }
        None => vec![0u8; data.len() * 8],
    };
    tree_bcast(comm, p2p, &members, leader_pos, TAG_HBCAST, &mut bytes);
    operands_from_wire(&bytes).collect()
}

/// Topology-aware gather: every cluster gathers at its leader, then each
/// remote leader ships its cluster's blocks to `root` as **one** message —
/// one gateway crossing per remote cluster, versus one per remote rank in
/// the flat algorithm. Blocks are length-prefixed inside the leader
/// message so ragged contributions survive the concatenation.
pub fn gather_hier(
    comm: &Comm,
    p2p: &P2p,
    topo: &Topology,
    root: usize,
    data: &[u8],
) -> Option<Vec<Vec<u8>>> {
    topo.check(comm.size());
    let me = comm.rank();
    let leaders = topo.leaders(root);
    let my_cluster = topo.cluster(me);
    let members = topo.members_of(my_cluster);
    let leader = leaders[my_cluster];
    if me != leader {
        p2p.send(comm, leader, TAG_HGATHER, data);
        return None;
    }
    // Leader: collect the cluster's blocks in member order.
    let mut blocks: Vec<Vec<u8>> = Vec::with_capacity(members.len());
    for &r in &members {
        if r == me {
            blocks.push(data.to_vec());
        } else {
            blocks.push(p2p.recv_vec(comm, Some(r), Some(TAG_HGATHER)));
        }
    }
    if me != root {
        let mut packed = Writer::new();
        for b in &blocks {
            packed.put_bytes(b);
        }
        p2p.send(comm, root, TAG_HLEADER, packed.as_slice());
        return None;
    }
    // Root: place the local cluster, then unpack one message per remote
    // leader into its cluster's rank slots.
    let mut out = vec![Vec::new(); comm.size()];
    for (b, &r) in blocks.into_iter().zip(&members) {
        out[r] = b;
    }
    for (c, &l) in leaders.iter().enumerate() {
        if c == my_cluster {
            continue;
        }
        let packed = p2p.recv_vec(comm, Some(l), Some(TAG_HLEADER));
        let mut leader_msg = Reader::new(&packed);
        for &r in &topo.members_of(c) {
            out[r] = leader_msg
                .get_bytes()
                .expect("one block per member")
                .to_vec();
        }
        assert!(leader_msg.is_empty(), "leader message fully consumed");
    }
    Some(out)
}

/// Inclusive prefix reduction: rank r receives op(data_0, ..., data_r),
/// element-wise (linear chain).
pub fn scan(comm: &Comm, p2p: &P2p, op: ReduceOp, data: &[f64]) -> Vec<f64> {
    let me = comm.rank();
    let mut acc = data.to_vec();
    if me > 0 {
        let theirs = p2p.recv_vec(comm, Some(me - 1), Some(TAG_SCAN));
        for (a, v) in acc.iter_mut().zip(operands_from_wire(&theirs)) {
            *a = op.apply(v, *a);
        }
    }
    if me + 1 < comm.size() {
        p2p.send(comm, me + 1, TAG_SCAN, &operands_to_wire(&acc));
    }
    acc
}
