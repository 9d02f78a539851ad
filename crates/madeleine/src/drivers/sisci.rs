//! The SISCI protocol module (paper §5.2.1).
//!
//! Three transmission modules over Dolphin SCI's remote-mapped segments:
//!
//! * **short TM** (blocks ≤ 512 B) — a small low-latency PIO ring; this is
//!   where the paper's 3.9 µs minimal latency comes from;
//! * **regular PIO TM** — bulk PIO writes with the **adaptive
//!   dual-buffering** algorithm: transfers up to 8 kB go out in a single
//!   shot, larger ones are pipelined in 8 kB chunks through a two-chunk
//!   ring so the sender's PIO overlaps the receiver's copy-out (the
//!   visible kink of Fig. 4);
//! * **DMA TM** — implemented but **disabled by default**, exactly as in
//!   the paper ("we have not been able to get more than 35 MB/s with
//!   Dolphin SCI D310 NICs"); enable it with `Config::with_sci_dma` for
//!   the ablation benchmark.
//!
//! ### Wire discipline
//!
//! Each TM drives a **byte-stream ring** per direction: the sender PIOs
//! chunks into ring positions `stream_pos % ring` and publishes a flag
//! carrying the total bytes written; the receiver copies out at its own
//! position and publishes consumed-byte acks. Framing is entirely
//! positional — Madeleine messages are not self-described, and the stream
//! never needs padding or alignment between commits, so small blocks from
//! consecutive packs (including the internal message header) coalesce into
//! a single PIO write.
//!
//! For each ordered pair X→Y there is one segment owned (and polled) by Y
//! and mapped (and written) by X. It carries X's rings for X→Y *plus* X's
//! ack flags for the reverse direction Y→X (acks must live in a segment
//! their reader polls locally — remote SCI reads are prohibitively slow).

use crate::bmm::SendPolicy;
use crate::error::{MadError, MadResult};
use crate::flags::{RecvMode, SendMode};
use crate::pmm::Pmm;
use crate::stats::Stats;
use crate::tm::{TmCaps, TmId, TransmissionModule};
use crate::trace::Tracer;
use madsim_net::stacks::sisci::{LocalSegment, RemoteSegment, Sisci};
use madsim_net::time::{self, VDuration, VTime};
use madsim_net::world::Adapter;
use madsim_net::{LinkError, NodeId};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Largest block carried by the short TM.
pub const SHORT_LIMIT: usize = 512;
/// Short ring: 8 × 512 B.
const SHORT_RING: usize = 4096;
const SHORT_CHUNK: usize = 512;
/// Bulk ring: 4 × 8 kB (two dual-buffer pairs: one being written, one
/// being drained, with slack so ring acks do not resonate with consumers
/// that batch reads, e.g. a forwarding gateway).
pub const CHUNK_SIZE: usize = 8192;
const DATA_RING: usize = 4 * CHUNK_SIZE;
/// DMA ring: one 16 kB chunk, stop-and-wait (the engine is slow anyway).
const DMA_CHUNK: usize = 16384;
const DMA_RING: usize = DMA_CHUNK;

/// Fixed cost of arming the dual-buffering pipeline for a bulk transfer.
const DUALBUF_SETUP_US: f64 = 20.0;

/// Flag polls granted to a wait *inside* a transfer (the sender's for ring
/// space, the receiver's for the rest of a block it has begun to read),
/// where the peer is known to be streaming: about one park + wake-up long.
/// A wait with no such evidence (a block's first flag) parks at once.
const STREAM_POLLS: u32 = 400;

// Segment layout offsets.
const OFF_SHORT: usize = 0;
const OFF_SHORT_FLAG: usize = OFF_SHORT + SHORT_RING; // 4096
const OFF_SHORT_ACK: usize = OFF_SHORT_FLAG + 4;
const OFF_DATA_FLAG: usize = OFF_SHORT_ACK + 4;
const OFF_DATA_ACK: usize = OFF_DATA_FLAG + 4;
const OFF_DMA_FLAG: usize = OFF_DATA_ACK + 4;
const OFF_DMA_ACK: usize = OFF_DMA_FLAG + 4;
const OFF_DATA: usize = 4128;
const OFF_DMA: usize = OFF_DATA + DATA_RING;
const SEG_SIZE: usize = OFF_DMA + DMA_RING;

fn seg_id(channel_id: u32, from: NodeId) -> u32 {
    assert!(from < 256, "SISCI driver assumes node ids < 256");
    (channel_id << 8) | from as u32
}

/// Sender-side position of one stream.
struct SendStream {
    /// Total bytes written to the stream since session start.
    pos: u32,
    /// Highest consumed-bytes ack observed.
    acked: u32,
}

/// Receiver-side position of one stream.
struct RecvStream {
    /// Total bytes consumed.
    pos: u32,
    /// Highest written-bytes flag observed.
    known: u32,
    /// Last consumed position acknowledged to the sender.
    acked: u32,
}

type Links = Arc<HashMap<NodeId, Arc<PeerLink>>>;

/// Everything one node holds about one peer on one SISCI channel.
struct PeerLink {
    /// Owned by us; the peer writes its data (peer→me) and its acks here.
    local: LocalSegment,
    /// Owned by the peer; we write our data (me→peer) and our acks here.
    remote: RemoteSegment,
    streams: [StreamPair; 3],
    peer: NodeId,
}

struct StreamPair {
    send: Mutex<SendStream>,
    recv: Mutex<RecvStream>,
}

impl StreamPair {
    fn new() -> Self {
        StreamPair {
            send: Mutex::new(SendStream { pos: 0, acked: 0 }),
            recv: Mutex::new(RecvStream {
                pos: 0,
                known: 0,
                acked: 0,
            }),
        }
    }
}

/// Geometry of one stream within the segment.
#[derive(Clone, Copy)]
struct StreamGeom {
    index: usize,
    data_off: usize,
    ring: usize,
    /// Largest single PIO/DMA write; bounds the pipelining granularity.
    chunk: usize,
    flag_off: usize,
    ack_off: usize,
    /// True for the DMA engine, false for PIO.
    dma: bool,
}

const SHORT_GEOM: StreamGeom = StreamGeom {
    index: 0,
    data_off: OFF_SHORT,
    ring: SHORT_RING,
    chunk: SHORT_CHUNK,
    flag_off: OFF_SHORT_FLAG,
    ack_off: OFF_SHORT_ACK,
    dma: false,
};

const DATA_GEOM: StreamGeom = StreamGeom {
    index: 1,
    data_off: OFF_DATA,
    ring: DATA_RING,
    chunk: CHUNK_SIZE,
    flag_off: OFF_DATA_FLAG,
    ack_off: OFF_DATA_ACK,
    dma: false,
};

const DMA_GEOM: StreamGeom = StreamGeom {
    index: 2,
    data_off: OFF_DMA,
    ring: DMA_RING,
    chunk: DMA_CHUNK,
    flag_off: OFF_DMA_FLAG,
    ack_off: OFF_DMA_ACK,
    dma: true,
};

/// Largest ack the receiver may withhold without ever starving a sender
/// that needs room for one full chunk: `batch <= ring - chunk + 1`.
fn ack_batch(geom: StreamGeom) -> u32 {
    ((geom.ring - geom.chunk + 1).min(geom.ring / 4).max(1)) as u32
}

fn checked_add(pos: u32, n: usize, what: &str) -> u32 {
    pos.checked_add(n as u32)
        .unwrap_or_else(|| panic!("SISCI {what} stream exceeded 4 GiB (u32 flag wrap)"))
}

impl PeerLink {
    /// Wait until the peer's flag at `off` reaches `val`, polling it
    /// `polls` times before parking. Unbounded on a clean world; the link's
    /// bounded wait when faults are armed (a dead peer or a silent one).
    fn wait_flag(&self, off: usize, val: u32, polls: u32) -> Result<u32, LinkError> {
        let hit = self.local.try_wait_flag_ge(self.peer, off, val, polls)?;
        Ok(hit.0)
    }

    /// Stream a commit-group of blocks to the peer through `geom`, in
    /// chunks cut from the group's concatenation.
    fn send_group(&self, geom: StreamGeom, bufs: &[&[u8]]) -> Result<(), LinkError> {
        let mut st = self.streams[geom.index].send.lock();
        let write_chunk = |st: &mut SendStream, chunk: &[u8]| -> Result<(), LinkError> {
            let end = checked_add(st.pos, chunk.len(), "send");
            // Flow control: the chunk's last byte must fit in the ring
            // window beyond the receiver's consumed position.
            if end > st.acked.saturating_add(geom.ring as u32) {
                let need = end - geom.ring as u32;
                st.acked = self.wait_flag(geom.ack_off, need, STREAM_POLLS)?;
            }
            // Streams are byte-granular, so a chunk may straddle the ring
            // wrap: split it into at most two writes.
            let mut written = 0usize;
            let mut vis = VTime::ZERO;
            while written < chunk.len() {
                let ring_off = (st.pos as usize + written) % geom.ring;
                let span = (geom.ring - ring_off).min(chunk.len() - written);
                let off = geom.data_off + ring_off;
                let part = &chunk[written..written + span];
                let w = if geom.dma {
                    let done = self.remote.dma_write(off, part);
                    time::advance_to(done);
                    done
                } else {
                    self.remote.write(off, part)
                };
                vis = vis.max(w);
                written += span;
            }
            st.pos = end;
            self.remote.write_flag(geom.flag_off, st.pos, vis);
            Ok(())
        };
        // A chunk that lies inside one block is written straight from it;
        // only one that spans blocks is gathered first (the CPU's
        // write-combining gather, not a user-visible copy).
        let mut left: usize = bufs.iter().map(|b| b.len()).sum();
        let mut stage = Vec::new();
        for b in bufs {
            let mut rest: &[u8] = b;
            while !rest.is_empty() {
                let chunk = geom.chunk.min(left);
                if stage.is_empty() && rest.len() >= chunk {
                    write_chunk(&mut st, &rest[..chunk])?;
                    rest = &rest[chunk..];
                } else {
                    let take = rest.len().min(chunk - stage.len());
                    stage.reserve_exact(chunk - stage.len());
                    stage.extend_from_slice(&rest[..take]);
                    rest = &rest[take..];
                    if stage.len() < chunk {
                        continue;
                    }
                    write_chunk(&mut st, &stage)?;
                    stage.clear();
                }
                left -= chunk;
            }
        }
        Ok(())
    }

    /// Read `dst.len()` bytes of the peer's stream through `geom`.
    fn read_stream(&self, geom: StreamGeom, dst: &mut [u8]) -> Result<(), LinkError> {
        if dst.is_empty() {
            return Ok(());
        }
        let mut st = self.streams[geom.index].recv.lock();
        let mut filled = 0usize;
        while filled < dst.len() {
            if st.known == st.pos {
                // Bytes of this block already read: the sender is streaming.
                let polls = if filled > 0 { STREAM_POLLS } else { 0 };
                st.known = self.wait_flag(geom.flag_off, st.pos + 1, polls)?;
            }
            let avail = (st.known - st.pos) as usize;
            let ring_left = geom.ring - (st.pos as usize % geom.ring);
            let take = avail.min(ring_left).min(dst.len() - filled);
            let off = geom.data_off + (st.pos as usize % geom.ring);
            self.local.read(off, &mut dst[filled..filled + take]);
            st.pos = checked_add(st.pos, take, "recv");
            filled += take;
            // Acknowledge consumption so the sender's ring frees up.
            // Acks are batched (each is a remote PIO write): the batch is
            // sized so a sender needing `chunk` bytes of ring space can
            // never be starved by a withheld ack.
            let batch = ack_batch(geom);
            if st.pos - st.acked >= batch {
                st.acked = st.pos;
                self.remote.write_flag(geom.ack_off, st.pos, VTime::ZERO);
            }
        }
        Ok(())
    }

    /// Is unconsumed data pending on this stream? (No clock effects.)
    fn probe(&self, geom: StreamGeom) -> bool {
        let st = self.streams[geom.index].recv.lock();
        self.local.probe_flag_ge(geom.flag_off, st.pos + 1)
    }
}

/// One link per peer on the channel. Collective across the channel's
/// members: creates all local segments, then connects to every peer's.
fn connect_links(sisci: &Sisci, adapter: &Adapter, channel_id: u32) -> Links {
    let me = sisci.node();
    let peers: Vec<NodeId> = adapter
        .peers()
        .iter()
        .copied()
        .filter(|&p| p != me)
        .collect();
    // Create every local segment before connecting anywhere, so concurrent
    // initialization across nodes cannot deadlock.
    let mut locals: HashMap<NodeId, LocalSegment> = peers
        .iter()
        .map(|&p| (p, sisci.create_segment(seg_id(channel_id, p), SEG_SIZE)))
        .collect();
    let links = peers.iter().map(|&p| {
        let remote = sisci.connect(p, seg_id(channel_id, me));
        let local = locals.remove(&p).expect("created above");
        let link = PeerLink {
            local,
            remote,
            streams: [StreamPair::new(), StreamPair::new(), StreamPair::new()],
            peer: p,
        };
        (p, Arc::new(link))
    });
    Arc::new(links.collect())
}

/// Build the SISCI PMM for one channel (collective, see [`connect_links`]).
pub fn build(
    adapter: &Adapter,
    channel_id: u32,
    enable_dma: bool,
    stats: Arc<Stats>,
    tracer: Arc<Tracer>,
) -> Arc<dyn Pmm> {
    let sisci = Sisci::new(adapter);
    let links = connect_links(&sisci, adapter, channel_id);
    let short: Arc<dyn TransmissionModule> = Arc::new(SisciStreamTm {
        name: "sisci/short-pio",
        geom: SHORT_GEOM,
        links: Arc::clone(&links),
        setup_above: None,
        stats: Arc::clone(&stats),
        tracer: Arc::clone(&tracer),
    });
    let regular: Arc<dyn TransmissionModule> = Arc::new(SisciStreamTm {
        name: "sisci/regular-pio",
        geom: DATA_GEOM,
        links: Arc::clone(&links),
        setup_above: Some((CHUNK_SIZE, VDuration::from_micros_f64(DUALBUF_SETUP_US))),
        stats: Arc::clone(&stats),
        tracer: Arc::clone(&tracer),
    });
    let dma: Arc<dyn TransmissionModule> = Arc::new(SisciStreamTm {
        name: "sisci/dma",
        geom: DMA_GEOM,
        links: Arc::clone(&links),
        setup_above: None,
        stats,
        tracer,
    });
    Arc::new(SisciPmm {
        links,
        tms: [short, regular, dma],
        enable_dma,
    })
}

struct SisciPmm {
    links: Links,
    tms: [Arc<dyn TransmissionModule>; 3],
    enable_dma: bool,
}

impl Pmm for SisciPmm {
    fn name(&self) -> &'static str {
        "sisci"
    }

    fn tms(&self) -> &[Arc<dyn TransmissionModule>] {
        &self.tms
    }

    fn select(&self, len: usize, _s: SendMode, _r: RecvMode) -> TmId {
        if len <= SHORT_LIMIT {
            0
        } else if self.enable_dma && len > CHUNK_SIZE {
            2
        } else {
            1
        }
    }

    fn policy(&self, _id: TmId) -> SendPolicy {
        SendPolicy::Aggregate
    }

    fn poll_incoming(&self) -> Option<NodeId> {
        // Every message opens with its ≤512 B header, so the short stream
        // of the sender's link always announces it.
        self.links
            .iter()
            .find(|(_, link)| link.probe(SHORT_GEOM))
            .map(|(&peer, _)| peer)
    }
}

/// One SISCI stream TM (all three transfer methods share the discipline;
/// geometry and engine differ).
struct SisciStreamTm {
    name: &'static str,
    geom: StreamGeom,
    links: Links,
    /// `(threshold, cost)`: charge `cost` when a group exceeds `threshold`
    /// (the dual-buffering pipeline arm cost of the regular TM).
    setup_above: Option<(usize, VDuration)>,
    stats: Arc<Stats>,
    tracer: Arc<Tracer>,
}

impl SisciStreamTm {
    fn link(&self, peer: NodeId) -> &Arc<PeerLink> {
        self.links
            .get(&peer)
            .unwrap_or_else(|| panic!("no SISCI link to node {peer}"))
    }
}

impl TransmissionModule for SisciStreamTm {
    fn name(&self) -> &'static str {
        self.name
    }

    fn caps(&self) -> TmCaps {
        TmCaps {
            static_buffers: false,
            buffer_cap: usize::MAX,
            gather: true,
        }
    }

    fn send_buffer(&self, dst: NodeId, data: &[u8]) -> MadResult<()> {
        self.send_buffer_group(dst, &[data])
    }

    fn send_buffer_group(&self, dst: NodeId, bufs: &[&[u8]]) -> MadResult<()> {
        let total: usize = bufs.iter().map(|b| b.len()).sum();
        if total == 0 {
            return Ok(());
        }
        if let Some((threshold, cost)) = self.setup_above {
            if total > threshold {
                time::advance(cost);
            }
        }
        self.link(dst)
            .send_group(self.geom, bufs)
            .map_err(MadError::from_link(dst, &self.stats, &self.tracer))
    }

    fn send_gather(&self, dst: NodeId, bufs: &[&[u8]]) -> MadResult<()> {
        // Native gather: blocks stream back-to-back into the PIO ring.
        self.send_buffer_group(dst, bufs)
    }

    fn receive_buffer(&self, src: NodeId, dst: &mut [u8]) -> MadResult<()> {
        self.link(src)
            .read_stream(self.geom, dst)
            .map_err(MadError::from_link(src, &self.stats, &self.tracer))
    }

    fn receive_sub_buffer_group(&self, src: NodeId, dsts: &mut [&mut [u8]]) -> MadResult<()> {
        let link = self.link(src);
        let lift = MadError::from_link(src, &self.stats, &self.tracer);
        for d in dsts.iter_mut() {
            link.read_stream(self.geom, d).map_err(&lift)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use madsim_net::{FaultPlan, NetKind, NodeEnv, WorldBuilder};
    use std::sync::OnceLock;
    use std::time::{Duration, Instant};

    fn sci_world(nodes: usize, plan: Option<FaultPlan>) -> madsim_net::World {
        let mut b = WorldBuilder::new(nodes);
        if let Some(plan) = plan {
            b = b.fault_plan(plan);
        }
        let members: Vec<NodeId> = (0..nodes).collect();
        b.network("sci0", NetKind::Sci, &members);
        b.build()
    }

    /// Every link of this node (dropping one unregisters its segment, so
    /// they are kept together until all nodes are done).
    fn links_of(env: &NodeEnv) -> Links {
        let adapter = env.adapter_named("sci0").expect("member");
        connect_links(&Sisci::new(adapter), adapter, 0)
    }

    fn pattern(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i * 13 + 5) as u8).collect()
    }

    /// Eight node threads on however few cores there are, four streams at
    /// once: every wait that polls must hand the CPU to the peer it waits
    /// for, or the streams starve each other. Polls stay within the grant.
    #[test]
    fn four_oversubscribed_pairs_stream_within_their_poll_grant() {
        const LEN: usize = 256 << 10;
        let seen = sci_world(8, None).run(|env| {
            let links = links_of(&env);
            let link = &links[&(env.id() ^ 1)];
            if env.id() % 2 == 0 {
                let data = pattern(LEN);
                link.send_group(DATA_GEOM, &[&data]).expect("clean world");
            } else {
                let mut got = vec![0u8; LEN];
                link.read_stream(DATA_GEOM, &mut got).expect("clean world");
                assert!(got == pattern(LEN), "stream corrupted");
            }
            env.barrier(); // segments outlive every peer's last write
            link.local.flag_wait_stats()
        });
        for (node, cost) in seen.into_iter().enumerate() {
            let granted = STREAM_POLLS as u64 * cost.waits;
            assert!(cost.polls <= granted, "node {node}: {cost:?}");
        }
    }

    /// A short ping-pong only ever waits for a block's first flag (no
    /// evidence the peer is sending: park at once) or for ring space its
    /// peer freed before replying (satisfied on the first look).
    #[test]
    fn short_ping_pongs_never_poll() {
        let seen = sci_world(2, None).run(|env| {
            let links = links_of(&env);
            let link = &links[&(1 - env.id())];
            let mut buf = [0u8; 64];
            for round in 0..200 {
                for turn in 0..2 {
                    if turn == env.id() {
                        link.send_group(SHORT_GEOM, &[&[round as u8; 64]])
                            .expect("clean world");
                    } else {
                        link.read_stream(SHORT_GEOM, &mut buf).expect("clean world");
                        assert_eq!(buf, [round as u8; 64]);
                    }
                }
            }
            env.barrier();
            link.local.flag_wait_stats()
        });
        for cost in seen {
            assert_eq!(cost.polls, 0, "{cost:?}");
        }
    }

    /// Node 0 streams 256 KiB at node 1, which reads `consumed` bytes of it
    /// and stops. `dies` crashes itself once the *other* node has polled
    /// out its grant and is parking inside the transfer; that node's wait
    /// must then end in `PeerDead` at the fault timer, not hang.
    fn death_mid_transfer(dies: NodeId, consumed: usize) {
        const LEN: usize = 256 << 10;
        let all: [OnceLock<Links>; 2] = [OnceLock::new(), OnceLock::new()];
        sci_world(2, Some(FaultPlan::new(18))).run(|env| {
            let me = env.id();
            let link = &all[me].get_or_init(|| links_of(&env))[&(1 - me)];
            env.barrier();
            let started = Instant::now();
            let mut got = vec![0u8; if me == dies { consumed } else { LEN }];
            let r = if me == 0 {
                let sent = if me == dies { consumed } else { LEN };
                link.send_group(DATA_GEOM, &[&pattern(LEN)[..sent]])
            } else {
                link.read_stream(DATA_GEOM, &mut got)
            };
            if me == dies {
                r.expect("the peer is alive");
                let other = &all[1 - me].get().expect("set before the barrier")[&me];
                while other.local.flag_wait_stats().polls < STREAM_POLLS as u64 {
                    std::thread::yield_now();
                }
                env.faults().expect("fault-armed world").crash(me);
            } else {
                let took = started.elapsed();
                let intact = me == 0 || got[..consumed] == pattern(LEN)[..consumed];
                assert_eq!((r, intact), (Err(LinkError::PeerDead), true));
                assert!(took < Duration::from_millis(500), "took {took:?}");
            }
        });
    }

    #[test]
    fn sender_death_ends_the_receivers_mid_block_wait() {
        // Five chunks through the four-chunk ring: the sender's last write
        // waits for the receiver's first ack, so the receiver is inside
        // the block by the time the sender is done.
        death_mid_transfer(0, 40 << 10);
    }

    #[test]
    fn receiver_death_ends_the_senders_ring_space_wait() {
        death_mid_transfer(1, 8 << 10);
    }
}
