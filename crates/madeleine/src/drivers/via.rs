//! The VIA protocol module.
//!
//! One transmission module over per-peer Virtual Interfaces. VIA imposes
//! two disciplines that shape the TM:
//!
//! * data travels in **registered buffers**, so the TM runs the StaticCopy
//!   policy over a pool of descriptor-sized buffers;
//! * receive descriptors must be **preposted**: each VI keeps a window of
//!   posted descriptors, reposting as messages are consumed, and senders
//!   respect the window with batched credit returns on a control VI — a
//!   late descriptor would mean a dropped packet (the simulated stack
//!   panics, so getting this wrong is loud).

use crate::bmm::SendPolicy;
use crate::drivers::CreditWindow;
use crate::error::{MadError, MadResult};
use crate::flags::{RecvMode, SendMode};
use crate::pmm::Pmm;
use crate::pool::BufPool;
use crate::stats::Stats;
use crate::tm::{StaticBuf, TmCaps, TmId, TransmissionModule};
use crate::trace::Tracer;
use madsim_net::stacks::via::{Vi, Via};
use madsim_net::world::Adapter;
use madsim_net::NodeId;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Registered buffer (descriptor) size.
pub const VIA_BUF: usize = 8192;
/// Receive descriptors preposted per data VI. Sized generously: a sender
/// whose window closes blocks for a credit return, and credits only flow
/// when the *peer's application* consumes — under full-duplex bursts
/// (both sides fire many sends before receiving) a tight window deadlocks
/// both ends in the credit wait. Descriptors are cheap in the simulation,
/// so buy headroom instead.
const WINDOW: usize = 64;
/// Return credits every this many consumed buffers.
const CREDIT_BATCH: usize = 8;
/// Descriptors preposted on the credit VI.
const CREDIT_WINDOW: usize = 8;

const SUB_DATA: u64 = 0;
const SUB_CREDIT: u64 = 1;

/// Decode a credit-return packet (8-byte LE count).
fn credit_value(pkt: &[u8]) -> MadResult<usize> {
    let bytes: [u8; 8] = pkt
        .get(..8)
        .and_then(|s| s.try_into().ok())
        .ok_or_else(|| MadError::corrupt("VIA credit packet shorter than 8 bytes"))?;
    Ok(u64::from_le_bytes(bytes) as usize)
}

fn tag(channel_id: u32, sub: u64) -> u64 {
    ((channel_id as u64) << 8) | sub
}

struct PeerVis {
    data: Vi,
    credit: Vi,
    /// Sends against the peer's posted descriptors, and consumption of
    /// ours.
    window: CreditWindow,
}

/// Build the VIA PMM for one channel (collective: every member preposts).
pub fn build(
    adapter: &Adapter,
    channel_id: u32,
    pool: BufPool,
    stats: Arc<Stats>,
    tracer: Arc<Tracer>,
) -> Arc<dyn Pmm> {
    let via = Via::new(adapter);
    let me = via.node();
    let mut vis = HashMap::new();
    for &peer in adapter.peers() {
        if peer == me {
            continue;
        }
        let mut data = via.open_vi(peer, tag(channel_id, SUB_DATA));
        let mut credit = via.open_vi(peer, tag(channel_id, SUB_CREDIT));
        for _ in 0..WINDOW {
            data.post_recv(VIA_BUF);
        }
        for _ in 0..CREDIT_WINDOW {
            credit.post_recv(8);
        }
        vis.insert(
            peer,
            Mutex::new(PeerVis {
                data,
                credit,
                window: CreditWindow::new(WINDOW, CREDIT_BATCH),
            }),
        );
    }
    let vis = Arc::new(vis);
    let tm: Arc<dyn TransmissionModule> = Arc::new(ViaTm {
        vis: Arc::clone(&vis),
        pool,
        stats,
        tracer,
    });
    Arc::new(ViaPmm { vis, tms: [tm] })
}

struct ViaPmm {
    vis: Arc<HashMap<NodeId, Mutex<PeerVis>>>,
    tms: [Arc<dyn TransmissionModule>; 1],
}

impl Pmm for ViaPmm {
    fn name(&self) -> &'static str {
        "via"
    }

    fn tms(&self) -> &[Arc<dyn TransmissionModule>] {
        &self.tms
    }

    fn select(&self, _len: usize, _s: SendMode, _r: RecvMode) -> TmId {
        0
    }

    fn policy(&self, _id: TmId) -> SendPolicy {
        SendPolicy::StaticCopy
    }

    fn poll_incoming(&self) -> Option<NodeId> {
        self.vis
            .iter()
            .find(|(_, vi)| vi.lock().data.has_pending())
            .map(|(&peer, _)| peer)
    }

    fn supports_batching(&self) -> bool {
        // A batch frame is one descriptor's payload; the frame-size cap
        // (buffer_cap minus envelope overhead) keeps it within VIA_BUF.
        true
    }
}

struct ViaTm {
    vis: Arc<HashMap<NodeId, Mutex<PeerVis>>>,
    pool: BufPool,
    stats: Arc<Stats>,
    tracer: Arc<Tracer>,
}

impl ViaTm {
    fn with_peer<T>(&self, peer: NodeId, f: impl FnOnce(&mut PeerVis) -> T) -> T {
        let vi = self
            .vis
            .get(&peer)
            .unwrap_or_else(|| panic!("no VIA VI to node {peer}"));
        f(&mut vi.lock())
    }
}

impl TransmissionModule for ViaTm {
    fn name(&self) -> &'static str {
        "via/registered"
    }

    fn caps(&self) -> TmCaps {
        TmCaps {
            static_buffers: true,
            buffer_cap: VIA_BUF,
            gather: false,
        }
    }

    fn send_buffer(&self, dst: NodeId, data: &[u8]) -> MadResult<()> {
        assert!(data.len() <= VIA_BUF, "VIA dynamic send exceeds buffer");
        let mut buf = self.obtain_static_buffer();
        buf.spare_mut()[..data.len()].copy_from_slice(data);
        buf.advance(data.len());
        self.send_static_buffer(dst, buf)
    }

    fn send_static_buffer(&self, dst: NodeId, buf: StaticBuf) -> MadResult<()> {
        let lift = MadError::from_link(dst, &self.stats, &self.tracer);
        self.with_peer(dst, |p| {
            // Refresh the window from any queued credit returns.
            while let Some(pkt) = p.credit.poll_recv() {
                p.window.refund(credit_value(&pkt)?);
                p.credit.post_recv(8);
            }
            while !p.window.take() {
                // Window closed: block for a credit return.
                let pkt = p.credit.try_recv().map_err(&lift)?;
                p.window.refund(credit_value(&pkt)?);
                p.credit.post_recv(8);
            }
            p.data.send(buf.filled());
            Ok(())
        })
    }

    fn receive_buffer(&self, src: NodeId, dst: &mut [u8]) -> MadResult<()> {
        let buf = self.receive_static_buffer(src)?;
        assert_eq!(buf.len(), dst.len(), "VIA dynamic receive length mismatch");
        dst.copy_from_slice(buf.filled());
        Ok(())
    }

    fn receive_static_buffer(&self, src: NodeId) -> MadResult<StaticBuf> {
        let lift = MadError::from_link(src, &self.stats, &self.tracer);
        self.with_peer(src, |p| {
            let data = p.data.try_recv().map_err(lift)?;
            p.data.post_recv(VIA_BUF);
            if let Some(n) = p.window.consume() {
                p.credit.send(&(n as u64).to_le_bytes());
            }
            Ok(StaticBuf::shared(data, 0))
        })
    }

    fn obtain_static_buffer(&self) -> StaticBuf {
        // Pool-backed registered buffer: VIA registration is expensive on
        // real hardware, which is exactly why reuse matters.
        StaticBuf::pooled(self.pool.checkout(VIA_BUF), 0)
    }
}
