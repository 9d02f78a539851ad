//! The SBP protocol module.
//!
//! SBP requires every transmitted byte to pass through kernel-provided
//! static buffers on **both** sides (paper §6, citing Russell & Hatcher).
//! A single StaticCopy TM over the stack's bounded buffer pools: `obtain`
//! blocks when the pool is exhausted, which is the natural flow control.
//! This is the protocol that makes the gateway's static/static worst case
//! reachable in tests.

use crate::bmm::SendPolicy;
use crate::error::{MadError, MadResult};
use crate::flags::{RecvMode, SendMode};
use crate::pmm::Pmm;
use crate::polling::PollPolicy;
use crate::pool::BufPool;
use crate::stats::Stats;
use crate::tm::{StaticBuf, TmCaps, TmId, TransmissionModule};
use crate::trace::{TraceEvent, Tracer};
use madsim_net::stacks::sbp::{Sbp, SBP_BUFFER_SIZE};
use madsim_net::world::Adapter;
use madsim_net::NodeId;
use std::sync::Arc;

fn tag(channel_id: u32) -> u64 {
    ((channel_id as u64) << 8) | 0x53 // 'S'
}

/// Build the SBP PMM for one channel.
pub fn build(
    adapter: &Adapter,
    channel_id: u32,
    poll: PollPolicy,
    pool: BufPool,
    stats: Arc<Stats>,
    tracer: Arc<Tracer>,
) -> Arc<dyn Pmm> {
    let sbp = Sbp::new(adapter);
    let tm: Arc<dyn TransmissionModule> = Arc::new(SbpTm {
        sbp: sbp.clone(),
        tag: tag(channel_id),
        pool,
        stats,
        tracer,
    });
    Arc::new(SbpPmm {
        sbp,
        tag: tag(channel_id),
        tms: [tm],
        poll,
    })
}

struct SbpPmm {
    sbp: Sbp,
    tag: u64,
    tms: [Arc<dyn TransmissionModule>; 1],
    poll: PollPolicy,
}

impl Pmm for SbpPmm {
    fn name(&self) -> &'static str {
        "sbp"
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

    fn wait_incoming(&self) -> NodeId {
        self.poll.wait(|| self.poll_incoming())
    }

    fn poll_incoming(&self) -> Option<NodeId> {
        self.sbp.peek_pending_src(self.tag)
    }

    fn supports_batching(&self) -> bool {
        // A batch frame occupies one kernel buffer on each side.
        true
    }
}

struct SbpTm {
    sbp: Sbp,
    tag: u64,
    pool: BufPool,
    stats: Arc<Stats>,
    tracer: Arc<Tracer>,
}

impl TransmissionModule for SbpTm {
    fn name(&self) -> &'static str {
        "sbp/static"
    }

    fn caps(&self) -> TmCaps {
        TmCaps {
            static_buffers: true,
            buffer_cap: SBP_BUFFER_SIZE,
            gather: false,
        }
    }

    fn send_buffer(&self, dst: NodeId, data: &[u8]) -> MadResult<()> {
        assert!(data.len() <= SBP_BUFFER_SIZE, "SBP dynamic send too large");
        let mut buf = self.obtain_static_buffer();
        buf.spare_mut()[..data.len()].copy_from_slice(data);
        buf.advance(data.len());
        self.send_static_buffer(dst, buf)
    }

    fn send_static_buffer(&self, dst: NodeId, buf: StaticBuf) -> MadResult<()> {
        // The StaticBuf *is* the kernel buffer: obtain_static_buffer below
        // reserved the pool slot, so the hand-off here is free.
        let mut tx = self.sbp.obtain_tx_reserved();
        tx.fill(buf.filled());
        let n = self
            .sbp
            .try_send(dst, self.tag, tx)
            .map_err(MadError::from_link(dst, &self.stats, &self.tracer))?;
        if n > 0 {
            self.stats.record_retransmits(n);
            self.tracer.record(TraceEvent::Retransmit {
                peer: dst,
                retries: n,
            });
        }
        Ok(())
    }

    fn receive_buffer(&self, src: NodeId, dst: &mut [u8]) -> MadResult<()> {
        let buf = self.receive_static_buffer(src)?;
        assert_eq!(buf.len(), dst.len(), "SBP dynamic receive length mismatch");
        dst.copy_from_slice(buf.filled());
        Ok(())
    }

    fn receive_static_buffer(&self, src: NodeId) -> MadResult<StaticBuf> {
        let rx = self
            .sbp
            .try_recv_from(src, self.tag)
            .map_err(MadError::from_link(src, &self.stats, &self.tracer))?;
        Ok(StaticBuf::shared(rx, 0))
    }

    fn obtain_static_buffer(&self) -> StaticBuf {
        // Reserve a kernel pool slot now (may block on exhaustion); the
        // pooled memory stands in for the kernel buffer itself.
        self.sbp.reserve_tx_slot();
        StaticBuf::pooled(self.pool.checkout(SBP_BUFFER_SIZE), 0)
    }

    fn release_static_buffer(&self, buf: StaticBuf) {
        // Only send-side (owned) buffers hold a pool slot; received buffers
        // wrap the arrival bytes and freed their slot inside the stack.
        if buf.is_owned() {
            self.sbp.unreserve_tx_slot();
        }
    }
}
