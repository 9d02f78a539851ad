//! Protocol drivers: one [`crate::pmm::Pmm`] implementation per
//! supported network interface (paper §5: BIP, SISCI, TCP, VIA — plus SBP
//! for the §6 static-buffer analysis).

pub mod bip;
pub mod sbp;
pub mod sisci;
pub mod tcp;
pub mod via;

use crate::config::{Config, Protocol};
use crate::pmm::Pmm;
use crate::pool::BufPool;
use crate::stats::Stats;
use crate::trace::Tracer;
use madsim_net::world::{Adapter, NetKind};
use std::sync::Arc;

/// Instantiate the PMM for one channel. Collective: every member of the
/// channel's network must call this concurrently (drivers exchange
/// segments / connections / preposted descriptors during construction).
///
/// `pool` is the channel's buffer pool: static-buffer protocols (BIP
/// short, VIA, SBP) draw their send-side buffers from it so obtain/release
/// cycles recycle warm slabs instead of allocating.
///
/// `tracer` is the channel's event tracer: on a fault-armed fabric the
/// drivers record recovery events (retransmissions, credit timeouts)
/// into it alongside the channel's own pack/unpack stream.
pub fn build_pmm(
    protocol: Protocol,
    adapter: &Adapter,
    channel_id: u32,
    cfg: &Config,
    stats: Arc<Stats>,
    pool: BufPool,
    tracer: Arc<Tracer>,
) -> Arc<dyn Pmm> {
    let poll = cfg.poll;
    match protocol {
        Protocol::Tcp => {
            assert_eq!(adapter.kind(), NetKind::Ethernet, "TCP needs Ethernet");
            tcp::build(adapter, channel_id, stats, poll, tracer)
        }
        Protocol::Bip => {
            assert_eq!(adapter.kind(), NetKind::Myrinet, "BIP needs Myrinet");
            bip::build(adapter, channel_id, stats, poll, pool, tracer)
        }
        Protocol::Sisci => {
            assert_eq!(adapter.kind(), NetKind::Sci, "SISCI needs SCI");
            let dma = cfg.enable_sci_dma;
            sisci::build(adapter, channel_id, dma, poll, stats, tracer)
        }
        Protocol::Via => {
            assert_eq!(adapter.kind(), NetKind::ViaSan, "VIA needs a SAN");
            via::build(adapter, channel_id, poll, pool, stats, tracer)
        }
        Protocol::Sbp => {
            assert_eq!(adapter.kind(), NetKind::Ethernet, "SBP needs Ethernet");
            sbp::build(adapter, channel_id, poll, pool, stats, tracer)
        }
    }
}

/// Flow control over one peer's bounded receive window — BIP's short
/// ring, VIA's preposted descriptors — which the stack itself would let a
/// sender overrun. A sender spends a credit per send and stops at zero;
/// the receiver counts what it consumes and returns credits in batches.
/// Each driver keeps one per peer under its own lock, and its own window,
/// batch and credit-packet format.
pub(crate) struct CreditWindow {
    /// Credits a sender starts with, and at most holds.
    window: usize,
    /// Credits returned at once, after this many buffers consumed.
    batch: usize,
    /// Sends toward the peer still allowed.
    credits: usize,
    /// Buffers consumed from the peer since the last credit return.
    consumed: usize,
}

impl CreditWindow {
    pub(crate) fn new(window: usize, batch: usize) -> Self {
        CreditWindow {
            window,
            batch,
            credits: window,
            consumed: 0,
        }
    }

    /// Spend one credit, if one is left.
    pub(crate) fn take(&mut self) -> bool {
        let Some(left) = self.credits.checked_sub(1) else {
            return false;
        };
        self.credits = left;
        true
    }

    /// Take back `n` credits the peer returned.
    pub(crate) fn refund(&mut self, n: usize) {
        self.credits = self.credits.saturating_add(n).min(self.window);
    }

    /// Count one buffer consumed from the peer: `Some(n)` when that
    /// completes a batch and `n` credits are to be returned.
    pub(crate) fn consume(&mut self) -> Option<usize> {
        self.consumed += 1;
        (self.consumed >= self.batch).then(|| std::mem::take(&mut self.consumed))
    }
}
