//! The host I/O bus contention model.
//!
//! The paper's gateway experiments (§6.2) are dominated by the behaviour of
//! the single 33 MHz / 32-bit PCI bus every NIC shares:
//!
//! * forwarding moves every byte across the bus **twice** (NIC→host, then
//!   host→NIC), so overlapping transfers are **time-multiplexed**: the bus
//!   serves one transaction stream at a time. The Fig. 10 asymptote is
//!   within 1% of plain serialization of the two crossings
//!   (1528 µs of SCI-in plus 991 µs of Myrinet-out per 128 kB packet
//!   ≈ the measured 2525 µs period at 49.5 MB/s);
//! * *DMA priority*: PCI bus-master DMA transactions (the Myrinet LANai
//!   pulling a frame into host memory) win arbitration over programmed-I/O
//!   transactions (the host CPU pushing words into the SCI segment), so a
//!   **contended PIO transfer pays an inflation factor** on top of the
//!   serialization — the paper's §6.2.3 "slowed down by a factor of two"
//!   while the DMA is active, ≈ ×1.6 averaged over a whole packet, which
//!   reproduces Fig. 11's 29–36.5 MB/s band.
//!
//! The bus is a reservation timeline: a transfer asked to start at `t` is
//! placed in the earliest gap at or after `t` that the transfers booked
//! before it left whole, so of two contending transfers the one booked
//! first is served first (see [`crate::resource`]). It occupies the bus
//! for its duration (inflated for PIO if the bus was busy or a DMA engine
//! active when it asked). An idle bus adds nothing, so the single-network
//! figures (4, 5) are unaffected.

use crate::resource::ResourceTimeline;
use crate::time::{VDuration, VTime};
use parking_lot::Mutex;
use std::sync::Arc;

/// How a transfer crosses the bus.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BusKind {
    /// Programmed I/O: the host CPU issues the bus transactions (SCI writes).
    Pio,
    /// Bus-master DMA: the NIC issues the transactions (Myrinet, SCI DMA mode).
    Dma,
}

/// Direction of a transfer relative to host memory. (Kept for diagnostics
/// and future refinement; the serialization model treats both directions
/// identically, as a single shared bus does.)
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BusDir {
    /// NIC → host memory (a receive).
    Inbound,
    /// Host memory → NIC (a send).
    Outbound,
}

/// The bus row of the calibration table ([`crate::calib::Calib::pci`]).
#[derive(Clone, Copy, Debug)]
pub struct PciConfig {
    /// Duration multiplier for a PIO transfer that found the bus busy
    /// (bus-master DMA wins PCI arbitration; the CPU's programmed stores
    /// retry and stall).
    pub pio_contended_inflation: f64,
}

impl Default for PciConfig {
    fn default() -> Self {
        crate::calib::Calib::PAPER.pci
    }
}

/// A shared host bus. One per simulated node.
#[derive(Clone)]
pub struct PciBus {
    cfg: PciConfig,
    timeline: ResourceTimeline,
    /// Latest instant up to which some NIC's bus-master DMA engine is known
    /// to be issuing transactions (the *wire* window of an in-flight
    /// message, not just its compressed bus occupancy): PIO starting inside
    /// it loses arbitration continuously.
    dma_active_until: Arc<Mutex<VTime>>,
}

impl PciBus {
    pub fn new(cfg: PciConfig) -> Self {
        PciBus {
            cfg,
            timeline: ResourceTimeline::new("pci"),
            dma_active_until: Arc::new(Mutex::new(VTime::ZERO)),
        }
    }

    /// Record that a bus-master DMA engine is active until `until`.
    pub fn note_dma_window(&self, until: VTime) {
        let mut cur = self.dma_active_until.lock();
        *cur = cur.max(until);
    }

    /// Run a transfer of uncontended bus occupancy `base` starting no
    /// earlier than `start`; returns its end time.
    pub fn transfer(&self, kind: BusKind, _dir: BusDir, start: VTime, base: VDuration) -> VTime {
        if base == VDuration::ZERO {
            return start;
        }
        // PIO loses arbitration while a DMA engine is active or the bus is
        // already queued; DMA pays only the serialization.
        let contended = self.timeline.next_free() > start || *self.dma_active_until.lock() > start;
        let dur = if contended && kind == BusKind::Pio {
            base.scale(self.cfg.pio_contended_inflation)
        } else {
            base
        };
        self.timeline.reserve(start, dur).end
    }

    /// Earliest instant the bus is free (diagnostics).
    pub fn next_free(&self) -> VTime {
        self.timeline.next_free()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> VDuration {
        VDuration::from_micros(n)
    }

    fn at(n: u64) -> VTime {
        VTime::from_nanos(n * 1_000)
    }

    fn bus(infl: f64) -> PciBus {
        PciBus::new(PciConfig {
            pio_contended_inflation: infl,
        })
    }

    #[test]
    fn uncontended_transfer_is_unstretched() {
        let b = bus(2.0);
        let end = b.transfer(BusKind::Pio, BusDir::Outbound, at(10), us(100));
        assert_eq!(end, at(110));
    }

    #[test]
    fn overlapping_transfers_serialize() {
        let b = bus(1.0);
        let e1 = b.transfer(BusKind::Dma, BusDir::Inbound, at(0), us(100));
        assert_eq!(e1, at(100));
        // Asked at t=30 while the bus is busy until 100: time-division ⇒
        // the second transfer completes at 100 + 50.
        let e2 = b.transfer(BusKind::Dma, BusDir::Outbound, at(30), us(50));
        assert_eq!(e2, at(150));
    }

    #[test]
    fn disjoint_transfers_do_not_interact() {
        let b = bus(2.0);
        b.transfer(BusKind::Dma, BusDir::Inbound, at(0), us(100));
        let e = b.transfer(BusKind::Pio, BusDir::Outbound, at(500), us(100));
        assert_eq!(e, at(600));
    }

    #[test]
    fn contended_pio_pays_inflation() {
        let b = bus(1.5);
        b.transfer(BusKind::Dma, BusDir::Inbound, at(0), us(100));
        // PIO asked at 40: queued until 100, duration 100 * 1.5.
        let e = b.transfer(BusKind::Pio, BusDir::Outbound, at(40), us(100));
        assert_eq!(e, at(250));
    }

    #[test]
    fn contended_dma_pays_no_inflation() {
        let b = bus(3.0);
        b.transfer(BusKind::Pio, BusDir::Outbound, at(0), us(100));
        let e = b.transfer(BusKind::Dma, BusDir::Inbound, at(40), us(100));
        assert_eq!(e, at(200));
    }

    #[test]
    fn back_to_back_same_stream_is_not_contended() {
        // A sender whose clock advances past each crossing never queues
        // against itself, so per-chunk PIO streams see no inflation.
        let b = bus(2.0);
        let e1 = b.transfer(BusKind::Pio, BusDir::Outbound, at(0), us(100));
        let e2 = b.transfer(BusKind::Pio, BusDir::Outbound, e1, us(100));
        assert_eq!(e2, at(200));
    }

    #[test]
    fn pio_inside_dma_window_pays_inflation_even_on_idle_bus() {
        let b = bus(2.0);
        b.note_dma_window(at(1_000));
        // Bus idle, but a DMA engine is active: PIO still pays.
        let e = b.transfer(BusKind::Pio, BusDir::Outbound, at(100), us(100));
        assert_eq!(e, at(300));
        // After the window, PIO is back to full speed.
        let e2 = b.transfer(BusKind::Pio, BusDir::Outbound, at(2_000), us(100));
        assert_eq!(e2, at(2_100));
    }

    #[test]
    fn zero_duration_transfer_returns_start() {
        let b = bus(2.0);
        let end = b.transfer(BusKind::Pio, BusDir::Outbound, at(5), VDuration::ZERO);
        assert_eq!(end, at(5));
        // And does not reserve anything.
        assert_eq!(b.next_free(), VTime::ZERO);
    }

    #[test]
    fn serialization_matches_fig10_arithmetic() {
        // Per 128 kB forwarded packet: 1528 us of inbound + 991 us of
        // outbound crossings serialize to 2519 us — the paper's measured
        // 49.5 MB/s period is 2525 us.
        let b = bus(1.6);
        let e1 = b.transfer(BusKind::Dma, BusDir::Inbound, at(0), us(1528));
        let e2 = b.transfer(BusKind::Dma, BusDir::Outbound, at(100), us(991));
        assert_eq!(e1, at(1528));
        assert_eq!(e2, at(2519));
    }
}
