//! The calibration table: every cost the simulated fabric charges in
//! virtual time, set once per world.
//!
//! A [`Calib`] is a set of named [`Row`]s plus the host-bus row
//! ([`PciConfig`]) and the generic layer's host row ([`HostModel`]). A
//! world is built with one ([`crate::WorldBuilder::calib`]; default
//! [`Calib::PAPER`]), and every [`crate::Adapter`] and
//! [`crate::world::NodeEnv`] hands it out: the stacks, the bus and the
//! library above read their costs from it and keep only their protocol
//! logic. A what-if study is a second table, not code.
//!
//! A row is the shape the stacks' one frame send charges (pMR's fixed
//! per-message overhead plus a per-byte cost): a one-way latency floor, a
//! per-byte wire cost, a per-byte host-bus occupancy, and a sender host
//! time. A stack whose cost has more parts (SISCI's PIO, flag, copy and
//! DMA) has more rows; a field a path does not charge is zero.
//!
//! All figures are µs or µs per byte. The paper's "MB/s" is MiB/s (see
//! [`crate::perf`]).

use crate::pci::PciConfig;
use crate::time::VDuration;

/// One calibrated cost: what one frame, write or copy costs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Row {
    /// One-way latency floor (wire, switch, kernel traversal), µs.
    pub lat_us: f64,
    /// Per-byte wire (or CPU) cost, µs.
    pub per_byte_us: f64,
    /// Per-byte occupancy of the host bus at each end, µs.
    pub bus_per_byte_us: f64,
    /// Host CPU time per operation: send call, descriptor post, pool
    /// operation, or the fixed part of a CPU-driven transfer, µs.
    pub host_us: f64,
}

impl Row {
    /// A row from its four figures, in field order.
    pub const fn new(lat_us: f64, per_byte_us: f64, bus_per_byte_us: f64, host_us: f64) -> Row {
        Row {
            lat_us,
            per_byte_us,
            bus_per_byte_us,
            host_us,
        }
    }

    /// The latency floor as a duration.
    pub fn lat(&self) -> VDuration {
        VDuration::from_micros_f64(self.lat_us)
    }

    /// The host time as a duration.
    pub fn host(&self) -> VDuration {
        VDuration::from_micros_f64(self.host_us)
    }

    /// Host time of a CPU-driven transfer of `len` bytes: the fixed part
    /// plus `len` times the per-byte cost.
    pub fn cpu(&self, len: usize) -> VDuration {
        VDuration::from_micros_f64(self.host_us + len as f64 * self.per_byte_us)
    }

    /// Bus occupancy of `len` bytes.
    pub fn bus(&self, len: usize) -> VDuration {
        VDuration::from_micros_f64(len as f64 * self.bus_per_byte_us)
    }

    /// The fixed cost one frame carries whatever its length — latency
    /// floor plus sender host time: what a batching layer saves each time
    /// it coalesces two packets into one frame.
    pub fn per_frame_us(&self) -> f64 {
        self.lat_us + self.host_us
    }
}

/// Host-side cost model of the generic (protocol-independent) layer.
#[derive(Clone, Copy, Debug)]
pub struct HostModel {
    /// Fixed cost of a memory-to-memory copy.
    pub memcpy_setup_us: f64,
    /// Per-byte cost of a memory-to-memory copy.
    pub memcpy_per_byte_us: f64,
    /// Software cost of one `pack`/`unpack` call (switch step).
    pub pack_op_us: f64,
    /// Software cost of `begin_packing`/`begin_unpacking`.
    pub begin_op_us: f64,
    /// Software cost of `end_packing`/`end_unpacking` (final commit).
    pub end_op_us: f64,
}

impl Default for HostModel {
    fn default() -> Self {
        Calib::PAPER.host
    }
}

impl HostModel {
    /// Virtual cost of copying `len` bytes in host memory.
    pub fn memcpy(&self, len: usize) -> VDuration {
        VDuration::from_micros_f64(self.memcpy_setup_us + len as f64 * self.memcpy_per_byte_us)
    }
}

/// Every calibrated cost of one world.
#[derive(Clone, Copy, Debug)]
pub struct Calib {
    /// BIP short message (< 1 kB, into the receiver's preallocated ring).
    pub bip_short: Row,
    /// BIP long message, once the rendezvous completed.
    pub bip_long: Row,
    /// BIP clear-to-send control frame.
    pub bip_cts: Row,
    /// SISCI PIO write through a mapped segment: the CPU is busy for
    /// `host + len × per_byte`, the data lands `lat` later.
    pub sci_pio: Row,
    /// SISCI 4-byte flag write.
    pub sci_flag: Row,
    /// Copy out of a local SISCI segment into user memory.
    pub sci_copy: Row,
    /// SISCI DMA engine: `host` to start it, then `per_byte` on the wire.
    pub sci_dma: Row,
    /// TCP over Fast Ethernet: one stream unit (or ARQ segment).
    pub tcp: Row,
    /// VIA: one descriptor's frame; `host` is a descriptor post.
    pub via: Row,
    /// SBP: one static buffer's frame; `host` is a kernel pool operation.
    pub sbp: Row,
    /// The host I/O bus.
    pub pci: PciConfig,
    /// The generic layer's host costs.
    pub host: HostModel,
}

impl Calib {
    /// The table fitted to the paper's own numbers. Row figures in field
    /// order: latency, per-byte, bus per-byte, host.
    pub const PAPER: Calib = Calib {
        // Fig. 5: raw BIP 5 µs minimal latency (§5.2.2).
        bip_short: Row::new(4.8, 0.009, 0.00756, 1.0),
        // Fig. 5: raw BIP ~126 MB/s asymptote, with a ~95 µs rendezvous
        // constant placing 8 kB at ≈160 µs raw (≈47 MB/s once Madeleine's
        // overhead is added, §6.2.2).
        bip_long: Row::new(90.0, 0.00756, 0.00756, 1.0),
        // A control frame crosses like a short message's latency floor.
        bip_cts: Row::new(4.8, 0.0, 0.0, 0.0),
        // Fig. 4: SISCI 3.9 µs minimal latency, 82 MB/s asymptotic PIO
        // bandwidth; the CPU drives the bus the whole time.
        sci_pio: Row::new(0.6, 0.0116, 0.0116, 1.0),
        // Fig. 4: the flag write that ends every SISCI transfer.
        sci_flag: Row::new(0.6, 0.0, 0.0, 0.5),
        // Host memcpy rate of the paper's Pentium II 450 nodes (≈230 MB/s).
        sci_copy: Row::new(0.0, 0.0042, 0.0, 0.1),
        // §5.2.1: D310 DMA measured at ≤ 35 MB/s, the reason the DMA TM
        // ships disabled.
        sci_dma: Row::new(0.6, 0.026, 0.026, 20.0),
        // Fig. 7: TCP over Fast Ethernet, ~60 µs one-way through the kernel,
        // ≈11.2 MB/s on 100 Mbit/s; `host` is the `send` syscall.
        tcp: Row::new(60.0, 0.0851, 0.0076, 4.0),
        // §5: VIA on a GigaNet-cLAN-class SAN (≈90 MB/s; the paper gives
        // no curve), doorbell + NIC scheduling latency.
        via: Row::new(8.0, 0.0106, 0.0106, 0.8),
        // §6: SBP (Russell & Hatcher) on Fast Ethernet, kernel-mediated
        // static buffers (≈38 MB/s; the paper gives no curve).
        sbp: Row::new(15.0, 0.025, 0.0076, 2.0),
        // §6.2.3 / Fig. 11: a PIO transfer that loses bus arbitration to
        // DMA is "slowed down by a factor of two", ≈ ×1.6 averaged over a
        // packet.
        pci: PciConfig {
            pio_contended_inflation: 1.6,
        },
        // Pentium II 450: memcpy ≈230 MB/s; the Switch's per-call costs
        // close the gap between raw and Madeleine latency in Figs. 4-5.
        host: HostModel {
            memcpy_setup_us: 0.2,
            memcpy_per_byte_us: 0.0042,
            pack_op_us: 0.15,
            begin_op_us: 0.3,
            end_op_us: 0.3,
        },
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_frame_saves_its_latency_floor_and_host_time() {
        assert_eq!(Calib::PAPER.tcp.per_frame_us(), 64.0);
    }
}
