//! Simulated vendor protocol stacks.
//!
//! Each submodule reproduces the programming model and performance envelope
//! of one of the system-software layers Madeleine II drives:
//!
//! | stack | paper counterpart | defining behaviours |
//! |---|---|---|
//! | [`bip`] | BIP over Myrinet | short (<1 kB) messages into bounded preallocated receive buffers (flow control is the *caller's* job); long messages via receiver-acknowledged rendezvous, delivered in place |
//! | [`sisci`] | Dolphin SISCI over SCI | remote-mapped memory segments written by CPU PIO; polling flags; an optional DMA engine (slow on D310 hardware) |
//! | [`tcp`] | TCP over Fast Ethernet | reliable byte streams, high latency, ~11 MiB/s |
//! | [`via`] | VIA on a SAN | descriptor-queue send/recv, receives **must** be preposted, completions polled |
//! | [`sbp`] | SBP (Russell & Hatcher) | all data must live in kernel-provided *static buffers* on both sides |
//!
//! Timing discipline shared by all stacks: every operation has a calibrated
//! *uncontended* cost, read from the world's table ([`crate::calib`]); the
//! portion that crosses the host PCI bus is pushed
//! through the node's [`crate::pci::PciBus`] model where concurrent transfers stretch it
//! (full-duplex conflicts, DMA-over-PIO priority). With an idle bus the
//! end-to-end time equals the calibrated curve exactly, so the single-network
//! figures (Fig. 4, 5) are anchored while the gateway figures (Fig. 10, 11)
//! emerge from contention.
//!
//! Under the five stacks sits one link layer, here: one frame send
//! (`send_frame`), one bounded wait (`link_wait`) with its nonblocking
//! twin ([`link_deadline`]), and one liveness test — the adapter's
//! rail-aware [`Adapter::reachable_from`] / [`Adapter::reachable_to`]. A
//! stack keeps only its protocol: frame kinds, which rows it charges, what
//! it waits for.

pub(crate) mod arq;
pub mod bip;
pub mod sbp;
pub mod sisci;
pub mod tcp;
pub mod via;

use crate::calib::Row;
use crate::fault::LinkError;
use crate::frame::{Frame, NodeId};
use crate::pci::{BusDir, BusKind};
use crate::time::{VDuration, VTime};
use crate::world::Adapter;
use bytes::Bytes;
use std::time::{Duration, Instant};

/// Real-time bound on one fault-armed wait: a peer that stays reachable
/// but silent this long has the link give up with [`LinkError::Timeout`].
/// (The ARQ passes its own RTO and receive bounds instead.)
pub(crate) const LINK_BOUND: Duration = Duration::from_millis(2_000);
/// A fault-armed wait re-tests liveness this often, so a dead peer or a
/// cut rail costs one slice, not the bound.
const LINK_SLICE: Duration = Duration::from_millis(10);

/// The stacks' one blocking wait, for something `peer` sends us. `wait(t)`
/// makes one wait of at most `t` (`None`: no deadline) and returns what it
/// got.
///
/// On a clean world this is `wait(None)` and nothing else: the one
/// unbounded mailbox or eventcount wait — same call, same poll grant — the
/// caller would make by hand. On a fault-armed world the wait runs in
/// slices; before each, the liveness test asks whether `peer` can still
/// reach us over this rail, and the wait fails with `PeerDead` when it
/// cannot, or with `Timeout` once `bound` has passed.
pub(crate) fn link_wait<R>(
    adapter: &Adapter,
    peer: NodeId,
    bound: Duration,
    mut wait: impl FnMut(Option<Duration>) -> Option<R>,
) -> Result<R, LinkError> {
    if !adapter.faulty() {
        return Ok(wait(None).expect("a wait without a deadline ends only in success"));
    }
    let deadline = Instant::now() + bound;
    loop {
        // Tested before the attempt: a frame is delivered before a cut
        // behind it shows (`FaultState::carry`), so a dead verdict never
        // hides one that crossed in time.
        let up = adapter.reachable_from(peer);
        let slice = deadline
            .saturating_duration_since(Instant::now())
            .min(LINK_SLICE);
        if let Some(got) = wait(Some(if up { slice } else { Duration::ZERO })) {
            return Ok(got);
        }
        if !up {
            return Err(LinkError::PeerDead);
        }
        if Instant::now() >= deadline {
            return Err(LinkError::Timeout);
        }
    }
}

/// `link_wait`'s nonblocking twin, for a poll that sends to `dst` once
/// what it waits for is there: `PeerDead` once `dst` is unreachable over
/// this rail, `Timeout` once the 2 s `LINK_BOUND` has passed since the first
/// call (which sets `deadline`). Always `Ok` on a clean world.
pub fn link_deadline(
    adapter: &Adapter,
    dst: NodeId,
    deadline: &mut Option<Instant>,
) -> Result<(), LinkError> {
    if !adapter.faulty() {
        return Ok(());
    }
    if !adapter.reachable_to(dst) {
        return Err(LinkError::PeerDead);
    }
    if Instant::now() >= *deadline.get_or_insert_with(|| Instant::now() + LINK_BOUND) {
        return Err(LinkError::Timeout);
    }
    Ok(())
}

/// The one frame send of the message-passing stacks: ship `payload` to
/// `dst` as a DMA frame of `(kind, tag)` starting at `t0`, charged as
/// `row`: the frame's one-way time (latency plus per-byte) and bus
/// occupancy follow from it, both ends' buses are charged (see
/// [`charge_send_bus`], [`charge_dest_bus`]), and the frame's arrival
/// instant is stamped on it and returned. The row's host time is the
/// caller's to charge.
pub(crate) fn send_frame(
    adapter: &Adapter,
    dst: NodeId,
    (kind, tag): (u16, u64),
    row: Row,
    t0: VTime,
    payload: Bytes,
) -> VTime {
    let oneway = VDuration::from_micros_f64(row.lat_us + payload.len() as f64 * row.per_byte_us);
    let bus_occ = row.bus(payload.len());
    let arrival = charge_send_bus(adapter, BusKind::Dma, t0, oneway, bus_occ);
    let arrival = charge_dest_bus(adapter, dst, BusKind::Dma, arrival, bus_occ);
    let src = adapter.node();
    adapter.send_raw(
        dst,
        Frame {
            src,
            kind,
            tag,
            arrival,
            payload,
        },
    );
    arrival
}

/// Charge the sender-side host-bus crossing of a transfer starting at
/// `t0` — the caller's clock, or later: a transfer whose trigger (a
/// rendezvous CTS) arrived while the host was busy computing starts at the
/// trigger's arrival, which lets a progress engine anchor overlapped
/// transfers retroactively.
///
/// `oneway` is the uncontended end-to-end time, `bus_occ` the slice of it
/// that occupies the sender's bus. Returns the frame's arrival instant at
/// the far NIC: `t0 + oneway`, delayed by however much contention
/// stretched the bus crossing.
fn charge_send_bus(
    adapter: &Adapter,
    kind: BusKind,
    t0: VTime,
    oneway: VDuration,
    bus_occ: VDuration,
) -> VTime {
    debug_assert!(bus_occ <= oneway, "bus occupancy exceeds one-way time");
    if kind == BusKind::Dma {
        // The NIC's engine issues transactions across the whole local part
        // of the transfer, not one compressed burst.
        adapter.pci().note_dma_window(t0 + bus_occ);
    }
    let bus_end = adapter.pci().transfer(kind, BusDir::Outbound, t0, bus_occ);
    let stretch = bus_end.saturating_since(t0 + bus_occ);
    t0 + oneway + stretch
}

/// Charge the receiver-side host-bus crossing of an arriving transfer,
/// **from the sender's context** (the sender computes the full effective
/// arrival; registering the inbound interval early keeps it visible to
/// transfers the receiving node issues afterwards — essential for the
/// gateway contention effects of paper §6.2).
///
/// The inbound bus occupancy physically happens during the tail of the
/// transfer, so it is modelled as the window `[arrival - bus_occ, arrival]`;
/// contention can push completion past `arrival`. Returns the instant the
/// data is actually in the destination's host memory.
fn charge_dest_bus(
    adapter: &Adapter,
    dst: NodeId,
    kind: BusKind,
    arrival: VTime,
    bus_occ: VDuration,
) -> VTime {
    if kind == BusKind::Dma {
        // The receiving NIC's engine drains the wire for the whole flight;
        // in a streaming workload the next message follows back-to-back,
        // so the engine stays armed for about one more occupancy span
        // (registered here, ahead of time, so locally-issued PIO on the
        // destination reliably observes it).
        adapter
            .pci_of(dst)
            .note_dma_window(arrival + bus_occ + bus_occ);
    }
    let busy_start = arrival.saturating_sub(bus_occ);
    let end = adapter
        .pci_of(dst)
        .transfer(kind, BusDir::Inbound, busy_start, bus_occ);
    end.max(arrival)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calib::Calib;
    use crate::time::{self, ClockHandle};
    use crate::world::{NetKind, WorldBuilder};

    fn us(n: u64) -> VDuration {
        VDuration::from_micros(n)
    }

    #[test]
    fn uncontended_send_arrives_after_oneway() {
        let mut b = WorldBuilder::new(2);
        let net = b.network("sci0", NetKind::Sci, &[0, 1]);
        let w = b.build();
        let arrivals = w.run(|env| {
            if env.id() != 0 {
                return 0;
            }
            let a = env.adapter_on(net).unwrap();
            crate::time::advance(us(10));
            let arrival = charge_send_bus(a, BusKind::Pio, time::now(), us(100), us(80));
            arrival.as_nanos()
        });
        assert_eq!(arrivals[0], 110_000);
    }

    #[test]
    fn uncontended_recv_completes_at_arrival() {
        let mut b = WorldBuilder::new(2);
        let net = b.network("sci0", NetKind::Sci, &[0, 1]);
        let w = b.build();
        let done = w.run(|env| {
            if env.id() != 0 {
                return 500_000;
            }
            let a = env.adapter_on(net).unwrap();
            charge_dest_bus(a, 1, BusKind::Dma, VTime::from_nanos(500_000), us(100)).as_nanos()
        });
        assert_eq!(done[0], 500_000);
    }

    #[test]
    fn contended_send_is_delayed() {
        let mut b = WorldBuilder::new(2);
        let net = b.network("sci0", NetKind::Sci, &[0, 1]);
        let pci = crate::pci::PciConfig {
            pio_contended_inflation: 1.5,
        };
        let w = b
            .calib(Calib {
                pci,
                ..Calib::PAPER
            })
            .build();
        let arrivals = w.run(|env| {
            if env.id() != 0 {
                return 0;
            }
            let a = env.adapter_on(net).unwrap();
            // An inbound DMA occupies the bus for [0, 1000us); a PIO send
            // asked at 0 queues behind it and pays the 1.5x inflation.
            a.pci()
                .transfer(BusKind::Dma, BusDir::Inbound, VTime::ZERO, us(1000));
            let arrival = charge_send_bus(a, BusKind::Pio, time::now(), us(100), us(84));
            // bus end = 1000 + 84*1.5 = 1126; stretch = 1126 - 84 = 1042;
            // arrival = 100 + 1042 = 1142us.
            arrival.as_nanos()
        });
        assert_eq!(arrivals[0], 1_142_000);
        let _ = ClockHandle::new();
    }
}
