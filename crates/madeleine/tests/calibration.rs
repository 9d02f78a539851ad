//! Calibration of the virtual-time models against the paper's own numbers.
//!
//! These tests measure **one-way message time in virtual time** through the
//! full Madeleine II stack (fresh world per point, single message, receiver
//! clock at `end_unpacking`) and pin it to the anchors the paper reports:
//!
//! * Fig. 4 — SISCI/SCI: 3.9 µs minimal latency, 82 MB/s asymptotic
//!   bandwidth, dual-buffering kink above 8 kB;
//! * Fig. 5 — BIP/Myrinet: 7 µs minimal latency, 122 MB/s;
//! * §6.2.2 — at 8 kB: ≈58 MB/s (SISCI) and ≈47 MB/s (BIP); at 16 kB both
//!   ≈60 MB/s and ≈250 µs.
//!
//! (Paper "MB/s" is MiB/s; see `madsim_net::perf`.) Tolerances are
//! deliberately loose — the goal is the *shape*, not digit-for-digit
//! equality.

use madeleine::{Config, Madeleine, Protocol, RecvMode, SendMode};
use madsim_net::perf::mibps;
use madsim_net::time::{self, VDuration};
use madsim_net::{NetKind, WorldBuilder};

/// Receiver's virtual clock (ns) at `end_unpacking` for a single n-byte
/// message, full stack, fresh world; `tune` adjusts the channel's config.
fn oneway_ns(protocol: Protocol, n: usize, tune: impl FnOnce(Config) -> Config) -> u64 {
    let mut b = WorldBuilder::new(2);
    let (net, kind) = match protocol {
        Protocol::Tcp | Protocol::Sbp => ("eth0", NetKind::Ethernet),
        Protocol::Bip => ("myr0", NetKind::Myrinet),
        Protocol::Sisci => ("sci0", NetKind::Sci),
        Protocol::Via => ("san0", NetKind::ViaSan),
    };
    b.network(net, kind, &[0, 1]);
    let world = b.build();
    let config = tune(Config::one("ch", net, protocol));
    let times = world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let ch = mad.channel("ch");
        let data = vec![0xA5u8; n];
        if env.id() == 0 {
            let mut msg = ch.begin_packing(1);
            msg.pack(&data, SendMode::Cheaper, RecvMode::Cheaper);
            msg.end_packing();
            0
        } else {
            let mut got = vec![0u8; n];
            let mut msg = ch.begin_unpacking();
            msg.unpack(&mut got, SendMode::Cheaper, RecvMode::Cheaper);
            msg.end_unpacking();
            time::now().as_nanos()
        }
    });
    times[1]
}

/// One-way virtual time (µs) for a single n-byte message, full stack.
fn oneway_us(protocol: Protocol, n: usize) -> f64 {
    oneway_ns(protocol, n, |c| c) as f64 / 1_000.0
}

fn bw(protocol: Protocol, n: usize) -> f64 {
    mibps(n, VDuration::from_micros_f64(oneway_us(protocol, n)))
}

fn assert_close(what: &str, got: f64, want: f64, tol: f64) {
    assert!(
        (got - want).abs() <= tol,
        "{what}: got {got:.2}, want {want:.2} ± {tol:.2}"
    );
}

#[test]
fn sisci_min_latency_is_3_9us() {
    let t = oneway_us(Protocol::Sisci, 4);
    assert_close("SISCI 4 B latency (us)", t, 3.9, 0.8);
}

#[test]
fn sisci_8kb_bandwidth() {
    assert_close("SISCI 8 kB MiB/s", bw(Protocol::Sisci, 8192), 58.0, 5.0);
}

#[test]
fn sisci_16kb_point() {
    let t = oneway_us(Protocol::Sisci, 16384);
    let b = mibps(16384, VDuration::from_micros_f64(t));
    // Paper §6.2.1: "ca. 250 us, ca. 60 MB/s" — approximately.
    assert!(
        (220.0..290.0).contains(&t),
        "SISCI 16 kB one-way {t:.1} us outside 220–290"
    );
    assert!(
        (54.0..71.0).contains(&b),
        "SISCI 16 kB bandwidth {b:.1} MiB/s outside 54–71"
    );
}

#[test]
fn sisci_asymptotic_bandwidth_is_82() {
    assert_close("SISCI 1 MiB MiB/s", bw(Protocol::Sisci, 1 << 20), 82.0, 5.0);
}

#[test]
fn sisci_dual_buffering_kink_at_8kb() {
    // Incremental bandwidth jumps when dual-buffering engages: the cost of
    // 24 kB minus the cost of 16 kB (fully pipelined region) implies a
    // higher rate than the single-shot 8 kB transfer.
    let t8 = oneway_us(Protocol::Sisci, 8192);
    let t16 = oneway_us(Protocol::Sisci, 16384);
    let t24 = oneway_us(Protocol::Sisci, 24576);
    let single_rate = 8192.0 / t8;
    let pipelined_rate = 8192.0 / (t24 - t16);
    assert!(
        pipelined_rate > single_rate * 1.15,
        "no dual-buffering kink: single {single_rate:.1} B/us, pipelined {pipelined_rate:.1} B/us"
    );
}

#[test]
fn bip_min_latency_is_7us() {
    let t = oneway_us(Protocol::Bip, 4);
    assert_close("BIP 4 B latency (us)", t, 7.0, 1.0);
}

#[test]
fn bip_8kb_bandwidth() {
    assert_close("BIP 8 kB MiB/s", bw(Protocol::Bip, 8192), 47.0, 5.0);
}

#[test]
fn bip_16kb_point() {
    let b = bw(Protocol::Bip, 16384);
    assert!(
        (58.0..75.0).contains(&b),
        "BIP 16 kB bandwidth {b:.1} MiB/s outside 58–75"
    );
}

#[test]
fn bip_asymptotic_bandwidth_is_122() {
    assert_close("BIP 1 MiB MiB/s", bw(Protocol::Bip, 1 << 20), 122.0, 6.0);
}

#[test]
fn bip_beats_sisci_for_large_sisci_beats_bip_for_small() {
    // The crossover the gateway experiments rely on (§6.2.1).
    assert!(oneway_us(Protocol::Sisci, 64) < oneway_us(Protocol::Bip, 64));
    assert!(oneway_us(Protocol::Sisci, 4096) < oneway_us(Protocol::Bip, 4096));
    assert!(bw(Protocol::Bip, 1 << 18) > bw(Protocol::Sisci, 1 << 18));
}

#[test]
fn sci_dma_mode_is_much_slower_than_pio() {
    // §5.2.1: D310 DMA peaks around 35 MB/s vs 82 MB/s for PIO — the
    // reason the DMA TM ships disabled.
    let n = 1 << 18;
    let pio = bw(Protocol::Sisci, n);
    let dma_ns = oneway_ns(Protocol::Sisci, n, |c| c.with_sci_dma(true));
    let dma = mibps(n, VDuration::from_nanos(dma_ns));
    assert!(
        (28.0..40.0).contains(&dma),
        "SCI DMA bandwidth {dma:.1} MiB/s outside 28–40"
    );
    assert!(
        pio > dma * 1.8,
        "PIO ({pio:.1}) should dwarf DMA ({dma:.1})"
    );
}

#[test]
fn tcp_fast_ethernet_profile() {
    // ~60 us one-way latency (plus connection setup charged at init is not
    // included here: init happens before the clock measurement? it is —
    // connect() advances the node clock during init, so subtract it).
    let t4 = oneway_us(Protocol::Tcp, 4);
    // one connect latency (60) + oneway (60+) + header bytes
    assert!(
        (110.0..165.0).contains(&t4),
        "TCP 4 B one-way {t4:.1} us outside 110–165"
    );
    let b = bw(Protocol::Tcp, 1 << 20);
    assert!(
        (10.5..11.8).contains(&b),
        "TCP 1 MiB bandwidth {b:.1} MiB/s outside Fast-Ethernet range"
    );
}

/// Every protocol's single-flow receiver clock, pinned to the nanosecond:
/// the bands above would not notice a one-ns drift in the timing model.
/// VIA at 64 KiB and 1 MiB is left out: its credit returns are booked on
/// the bus from two threads, so those two points move run to run.
#[test]
fn exact_single_flow_instants() {
    use Protocol::*;
    let points: &[(Protocol, usize, u64)] = &[
        (Bip, 4, 7233),
        (Bip, 1024, 108544),
        (Bip, 8 << 10, 162735),
        (Bip, 64 << 10, 596255),
        (Bip, 1 << 20, 8028038),
        (Sisci, 4, 4548),
        (Sisci, 1024, 20664),
        (Sisci, 8 << 10, 134418),
        (Sisci, 64 << 10, 830107),
        (Sisci, 1 << 20, 12413347),
        (Tcp, 4, 125307),
        (Tcp, 1024, 216393),
        (Tcp, 8 << 10, 856495),
        (Tcp, 64 << 10, 5977315),
        (Tcp, 1 << 20, 93762787),
        (Via, 4, 68639),
        (Via, 1024, 88019),
        (Via, 8 << 10, 224210),
        (Sbp, 4, 24497),
        (Sbp, 1024, 58565),
        (Sbp, 8 << 10, 297975),
        (Sbp, 64 << 10, 1505477),
        (Sbp, 1 << 20, 13105355),
    ];
    for &(p, n, want) in points {
        assert_eq!(oneway_ns(p, n, |c| c), want, "{p:?} {n} B");
    }
    let dma = oneway_ns(Sisci, 256 << 10, |c| c.with_sci_dma(true));
    assert_eq!(dma, 8284837, "SISCI DMA 256 KiB");
}

/// One block of a packed message: its length and mode pair.
type BlockSpec = (usize, SendMode, RecvMode);

/// Sender's and receiver's clocks (ns) once a packed BIP message of
/// `blocks` is out and unpacked. `lockstep`: the receiver unpacks the block
/// whose receipt returns the k-th batch of credits only once the sender
/// has parked k times, out of credits, or has finished — so each return
/// reaches a sender already waiting for it. (One that lands, in real time,
/// while the sender still ships would move its clock run to run.)
fn packed_bip_ns(blocks: &[BlockSpec], lockstep: bool) -> (u64, u64) {
    use madsim_net::eventcount::EventCount;
    use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
    use std::sync::{Arc, OnceLock};
    let mut b = WorldBuilder::new(2);
    b.network("myr0", NetKind::Myrinet, &[0, 1]);
    let world = b.build();
    let config = Config::one("ch", "myr0", Protocol::Bip);
    let blocks = blocks.to_vec();
    /// What the receiver watches of the sender.
    #[derive(Default)]
    struct Sender {
        /// Its arrivals count, and the count's parks before the message.
        arrivals: OnceLock<(Arc<EventCount>, u64)>,
        /// The message is out.
        done: AtomicBool,
    }
    let sender = Arc::new(Sender::default());
    let times = world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let ch = mad.channel("ch");
        let mut data: Vec<Vec<u8>> = blocks.iter().map(|b| vec![0xA5u8; b.0]).collect();
        if env.id() == 0 {
            let arrivals = Arc::clone(env.arrivals());
            let parks = arrivals.stats().parks;
            assert!(sender.arrivals.set((arrivals, parks)).is_ok(), "one sender");
            let mut msg = ch.begin_packing(1);
            for (d, &(_, smode, rmode)) in data.iter().zip(&blocks) {
                msg.pack(d, smode, rmode);
            }
            msg.end_packing();
            sender.done.store(true, SeqCst);
        } else {
            let mut msg = ch.begin_unpacking();
            for (i, (d, &(_, smode, rmode))) in data.iter_mut().zip(&blocks).enumerate() {
                // The header was the first short buffer received; every
                // fourth one returns a batch of credits.
                let batch = (i as u64 + 2) / 4;
                let parked =
                    |(arrivals, at): &(Arc<EventCount>, u64)| arrivals.stats().parks - at >= batch;
                let released =
                    || sender.done.load(SeqCst) || sender.arrivals.get().is_some_and(parked);
                while lockstep && !released() {
                    std::thread::yield_now();
                }
                msg.unpack(d, smode, rmode);
            }
            msg.end_unpacking();
        }
        time::now().as_nanos()
    });
    (times[0], times[1])
}

/// Packed BIP messages whose send waits on the receiver, both clocks
/// pinned to the ns: (a) 64 EXPRESS 64 B blocks, which drain the 8-slot
/// short ring and wait for credits (received in lockstep, see
/// `packed_bip_ns`); (b) two 4 KiB blocks back to back, two rendezvous in
/// one BMM; (c) a 4 KiB block then a 40 B `send_SAFER` one, whose TM switch
/// commits behind the rendezvous.
#[test]
fn exact_packed_bip_wait_instants() {
    use SendMode::{Cheaper, Safer};
    let express = vec![(64, Cheaper, RecvMode::Express); 64];
    let long = (4096, Cheaper, RecvMode::Cheaper);
    let safer = (40, Safer, RecvMode::Cheaper);
    let shapes = [
        ("(a) credit waits", &express[..], true, (122365, 127210)),
        ("(b) two rendezvous", &[long, long], false, (253885, 257685)),
        (
            "(c) switch behind a rendezvous",
            &[long, safer],
            false,
            (129637, 134165),
        ),
    ];
    for (what, blocks, lockstep, want) in shapes {
        assert_eq!(packed_bip_ns(blocks, lockstep), want, "{what}");
    }
}

/// Print the full sweep for eyeballing (runs with `--nocapture`).
#[test]
fn print_fig4_fig5_sweep() {
    println!(
        "{:>9} {:>14} {:>14} {:>14} {:>14}",
        "size", "SISCI us", "SISCI MiB/s", "BIP us", "BIP MiB/s"
    );
    for &n in &[
        4usize,
        64,
        256,
        1024,
        4096,
        8192,
        16384,
        65536,
        262144,
        1 << 20,
    ] {
        let ts = oneway_us(Protocol::Sisci, n);
        let tb = oneway_us(Protocol::Bip, n);
        println!(
            "{:>9} {:>14.1} {:>14.1} {:>14.1} {:>14.1}",
            n,
            ts,
            mibps(n, VDuration::from_micros_f64(ts)),
            tb,
            mibps(n, VDuration::from_micros_f64(tb)),
        );
    }
}
