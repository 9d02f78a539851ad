//! Compute/communication overlap: the nonblocking op path against the
//! blocking send path, with a calibrated compute phase equal to the pure
//! transfer time (the balanced case, where perfect overlap halves the
//! elapsed time).
//!
//! Sweeps 4 kB -> 1 MB over BIP (Myrinet) on 1 and 2 rails, and writes
//! `BENCH_overlap.json`. The headline claims asserted below: for 1 MB
//! exchanges — single-rail, and striped over two rails — posting the send
//! and computing through the rendezvous delivers at least 1.5x the
//! effective throughput of send-then-compute. The progress engine anchors
//! each transfer at posting time, so the simulated NIC moves the bytes
//! while the host computes; a striped block is one parked engine op whose
//! rails run on their own clocks from the post instant.
//!
//! BIP only: overlap is a property of the rendezvous, which is the paper's
//! point about receiver-driven long transfers. TCP's eager path executes
//! its wire time inside the tick that ships it, and the sender-side
//! elapsed time this bench reads does not see it at all.
//!
//! Usage: `overlap [--out PATH]`

#![forbid(unsafe_code)]

use bench::{arg_value, json_struct, mibps, write_json};
use bytes::Bytes;
use madeleine::{ChannelSpec, Config, Madeleine, Protocol, RecvMode, SendMode};
use madsim_net::time::{self, VDuration};
use madsim_net::{NetKind, WorldBuilder};

#[derive(Clone, Copy)]
enum Mode {
    /// Blocking send, then `compute_us` of local work.
    Blocking { compute_us: f64 },
    /// Posted send, `compute_us` of local work, then `wait_op`.
    Overlap { compute_us: f64 },
}

json_struct! {
    struct OverlapPoint {
        protocol: &'static str,
        rails: usize,
        bytes: usize,
        /// Pure blocking transfer time (also the calibrated compute phase).
        transfer_us: f64,
        blocking_us: f64,
        overlapped_us: f64,
        blocking_mibps: f64,
        overlapped_mibps: f64,
        /// `blocking_us / overlapped_us`.
        speedup: f64,
    }
}

json_struct! {
    struct Output {
        points: Vec<OverlapPoint>,
    }
}

/// Sender's elapsed virtual µs for one exchange of `n` bytes over BIP.
fn exchange_us(rails: usize, n: usize, mode: Mode) -> f64 {
    let mut b = WorldBuilder::new(2);
    b.network_with_rails("net0", NetKind::Myrinet, &[0, 1], rails);
    let world = b.build();
    let config = Config::default().with_channel_spec(
        ChannelSpec::new("ch", "net0", Protocol::Bip)
            .with_rails(rails)
            .with_striping(128 * 1024, 128 * 1024),
    );
    let elapsed = world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let ch = mad.channel("ch");
        if env.id() == 0 {
            let data = vec![0x5Au8; n];
            let t0 = time::now().as_micros_f64();
            match mode {
                Mode::Blocking { compute_us } => {
                    let mut msg = ch.begin_packing(1);
                    msg.pack(&data, SendMode::Cheaper, RecvMode::Cheaper);
                    msg.end_packing();
                    time::advance(VDuration::from_micros_f64(compute_us));
                }
                Mode::Overlap { compute_us } => {
                    let id = ch.post_message(
                        1,
                        vec![(
                            Bytes::copy_from_slice(&data),
                            SendMode::Cheaper,
                            RecvMode::Cheaper,
                        )],
                    );
                    time::advance(VDuration::from_micros_f64(compute_us));
                    ch.wait_op(id).expect("posted send completes");
                }
            }
            time::now().as_micros_f64() - t0
        } else {
            let mut got = vec![0u8; n];
            let mut msg = ch.begin_unpacking();
            msg.unpack(&mut got, SendMode::Cheaper, RecvMode::Cheaper);
            msg.end_unpacking();
            assert!(got.iter().all(|&x| x == 0x5A), "payload corrupted");
            0.0
        }
    });
    elapsed[0]
}

fn measure(rails: usize, n: usize) -> OverlapPoint {
    // Calibrate the compute phase to the pure transfer time: the balanced
    // workload where overlap has the most to win (2x at the limit).
    let transfer_us = exchange_us(rails, n, Mode::Blocking { compute_us: 0.0 });
    let compute_us = transfer_us;
    let blocking_us = exchange_us(rails, n, Mode::Blocking { compute_us });
    let overlapped_us = exchange_us(rails, n, Mode::Overlap { compute_us });
    OverlapPoint {
        protocol: "bip",
        rails,
        bytes: n,
        transfer_us,
        blocking_us,
        overlapped_us,
        blocking_mibps: mibps(n, blocking_us),
        overlapped_mibps: mibps(n, overlapped_us),
        speedup: blocking_us / overlapped_us,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out_path = arg_value(&args, "--out").unwrap_or_else(|| "BENCH_overlap.json".into());

    let sizes = [4 * 1024, 64 * 1024, 1 << 20];
    let mut points = Vec::new();
    println!(
        "{:>5} {:>6} {:>9} {:>12} {:>12} {:>12} {:>8}",
        "proto", "rails", "bytes", "transfer us", "blocking us", "overlap us", "speedup"
    );
    for rails in [1usize, 2] {
        for n in sizes {
            let p = measure(rails, n);
            println!(
                "{:>5} {:>6} {:>9} {:>12.1} {:>12.1} {:>12.1} {:>7.2}x",
                p.protocol,
                p.rails,
                p.bytes,
                p.transfer_us,
                p.blocking_us,
                p.overlapped_us,
                p.speedup
            );
            points.push(p);
        }
    }

    // The acceptance claim: 1 MB compute-overlapped exchanges over BIP
    // reach >= 1.5x the blocking effective throughput, on one rail and
    // striped over two.
    for rails in [1, 2] {
        let headline = points
            .iter()
            .find(|p| p.rails == rails && p.bytes == 1 << 20)
            .expect("headline point measured");
        assert!(
            headline.overlapped_mibps >= 1.5 * headline.blocking_mibps,
            "{rails}-rail overlap speedup {:.2}x below 1.5x ({:.1} -> {:.1} MiB/s effective)",
            headline.speedup,
            headline.blocking_mibps,
            headline.overlapped_mibps
        );
        println!(
            "1 MB {rails}-rail BIP overlap speedup: {:.2}x",
            headline.speedup
        );
    }

    write_json(&out_path, &Output { points });
}
