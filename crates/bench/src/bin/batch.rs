//! Adaptive wire-level batching: burst of small posted messages with and
//! without multi-envelope coalescing.
//!
//! Each round, node 0 posts 64 messages of 64 B toward node 1 over TCP
//! (Fast Ethernet — the stack with the steepest fixed per-frame cost),
//! flushes, waits the ops out, and then blocks on a 1-byte ack. Without
//! batching every message costs two wire frames (internal header + data);
//! with `with_batching(16, 4096, 20.0)` sixteen consecutive packets ride
//! one frame, so the fixed per-frame cost (the `tcp` row's latency floor
//! plus host time, `Row::per_frame_us`) is paid an
//! eighth as often. The headline claim asserted below: the batched burst
//! moves >= 2x the payload throughput of the unbatched one.
//!
//! Writes `BENCH_batch.json`, including the frames saved per the world's
//! calibration table (`madsim_net::calib`) — the same row the TCP stack
//! charges, so the "saved" column and the measured speedup must agree in
//! shape.
//!
//! Usage: `batch [--out PATH]`

use bench::{arg_value, json_struct, mibps, write_json};
use bytes::Bytes;
use madeleine::{ChannelSpec, Config, Madeleine, Protocol, RecvMode, SendMode};
use madsim_net::time;
use madsim_net::Calib;
use madsim_net::{NetKind, WorldBuilder};

const ROUNDS: usize = 8;
const PACKETS: usize = 64;
const PACKET_LEN: usize = 64;

json_struct! {
    struct BatchRun {
        batching: bool,
        rounds: usize,
        packets_per_round: usize,
        packet_bytes: usize,
        elapsed_us: f64,
        mibps: f64,
        /// Batch frames flushed (both nodes; 0 when batching is off).
        batches: u64,
        /// Packets that traveled inside those frames.
        batched_packets: u64,
        /// Wire frames the coalescing avoided: every batch of `n` packets
        /// replaces `n` single-packet frames with one.
        frames_saved: u64,
        /// Fixed frame cost avoided, per the shared stack cost table.
        saved_frame_cost_us: f64,
        /// Total bytes of node 0's flushed batch frames.
        frame_bytes: u64,
        /// Application payload bytes of the burst (64 B packets only).
        app_payload_bytes: u64,
        /// Everything that is not application payload: the frame header, the
        /// per-packet envelopes, and the encoded per-message channel headers.
        header_bytes: u64,
    }
}

json_struct! {
    struct Output {
        runs: Vec<BatchRun>,
        speedup: f64,
    }
}

/// Run the burst workload; per node:
/// `[elapsed_us, batches, batched_packets, frame_bytes, payload_bytes]`.
fn burst(batching: bool) -> Vec<[f64; 5]> {
    let mut b = WorldBuilder::new(2);
    b.network("net0", NetKind::Ethernet, &[0, 1]);
    let world = b.build();
    let mut spec = ChannelSpec::new("ch", "net0", Protocol::Tcp);
    if batching {
        spec = spec.with_batching(16, 4096, 20.0);
    }
    let config = Config::default().with_channel_spec(spec);
    world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let ch = mad.channel("ch");
        let elapsed = if env.id() == 0 {
            let payload = Bytes::from(vec![0xA5u8; PACKET_LEN]);
            let t0 = time::now().as_micros_f64();
            for _ in 0..ROUNDS {
                let ids: Vec<_> = (0..PACKETS)
                    .map(|_| {
                        ch.post_message(
                            1,
                            vec![(payload.clone(), SendMode::Cheaper, RecvMode::Cheaper)],
                        )
                    })
                    .collect();
                ch.flush().expect("batch flush");
                for id in ids {
                    ch.wait_op(id).expect("posted packet completes");
                }
                let mut ack = [0u8; 1];
                let mut msg = ch.begin_unpacking();
                msg.unpack_express(&mut ack, SendMode::Cheaper);
                msg.end_unpacking();
                assert_eq!(ack[0], 1, "ack corrupted");
            }
            time::now().as_micros_f64() - t0
        } else {
            for _ in 0..ROUNDS {
                for _ in 0..PACKETS {
                    let mut got = vec![0u8; PACKET_LEN];
                    let mut msg = ch.begin_unpacking();
                    msg.unpack(&mut got, SendMode::Cheaper, RecvMode::Cheaper);
                    msg.end_unpacking();
                    assert!(got.iter().all(|&x| x == 0xA5), "payload corrupted");
                }
                let mut msg = ch.begin_packing(0);
                msg.pack(&[1u8], SendMode::Cheaper, RecvMode::Express);
                msg.end_packing();
            }
            0.0
        };
        let stats = ch.stats();
        [
            elapsed,
            stats.batches() as f64,
            stats.batched_packets() as f64,
            stats.batch_frame_bytes() as f64,
            stats.batch_payload_bytes() as f64,
        ]
    })
}

fn measure(batching: bool) -> BatchRun {
    let per_node = burst(batching);
    let elapsed_us = per_node[0][0];
    let batches = per_node.iter().map(|n| n[1] as u64).sum::<u64>();
    let batched_packets = per_node.iter().map(|n| n[2] as u64).sum::<u64>();
    let frames_saved = batched_packets - batches;
    if !batching {
        assert_eq!(
            batches, 0,
            "batching disabled must bypass the batch layer entirely"
        );
    }
    let payload = ROUNDS * PACKETS * PACKET_LEN;
    // Header accounting on node 0's frames: every byte beyond the 64 B
    // application payloads is framing — batch header, envelopes, and the
    // encoded per-message channel headers riding as deferred packets.
    let frame_bytes = per_node[0][3] as u64;
    let app_payload_bytes = if batching { payload as u64 } else { 0 };
    BatchRun {
        batching,
        rounds: ROUNDS,
        packets_per_round: PACKETS,
        packet_bytes: PACKET_LEN,
        elapsed_us,
        mibps: mibps(payload, elapsed_us),
        batches,
        batched_packets,
        frames_saved,
        saved_frame_cost_us: frames_saved as f64 * Calib::PAPER.tcp.per_frame_us(),
        frame_bytes,
        app_payload_bytes,
        header_bytes: frame_bytes.saturating_sub(app_payload_bytes),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out_path = arg_value(&args, "--out").unwrap_or_else(|| "BENCH_batch.json".into());

    println!(
        "{:>8} {:>12} {:>10} {:>8} {:>12} {:>12}",
        "batching", "elapsed us", "MiB/s", "batches", "frames saved", "header bytes"
    );
    let off = measure(false);
    let on = measure(true);
    for r in [&off, &on] {
        println!(
            "{:>8} {:>12.1} {:>10.3} {:>8} {:>12} {:>12}",
            r.batching, r.elapsed_us, r.mibps, r.batches, r.frames_saved, r.header_bytes
        );
    }

    // The acceptance claim: coalescing 64 B packets over TCP buys >= 2x
    // payload throughput on the ping-burst.
    let speedup = on.mibps / off.mibps;
    assert!(
        speedup >= 2.0,
        "batching speedup {speedup:.2}x below 2x ({:.3} -> {:.3} MiB/s)",
        off.mibps,
        on.mibps
    );
    println!("64x64B TCP burst batching speedup: {speedup:.2}x");

    let out = Output {
        runs: vec![off, on],
        speedup,
    };
    write_json(&out_path, &out);
}
