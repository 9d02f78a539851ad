//! Batch frames as they cross the wire and come back out: byte identity
//! of what a peer receives, a frame cursor that stays inside its frame
//! (across raw blocks, retransmissions and messages), hostile frames on a
//! live channel, and what the path copies.

use bytes::Bytes;
use madeleine::wire::{encode_batch_frame, put_varint};
use madeleine::{Channel, ChannelSpec, Config, MadError, Madeleine, Protocol};
use madeleine::{RecvMode, SendMode};
use madsim_net::stacks::sbp::Sbp;
use madsim_net::stacks::tcp::TcpStack;
use madsim_net::{FaultPlan, NetKind, NodeEnv, World, WorldBuilder};

const CHEAPER: (SendMode, RecvMode) = (SendMode::Cheaper, RecvMode::Cheaper);
/// Envelope flags (see `madeleine::batch`): bit 0 user-EXPRESS, bit 1 the
/// channel's internal message header.
const EXPRESS: u32 = 1;
const INTERNAL: u32 = 2;

fn batched(protocol: Protocol, plan: Option<FaultPlan>) -> (World, Config) {
    let mut b = WorldBuilder::new(2);
    b.network("eth0", NetKind::Ethernet, &[0, 1]);
    if let Some(plan) = plan {
        b = b.fault_plan(plan);
    }
    let spec = ChannelSpec::new("ch", "eth0", protocol).with_batching(16, 4096, 20.0);
    (b.build(), Config::default().with_channel_spec(spec))
}

fn payload(seq: usize, len: usize) -> Vec<u8> {
    (0..len).map(|i| (seq * 131 + i * 7) as u8).collect()
}

/// The frame the wire format prescribes for `packets` (payload, flags),
/// first envelope seq `first_seq`: table, then the payloads end to end.
fn reference_frame(first_seq: u32, packets: &[(&[u8], u32)]) -> Vec<u8> {
    let mut frame = Vec::new();
    encode_batch_frame(
        &mut frame,
        first_seq,
        packets.iter().map(|(p, flags)| (p.len(), *flags)),
    );
    for (p, _) in packets {
        frame.extend_from_slice(p);
    }
    frame
}

/// The internal header of message `seq` from node 0 (both below 128, so
/// one varint byte each).
fn msg_header(seq: u8) -> [u8; 3] {
    [0xC1, 0, seq]
}

/// Node 0 sends one message by the blocking path (its header and blocks
/// are captured into pooled memory: `Pooled` items) and one posted (a
/// `DeferredHeader` that becomes a `Header` at the flush, and `Owned`
/// blocks); `raw_frame` on node 1 reads the channel's own wire, raw. Each
/// message must arrive as exactly the frame the wire format prescribes.
fn frames_are_byte_identical(protocol: Protocol, raw_frame: fn(&NodeEnv, usize) -> Vec<u8>) {
    let (world, config) = batched(protocol, None);
    world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let ch = mad.channel("ch");
        let (a, b, c) = (payload(1, 64), payload(2, 5), payload(3, 200));
        if env.id() == 0 {
            let mut msg = ch.begin_packing(1);
            msg.pack(&a, CHEAPER.0, CHEAPER.1);
            msg.pack(&b, SendMode::Safer, RecvMode::Express);
            msg.end_packing();
            let blocks = [&c, &a].map(|p| (Bytes::from(p.clone()), CHEAPER.0, CHEAPER.1));
            let id = ch.post_message(1, blocks.to_vec());
            ch.wait_op(id).expect("posted message ships");
        } else {
            // The EXPRESS block closes the first frame early: the message's
            // terminal flush has nothing left to ship.
            let first = reference_frame(0, &[(&msg_header(0), INTERNAL), (&a, 0), (&b, EXPRESS)]);
            assert_eq!(raw_frame(&env, first.len()), first, "blocking-path frame");
            let second = reference_frame(3, &[(&msg_header(1), INTERNAL), (&c, 0), (&a, 0)]);
            assert_eq!(raw_frame(&env, second.len()), second, "posted frame");
        }
        env.barrier();
    });
}

#[test]
fn tcp_frames_are_byte_identical() {
    frames_are_byte_identical(Protocol::Tcp, |env, len| {
        // Same adapter, same port (the channel's index in the config): a
        // second reader of the stream the channel would read.
        let mut raw = TcpStack::new(env.adapters_named("eth0")[0]).connect(0, 0);
        let mut got = vec![0u8; len];
        raw.recv_exact(&mut got);
        got
    });
}

#[test]
fn static_buffer_frames_are_byte_identical() {
    frames_are_byte_identical(Protocol::Sbp, |env, _| {
        // One kernel buffer per frame, under the channel's own SBP tag.
        let raw = Sbp::new(env.adapters_named("eth0")[0]);
        raw.recv_from(0, 0x53).to_vec()
    });
}

const BIG: usize = 64 * 1024;

/// Two posted messages back to back, each a batched header, a 64 KiB block
/// that travels raw, and a batched trailer. On the wire: frame {header 1},
/// raw block, frame {trailer 1, header 2} — one frame across two messages
/// with a raw block on either side — raw block, frame {trailer 2}.
fn mixed_messages_roundtrip(plan: Option<FaultPlan>) {
    let faulty = plan.is_some();
    let (world, config) = batched(Protocol::Tcp, plan);
    world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let ch = mad.channel("ch");
        if env.id() == 0 {
            let ids: Vec<_> = (0..2)
                .map(|m| {
                    let block = |seq, len| (Bytes::from(payload(seq, len)), CHEAPER.0, CHEAPER.1);
                    ch.post_message(1, vec![block(10 * m, BIG), block(10 * m + 1, 48)])
                })
                .collect();
            ch.flush().expect("flush ships the last trailer");
            for id in ids {
                ch.wait_op(id).expect("message ships");
            }
        }
        if !faulty {
            // Everything — three frames and two raw blocks — is in node
            // 1's mailbox before its first begin_unpacking. (Under the
            // stop-and-wait ARQ a sender cannot run ahead of the reader.)
            env.barrier();
        }
        if env.id() == 1 {
            for m in 0..2 {
                let (mut big, mut trailer) = (vec![0u8; BIG], [0u8; 48]);
                let mut msg = ch.begin_unpacking();
                msg.unpack(&mut big, CHEAPER.0, CHEAPER.1);
                msg.unpack(&mut trailer, CHEAPER.0, CHEAPER.1);
                msg.end_unpacking();
                // A cursor that read past its frame's end would have eaten
                // the head of the raw block (or of the next frame).
                assert!(big == payload(10 * m, BIG), "raw block of message {m}");
                assert_eq!(trailer[..], payload(10 * m + 1, 48)[..], "trailer {m}");
            }
            // (A duplicate the ARQ has yet to discard may still be queued.)
            assert!(faulty || !ch.has_incoming(), "a frame was left over");
        }
        env.barrier();
        if let Some(f) = env.faults() {
            assert!(
                f.drops() > 0 && f.duplicates() > 0,
                "the plan injected nothing"
            );
        }
    });
}

#[test]
fn cursor_stays_inside_its_frame_when_everything_arrived_first() {
    mixed_messages_roundtrip(None);
}

#[test]
fn cursor_stays_inside_its_frame_across_drops_and_duplicates() {
    for seed in [9, 10, 15] {
        let plan = FaultPlan::new(seed).drop_rate(0.2).duplicate_rate(0.2);
        mixed_messages_roundtrip(Some(plan));
    }
}

/// Hostile frames, raw on a live channel's TCP stream: each surfaces from
/// `begin_unpacking_checked` as `CorruptStream` — never a panic, a hang or
/// a delivered packet.
#[test]
fn hostile_frames_on_a_live_channel_are_corrupt_streams() {
    let table = |packets: &[(usize, u32)]| {
        let mut frame = Vec::new();
        encode_batch_frame(&mut frame, 0, packets.iter().copied());
        frame
    };
    let mut trailing = table(&[(3, INTERNAL)]);
    trailing.extend_from_slice(&[0xC1, 0, 0, 0xEE]);
    trailing[1] += 1;
    let mut overrun = table(&[(3, INTERNAL)]);
    overrun.extend_from_slice(&[0xC1, 0]);
    overrun[1] -= 1;
    let mut truncated = table(&[(0, 0), (0, 0)]);
    truncated.pop();
    truncated[1] -= 1;
    let mut oversize = vec![0xC9];
    put_varint(&mut oversize, 1 << 20);
    let replayed = reference_frame(7, &[(&msg_header(0), INTERNAL)]);
    for (hostile, complaint) in [
        (trailing, "trailing bytes"),
        (overrun, "overrun"),
        (truncated, "truncated varint"),
        (oversize, "1048576-byte body"),
        (replayed, "lost or replayed"),
        (vec![0xC1, 0, 0], "prologue"),
    ] {
        let (world, config) = batched(Protocol::Tcp, None);
        world.run(move |env| {
            let mad = Madeleine::init(&env, &config);
            if env.id() == 0 {
                let raw = TcpStack::new(env.adapters_named("eth0")[0]);
                raw.connect(1, 0).send(&hostile);
            } else {
                match mad.channel("ch").begin_unpacking_checked() {
                    Err(MadError::CorruptStream(what)) => {
                        assert!(what.contains(complaint), "{complaint}: got {what:?}")
                    }
                    Err(e) => panic!("{complaint}: expected CorruptStream, got {e:?}"),
                    Ok(_) => panic!("{complaint}: hostile frame accepted"),
                }
            }
            env.barrier();
        });
    }
}

fn recv(ch: &Channel, len: usize) -> Vec<u8> {
    let mut got = vec![0u8; len];
    let mut msg = ch.begin_unpacking();
    msg.unpack(&mut got, CHEAPER.0, CHEAPER.1);
    msg.end_unpacking();
    got
}

/// A burst of 64 x 64 B posted over batched TCP: the sender copies
/// nothing (its frames are gathered from where the packets lie), the
/// receiver copies each packet once, out of the buffer it arrived in —
/// the 7% over the payload is the messages' headers.
#[test]
fn a_burst_is_copied_once_end_to_end() {
    const LEN: usize = 64;
    const BURST: usize = 64;
    let (world, config) = batched(Protocol::Tcp, None);
    let copied = world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let ch = mad.channel("ch");
        if env.id() == 0 {
            let ids: Vec<_> = (0..BURST)
                .map(|seq| {
                    let block = Bytes::from(payload(seq, LEN));
                    ch.post_message(1, vec![(block, CHEAPER.0, CHEAPER.1)])
                })
                .collect();
            ch.flush().expect("flush");
            for id in ids {
                ch.wait_op(id).expect("message ships");
            }
            assert_eq!(ch.stats().gathers(), 8, "one gather per frame");
        } else {
            for seq in 0..BURST {
                assert_eq!(recv(ch, LEN), payload(seq, LEN));
            }
            assert_eq!(
                ch.stats().tm_copied_bytes(),
                0,
                "frames stay where they arrived"
            );
        }
        ch.stats().copied_bytes()
    });
    assert_eq!(copied[0], 0, "the sender stages nothing");
    let ratio = copied[1] as f64 / (BURST * LEN) as f64;
    assert!(ratio <= 1.1, "{ratio:.3} bytes copied per payload byte");
}
