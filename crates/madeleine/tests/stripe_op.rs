//! The striped send as one multi-rail engine op (`rail::StripeSend`):
//! delivery through both send paths, the op's observable states, and its
//! virtual-time contract (the transfer hides behind the caller's compute;
//! a single booking thread makes the sender's timeline repeatable).

use bytes::Bytes;
use madeleine::config::{DEFAULT_STRIPE_CHUNK, DEFAULT_STRIPE_THRESHOLD};
use madeleine::{ChannelSpec, Config, Madeleine, OpState, Protocol, RecvMode, SendMode};
use madsim_net::time::{self, VDuration};
use madsim_net::{NetKind, World, WorldBuilder};

const MIB: usize = 1 << 20;
const CHEAPER: (SendMode, RecvMode) = (SendMode::Cheaper, RecvMode::Cheaper);

fn world(protocol: Protocol, rails: usize) -> (World, Config) {
    let kind = match protocol {
        Protocol::Bip => NetKind::Myrinet,
        Protocol::Sisci => NetKind::Sci,
        _ => NetKind::Ethernet,
    };
    let mut b = WorldBuilder::new(2);
    b.network_with_rails("net0", kind, &[0, 1], rails);
    let config = Config::default()
        .with_channel_spec(ChannelSpec::new("ch", "net0", protocol).with_rails(rails));
    (b.build(), config)
}

fn bip_world(rails: usize) -> (World, Config) {
    world(Protocol::Bip, rails)
}

fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 31 + len) as u8).collect()
}

/// How node 0 sends the block.
#[derive(Clone, Copy, Debug)]
enum Path {
    Pack,
    Post,
}

/// Ship one `len`-byte block from node 0 to node 1; returns what node 1
/// unpacked and how many stripes node 0 counted.
fn ship(protocol: Protocol, rails: usize, len: usize, path: Path) -> (Vec<u8>, u64) {
    let (world, config) = world(protocol, rails);
    let mut out = world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let ch = mad.channel("ch");
        if env.id() == 0 {
            let data = pattern(len);
            match path {
                Path::Pack => {
                    let mut msg = ch.begin_packing(1);
                    msg.pack(&data, CHEAPER.0, CHEAPER.1);
                    msg.end_packing();
                }
                Path::Post => {
                    let id = ch.post_message(1, vec![(Bytes::from(data), CHEAPER.0, CHEAPER.1)]);
                    ch.wait_op(id).expect("striped op completes");
                }
            }
            (Vec::new(), ch.stats().stripes())
        } else {
            let mut got = vec![0u8; len];
            let mut msg = ch.begin_unpacking();
            msg.unpack(&mut got, CHEAPER.0, CHEAPER.1);
            msg.end_unpacking();
            (got, 0)
        }
    });
    (std::mem::take(&mut out[1].0), out[0].1)
}

#[test]
fn blocks_arrive_byte_identical_through_both_send_paths() {
    let t = DEFAULT_STRIPE_THRESHOLD;
    for rails in [2, 3] {
        for len in [t, t + 1, MIB, MIB + 17] {
            for path in [Path::Pack, Path::Post] {
                let (got, stripes) = ship(Protocol::Bip, rails, len, path);
                assert_eq!(stripes, 1, "{rails} rails, {len} B, {path:?}: not striped");
                let bad = got.iter().zip(pattern(len)).position(|(a, b)| *a != b);
                assert_eq!(bad, None, "{rails} rails, {len} B, {path:?}: corrupted");
            }
        }
    }
}

/// Only BIP's TMs park (`post_send` overrides); the other protocols'
/// sends complete inside the call, SISCI's only once the receiver has
/// drained a ring smaller than a chunk. One thread drives every rail, so
/// the engine must release frames in the order the mirroring receiver
/// consumes them. (VIA and SBP carry nothing beyond a static buffer, so
/// they cannot stripe at all.)
#[test]
fn blocking_protocols_stripe_without_deadlock() {
    for protocol in [Protocol::Sisci, Protocol::Tcp] {
        for rails in [2, 3] {
            for len in [DEFAULT_STRIPE_THRESHOLD + 1, MIB] {
                for path in [Path::Pack, Path::Post] {
                    let what = format!("{protocol:?}, {rails} rails, {len} B, {path:?}");
                    let (got, stripes) = ship(protocol, rails, len, path);
                    assert_eq!(stripes, 1, "{what}: not striped");
                    assert!(got == pattern(len), "{what}: corrupted");
                }
            }
        }
    }
}

#[test]
fn posted_striped_op_parks_and_cannot_be_cancelled() {
    let (world, config) = bip_world(2);
    world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let ch = mad.channel("ch");
        if env.id() == 0 {
            let id = ch.post_message(1, vec![(Bytes::from(pattern(MIB)), CHEAPER.0, CHEAPER.1)]);
            // The first tick shipped the message header and every rail's
            // first stripe header; four chunks per rail cannot all have
            // retired inside it.
            assert_eq!(ch.engine().state(id), Some(OpState::StripePartial));
            assert!(!ch.cancel_op(id), "a started op must run to completion");
            assert_eq!(ch.engine().state(id), Some(OpState::StripePartial));
            // Node 1 holds back until told, so the op cannot finish yet.
            assert!(ch.test_op(id).is_none());
            env.barrier();
            let done = loop {
                if let Some(r) = ch.test_op(id) {
                    break r;
                }
                std::thread::yield_now();
            };
            done.expect("striped op completes");
            assert_eq!(ch.engine().in_flight(), 0);
        } else {
            env.barrier();
            let mut got = vec![0u8; MIB];
            let mut msg = ch.begin_unpacking();
            msg.unpack(&mut got, CHEAPER.0, CHEAPER.1);
            msg.end_unpacking();
            assert_eq!(got, pattern(MIB));
        }
    });
}

/// Node 0's virtual µs for one exchange of `len` bytes over 2 rails:
/// post, `compute_us` of local work, wait.
fn posted_exchange_us(len: usize, compute_us: f64) -> f64 {
    let (world, config) = bip_world(2);
    let out = world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let ch = mad.channel("ch");
        if env.id() == 0 {
            let data = Bytes::from(pattern(len));
            let t0 = time::now();
            let id = ch.post_message(1, vec![(data, CHEAPER.0, CHEAPER.1)]);
            time::advance(VDuration::from_micros_f64(compute_us));
            ch.wait_op(id).expect("striped op completes");
            time::now().saturating_since(t0).as_micros_f64()
        } else {
            let mut got = vec![0u8; len];
            let mut msg = ch.begin_unpacking();
            msg.unpack(&mut got, CHEAPER.0, CHEAPER.1);
            msg.end_unpacking();
            0.0
        }
    });
    out[0]
}

#[test]
fn striped_transfer_hides_behind_compute() {
    const COMPUTE_US: f64 = 8_000.0;
    let alone = posted_exchange_us(MIB, 0.0);
    let overlapped = posted_exchange_us(MIB, COMPUTE_US);
    assert!(
        overlapped < COMPUTE_US + 0.25 * alone,
        "post + {COMPUTE_US} us compute + wait cost {overlapped} us \
         (transfer alone {alone} us): the stripe did not park"
    );
}

/// The `rails` bench's gate, in the offline lane: on a host bus that can
/// feed them (a quarter of the calibrated per-byte occupancy), two rails
/// land a 1 MiB block in at most 1/1.7 of the single-rail time. Which
/// frame books the shared bus first decides this (DESIGN.md §14).
#[test]
fn two_rails_on_a_fast_bus_deliver_1_7x() {
    let landed_us = |rails: usize| {
        let (world, config) = bip_world(rails);
        let timing = madsim_net::stacks::bip::BipTiming {
            bus_per_byte_us: 0.0019,
            ..Default::default()
        };
        let config = config.with_bip_timing(timing);
        let out = world.run(move |env| {
            let mad = Madeleine::init(&env, &config);
            let ch = mad.channel("ch");
            if env.id() == 0 {
                let data = pattern(MIB);
                let mut msg = ch.begin_packing(1);
                msg.pack(&data, CHEAPER.0, CHEAPER.1);
                msg.end_packing();
                0.0
            } else {
                let mut got = vec![0u8; MIB];
                let mut msg = ch.begin_unpacking();
                msg.unpack(&mut got, CHEAPER.0, CHEAPER.1);
                msg.end_unpacking();
                time::now().as_micros_f64()
            }
        });
        out[1]
    };
    let (one, two) = (landed_us(1), landed_us(2));
    assert!(1.7 * two <= one, "1 rail {one} us, 2 rails {two} us");
}

#[test]
fn sender_timeline_is_repeatable_across_fresh_worlds() {
    // Two chunks per rail: one thread books every sender-side bus slot, so
    // nothing in the sender's elapsed time depends on the host scheduler.
    let len = 4 * DEFAULT_STRIPE_CHUNK;
    let first = posted_exchange_us(len, 0.0);
    for run in 1..10 {
        let again = posted_exchange_us(len, 0.0);
        assert_eq!(
            first.to_bits(),
            again.to_bits(),
            "run {run}: {again} us vs {first} us"
        );
    }
}
