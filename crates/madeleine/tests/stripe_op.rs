//! One send cursor, two drivers: a message leaves the same way whether it is
//! packed (blocking) or posted (an engine op) — the same BMMs, buffers and
//! instants on every protocol — and the striped block as one multi-rail
//! engine op (`rail::StripeSend`): delivery through both paths, the op's
//! observable states, and its virtual-time contract (the transfer hides
//! behind the caller's compute; a single booking thread makes the sender's
//! timeline repeatable).

use bytes::Bytes;
use madeleine::config::{DEFAULT_STRIPE_CHUNK, DEFAULT_STRIPE_THRESHOLD};
use madeleine::{
    ChannelSpec, Config, HostModel, Madeleine, OpState, Protocol, RecvMode, SendMode, StatsSnapshot,
};
use madsim_net::time::{self, VDuration, VTime};
use madsim_net::{Calib, NetKind, Row, World, WorldBuilder};

const MIB: usize = 1 << 20;
const CHEAPER: (SendMode, RecvMode) = (SendMode::Cheaper, RecvMode::Cheaper);

fn world(protocol: Protocol, rails: usize, calib: Calib) -> (World, Config) {
    let kind = match protocol {
        Protocol::Bip => NetKind::Myrinet,
        Protocol::Sisci => NetKind::Sci,
        Protocol::Via => NetKind::ViaSan,
        Protocol::Tcp | Protocol::Sbp => NetKind::Ethernet,
    };
    let mut b = WorldBuilder::new(2).calib(calib);
    b.network_with_rails("net0", kind, &[0, 1], rails);
    let config = Config::default()
        .with_channel_spec(ChannelSpec::new("ch", "net0", protocol).with_rails(rails));
    (b.build(), config)
}

fn bip_world(rails: usize) -> (World, Config) {
    world(Protocol::Bip, rails, Calib::PAPER)
}

fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 31 + len) as u8).collect()
}

/// How node 0 sends the message.
#[derive(Clone, Copy, Debug)]
enum Path {
    Pack,
    Post,
}

/// One block of a test message: its length and mode pair.
type BlockSpec = (usize, SendMode, RecvMode);

/// What one shipped message looked like from both ends.
struct Shipped {
    /// The blocks node 1 unpacked.
    got: Vec<Vec<u8>>,
    /// Node 0's counters and per-TM `(tm, buffers, bytes)` traffic.
    stats: StatsSnapshot,
    tm_traffic: Vec<(u8, u64, u64)>,
    /// Node 0's clock once the message is out; node 1's after
    /// `end_unpacking`.
    sent_at: VTime,
    received_at: VTime,
}

/// Ship one message of `blocks` (block `i` is `pattern(len + i)`) from
/// node 0 to node 1 in a world whose generic layer costs `host`. `held`: node 1
/// starts receiving only once node 0 has the whole message out (for a
/// message whose send needs nothing from the receiver).
fn ship(
    protocol: Protocol,
    rails: usize,
    blocks: &[BlockSpec],
    (path, held): (Path, bool),
    host: HostModel,
) -> Shipped {
    let (world, config) = world(
        protocol,
        rails,
        Calib {
            host,
            ..Calib::PAPER
        },
    );
    let blocks = blocks.to_vec();
    let mut out = world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let ch = mad.channel("ch");
        let data = blocks.iter().enumerate();
        let mut data: Vec<Vec<u8>> = data
            .map(|(i, b)| pattern(b.0 + i)[..b.0].to_vec())
            .collect();
        if env.id() == 0 {
            match path {
                Path::Pack => {
                    let mut msg = ch.begin_packing(1);
                    for (d, b) in data.iter().zip(&blocks) {
                        msg.pack(d, b.1, b.2);
                    }
                    msg.end_packing();
                }
                Path::Post => {
                    let owned = data.drain(..).zip(&blocks);
                    let owned = owned.map(|(d, b)| (Bytes::from(d), b.1, b.2)).collect();
                    let id = ch.post_message(1, owned);
                    ch.wait_op(id).expect("posted message completes");
                }
            }
            if held {
                env.barrier();
            }
            let stats = ch.stats();
            (
                Vec::new(),
                Some((stats.snapshot(), stats.tm_breakdown())),
                time::now(),
            )
        } else {
            data.iter_mut().for_each(|d| d.fill(0));
            if held {
                env.barrier();
            }
            let mut msg = ch.begin_unpacking();
            for (d, b) in data.iter_mut().zip(&blocks) {
                msg.unpack(d, b.1, b.2);
            }
            msg.end_unpacking();
            (data, None, time::now())
        }
    });
    let (stats, tm_traffic) = out[0].1.take().expect("node 0 reports its counters");
    Shipped {
        got: std::mem::take(&mut out[1].0),
        stats,
        tm_traffic,
        sent_at: out[0].2,
        received_at: out[1].2,
    }
}

/// Ship one `(CHEAPER, CHEAPER)` block of `len` bytes; returns what node 1
/// unpacked and how many stripes node 0 counted.
fn ship_block(protocol: Protocol, rails: usize, len: usize, path: Path) -> (Vec<u8>, u64) {
    let block = [(len, CHEAPER.0, CHEAPER.1)];
    let mut s = ship(protocol, rails, &block, (path, false), HostModel::default());
    (s.got.remove(0), s.stats.stripes)
}

/// `post_message` books the generic layer's per-call costs — one begin,
/// a pack per block, one end — before its first frame leaves; the blocking
/// calls book them between the frames. That bookkeeping is the only thing
/// the two drivers of the send cursor do differently, so with it zeroed
/// (copies and every protocol cost stay modelled) a posted message and a
/// packed one are the same message: same buffers, commits, gathers and
/// per-TM traffic, the sender done at the same instant, and the
/// receiver's `end_unpacking` instant equal to the nanosecond. Two things
/// a block can add, both spelled out below: packing a `send_SAFER` block
/// into an aggregating BMM copies it, where the op was handed bytes it
/// owns; and BIP's rendezvous of a posted long block is anchored at the
/// CTS instead of holding the thread's clock, so what is packed behind it
/// leaves earlier.
#[test]
fn posted_message_equals_packed_message_on_every_protocol() {
    use Protocol::*;
    let host = HostModel {
        pack_op_us: 0.0,
        begin_op_us: 0.0,
        end_op_us: 0.0,
        ..HostModel::default()
    };
    const SAFER_LEN: usize = 40;
    let mixed = vec![
        (8, SendMode::Cheaper, RecvMode::Express),
        (100, CHEAPER.0, CHEAPER.1),
        (100, CHEAPER.0, CHEAPER.1),
        (100, CHEAPER.0, CHEAPER.1),
        (2048, CHEAPER.0, CHEAPER.1),
        (SAFER_LEN, SendMode::Safer, RecvMode::Cheaper),
    ];
    let uniform = |k: usize| vec![(64, CHEAPER.0, CHEAPER.1); k];
    let messages = [uniform(1), uniform(4), uniform(64), mixed];
    for protocol in [Sisci, Tcp, Bip, Sbp, Via] {
        for blocks in &messages {
            let what = format!("{protocol:?}, {} blocks", blocks.len());
            let is_mixed = blocks.len() == 6;
            // BIP's credit returns reach the sender's clock if they arrive,
            // in real time, before its last buffers leave: the receiver of
            // a message that needs none of them is held back.
            let held = protocol == Bip && !is_mixed;
            let pack = ship(protocol, 1, blocks, (Path::Pack, held), host);
            let post = ship(protocol, 1, blocks, (Path::Post, held), host);
            let expect = blocks.iter().enumerate();
            let expect: Vec<_> = expect
                .map(|(i, b)| pattern(b.0 + i)[..b.0].to_vec())
                .collect();
            assert_eq!(post.got, expect, "{what}: received bytes");
            assert_eq!(pack.got, expect, "{what}: received bytes");
            let captured = is_mixed && matches!(protocol, Sisci | Tcp);
            let counts = |s: &StatsSnapshot| (s.buffers_sent, s.commits, s.gathers, s.copies);
            let mut posted = counts(&post.stats);
            posted.3 += captured as u64;
            assert_eq!(
                posted,
                counts(&pack.stats),
                "{what}: buffers, commits, gathers, copies"
            );
            assert_eq!(post.tm_traffic, pack.tm_traffic, "{what}: per-TM traffic");
            if is_mixed && protocol == Bip {
                assert!(post.sent_at <= pack.sent_at, "{what}: sender");
                assert!(post.received_at <= pack.received_at, "{what}: receiver");
                continue;
            }
            let capture = if captured {
                host.memcpy(SAFER_LEN)
            } else {
                VDuration::ZERO
            };
            assert_eq!(
                post.sent_at + capture,
                pack.sent_at,
                "{what}: sender's clock"
            );
            // The receiver sees the capture only if it was waiting for the
            // commit behind it.
            let late = pack.received_at.saturating_since(post.received_at);
            assert!(
                post.received_at <= pack.received_at
                    && (late == VDuration::ZERO || late == capture),
                "{what}: receiver finished at {:?} posted, {:?} packed",
                post.received_at,
                pack.received_at
            );
        }
    }
}

#[test]
fn blocks_arrive_byte_identical_through_both_send_paths() {
    let t = DEFAULT_STRIPE_THRESHOLD;
    for rails in [2, 3] {
        for len in [t, t + 1, MIB, MIB + 17] {
            for path in [Path::Pack, Path::Post] {
                let (got, stripes) = ship_block(Protocol::Bip, rails, len, path);
                assert_eq!(stripes, 1, "{rails} rails, {len} B, {path:?}: not striped");
                let bad = got.iter().zip(pattern(len)).position(|(a, b)| *a != b);
                assert_eq!(bad, None, "{rails} rails, {len} B, {path:?}: corrupted");
            }
        }
    }
}

/// Only BIP's TMs hand back a continuation to park on (a credit, a CTS);
/// the other protocols' posts are their blocking sends and complete
/// inside the call, SISCI's only once the receiver has
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
                    let (got, stripes) = ship_block(protocol, rails, len, path);
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
    let fast_bus = |row: Row| Row {
        bus_per_byte_us: 0.0019,
        ..row
    };
    let calib = Calib {
        bip_short: fast_bus(Calib::PAPER.bip_short),
        bip_long: fast_bus(Calib::PAPER.bip_long),
        ..Calib::PAPER
    };
    let landed_us = |rails: usize| {
        let (world, config) = world(Protocol::Bip, rails, calib);
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
