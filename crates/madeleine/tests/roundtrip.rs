//! End-to-end pack/unpack round trips over every protocol driver.

use madeleine::{Config, Madeleine, Protocol, RecvMode, SendMode};
use madsim_net::{Calib, NetKind, Row, WorldBuilder};

fn world_for(protocol: Protocol) -> (madsim_net::World, Config) {
    let mut b = WorldBuilder::new(2);
    let (net, kind) = match protocol {
        Protocol::Tcp | Protocol::Sbp => ("eth0", NetKind::Ethernet),
        Protocol::Bip => ("myr0", NetKind::Myrinet),
        Protocol::Sisci => ("sci0", NetKind::Sci),
        Protocol::Via => ("san0", NetKind::ViaSan),
    };
    b.network(net, kind, &[0, 1]);
    (b.build(), Config::one("ch", net, protocol))
}

fn patterned(n: usize, seed: u8) -> Vec<u8> {
    (0..n)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
        .collect()
}

/// Figure-1 style message: EXPRESS length header, CHEAPER payload.
fn roundtrip_sizes(protocol: Protocol, sizes: &[usize]) {
    let (world, config) = world_for(protocol);
    let sizes: Vec<usize> = sizes.to_vec();
    world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let ch = mad.channel("ch");
        for (k, &n) in sizes.iter().enumerate() {
            let data = patterned(n, k as u8);
            if env.id() == 0 {
                let len = (n as u32).to_le_bytes();
                let mut msg = ch.begin_packing(1);
                msg.pack(&len, SendMode::Cheaper, RecvMode::Express);
                msg.pack(&data, SendMode::Cheaper, RecvMode::Cheaper);
                msg.end_packing();
            } else {
                let mut msg = ch.begin_unpacking();
                assert_eq!(msg.src(), 0);
                let mut len = [0u8; 4];
                msg.unpack_express(&mut len, SendMode::Cheaper);
                assert_eq!(u32::from_le_bytes(len) as usize, n, "size {n}");
                let mut got = vec![0u8; n];
                msg.unpack(&mut got, SendMode::Cheaper, RecvMode::Cheaper);
                msg.end_unpacking();
                assert_eq!(got, data, "payload mismatch at size {n}");
            }
        }
    });
}

const SIZES: &[usize] = &[
    1, 4, 16, 100, 511, 512, 513, 1023, 1024, 4096, 8192, 8193, 20000, 65536, 300_000,
];

#[test]
fn roundtrip_sisci() {
    roundtrip_sizes(Protocol::Sisci, SIZES);
}

#[test]
fn roundtrip_bip() {
    roundtrip_sizes(Protocol::Bip, SIZES);
}

#[test]
fn roundtrip_tcp() {
    roundtrip_sizes(Protocol::Tcp, SIZES);
}

#[test]
fn roundtrip_via() {
    roundtrip_sizes(Protocol::Via, SIZES);
}

#[test]
fn roundtrip_sbp() {
    roundtrip_sizes(Protocol::Sbp, SIZES);
}

#[test]
fn roundtrip_sisci_dma_enabled() {
    let (world, config) = world_for(Protocol::Sisci);
    let config = config.with_sci_dma(true);
    world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let ch = mad.channel("ch");
        let data = patterned(100_000, 7);
        if env.id() == 0 {
            let mut msg = ch.begin_packing(1);
            msg.pack(&data, SendMode::Cheaper, RecvMode::Cheaper);
            msg.end_packing();
        } else {
            let mut got = vec![0u8; data.len()];
            let mut msg = ch.begin_unpacking();
            msg.unpack(&mut got, SendMode::Cheaper, RecvMode::Cheaper);
            msg.end_unpacking();
            assert_eq!(got, data);
        }
    });
}

/// All nine (send, recv) mode combinations round-trip.
#[test]
fn all_mode_combinations() {
    for protocol in [Protocol::Sisci, Protocol::Bip, Protocol::Tcp] {
        let (world, config) = world_for(protocol);
        world.run(move |env| {
            let mad = Madeleine::init(&env, &config);
            let ch = mad.channel("ch");
            let smodes = [SendMode::Safer, SendMode::Later, SendMode::Cheaper];
            let rmodes = [RecvMode::Express, RecvMode::Cheaper];
            for (i, &s) in smodes.iter().enumerate() {
                for (j, &r) in rmodes.iter().enumerate() {
                    let data = patterned(2000 + i * 100 + j, (i * 2 + j) as u8);
                    if env.id() == 0 {
                        let mut msg = ch.begin_packing(1);
                        msg.pack(&data, s, r);
                        msg.end_packing();
                    } else {
                        let mut got = vec![0u8; data.len()];
                        let mut msg = ch.begin_unpacking();
                        msg.unpack(&mut got, s, r);
                        msg.end_unpacking();
                        assert_eq!(got, data, "modes {s}/{r} on {protocol:?}");
                    }
                }
            }
        });
    }
}

/// Many blocks per message, mixed sizes and modes, forcing TM switches.
#[test]
fn multi_block_messages_with_tm_switches() {
    for protocol in [
        Protocol::Sisci,
        Protocol::Bip,
        Protocol::Tcp,
        Protocol::Via,
        Protocol::Sbp,
    ] {
        let (world, config) = world_for(protocol);
        world.run(move |env| {
            let mad = Madeleine::init(&env, &config);
            let ch = mad.channel("ch");
            // small, big, small, big, small: exercises commit-on-switch.
            let blocks: Vec<Vec<u8>> = [17usize, 9000, 33, 40000, 250]
                .iter()
                .enumerate()
                .map(|(i, &n)| patterned(n, i as u8))
                .collect();
            if env.id() == 0 {
                let mut msg = ch.begin_packing(1);
                for (i, b) in blocks.iter().enumerate() {
                    let r = if i % 2 == 0 {
                        RecvMode::Express
                    } else {
                        RecvMode::Cheaper
                    };
                    msg.pack(b, SendMode::Cheaper, r);
                }
                msg.end_packing();
            } else {
                let mut bufs: Vec<Vec<u8>> = blocks.iter().map(|b| vec![0u8; b.len()]).collect();
                let mut msg = ch.begin_unpacking();
                for (i, buf) in bufs.iter_mut().enumerate() {
                    let r = if i % 2 == 0 {
                        RecvMode::Express
                    } else {
                        RecvMode::Cheaper
                    };
                    msg.unpack(buf, SendMode::Cheaper, r);
                }
                msg.end_unpacking();
                for (got, want) in bufs.iter().zip(blocks.iter()) {
                    assert_eq!(got, want, "protocol {protocol:?}");
                }
            }
        });
    }
}

/// Several messages back-to-back keep connection state (sequence numbers,
/// ring positions, credits) consistent.
#[test]
fn message_stream_state_is_stable() {
    for protocol in [Protocol::Sisci, Protocol::Bip, Protocol::Via] {
        let (world, config) = world_for(protocol);
        world.run(move |env| {
            let mad = Madeleine::init(&env, &config);
            let ch = mad.channel("ch");
            for k in 0..50usize {
                let data = patterned(1 + (k * 97) % 5000, k as u8);
                if env.id() == 0 {
                    let mut msg = ch.begin_packing(1);
                    msg.pack(&data, SendMode::Cheaper, RecvMode::Cheaper);
                    msg.end_packing();
                } else {
                    let mut got = vec![0u8; data.len()];
                    let mut msg = ch.begin_unpacking();
                    msg.unpack(&mut got, SendMode::Cheaper, RecvMode::Cheaper);
                    msg.end_unpacking();
                    assert_eq!(got, data, "message {k} on {protocol:?}");
                }
            }
        });
    }
}

/// Bidirectional traffic on one channel.
#[test]
fn bidirectional_pingpong() {
    for protocol in [Protocol::Sisci, Protocol::Bip, Protocol::Tcp] {
        let (world, config) = world_for(protocol);
        world.run(move |env| {
            let mad = Madeleine::init(&env, &config);
            let ch = mad.channel("ch");
            let payload = patterned(3000, 5);
            for _ in 0..10 {
                if env.id() == 0 {
                    let mut msg = ch.begin_packing(1);
                    msg.pack(&payload, SendMode::Cheaper, RecvMode::Cheaper);
                    msg.end_packing();
                    let mut back = vec![0u8; payload.len()];
                    let mut msg = ch.begin_unpacking();
                    msg.unpack(&mut back, SendMode::Cheaper, RecvMode::Cheaper);
                    msg.end_unpacking();
                    assert_eq!(back, payload);
                } else {
                    let mut got = vec![0u8; payload.len()];
                    let mut msg = ch.begin_unpacking();
                    msg.unpack(&mut got, SendMode::Cheaper, RecvMode::Cheaper);
                    msg.end_unpacking();
                    let mut msg = ch.begin_packing(0);
                    msg.pack(&got, SendMode::Cheaper, RecvMode::Cheaper);
                    msg.end_packing();
                }
            }
        });
    }
}

/// Two channels over the same adapter do not interfere (paper §2.1).
#[test]
fn channels_are_independent() {
    let mut b = WorldBuilder::new(2);
    b.network("sci0", NetKind::Sci, &[0, 1]);
    let world = b.build();
    let config =
        Config::one("a", "sci0", Protocol::Sisci).with_channel("b", "sci0", Protocol::Sisci);
    world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let (ca, cb) = (mad.channel("a"), mad.channel("b"));
        let da = patterned(600, 1);
        let db = patterned(700, 2);
        if env.id() == 0 {
            // Send on b first, then a; receiver reads a first.
            let mut mb = cb.begin_packing(1);
            mb.pack(&db, SendMode::Cheaper, RecvMode::Cheaper);
            mb.end_packing();
            let mut ma = ca.begin_packing(1);
            ma.pack(&da, SendMode::Cheaper, RecvMode::Cheaper);
            ma.end_packing();
        } else {
            let mut ga = vec![0u8; da.len()];
            let mut ma = ca.begin_unpacking();
            ma.unpack(&mut ga, SendMode::Cheaper, RecvMode::Cheaper);
            ma.end_unpacking();
            assert_eq!(ga, da);
            let mut gb = vec![0u8; db.len()];
            let mut mb = cb.begin_unpacking();
            mb.unpack(&mut gb, SendMode::Cheaper, RecvMode::Cheaper);
            mb.end_unpacking();
            assert_eq!(gb, db);
        }
    });
}

/// Three-node traffic: two senders, one receiver, any-source reception.
#[test]
fn any_source_reception() {
    for protocol in [Protocol::Sisci, Protocol::Bip, Protocol::Tcp] {
        let mut b = WorldBuilder::new(3);
        let (net, kind) = match protocol {
            Protocol::Tcp => ("eth0", NetKind::Ethernet),
            Protocol::Bip => ("myr0", NetKind::Myrinet),
            _ => ("sci0", NetKind::Sci),
        };
        b.network(net, kind, &[0, 1, 2]);
        let world = b.build();
        let config = Config::one("ch", net, protocol);
        world.run(move |env| {
            let mad = Madeleine::init(&env, &config);
            let ch = mad.channel("ch");
            if env.id() < 2 {
                let data = patterned(900, env.id() as u8);
                let mut msg = ch.begin_packing(2);
                msg.pack(&data, SendMode::Cheaper, RecvMode::Cheaper);
                msg.end_packing();
            } else {
                let mut seen = Vec::new();
                for _ in 0..2 {
                    let mut got = vec![0u8; 900];
                    let mut msg = ch.begin_unpacking();
                    let src = msg.src();
                    msg.unpack(&mut got, SendMode::Cheaper, RecvMode::Cheaper);
                    msg.end_unpacking();
                    assert_eq!(got, patterned(900, src as u8));
                    seen.push(src);
                }
                seen.sort_unstable();
                assert_eq!(seen, vec![0, 1]);
            }
        });
    }
}

/// One SISCI stream past 4 GiB: its 32-bit positions and flag words wrap,
/// and the stream carries on in order (each 1 MiB message is stamped with
/// its index; the last is compared whole). The PIO rows' bus cost is zeroed
/// so the host bus books no span per chunk: this is about stream counters,
/// not about bus contention.
#[test]
fn sisci_stream_runs_past_4_gib() {
    const MSG: usize = 1 << 20;
    const N: u64 = (4 << 10) + 1;
    let sci_pio = Row {
        bus_per_byte_us: 0.0,
        ..Calib::PAPER.sci_pio
    };
    let mut b = WorldBuilder::new(2).calib(Calib {
        sci_pio,
        ..Calib::PAPER
    });
    b.network("sci0", NetKind::Sci, &[0, 1]);
    let (world, config) = (b.build(), Config::one("ch", "sci0", Protocol::Sisci));
    world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let ch = mad.channel("ch");
        let mut data = patterned(MSG, 7);
        let mut got = vec![0u8; MSG];
        for k in 0..N {
            if env.id() == 0 {
                data[..8].copy_from_slice(&k.to_le_bytes());
                let mut msg = ch.begin_packing(1);
                msg.pack(&data, SendMode::Cheaper, RecvMode::Cheaper);
                msg.end_packing();
            } else {
                let mut msg = ch.begin_unpacking();
                msg.unpack(&mut got, SendMode::Cheaper, RecvMode::Cheaper);
                msg.end_unpacking();
                assert_eq!(got[..8], k.to_le_bytes(), "message {k} out of order");
            }
        }
        if env.id() == 1 {
            data[..8].copy_from_slice(&(N - 1).to_le_bytes());
            assert!(got == data, "last message corrupted");
        }
    });
}
