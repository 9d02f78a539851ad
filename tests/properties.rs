//! Seeded property tests over the core invariants.
//!
//! Each property is a function of a [`Gen`] — that is, of `(seed, size)` —
//! run by [`check`] over a fixed number of seeds; a failure is shrunk and names
//! the `(seed, size)` to add to the property's regression list (see the
//! `mad_integration` lib). Worlds spawn real threads, so case counts are
//! kept deliberately small; each case still exercises the full stack end
//! to end.

use mad_integration::{check, Gen};
use madeleine::{ChannelSpec, Config, Madeleine, Protocol, RecvMode, SendMode};
use madsim_net::{NetKind, WorldBuilder};

/// Worlds each world-spawning property builds, and cases per substrate property.
const WORLDS: u64 = 24;
const CASES: u64 = 64;

const PROTOCOLS: [Protocol; 5] = [
    Protocol::Sisci,
    Protocol::Bip,
    Protocol::Tcp,
    Protocol::Via,
    Protocol::Sbp,
];

fn smode(sel: u8) -> SendMode {
    match sel % 3 {
        0 => SendMode::Safer,
        1 => SendMode::Later,
        _ => SendMode::Cheaper,
    }
}

fn rmode(sel: u8) -> RecvMode {
    if sel % 2 == 0 {
        RecvMode::Express
    } else {
        RecvMode::Cheaper
    }
}

/// A randomly-shaped message: 1 to 7 blocks of `(len, smode selector,
/// rmode selector)`, made legal by [`sanitize`].
fn message_shape(g: &mut Gen) -> Vec<(usize, SendMode, RecvMode)> {
    let blocks: Vec<(usize, u8, u8)> = (0..g.len(1..8))
        .map(|_| (g.len(0..20_000), g.u64() as u8, g.u64() as u8))
        .collect();
    sanitize(&blocks)
}

/// A two-node world on the fabric `protocol` runs on, and channel "ch" over it.
fn pair_over(protocol: Protocol) -> (madsim_net::World, Config) {
    let (net, kind) = match protocol {
        Protocol::Tcp | Protocol::Sbp => ("eth0", NetKind::Ethernet),
        Protocol::Bip => ("myr0", NetKind::Myrinet),
        Protocol::Sisci => ("sci0", NetKind::Sci),
        Protocol::Via => ("san0", NetKind::ViaSan),
    };
    let mut b = WorldBuilder::new(2);
    b.network(net, kind, &[0, 1]);
    (b.build(), Config::one("ch", net, protocol))
}

/// One LATER block per message at most: LATER followed by EXPRESS on a
/// *later* block would let the receiver demand data the sender may not
/// send before commit while the sender still holds earlier LATER blocks —
/// legal but we keep shapes that terminate quickly.
fn sanitize(blocks: &[(usize, u8, u8)]) -> Vec<(usize, SendMode, RecvMode)> {
    let mut later_seen = false;
    blocks
        .iter()
        .map(|&(len, s, r)| {
            let mut sm = smode(s);
            if sm == SendMode::Later {
                if later_seen {
                    sm = SendMode::Cheaper;
                }
                later_seen = true;
            }
            let rm = if later_seen {
                RecvMode::Cheaper
            } else {
                rmode(r)
            };
            (len, sm, rm)
        })
        .collect()
}

/// Send `blocks` from node 0 — packed, or `posted` as one nonblocking op —
/// unpack them on node 1, compare byte for byte. Block `k`'s byte `i` is
/// `fill(i, k)`.
fn roundtrip(
    world: madsim_net::World,
    config: Config,
    blocks: Vec<(usize, SendMode, RecvMode)>,
    posted: bool,
    fill: fn(usize, usize) -> u8,
) {
    world.run(|env| {
        let mad = Madeleine::init(&env, &config);
        let ch = mad.channel("ch");
        let payloads: Vec<Vec<u8>> = blocks
            .iter()
            .enumerate()
            .map(|(k, &(len, _, _))| (0..len).map(|i| fill(i, k)).collect())
            .collect();
        if env.id() == 0 && posted {
            let owned = payloads.into_iter().zip(&blocks);
            let owned = owned.map(|(p, &(_, sm, rm))| (p.into(), sm, rm));
            let id = ch.post_message(1, owned.collect());
            ch.wait_op(id).expect("posted message completes");
        } else if env.id() == 0 {
            let mut msg = ch.begin_packing(1);
            for (payload, &(_, sm, rm)) in payloads.iter().zip(&blocks) {
                msg.pack(payload, sm, rm);
            }
            msg.end_packing();
        } else {
            let mut bufs: Vec<Vec<u8>> = payloads.iter().map(|p| vec![0u8; p.len()]).collect();
            let mut msg = ch.begin_unpacking();
            for (buf, &(_, sm, rm)) in bufs.iter_mut().zip(&blocks) {
                msg.unpack(buf, sm, rm);
            }
            msg.end_unpacking();
            for (got, want) in bufs.iter().zip(&payloads) {
                assert_eq!(got, want, "shape {blocks:?}, posted: {posted}");
            }
        }
    });
}

/// Any symmetric pack/unpack sequence round-trips byte-exact over any
/// protocol, for every mode combination, through either send path.
#[test]
fn arbitrary_messages_roundtrip() {
    check("arbitrary_messages_roundtrip", WORLDS, &[], |g| {
        let blocks = message_shape(g);
        let (world, config) = pair_over(g.pick(&PROTOCOLS));
        roundtrip(world, config, blocks, g.pick(&[false, true]), |i, k| {
            (i as u8).wrapping_add(k as u8)
        });
    });
}

/// Multirail channels are transparent: any symmetric pack/unpack
/// sequence round-trips byte-exact over 1, 2, or 3 rails, for every
/// mode combination — including blocks large enough to stripe (the
/// threshold is forced low so the stripe engine actually runs).
#[test]
fn multirail_messages_roundtrip() {
    check("multirail_messages_roundtrip", WORLDS, &[], |g| {
        let blocks = message_shape(g);
        let rails = g.pick(&[1, 2, 3]);
        let (protocol, net, kind) = g.pick(&[
            (Protocol::Bip, "myr0", NetKind::Myrinet),
            (Protocol::Tcp, "eth0", NetKind::Ethernet),
        ]);
        let mut b = WorldBuilder::new(2);
        b.network_with_rails(net, kind, &[0, 1], rails);
        let config = Config::default().with_channel_spec(
            ChannelSpec::new("ch", net, protocol)
                .with_rails(rails)
                .with_striping(4096, 2048),
        );
        roundtrip(b.build(), config, blocks, g.pick(&[false, true]), |i, k| {
            (i as u8).wrapping_mul(3).wrapping_add(k as u8)
        });
    });
}

/// Message boundaries survive arbitrary message trains: k messages of
/// random sizes arrive intact and in order.
#[test]
fn message_trains_stay_framed() {
    check("message_trains_stay_framed", WORLDS, &[], |g| {
        let sizes: Vec<usize> = (0..g.len(1..12)).map(|_| g.len(0..30_000)).collect();
        let protocol = g.pick(&PROTOCOLS);
        let (world, config) = pair_over(protocol);
        world.run(|env| {
            let mad = Madeleine::init(&env, &config);
            let ch = mad.channel("ch");
            for (k, &n) in sizes.iter().enumerate() {
                let data: Vec<u8> = (0..n).map(|i| (i as u8) ^ (k as u8)).collect();
                if env.id() == 0 {
                    let mut msg = ch.begin_packing(1);
                    msg.pack(&data, SendMode::Cheaper, RecvMode::Cheaper);
                    msg.end_packing();
                } else {
                    let mut got = vec![0u8; n];
                    let mut msg = ch.begin_unpacking();
                    msg.unpack(&mut got, SendMode::Cheaper, RecvMode::Cheaper);
                    msg.end_unpacking();
                    assert_eq!(got, data, "message {k} over {protocol:?}");
                }
            }
        });
    });
}

/// Virtual-channel fragmentation reassembles for arbitrary MTUs.
#[test]
fn fragmentation_reassembles_for_any_mtu() {
    use mad_gateway::{Gateway, VirtualChannel, VirtualChannelSpec};
    check("fragmentation_reassembles_for_any_mtu", WORLDS, &[], |g| {
        let (mtu, len) = (g.len(512..16_384), g.len(0..120_000));
        let mut b = WorldBuilder::new(3);
        b.network("sci0", NetKind::Sci, &[0, 1]);
        b.network("myr0", NetKind::Myrinet, &[1, 2]);
        let config =
            Config::one("sci", "sci0", Protocol::Sisci).with_channel("myr", "myr0", Protocol::Bip);
        b.build().run(|env| {
            let mad = Madeleine::init(&env, &config);
            let spec = VirtualChannelSpec::new("vc", &["sci", "myr"], mtu);
            let gw = Gateway::spawn(&env, &mad, &config, &spec);
            let vc = VirtualChannel::open(&env, &mad, &config, &spec);
            if env.id() == 0 {
                let vc = vc.expect("endpoint");
                let data: Vec<u8> = (0..len).map(|i| (i % 253) as u8).collect();
                let mut msg = vc.begin_packing(2);
                msg.pack(&data, SendMode::Cheaper, RecvMode::Cheaper);
                msg.end_packing();
            } else if env.id() == 2 {
                let vc = vc.expect("endpoint");
                let mut got = vec![0u8; len];
                let mut msg = vc.begin_unpacking();
                msg.unpack(&mut got, SendMode::Cheaper, RecvMode::Cheaper);
                msg.end_unpacking();
                assert!(got.iter().enumerate().all(|(i, &b)| b == (i % 253) as u8));
            }
            env.barrier();
            if let Some(gw) = gw {
                gw.stop();
            }
        });
    });
}

// ---------------- substrate-level properties ----------------

/// Walking a random linear chain with `next_leg` always reaches the
/// destination, never revisits a node, and crosses only gateways.
#[test]
fn routes_always_converge() {
    use mad_gateway::Route;
    check("routes_always_converge", CASES, &[], |g| {
        // Build a linear chain: hop i shares exactly its last node with
        // hop i+1.
        let mut hops = Vec::new();
        let mut next_node = 0usize;
        for i in 0..g.len(2..6) {
            let extra = g.len(1..4);
            let start = if i == 0 { next_node } else { next_node - 1 };
            hops.push((start..start + extra + 1).collect::<Vec<usize>>());
            next_node = start + extra + 1;
        }
        let route = Route::new(hops);
        let all = route.all_members();
        let src = all[g.u64() as usize % all.len()];
        let dst = all[g.u64() as usize % all.len()];
        if src == dst {
            return;
        }
        let mut at = src;
        let mut visited = vec![at];
        for _ in 0..all.len() + 2 {
            let (_, next) = route.next_leg(at, dst);
            assert!(!visited.contains(&next), "routing loop at {next}");
            visited.push(next);
            at = next;
            if at == dst {
                break;
            }
            assert!(
                !route.gateway_positions(at).is_empty(),
                "intermediate node {at} must be a gateway"
            );
        }
        assert_eq!(at, dst, "route from {src} to {dst} did not converge");
    });
}

/// Fragment headers round-trip for every field value.
#[test]
fn frag_headers_roundtrip() {
    use mad_gateway::FragHeader;
    check("frag_headers_roundtrip", CASES, &[], |g| {
        let h = FragHeader {
            src: g.len(0..256),
            dst: g.len(0..256),
            len: g.len(0..1 << 24),
            offset: g.len(0..1 << 24),
        };
        assert_eq!(FragHeader::from_wire(&h.to_wire()).unwrap(), h);
    });
}

/// PerfCurve interpolation stays within the bracketing anchors and is
/// monotone in size.
#[test]
fn perf_curve_is_sane() {
    use madsim_net::PerfCurve;
    check("perf_curve_is_sane", CASES, &[], |g| {
        let mut anchors: Vec<(usize, usize)> = (0..g.len(2..8))
            .map(|_| (g.len(1..1_000_000), g.len(1..1_000_000)))
            .collect();
        let mut queries: Vec<usize> = (0..g.len(1..16)).map(|_| g.len(0..2_000_000)).collect();
        anchors.sort_unstable();
        anchors.dedup_by_key(|a| a.0);
        if anchors.len() < 2 {
            return;
        }
        // Make times strictly increasing.
        let mut t = 0.0f64;
        let anchors: Vec<(usize, f64)> = anchors
            .into_iter()
            .map(|(x, dt)| {
                t += dt as f64 / 1000.0 + 0.001;
                (x, t)
            })
            .collect();
        let curve = PerfCurve::from_anchors(&anchors);
        let mut prev: Option<(usize, f64)> = None;
        queries.sort_unstable();
        for q in queries {
            let y = curve.time_for(q).as_micros_f64();
            if let Some((px, py)) = prev {
                if q >= px {
                    assert!(
                        y >= py - 1e-6,
                        "time not monotone: t({q})={y} < t({px})={py}"
                    );
                }
            }
            prev = Some((q, y));
            // Within the anchored domain, the value is bracketed.
            for w in anchors.windows(2) {
                if q >= w[0].0 && q <= w[1].0 {
                    assert!(y >= w[0].1 - 1e-6 && y <= w[1].1 + 1e-6);
                }
            }
        }
    });
}

/// The PCI bus timeline serializes: no transfer finishes earlier than
/// its asked start plus its base duration, and DMA transfers occupy
/// pairwise-disjoint busy spans on the bus. Completion times are *not*
/// required to be non-decreasing in booking order: the timeline
/// backfills gaps, so a later booking asking for an earlier virtual
/// instant may legitimately finish before an earlier booking.
#[test]
fn pci_bus_serializes() {
    use madsim_net::time::{VDuration, VTime};
    use madsim_net::{BusDir, BusKind, PciBus, PciConfig};
    check("pci_bus_serializes", CASES, &[], |g| {
        let bus = PciBus::new(PciConfig::default());
        // DMA durations are never inflated, so each DMA's busy span is
        // exactly [end - dur, end]; PIO spans stretch under contention and
        // are not reconstructible from the return value alone.
        let mut dma_spans: Vec<(VTime, VTime)> = Vec::new();
        for _ in 0..g.len(1..32) {
            let start = VTime::from_nanos(g.len(0..10_000) as u64 * 1_000);
            let dur = VDuration::from_micros(g.len(1..1_000) as u64);
            let (pio, inbound) = (g.bool(), g.bool());
            let kind = if pio { BusKind::Pio } else { BusKind::Dma };
            let dir = if inbound {
                BusDir::Inbound
            } else {
                BusDir::Outbound
            };
            let end = bus.transfer(kind, dir, start, dur);
            assert!(end >= start + dur, "transfer finished early");
            if !pio {
                dma_spans.push((end.saturating_sub(dur), end));
            }
        }
        dma_spans.sort();
        for w in dma_spans.windows(2) {
            assert!(w[0].1 <= w[1].0, "DMA transfers overlap on the bus");
        }
    });
}

#[derive(Clone, Debug)]
enum Item {
    U32(u32),
    F64(f64),
    Bytes(Vec<u8>),
}

/// Nexus marshaling round-trips arbitrary value sequences (floats drawn
/// as raw bit patterns: NaNs, infinities and subnormals included).
#[test]
fn nexus_marshaling_roundtrips() {
    use mad_nexus::{GetBuffer, PutBuffer};
    check("nexus_marshaling_roundtrips", CASES, &[], |g| {
        let items: Vec<Item> = (0..g.len(0..16))
            .map(|_| match g.u64() % 3 {
                0 => Item::U32(g.u64() as u32),
                1 => Item::F64(f64::from_bits(g.u64())),
                _ => Item::Bytes(g.bytes(0..200)),
            })
            .collect();
        let mut put = PutBuffer::new();
        for it in &items {
            match it {
                Item::U32(v) => put.put_u32(*v),
                Item::F64(v) => put.put_f64(*v),
                Item::Bytes(v) => put.put_bytes(v),
            };
        }
        let mut get = GetBuffer::new(put.as_slice());
        for it in &items {
            match it {
                Item::U32(v) => assert_eq!(get.get_u32(), *v),
                Item::F64(v) => assert_eq!(get.get_f64().to_bits(), v.to_bits()),
                Item::Bytes(v) => assert_eq!(get.get_bytes(), v.as_slice()),
            }
        }
    });
}
