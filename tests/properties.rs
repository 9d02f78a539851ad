//! Property-based tests over the core invariants (proptest).
//!
//! Worlds spawn real threads, so case counts are kept deliberately small;
//! each case still exercises the full stack end to end.

use madeleine::{ChannelSpec, Config, Madeleine, Protocol, RecvMode, SendMode};
use madsim_net::{NetKind, WorldBuilder};
use proptest::prelude::*;

/// A randomly-shaped message: block sizes plus mode selectors.
#[derive(Clone, Debug)]
struct MsgShape {
    blocks: Vec<(usize, u8, u8)>, // (len, smode selector, rmode selector)
}

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

fn shape_strategy() -> impl Strategy<Value = MsgShape> {
    prop::collection::vec((0usize..20_000, any::<u8>(), any::<u8>()), 1..8)
        .prop_map(|blocks| MsgShape { blocks })
}

fn protocol_strategy() -> impl Strategy<Value = Protocol> {
    prop_oneof![
        Just(Protocol::Sisci),
        Just(Protocol::Bip),
        Just(Protocol::Tcp),
        Just(Protocol::Via),
        Just(Protocol::Sbp),
    ]
}

fn net_for(protocol: Protocol) -> (&'static str, NetKind) {
    match protocol {
        Protocol::Tcp | Protocol::Sbp => ("eth0", NetKind::Ethernet),
        Protocol::Bip => ("myr0", NetKind::Myrinet),
        Protocol::Sisci => ("sci0", NetKind::Sci),
        Protocol::Via => ("san0", NetKind::ViaSan),
    }
}

/// One LATER block per message at most: LATER followed by EXPRESS on a
/// *later* block would let the receiver demand data the sender may not
/// send before commit while the sender still holds earlier LATER blocks —
/// legal but we keep shapes that terminate quickly.
fn sanitize(shape: &MsgShape) -> Vec<(usize, SendMode, RecvMode)> {
    let mut later_seen = false;
    shape
        .blocks
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

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24,
        max_shrink_iters: 32,
        .. ProptestConfig::default()
    })]

    /// Any symmetric pack/unpack sequence round-trips byte-exact over any
    /// protocol, for every mode combination.
    #[test]
    fn arbitrary_messages_roundtrip(shape in shape_strategy(), protocol in protocol_strategy()) {
        let blocks = sanitize(&shape);
        let (net, kind) = net_for(protocol);
        let mut b = WorldBuilder::new(2);
        b.network(net, kind, &[0, 1]);
        let world = b.build();
        let config = Config::one("ch", net, protocol);
        let blocks2 = blocks.clone();
        world.run(move |env| {
            let mad = Madeleine::init(&env, &config);
            let ch = mad.channel("ch");
            let payloads: Vec<Vec<u8>> = blocks2
                .iter()
                .enumerate()
                .map(|(k, &(len, _, _))| {
                    (0..len).map(|i| (i as u8).wrapping_add(k as u8)).collect()
                })
                .collect();
            if env.id() == 0 {
                let mut msg = ch.begin_packing(1);
                for (payload, &(_, sm, rm)) in payloads.iter().zip(&blocks2) {
                    msg.pack(payload, sm, rm);
                }
                msg.end_packing();
            } else {
                let mut bufs: Vec<Vec<u8>> =
                    payloads.iter().map(|p| vec![0u8; p.len()]).collect();
                let mut msg = ch.begin_unpacking();
                for (buf, &(_, sm, rm)) in bufs.iter_mut().zip(&blocks2) {
                    msg.unpack(buf, sm, rm);
                }
                msg.end_unpacking();
                for (got, want) in bufs.iter().zip(&payloads) {
                    assert_eq!(got, want, "{protocol:?} shape {blocks2:?}");
                }
            }
        });
    }

    /// Multirail channels are transparent: any symmetric pack/unpack
    /// sequence round-trips byte-exact over 1, 2, or 3 rails, for every
    /// mode combination — including blocks large enough to stripe (the
    /// threshold is forced low so the stripe engine actually runs).
    #[test]
    fn multirail_messages_roundtrip(
        shape in shape_strategy(),
        rails in 1usize..=3,
        bip in any::<bool>(),
    ) {
        let blocks = sanitize(&shape);
        let (protocol, net, kind) = if bip {
            (Protocol::Bip, "myr0", NetKind::Myrinet)
        } else {
            (Protocol::Tcp, "eth0", NetKind::Ethernet)
        };
        let mut b = WorldBuilder::new(2);
        b.network_with_rails(net, kind, &[0, 1], rails);
        let world = b.build();
        let config = Config::default().with_channel_spec(
            ChannelSpec::new("ch", net, protocol)
                .with_rails(rails)
                .with_striping(4096, 2048),
        );
        let blocks2 = blocks.clone();
        world.run(move |env| {
            let mad = Madeleine::init(&env, &config);
            let ch = mad.channel("ch");
            let payloads: Vec<Vec<u8>> = blocks2
                .iter()
                .enumerate()
                .map(|(k, &(len, _, _))| {
                    (0..len).map(|i| (i as u8).wrapping_mul(3).wrapping_add(k as u8)).collect()
                })
                .collect();
            if env.id() == 0 {
                let mut msg = ch.begin_packing(1);
                for (payload, &(_, sm, rm)) in payloads.iter().zip(&blocks2) {
                    msg.pack(payload, sm, rm);
                }
                msg.end_packing();
            } else {
                let mut bufs: Vec<Vec<u8>> =
                    payloads.iter().map(|p| vec![0u8; p.len()]).collect();
                let mut msg = ch.begin_unpacking();
                for (buf, &(_, sm, rm)) in bufs.iter_mut().zip(&blocks2) {
                    msg.unpack(buf, sm, rm);
                }
                msg.end_unpacking();
                for (got, want) in bufs.iter().zip(&payloads) {
                    assert_eq!(got, want, "{protocol:?} x{rails} shape {blocks2:?}");
                }
            }
        });
    }

    /// Message boundaries survive arbitrary message trains: k messages of
    /// random sizes arrive intact and in order.
    #[test]
    fn message_trains_stay_framed(
        sizes in prop::collection::vec(0usize..30_000, 1..12),
        protocol in protocol_strategy(),
    ) {
        let (net, kind) = net_for(protocol);
        let mut b = WorldBuilder::new(2);
        b.network(net, kind, &[0, 1]);
        let world = b.build();
        let config = Config::one("ch", net, protocol);
        let sizes2 = sizes.clone();
        world.run(move |env| {
            let mad = Madeleine::init(&env, &config);
            let ch = mad.channel("ch");
            for (k, &n) in sizes2.iter().enumerate() {
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
    }

    /// Virtual-channel fragmentation reassembles for arbitrary MTUs.
    #[test]
    fn fragmentation_reassembles_for_any_mtu(
        mtu in 512usize..16_384,
        len in 0usize..120_000,
    ) {
        use mad_gateway::{Gateway, VirtualChannel, VirtualChannelSpec};
        let mut b = WorldBuilder::new(3);
        b.network("sci0", NetKind::Sci, &[0, 1]);
        b.network("myr0", NetKind::Myrinet, &[1, 2]);
        let world = b.build();
        let config = Config::one("sci", "sci0", Protocol::Sisci)
            .with_channel("myr", "myr0", Protocol::Bip);
        world.run(move |env| {
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
    }
}

// ---------------- substrate-level properties ----------------

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 64,
        .. ProptestConfig::default()
    })]

    /// Walking a random linear chain with `next_leg` always reaches the
    /// destination, never revisits a node, and crosses only gateways.
    #[test]
    fn routes_always_converge(
        hop_sizes in prop::collection::vec(1usize..4, 2..6),
        seed in any::<u64>(),
    ) {
        use mad_gateway::Route;
        // Build a linear chain: hop i shares exactly its last node with
        // hop i+1.
        let mut hops = Vec::new();
        let mut next_node = 0usize;
        for (i, extra) in hop_sizes.iter().enumerate() {
            let start = if i == 0 { next_node } else { next_node - 1 };
            let members: Vec<usize> = (start..start + extra + 1).collect();
            next_node = start + extra + 1;
            hops.push(members);
        }
        let route = Route::new(hops.clone());
        let all = route.all_members();
        let src = all[seed as usize % all.len()];
        let dst = all[(seed / 7) as usize % all.len()];
        if src == dst {
            return Ok(());
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
    }

    /// Fragment headers round-trip for every field value.
    #[test]
    fn frag_headers_roundtrip(
        src in 0usize..256,
        dst in 0usize..256,
        len in 0usize..(1 << 24),
        offset in 0usize..(1 << 24),
    ) {
        use mad_gateway::FragHeader;
        let h = FragHeader {
            src,
            dst,
            len,
            offset,
        };
        prop_assert_eq!(FragHeader::from_wire(&h.to_wire()).unwrap(), h);
    }

    /// PerfCurve interpolation stays within the bracketing anchors and is
    /// monotone in size.
    #[test]
    fn perf_curve_is_sane(
        mut anchors in prop::collection::vec((1usize..1_000_000, 1u32..1_000_000), 2..8),
        queries in prop::collection::vec(0usize..2_000_000, 1..16),
    ) {
        use madsim_net::PerfCurve;
        anchors.sort_unstable();
        anchors.dedup_by_key(|a| a.0);
        if anchors.len() < 2 {
            return Ok(());
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
        let mut qs = queries.clone();
        qs.sort_unstable();
        for q in qs {
            let y = curve.time_for(q).as_micros_f64();
            if let Some((px, py)) = prev {
                if q >= px {
                    prop_assert!(y >= py - 1e-6, "time not monotone: t({q})={y} < t({px})={py}");
                }
            }
            prev = Some((q, y));
            // Within the anchored domain, the value is bracketed.
            for w in anchors.windows(2) {
                if q >= w[0].0 && q <= w[1].0 {
                    prop_assert!(y >= w[0].1 - 1e-6 && y <= w[1].1 + 1e-6);
                }
            }
        }
    }

    /// The PCI bus timeline serializes: no transfer finishes earlier than
    /// its asked start plus its base duration, and DMA transfers occupy
    /// pairwise-disjoint busy spans on the bus. Completion times are *not*
    /// required to be non-decreasing in booking order: the timeline
    /// backfills gaps, so a later booking asking for an earlier virtual
    /// instant may legitimately finish before an earlier booking.
    #[test]
    fn pci_bus_serializes(
        ops in prop::collection::vec((0u64..10_000, 1u64..1_000, any::<bool>(), any::<bool>()), 1..32),
    ) {
        use madsim_net::{BusDir, BusKind, PciBus, PciConfig};
        use madsim_net::time::{VDuration, VTime};
        let bus = PciBus::new(PciConfig::default());
        // DMA durations are never inflated, so each DMA's busy span is
        // exactly [end - dur, end]; PIO spans stretch under contention and
        // are not reconstructible from the return value alone.
        let mut dma_spans: Vec<(VTime, VTime)> = Vec::new();
        for (start_us, dur_us, pio, inbound) in ops {
            let kind = if pio { BusKind::Pio } else { BusKind::Dma };
            let dir = if inbound { BusDir::Inbound } else { BusDir::Outbound };
            let start = VTime::from_nanos(start_us * 1_000);
            let dur = VDuration::from_micros(dur_us);
            let end = bus.transfer(kind, dir, start, dur);
            prop_assert!(end >= start + dur, "transfer finished early");
            if !pio {
                dma_spans.push((end.saturating_sub(dur), end));
            }
        }
        dma_spans.sort();
        for w in dma_spans.windows(2) {
            prop_assert!(w[0].1 <= w[1].0, "DMA transfers overlap on the bus");
        }
    }

    /// Nexus marshaling round-trips arbitrary value sequences.
    #[test]
    fn nexus_marshaling_roundtrips(
        items in prop::collection::vec(
            prop_oneof![
                (any::<u32>()).prop_map(Item::U32),
                (any::<f64>()).prop_map(Item::F64),
                prop::collection::vec(any::<u8>(), 0..200).prop_map(Item::Bytes),
            ],
            0..16,
        )
    ) {
        use mad_nexus::{GetBuffer, PutBuffer};
        let mut put = PutBuffer::new();
        for it in &items {
            match it {
                Item::U32(v) => {
                    put.put_u32(*v);
                }
                Item::F64(v) => {
                    put.put_f64(*v);
                }
                Item::Bytes(v) => {
                    put.put_bytes(v);
                }
            }
        }
        let mut get = GetBuffer::new(put.as_slice());
        for it in &items {
            match it {
                Item::U32(v) => prop_assert_eq!(get.get_u32(), *v),
                Item::F64(v) => {
                    let got = get.get_f64();
                    prop_assert!(got == *v || (got.is_nan() && v.is_nan()));
                }
                Item::Bytes(v) => prop_assert_eq!(get.get_bytes(), v.as_slice()),
            }
        }
    }
}

#[derive(Clone, Debug)]
enum Item {
    U32(u32),
    F64(f64),
    Bytes(Vec<u8>),
}
