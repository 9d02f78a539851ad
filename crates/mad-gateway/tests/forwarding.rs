//! End-to-end inter-cluster forwarding tests (paper §6.2 topology):
//! an SCI cluster and a Myrinet cluster bridged by a dual-homed gateway.

use mad_gateway::{Gateway, VirtualChannel, VirtualChannelSpec};
use madeleine::{Config, Madeleine, Protocol, RecvMode, SendMode};
use madsim_net::{NetKind, WorldBuilder};

fn patterned(n: usize, seed: u8) -> Vec<u8> {
    (0..n)
        .map(|i| (i as u8).wrapping_mul(29).wrapping_add(seed))
        .collect()
}

/// Nodes 0,1 on SCI; node 2 = gateway; nodes 3,4 on Myrinet.
fn two_cluster_world() -> (madsim_net::World, Config) {
    let mut b = WorldBuilder::new(5);
    b.network("sci0", NetKind::Sci, &[0, 1, 2]);
    b.network("myr0", NetKind::Myrinet, &[2, 3, 4]);
    let world = b.build();
    let config =
        Config::one("sci", "sci0", Protocol::Sisci).with_channel("myr", "myr0", Protocol::Bip);
    (world, config)
}

fn run_intercluster(msg_sizes: Vec<usize>, mtu: usize, from: usize, to: usize) {
    let (world, config) = two_cluster_world();
    world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let spec = VirtualChannelSpec::new("vc", &["sci", "myr"], mtu);
        let gw = Gateway::spawn(&env, &mad, &config, &spec);
        let vc = VirtualChannel::open(&env, &mad, &config, &spec);
        if env.id() == from {
            let vc = vc.expect("sender is an endpoint");
            for (k, &n) in msg_sizes.iter().enumerate() {
                let data = patterned(n, k as u8);
                let len = (n as u32).to_le_bytes();
                let mut msg = vc.begin_packing(to);
                msg.pack(&len, SendMode::Cheaper, RecvMode::Express);
                msg.pack(&data, SendMode::Cheaper, RecvMode::Cheaper);
                msg.end_packing();
            }
        } else if env.id() == to {
            let vc = vc.expect("receiver is an endpoint");
            for (k, &n) in msg_sizes.iter().enumerate() {
                let mut msg = vc.begin_unpacking();
                assert_eq!(msg.src(), from);
                let mut len = [0u8; 4];
                msg.unpack_express(&mut len, SendMode::Cheaper);
                assert_eq!(u32::from_le_bytes(len) as usize, n);
                let mut got = vec![0u8; n];
                msg.unpack(&mut got, SendMode::Cheaper, RecvMode::Cheaper);
                msg.end_unpacking();
                assert_eq!(got, patterned(n, k as u8), "message {k} size {n}");
            }
        }
        env.barrier();
        if let Some(gw) = gw {
            gw.stop();
        }
    });
}

#[test]
fn sci_to_myrinet_small_and_large() {
    run_intercluster(vec![1, 100, 8000, 40_000, 200_000], 8192, 0, 4);
}

#[test]
fn myrinet_to_sci_small_and_large() {
    run_intercluster(vec![5, 3000, 120_000], 8192, 4, 0);
}

#[test]
fn large_mtu_forwarding() {
    run_intercluster(vec![500_000], 65536, 1, 3);
}

#[test]
fn small_mtu_fragments_heavily() {
    run_intercluster(vec![20_000], 2048, 0, 3);
}

#[test]
fn intracluster_traffic_on_virtual_channel() {
    // Same-hop endpoints: no gateway traversal, still works uniformly.
    run_intercluster(vec![10, 9000], 8192, 0, 1);
}

#[test]
fn bidirectional_intercluster() {
    let (world, config) = two_cluster_world();
    world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let spec = VirtualChannelSpec::new("vc", &["sci", "myr"], 8192);
        let gw = Gateway::spawn(&env, &mad, &config, &spec);
        let vc = VirtualChannel::open(&env, &mad, &config, &spec);
        let payload = patterned(30_000, 9);
        if env.id() == 0 {
            let vc = vc.expect("endpoint");
            let mut msg = vc.begin_packing(4);
            msg.pack(&payload, SendMode::Cheaper, RecvMode::Cheaper);
            msg.end_packing();
            let mut back = vec![0u8; payload.len()];
            let mut msg = vc.begin_unpacking();
            msg.unpack(&mut back, SendMode::Cheaper, RecvMode::Cheaper);
            msg.end_unpacking();
            assert_eq!(back, payload);
        } else if env.id() == 4 {
            let vc = vc.expect("endpoint");
            let mut got = vec![0u8; payload.len()];
            let mut msg = vc.begin_unpacking();
            msg.unpack(&mut got, SendMode::Cheaper, RecvMode::Cheaper);
            msg.end_unpacking();
            let mut msg = vc.begin_packing(0);
            msg.pack(&got, SendMode::Cheaper, RecvMode::Cheaper);
            msg.end_packing();
        }
        env.barrier();
        if let Some(gw) = gw {
            gw.stop();
        }
    });
}

#[test]
fn two_senders_one_receiver_across_gateway() {
    let (world, config) = two_cluster_world();
    world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let spec = VirtualChannelSpec::new("vc", &["sci", "myr"], 8192);
        let gw = Gateway::spawn(&env, &mad, &config, &spec);
        let vc = VirtualChannel::open(&env, &mad, &config, &spec);
        match env.id() {
            0 | 1 => {
                let vc = vc.expect("endpoint");
                let data = patterned(12_000, env.id() as u8);
                let mut msg = vc.begin_packing(3);
                msg.pack(&data, SendMode::Cheaper, RecvMode::Cheaper);
                msg.end_packing();
            }
            3 => {
                let vc = vc.expect("endpoint");
                let mut seen = Vec::new();
                for _ in 0..2 {
                    let mut got = vec![0u8; 12_000];
                    let mut msg = vc.begin_unpacking();
                    let src = msg.src();
                    msg.unpack(&mut got, SendMode::Cheaper, RecvMode::Cheaper);
                    msg.end_unpacking();
                    assert_eq!(got, patterned(12_000, src as u8));
                    seen.push(src);
                }
                seen.sort_unstable();
                assert_eq!(seen, vec![0, 1]);
            }
            _ => {}
        }
        env.barrier();
        if let Some(gw) = gw {
            gw.stop();
        }
    });
}

/// The receiver's virtual instant (ns) of one `len`-byte message forwarded
/// across a gateway in `mtu`-byte fragments: node 0 on SCI, node 1 the
/// gateway, node 2 on Myrinet.
fn forwarded_instant_ns(from: usize, to: usize, len: usize, mtu: usize) -> u64 {
    let mut b = WorldBuilder::new(3);
    b.network("sci0", NetKind::Sci, &[0, 1]);
    b.network("myr0", NetKind::Myrinet, &[1, 2]);
    let world = b.build();
    let config =
        Config::one("sci", "sci0", Protocol::Sisci).with_channel("myr", "myr0", Protocol::Bip);
    let times = world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let spec = VirtualChannelSpec::new("vc", &["sci", "myr"], mtu);
        let gw = Gateway::spawn(&env, &mad, &config, &spec);
        let vc = VirtualChannel::open(&env, &mad, &config, &spec);
        let mut at = 0;
        if env.id() == from {
            let vc = vc.expect("endpoint");
            let data = patterned(len, 1);
            let mut msg = vc.begin_packing(to);
            msg.pack(&data, SendMode::Cheaper, RecvMode::Cheaper);
            msg.end_packing();
        } else if env.id() == to {
            let vc = vc.expect("endpoint");
            let mut got = vec![0u8; len];
            let mut msg = vc.begin_unpacking();
            msg.unpack(&mut got, SendMode::Cheaper, RecvMode::Cheaper);
            msg.end_unpacking();
            assert_eq!(got, patterned(len, 1));
            at = madsim_net::time::now().as_nanos();
        }
        env.barrier();
        if let Some(gw) = gw {
            gw.stop();
        }
        at
    });
    times[to]
}

/// A 4 B message pays one gateway step — the paper's ~50 µs of software
/// overhead (`GW_RECV_OVERHEAD_US` + `GW_SEND_OVERHEAD_US`) on top of the
/// two hops — pinned to the ns in both directions.
#[test]
fn forwarded_small_message_instants() {
    assert_eq!(
        forwarded_instant_ns(0, 2, 4, 8192),
        64_001,
        "SCI -> Myrinet"
    );
    assert_eq!(
        forwarded_instant_ns(2, 0, 4, 8192),
        63_912,
        "Myrinet -> SCI"
    );
}

/// A 12 kB message crosses the gateway as three 4 kB fragments, so the
/// gateway's pipeline and the receiving Generic TM's reassembly are in its
/// instant, pinned to the ns. Myrinet -> SCI only: SCI -> Myrinet moves
/// with how the OS orders the gateway's two threads (EXPERIMENTS.md).
#[test]
fn forwarded_multi_fragment_instant() {
    assert_eq!(forwarded_instant_ns(2, 0, 12 * 1024, 4096), 541_947);
}

/// Three-hop chain: SCI | Myrinet | Ethernet(TCP).
#[test]
fn three_hop_chain_forwards() {
    let mut b = WorldBuilder::new(6);
    b.network("sci0", NetKind::Sci, &[0, 1]);
    b.network("myr0", NetKind::Myrinet, &[1, 2, 3]);
    b.network("eth0", NetKind::Ethernet, &[3, 4, 5]);
    let world = b.build();
    let config = Config::one("sci", "sci0", Protocol::Sisci)
        .with_channel("myr", "myr0", Protocol::Bip)
        .with_channel("eth", "eth0", Protocol::Tcp);
    world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let spec = VirtualChannelSpec::new("vc", &["sci", "myr", "eth"], 4096);
        let gw = Gateway::spawn(&env, &mad, &config, &spec);
        let vc = VirtualChannel::open(&env, &mad, &config, &spec);
        let data = patterned(25_000, 3);
        if env.id() == 0 {
            let vc = vc.expect("endpoint");
            let mut msg = vc.begin_packing(5);
            msg.pack(&data, SendMode::Cheaper, RecvMode::Cheaper);
            msg.end_packing();
        } else if env.id() == 5 {
            let vc = vc.expect("endpoint");
            let mut got = vec![0u8; data.len()];
            let mut msg = vc.begin_unpacking();
            assert_eq!(msg.src(), 0);
            msg.unpack(&mut got, SendMode::Cheaper, RecvMode::Cheaper);
            msg.end_unpacking();
            assert_eq!(got, data);
        }
        env.barrier();
        if let Some(gw) = gw {
            gw.stop();
        }
    });
}

/// The §6.1 copy-avoidance matrix, measured with the gateway's own
/// counters. Per forwarded fragment the gateway performs:
///   dynamic→dynamic: 0 generic-layer copies;
///   dynamic→static:  0 (receive straight into the outgoing buffer);
///   static→dynamic:  0 (send straight from the arrival buffer);
///   static→static:   exactly 1 (unavoidable).
#[test]
fn gateway_copy_matrix() {
    // (in-protocol, in-net, out-protocol, out-net, expected copies/frag)
    let cases = [
        (
            Protocol::Sisci,
            NetKind::Sci,
            Protocol::Bip,
            NetKind::Myrinet,
            0u64,
        ),
        (
            Protocol::Sisci,
            NetKind::Sci,
            Protocol::Sbp,
            NetKind::Ethernet,
            0,
        ),
        (
            Protocol::Sbp,
            NetKind::Ethernet,
            Protocol::Sisci,
            NetKind::Sci,
            0,
        ),
        (
            Protocol::Sbp,
            NetKind::Ethernet,
            Protocol::Via,
            NetKind::ViaSan,
            1,
        ),
    ];
    for (pin, kin, pout, kout, want_copies) in cases {
        let mut b = WorldBuilder::new(3);
        b.network("in0", kin, &[0, 1]);
        b.network("out0", kout, &[1, 2]);
        let world = b.build();
        let config = Config::one("in", "in0", pin).with_channel("out", "out0", pout);
        // One fragment exactly: message payload == MTU, MTU within every
        // protocol's buffer cap (VIA's is 8 kB, minus room for the header
        // fragment riding separately).
        let mtu = 4096usize;
        let n_msgs = 4u64;
        world.run(move |env| {
            let mad = Madeleine::init(&env, &config);
            let spec = VirtualChannelSpec::new("vc", &["in", "out"], mtu);
            let gw = Gateway::spawn(&env, &mad, &config, &spec);
            let vc = VirtualChannel::open(&env, &mad, &config, &spec);
            if env.id() == 0 {
                let vc = vc.expect("endpoint");
                for k in 0..n_msgs {
                    let data = patterned(mtu, k as u8);
                    let mut msg = vc.begin_packing(2);
                    msg.pack(&data, SendMode::Cheaper, RecvMode::Cheaper);
                    msg.end_packing();
                }
            } else if env.id() == 2 {
                let vc = vc.expect("endpoint");
                for k in 0..n_msgs {
                    let mut got = vec![0u8; mtu];
                    let mut msg = vc.begin_unpacking();
                    msg.unpack(&mut got, SendMode::Cheaper, RecvMode::Cheaper);
                    msg.end_unpacking();
                    assert_eq!(got, patterned(mtu, k as u8));
                }
            }
            env.barrier();
            if let Some(gw) = gw {
                // Count only payload copies: subtract the per-fragment
                // header handling. Headers are 16-byte blocks; their copies
                // (if the hop protocols are static) are counted too, so
                // compare copied *payload bytes* instead of copy counts.
                let copied: u64 = gw.stats().iter().map(|(_, s)| s.copied_bytes()).sum();
                // Each message = 1 header fragment pair + payload of `mtu`
                // bytes (the MAD2 channel header adds 16 bytes in the first
                // fragment... payload fragments may thus be 2).
                let payload_copied = copied;
                let floor = want_copies * (mtu as u64) * n_msgs;
                let slack = 64 * 4 * n_msgs; // header bytes bookkeeping
                assert!(
                    payload_copied >= floor && payload_copied <= floor + slack,
                    "{pin:?}->{pout:?}: copied {payload_copied} bytes, \
                     expected about {floor} (+{slack} slack)"
                );
                gw.stop();
            }
        });
    }
}

/// A fragment length travels in 24 bits: an MTU that could not be encoded
/// is refused when the spec is built, not mid-transfer.
#[test]
#[should_panic(expected = "24-bit length")]
fn oversized_mtu_is_refused_at_spec_construction() {
    VirtualChannelSpec::new("vc", &["sci", "myr"], 1 << 24);
}

#[test]
#[should_panic(expected = "is not a member")]
fn sending_to_off_route_node_panics() {
    let mut b = WorldBuilder::new(4);
    b.network("sci0", NetKind::Sci, &[0, 1]);
    b.network("myr0", NetKind::Myrinet, &[1, 2]);
    b.network("eth0", NetKind::Ethernet, &[0, 3]); // node 3 off the route
    let world = b.build();
    let config = Config::one("sci", "sci0", Protocol::Sisci)
        .with_channel("myr", "myr0", Protocol::Bip)
        .with_channel("eth", "eth0", Protocol::Tcp);
    world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let spec = VirtualChannelSpec::new("vc", &["sci", "myr"], 8192);
        let vc = VirtualChannel::open(&env, &mad, &config, &spec);
        if env.id() == 0 {
            let vc = vc.expect("endpoint");
            let mut m = vc.begin_packing(3); // 3 is not on the chain
            m.pack(b"lost", SendMode::Cheaper, RecvMode::Cheaper);
            m.end_packing();
        }
    });
}

#[test]
fn gateway_node_gets_no_endpoint_handle() {
    let (world, config) = two_cluster_world();
    world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let spec = VirtualChannelSpec::new("vc", &["sci", "myr"], 8192);
        let vc = VirtualChannel::open(&env, &mad, &config, &spec);
        if env.id() == 2 {
            // Node 2 is the gateway: it only runs forwarders, never
            // messages of its own.
            assert!(vc.is_none(), "gateways must not get endpoint handles");
        } else {
            assert!(vc.is_some());
        }
    });
}

/// Forwarding over a *multirail* leaf: the Myrinet cluster spans two rails
/// per node and its channel is declared `with_rails(2)`. The gateway
/// forwards hop traffic over the channel's rail-0 PMM (single-rail by
/// contract), so inter-cluster messages must arrive byte-identical and
/// unstriped; direct bulk traffic on the same channel afterwards must
/// stripe across both rails.
#[test]
fn forwarding_over_a_two_rail_leaf() {
    use madeleine::ChannelSpec;
    let mut b = WorldBuilder::new(5);
    b.network("sci0", NetKind::Sci, &[0, 1, 2]);
    b.network_with_rails("myr0", NetKind::Myrinet, &[2, 3, 4], 2);
    let world = b.build();
    let config = Config::one("sci", "sci0", Protocol::Sisci).with_channel_spec(
        ChannelSpec::new("myr", "myr0", Protocol::Bip)
            .with_rails(2)
            .with_striping(16 * 1024, 8 * 1024),
    );
    const LEN: usize = 150_000;
    world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let spec = VirtualChannelSpec::new("vc", &["sci", "myr"], 64 * 1024);
        let gw = Gateway::spawn(&env, &mad, &config, &spec);
        let vc = VirtualChannel::open(&env, &mad, &config, &spec);
        if env.id() == 0 {
            let vc = vc.expect("endpoint");
            let data = patterned(LEN, 11);
            let mut msg = vc.begin_packing(4);
            msg.pack(&data, SendMode::Cheaper, RecvMode::Cheaper);
            msg.end_packing();
        } else if env.id() == 4 {
            let vc = vc.expect("endpoint");
            let mut got = vec![0u8; LEN];
            let mut msg = vc.begin_unpacking();
            assert_eq!(msg.src(), 0);
            msg.unpack(&mut got, SendMode::Cheaper, RecvMode::Cheaper);
            msg.end_unpacking();
            assert_eq!(got, patterned(LEN, 11));
        }
        env.barrier();
        if let Some(gw) = gw {
            gw.stop();
        }
        env.barrier();
        // With the gateway quiesced, drive a bulk message straight over the
        // multirail "myr" channel: this one must stripe across both rails.
        // Only nodes 2..4 are members of that channel.
        if env.id() == 3 {
            let ch = mad.channel("myr");
            let data = patterned(LEN, 12);
            let mut msg = ch.begin_packing(4);
            msg.pack(&data, SendMode::Cheaper, RecvMode::Cheaper);
            msg.end_packing();
            assert!(
                ch.stats().stripes() >= 1,
                "bulk CHEAPER block never striped"
            );
            let (_, rail1_bytes) = ch.stats().rail_traffic(1);
            assert!(rail1_bytes > 0, "rail 1 carried no stripe traffic");
        } else if env.id() == 4 {
            let ch = mad.channel("myr");
            let mut got = vec![0u8; LEN];
            let mut msg = ch.begin_unpacking();
            assert_eq!(msg.src(), 3);
            msg.unpack(&mut got, SendMode::Cheaper, RecvMode::Cheaper);
            msg.end_unpacking();
            assert_eq!(got, patterned(LEN, 12));
        }
        env.barrier();
    });
}
