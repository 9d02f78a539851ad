//! Cross-crate integration tests: the whole reproduction working together —
//! substrate, Madeleine II, the gateway extension, and the MPI and Nexus
//! layers in one session.

use mad_gateway::{Gateway, VirtualChannel, VirtualChannelSpec};
use mad_mpi::Mpi;
use mad_nexus::{GetBuffer, Nexus, PutBuffer};
use madeleine::{Config, Madeleine, Protocol, RecvMode, SendMode};
use madsim_net::{NetKind, WorldBuilder};
use std::sync::Arc;

/// Two clusters (SCI {0,1,2}, Myrinet {2,3,4}) with gateway node 2.
fn two_cluster() -> (madsim_net::World, Config, VirtualChannelSpec) {
    let mut b = WorldBuilder::new(5);
    b.network("sci0", NetKind::Sci, &[0, 1, 2]);
    b.network("myr0", NetKind::Myrinet, &[2, 3, 4]);
    let world = b.build();
    let config =
        Config::one("sci", "sci0", Protocol::Sisci).with_channel("myr", "myr0", Protocol::Bip);
    let spec = VirtualChannelSpec::new("vc", &["sci", "myr"], 8192);
    (world, config, spec)
}

/// MPI spanning two heterogeneous clusters through the gateway: the
/// paper's architecture stack used end to end (MPI -> generic layer ->
/// Generic TM -> real TMs -> simulated NICs, twice, plus forwarding).
#[test]
fn mpi_across_clusters() {
    let (world, config, spec) = two_cluster();
    world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let gw = Gateway::spawn(&env, &mad, &config, &spec);
        let vc = VirtualChannel::open(&env, &mad, &config, &spec);
        // End nodes only — the gateway (node 2) just forwards.
        let ranks: Vec<usize> = vec![0, 1, 3, 4];
        if ranks.contains(&env.id()) {
            let vc = vc.expect("endpoint");
            let mpi = Mpi::init_over(Arc::clone(vc.channel()), Some(&ranks));
            assert_eq!(mpi.size(), 4);
            // Cross-cluster point-to-point: rank 0 (node 0, SCI) with
            // rank 3 (node 4, Myrinet).
            if mpi.rank() == 0 {
                let data: Vec<u8> = (0..50_000).map(|i| (i % 249) as u8).collect();
                mpi.send(3, 11, &data);
                let mut back = vec![0u8; 8];
                mpi.recv(Some(3), Some(12), &mut back);
                assert_eq!(&back, b"ack-back");
            } else if mpi.rank() == 3 {
                let mut buf = vec![0u8; 50_000];
                let st = mpi.recv(Some(0), Some(11), &mut buf);
                assert_eq!(st.len, 50_000);
                assert!(buf.iter().enumerate().all(|(i, &b)| b == (i % 249) as u8));
                mpi.send(0, 12, b"ack-back");
            }
            // A collective spanning both clusters.
            mpi.barrier();
            let sum = mpi.allreduce(mad_mpi::ReduceOp::Sum, &[mpi.rank() as f64]);
            assert!((sum[0] - 6.0).abs() < 1e-12); // 0+1+2+3
        }
        env.barrier();
        if let Some(gw) = gw {
            gw.stop();
        }
    });
}

/// Nexus RSRs crossing the gateway transparently.
#[test]
fn nexus_rpc_across_clusters() {
    let (world, config, spec) = two_cluster();
    world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let gw = Gateway::spawn(&env, &mad, &config, &spec);
        let vc = VirtualChannel::open(&env, &mad, &config, &spec);
        if env.id() == 0 {
            let vc = vc.expect("endpoint");
            let nx = Nexus::new(Arc::clone(vc.channel()));
            let mut req = PutBuffer::new();
            req.put_str("square").put_f64(12.0);
            nx.register(2, |_, rsr| {
                let mut g = GetBuffer::new(&rsr.data);
                assert_eq!(g.get_f64().unwrap(), 144.0);
            });
            nx.send_rsr(4, 1, req.as_slice());
            nx.handle_one();
        } else if env.id() == 4 {
            let vc = vc.expect("endpoint");
            let nx = Nexus::new(Arc::clone(vc.channel()));
            nx.register(1, |nx, rsr| {
                let mut g = GetBuffer::new(&rsr.data);
                assert_eq!(g.get_str().unwrap(), "square");
                let x = g.get_f64().unwrap();
                let mut reply = PutBuffer::new();
                reply.put_f64(x * x);
                nx.send_rsr(rsr.src, 2, reply.as_slice());
            });
            nx.handle_one();
        }
        env.barrier();
        if let Some(gw) = gw {
            gw.stop();
        }
    });
}

/// Direct channels and the virtual channel coexist in one session.
#[test]
fn direct_and_virtual_traffic_coexist() {
    let (world, config, spec) = two_cluster();
    world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let gw = Gateway::spawn(&env, &mad, &config, &spec);
        // A second pair of channels for direct traffic (the hop channels
        // themselves must stay dedicated to the virtual channel).
        let vc = VirtualChannel::open(&env, &mad, &config, &spec);
        match env.id() {
            0 => {
                // Cross-cluster on the virtual channel...
                let vc = vc.expect("endpoint");
                let mut m = vc.begin_packing(3);
                m.pack(b"wide", SendMode::Cheaper, RecvMode::Cheaper);
                m.end_packing();
            }
            1 => {}
            3 => {
                let vc = vc.expect("endpoint");
                let mut buf = [0u8; 4];
                let mut m = vc.begin_unpacking();
                m.unpack(&mut buf, SendMode::Cheaper, RecvMode::Cheaper);
                m.end_unpacking();
                assert_eq!(&buf, b"wide");
            }
            _ => {}
        }
        env.barrier();
        if let Some(gw) = gw {
            gw.stop();
        }
    });
}

/// The paper's §2.2 RPC pattern byte-for-byte over every protocol:
/// EXPRESS function-name header steering a CHEAPER dynamic payload.
#[test]
fn rpc_pattern_over_every_protocol() {
    for protocol in [
        Protocol::Sisci,
        Protocol::Bip,
        Protocol::Tcp,
        Protocol::Via,
        Protocol::Sbp,
    ] {
        let mut b = WorldBuilder::new(2);
        let (net, kind) = match protocol {
            Protocol::Tcp | Protocol::Sbp => ("eth0", NetKind::Ethernet),
            Protocol::Bip => ("myr0", NetKind::Myrinet),
            Protocol::Sisci => ("sci0", NetKind::Sci),
            Protocol::Via => ("san0", NetKind::ViaSan),
        };
        b.network(net, kind, &[0, 1]);
        let world = b.build();
        let config = Config::one("rpc", net, protocol);
        world.run(move |env| {
            let mad = Madeleine::init(&env, &config);
            let ch = mad.channel("rpc");
            if env.id() == 0 {
                let name = b"matrix_multiply!";
                let arg: Vec<u8> = (0..30_000).map(|i| (i % 127) as u8).collect();
                let hdr_len = (name.len() as u32).to_le_bytes();
                let arg_len = (arg.len() as u32).to_le_bytes();
                let mut m = ch.begin_packing(1);
                m.pack(&hdr_len, SendMode::Cheaper, RecvMode::Express);
                m.pack(name, SendMode::Cheaper, RecvMode::Express);
                m.pack(&arg_len, SendMode::Cheaper, RecvMode::Express);
                m.pack(&arg, SendMode::Cheaper, RecvMode::Cheaper);
                m.end_packing();
            } else {
                let mut m = ch.begin_unpacking();
                let mut len = [0u8; 4];
                m.unpack_express(&mut len, SendMode::Cheaper);
                let mut name = vec![0u8; u32::from_le_bytes(len) as usize];
                m.unpack_express(&mut name, SendMode::Cheaper);
                assert_eq!(&name, b"matrix_multiply!");
                m.unpack_express(&mut len, SendMode::Cheaper);
                let mut arg = vec![0u8; u32::from_le_bytes(len) as usize];
                m.unpack(&mut arg, SendMode::Cheaper, RecvMode::Cheaper);
                m.end_unpacking();
                assert!(arg.iter().enumerate().all(|(i, &b)| b == (i % 127) as u8));
            }
        });
    }
}

/// Zero-copy accounting of the BIP long path: a bulk CHEAPER/CHEAPER
/// transfer performs no generic-layer copies at either end.
#[test]
fn bip_long_path_is_zero_copy() {
    let mut b = WorldBuilder::new(2);
    b.network("myr0", NetKind::Myrinet, &[0, 1]);
    let world = b.build();
    let config = Config::one("ch", "myr0", Protocol::Bip);
    world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let ch = mad.channel("ch");
        let data = vec![7u8; 100_000];
        let before = ch.stats().snapshot();
        if env.id() == 0 {
            let mut m = ch.begin_packing(1);
            m.pack(&data, SendMode::Cheaper, RecvMode::Cheaper);
            m.end_packing();
        } else {
            let mut buf = vec![0u8; 100_000];
            let mut m = ch.begin_unpacking();
            m.unpack(&mut buf, SendMode::Cheaper, RecvMode::Cheaper);
            m.end_unpacking();
        }
        let delta = ch.stats().snapshot().since(&before);
        // Only the 16-byte channel header moves through the short path's
        // static buffers; the 100 kB payload is delivered in place.
        assert!(
            delta.copied_bytes <= 64,
            "BIP long path copied {} bytes on node {}",
            delta.copied_bytes,
            env.id()
        );
    });
}

/// SISCI's receive necessarily copies out of the segment (PIO semantics);
/// the generic layer itself must add nothing on top for CHEAPER/CHEAPER.
#[test]
fn sisci_generic_layer_adds_no_copies() {
    let mut b = WorldBuilder::new(2);
    b.network("sci0", NetKind::Sci, &[0, 1]);
    let world = b.build();
    let config = Config::one("ch", "sci0", Protocol::Sisci);
    world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let ch = mad.channel("ch");
        let data = vec![9u8; 50_000];
        let before = ch.stats().snapshot();
        if env.id() == 0 {
            let mut m = ch.begin_packing(1);
            m.pack(&data, SendMode::Cheaper, RecvMode::Cheaper);
            m.end_packing();
        } else {
            let mut buf = vec![0u8; 50_000];
            let mut m = ch.begin_unpacking();
            m.unpack(&mut buf, SendMode::Cheaper, RecvMode::Cheaper);
            m.end_unpacking();
        }
        let delta = ch.stats().snapshot().since(&before);
        assert_eq!(
            delta.copies,
            0,
            "generic layer performed {} copies on node {}",
            delta.copies,
            env.id()
        );
    });
}

/// The tentpole contract of the zero-copy send path: a 1 MiB
/// CHEAPER/CHEAPER transfer on an aggregating protocol performs **zero**
/// generic-layer copies (the internal header is built directly in pooled
/// memory, the body is read in place) and the commit flushes through the
/// TM's native scatter/gather on both TCP and SISCI.
#[test]
fn bulk_cheaper_transfer_is_zero_copy_and_gathers() {
    for (protocol, net, kind) in [
        (Protocol::Tcp, "eth0", NetKind::Ethernet),
        (Protocol::Sisci, "sci0", NetKind::Sci),
    ] {
        let mut b = WorldBuilder::new(2);
        b.network(net, kind, &[0, 1]);
        let world = b.build();
        let config = Config::one("ch", net, protocol);
        world.run(move |env| {
            let mad = Madeleine::init(&env, &config);
            let ch = mad.channel("ch");
            const LEN: usize = 1 << 20;
            let before = ch.stats().snapshot();
            if env.id() == 0 {
                let data: Vec<u8> = (0..LEN).map(|i| (i % 251) as u8).collect();
                let mut m = ch.begin_packing(1);
                m.pack(&data, SendMode::Cheaper, RecvMode::Cheaper);
                m.end_packing();
                let delta = ch.stats().snapshot().since(&before);
                assert_eq!(
                    delta.copied_bytes, 0,
                    "{protocol:?}: generic layer copied on the send side"
                );
                assert!(
                    delta.gathers >= 1,
                    "{protocol:?}: commit did not use the TM's native gather"
                );
                assert!(
                    delta.borrowed_bytes >= LEN as u64,
                    "{protocol:?}: body was not handed over by reference"
                );
            } else {
                let mut buf = vec![0u8; LEN];
                let mut m = ch.begin_unpacking();
                m.unpack(&mut buf, SendMode::Cheaper, RecvMode::Cheaper);
                m.end_unpacking();
                assert!(buf.iter().enumerate().all(|(i, &v)| v == (i % 251) as u8));
                let delta = ch.stats().snapshot().since(&before);
                assert_eq!(
                    delta.copies, 0,
                    "{protocol:?}: generic layer copied on the receive side"
                );
            }
        });
    }
}

/// Steady-state ping-pong recycles the per-channel pool: after the first
/// message warms the free-list, every header checkout is a hit.
#[test]
fn steady_state_ping_pong_pool_hit_rate() {
    let mut b = WorldBuilder::new(2);
    b.network("eth0", NetKind::Ethernet, &[0, 1]);
    let world = b.build();
    let config = Config::one("ch", "eth0", Protocol::Tcp);
    world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let ch = mad.channel("ch");
        let payload = [0x5au8; 256];
        for _ in 0..50 {
            if env.id() == 0 {
                let mut m = ch.begin_packing(1);
                m.pack(&payload, SendMode::Cheaper, RecvMode::Cheaper);
                m.end_packing();
                let mut echo = [0u8; 256];
                let mut m = ch.begin_unpacking();
                m.unpack(&mut echo, SendMode::Cheaper, RecvMode::Cheaper);
                m.end_unpacking();
                assert_eq!(echo, payload);
            } else {
                let mut echo = [0u8; 256];
                let mut m = ch.begin_unpacking();
                m.unpack(&mut echo, SendMode::Cheaper, RecvMode::Cheaper);
                m.end_unpacking();
                let mut m = ch.begin_packing(0);
                m.pack(&echo, SendMode::Cheaper, RecvMode::Cheaper);
                m.end_packing();
            }
        }
        let stats = ch.stats();
        assert!(stats.pool_hits() > 0, "pool never recycled a slab");
        assert!(
            stats.pool_hit_rate() >= 0.9,
            "steady-state hit rate {:.3} below 0.9 on node {}",
            stats.pool_hit_rate(),
            env.id()
        );
    });
}

/// Concurrency smoke over a static-buffer protocol: both nodes drive their
/// channel pools simultaneously (header checkouts + VIA registered-buffer
/// checkouts in flight both ways), data stays intact, and the pools settle
/// into reuse.
#[test]
fn full_duplex_static_buffer_traffic_reuses_pool() {
    let mut b = WorldBuilder::new(2);
    b.network("san0", NetKind::ViaSan, &[0, 1]);
    let world = b.build();
    let config = Config::one("ch", "san0", Protocol::Via);
    world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let ch = mad.channel("ch");
        let peer = 1 - env.id();
        const ROUNDS: usize = 10;
        // Fire all sends first: traffic crosses in both directions at once.
        for r in 0..ROUNDS {
            let data: Vec<u8> = (0..5000).map(|i| ((i + r) % 241) as u8).collect();
            let mut m = ch.begin_packing(peer);
            m.pack(&data, SendMode::Cheaper, RecvMode::Cheaper);
            m.end_packing();
        }
        for r in 0..ROUNDS {
            let mut buf = vec![0u8; 5000];
            let mut m = ch.begin_unpacking();
            m.unpack(&mut buf, SendMode::Cheaper, RecvMode::Cheaper);
            m.end_unpacking();
            assert!(buf
                .iter()
                .enumerate()
                .all(|(i, &v)| v == ((i + r) % 241) as u8));
        }
        let stats = ch.stats();
        let checkouts = stats.pool_hits() + stats.pool_misses();
        assert!(checkouts >= ROUNDS as u64, "pool saw no traffic");
        assert!(
            stats.pool_hit_rate() >= 0.8,
            "full-duplex hit rate {:.3} on node {}",
            stats.pool_hit_rate(),
            env.id()
        );
    });
}

/// The whole tower at once: PM2 RPC over MPI-carried... no — PM2 and MPI
/// and Nexus coexisting in one session on separate channels, while a
/// virtual channel forwards across clusters. One node participates in all
/// of them simultaneously.
#[test]
fn all_layers_coexist_in_one_session() {
    use mad_pm2::Pm2;
    let mut b = WorldBuilder::new(5);
    b.network("sci0", NetKind::Sci, &[0, 1, 2]);
    b.network("myr0", NetKind::Myrinet, &[2, 3, 4]);
    let world = b.build();
    let config = Config::one("sci", "sci0", Protocol::Sisci)
        .with_channel("myr", "myr0", Protocol::Bip)
        .with_channel("sci-apps", "sci0", Protocol::Sisci)
        .with_channel("myr-apps", "myr0", Protocol::Bip);
    world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let spec = VirtualChannelSpec::new("vc", &["sci", "myr"], 8192);
        let gw = Gateway::spawn(&env, &mad, &config, &spec);
        let vc = VirtualChannel::open(&env, &mad, &config, &spec);

        // Layer 1: MPI among the SCI cluster (local channel).
        if [0usize, 1].contains(&env.id()) {
            let mpi = Mpi::init_over(Arc::clone(mad.channel("sci-apps")), Some(&[0, 1]));
            let sum = mpi.allreduce(mad_mpi::ReduceOp::Sum, &[1.0]);
            assert_eq!(sum[0], 2.0);
        }
        // Layer 2: PM2 among the Myrinet cluster (local channel).
        if [3usize, 4].contains(&env.id()) {
            let pm2 = Pm2::new(Arc::clone(mad.channel("myr-apps")));
            if env.id() == 3 {
                pm2.register(1, |_, _, args| args.to_vec());
                pm2.serve(1);
            } else {
                let echo = pm2.rpc(3, 1, b"echo");
                assert_eq!(&echo[..], b"echo");
            }
        }
        // Layer 3: Nexus across the clusters on the virtual channel.
        if env.id() == 0 {
            let nx = Nexus::new(Arc::clone(vc.expect("endpoint").channel()));
            let mut req = PutBuffer::new();
            req.put_u32(7).put_str("cross-cluster");
            nx.send_rsr(4, 1, req.as_slice());
        } else if env.id() == 4 {
            let nx = Nexus::new(Arc::clone(vc.expect("endpoint").channel()));
            nx.register(1, |_, rsr| {
                let mut g = GetBuffer::new(&rsr.data);
                assert_eq!(g.get_u32().unwrap(), 7);
                assert_eq!(g.get_str().unwrap(), "cross-cluster");
            });
            nx.handle_one();
        }
        env.barrier();
        if let Some(gw) = gw {
            gw.stop();
        }
    });
}

// ---------------- striping over static-buffer TMs ----------------

/// One byte-checked 1 MiB CHEAPER block over a two-rail channel.
fn two_rail_megabyte(kind: NetKind, spec: madeleine::ChannelSpec) {
    const LEN: usize = 1 << 20;
    let fill = |i: usize| (i % 251) as u8;
    let mut b = WorldBuilder::new(2);
    b.network_with_rails("net0", kind, &[0, 1], 2);
    let config = Config::default().with_channel_spec(spec.with_rails(2));
    b.build().run(|env| {
        let mad = Madeleine::init(&env, &config);
        let ch = mad.channel("ch");
        if env.id() == 0 {
            let data: Vec<u8> = (0..LEN).map(fill).collect();
            let mut msg = ch.begin_packing(1);
            msg.pack(&data, SendMode::Cheaper, RecvMode::Cheaper);
            msg.end_packing();
        } else {
            let mut got = vec![0u8; LEN];
            let mut msg = ch.begin_unpacking();
            msg.unpack(&mut got, SendMode::Cheaper, RecvMode::Cheaper);
            msg.end_unpacking();
            let bad = got.iter().enumerate().position(|(i, &b)| b != fill(i));
            assert_eq!(bad, None, "{kind:?}: corrupted");
        }
    });
}

/// VIA and SBP carry at most one static buffer per send, so they stripe
/// in chunks that fit one.
#[test]
fn static_buffer_protocols_stripe_in_chunks_that_fit() {
    for (protocol, kind) in [
        (Protocol::Via, NetKind::ViaSan),
        (Protocol::Sbp, NetKind::Ethernet),
    ] {
        let spec = madeleine::ChannelSpec::new("ch", "net0", protocol);
        two_rail_megabyte(kind, spec.with_striping(64 << 10, 4096));
    }
}

/// A stripe chunk larger than the TM's buffer is refused when the channel
/// is built, not at its first striped send.
#[test]
#[should_panic(
    expected = "stripes 131072-byte chunks over 2 rails, but its TM \"via/registered\" \
                           carries at most 8192 bytes"
)]
fn via_refuses_the_default_stripe_chunk() {
    let spec = madeleine::ChannelSpec::new("ch", "net0", Protocol::Via);
    two_rail_megabyte(NetKind::ViaSan, spec);
}

// ---------------- a node's panic aborts the run ----------------

/// Node 1 sends one 8-byte message, then panics while node 0 blocks in
/// `wait`: the run must give node 0's wait up and re-raise node 1's payload
/// — not the "world aborted" panic that ended the wait — and not hang. (The
/// pause biases toward the harder order, node 0 already blocked; either
/// order must abort. The barrier and the parked mailbox receive are
/// `madsim-net`'s own test.)
fn node_panic_ends(
    rails: usize,
    kind: NetKind,
    protocol: Protocol,
    wait: impl Fn(&madeleine::Channel) + Send + Sync,
) {
    let mut b = WorldBuilder::new(2);
    b.network_with_rails("net0", kind, &[0, 1], rails);
    let world = b.build();
    let spec = madeleine::ChannelSpec::new("ch", "net0", protocol).with_rails(rails);
    let config = Config::default().with_channel_spec(spec);
    let started = std::time::Instant::now();
    let run = std::panic::AssertUnwindSafe(|| {
        world.run(|env| {
            let mad = Madeleine::init(&env, &config);
            let ch = mad.channel("ch");
            if env.id() == 1 {
                let mut msg = ch.begin_packing(0);
                msg.pack(&[7u8; 8], SendMode::Cheaper, RecvMode::Express);
                msg.end_packing();
                std::thread::sleep(std::time::Duration::from_millis(20));
                panic!("node 1 dies");
            }
            wait(ch);
        })
    });
    let payload = std::panic::catch_unwind(run).expect_err("the run re-raises the panic");
    assert_eq!(payload.downcast_ref::<&str>(), Some(&"node 1 dies"));
    let took = started.elapsed();
    assert!(took < std::time::Duration::from_secs(2), "took {took:?}");
}

/// Take node 1's message — and a second block it does not have, if
/// `overread` — then wait for a second message that never comes.
fn unpack_then_wait(ch: &madeleine::Channel, overread: bool) {
    let (mut sent, mut never_sent) = ([0u8; 8], [0u8; 8]);
    let mut msg = ch.begin_unpacking();
    msg.unpack(&mut sent, SendMode::Cheaper, RecvMode::Express);
    if overread {
        msg.unpack(&mut never_sent, SendMode::Cheaper, RecvMode::Express);
    }
    msg.end_unpacking();
    ch.begin_unpacking();
}

/// `begin_unpacking` on one rail spins in the channel's `PollPolicy`.
#[test]
fn node_panic_ends_begin_unpacking_over_tcp() {
    node_panic_ends(1, NetKind::Ethernet, Protocol::Tcp, |ch| {
        unpack_then_wait(ch, false)
    });
}

/// A block that never comes parks on the segment's flag.
#[test]
fn node_panic_ends_a_sisci_flag_wait() {
    node_panic_ends(1, NetKind::Sci, Protocol::Sisci, |ch| {
        unpack_then_wait(ch, true)
    });
}

/// `begin_unpacking` on several rails scans them all in one `wait_incoming`.
#[test]
fn node_panic_ends_begin_unpacking_over_two_rail_bip() {
    node_panic_ends(2, NetKind::Myrinet, Protocol::Bip, |ch| {
        unpack_then_wait(ch, false)
    });
}
