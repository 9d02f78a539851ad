//! Edge-case and stress tests of the simulated vendor stacks.

use bytes::Bytes;
use madsim_net::stacks::bip::{Bip, BIP_SHORT_RING};
use madsim_net::stacks::sbp::{Sbp, SBP_POOL_SIZE};
use madsim_net::stacks::sisci::Sisci;
use madsim_net::stacks::tcp::TcpStack;
use madsim_net::stacks::via::Via;
use madsim_net::{NetKind, WorldBuilder};

fn pair(kind: NetKind) -> (madsim_net::World, madsim_net::NetworkId) {
    let mut b = WorldBuilder::new(2);
    let net = b.network("n0", kind, &[0, 1]);
    (b.build(), net)
}

// ---------------- BIP ----------------

#[test]
fn bip_interleaves_shorts_and_longs_in_tag_order() {
    let (w, net) = pair(NetKind::Myrinet);
    w.run(|env| {
        let bip = Bip::new(env.adapter_on(net).unwrap());
        if env.id() == 0 {
            for i in 0..5u8 {
                bip.send_short(1, 1, &[i; 16]);
                bip.send_long(1, 2, Bytes::from(vec![i; 4096]));
            }
        } else {
            for i in 0..5u8 {
                let (_, s) = bip.recv_short(1);
                assert!(s.iter().all(|&b| b == i));
                let mut buf = vec![0u8; 4096];
                bip.recv_long(0, 2, &mut buf);
                assert!(buf.iter().all(|&b| b == i));
            }
        }
    });
}

#[test]
fn bip_ring_capacity_is_exactly_enforced() {
    let (w, net) = pair(NetKind::Myrinet);
    w.run(|env| {
        let bip = Bip::new(env.adapter_on(net).unwrap());
        if env.id() == 0 {
            // Exactly the ring capacity is fine.
            for _ in 0..BIP_SHORT_RING {
                bip.send_short(1, 1, b"x");
            }
            env.barrier();
        } else {
            env.barrier();
            for _ in 0..BIP_SHORT_RING {
                bip.recv_short(1);
            }
        }
    });
}

#[test]
fn bip_concurrent_tags_do_not_cross() {
    let (w, net) = pair(NetKind::Myrinet);
    w.run(|env| {
        let bip = Bip::new(env.adapter_on(net).unwrap());
        if env.id() == 0 {
            bip.send_short(1, 10, b"ten");
            bip.send_short(1, 20, b"twenty");
        } else {
            // Receive in reverse tag order.
            let b20 = bip.recv_short_from(0, 20);
            assert_eq!(&b20[..], b"twenty");
            let b10 = bip.recv_short_from(0, 10);
            assert_eq!(&b10[..], b"ten");
        }
    });
}

#[test]
fn bip_prefetched_cts_overlaps_transfer() {
    // post_cts ahead of recv_long_posted: the sender proceeds while the
    // receiver's clock does other work.
    let (w, net) = pair(NetKind::Myrinet);
    w.run(|env| {
        let bip = Bip::new(env.adapter_on(net).unwrap());
        if env.id() == 0 {
            bip.send_long(1, 7, Bytes::from(vec![9u8; 50_000]));
        } else {
            bip.post_cts(0, 7);
            // Simulate local work while the LANai receives.
            madsim_net::time::advance(madsim_net::time::VDuration::from_micros(200));
            let mut buf = vec![0u8; 50_000];
            bip.recv_long_posted(0, 7, &mut buf);
            assert!(buf.iter().all(|&b| b == 9));
        }
    });
}

// ---------------- TCP ----------------

#[test]
fn tcp_full_duplex_streams_do_not_interfere() {
    let (w, net) = pair(NetKind::Ethernet);
    w.run(|env| {
        let tcp = TcpStack::new(env.adapter_on(net).unwrap());
        let peer = 1 - env.id();
        let mut c = tcp.connect(peer, 9);
        let mine = vec![env.id() as u8; 5_000];
        let mut theirs = vec![0u8; 5_000];
        c.send(&mine);
        c.recv_exact(&mut theirs);
        assert!(theirs.iter().all(|&b| b == peer as u8));
    });
}

#[test]
fn tcp_many_small_writes_reassemble() {
    let (w, net) = pair(NetKind::Ethernet);
    w.run(|env| {
        let tcp = TcpStack::new(env.adapter_on(net).unwrap());
        if env.id() == 0 {
            let mut c = tcp.connect(1, 1);
            for i in 0..100u8 {
                c.send(&[i, i, i]);
            }
        } else {
            let mut c = tcp.connect(0, 1);
            let mut buf = vec![0u8; 300];
            c.recv_exact(&mut buf);
            for (i, chunk) in buf.chunks(3).enumerate() {
                assert!(chunk.iter().all(|&b| b == i as u8));
            }
        }
    });
}

#[test]
fn tcp_vectored_send_is_one_wire_unit() {
    let (w, net) = pair(NetKind::Ethernet);
    let times = w.run(|env| {
        let tcp = TcpStack::new(env.adapter_on(net).unwrap());
        if env.id() == 0 {
            let mut c = tcp.connect(1, 1);
            let parts: Vec<Vec<u8>> = (0..10).map(|i| vec![i as u8; 100]).collect();
            let refs: Vec<&[u8]> = parts.iter().map(|p| p.as_slice()).collect();
            c.send_vectored(&refs);
            0.0
        } else {
            let mut c = tcp.connect(0, 1);
            let mut buf = vec![0u8; 1000];
            c.recv_exact(&mut buf);
            madsim_net::time::now().as_micros_f64()
        }
    });
    // One latency, not ten: connect(60) + 60 + 1000 bytes * 0.0851.
    let expected = 60.0 + 60.0 + 1000.0 * 0.0851;
    assert!(
        (times[1] - expected).abs() < 2.0,
        "vectored send cost {} expected ~{expected}",
        times[1]
    );
}

// ---------------- VIA ----------------

#[test]
fn via_window_stress_with_reposting() {
    // VIA drops (here: panics) on un-posted receives, so the sender must
    // respect the window: batches of 8, acknowledged batch-by-batch on the
    // reverse direction of the same VI.
    const BATCH: u32 = 8;
    const BATCHES: u32 = 25;
    let (w, net) = pair(NetKind::ViaSan);
    w.run(|env| {
        let via = Via::new(env.adapter_on(net).unwrap());
        if env.id() == 0 {
            let mut vi = via.open_vi(1, 1);
            for _ in 0..BATCH {
                vi.post_recv(64);
            }
            env.barrier();
            let mut expect = 0u32;
            for _ in 0..BATCHES {
                for _ in 0..BATCH {
                    let msg = vi.recv();
                    assert_eq!(u32::from_le_bytes(msg[..4].try_into().unwrap()), expect);
                    expect += 1;
                    vi.post_recv(64);
                }
                vi.send(b"ackd"); // consumes one of the sender's posts
            }
        } else {
            let mut vi = via.open_vi(0, 1);
            for _ in 0..2 {
                vi.post_recv(8);
            }
            env.barrier();
            let mut i = 0u32;
            for _ in 0..BATCHES {
                for _ in 0..BATCH {
                    vi.send(&i.to_le_bytes());
                    i += 1;
                }
                let ack = vi.recv();
                assert_eq!(&ack[..], b"ackd");
                vi.post_recv(8);
            }
        }
    });
}

#[test]
fn via_exact_capacity_fit_is_accepted() {
    let (w, net) = pair(NetKind::ViaSan);
    w.run(|env| {
        let via = Via::new(env.adapter_on(net).unwrap());
        if env.id() == 1 {
            let mut vi = via.open_vi(0, 2);
            vi.post_recv(128);
            env.barrier();
            let got = vi.recv();
            assert_eq!(got.len(), 128);
        } else {
            let mut vi = via.open_vi(1, 2);
            vi.post_recv(128);
            env.barrier();
            vi.send(&[7u8; 128]);
        }
    });
}

// ---------------- SBP ----------------

#[test]
fn sbp_tx_pool_exhaustion_blocks_until_release() {
    let (w, net) = pair(NetKind::Ethernet);
    w.run(|env| {
        if env.id() != 0 {
            return;
        }
        let sbp = Sbp::new(env.adapter_on(net).unwrap());
        // Drain the pool.
        let held: Vec<_> = (0..SBP_POOL_SIZE).map(|_| sbp.obtain_tx()).collect();
        assert_eq!(sbp.tx_available(), 0);
        // A blocked obtain completes once a buffer is dropped.
        let sbp2 = sbp.clone();
        let h = env.spawn_thread(move || {
            let _b = sbp2.obtain_tx();
            true
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert!(!h.is_finished(), "obtain should be blocked on empty pool");
        drop(held);
        assert!(h.join().unwrap());
    });
}

#[test]
fn sbp_messages_from_two_sources_demultiplex() {
    let mut b = WorldBuilder::new(3);
    let net = b.network("eth0", NetKind::Ethernet, &[0, 1, 2]);
    let w = b.build();
    w.run(|env| {
        let sbp = Sbp::new(env.adapter_on(net).unwrap());
        if env.id() < 2 {
            let mut buf = sbp.obtain_tx();
            buf.fill(&[env.id() as u8; 32]);
            sbp.send(2, 1, buf);
        } else {
            let a = sbp.recv_from(0, 1);
            assert!(a.iter().all(|&b| b == 0));
            let b2 = sbp.recv_from(1, 1);
            assert!(b2.iter().all(|&b| b == 1));
        }
    });
}

// ---------------- SISCI ----------------

#[test]
fn sisci_independent_segments_do_not_interfere() {
    let (w, net) = pair(NetKind::Sci);
    w.run(|env| {
        let sisci = Sisci::new(env.adapter_on(net).unwrap());
        if env.id() == 1 {
            let seg_a = sisci.create_segment(1, 256);
            let seg_b = sisci.create_segment(2, 256);
            seg_a.wait_flag_ge(0, 1);
            seg_b.wait_flag_ge(0, 1);
            let mut a = [0u8; 4];
            let mut b = [0u8; 4];
            seg_a.read(8, &mut a);
            seg_b.read(8, &mut b);
            assert_eq!(&a, b"AAAA");
            assert_eq!(&b, b"BBBB");
        } else {
            let ra = sisci.connect(1, 1);
            let rb = sisci.connect(1, 2);
            let vb = rb.write(8, b"BBBB");
            rb.write_flag(0, 1, vb);
            let va = ra.write(8, b"AAAA");
            ra.write_flag(0, 1, va);
        }
    });
}

#[test]
fn sisci_wait_flag_ge_val_returns_first_satisfying_write() {
    let (w, net) = pair(NetKind::Sci);
    w.run(|env| {
        let sisci = Sisci::new(env.adapter_on(net).unwrap());
        if env.id() == 1 {
            let seg = sisci.create_segment(3, 64);
            env.barrier(); // both flags written before we look
            let (v, _) = seg.wait_flag_ge_val(0, 5, 0, None).expect("no timeout");
            // The first write with value >= 5 was 10 (writes were 3, 10).
            assert_eq!(v, 10);
        } else {
            let seg = sisci.connect(1, 3);
            seg.write_flag(0, 3, madsim_net::VTime::ZERO);
            seg.write_flag(0, 10, madsim_net::VTime::ZERO);
            env.barrier();
        }
    });
}

#[test]
fn sisci_dma_and_pio_can_mix_on_one_segment() {
    let (w, net) = pair(NetKind::Sci);
    w.run(|env| {
        let sisci = Sisci::new(env.adapter_on(net).unwrap());
        if env.id() == 1 {
            let seg = sisci.create_segment(4, 1 << 16);
            seg.wait_flag_ge(0, 2);
            let mut pio = vec![0u8; 16];
            let mut dma = vec![0u8; 32_768];
            seg.read(16, &mut pio);
            seg.read(1024, &mut dma);
            assert!(pio.iter().all(|&b| b == 1));
            assert!(dma.iter().all(|&b| b == 2));
        } else {
            let seg = sisci.connect(1, 4);
            let v1 = seg.write(16, &[1u8; 16]);
            let v2 = seg.dma_write(1024, &[2u8; 32_768]);
            seg.write_flag(0, 2, v1.max(v2));
        }
    });
}

// ---------------- world / bus plumbing ----------------

#[test]
fn pci_of_reaches_every_node() {
    use madsim_net::{BusDir, BusKind, VDuration, VTime};
    let mut b = WorldBuilder::new(3);
    let net = b.network("sci0", NetKind::Sci, &[0, 1, 2]);
    let w = b.build();
    w.run(|env| {
        if env.id() != 0 {
            return;
        }
        let a = env.adapter_on(net).unwrap();
        // Reserve on node 2's bus from node 0's context; node 2's own
        // transfer then queues behind it.
        let e1 = a.pci_of(2).transfer(
            BusKind::Dma,
            BusDir::Inbound,
            VTime::ZERO,
            VDuration::from_micros(100),
        );
        assert_eq!(e1.as_nanos(), 100_000);
        let e2 = a.pci_of(2).transfer(
            BusKind::Dma,
            BusDir::Outbound,
            VTime::ZERO,
            VDuration::from_micros(10),
        );
        assert_eq!(e2.as_nanos(), 110_000, "serialized behind the first");
        // Node 0's own bus is unaffected.
        let e3 = a.pci().transfer(
            BusKind::Dma,
            BusDir::Outbound,
            VTime::ZERO,
            VDuration::from_micros(10),
        );
        assert_eq!(e3.as_nanos(), 10_000);
    });
}

#[test]
fn members_of_and_networks_report_topology() {
    let mut b = WorldBuilder::new(4);
    b.network("sci0", NetKind::Sci, &[0, 1]);
    b.network("myr0", NetKind::Myrinet, &[1, 2, 3]);
    let w = b.build();
    w.run(|env| {
        assert_eq!(env.members_of("sci0"), Some(vec![0, 1]));
        assert_eq!(env.members_of("myr0"), Some(vec![1, 2, 3]));
        assert_eq!(env.members_of("nope"), None);
        let nets = env.networks();
        assert_eq!(nets.len(), 2);
        assert_eq!(nets[0], ("sci0".to_string(), NetKind::Sci));
    });
}

#[test]
fn world_run_returns_results_in_node_order() {
    let mut b = WorldBuilder::new(4);
    b.network("eth0", NetKind::Ethernet, &[0, 1, 2, 3]);
    let w = b.build();
    let out = w.run(|env| env.id() * 10);
    assert_eq!(out, vec![0, 10, 20, 30]);
}

#[test]
fn bip_long_messages_pipeline_with_early_cts() {
    // Two back-to-back long messages: the second CTS posted before the
    // first is consumed keeps both flights independent.
    let (w, net) = pair(NetKind::Myrinet);
    w.run(|env| {
        let bip = Bip::new(env.adapter_on(net).unwrap());
        if env.id() == 0 {
            bip.send_long(1, 1, Bytes::from(vec![1u8; 30_000]));
            bip.send_long(1, 1, Bytes::from(vec![2u8; 30_000]));
        } else {
            bip.post_cts(0, 1);
            bip.post_cts(0, 1);
            let mut a = vec![0u8; 30_000];
            let mut b2 = vec![0u8; 30_000];
            bip.recv_long_posted(0, 1, &mut a);
            bip.recv_long_posted(0, 1, &mut b2);
            assert!(a.iter().all(|&x| x == 1));
            assert!(b2.iter().all(|&x| x == 2));
        }
    });
}
