//! Semantics of the mode flags, the Switch Module, and the API contracts
//! (paper §2.2, §4).

use madeleine::{Config, Madeleine, Protocol, RecvMode, SendMode};
use madsim_net::{NetKind, WorldBuilder};

fn sci_pair() -> (madsim_net::World, Config) {
    let mut b = WorldBuilder::new(2);
    b.network("sci0", NetKind::Sci, &[0, 1]);
    (b.build(), Config::one("ch", "sci0", Protocol::Sisci))
}

/// `pack_safer` captures at pack time: the caller may overwrite the buffer
/// immediately and the receiver still sees the packed value.
#[test]
fn safer_allows_immediate_reuse() {
    let (world, config) = sci_pair();
    world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let ch = mad.channel("ch");
        if env.id() == 0 {
            let mut scratch = vec![1u8; 4000];
            let mut msg = ch.begin_packing(1);
            msg.pack_safer(&scratch, RecvMode::Cheaper);
            // Reuse the buffer before the message is finalized.
            scratch.iter_mut().for_each(|b| *b = 2);
            msg.pack_safer(&scratch, RecvMode::Cheaper);
            scratch.iter_mut().for_each(|b| *b = 3);
            msg.end_packing();
        } else {
            let mut a = vec![0u8; 4000];
            let mut b2 = vec![0u8; 4000];
            let mut msg = ch.begin_unpacking();
            msg.unpack(&mut a, SendMode::Safer, RecvMode::Cheaper);
            msg.unpack(&mut b2, SendMode::Safer, RecvMode::Cheaper);
            msg.end_unpacking();
            assert!(a.iter().all(|&x| x == 1), "first SAFER block corrupted");
            assert!(b2.iter().all(|&x| x == 2), "second SAFER block corrupted");
        }
    });
}

/// `send_LATER` defers the transmission to `end_packing`: no buffer
/// reaches a TM at pack time.
#[test]
fn later_defers_transmission_to_commit() {
    let (world, config) = sci_pair();
    world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let ch = mad.channel("ch");
        if env.id() == 0 {
            let data = vec![5u8; 2000];
            let before = ch.stats().snapshot();
            let mut msg = ch.begin_packing(1);
            msg.pack(&data, SendMode::Later, RecvMode::Cheaper);
            // The internal header may have been flushed (TM switch), but
            // the LATER payload itself must not have been.
            let mid = ch.stats().snapshot().since(&before);
            assert!(
                mid.buffers_sent <= 1,
                "LATER data must not be transmitted before end_packing \
                 ({} buffers sent)",
                mid.buffers_sent
            );
            msg.end_packing();
            let after = ch.stats().snapshot().since(&before);
            assert!(
                after.buffers_sent > mid.buffers_sent,
                "commit must flush the LATER payload"
            );
        } else {
            let mut buf = vec![0u8; 2000];
            let mut msg = ch.begin_unpacking();
            msg.unpack(&mut buf, SendMode::Later, RecvMode::Cheaper);
            msg.end_unpacking();
            assert!(buf.iter().all(|&x| x == 5));
        }
    });
}

/// An EXPRESS pack flushes eagerly so the peer can extract immediately.
#[test]
fn express_forces_early_flush() {
    let (world, config) = sci_pair();
    world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let ch = mad.channel("ch");
        if env.id() == 0 {
            let data = vec![9u8; 100];
            let before = ch.stats().snapshot();
            let mut msg = ch.begin_packing(1);
            msg.pack(&data, SendMode::Cheaper, RecvMode::Express);
            let mid = ch.stats().snapshot().since(&before);
            assert!(
                mid.buffers_sent >= 1,
                "EXPRESS block must be flushed at pack time"
            );
            // Peer reads the express block while our message is still open.
            env.barrier();
            msg.end_packing();
        } else {
            let mut buf = vec![0u8; 100];
            let mut msg = ch.begin_unpacking();
            msg.unpack_express(&mut buf, SendMode::Cheaper);
            assert!(buf.iter().all(|&x| x == 9));
            env.barrier();
            msg.end_unpacking();
        }
    });
}

/// CHEAPER extraction may be deferred, but `end_unpacking` guarantees it.
#[test]
fn cheaper_extraction_completes_at_end() {
    let (world, config) = sci_pair();
    world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let ch = mad.channel("ch");
        if env.id() == 0 {
            let a = vec![1u8; 700];
            let b2 = vec![2u8; 700];
            let mut msg = ch.begin_packing(1);
            msg.pack(&a, SendMode::Cheaper, RecvMode::Cheaper);
            msg.pack(&b2, SendMode::Cheaper, RecvMode::Cheaper);
            msg.end_packing();
        } else {
            let mut a = vec![0u8; 700];
            let mut b2 = vec![0u8; 700];
            let mut msg = ch.begin_unpacking();
            msg.unpack(&mut a, SendMode::Cheaper, RecvMode::Cheaper);
            msg.unpack(&mut b2, SendMode::Cheaper, RecvMode::Cheaper);
            msg.end_unpacking();
            assert!(a.iter().all(|&x| x == 1));
            assert!(b2.iter().all(|&x| x == 2));
        }
    });
}

#[test]
#[should_panic(expected = "cannot send to self")]
fn send_to_self_panics() {
    let (world, config) = sci_pair();
    world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        if env.id() == 0 {
            let _ = mad.channel("ch").begin_packing(0);
        }
    });
}

#[test]
#[should_panic(expected = "is not a member")]
fn send_to_non_member_panics() {
    let (world, config) = sci_pair();
    world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        if env.id() == 0 {
            let _ = mad.channel("ch").begin_packing(7);
        }
    });
}

#[test]
#[should_panic(expected = "never end_packing")]
fn abandoned_outgoing_message_is_detected() {
    let (world, config) = sci_pair();
    world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        if env.id() == 0 {
            let ch = mad.channel("ch");
            {
                let _abandoned = ch.begin_packing(1);
                // dropped without end_packing
            }
            let _second = ch.begin_packing(1);
        }
    });
}

/// Asymmetric pack/unpack corrupts the stream and is caught loudly at the
/// next message boundary (the header magic/sequence check).
#[test]
#[should_panic]
fn asymmetric_unpack_is_caught() {
    let (world, config) = sci_pair();
    world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let ch = mad.channel("ch");
        if env.id() == 0 {
            let data = vec![1u8; 300];
            for _ in 0..2 {
                let mut msg = ch.begin_packing(1);
                msg.pack(&data, SendMode::Cheaper, RecvMode::Cheaper);
                msg.end_packing();
            }
        } else {
            // Read only 100 of the 300 bytes — a violation of the
            // symmetry contract.
            let mut short = vec![0u8; 100];
            let mut msg = ch.begin_unpacking();
            msg.unpack(&mut short, SendMode::Cheaper, RecvMode::Cheaper);
            msg.end_unpacking();
            // The next message's header is now misaligned.
            let _ = ch.begin_unpacking();
        }
    });
}

/// TM selection boundaries of the drivers (the Switch step is a pure
/// function both sides must agree on).
#[test]
fn tm_selection_boundaries() {
    // BIP: < 1024 short, >= 1024 long.
    let mut b = WorldBuilder::new(2);
    b.network("myr0", NetKind::Myrinet, &[0, 1]);
    let world = b.build();
    let config = Config::one("ch", "myr0", Protocol::Bip);
    world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let pmm = std::sync::Arc::clone(mad.channel("ch").pmm());
        assert_eq!(pmm.select(1023, SendMode::Cheaper, RecvMode::Cheaper), 0);
        assert_eq!(pmm.select(1024, SendMode::Cheaper, RecvMode::Cheaper), 1);
        assert_eq!(pmm.tms()[0].name(), "bip/short");
        assert_eq!(pmm.tms()[1].name(), "bip/long");
    });

    // SISCI: <= 512 short, else regular; DMA only when enabled and > 8 kB.
    let (world, config) = sci_pair();
    world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let pmm = std::sync::Arc::clone(mad.channel("ch").pmm());
        assert_eq!(pmm.select(512, SendMode::Cheaper, RecvMode::Cheaper), 0);
        assert_eq!(pmm.select(513, SendMode::Cheaper, RecvMode::Cheaper), 1);
        assert_eq!(pmm.select(100_000, SendMode::Cheaper, RecvMode::Cheaper), 1);
    });
    let (world, config) = sci_pair();
    let config = config.with_sci_dma(true);
    world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let pmm = std::sync::Arc::clone(mad.channel("ch").pmm());
        assert_eq!(pmm.select(8192, SendMode::Cheaper, RecvMode::Cheaper), 1);
        assert_eq!(pmm.select(8193, SendMode::Cheaper, RecvMode::Cheaper), 2);
        assert_eq!(pmm.tms()[2].name(), "sisci/dma");
    });
}

/// Mode combinations do not change the wire contents, only the transfer
/// strategy: all four SAFER/LATER×EXPRESS/CHEAPER pairings of the same
/// payload produce identical bytes at the receiver.
#[test]
fn modes_are_transparent_to_content() {
    let (world, config) = sci_pair();
    world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let ch = mad.channel("ch");
        let payload: Vec<u8> = (0..5000).map(|i| (i % 241) as u8).collect();
        let combos = [
            (SendMode::Safer, RecvMode::Express),
            (SendMode::Safer, RecvMode::Cheaper),
            (SendMode::Cheaper, RecvMode::Express),
            (SendMode::Cheaper, RecvMode::Cheaper),
            (SendMode::Later, RecvMode::Cheaper),
        ];
        for &(sm, rm) in &combos {
            if env.id() == 0 {
                let mut msg = ch.begin_packing(1);
                msg.pack(&payload, sm, rm);
                msg.end_packing();
            } else {
                let mut got = vec![0u8; payload.len()];
                let mut msg = ch.begin_unpacking();
                msg.unpack(&mut got, sm, rm);
                msg.end_unpacking();
                assert_eq!(got, payload, "modes {sm}/{rm}");
            }
        }
    });
}

/// The Marcel-style network interaction policies (paper conclusion):
/// interrupt-driven reception pays a wakeup latency that pure polling does
/// not — measurable end-to-end through the stack. Counted as well as timed:
/// a wait for the message that blocks parks exactly once, on the receiver
/// node's arrivals count, and a spinning one never does.
#[test]
fn poll_policy_cost_is_visible_end_to_end() {
    use madeleine::PollPolicy;
    let oneway = |policy: PollPolicy| -> (f64, u64) {
        let mut b = WorldBuilder::new(2);
        b.network("sci0", NetKind::Sci, &[0, 1]);
        let world = b.build();
        let config = Config::one("ch", "sci0", Protocol::Sisci).with_poll_policy(policy);
        let out = world.run(move |env| {
            let mad = Madeleine::init(&env, &config);
            let ch = mad.channel("ch");
            if env.id() == 0 {
                // Let the receiver block first, so the wakeup path runs.
                std::thread::sleep(std::time::Duration::from_millis(40));
                let mut msg = ch.begin_packing(1);
                msg.pack(&[1u8; 64], SendMode::Cheaper, RecvMode::Cheaper);
                msg.end_packing();
                (0.0, 0)
            } else {
                // The wait for the message is begin_unpacking's; the
                // body's own flag may or may not be up by the time it ends.
                let parked = || env.arrivals().stats().parks;
                let before = parked();
                let mut buf = [0u8; 64];
                let mut msg = ch.begin_unpacking();
                let parks = parked() - before;
                msg.unpack(&mut buf, SendMode::Cheaper, RecvMode::Cheaper);
                msg.end_unpacking();
                (madsim_net::time::now().as_micros_f64(), parks)
            }
        });
        out[1]
    };
    let (spin, spin_parks) = oneway(PollPolicy::Spin);
    let (intr, intr_parks) = oneway(PollPolicy::Interrupt { latency_us: 25.0 });
    assert_eq!((spin_parks, intr_parks), (0, 1));
    let diff = intr - spin;
    // The full 25 us lands on the receiver, minus whatever post-arrival
    // work the wakeup window absorbs (the receiver's extraction overlaps
    // the interrupt delivery).
    assert!(
        diff > 18.0 && diff <= 25.5,
        "interrupt wakeup should cost ~25us more: spin={spin:.2} intr={intr:.2}"
    );
    // Adaptive with a long spin phase behaves like polling when the
    // message arrives while spinning... here the sender is slow, so the
    // interrupt path arms and the charge applies.
    let (adaptive, adaptive_parks) = oneway(PollPolicy::Adaptive {
        spin_rounds: 2,
        interrupt_latency_us: 25.0,
    });
    assert_eq!(adaptive_parks, 1);
    assert!(
        (adaptive - intr).abs() < 2.0,
        "slow sender forces the adaptive policy onto the interrupt path \
         (adaptive={adaptive:.2} intr={intr:.2})"
    );
}

/// The §4 ordering discipline observed directly through the tracer: a TM
/// switch commits the previous BMM on the send side and checkouts on the
/// receive side, in exactly the order the paper's Fig. 3 walk-through
/// describes.
#[test]
fn trace_shows_commit_on_tm_switch() {
    use madeleine::trace::TraceEvent;
    let (world, config) = sci_pair();
    world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let ch = mad.channel("ch");
        ch.enable_trace();
        let small = vec![1u8; 100]; // short TM (id 0)
        let big = vec![2u8; 20_000]; // regular TM (id 1)
        if env.id() == 0 {
            let mut msg = ch.begin_packing(1);
            msg.pack(&small, SendMode::Cheaper, RecvMode::Cheaper);
            msg.pack(&big, SendMode::Cheaper, RecvMode::Cheaper);
            msg.pack(&small, SendMode::Cheaper, RecvMode::Cheaper);
            msg.end_packing();
            let ev: Vec<_> = ch.tracer().events().into_iter().map(|t| t.event).collect();
            // begin, pack(small->0), commit 0->1, pack(big->1),
            // commit 1->0, pack(small->0), end.
            assert!(matches!(ev[0], TraceEvent::BeginPacking { dst: 1 }));
            assert!(
                matches!(
                    ev[1],
                    TraceEvent::Pack {
                        len: 100,
                        tm: 0,
                        ..
                    }
                ),
                "got {:?}",
                ev[1]
            );
            assert!(matches!(
                ev[2],
                TraceEvent::CommitOnSwitch { from: 0, to: 1 }
            ));
            assert!(matches!(
                ev[3],
                TraceEvent::Pack {
                    len: 20_000,
                    tm: 1,
                    ..
                }
            ));
            assert!(matches!(
                ev[4],
                TraceEvent::CommitOnSwitch { from: 1, to: 0 }
            ));
            assert!(matches!(
                ev[5],
                TraceEvent::Pack {
                    len: 100,
                    tm: 0,
                    ..
                }
            ));
            assert!(matches!(ev[6], TraceEvent::EndPacking));
            // Timestamps are monotone.
            let times: Vec<_> = ch.tracer().events().iter().map(|t| t.at).collect();
            assert!(times.windows(2).all(|w| w[0] <= w[1]));
        } else {
            let mut a = vec![0u8; 100];
            let mut b = vec![0u8; 20_000];
            let mut c = vec![0u8; 100];
            let mut msg = ch.begin_unpacking();
            msg.unpack(&mut a, SendMode::Cheaper, RecvMode::Cheaper);
            msg.unpack(&mut b, SendMode::Cheaper, RecvMode::Cheaper);
            msg.unpack(&mut c, SendMode::Cheaper, RecvMode::Cheaper);
            msg.end_unpacking();
            let ev: Vec<_> = ch.tracer().events().into_iter().map(|t| t.event).collect();
            assert!(matches!(ev[0], TraceEvent::BeginUnpacking { src: 0 }));
            assert!(ev
                .iter()
                .any(|e| matches!(e, TraceEvent::CheckoutOnSwitch { from: 0, to: 1 })));
            assert!(ev
                .iter()
                .any(|e| matches!(e, TraceEvent::CheckoutOnSwitch { from: 1, to: 0 })));
            assert!(matches!(
                ev.last().expect("non-empty"),
                TraceEvent::EndUnpacking
            ));
        }
    });
}

/// The Switch picks the same TM sequence on both sides (the symmetry the
/// paper mandates), verified through traces.
#[test]
fn trace_tm_sequences_are_symmetric() {
    use madeleine::trace::TraceEvent;
    let (world, config) = sci_pair();
    let seqs = world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let ch = mad.channel("ch");
        ch.enable_trace();
        let sizes = [30usize, 5000, 512, 513, 64];
        if env.id() == 0 {
            let blocks: Vec<Vec<u8>> = sizes.iter().map(|&n| vec![0u8; n]).collect();
            let mut msg = ch.begin_packing(1);
            for b in &blocks {
                msg.pack(b, SendMode::Cheaper, RecvMode::Cheaper);
            }
            msg.end_packing();
        } else {
            let mut bufs: Vec<Vec<u8>> = sizes.iter().map(|&n| vec![0u8; n]).collect();
            let mut msg = ch.begin_unpacking();
            for b in bufs.iter_mut() {
                msg.unpack(b, SendMode::Cheaper, RecvMode::Cheaper);
            }
            msg.end_unpacking();
        }
        ch.tracer()
            .events()
            .into_iter()
            .filter_map(|t| match t.event {
                TraceEvent::Pack { len, tm, .. } | TraceEvent::Unpack { len, tm, .. } => {
                    Some((len, tm))
                }
                _ => None,
            })
            .collect::<Vec<_>>()
    });
    assert_eq!(seqs[0], seqs[1], "send/recv TM sequences must agree");
}

/// The typed helpers round-trip and compose with raw packs.
#[test]
fn typed_helpers_roundtrip() {
    let (world, config) = sci_pair();
    world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let ch = mad.channel("ch");
        if env.id() == 0 {
            let body: Vec<u8> = (0..9000).map(|i| (i % 251) as u8).collect();
            let mut msg = ch.begin_packing(1);
            msg.pack_u32(0xDEAD_BEEF, RecvMode::Express);
            msg.pack_f64(1.5, RecvMode::Express);
            msg.pack_str("hello-madeleine");
            msg.pack_sized_bytes(&body);
            msg.end_packing();
        } else {
            let mut msg = ch.begin_unpacking();
            assert_eq!(msg.unpack_u32(), 0xDEAD_BEEF);
            assert_eq!(msg.unpack_f64(), 1.5);
            assert_eq!(msg.unpack_string(), "hello-madeleine");
            let body = msg.unpack_sized_bytes();
            msg.end_unpacking();
            assert_eq!(body.len(), 9000);
            assert!(body.iter().enumerate().all(|(i, &b)| b == (i % 251) as u8));
        }
    });
}

/// Typed helpers work over every protocol driver.
#[test]
fn typed_helpers_on_all_protocols() {
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
        let config = Config::one("ch", net, protocol);
        world.run(move |env| {
            let mad = Madeleine::init(&env, &config);
            let ch = mad.channel("ch");
            if env.id() == 0 {
                let mut msg = ch.begin_packing(1);
                msg.pack_str("proto-check");
                msg.pack_u32(12345, RecvMode::Express);
                msg.end_packing();
            } else {
                let mut msg = ch.begin_unpacking();
                assert_eq!(msg.unpack_string(), "proto-check");
                assert_eq!(msg.unpack_u32(), 12345);
                msg.end_unpacking();
            }
        });
    }
}

/// `try_begin_unpacking` is a faithful non-blocking variant.
#[test]
fn try_begin_unpacking_does_not_block() {
    let (world, config) = sci_pair();
    world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let ch = mad.channel("ch");
        if env.id() == 0 {
            env.barrier(); // let the receiver observe emptiness first
            let mut msg = ch.begin_packing(1);
            msg.pack(b"now you see me", SendMode::Cheaper, RecvMode::Cheaper);
            msg.end_packing();
        } else {
            assert!(!ch.has_incoming());
            assert!(ch.try_begin_unpacking().is_none());
            env.barrier();
            // Blocking wait still works afterwards.
            let mut buf = [0u8; 14];
            let mut msg = ch.begin_unpacking();
            msg.unpack(&mut buf, SendMode::Cheaper, RecvMode::Cheaper);
            msg.end_unpacking();
            assert_eq!(&buf, b"now you see me");
        }
    });
}

/// The same single-flow scenario produces identical virtual times across
/// runs — the deterministic core of the simulation (multi-flow gateway
/// scenarios may vary within tolerances; see DESIGN.md).
#[test]
fn single_flow_timing_is_deterministic() {
    let run_once = || -> Vec<u64> {
        let (world, config) = sci_pair();
        world.run(move |env| {
            let mad = Madeleine::init(&env, &config);
            let ch = mad.channel("ch");
            for n in [16usize, 4096, 40_000] {
                let data = vec![1u8; n];
                if env.id() == 0 {
                    let mut m = ch.begin_packing(1);
                    m.pack(&data, SendMode::Cheaper, RecvMode::Cheaper);
                    m.end_packing();
                } else {
                    let mut buf = vec![0u8; n];
                    let mut m = ch.begin_unpacking();
                    m.unpack(&mut buf, SendMode::Cheaper, RecvMode::Cheaper);
                    m.end_unpacking();
                }
            }
            madsim_net::time::now().as_nanos()
        })
    };
    let a = run_once();
    let b = run_once();
    let c = run_once();
    assert_eq!(a, b);
    assert_eq!(b, c);
}

/// The per-TM traffic breakdown shows the Switch's decisions: small blocks
/// go through the short TM, bulk through the regular TM, and the byte
/// totals account for every payload byte plus the internal header.
#[test]
fn per_tm_traffic_breakdown() {
    let (world, config) = sci_pair();
    world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let ch = mad.channel("ch");
        if env.id() == 0 {
            let small = vec![1u8; 100];
            let big = vec![2u8; 20_000];
            let mut msg = ch.begin_packing(1);
            msg.pack(&small, SendMode::Cheaper, RecvMode::Cheaper);
            msg.pack(&big, SendMode::Cheaper, RecvMode::Cheaper);
            msg.end_packing();
            let (short_bufs, short_bytes) = ch.stats().tm_traffic(0);
            let (bulk_bufs, bulk_bytes) = ch.stats().tm_traffic(1);
            // Short TM carried the channel header (its own eager flush)
            // plus the 100 B block (flushed at the TM switch). The header
            // is 3 B: prologue + src + seq varints for the first message
            // of node 0.
            let hdr = 3;
            assert_eq!(short_bufs, 2);
            assert_eq!(short_bytes, 100 + hdr);
            assert_eq!(bulk_bufs, 1);
            assert_eq!(bulk_bytes, 20_000);
            assert_eq!(ch.stats().tm_traffic(2), (0, 0), "DMA TM is disabled");
        } else {
            let mut a = vec![0u8; 100];
            let mut b = vec![0u8; 20_000];
            let mut msg = ch.begin_unpacking();
            msg.unpack(&mut a, SendMode::Cheaper, RecvMode::Cheaper);
            msg.unpack(&mut b, SendMode::Cheaper, RecvMode::Cheaper);
            msg.end_unpacking();
        }
    });
}

/// The world's calibration table is the one retiming surface, and every
/// row of it reaches the layer that charges it: scaling one figure of a
/// protocol's row (or of the generic layer's host row) stretches the
/// measured one-way time of a 4 KiB message over that protocol.
#[test]
fn stack_timing_overrides_apply() {
    use madsim_net::{Calib, HostModel, Row};
    use Protocol::*;
    let oneway = |protocol: Protocol, calib: Calib| -> u64 {
        let (net, kind) = match protocol {
            Tcp | Sbp => ("eth0", NetKind::Ethernet),
            Bip => ("myr0", NetKind::Myrinet),
            Sisci => ("sci0", NetKind::Sci),
            Via => ("san0", NetKind::ViaSan),
        };
        let mut b = WorldBuilder::new(2).calib(calib);
        b.network(net, kind, &[0, 1]);
        let config = Config::one("ch", net, protocol);
        let out = b.build().run(move |env| {
            let mad = Madeleine::init(&env, &config);
            let ch = mad.channel("ch");
            if env.id() == 0 {
                let mut m = ch.begin_packing(1);
                m.pack(&[1u8; 4096], SendMode::Cheaper, RecvMode::Cheaper);
                m.end_packing();
            } else {
                let mut buf = [0u8; 4096];
                let mut m = ch.begin_unpacking();
                m.unpack(&mut buf, SendMode::Cheaper, RecvMode::Cheaper);
                m.end_unpacking();
            }
            madsim_net::time::now().as_nanos()
        });
        out[1]
    };
    let p = Calib::PAPER;
    let slower = |row: Row| Row {
        per_byte_us: row.per_byte_us * 4.0,
        ..row
    };
    let host = HostModel {
        pack_op_us: p.host.pack_op_us * 10.0,
        ..p.host
    };
    let retimed = [
        (
            "bip_long",
            Bip,
            Calib {
                bip_long: slower(p.bip_long),
                ..p
            },
        ),
        (
            "sci_pio",
            Sisci,
            Calib {
                sci_pio: slower(p.sci_pio),
                ..p
            },
        ),
        (
            "tcp",
            Tcp,
            Calib {
                tcp: slower(p.tcp),
                ..p
            },
        ),
        (
            "via",
            Via,
            Calib {
                via: slower(p.via),
                ..p
            },
        ),
        (
            "sbp",
            Sbp,
            Calib {
                sbp: slower(p.sbp),
                ..p
            },
        ),
        ("host", Sisci, Calib { host, ..p }),
    ];
    for (row, protocol, calib) in retimed {
        let (stock, slow) = (oneway(protocol, p), oneway(protocol, calib));
        assert!(
            slow > stock,
            "{row} retiming ignored over {protocol:?}: stock {stock} ns, retimed {slow} ns"
        );
    }
}

/// try_begin_unpacking composes with the full unpack flow.
#[test]
fn try_begin_unpacking_consumes_correctly() {
    let (world, config) = sci_pair();
    world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let ch = mad.channel("ch");
        if env.id() == 0 {
            let mut m = ch.begin_packing(1);
            m.pack(b"polled!", SendMode::Cheaper, RecvMode::Cheaper);
            m.end_packing();
            env.barrier();
        } else {
            env.barrier(); // message certainly announced by now
            let mut buf = [0u8; 7];
            let mut m = ch
                .try_begin_unpacking()
                .expect("message was already announced");
            m.unpack(&mut buf, SendMode::Cheaper, RecvMode::Cheaper);
            m.end_unpacking();
            assert_eq!(&buf, b"polled!");
            // Channel drained: nothing further announced.
            assert!(ch.try_begin_unpacking().is_none());
        }
    });
}

/// `with_batching(1, ...)` *is* batching-off: the coalescing layer is
/// bypassed entirely, so a traced fault-free exchange over TCP produces
/// the identical event stream — timestamps included — and the identical
/// stats snapshot as the default spec. In the deterministic simulation
/// this is the observable equivalent of the wire-format byte-identity
/// guarantee for disabled batching.
#[test]
fn batch_size_one_is_identical_to_default() {
    use madeleine::ChannelSpec;

    let run = |batch_one: bool| {
        let mut b = WorldBuilder::new(2);
        b.network("eth0", NetKind::Ethernet, &[0, 1]);
        let world = b.build();
        let mut spec = ChannelSpec::new("ch", "eth0", Protocol::Tcp);
        if batch_one {
            spec = spec.with_batching(1, 4096, 20.0);
        }
        let config = Config::default().with_channel_spec(spec);
        world.run(move |env| {
            let mad = Madeleine::init(&env, &config);
            let ch = mad.channel("ch");
            ch.enable_trace();
            let sizes = [16usize, 200, 64, 1500];
            if env.id() == 0 {
                let payloads: Vec<Vec<u8>> = sizes.iter().map(|&n| vec![7u8; n]).collect();
                let mut msg = ch.begin_packing(1);
                for p in &payloads {
                    msg.pack(p, SendMode::Cheaper, RecvMode::Cheaper);
                }
                msg.end_packing();
                let mut ack = [0u8; 1];
                let mut msg = ch.begin_unpacking();
                msg.unpack_express(&mut ack, SendMode::Cheaper);
                msg.end_unpacking();
                assert_eq!(ack[0], 9);
            } else {
                let mut bufs: Vec<Vec<u8>> = sizes.iter().map(|&n| vec![0u8; n]).collect();
                let mut msg = ch.begin_unpacking();
                for buf in bufs.iter_mut() {
                    msg.unpack(buf, SendMode::Cheaper, RecvMode::Cheaper);
                }
                msg.end_unpacking();
                assert!(bufs.iter().flatten().all(|&x| x == 7));
                let mut msg = ch.begin_packing(0);
                msg.pack(&[9u8], SendMode::Cheaper, RecvMode::Express);
                msg.end_packing();
            }
            assert_eq!(ch.stats().batches(), 0, "batch layer must stay bypassed");
            (ch.tracer().events(), ch.stats().snapshot())
        })
    };
    assert_eq!(
        run(false),
        run(true),
        "batch_packets == 1 must be indistinguishable from the default spec"
    );
}
