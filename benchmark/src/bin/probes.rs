//! Per-layer probes: each drives one layer's public API in isolation and
//! times it from outside, in wall time (virtual time where the name says
//! `virt`). Unlike `e2e`, this binary reaches below the application
//! surface — `Pmm::select`, `SendBmm`/`RecvBmm`, TM handles, the raw
//! protocol stacks, `Mailbox`, `PciBus`, `wire`, `CompletionQueue`,
//! `BufPool` — so a refactor of those layers may break it without touching
//! the gated end-to-end run.
//!
//! The ledger is built by subtraction down the paper's own chain, every
//! level measured the same way: the median one-way time (round trip / 2)
//! of a 64 B ping-pong on SISCI as long as `pingpong_64b`'s rep, so all
//! levels carry the same simulator state growth:
//!
//! ```text
//! full stack (pingpong_64b)  - TM direct   = ledger.generic_wall_ns
//! TM direct                  - raw stack   = ledger.driver_wall_ns
//! raw stack                  - mailbox     = ledger.stack_wall_ns
//! mailbox hand-off                         = ledger.mailbox_wall_ns
//! ```
//!
//! Prints one JSON object: `{"metrics":{...},"points":{...}}`.

use bytes::Bytes;
use harness::curves::{net_for, shoot, POINTS};
use harness::node::{pin_node_thread, Mode, RepCfg};
use harness::report::{json_num, median, quantile_u64, Metrics};
use harness::workloads::{PINGPONG_TIMED_OPS, PINGPONG_WARM_OPS, WORKLOADS};
use madeleine::bmm::{RecvBmm, SendBmm, SendPolicy};
use madeleine::tm::{StaticBuf, TmCaps, TransmissionModule};
use madeleine::wire::{self, FragHeader};
use madeleine::{
    BufPool, CompletionQueue, Config, HostModel, MadResult, Madeleine, Protocol, RecvMode,
    SendMode, Stats, WireVersion,
};
use madsim_net::stacks::bip::Bip;
use madsim_net::stacks::sisci::Sisci;
use madsim_net::stacks::tcp::TcpStack;
use madsim_net::time::{self, ClockHandle, VDuration, VTime};
use madsim_net::world::NodeEnv;
use madsim_net::{BusDir, BusKind, Frame, Mailbox, NetKind, PciBus, PciConfig, WorldBuilder};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const SMALL: usize = 64;
const LARGE: usize = 64 * 1024;
/// Ping-pong length: `pingpong_64b`'s warm-up plus timed ops.
const WARM: usize = PINGPONG_WARM_OPS;
const OPS: usize = PINGPONG_WARM_OPS + PINGPONG_TIMED_OPS;

/// Wall ns per call of `f`, the median of five batches of `n` calls.
fn per_call_ns(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut batches: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            for i in 0..n {
                f(i);
            }
            t.elapsed().as_nanos() as f64 / n as f64
        })
        .collect();
    median(&mut batches)
}

/// One direction of a ping-pong: `leg(sending, round)`.
type Leg<'a> = Box<dyn FnMut(bool, usize) + 'a>;

/// A 2-node world on one network of `kind`; `make` builds each node's leg.
/// Returns node 0's median one-way wall ns (round trip / 2) and node 1's
/// virtual clock after the first leg (the one-way virtual time of a
/// single transfer in a fresh world).
fn pingpong(
    kind: NetKind,
    rounds: usize,
    make: impl for<'e> Fn(&'e NodeEnv) -> Leg<'e> + Sync,
) -> (f64, f64) {
    let mut b = WorldBuilder::new(2);
    b.network("net0", kind, &[0, 1]);
    let out = b.build().run(|env| {
        let me = env.id();
        pin_node_thread(me);
        let mut leg = make(&env);
        env.barrier();
        let v0 = time::now();
        let mut first_virt_us = 0.0;
        let mut rtts = Vec::with_capacity(rounds);
        for i in 0..rounds {
            let t = Instant::now();
            leg(me == 0, i);
            if i == 0 && me == 1 {
                first_virt_us = time::now().saturating_since(v0).as_micros_f64();
            }
            leg(me != 0, i);
            rtts.push(t.elapsed().as_nanos() as u64);
        }
        let steady = &rtts[WARM.min(rounds - 1)..];
        (quantile_u64(steady, 0.5) / 2.0, first_virt_us)
    });
    (out[0].0, out[1].1)
}

/// A TM that moves nothing: isolates the buffer-management layer.
struct NullTm;

impl TransmissionModule for NullTm {
    fn name(&self) -> &'static str {
        "bench/null"
    }
    fn caps(&self) -> TmCaps {
        TmCaps {
            static_buffers: true,
            buffer_cap: 8192,
            gather: false,
        }
    }
    fn send_buffer(&self, _dst: usize, data: &[u8]) -> MadResult<()> {
        black_box(data);
        Ok(())
    }
    fn receive_buffer(&self, _src: usize, dst: &mut [u8]) -> MadResult<()> {
        black_box(dst);
        Ok(())
    }
    fn send_static_buffer(&self, _dst: usize, buf: StaticBuf) -> MadResult<()> {
        black_box(buf.filled());
        Ok(())
    }
    fn receive_static_buffer(&self, _src: usize) -> MadResult<StaticBuf> {
        Ok(StaticBuf::shared(Bytes::from_static(&[0u8; 8192]), 0))
    }
    fn obtain_static_buffer(&self) -> StaticBuf {
        StaticBuf::owned(8192, 0)
    }
}

fn bmm_probes(m: &mut Metrics) {
    let tm: Arc<dyn TransmissionModule> = Arc::new(NullTm);
    let stats = Stats::new();
    let pool = BufPool::new(Arc::clone(&stats));
    let host = HostModel::default();
    let block = [0xA5u8; SMALL];
    let send = |policy, blocks: usize| {
        per_call_ns(100_000, |_| {
            let mut bmm = SendBmm::with_pool(
                policy,
                Arc::clone(&tm),
                0,
                1,
                host,
                Arc::clone(&stats),
                pool.clone(),
            );
            for _ in 0..blocks {
                bmm.pack(&block, SendMode::Cheaper).expect("null TM");
            }
            bmm.flush().expect("null TM");
        })
    };
    m.put("bmm.eager_wall_ns", send(SendPolicy::Eager, 1), "ns");
    m.put(
        "bmm.aggregate_wall_ns",
        send(SendPolicy::Aggregate, 4),
        "ns",
    );
    m.put(
        "bmm.static_copy_wall_ns",
        send(SendPolicy::StaticCopy, 1),
        "ns",
    );
    let mut got = [0u8; SMALL];
    m.put(
        "bmm.unpack_checkout_wall_ns",
        per_call_ns(100_000, |_| {
            let mut bmm = RecvBmm::new(
                SendPolicy::Eager,
                Arc::clone(&tm),
                1,
                host,
                Arc::clone(&stats),
            );
            bmm.unpack(&mut got, RecvMode::Cheaper).expect("null TM");
            bmm.checkout().expect("null TM");
        }),
        "ns",
    );
}

/// 64 B ping-pong straight over the TM the Switch picks for such a block,
/// on a live session: the driver and everything below it, nothing above.
fn tm_oneway_ns(protocol: Protocol) -> f64 {
    let config = Config::one("ch", "net0", protocol);
    pingpong(net_for(protocol).1, OPS, |env| {
        let mad = Madeleine::init(env, &config);
        let pmm = Arc::clone(mad.channel("ch").pmm());
        let tm = pmm.tm(pmm.select(SMALL, SendMode::Cheaper, RecvMode::Cheaper));
        let peer = 1 - env.id();
        let mut buf = [0x5Au8; SMALL];
        Box::new(move |sending, _| {
            // Keeps the session (and its driver state) alive for the run.
            let _ = &mad;
            if !tm.caps().static_buffers {
                if sending {
                    tm.send_buffer(peer, &buf).expect("fault-free fabric");
                } else {
                    tm.receive_buffer(peer, &mut buf)
                        .expect("fault-free fabric");
                }
            } else if sending {
                let mut sb = tm.obtain_static_buffer();
                sb.spare_mut()[..SMALL].copy_from_slice(&buf);
                sb.advance(SMALL);
                tm.send_static_buffer(peer, sb).expect("fault-free fabric");
            } else {
                let sb = tm.receive_static_buffer(peer).expect("fault-free fabric");
                buf.copy_from_slice(&sb.filled()[..SMALL]);
                tm.release_static_buffer(sb);
            }
        })
    })
    .0
}

/// Raw BIP ping-pong of `len` bytes: `(one-way wall ns, first one-way
/// virtual µs)`.
fn raw_bip(len: usize, rounds: usize) -> (f64, f64) {
    pingpong(NetKind::Myrinet, rounds, |env| {
        let bip = Bip::new(env.adapter_named("net0").expect("member"));
        let peer = 1 - env.id();
        let data = Bytes::from(vec![0x3Cu8; len]);
        let mut buf = vec![0u8; len];
        Box::new(move |sending, _| {
            let short = len <= madsim_net::stacks::bip::BIP_SHORT_MAX;
            match (sending, short) {
                (true, true) => bip.send_short(peer, 1, &data),
                (true, false) => bip.send_long(peer, 1, data.clone()),
                (false, true) => {
                    black_box(bip.recv_short_from(peer, 1));
                }
                (false, false) => {
                    bip.recv_long(peer, 1, &mut buf);
                }
            }
        })
    })
}

/// Raw SISCI ping-pong: PIO write of `len` bytes plus a flag word into the
/// peer's segment; the peer waits on the flag and reads the data out.
fn raw_sisci(len: usize, rounds: usize) -> (f64, f64) {
    const FLAG_OFF: usize = 0;
    const DATA_OFF: usize = 64;
    pingpong(NetKind::Sci, rounds, |env| {
        let sci = Sisci::new(env.adapter_named("net0").expect("member"));
        let local = sci.create_segment(1, DATA_OFF + len);
        let remote = sci.connect(1 - env.id(), 1);
        let data = vec![0x3Cu8; len];
        let mut buf = vec![0u8; len];
        Box::new(move |sending, i| {
            if sending {
                let visible = remote.write(DATA_OFF, &data);
                remote.write_flag(FLAG_OFF, i as u32 + 1, visible);
            } else {
                local.wait_flag_ge(FLAG_OFF, i as u32 + 1);
                local.read(DATA_OFF, &mut buf);
            }
        })
    })
}

/// Raw TCP ping-pong over one established connection.
fn raw_tcp(len: usize, rounds: usize) -> (f64, f64) {
    pingpong(NetKind::Ethernet, rounds, |env| {
        let tcp = TcpStack::new(env.adapter_named("net0").expect("member"));
        let mut conn = tcp.connect(1 - env.id(), 7);
        let data = vec![0x3Cu8; len];
        let mut buf = vec![0u8; len];
        Box::new(move |sending, _| {
            if sending {
                conn.send(&data);
            } else {
                conn.recv_exact(&mut buf);
            }
        })
    })
}

/// `Mailbox<Frame>` hand-off: one producer, one consumer per direction,
/// keyed receive, two plain threads.
fn mailbox_oneway_ns() -> f64 {
    let boxes = [Mailbox::<Frame>::new(), Mailbox::<Frame>::new()];
    let payload = Bytes::from(vec![0u8; SMALL]);
    let run = |me: usize| {
        pin_node_thread(me);
        let mut rtts = Vec::with_capacity(OPS);
        let key = Frame::demux_key(1 - me, 1);
        for _ in 0..OPS {
            let t = Instant::now();
            for turn in 0..2 {
                if turn == me {
                    boxes[1 - me].push(Frame {
                        src: me,
                        kind: 1,
                        tag: 0,
                        arrival: VTime::ZERO,
                        payload: payload.clone(),
                    });
                } else {
                    black_box(boxes[me].recv_keyed(key, |_| true));
                }
            }
            rtts.push(t.elapsed().as_nanos() as u64);
        }
        quantile_u64(&rtts[WARM..], 0.5) / 2.0
    };
    // Both sides on spawned threads: pinning the main thread would confine
    // every thread spawned after it to the same CPU.
    std::thread::scope(|s| {
        let (a, b) = (s.spawn(|| run(0)), s.spawn(|| run(1)));
        b.join().expect("mailbox peer thread");
        a.join().expect("mailbox timing thread")
    })
}

fn pci_probes(m: &mut Metrics) {
    let occ = VDuration::from_micros(1);
    // Back-to-back bookings coalesce: the busy-span list stays one entry.
    let bus = PciBus::new(PciConfig::default());
    let mut at = VTime::ZERO;
    m.put(
        "pci.transfer_wall_ns",
        per_call_ns(100_000, |_| {
            at = bus.transfer(BusKind::Dma, BusDir::Outbound, at, occ);
        }),
        "ns",
    );
    // Bookings separated by idle gaps never coalesce: the list grows by
    // one per transfer, as it does under ping-pong traffic.
    let bus = PciBus::new(PciConfig::default());
    let gap = VDuration::from_micros(2);
    let mut at = VTime::ZERO;
    for _ in 0..100_000 {
        at = bus.transfer(BusKind::Dma, BusDir::Outbound, at, occ) + gap;
    }
    m.put(
        "pci.transfer_after_100k_wall_ns",
        per_call_ns(200, |_| {
            at = bus.transfer(BusKind::Dma, BusDir::Outbound, at, occ) + gap;
        }),
        "ns",
    );
}

fn codec_and_queue_probes(m: &mut Metrics) {
    let mut out = Vec::with_capacity(wire::MAX_VARINT);
    m.put(
        "wire.varint_roundtrip_wall_ns",
        per_call_ns(1_000_000, |i| {
            out.clear();
            // One-, two- and five-byte encodings in turn.
            wire::put_varint(&mut out, (i as u64) << ((i % 3) * 14));
            let mut pos = 0;
            black_box(wire::read_varint(&out, &mut pos).expect("just encoded"));
        }),
        "ns",
    );
    m.put(
        "wire.frag_header_roundtrip_wall_ns",
        per_call_ns(1_000_000, |i| {
            let h = FragHeader {
                src: 0,
                dst: 2,
                len: 8192,
                offset: (i & 0xFFFF) * 8192,
            };
            let bytes = h.encode(WireVersion::Compact);
            black_box(FragHeader::try_decode(WireVersion::Compact, &bytes).expect("just encoded"));
        }),
        "ns",
    );
    let cq: CompletionQueue<u64> = CompletionQueue::new();
    m.put(
        "progress.cq_push_pop_wall_ns",
        per_call_ns(1_000_000, |i| {
            cq.push(i as u64);
            black_box(cq.try_pop());
        }),
        "ns",
    );
    let stats = Stats::new();
    let pool = BufPool::new(Arc::clone(&stats));
    m.put(
        "pool.checkout_drop_wall_ns",
        per_call_ns(1_000_000, |i| {
            black_box(pool.checkout(if i % 2 == 0 { SMALL } else { LARGE }));
        }),
        "ns",
    );
    m.put(
        "stats.snapshot_wall_ns",
        per_call_ns(1_000_000, |_| {
            black_box(stats.snapshot());
        }),
        "ns",
    );
}

/// `Pmm::select` on a live SISCI session, small and large blocks in turn.
fn select_ns() -> f64 {
    let mut b = WorldBuilder::new(2);
    b.network("net0", NetKind::Sci, &[0, 1]);
    let config = Config::one("ch", "net0", Protocol::Sisci);
    b.build().run(|env| {
        let mad = Madeleine::init(&env, &config);
        let pmm = mad.channel("ch").pmm();
        per_call_ns(1_000_000, |i| {
            let len = if i % 2 == 0 { SMALL } else { LARGE };
            black_box(pmm.select(black_box(len), SendMode::Cheaper, RecvMode::Cheaper));
        })
    })[0]
}

fn main() {
    let seed: u64 = std::env::args()
        .skip_while(|a| a != "--seed")
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    // The single-threaded probes charge virtual time like any caller.
    time::install_clock(ClockHandle::new());
    let mut m = Metrics::default();

    m.put("pmm.select_wall_ns", select_ns(), "ns");
    bmm_probes(&mut m);

    let mut tm_sisci = 0.0;
    for (name, protocol) in [
        ("bip", Protocol::Bip),
        ("sisci", Protocol::Sisci),
        ("tcp", Protocol::Tcp),
        ("via", Protocol::Via),
        ("sbp", Protocol::Sbp),
    ] {
        let ns = tm_oneway_ns(protocol);
        if protocol == Protocol::Sisci {
            tm_sisci = ns;
        }
        m.put(&format!("drivers.{name}.tm_oneway_wall_ns"), ns, "ns");
    }

    // Raw stacks: steady-state wall time at 64 B (64 KiB for BIP's long
    // path), and the virtual one-way of a single 4 B transfer.
    let base = Instant::now();
    let full_virt_us = |name: &str| {
        let p = POINTS.iter().find(|p| p.name == name).expect("known point");
        shoot(p, seed, false, base, 0).virt_us
    };
    let (bip_short, _) = raw_bip(SMALL, OPS);
    let (bip_long, _) = raw_bip(LARGE, OPS / 4);
    let (tcp, _) = raw_tcp(SMALL, OPS);
    let (sisci, _) = raw_sisci(SMALL, OPS);
    m.put("stacks.bip.short_wall_ns", bip_short, "ns");
    m.put("stacks.bip.long_64k_wall_ns", bip_long, "ns");
    m.put("stacks.tcp.oneway_wall_ns", tcp, "ns");
    m.put("stacks.sisci.write_wall_ns", sisci, "ns");
    let raw_bip_4 = raw_bip(4, 1).1;
    let raw_bip_1m = raw_bip(1 << 20, 1).1;
    // Full stack minus raw stack at 4 B: the paper's "7 vs 5 µs".
    for (name, point, raw_us) in [
        ("bip", "mad.bip.4", raw_bip_4),
        ("sisci", "mad.sisci.4", raw_sisci(4, 1).1),
        ("tcp", "mad.tcp.4", raw_tcp(4, 1).1),
    ] {
        m.put(
            &format!("drivers.{name}.mad_overhead_virt_us"),
            full_virt_us(point) - raw_us,
            "us",
        );
    }

    let mailbox = mailbox_oneway_ns();
    m.put("mailbox.push_recv_keyed_wall_ns", mailbox, "ns");
    pci_probes(&mut m);
    codec_and_queue_probes(&mut m);

    // The ledger: full stack = the pingpong_64b workload itself.
    let pingpong_64b = WORKLOADS
        .iter()
        .find(|w| w.name == "pingpong_64b")
        .expect("workload table");
    let mut full: Vec<f64> = (0..3)
        .map(|_| {
            let rep = (pingpong_64b.rep)(&RepCfg {
                seed,
                mode: Mode::Plain,
                corrupt: false,
            });
            quantile_u64(&rep.lat_ns, 0.5) / 2.0
        })
        .collect();
    let full = median(&mut full);
    m.put("ledger.generic_wall_ns", full - tm_sisci, "ns");
    m.put("ledger.driver_wall_ns", tm_sisci - sisci, "ns");
    m.put("ledger.stack_wall_ns", sisci - mailbox, "ns");
    m.put("ledger.mailbox_wall_ns", mailbox, "ns");

    println!(
        "{{\"metrics\":{},\"points\":{{\"rawbip.4\":{{\"bytes\":4,\"virt_us\":{}}},\
         \"rawbip.1m\":{{\"bytes\":1048576,\"virt_us\":{}}}}}}}",
        m.to_json(),
        json_num(raw_bip_4),
        json_num(raw_bip_1m)
    );
}
