//! Single one-way transfers in a fresh world each — how the paper defines
//! its latency and bandwidth points (§5.1): the receiver's virtual clock at
//! the end of the unpack is the transfer time.
//!
//! `paper_curves` runs the whole list as its workload; the traced run of
//! every workload reads a few of these points for the gateway, MPI and
//! Nexus per-layer metrics.

use crate::node::{build_world, pin_node_thread, recv_one, send_one};
use crate::rng::Rng;
use crate::trace::{Span, Tracer};
use mad_gateway::{Gateway, VirtualChannel, VirtualChannelSpec};
use mad_mpi::Mpi;
use mad_nexus::Nexus;
use madeleine::{Config, Madeleine, Protocol};
use madsim_net::time;
use madsim_net::world::NodeEnv;
use madsim_net::{NetKind, WorldBuilder};
use std::sync::Arc;
use std::time::Instant;

/// What a point measures.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Kind {
    /// One Madeleine message of one CHEAPER/CHEAPER block.
    Mad { protocol: Protocol, sci_dma: bool },
    /// One MPI message over the `ch_mad` device on SISCI.
    Mpi,
    /// One Nexus RSR over SISCI.
    Nexus,
    /// One message across the SCI/Myrinet gateway with route MTU `packet`;
    /// `to_myr` is the direction of Fig. 10, the reverse is Fig. 11.
    Forward { to_myr: bool, packet: usize },
}

/// One point of the list: a name the anchor table refers to, what to run,
/// and the message size.
#[derive(Clone, Copy, Debug)]
pub struct Point {
    pub name: &'static str,
    pub kind: Kind,
    pub bytes: usize,
}

const fn mad(name: &'static str, protocol: Protocol, bytes: usize) -> Point {
    Point {
        name,
        kind: Kind::Mad {
            protocol,
            sci_dma: false,
        },
        bytes,
    }
}

const fn fwd(name: &'static str, to_myr: bool, packet: usize, bytes: usize) -> Point {
    Point {
        name,
        kind: Kind::Forward { to_myr, packet },
        bytes,
    }
}

const K: usize = 1024;
const M: usize = 1 << 20;

/// The fixed list `paper_curves` runs: all five protocols at five sizes,
/// the SISCI DMA ablation, MPI and Nexus on SISCI, the Fig. 10/11
/// forwarding points (1 MiB messages), and one 4 B forwarded message for the
/// per-hop latency.
pub const POINTS: [Point; 35] = [
    mad("mad.sisci.4", Protocol::Sisci, 4),
    mad("mad.sisci.1k", Protocol::Sisci, K),
    mad("mad.sisci.8k", Protocol::Sisci, 8 * K),
    mad("mad.sisci.64k", Protocol::Sisci, 64 * K),
    mad("mad.sisci.1m", Protocol::Sisci, M),
    mad("mad.bip.4", Protocol::Bip, 4),
    mad("mad.bip.1k", Protocol::Bip, K),
    mad("mad.bip.8k", Protocol::Bip, 8 * K),
    mad("mad.bip.64k", Protocol::Bip, 64 * K),
    mad("mad.bip.1m", Protocol::Bip, M),
    mad("mad.tcp.4", Protocol::Tcp, 4),
    mad("mad.tcp.1k", Protocol::Tcp, K),
    mad("mad.tcp.8k", Protocol::Tcp, 8 * K),
    mad("mad.tcp.64k", Protocol::Tcp, 64 * K),
    mad("mad.tcp.1m", Protocol::Tcp, M),
    mad("mad.via.4", Protocol::Via, 4),
    mad("mad.via.1k", Protocol::Via, K),
    mad("mad.via.8k", Protocol::Via, 8 * K),
    mad("mad.via.64k", Protocol::Via, 64 * K),
    mad("mad.via.1m", Protocol::Via, M),
    mad("mad.sbp.4", Protocol::Sbp, 4),
    mad("mad.sbp.1k", Protocol::Sbp, K),
    mad("mad.sbp.8k", Protocol::Sbp, 8 * K),
    mad("mad.sbp.64k", Protocol::Sbp, 64 * K),
    mad("mad.sbp.1m", Protocol::Sbp, M),
    Point {
        name: "mad.sisci_dma.1m",
        kind: Kind::Mad {
            protocol: Protocol::Sisci,
            sci_dma: true,
        },
        bytes: M,
    },
    Point {
        name: "mpi.sisci.4",
        kind: Kind::Mpi,
        bytes: 4,
    },
    Point {
        name: "mpi.sisci.1m",
        kind: Kind::Mpi,
        bytes: M,
    },
    Point {
        name: "nexus.sisci.4",
        kind: Kind::Nexus,
        bytes: 4,
    },
    Point {
        name: "nexus.sisci.1m",
        kind: Kind::Nexus,
        bytes: M,
    },
    fwd("fwd.sci_to_myr.8k", true, 8 * K, M),
    fwd("fwd.sci_to_myr.128k", true, 128 * K, M),
    fwd("fwd.myr_to_sci.8k", false, 8 * K, M),
    fwd("fwd.myr_to_sci.128k", false, 128 * K, M),
    fwd("fwd.sci_to_myr.4", true, 8 * K, 4),
];

/// The forwarding point whose fragment count is reported
/// (`generic_tm.frags_per_msg`): 1 MiB cut to an 8 KiB route MTU.
pub const FRAG_POINT: &str = "fwd.sci_to_myr.8k";

/// Result of running one point.
pub struct Shot {
    /// Receiver's virtual clock when the message was fully unpacked.
    pub virt_us: f64,
    /// Wall time of the whole point: build, init, transfer, teardown.
    pub wall_ns: u64,
    pub build_us: f64,
    /// The payload arrived intact.
    pub ok: bool,
    /// Forwarding points: buffers the origin's virtual channel handed to
    /// the hop TMs — two per fragment the Generic TM cut (header + body).
    pub origin_buffers: u64,
    pub spans: Vec<Vec<Span>>,
}

/// The network name and fabric a protocol's points run on.
pub fn net_for(protocol: Protocol) -> (&'static str, NetKind) {
    match protocol {
        Protocol::Tcp | Protocol::Sbp => ("eth0", NetKind::Ethernet),
        Protocol::Bip => ("myr0", NetKind::Myrinet),
        Protocol::Sisci => ("sci0", NetKind::Sci),
        Protocol::Via => ("san0", NetKind::ViaSan),
    }
}

/// Per-node result inside a shot: receiver's clock, verdict, origin's
/// buffer count, spans.
type NodeShot = (f64, bool, u64, Vec<Span>);

/// Run `p` once. `base` anchors the wall stamps of the spans (taken when
/// `trace` is set); `op` labels them.
pub fn shoot(p: &Point, seed: u64, trace: bool, base: Instant, op: usize) -> Shot {
    let t0 = Instant::now();
    let content = Rng::new(seed ^ p.bytes as u64).bytes(p.bytes);
    let content = &content;
    // Forwarding points are left to the scheduler: their three nodes and
    // four forwarder threads do not fit one per CPU, and their wall time is
    // not reported.
    let pin = !matches!(p.kind, Kind::Forward { .. });
    let tracer = |env: &NodeEnv| {
        if pin {
            pin_node_thread(env.id());
        }
        let mut tr = Tracer::new(trace, env.id(), base);
        tr.set_op(op);
        tr
    };
    let (nodes, build_us, dst): (Vec<NodeShot>, f64, usize) = match p.kind {
        Kind::Mad { protocol, sci_dma } => {
            let (net, kind) = net_for(protocol);
            let mut b = WorldBuilder::new(2);
            b.network(net, kind, &[0, 1]);
            let (world, build_us) = build_world(b);
            let config = Config::one("ch", net, protocol).with_sci_dma(sci_dma);
            let nodes = world.run(|env| {
                let mut tr = tracer(&env);
                let mad = tr.span("init", || Madeleine::init(&env, &config));
                let ch = mad.channel("ch");
                if env.id() == 0 {
                    send_one(&mut tr, ch, 1, content);
                    (0.0, true, 0, tr.spans)
                } else {
                    let mut got = vec![0u8; p.bytes];
                    recv_one(&mut tr, ch, &mut got);
                    (time::now().as_micros_f64(), got == *content, 0, tr.spans)
                }
            });
            (nodes, build_us, 1)
        }
        Kind::Mpi | Kind::Nexus => {
            let mut b = WorldBuilder::new(2);
            b.network("sci0", NetKind::Sci, &[0, 1]);
            let (world, build_us) = build_world(b);
            let config = Config::one("ch", "sci0", Protocol::Sisci);
            let nodes = world.run(|env| {
                let mut tr = tracer(&env);
                let mad = tr.span("init", || Madeleine::init(&env, &config));
                let sender = env.id() == 0;
                let got = if p.kind == Kind::Mpi {
                    let mpi = Mpi::init(&mad, "ch");
                    if sender {
                        tr.span("mpi_send", || mpi.send(1, 1, content));
                        return (0.0, true, 0, tr.spans);
                    }
                    let mut got = vec![0u8; p.bytes];
                    tr.span("mpi_recv", || mpi.recv(Some(0), Some(1), &mut got));
                    got
                } else {
                    let nx = Nexus::new(Arc::clone(mad.channel("ch")));
                    if sender {
                        tr.span("nexus_send_rsr", || nx.send_rsr(1, 1, content));
                        return (0.0, true, 0, tr.spans);
                    }
                    tr.span("nexus_recv_rsr", || nx.recv_rsr()).data.to_vec()
                };
                (time::now().as_micros_f64(), got == *content, 0, tr.spans)
            });
            (nodes, build_us, 1)
        }
        Kind::Forward { to_myr, packet } => {
            let mut b = WorldBuilder::new(3);
            b.network("sci0", NetKind::Sci, &[0, 1]);
            b.network("myr0", NetKind::Myrinet, &[1, 2]);
            let (world, build_us) = build_world(b);
            let config = Config::one("sci", "sci0", Protocol::Sisci).with_channel(
                "myr",
                "myr0",
                Protocol::Bip,
            );
            let (from, to) = if to_myr { (0, 2) } else { (2, 0) };
            let nodes = world.run(|env| {
                let mut tr = tracer(&env);
                let mad = tr.span("init", || Madeleine::init(&env, &config));
                let spec = VirtualChannelSpec::new("vc", &["sci", "myr"], packet);
                let gw = Gateway::spawn(&env, &mad, &config, &spec);
                let vc = VirtualChannel::open(&env, &mad, &config, &spec);
                let mut out = (0.0, true, 0);
                if env.id() == from {
                    let vc = vc.expect("origin is an end node of the route");
                    send_one(&mut tr, &vc, to, content);
                    out.2 = vc.stats().buffers_sent();
                } else if env.id() == to {
                    let vc = vc.expect("destination is an end node of the route");
                    let mut got = vec![0u8; p.bytes];
                    recv_one(&mut tr, &vc, &mut got);
                    out = (time::now().as_micros_f64(), got == *content, 0);
                }
                env.barrier();
                if let Some(gw) = gw {
                    gw.stop();
                }
                (out.0, out.1, out.2, tr.spans)
            });
            (nodes, build_us, to)
        }
    };
    Shot {
        virt_us: nodes[dst].0,
        wall_ns: t0.elapsed().as_nanos() as u64,
        build_us,
        ok: nodes.iter().all(|n| n.1),
        origin_buffers: nodes.iter().map(|n| n.2).sum(),
        spans: nodes.into_iter().map(|n| n.3).collect(),
    }
}

/// Wall ns per one-way message of a 64 B steady-state ping-pong through an
/// upper layer on SISCI: `mpi.send`/`recv` when `mpi`, else a Nexus RSR
/// each way. Median round trip / 2 over `ops` round trips.
pub fn upper_layer_wall_ns(mpi: bool, ops: usize) -> f64 {
    let mut b = WorldBuilder::new(2);
    b.network("sci0", NetKind::Sci, &[0, 1]);
    let world = b.build();
    let config = Config::one("ch", "sci0", Protocol::Sisci);
    let rtts = world.run(|env| {
        pin_node_thread(env.id());
        let mad = Madeleine::init(&env, &config);
        let data = [0x5Au8; 64];
        let mut got = [0u8; 64];
        let me = env.id();
        let mpi_ctx = mpi.then(|| Mpi::init(&mad, "ch"));
        let nx = Nexus::new(Arc::clone(mad.channel("ch")));
        let mut rtts = Vec::with_capacity(ops);
        for _ in 0..ops {
            let t = Instant::now();
            for turn in 0..2 {
                let sending = turn == me;
                match (&mpi_ctx, sending) {
                    (Some(m), true) => m.send(1 - me, 1, &data),
                    (Some(m), false) => {
                        m.recv(Some(1 - me), Some(1), &mut got);
                    }
                    (None, true) => nx.send_rsr(1 - me, 1, &data),
                    (None, false) => got.copy_from_slice(&nx.recv_rsr().data),
                }
            }
            rtts.push(t.elapsed().as_nanos() as u64);
            assert_eq!(got, data, "upper-layer ping-pong payload corrupted");
        }
        rtts
    });
    crate::report::median_u64(&rtts[0]) / 2.0
}
