//! Measurement harnesses, one per figure of the paper.
//!
//! All measurements are **virtual time** through the full simulated stack:
//! a fresh world per point, a single one-way transfer, the receiver's clock
//! at `end_unpacking` as the transfer time (exactly how the paper defines
//! its one-way latency measurements, §5.1).

use crate::json_struct;
use crate::table::Series;
use mad_gateway::{Gateway, GatewayConfig, VirtualChannel, VirtualChannelSpec};
use mad_mpi::Mpi;
use mad_nexus::Nexus;
use madeleine::{ChannelSpec, Config, Madeleine, Protocol, RecvMode, SendMode};
use madsim_net::perf::mibps;
use madsim_net::stacks::bip::Bip;
use madsim_net::time::{self, VDuration};
use madsim_net::{Calib, NetKind, Row, WorldBuilder};

/// Message sizes swept by the latency/bandwidth figures.
pub fn sweep_sizes() -> Vec<usize> {
    vec![
        4,
        16,
        64,
        256,
        1024,
        4096,
        8192,
        16384,
        32768,
        65536,
        131072,
        262144,
        524288,
        1 << 20,
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

/// One-way time (µs) of a single n-byte Madeleine message.
pub fn madeleine_oneway_us(protocol: Protocol, n: usize, sci_dma: bool) -> f64 {
    oneway_us_in(Calib::PAPER, protocol, n, sci_dma)
}

/// [`madeleine_oneway_us`] in a world timed by `calib`.
pub fn oneway_us_in(calib: Calib, protocol: Protocol, n: usize, sci_dma: bool) -> f64 {
    let (net, kind) = net_for(protocol);
    let mut b = WorldBuilder::new(2).calib(calib);
    b.network(net, kind, &[0, 1]);
    let world = b.build();
    let config = Config::one("ch", net, protocol).with_sci_dma(sci_dma);
    let times = world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let ch = mad.channel("ch");
        let data = vec![0x5Au8; n];
        if env.id() == 0 {
            let mut msg = ch.begin_packing(1);
            msg.pack(&data, SendMode::Cheaper, RecvMode::Cheaper);
            msg.end_packing();
            0.0
        } else {
            let mut got = vec![0u8; n];
            let mut msg = ch.begin_unpacking();
            msg.unpack(&mut got, SendMode::Cheaper, RecvMode::Cheaper);
            msg.end_unpacking();
            time::now().as_micros_f64()
        }
    });
    times[1]
}

/// One-way time (µs) of a raw BIP transfer — the baseline curve of Fig. 5
/// ("very close to the raw BIP results: 5 µs / 126 MB/s").
pub fn raw_bip_oneway_us(n: usize) -> f64 {
    let mut b = WorldBuilder::new(2);
    let net = b.network("myr0", NetKind::Myrinet, &[0, 1]);
    let world = b.build();
    let times = world.run(move |env| {
        let bip = Bip::new(env.adapter_on(net).unwrap());
        if env.id() == 0 {
            if n <= madsim_net::stacks::bip::BIP_SHORT_MAX {
                bip.send_short(1, 1, &vec![0u8; n]);
            } else {
                bip.send_long(1, 1, bytes::Bytes::from(vec![0u8; n]));
            }
            0.0
        } else {
            let mut buf = vec![0u8; n];
            if n <= madsim_net::stacks::bip::BIP_SHORT_MAX {
                let (_, data) = bip.recv_short(1);
                buf[..data.len()].copy_from_slice(&data);
            } else {
                bip.recv_long(0, 1, &mut buf);
            }
            time::now().as_micros_f64()
        }
    });
    times[1]
}

/// Fig. 4: Madeleine II over SISCI/SCI — latency and bandwidth curves.
pub fn fig4() -> Vec<Series> {
    let mut lat = Series::new("Madeleine/SISCI latency", "us");
    let mut bw = Series::new("Madeleine/SISCI bandwidth", "MiB/s");
    for n in sweep_sizes() {
        let t = madeleine_oneway_us(Protocol::Sisci, n, false);
        lat.push(n, t);
        bw.push(n, mibps(n, VDuration::from_micros_f64(t)));
    }
    vec![lat, bw]
}

/// Fig. 5: Madeleine II over BIP/Myrinet, with the raw-BIP baseline.
pub fn fig5() -> Vec<Series> {
    let mut lat = Series::new("Madeleine/BIP latency", "us");
    let mut bw = Series::new("Madeleine/BIP bandwidth", "MiB/s");
    let mut raw_lat = Series::new("raw BIP latency", "us");
    let mut raw_bw = Series::new("raw BIP bandwidth", "MiB/s");
    for n in sweep_sizes() {
        let t = madeleine_oneway_us(Protocol::Bip, n, false);
        lat.push(n, t);
        bw.push(n, mibps(n, VDuration::from_micros_f64(t)));
        let r = raw_bip_oneway_us(n);
        raw_lat.push(n, r);
        raw_bw.push(n, mibps(n, VDuration::from_micros_f64(r)));
    }
    vec![lat, bw, raw_lat, raw_bw]
}

/// Ablation (paper §5.2.1 text): the SCI DMA TM the paper ships disabled.
pub fn sci_dma_ablation() -> Vec<Series> {
    let mut pio = Series::new("SISCI PIO (default)", "MiB/s");
    let mut dma = Series::new("SISCI DMA (enabled)", "MiB/s");
    for n in [16384usize, 65536, 262144, 1 << 20] {
        let tp = madeleine_oneway_us(Protocol::Sisci, n, false);
        pio.push(n, mibps(n, VDuration::from_micros_f64(tp)));
        let td = madeleine_oneway_us(Protocol::Sisci, n, true);
        dma.push(n, mibps(n, VDuration::from_micros_f64(td)));
    }
    vec![pio, dma]
}

/// One-way time (µs) of a single n-byte MPI message over the `ch_mad`
/// device (Fig. 6's measured curve).
pub fn mpi_oneway_us(protocol: Protocol, n: usize) -> f64 {
    let (net, kind) = net_for(protocol);
    let mut b = WorldBuilder::new(2);
    b.network(net, kind, &[0, 1]);
    let world = b.build();
    let config = Config::one("mpi", net, protocol);
    let times = world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let mpi = Mpi::init(&mad, "mpi");
        if mpi.rank() == 0 {
            mpi.send(1, 1, &vec![0x11u8; n]);
            0.0
        } else {
            let mut buf = vec![0u8; n];
            mpi.recv(Some(0), Some(1), &mut buf);
            time::now().as_micros_f64()
        }
    });
    times[1]
}

/// Fig. 6: MPI implementations over SCI — MPICH/Madeleine II (measured)
/// against the SCI-MPICH and ScaMPI models, with raw Madeleine/SISCI as
/// the reference ceiling. Bandwidth series.
pub fn fig6() -> Vec<Series> {
    let sci_mpich = mad_mpi::baselines::sci_mpich_curve();
    let scampi = mad_mpi::baselines::scampi_curve();
    let mut chmad = Series::new("MPICH/Mad/SISCI", "MiB/s");
    let mut sm = Series::new("SCI-MPICH (model)", "MiB/s");
    let mut sc = Series::new("ScaMPI (model)", "MiB/s");
    let mut raw = Series::new("Madeleine/SISCI", "MiB/s");
    for n in sweep_sizes() {
        let t = mpi_oneway_us(Protocol::Sisci, n);
        chmad.push(n, mibps(n, VDuration::from_micros_f64(t)));
        sm.push(n, sci_mpich.bandwidth_at(n));
        sc.push(n, scampi.bandwidth_at(n));
        let r = madeleine_oneway_us(Protocol::Sisci, n, false);
        raw.push(n, mibps(n, VDuration::from_micros_f64(r)));
    }
    vec![chmad, sm, sc, raw]
}

/// Fig. 6 latency companion (small messages).
pub fn fig6_latency() -> Vec<Series> {
    let sci_mpich = mad_mpi::baselines::sci_mpich_curve();
    let scampi = mad_mpi::baselines::scampi_curve();
    let mut chmad = Series::new("MPICH/Mad/SISCI", "us");
    let mut sm = Series::new("SCI-MPICH (model)", "us");
    let mut sc = Series::new("ScaMPI (model)", "us");
    for n in [4usize, 16, 64, 256, 1024, 4096] {
        chmad.push(n, mpi_oneway_us(Protocol::Sisci, n));
        sm.push(n, sci_mpich.time_for(n).as_micros_f64());
        sc.push(n, scampi.time_for(n).as_micros_f64());
    }
    vec![chmad, sm, sc]
}

/// One-way time (µs) of a single n-byte Nexus RSR over Madeleine.
pub fn nexus_oneway_us(protocol: Protocol, n: usize) -> f64 {
    let (net, kind) = net_for(protocol);
    let mut b = WorldBuilder::new(2);
    b.network(net, kind, &[0, 1]);
    let world = b.build();
    let config = Config::one("nx", net, protocol);
    let times = world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let nx = Nexus::new(std::sync::Arc::clone(mad.channel("nx")));
        if env.id() == 0 {
            nx.send_rsr(1, 1, &vec![0x22u8; n]);
            0.0
        } else {
            nx.register(1, |_, _| {});
            nx.handle_one();
            time::now().as_micros_f64()
        }
    });
    times[1]
}

/// Fig. 7: Nexus/Madeleine II over TCP and over SISCI — latency and
/// bandwidth curves.
pub fn fig7() -> Vec<Series> {
    let mut sci_lat = Series::new("Nexus/Mad/SISCI latency", "us");
    let mut sci_bw = Series::new("Nexus/Mad/SISCI bandwidth", "MiB/s");
    let mut tcp_lat = Series::new("Nexus/Mad/TCP latency", "us");
    let mut tcp_bw = Series::new("Nexus/Mad/TCP bandwidth", "MiB/s");
    for n in sweep_sizes() {
        let ts = nexus_oneway_us(Protocol::Sisci, n);
        sci_lat.push(n, ts);
        sci_bw.push(n, mibps(n, VDuration::from_micros_f64(ts)));
        let tt = nexus_oneway_us(Protocol::Tcp, n);
        tcp_lat.push(n, tt);
        tcp_bw.push(n, mibps(n, VDuration::from_micros_f64(tt)));
    }
    vec![sci_lat, sci_bw, tcp_lat, tcp_bw]
}

/// Direction of the inter-cluster forwarding experiment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ForwardDir {
    /// Fig. 10: SCI cluster → gateway → Myrinet cluster.
    SciToMyrinet,
    /// Fig. 11: Myrinet cluster → gateway → SCI cluster.
    MyrinetToSci,
}

/// One-way time (µs) of a single inter-cluster message of `msg` bytes with
/// route MTU `packet` (the paper's §6.2 ping, measured at the receiver).
pub fn forwarding_oneway_us(dir: ForwardDir, packet: usize, msg: usize) -> f64 {
    forwarding_oneway_us_with(dir, packet, msg, GatewayConfig::default())
}

/// [`forwarding_oneway_us`] with explicit gateway tunables (used by the
/// bandwidth-control ablation).
pub fn forwarding_oneway_us_with(
    dir: ForwardDir,
    packet: usize,
    msg: usize,
    gwcfg: GatewayConfig,
) -> f64 {
    let mut b = WorldBuilder::new(3);
    b.network("sci0", NetKind::Sci, &[0, 1]);
    b.network("myr0", NetKind::Myrinet, &[1, 2]);
    let world = b.build();
    let config =
        Config::one("sci", "sci0", Protocol::Sisci).with_channel("myr", "myr0", Protocol::Bip);
    let (from, to) = match dir {
        ForwardDir::SciToMyrinet => (0usize, 2usize),
        ForwardDir::MyrinetToSci => (2, 0),
    };
    let times = world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let spec = VirtualChannelSpec::new("vc", &["sci", "myr"], packet);
        let gw = Gateway::spawn_with(&env, &mad, &config, &spec, gwcfg);
        let vc = VirtualChannel::open(&env, &mad, &config, &spec);
        let mut out = 0.0;
        if env.id() == from {
            let vc = vc.expect("endpoint");
            let data = vec![0x3Cu8; msg];
            let mut m = vc.begin_packing(to);
            m.pack(&data, SendMode::Cheaper, RecvMode::Cheaper);
            m.end_packing();
        } else if env.id() == to {
            let vc = vc.expect("endpoint");
            let mut got = vec![0u8; msg];
            let mut m = vc.begin_unpacking();
            m.unpack(&mut got, SendMode::Cheaper, RecvMode::Cheaper);
            m.end_unpacking();
            out = time::now().as_micros_f64();
        }
        env.barrier();
        if let Some(gw) = gw {
            gw.stop();
        }
        out
    });
    times[to]
}

/// Packet sizes the paper sweeps in Figs. 10 and 11.
pub fn forwarding_packet_sizes() -> Vec<usize> {
    vec![8192, 16384, 32768, 65536, 131072]
}

/// Message sizes plotted on the x axis of Figs. 10 and 11.
pub fn forwarding_msg_sizes() -> Vec<usize> {
    vec![16384, 65536, 262144, 1 << 20, 2 << 20]
}

/// Fig. 10 / Fig. 11: forwarding bandwidth, one series per packet size.
pub fn forwarding_figure(dir: ForwardDir) -> Vec<Series> {
    forwarding_packet_sizes()
        .into_iter()
        .map(|p| {
            let mut s = Series::new(format!("{} kB packets", p / 1024), "MiB/s");
            for m in forwarding_msg_sizes() {
                if m < p {
                    continue;
                }
                let t = forwarding_oneway_us(dir, p, m);
                s.push(m, mibps(m, VDuration::from_micros_f64(t)));
            }
            s
        })
        .collect()
}

/// Ablation of the paper's proposed **gateway bandwidth control** (its
/// conclusion's future-work item): achieved Myrinet→SCI forwarding
/// bandwidth as the inbound admission rate is varied. x = inbound limit
/// in MiB/s (0 = unregulated).
pub fn bandwidth_control_ablation() -> Vec<Series> {
    let packet = 131072;
    let msg = 1 << 20;
    let mut s = Series::new("Myrinet->SCI, 128 kB packets", "MiB/s");
    for limit in [0usize, 30, 40, 50, 60, 80, 100] {
        let gwcfg = GatewayConfig {
            inbound_limit_mibps: (limit > 0).then_some(limit as f64),
            depth: 2,
        };
        let t = forwarding_oneway_us_with(ForwardDir::MyrinetToSci, packet, msg, gwcfg);
        s.push(limit, mibps(msg, VDuration::from_micros_f64(t)));
    }
    vec![s]
}

/// Ablation of buffer aggregation (BMM design choice, paper §3.4): one
/// message of k blocks — packed, or posted as one nonblocking op — versus k
/// single-block messages, over TCP (where a grouped flush is one `writev`)
/// and SISCI (one PIO stream). x = block count, y = total transfer time in
/// µs.
pub fn aggregation_ablation() -> Vec<Series> {
    let block = 64usize;
    let mut out = Vec::new();
    for protocol in [Protocol::Tcp, Protocol::Sisci] {
        for (how, label) in [
            (KBlocks::Packed, "1 message, k blocks"),
            (KBlocks::Posted, "1 posted message, k blocks"),
            (KBlocks::Split, "k messages"),
        ] {
            let mut series = Series::new(format!("{protocol:?}: {label}"), "us");
            for k in [4usize, 16, 64] {
                series.push(k, multi_block_oneway_us(protocol, k, block, how));
            }
            out.push(series);
        }
    }
    out
}

/// How [`multi_block_oneway_us`] sends its k blocks.
#[derive(Clone, Copy, PartialEq)]
enum KBlocks {
    Packed,
    Posted,
    Split,
}

fn multi_block_oneway_us(protocol: Protocol, k: usize, block: usize, how: KBlocks) -> f64 {
    let (net, kind) = net_for(protocol);
    let mut b = WorldBuilder::new(2);
    b.network(net, kind, &[0, 1]);
    let world = b.build();
    let config = Config::one("ch", net, protocol);
    let times = world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let ch = mad.channel("ch");
        let data = vec![0x7Eu8; block];
        let modes = (SendMode::Cheaper, RecvMode::Cheaper);
        let messages = if how == KBlocks::Split { k } else { 1 };
        if env.id() == 0 && how == KBlocks::Posted {
            let owned = bytes::Bytes::from(data);
            let id = ch.post_message(1, vec![(owned, modes.0, modes.1); k]);
            ch.wait_op(id).expect("posted message completes");
            0.0
        } else if env.id() == 0 {
            for _ in 0..messages {
                let mut msg = ch.begin_packing(1);
                for _ in 0..k / messages {
                    msg.pack(&data, modes.0, modes.1);
                }
                msg.end_packing();
            }
            0.0
        } else {
            let mut bufs = vec![vec![0u8; block]; k];
            for bufs in bufs.chunks_mut(k / messages) {
                let mut msg = ch.begin_unpacking();
                for buf in bufs {
                    msg.unpack(buf, modes.0, modes.1);
                }
                msg.end_unpacking();
            }
            time::now().as_micros_f64()
        }
    });
    times[1]
}

/// §6.2.1's crossover check: Madeleine over SCI and Myrinet deliver
/// "approximately the same performance for messages of size 16 kB".
pub fn crossover_check() -> Vec<Series> {
    let mut sci = Series::new("Madeleine/SISCI", "us");
    let mut myr = Series::new("Madeleine/BIP", "us");
    for n in [8192usize, 16384, 32768] {
        sci.push(n, madeleine_oneway_us(Protocol::Sisci, n, false));
        myr.push(n, madeleine_oneway_us(Protocol::Bip, n, false));
    }
    vec![sci, myr]
}

/// The modern-fabric what-if table: the paper's world with BIP retimed
/// to 200 Gb/s-class numbers (1 µs latency, ~23.8 GiB/s, a host bus to
/// match).
pub static MODERN_FABRIC: Calib = Calib {
    bip_short: Row::new(0.9, 0.00004, 0.00004, 0.2),
    bip_long: Row::new(2.0, 0.00004, 0.00004, 0.2),
    bip_cts: Row::new(0.9, 0.0, 0.0, 0.0),
    ..Calib::PAPER
};

/// The Myrinet-class retimed bus of the `rails` bench: the paper's wire
/// costs with a 64-bit/66 MHz-class host bus (a quarter of the calibrated
/// per-byte bus occupancy), so the shared PCI bus can feed about four
/// rails before it saturates. With the paper's original bus a second rail
/// is pointless — the 1999 32-bit/33 MHz PCI *was* the bottleneck, which
/// is exactly what the sweep's paper-table series shows.
pub static MYRINET_CLASS_BUS: Calib = Calib {
    bip_short: Row {
        bus_per_byte_us: 0.0019,
        ..Calib::PAPER.bip_short
    },
    bip_long: Row {
        bus_per_byte_us: 0.0019,
        ..Calib::PAPER.bip_long
    },
    ..Calib::PAPER
};

/// What-if: Madeleine II's software architecture on a modern fabric
/// ([`MODERN_FABRIC`]): where the 2000-era software overheads would put
/// the achievable curve — the forward-looking question behind today's
/// UCX/libfabric designs.
pub fn modern_fabric_whatif() -> Vec<Series> {
    let mut paper = Series::new("paper-era Myrinet", "MiB/s");
    let mut fast = Series::new("modern fabric (what-if)", "MiB/s");
    for n in [4096usize, 65536, 1 << 20] {
        let t = madeleine_oneway_us(Protocol::Bip, n, false);
        paper.push(n, mibps(n, VDuration::from_micros_f64(t)));
        let tf = oneway_us_in(MODERN_FABRIC, Protocol::Bip, n, false);
        fast.push(n, mibps(n, VDuration::from_micros_f64(tf)));
    }
    vec![paper, fast]
}

json_struct! {
    /// One point of the multirail bandwidth sweep: one n-byte CHEAPER/CHEAPER
    /// message over a BIP channel spanning `rails` Myrinet adapters.
    #[derive(Clone, Debug)]
    pub struct RailPoint {
        pub rails: usize,
        pub bytes: usize,
        /// Receiver's virtual clock when the block landed, µs.
        pub virtual_us: f64,
        pub bandwidth_mibps: f64,
        /// Blocks the sender striped (0 on single-rail channels: the stripe
        /// engine must stay entirely off the classic path).
        pub stripes: u64,
        /// Receiver-side bytes per rail, indexed by rail id: stripe chunks
        /// with their headers, or the whole unstriped block on one rail
        /// (the per-rail counters only see stripe traffic).
        pub rail_bytes: Vec<u64>,
        /// `(max - min) / max` of the per-rail byte counts.
        pub rail_imbalance: f64,
    }
}

/// Measure one [`RailPoint`] in a world timed by `calib`; the stripe
/// chunk is fixed at 128 KiB so the sweep varies exactly one thing — the
/// rail count.
pub fn multirail_oneway(calib: Calib, rails: usize, n: usize) -> RailPoint {
    let mut b = WorldBuilder::new(2).calib(calib);
    b.network_with_rails("myr0", NetKind::Myrinet, &[0, 1], rails);
    let world = b.build();
    let config = Config::default().with_channel_spec(
        ChannelSpec::new("ch", "myr0", Protocol::Bip)
            .with_rails(rails)
            .with_striping(128 * 1024, 128 * 1024),
    );
    let out = world.run(move |env| {
        let mad = Madeleine::init(&env, &config);
        let ch = mad.channel("ch");
        if env.id() == 0 {
            let data = vec![0x3Cu8; n];
            let mut msg = ch.begin_packing(1);
            msg.pack(&data, SendMode::Cheaper, RecvMode::Cheaper);
            msg.end_packing();
            (0.0, ch.stats().stripes(), Vec::new())
        } else {
            let mut got = vec![0u8; n];
            let mut msg = ch.begin_unpacking();
            msg.unpack(&mut got, SendMode::Cheaper, RecvMode::Cheaper);
            msg.end_unpacking();
            assert!(got.iter().all(|&x| x == 0x3C), "striped block corrupted");
            let s = ch.stats();
            let per_rail: Vec<u64> = if rails == 1 {
                vec![n as u64]
            } else {
                (0..rails).map(|r| s.rail_traffic(r).1).collect()
            };
            (time::now().as_micros_f64(), 0, per_rail)
        }
    });
    // The stripe counter is sender-side; time and per-rail bytes are read
    // where the block landed.
    let stripes = out[0].1;
    let (virtual_us, _, rail_bytes) = out[1].clone();
    let (max, min) = rail_bytes
        .iter()
        .fold((0u64, u64::MAX), |(mx, mn), &v| (mx.max(v), mn.min(v)));
    let rail_imbalance = if rails > 1 && max > 0 {
        (max - min) as f64 / max as f64
    } else {
        0.0
    };
    RailPoint {
        rails,
        bytes: n,
        virtual_us,
        bandwidth_mibps: mibps(n, VDuration::from_micros_f64(virtual_us)),
        stripes,
        rail_bytes,
        rail_imbalance,
    }
}
