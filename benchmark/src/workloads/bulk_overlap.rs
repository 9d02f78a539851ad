//! `bulk_overlap`: per-byte cost and the nonblocking path. Node 0 posts one
//! 1 MiB block over a 2-rail striped BIP channel, computes for 8000 virtual
//! µs, then waits the op out; node 1 unpacks and verifies. Rail scheduler,
//! striping (scoped threads per striped message), progress engine,
//! rendezvous and copies carry the cost; per-message header cost is
//! negligible, so a header or Switch optimisation must not move this.

use crate::node::{build_world, recv_one, NodeCtx, Rep, RepCfg};
use crate::payload::{stamp, verify};
use crate::rng::Rng;
use bytes::Bytes;
use madeleine::{ChannelSpec, Config, Madeleine, Protocol, RecvMode, SendMode};
use madsim_net::time::{self, VDuration};
use madsim_net::{NetKind, WorldBuilder};
use std::time::Instant;

const LEN: usize = 1 << 20;
/// Virtual compute per exchange.
const COMPUTE_US: f64 = 8_000.0;
/// Distinct pre-built send buffers; exchange `i` sends number `i % RING`,
/// whose stamp is `i % RING`.
const RING: usize = 4;
const WARM_OPS: usize = 4;
const TIMED_OPS: usize = 200;

pub fn rep(cfg: &RepCfg) -> Rep {
    rep_with(cfg, COMPUTE_US)
}

/// `(compute, transfer alone)` in virtual µs per exchange: the two terms
/// `progress.overlap_ratio` compares the measured exchange against. The
/// transfer alone is one rep with the compute phase removed.
pub fn alone(seed: u64) -> (f64, f64) {
    let cfg = RepCfg {
        seed,
        mode: crate::node::Mode::Plain,
        corrupt: false,
    };
    (COMPUTE_US, rep_with(&cfg, 0.0).virt_us_per_op)
}

fn rep_with(cfg: &RepCfg, compute_us: f64) -> Rep {
    let base = Instant::now();
    let content = Rng::new(cfg.seed).bytes(LEN);
    let ring: Vec<Bytes> = (0..RING)
        .map(|k| {
            let mut v = content.clone();
            stamp(&mut v, k as u64);
            Bytes::from(v)
        })
        .collect();
    let mut b = WorldBuilder::new(2);
    b.network_with_rails("myr0", NetKind::Myrinet, &[0, 1], 2);
    let (world, build_us) = build_world(b);
    let config = Config::default().with_channel_spec(
        ChannelSpec::new("ch", "myr0", Protocol::Bip)
            .with_rails(2)
            .with_striping(128 * 1024, 128 * 1024),
    );
    let nodes = world.run(|env| {
        let mut nc = NodeCtx::new(&env, *cfg, base);
        let mad = nc.tr.span("init", || Madeleine::init(&env, &config));
        let ch = mad.channel("ch");
        let mut got = if nc.id() == 1 {
            vec![0u8; LEN]
        } else {
            Vec::new()
        };
        nc.drive(WARM_OPS, TIMED_OPS, &[ch], |nc, i, check| {
            let o = nc.tr.begin("op");
            if nc.id() == 0 {
                let block = ring[i % RING].clone();
                let t0 = nc.now_ns();
                let id = nc.tr.span("post_message", || {
                    ch.post_message(1, vec![(block, SendMode::Cheaper, RecvMode::Cheaper)])
                });
                time::advance(VDuration::from_micros_f64(compute_us));
                if nc.tr.span("wait_op", || ch.wait_op(id)).is_err() {
                    nc.fail();
                }
                nc.lat_since(t0);
            } else {
                recv_one(&mut nc.tr, ch, &mut got);
                nc.maybe_corrupt(&mut got);
                let ok = verify(&got, &content, (i % RING) as u64, check);
                nc.msg(ok);
            }
            nc.op_done();
            nc.tr.end(o);
        });
        if nc.id() == 0 {
            nc.count("payload_bytes", (TIMED_OPS * LEN) as u64);
        }
        nc.finish()
    });
    let (mut rep, mut nodes) = Rep::fold(nodes, build_us);
    rep.lat_ns = std::mem::take(&mut nodes[0].lat_ns);
    // Sender side: ~COMPUTE_US means the transfer hid behind the compute,
    // ~COMPUTE_US + transfer-alone means no overlap at all.
    rep.virt_us_per_op = nodes[0].timed_virt_us / rep.ops as f64;
    rep
}
