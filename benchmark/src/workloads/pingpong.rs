//! `pingpong_64b`: one 64 B block each way over SISCI, one in flight.
//! All there is to pay is the fixed per-message cost — Switch select, BMM,
//! header encode, TM, mailbox wake-up; batching, rails and the progress
//! engine are bypassed.

use crate::node::{build_world, recv_one, send_one, Mode, NodeCtx, Rep, RepCfg};
use crate::payload::{stamp, verify, Check};
use crate::rng::Rng;
use madeleine::{Config, Madeleine, Protocol};
use madsim_net::{NetKind, WorldBuilder};
use std::time::Instant;

const LEN: usize = 64;
pub const WARM_OPS: usize = 100;
pub const TIMED_OPS: usize = 1_000;

pub fn rep(cfg: &RepCfg) -> Rep {
    let base = Instant::now();
    let content = Rng::new(cfg.seed).bytes(LEN);
    let mut b = WorldBuilder::new(2);
    b.network("sci0", NetKind::Sci, &[0, 1]);
    let (world, build_us) = build_world(b);
    let config = Config::one("ch", "sci0", Protocol::Sisci);
    let nodes = world.run(|env| {
        let mut nc = NodeCtx::new(&env, *cfg, base);
        let mad = nc.tr.span("init", || Madeleine::init(&env, &config));
        let ch = mad.channel("ch");
        if cfg.mode == Mode::LibTrace {
            ch.enable_trace();
        }
        let mut out = content.clone();
        let mut got = vec![0u8; LEN];
        nc.drive(WARM_OPS, TIMED_OPS, &[ch], |nc, i, check: Check| {
            let o = nc.tr.begin("op");
            if nc.id() == 0 {
                let t0 = nc.now_ns();
                stamp(&mut out, i as u64);
                send_one(&mut nc.tr, ch, 1, &out);
                recv_one(&mut nc.tr, ch, &mut got);
                nc.lat_since(t0);
            } else {
                recv_one(&mut nc.tr, ch, &mut got);
                nc.maybe_corrupt(&mut got);
                send_one(&mut nc.tr, ch, 0, &got);
            }
            let ok = verify(&got, &content, i as u64, check);
            nc.msg(ok);
            nc.op_done();
            nc.tr.end(o);
        });
        nc.count("payload_bytes", (TIMED_OPS * LEN) as u64);
        nc.finish()
    });
    let (mut rep, mut nodes) = Rep::fold(nodes, build_us);
    rep.lat_ns = std::mem::take(&mut nodes[0].lat_ns);
    // Half the virtual round trip: the one-way figure the paper plots.
    rep.virt_us_per_op = nodes[0].timed_virt_us / rep.ops as f64 / 2.0;
    rep
}
