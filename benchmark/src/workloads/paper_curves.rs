//! `paper_curves`: the accuracy anchor and the set-up-heavy use. A fixed
//! list of single one-way transfers, a fresh world and session per point
//! (see [`crate::curves`]). World build and `Madeleine::init` dominate its
//! wall time, so a steady-state gain bought with heavier set-up shows here;
//! its virtual times are what the paper's figures are checked against.
//!
//! Wall metrics cover the 2-node points only: a forwarding point runs three
//! node threads plus two gateway threads on two cores, so only its virtual
//! time and counts are taken.

use crate::curves::{shoot, Kind, FRAG_POINT, POINTS};
use crate::node::{Mode, Rep, RepCfg};
use std::time::Instant;

pub fn rep(cfg: &RepCfg) -> Rep {
    let base = Instant::now();
    let trace = cfg.mode == Mode::Spans;
    let mut rep = Rep {
        setup_s: 0.0,
        build_us: 0.0,
        timed_s: 0.0,
        msgs: 0,
        ops: 0,
        failed: 0,
        lat_ns: Vec::with_capacity(POINTS.len()),
        virt_us_per_op: 0.0,
        counts: Default::default(),
        spans: vec![Vec::new(); 3],
        points: Vec::with_capacity(POINTS.len()),
    };
    // The first point doubles as the warm-up op and as the set-up sample:
    // bring a world and a session up and move four bytes.
    shoot(&POINTS[0], cfg.seed, false, base, 0);
    rep.setup_s = base.elapsed().as_secs_f64();
    let mut builds = Vec::with_capacity(POINTS.len());
    let mut log_sum = 0.0;
    for (i, p) in POINTS.iter().enumerate() {
        let mut shot = shoot(p, cfg.seed, trace, base, i);
        // The self-test's fault, applied to the first point's verdict.
        shot.ok &= !(cfg.corrupt && i == 0);
        rep.ops += 1;
        rep.failed += !shot.ok as u64;
        if p.name == FRAG_POINT {
            rep.counts.insert("fwd_origin_buffers", shot.origin_buffers);
        }
        if !matches!(p.kind, Kind::Forward { .. }) {
            rep.msgs += shot.ok as u64;
            rep.lat_ns.push(shot.wall_ns);
            rep.timed_s += shot.wall_ns as f64 / 1e9;
        }
        builds.push(shot.build_us);
        log_sum += shot.virt_us.ln();
        rep.points.push((p.name, p.bytes, shot.virt_us));
        for (node, spans) in shot.spans.into_iter().enumerate() {
            // Parent links index the point's own list: rebase them.
            let at = rep.spans[node].len() as u32;
            rep.spans[node].extend(spans.into_iter().map(|mut s| {
                s.parent = s.parent.map(|p| p + at);
                s
            }));
        }
    }
    rep.build_us = crate::report::median(&mut builds);
    rep.virt_us_per_op = (log_sum / POINTS.len() as f64).exp();
    rep
}
