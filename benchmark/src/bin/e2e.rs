//! The gated end-to-end run: one workload, both clocks.
//!
//! `e2e --workload W --seed N --seconds S --trace 0|1 [--out-dir D] [--corrupt]`
//!
//! Runs one discarded warm-up rep, then reps of the workload for `S` wall
//! seconds (at least three per mode), and prints one JSON object as the
//! last line of stdout.
//!
//! Every wall-clock number is the **fast quartile** over the run's reps
//! (upper quartile of rates, lower quartile of times), not the median. The
//! CPUs of a small shared box switch between a fast and a roughly 30%
//! slower regime for seconds at a time — a single-threaded loop shows it —
//! and nothing ever makes a rep faster than the software allows. A run's
//! median lands in either regime (25% apart from run to run on
//! `stream_64b`); the fast quartile sits inside the fast one and repeats
//! within a few percent. Virtual-clock numbers stay medians. With `--trace 0` every rep is uninstrumented and
//! the metrics are the end-to-end ones. With `--trace 1` uninstrumented and
//! span-instrumented reps alternate, the metrics are the per-layer ones
//! this binary can see through the narrow API (the runner adds the probes'),
//! and the last traced rep's spans go to `D/trace_<workload>.json`.

use harness::curves::upper_layer_wall_ns;
use harness::node::{Counts, Mode, Rep, RepCfg};
use harness::report::{json_num, median, peak_rss_mib, quantile, quantile_u64, Metrics};
use harness::trace::{chrome_json, summarize, SpanStats, Tracer};
use harness::workloads::{bulk_overlap_alone, WORKLOADS};
use std::collections::BTreeMap;
use std::time::Instant;

const LAT_SAMPLES_PER_REP: usize = 4096;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out_dir: String,
    corrupt: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .ok_or(format!("missing {flag} <value>"))
    };
    let num = |flag: &str| {
        value(flag)?
            .parse::<f64>()
            .map_err(|e| format!("{flag}: {e}"))
    };
    Ok(Args {
        workload: value("--workload")?.clone(),
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: num("--seconds")?,
        trace: num("--trace")? != 0.0,
        out_dir: value("--out-dir").cloned().unwrap_or_else(|_| ".".into()),
        corrupt: argv.iter().any(|a| a == "--corrupt"),
    })
}

/// Per-rep span summary: median self wall ns and mean virtual µs per name.
fn span_summary(rep: &Rep) -> BTreeMap<&'static str, (f64, f64)> {
    let mut by_name: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
    for node in &rep.spans {
        summarize(node, &mut by_name);
    }
    by_name
        .into_iter()
        .map(|(name, s)| {
            let virt_us = s.virt_ns as f64 / 1e3 / s.self_wall_ns.len() as f64;
            (name, (quantile_u64(&s.self_wall_ns, 0.5), virt_us))
        })
        .collect()
}

/// Cost of one empty span (the recorder's own clock reads), wall ns.
fn empty_span_wall_ns() -> f64 {
    let mut b = madsim_net::WorldBuilder::new(2);
    b.network("sci0", madsim_net::NetKind::Sci, &[0, 1]);
    let per_node = b.build().run(|env| {
        const N: usize = 100_000;
        let mut tr = Tracer::new(true, env.id(), Instant::now());
        tr.reserve(N);
        let t = Instant::now();
        for _ in 0..N {
            tr.span("empty", || ());
        }
        std::hint::black_box(&tr.spans);
        t.elapsed().as_nanos() as f64 / N as f64
    });
    per_node[0]
}

/// What the rep loop keeps of the reps it ran.
struct Run {
    workload: &'static str,
    seed: u64,
    /// Uninstrumented reps, their latency vectors emptied into `lat`.
    plain: Vec<Rep>,
    /// A bounded sample of every plain rep's op latencies, wall ns.
    lat: Vec<u64>,
    /// Per-rep median op latency (wall ns) by instrumentation mode.
    p50_plain: Vec<f64>,
    p50_spans: Vec<f64>,
    p50_libtrace: Vec<f64>,
    /// Per traced rep: call name → (median self wall ns, mean virt µs).
    summaries: Vec<BTreeMap<&'static str, (f64, f64)>>,
    last_spans: Vec<Vec<harness::trace::Span>>,
    attempted: u64,
    failed: u64,
}

impl Run {
    fn push(&mut self, mode: Mode, mut rep: Rep) {
        self.attempted += rep.ops;
        self.failed += rep.failed;
        let p50 = quantile_u64(&rep.lat_ns, 0.5);
        match mode {
            Mode::Plain => {
                self.p50_plain.push(p50);
                // Pool a bounded sample of each rep's latencies, so the
                // harness's own memory does not grow with the rep count.
                let stride = rep.lat_ns.len().div_ceil(LAT_SAMPLES_PER_REP).max(1);
                self.lat.extend(rep.lat_ns.iter().step_by(stride));
                rep.lat_ns = Vec::new();
                self.plain.push(rep);
            }
            Mode::Spans => {
                self.p50_spans.push(p50);
                self.summaries.push(span_summary(&rep));
                self.last_spans = rep.spans;
            }
            Mode::LibTrace => self.p50_libtrace.push(p50),
        }
    }

    fn rates(&self) -> Vec<f64> {
        self.plain
            .iter()
            .map(|r| r.msgs as f64 / r.timed_s)
            .collect()
    }

    fn end_to_end(&mut self) -> Metrics {
        let mut m = Metrics::default();
        let mut setups: Vec<f64> = self.plain.iter().map(|r| r.setup_s).collect();
        m.put("setup_s", fast_time(&mut setups), "s");
        m.put("msgs_per_s_wall", fast_rate(&mut self.rates()), "1/s");
        m.put("op_wall_p50_us", fast_time(&mut self.p50_plain) / 1e3, "us");
        m.put("peak_rss_mib", peak_rss_mib(), "MiB");
        m
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e: {e}");
            std::process::exit(2);
        }
    };
    let Some(w) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        eprintln!("e2e: unknown workload {:?}", args.workload);
        std::process::exit(2);
    };
    let cfg = |mode| RepCfg {
        seed: args.seed,
        mode,
        corrupt: args.corrupt,
    };

    // Process-level warm-up (page faults, allocator arenas, lazy statics):
    // one whole rep, counted for correctness only.
    let warm = (w.rep)(&cfg(Mode::Plain));
    let mut run = Run {
        workload: w.name,
        seed: args.seed,
        plain: Vec::new(),
        lat: Vec::new(),
        p50_plain: Vec::new(),
        p50_spans: Vec::new(),
        p50_libtrace: Vec::new(),
        summaries: Vec::new(),
        last_spans: Vec::new(),
        attempted: warm.ops,
        failed: warm.failed,
    };
    let modes: &[Mode] = match (args.trace, w.name) {
        (false, _) => &[Mode::Plain],
        // Pricing the library's own tracer is a `pingpong_64b` metric.
        (true, "pingpong_64b") => &[Mode::Plain, Mode::Spans, Mode::LibTrace],
        (true, _) => &[Mode::Plain, Mode::Spans],
    };
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed().as_secs_f64() < args.seconds || i < 3 * modes.len() {
        let mode = modes[i % modes.len()];
        i += 1;
        run.push(mode, (w.rep)(&cfg(mode)));
    }

    let (metrics, extra) = if args.trace {
        let path = format!("{}/trace_{}.json", args.out_dir, w.name);
        let written = std::fs::create_dir_all(&args.out_dir)
            .and_then(|()| std::fs::write(&path, chrome_json(&run.last_spans)));
        if let Err(e) = written {
            eprintln!("e2e: cannot write {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("e2e: wrote {path}");
        per_layer(&mut run)
    } else {
        (run.end_to_end(), String::new())
    };
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}{extra}}}",
        run.failed == 0,
        run.attempted,
        run.failed,
        metrics.to_json()
    );
}

/// Fast quartile of per-rep times (see the module docs).
fn fast_time(per_rep: &mut [f64]) -> f64 {
    quantile(per_rep, 0.25)
}

/// Fast quartile of per-rep rates.
fn fast_rate(per_rep: &mut [f64]) -> f64 {
    quantile(per_rep, 0.75)
}

fn sum_counts(reps: &[Rep]) -> Counts {
    let mut total = Counts::new();
    for r in reps {
        for (k, v) in &r.counts {
            *total.entry(k).or_default() += v;
        }
    }
    total
}

/// Everything the traced run reports from this binary, plus the extra
/// fields the runner consumes (measured points, one rep's exact counts).
fn per_layer(run: &mut Run) -> (Metrics, String) {
    let mut m = Metrics::default();
    let (plain, summaries, workload) = (&run.plain, &run.summaries, run.workload);
    // Spans: per-rep median self time per call, then the fast quartile
    // over reps (wall) or the median over reps (virt).
    let span = |name: &str, virt: bool| {
        let mut per_rep: Vec<f64> = summaries
            .iter()
            .filter_map(|s| s.get(name).map(|&(wall, v)| if virt { v } else { wall }))
            .collect();
        if virt {
            median(&mut per_rep)
        } else {
            fast_time(&mut per_rep)
        }
    };
    for call in [
        "begin_packing",
        "pack",
        "end_packing",
        "begin_unpacking",
        "unpack",
        "end_unpacking",
    ] {
        m.put(&format!("channel.{call}_wall_ns"), span(call, false), "ns");
    }
    m.put("channel.send_virt_us", span("send", true), "us");
    m.put("channel.recv_virt_us", span("recv", true), "us");
    m.put(
        "progress.post_message_wall_ns",
        span("post_message", false),
        "ns",
    );
    m.put("progress.wait_op_wall_ns", span("wait_op", false), "ns");
    m.put("batch.flush_wall_ns", span("flush", false), "ns");
    m.put("session.init_wall_us", span("init", false) / 1e3, "us");
    m.put(
        "world.build_wall_us",
        fast_time(&mut plain.iter().map(|r| r.build_us).collect::<Vec<_>>()),
        "us",
    );

    // Exact counts, summed over the uninstrumented reps.
    let c = sum_counts(plain);
    let n = |k: &str| c.get(k).copied().unwrap_or(0) as f64;
    let ops: f64 = plain.iter().map(|r| r.ops as f64).sum();
    m.put_ratio(
        "channel.commits_per_msg",
        n("commits"),
        n("messages"),
        "count",
    );
    m.put_ratio(
        "channel.copied_bytes_per_payload_byte",
        n("copied_bytes"),
        n("payload_bytes"),
        "ratio",
    );
    m.put_ratio(
        "channel.borrowed_bytes_per_payload_byte",
        n("borrowed_bytes"),
        n("payload_bytes"),
        "ratio",
    );
    m.put_ratio(
        "wire.overhead_bytes_per_msg",
        n("tm_bytes") - n("payload_bytes"),
        n("messages"),
        "B",
    );
    m.put_ratio(
        "batch.packets_per_frame",
        n("batched_packets"),
        n("batches"),
        "count",
    );
    m.put_ratio(
        "batch.flush_full_ratio",
        n("batch_flush_full"),
        n("batches"),
        "ratio",
    );
    m.put_ratio(
        "batch.frame_overhead_pct",
        100.0 * (n("batch_frame_bytes") - n("batch_payload_bytes")),
        n("batch_frame_bytes"),
        "%",
    );
    // Rail byte counters also tick on single-rail channels; they describe
    // striping only where the sender striped.
    let (r0, r1) = if n("n0.stripes") > 0.0 {
        (n("n0.rail0_bytes"), n("n0.rail1_bytes"))
    } else {
        (0.0, 0.0)
    };
    m.put_ratio("rail.stripes_per_msg", n("n0.stripes"), ops, "count");
    m.put_ratio("rail.imbalance", (r0 - r1).abs(), r0.max(r1), "ratio");
    m.put_ratio("rail.rail0_byte_share", r0, r0 + r1, "ratio");
    m.put_ratio("progress.cq_spins_per_op", n("cq_spins"), ops, "count");
    m.put_ratio(
        "pool.hit_ratio",
        n("pool_hits"),
        n("pool_hits") + n("pool_misses"),
        "ratio",
    );
    m.put_ratio(
        "mailbox.shard_hit_ratio",
        n("mailbox_shard_hits"),
        n("mailbox_shard_hits") + n("mailbox_full_scans"),
        "ratio",
    );
    let reps = plain.len() as f64;
    m.put(
        "mailbox.ring_overflows",
        n("mailbox_ring_overflows") / reps,
        "count",
    );
    m.put(
        "mailbox.full_scans",
        n("mailbox_full_scans") / reps,
        "count",
    );

    // The virtual clock, the failure ratio and the harness's own health.
    let mut virt: Vec<f64> = plain.iter().map(|r| r.virt_us_per_op).collect();
    let op_virt_us = median(&mut virt);
    m.put("op_virt_us", op_virt_us, "us");
    m.put(
        "fail_ratio",
        run.failed as f64 / run.attempted as f64,
        "ratio",
    );
    let p50 = fast_time(&mut run.p50_plain);
    let overhead = |with: &mut [f64]| 100.0 * (fast_time(with) - p50) / p50;
    m.put(
        "bench.trace_overhead_pct",
        overhead(&mut run.p50_spans),
        "%",
    );
    m.put(
        "bench.op_wall_p99_us",
        quantile_u64(&run.lat, 0.99) / 1e3,
        "us",
    );
    let mut rates = run.rates();
    let mid = median(&mut rates);
    m.put(
        "bench.rep_spread_pct",
        100.0 * (rates[rates.len() - 1] - rates[0]) / mid,
        "%",
    );
    m.put("bench.empty_loop_wall_ns", empty_span_wall_ns(), "ns");
    m.put(
        "trace.enabled_overhead_pct",
        if workload == "pingpong_64b" {
            overhead(&mut run.p50_libtrace)
        } else {
            0.0
        },
        "%",
    );
    // (compute + transfer alone − elapsed) / min(compute, transfer alone),
    // per exchange, in virtual time: 1 = the transfer hid entirely.
    let overlap = if workload == "bulk_overlap" {
        let (compute, alone) = bulk_overlap_alone(run.seed);
        (compute + alone - op_virt_us) / compute.min(alone)
    } else {
        0.0
    };
    m.put("progress.overlap_ratio", overlap, "ratio");

    // The paper's points, each the median over passes of the list: this
    // workload's own reps when it is `paper_curves`, else five passes. (A
    // forwarding point's virtual time moves by 10-20% with how the host
    // schedules the gateway threads; one sample is not a measurement.)
    let extra_passes: Vec<Rep>;
    let passes: &[Rep] = if workload == "paper_curves" {
        plain
    } else {
        let curves = WORKLOADS
            .iter()
            .find(|w| w.name == "paper_curves")
            .expect("workload table");
        let cfg = RepCfg {
            seed: run.seed,
            mode: Mode::Plain,
            corrupt: false,
        };
        extra_passes = (0..5).map(|_| (curves.rep)(&cfg)).collect();
        &extra_passes
    };
    let points: Vec<(&str, usize, f64)> = (0..passes[0].points.len())
        .map(|i| {
            let (name, bytes, _) = passes[0].points[i];
            let mut v: Vec<f64> = passes.iter().map(|r| r.points[i].2).collect();
            (name, bytes, median(&mut v))
        })
        .collect();
    let frag_buffers = passes[0].counts["fwd_origin_buffers"] as f64;
    let us = |name: &str| {
        points
            .iter()
            .find(|p| p.0 == name)
            .unwrap_or_else(|| panic!("no point named {name:?}"))
            .2
    };
    let mibps = |name: &str| 1e6 / us(name);
    m.put(
        "gateway.fwd_virt_mibps.sci_to_myr",
        mibps("fwd.sci_to_myr.128k"),
        "MiB/s",
    );
    m.put(
        "gateway.fwd_virt_mibps.myr_to_sci",
        mibps("fwd.myr_to_sci.128k"),
        "MiB/s",
    );
    m.put(
        "gateway.hop_virt_us",
        us("fwd.sci_to_myr.4") - us("mad.sisci.4") - us("mad.bip.4"),
        "us",
    );
    m.put("generic_tm.frags_per_msg", frag_buffers / 2.0, "count");
    m.put(
        "mad-mpi.overhead_virt_us",
        us("mpi.sisci.4") - us("mad.sisci.4"),
        "us",
    );
    m.put(
        "mad-mpi.sendrecv_wall_ns",
        upper_layer_wall_ns(true, 2_000),
        "ns",
    );
    m.put("mad-nexus.rsr_virt_us", us("nexus.sisci.4"), "us");
    m.put(
        "mad-nexus.rsr_wall_ns",
        upper_layer_wall_ns(false, 2_000),
        "ns",
    );

    // For the runner: the measured points (→ `paper_err_pct`) and one rep's
    // exact counts (→ the repeat check).
    let pts: Vec<String> = points
        .iter()
        .map(|(name, bytes, us)| {
            format!(
                "\"{name}\":{{\"bytes\":{bytes},\"virt_us\":{}}}",
                json_num(*us)
            )
        })
        .collect();
    let cnt: Vec<String> = plain[0]
        .counts
        .iter()
        .map(|(k, v)| format!("\"{k}\":{v}"))
        .collect();
    let extra = format!(
        ",\"points\":{{{}}},\"counts\":{{{}}},\"reps\":{}",
        pts.join(","),
        cnt.join(","),
        plain.len()
    );
    (m, extra)
}
