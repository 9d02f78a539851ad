//! Multirail bandwidth sweep: one bulk CHEAPER message over a BIP channel
//! spanning 1→4 Myrinet rails, in a world timed by the paper's table
//! (`Calib::PAPER`) and in one with a faster, Myrinet-class host bus
//! (`bench::MYRINET_CLASS_BUS`). Prints two tables and writes the raw
//! numbers to `BENCH_rails.json`.
//!
//! The single-rail paper-table row is the pre-multirail library's
//! figure — the refactor must not move it. On the retimed stack two rails
//! must deliver at least 1.7x the single-rail bandwidth for 1 MB messages
//! (checked below); on the paper stack they must NOT, because the shared
//! 32-bit/33 MHz PCI bus was the bottleneck in 1999.
//!
//! Each point is the best of [`REPS`] runs. A striped send is one state
//! machine on the calling thread (`madeleine::rail::StripeSend`), so the
//! order in which the sender books the shared host-bus timeline is fixed
//! by the engine, not by the OS scheduler; what still races is the
//! receiver's credit returns, booked from its own thread (~10 us on a
//! 1 MB row). Best-of-N sheds that, as a real-hardware sweep would.
//!
//! Usage: `rails [--out PATH] [--bytes N]`

use bench::experiments::{multirail_oneway, RailPoint, MYRINET_CLASS_BUS};
use bench::{arg_value, json_struct, write_json};
use madsim_net::Calib;

json_struct! {
    struct Output {
        bytes: usize,
        paper_bus: Vec<RailPoint>,
        fast_bus: Vec<RailPoint>,
    }
}

fn print_sweep(title: &str, points: &[RailPoint]) {
    println!("== {title} ==");
    println!(
        "{:>6} {:>12} {:>10} {:>8} {:>10} {:>20}",
        "rails", "virtual us", "MiB/s", "stripes", "imbalance", "per-rail KiB"
    );
    for p in points {
        let per_rail: Vec<String> = p
            .rail_bytes
            .iter()
            .map(|b| format!("{}", b >> 10))
            .collect();
        println!(
            "{:>6} {:>12.1} {:>10.2} {:>8} {:>10.3} {:>20}",
            p.rails,
            p.virtual_us,
            p.bandwidth_mibps,
            p.stripes,
            p.rail_imbalance,
            per_rail.join("/")
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out_path = arg_value(&args, "--out").unwrap_or_else(|| "BENCH_rails.json".into());
    let bytes: usize = arg_value(&args, "--bytes")
        .map(|v| v.parse().expect("--bytes takes a byte count"))
        .unwrap_or(1 << 20);

    const REPS: usize = 3;
    let sweep = |calib: Calib| -> Vec<RailPoint> {
        (1..=4)
            .map(|rails| {
                (0..REPS)
                    .map(|_| multirail_oneway(calib, rails, bytes))
                    .min_by(|a, b| a.virtual_us.total_cmp(&b.virtual_us))
                    .expect("at least one rep")
            })
            .collect()
    };

    let paper_bus = sweep(Calib::PAPER);
    print_sweep("paper-calibrated stack (PCI-bound)", &paper_bus);
    let fast_bus = sweep(MYRINET_CLASS_BUS);
    print_sweep("Myrinet-class retimed bus", &fast_bus);

    // Single-rail channels must never stripe — the classic path is pinned
    // — and every multirail 1 MB block must (the counter is the sender's).
    for p in paper_bus.iter().chain(&fast_bus) {
        if p.rails == 1 {
            assert_eq!(p.stripes, 0, "a single-rail channel striped");
        } else if bytes >= 1 << 20 {
            assert!(p.stripes >= 1, "{} rails never striped", p.rails);
        }
    }
    // The tentpole claim: two rails on a bus that can feed them deliver
    // >= 1.7x the single-rail bandwidth for 1 MB messages.
    let one = fast_bus[0].bandwidth_mibps;
    let two = fast_bus[1].bandwidth_mibps;
    assert!(
        two >= 1.7 * one,
        "2-rail speedup {:.2}x below 1.7x ({one:.1} -> {two:.1} MiB/s)",
        two / one
    );
    println!("2-rail speedup on the retimed bus: {:.2}x", two / one);

    let out = Output {
        bytes,
        paper_bus,
        fast_bus,
    };
    write_json(&out_path, &out);
}
