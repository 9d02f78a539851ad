//! # bench — the experiment harness regenerating every table and figure of
//! the Madeleine II paper
//!
//! Each harness in [`experiments`] measures, in virtual time through the
//! full simulated stack, the series the corresponding figure plots, and
//! returns structured [`Series`] data. The `figures` binary prints them as
//! tables; `EXPERIMENTS.md` records paper-vs-measured values. The gated
//! bins write their numbers to `BENCH_*.json` through [`json`].

#![forbid(unsafe_code)]

pub mod experiments;
pub mod json;
pub mod table;

pub use experiments::*;
pub use table::{print_table, Point, Series};

/// The value following `flag` on a bin's command line, if given.
pub fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// MiB/s of `bytes` moved in `us` microseconds.
pub fn mibps(bytes: usize, us: f64) -> f64 {
    (bytes as f64 / (1 << 20) as f64) / (us / 1e6)
}

/// Write `results` to `path` as pretty JSON (how every bin ends).
pub fn write_json(path: &str, results: &impl json::ToJson) {
    std::fs::write(path, json::pretty(results)).expect("write results");
    eprintln!("wrote {path}");
}
