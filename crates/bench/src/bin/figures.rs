//! Print the measured series for every figure of the paper.
//!
//! Usage: `figures [fig4|fig5|fig6|fig7|dma|crossover|fig10|fig11|all]...`
//!
//! Several sections may be named; they print in the order listed above.
//! No argument means `all`. Every section but `fig10`/`fig11` is
//! bit-deterministic, and `scripts/verify.sh` diffs those against
//! `BENCH_figures.txt`.

#![forbid(unsafe_code)]

use bench::experiments::{self, ForwardDir};
use bench::table::print_table;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let wants = |what: &str| args.is_empty() || args.iter().any(|a| a == what || a == "all");
    if wants("fig4") {
        print_table("Fig. 4 — Madeleine II over SISCI/SCI", &experiments::fig4());
    }
    if wants("fig5") {
        print_table(
            "Fig. 5 — Madeleine II over BIP/Myrinet",
            &experiments::fig5(),
        );
    }
    if wants("fig6") {
        print_table(
            "Fig. 6 — MPI implementations over SCI (bandwidth)",
            &experiments::fig6(),
        );
        print_table(
            "Fig. 6 — MPI implementations over SCI (latency)",
            &experiments::fig6_latency(),
        );
    }
    if wants("fig7") {
        print_table(
            "Fig. 7 — Nexus/Madeleine II performance",
            &experiments::fig7(),
        );
    }
    if wants("dma") {
        print_table(
            "SCI DMA ablation (§5.2.1)",
            &experiments::sci_dma_ablation(),
        );
    }
    if wants("crossover") {
        print_table(
            "§6.2.1 crossover — Madeleine one-way at 8/16/32 kB",
            &experiments::crossover_check(),
        );
    }
    if wants("fig10") {
        print_table(
            "Fig. 10 — forwarding bandwidth SISCI/SCI -> BIP/Myrinet",
            &experiments::forwarding_figure(ForwardDir::SciToMyrinet),
        );
    }
    if wants("fig11") {
        print_table(
            "Fig. 11 — forwarding bandwidth BIP/Myrinet -> SISCI/SCI",
            &experiments::forwarding_figure(ForwardDir::MyrinetToSci),
        );
    }
}
