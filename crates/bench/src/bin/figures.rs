//! Print the measured series for every figure of the paper.
//!
//! Usage: `figures [fig4|fig5|fig6|fig7|dma|crossover|fig10|fig11|all]`

#![forbid(unsafe_code)]

use bench::experiments::{self, ForwardDir};
use bench::table::print_table;

fn main() {
    let what = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    let what = what.as_str();
    if matches!(what, "fig4" | "all") {
        print_table("Fig. 4 — Madeleine II over SISCI/SCI", &experiments::fig4());
    }
    if matches!(what, "fig5" | "all") {
        print_table(
            "Fig. 5 — Madeleine II over BIP/Myrinet",
            &experiments::fig5(),
        );
    }
    if matches!(what, "fig6" | "all") {
        print_table(
            "Fig. 6 — MPI implementations over SCI (bandwidth)",
            &experiments::fig6(),
        );
        print_table(
            "Fig. 6 — MPI implementations over SCI (latency)",
            &experiments::fig6_latency(),
        );
    }
    if matches!(what, "fig7" | "all") {
        print_table(
            "Fig. 7 — Nexus/Madeleine II performance",
            &experiments::fig7(),
        );
    }
    if matches!(what, "dma" | "all") {
        print_table(
            "SCI DMA ablation (§5.2.1)",
            &experiments::sci_dma_ablation(),
        );
    }
    if matches!(what, "crossover" | "all") {
        print_table(
            "§6.2.1 crossover — Madeleine one-way at 8/16/32 kB",
            &experiments::crossover_check(),
        );
    }
    if matches!(what, "fig10" | "all") {
        print_table(
            "Fig. 10 — forwarding bandwidth SISCI/SCI -> BIP/Myrinet",
            &experiments::forwarding_figure(ForwardDir::SciToMyrinet),
        );
    }
    if matches!(what, "fig11" | "all") {
        print_table(
            "Fig. 11 — forwarding bandwidth BIP/Myrinet -> SISCI/SCI",
            &experiments::forwarding_figure(ForwardDir::MyrinetToSci),
        );
    }
}
