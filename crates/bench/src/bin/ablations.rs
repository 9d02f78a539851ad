//! Ablation studies of design choices the paper calls out.
//!
//! * `dma`        — the SISCI DMA TM the paper ships disabled (§5.2.1);
//! * `bandwidth` — the gateway inbound bandwidth control the paper's
//!   conclusion proposes as future work;
//! * `aggregation` — the BMM aggregation policies (§3.4).
//!
//! Usage: `cargo run -p bench --bin ablations [dma|bandwidth|aggregation|modern|all]`

#![forbid(unsafe_code)]

use bench::experiments;
use bench::table::print_table;

fn main() {
    let what = std::env::args().nth(1).unwrap_or_else(|| "all".into());
    if matches!(what.as_str(), "dma" | "all") {
        print_table(
            "SCI DMA vs PIO (why the DMA TM ships disabled)",
            &experiments::sci_dma_ablation(),
        );
    }
    if matches!(what.as_str(), "bandwidth" | "all") {
        print_table(
            "Gateway inbound bandwidth control (x = admission limit MiB/s, 0 = off)",
            &experiments::bandwidth_control_ablation(),
        );
    }
    if matches!(what.as_str(), "modern" | "all") {
        print_table(
            "Modern-fabric what-if: Madeleine's software on a 200 Gb/s-class NIC",
            &experiments::modern_fabric_whatif(),
        );
    }
    if matches!(what.as_str(), "aggregation" | "all") {
        print_table(
            "BMM aggregation: one k-block message vs k messages (64 B blocks)",
            &experiments::aggregation_ablation(),
        );
    }
}
