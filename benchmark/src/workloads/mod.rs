//! The five workloads. Each is one function that runs one **rep**: build a
//! fresh world, bring the session up, warm up, then time a fixed number of
//! ops. A fresh world per rep makes every rep the same work (simulator
//! state such as the PCI busy-span list restarts each time), gives the
//! set-up cost one sample per rep, and keeps the op counts fixed so virtual
//! times and `Stats` counts repeat exactly.

use crate::node::{Rep, RepCfg};

mod bulk_overlap;
mod paper_curves;
mod pingpong;
mod rpc_mix;
mod stream;

pub use bulk_overlap::alone as bulk_overlap_alone;
pub use pingpong::{TIMED_OPS as PINGPONG_TIMED_OPS, WARM_OPS as PINGPONG_WARM_OPS};

pub struct Workload {
    pub name: &'static str,
    pub rep: fn(&RepCfg) -> Rep,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "pingpong_64b",
        rep: pingpong::rep,
    },
    Workload {
        name: "stream_64b",
        rep: stream::rep,
    },
    Workload {
        name: "rpc_mix",
        rep: rpc_mix::rep,
    },
    Workload {
        name: "bulk_overlap",
        rep: bulk_overlap::rep,
    },
    Workload {
        name: "paper_curves",
        rep: paper_curves::rep,
    },
];
