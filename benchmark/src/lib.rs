//! Shared harness of the Madeleine II benchmark.
//!
//! Everything here, and the `e2e` binary built on it, drives the library
//! only through its narrow application surface — the paper's Table 1 calls,
//! `post_message`/`flush`/`wait_op`, `Madeleine::init`/`channel`, the
//! `Config`/`ChannelSpec` builders, `WorldBuilder`/`World::run`,
//! `time::{now, advance}`, `VirtualChannel`/`Gateway::spawn`, `Mpi`/`Nexus`
//! send/recv and counter getters — so a refactor below that surface cannot
//! break the gated run. Anything deeper belongs in `src/bin/probes.rs`.
//!
//! Two clocks, always named: `wall` is `std::time::Instant` on the host
//! (what our software costs), `virt` is `madsim_net::time` (the calibrated
//! fabric model). All traffic is in-process; no real link or loopback.

pub mod curves;
pub mod node;
pub mod payload;
pub mod report;
pub mod rng;
pub mod trace;
pub mod workloads;
