//! # Madeleine II — a portable, efficient multi-protocol communication
//! library (Rust reproduction)
//!
//! This crate reproduces the system of *"Madeleine II: a Portable and
//! Efficient Communication Library for High-Performance Cluster Computing"*
//! (Aumage et al., IEEE Cluster 2000) on top of the [`madsim_net`] simulated
//! cluster fabric (see that crate and `DESIGN.md` for the hardware
//! substitutions).
//!
//! ## The interface (paper §2, Table 1)
//!
//! Messages are built incrementally from blocks, each carrying a pair of
//! semantics flags that let the library pick the optimal transfer method:
//!
//! ```no_run
//! use madeleine::{Config, Madeleine, Protocol, RecvMode, SendMode};
//! use madsim_net::{NetKind, WorldBuilder};
//!
//! let mut b = WorldBuilder::new(2);
//! b.network("sci0", NetKind::Sci, &[0, 1]);
//! let world = b.build();
//! world.run(|env| {
//!     let mad = Madeleine::init(&env, &Config::one("sci", "sci0", Protocol::Sisci));
//!     let ch = mad.channel("sci");
//!     if env.id() == 0 {
//!         let data = vec![7u8; 4096];
//!         let len = (data.len() as u32).to_le_bytes();
//!         let mut msg = ch.begin_packing(1);
//!         msg.pack(&len, SendMode::Cheaper, RecvMode::Express);
//!         msg.pack(&data, SendMode::Cheaper, RecvMode::Cheaper);
//!         msg.end_packing();
//!     } else {
//!         let mut msg = ch.begin_unpacking();
//!         let mut len = [0u8; 4];
//!         // EXPRESS: available immediately, steers the next unpack.
//!         msg.unpack_express(&mut len, SendMode::Cheaper);
//!         let n = u32::from_le_bytes(len) as usize;
//!         let mut data = vec![0u8; n];
//!         msg.unpack(&mut data, SendMode::Cheaper, RecvMode::Cheaper);
//!         msg.end_unpacking();
//!         assert!(data.iter().all(|&b| b == 7));
//!     }
//! });
//! ```
//!
//! ## Architecture (paper §3, Fig. 2/3)
//!
//! * [`channel`] — channels, the pack/unpack interface, and the Switch
//!   Module with its commit/checkout ordering discipline;
//! * [`connection`] — per-peer ordering state (lock-free sequence
//!   numbers, stripe-block counters);
//! * [`rail`] — one adapter's worth of channel machinery, the rail
//!   scheduler, and the multirail stripe engine;
//! * [`batch`] — the adaptive wire-level batching layer: consecutive
//!   small packets to one peer coalesce into multi-envelope frames;
//! * [`bmm`] — the generic Buffer Management Layer (eager, aggregating,
//!   and static-copy policies);
//! * [`tm`] — the Transmission Module interface (Table 2);
//! * [`pmm`] — the protocol-module interface (driver virtualization);
//! * [`drivers`] — BIP, SISCI, TCP, VIA, and SBP protocol modules;
//! * [`pool`] — reusable pooled buffer segments backing the zero-copy
//!   send path (headers, SAFER copies, static-buffer packing);
//! * [`progress`] — the event-driven progress engine: posted messages as
//!   resumable state machines, advanced by ticks, retiring onto
//!   completion queues;
//! * [`stats`] — copy accounting backing the zero-copy claims;
//! * [`config`], [`session`] — session setup.

#![forbid(unsafe_code)]

pub mod batch;
pub mod bmm;
pub mod channel;
pub mod config;
pub mod connection;
pub mod drivers;
pub mod error;
pub mod flags;
pub mod pmm;
pub mod polling;
pub mod pool;
pub mod progress;
pub mod rail;
pub mod session;
pub mod stats;
pub mod tm;
pub mod trace;
pub mod wire;

pub use batch::{BatchPolicy, FlushReason};
pub use channel::{Channel, IncomingMessage, OutgoingMessage, HEADER_LEN};
pub use config::{ChannelSpec, Config, HostModel, Protocol};
pub use connection::{Connection, Connections};
pub use error::{MadError, MadResult};
pub use flags::{RecvMode, SendMode};
pub use polling::PollPolicy;
pub use pool::{BufPool, PooledBuf};
pub use progress::{Completion, CompletionQueue, Completions, OpId, OpState, ProgressEngine};
pub use rail::Rail;
pub use session::Madeleine;
pub use stats::{Stats, StatsSnapshot};
pub use wire::WireVersion;
