//! # madsim-net — a simulated cluster fabric for the Madeleine II reproduction
//!
//! The Madeleine II paper (CLUSTER 2000) evaluates its communication library
//! on hardware that no longer exists: Myrinet LANai-4 NICs driven by BIP,
//! Dolphin SCI D310 NICs driven by SISCI, VIA SANs, all plugged into
//! 33 MHz / 32-bit PCI buses of dual Pentium II nodes. This crate is the
//! substitute substrate: a cluster **simulator** that
//!
//! * really moves bytes between real OS threads (one thread per node), so
//!   everything built on top is testable end-to-end, and
//! * models **performance in virtual time**, with per-protocol cost curves
//!   calibrated from the numbers the paper itself reports, plus an explicit
//!   host-PCI-bus contention model (full-duplex conflicts, DMA-beats-PIO
//!   arbitration) that reproduces the paper's gateway anomalies (§6.2).
//!
//! The crate provides:
//!
//! * [`time`] — virtual clocks (one per simulated thread) and durations;
//! * [`calib`] — the calibration table: every cost a world charges, set
//!   once per world;
//! * [`resource`] — reservation timelines for serially-reusable devices;
//! * [`pci`] — the host bus contention model;
//! * [`perf`] — MiB/s helpers and piecewise-linear performance curves;
//! * [`world`] — topology: nodes, networks, adapters, node threads;
//! * [`mailbox`] — the blocking predicate-receive transport primitive;
//! * [`eventcount`] — the poll-then-park wait the mailbox and the SISCI
//!   segment flags block on;
//! * [`stacks`] — the five vendor protocol stacks Madeleine II drives:
//!   [`stacks::bip`] (Myrinet), [`stacks::sisci`] (SCI), [`stacks::tcp`]
//!   (Fast Ethernet), [`stacks::via`] (VIA SAN), [`stacks::sbp`]
//!   (static-buffer kernel protocol).
//!
//! Everything above this crate (the Madeleine II library itself, its MPI and
//! Nexus ports, the inter-cluster gateway) treats these stacks exactly like
//! the vendor libraries the original system drove.

pub mod calib;
pub mod eventcount;
pub mod fault;
pub mod frame;
pub mod mailbox;
pub mod pci;
pub mod perf;
pub mod resource;
pub mod stacks;
pub mod time;
pub mod world;

pub use calib::{Calib, HostModel, Row};
pub use fault::{FaultEvent, FaultPlan, FaultRecord, FaultState, LinkError};
pub use frame::{Frame, NodeId};
pub use mailbox::{Mailbox, Shardable};
pub use pci::{BusDir, BusKind, PciBus, PciConfig};
pub use perf::PerfCurve;
pub use time::{VDuration, VTime};
pub use world::{Adapter, NetKind, NetworkId, NodeEnv, World, WorldBuilder};
