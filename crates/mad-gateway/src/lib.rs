//! # mad-gateway — efficient inter-device data forwarding for Madeleine II
//!
//! Reproduction of paper §6: extending the natively multi-device Madeleine
//! II with a transparent forwarding facility so *clusters of clusters* with
//! heterogeneous networks (a Myrinet cluster bridged to an SCI cluster by a
//! dual-homed gateway node) are handled uniformly — the alternative the
//! paper proposes over gluing libraries together PACX-MPI-style.
//!
//! Pieces, mapped to the paper:
//!
//! * [`vchannel::VirtualChannel`] — "a virtual channel that includes a
//!   sequence of real channels": the only interface change; the full
//!   pack/unpack interface then works transparently across clusters;
//! * [`generic_tm::GenericTm`] — the Generic Transmission Module inserted
//!   *between* the buffer-management layer and the real TMs: fragments
//!   messages to the route MTU and makes them self-described
//!   ([`FragHeader`], laid out in [`madeleine::wire`]) so stateless
//!   gateways can forward them;
//! * [`gateway::Gateway`] — the two-thread, dual-buffered forwarding
//!   pipeline with the §6.1 copy-avoidance matrix (receive into the
//!   outgoing protocol's static buffers; forward straight out of arrival
//!   buffers; one copy only when *both* sides demand static buffers);
//! * [`route::Route`] — static linear-chain routing.

#![forbid(unsafe_code)]

pub mod gateway;
pub mod generic_tm;
pub mod route;
pub mod vchannel;

pub use gateway::{Gateway, GW_RECV_OVERHEAD_US, GW_SEND_OVERHEAD_US};
pub use madeleine::wire::{FragHeader, FRAG_HEADER_LEN};
pub use route::Route;
pub use vchannel::{VirtualChannel, VirtualChannelSpec, DEFAULT_MTU};
