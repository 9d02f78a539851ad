//! The self-described fragment format (paper §6.1) — re-exported.
//!
//! Within a homogeneous session Madeleine messages carry no description —
//! the receiver's unpack sequence supplies it. A gateway has none of that
//! knowledge, so every fragment that may cross one is prefixed by a small
//! header carrying what the gateway needs: where the fragment is going,
//! where it came from, and how long it is.
//!
//! The header's byte layout lives in [`madeleine::wire`] with every other
//! on-wire header of the library: a fixed 10 bytes,
//! `[0xCD][src u8][dst u8][len u24][offset u32]`. Gateways are stateless
//! and cannot predict header fields the way channel receivers do, so the
//! layout is fixed-length and self-describing, and identical on every hop.
//!
//! The header also carries the fragment's **byte offset within its block**.
//! On a reliable fabric the field is redundant (fragments arrive in order,
//! so the offset always equals the bytes already reassembled); under
//! failover it is what lets the receiver tell a restarted block (offset 0)
//! from the stale tail of an aborted attempt, and discard the latter
//! safely.

pub use madeleine::wire::{FragHeader, FRAG_HEADER_LEN};
