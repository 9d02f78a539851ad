//! Payload layout and verification.
//!
//! Every application payload is seeded content whose first eight bytes are
//! overwritten by a little-endian sequence stamp. The receiver knows the
//! seed, so it holds the same content and checks what arrived against it.

/// Bytes of the sequence stamp at the head of every payload.
const STAMP: usize = 8;

/// How much of a received payload is compared.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Check {
    /// Every byte (warm-up ops: outside the timed section).
    Full,
    /// Stamp plus the first and last 64 bytes (timed ops: keeps a 1 MiB
    /// compare out of the timing; payloads up to 128 B are still compared
    /// in full).
    Edges,
}

const EDGE: usize = 64;

pub fn stamp(buf: &mut [u8], seq: u64) {
    buf[..STAMP].copy_from_slice(&seq.to_le_bytes());
}

/// Does `got` equal `content` with `seq` stamped over its head?
pub fn verify(got: &[u8], content: &[u8], seq: u64, check: Check) -> bool {
    if got.len() != content.len() || got[..STAMP] != seq.to_le_bytes() {
        return false;
    }
    let n = got.len();
    if check == Check::Full || n <= 2 * EDGE {
        got[STAMP..] == content[STAMP..]
    } else {
        got[STAMP..EDGE] == content[STAMP..EDGE] && got[n - EDGE..] == content[n - EDGE..]
    }
}
