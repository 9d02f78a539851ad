//! The **wire codec**: the one module that defines every byte layout
//! above the simulated hardware.
//!
//! Madeleine messages are not self-described (paper §6.1): the receiver's
//! unpack sequence supplies the structure, and only what a receiver cannot
//! know travels as a header. There is exactly one layout per header — no
//! versions, no negotiation. The library's own headers (kinds 0-3) open
//! with a prologue byte (`0xC0 | kind << 2 | 1`) that names them, so
//! traffic of the wrong kind fails loudly as [`MadError::CorruptStream`]
//! instead of misparsing. The rest are delimited by the channel: driver
//! control packets, and the EXPRESS envelopes the layers above a channel
//! open every message with (MPI §5.3.1, Nexus and PM2 §5.3.2).
//!
//! ```text
//! kind  prologue  header               layout
//! 0     0xC1      message (3..16 B)    [0xC1][src varint][seq varint]
//! 1     0xC5      stripe chunk (10 B)  [0xC5][rail u8][off u32][len u32]
//! 2     0xC9      batch frame          [0xC9][body_len varint]      // body = the rest
//!                                      [first_seq varint][count varint]
//!                                      [(len << 2 | flags) varint] x count
//!                                      [payloads, concatenated]
//! 3     0xCD      gateway fragment     [0xCD][src u8][dst u8][len u24][offset u32]
//!                 (10 B)
//! -     -         credit return (4 B)  [count u32]             (BIP, VIA)
//! -     -         stripe ack (8 B)     [offset u64]
//! -     -         MPI envelope (12 B)  [ctx u16][pad u16][tag i32][len u32]
//! -     -         RSR envelope (8 B)   [handler u32][len u32]  (Nexus)
//! -     -         LRPC envelope (20 B) [kind u8][pad u8 x3][service u32][req_id u64][len u32]
//! -     -         marshaled data       u32, u64, f64; bytes and str as [len u32][bytes]
//! ```
//!
//! Fixed-width fields are little-endian; varints are LEB128-style (7 value
//! bits per byte, high bit = continuation).
//!
//! ## Variable length vs. one-send-one-receive
//!
//! The TM contract is one receive per send with the **exact length** on
//! static-buffer stacks, so a receiver cannot "read a varint" off the
//! fabric. The message header relies on **receiver prediction** instead:
//! the receiver already knows both fields (the source from the
//! announcement, the sequence number from its connection counter), so it
//! encodes the header it *expects*, receives exactly that many bytes, and
//! compares. Headers whose content a receiver cannot predict are
//! self-describing: stripe chunks (rails quarantine and chunks re-stripe
//! mid-block under faults) and gateway fragments (gateways are stateless)
//! use fixed-length layouts, and batch frames carry an explicit body
//! length right after the prologue.
//!
//! ## Canonical classification lengths
//!
//! Both ends classify a header block (`Pmm::select`, `batch::batchable`)
//! *before* its encoded length is known, so they feed those symmetric
//! tests the fixed `*_CLASS_*` lengths below, never the bytes on the wire.
//! The values bound every encoding and are pinned: changing one changes TM
//! choices, batch flush points and therefore every virtual-time figure.

use crate::error::{MadError, MadResult};
use madsim_net::NodeId;

/// Canonical classification length of a message header (see module docs).
pub const MSG_CLASS_LEN: usize = 16;
/// Canonical classification length of a stripe chunk header.
pub(crate) const STRIPE_CLASS_LEN: usize = 16;
/// Canonical classification length of a batch frame's fixed part.
pub(crate) const BATCH_CLASS_HDR_LEN: usize = 8;
/// Canonical classification length of one batch envelope.
pub(crate) const BATCH_CLASS_ENV_LEN: usize = 12;

/// On-wire length of a stripe chunk header.
pub(crate) const STRIPE_HEADER_LEN: usize = 10;
/// On-wire length of a gateway fragment header.
pub const FRAG_HEADER_LEN: usize = 10;
/// Upper bound a receiver accepts for the packet count of one frame —
/// far above any configurable threshold, so a corrupt count field fails
/// loudly instead of provoking a huge allocation.
pub(crate) const MAX_FRAME_PACKETS: usize = 65_536;

pub(crate) const PROLOGUE_MSG: u8 = 0xC1;
pub(crate) const PROLOGUE_STRIPE: u8 = 0xC5;
pub(crate) const PROLOGUE_BATCH: u8 = 0xC9;
pub(crate) const PROLOGUE_FRAG: u8 = 0xCD;

// One-variant residue: the frozen `benchmark/` probes name it in the two
// `FragHeader` shims below; it goes when the next benchmark PR drops the
// parameter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireVersion {
    Compact,
}

fn corrupt<T>(what: impl Into<String>) -> MadResult<T> {
    Err(MadError::corrupt(what))
}

fn to_usize(v: u64) -> MadResult<usize> {
    usize::try_from(v).or_else(|_| corrupt("wire length overflows usize"))
}

// ---------------------------------------------------------------------
// Varints.
// ---------------------------------------------------------------------

/// Longest varint encoding of a `u64`.
pub const MAX_VARINT: usize = 10;
/// Continuation bit of a varint byte.
pub(crate) const VARINT_CONT: u8 = 0x80;

/// Encoded length of `v` as a varint.
pub fn varint_len(v: u64) -> usize {
    // 1 byte per started 7-bit group; zero still takes one byte.
    (64 - v.leading_zeros() as usize).div_ceil(7).max(1)
}

fn write_varint(mut v: u64, mut push: impl FnMut(u8)) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            return push(byte);
        }
        push(byte | VARINT_CONT);
    }
}

/// Append the varint encoding of `v` to `out`.
pub fn put_varint(out: &mut Vec<u8>, v: u64) {
    write_varint(v, |b| out.push(b));
}

/// Decode one varint at `*pos`, advancing the cursor. Overlong or
/// truncated encodings are [`MadError::CorruptStream`].
pub fn read_varint(buf: &[u8], pos: &mut usize) -> MadResult<u64> {
    let mut v: u64 = 0;
    for i in 0..MAX_VARINT {
        let Some(&byte) = pos.checked_add(i).and_then(|at| buf.get(at)) else {
            return corrupt("truncated varint");
        };
        let group = (byte & 0x7F) as u64;
        // The 10th byte may only carry the single top bit of a u64.
        if i == MAX_VARINT - 1 && group > 1 {
            return corrupt("varint overflows u64");
        }
        v |= group << (7 * i);
        if byte & VARINT_CONT == 0 {
            *pos += i + 1;
            return Ok(v);
        }
    }
    corrupt("varint longer than 10 bytes")
}

fn read_u32_varint(buf: &[u8], pos: &mut usize, what: &str) -> MadResult<u32> {
    u32::try_from(read_varint(buf, pos)?).or_else(|_| corrupt(format!("{what} overflows u32")))
}

/// The `N` bytes at `at` of a fixed layout whose length is checked.
fn field<const N: usize>(b: &[u8], at: usize) -> [u8; N] {
    b[at..at + N].try_into().expect("length checked")
}

/// A body length as its `u32` field; panics at 4 GiB or more.
fn len_field(len: usize) -> [u8; 4] {
    u32::try_from(len).expect("bodies < 4 GiB").to_le_bytes()
}

/// `b` holds exactly a `len`-byte `what`, or it is corrupt.
fn exact_len(b: &[u8], len: usize, what: &str) -> MadResult<()> {
    if b.len() == len {
        return Ok(());
    }
    corrupt(format!("{what} of {} bytes, not {len}", b.len()))
}

/// A header encoded on the stack: every wire header fits 24 bytes.
#[derive(Clone, Copy)]
pub struct HeaderBytes {
    buf: [u8; Self::CAP],
    len: usize,
}

impl HeaderBytes {
    /// Capacity: a receive buffer this long holds any header.
    pub(crate) const CAP: usize = 24;

    fn new(prologue: u8) -> Self {
        let mut buf = [0; Self::CAP];
        buf[0] = prologue;
        HeaderBytes { buf, len: 1 }
    }

    fn push(&mut self, b: u8) {
        self.buf[self.len] = b;
        self.len += 1;
    }

    fn put_varint(&mut self, v: u64) {
        write_varint(v, |b| self.push(b));
    }

    fn extend(&mut self, bytes: &[u8]) {
        self.buf[self.len..self.len + bytes.len()].copy_from_slice(bytes);
        self.len += bytes.len();
    }
}

impl std::ops::Deref for HeaderBytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf[..self.len]
    }
}

// ---------------------------------------------------------------------
// Message header.
// ---------------------------------------------------------------------

/// Encode the internal message header announcing `(src, seq)`. Shared by
/// the blocking path, the posted-op path, the batch layer's deferred
/// headers — and by every *receiver*, which encodes the header it expects
/// and compares (see the module docs on prediction).
pub(crate) fn encode_msg_header(src: NodeId, seq: u32) -> HeaderBytes {
    let mut h = HeaderBytes::new(PROLOGUE_MSG);
    h.put_varint(src as u64);
    h.put_varint(seq as u64);
    h
}

/// A decoded message header.
pub(crate) struct MsgHeader {
    pub src: NodeId,
    pub seq: u32,
}

/// Decode a message header (diagnostics on the prediction-mismatch path).
pub(crate) fn decode_msg_header(bytes: &[u8]) -> MadResult<MsgHeader> {
    if bytes.first() != Some(&PROLOGUE_MSG) {
        return corrupt("corrupt message header");
    }
    let mut pos = 1;
    let src = to_usize(read_varint(bytes, &mut pos)?)?;
    let seq = read_u32_varint(bytes, &mut pos, "message seq")?;
    Ok(MsgHeader { src, seq })
}

// ---------------------------------------------------------------------
// Stripe chunk header.
// ---------------------------------------------------------------------

/// A decoded stripe chunk header: the chunk's rail and its span of the
/// striped block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct StripeHeader {
    pub rail: usize,
    pub off: usize,
    pub len: usize,
}

/// Encode the per-chunk stripe header.
///
/// # Panics
/// Panics if the rail id exceeds a byte or the span exceeds 32 bits
/// (channels hold at most 64 rails; striped blocks are limited to 4 GiB).
pub(crate) fn encode_stripe_header(rail: usize, off: usize, len: usize) -> HeaderBytes {
    let mut h = HeaderBytes::new(PROLOGUE_STRIPE);
    h.push(u8::try_from(rail).expect("rail ids < 256"));
    h.extend(&len_field(off));
    h.extend(&len_field(len));
    h
}

/// Decode a stripe chunk header.
pub(crate) fn decode_stripe_header(bytes: &[u8]) -> MadResult<StripeHeader> {
    if bytes.len() != STRIPE_HEADER_LEN || bytes[0] != PROLOGUE_STRIPE {
        return corrupt("corrupt stripe header (asymmetric pack/unpack?)");
    }
    Ok(StripeHeader {
        rail: bytes[1] as usize,
        off: u32::from_le_bytes(field(bytes, 2)) as usize,
        len: u32::from_le_bytes(field(bytes, 6)) as usize,
    })
}

/// Encode a stripe-ack control payload (the acknowledged chunk offset).
pub(crate) fn encode_stripe_ack(off: usize) -> [u8; 8] {
    (off as u64).to_le_bytes()
}

/// Decode a stripe-ack control payload.
pub(crate) fn decode_stripe_ack(payload: &[u8]) -> Option<u64> {
    Some(u64::from_le_bytes(payload.get(..8)?.try_into().ok()?))
}

// ---------------------------------------------------------------------
// Batch frames.
// ---------------------------------------------------------------------

/// Write a batch frame's header + envelope table for `packets` (one
/// `(len, flags)` pair per packet, envelope seqs `first_seq..`) into `out`,
/// replacing its contents — the caller keeps `out` for its capacity.
/// Returns how many payload bytes the frame carries after the table.
/// Flags must fit the 2 bits below the length.
pub fn encode_batch_frame(
    out: &mut Vec<u8>,
    first_seq: u32,
    packets: impl ExactSizeIterator<Item = (usize, u32)> + Clone,
) -> usize {
    let envelope = |(len, flags): (usize, u32)| {
        debug_assert!(flags < 4, "envelope flags fit 2 bits");
        ((len as u64) << 2) | flags as u64
    };
    let count = packets.len() as u64;
    let payload: usize = packets.clone().map(|p| p.0).sum();
    let table: usize = packets.clone().map(|p| varint_len(envelope(p))).sum();
    let body = varint_len(first_seq as u64) + varint_len(count) + table + payload;
    out.clear();
    out.push(PROLOGUE_BATCH);
    put_varint(out, body as u64);
    put_varint(out, first_seq as u64);
    put_varint(out, count);
    for p in packets {
        put_varint(out, envelope(p));
    }
    payload
}

/// Total length of the batch frame that opens with `head`, or `None` while
/// `head` stops short of the end of the body-length field. A body longer
/// than `max_body` is more than any conforming sender ships: corruption,
/// reported before anything is sized by the claim.
pub(crate) fn batch_frame_len(
    head: &[u8],
    src: NodeId,
    max_body: usize,
) -> MadResult<Option<usize>> {
    match head.first() {
        None => return Ok(None),
        Some(&PROLOGUE_BATCH) => {}
        Some(_) => {
            return corrupt(format!(
                "bad batch frame prologue from node {src} (batching enabled on one end only?)"
            ))
        }
    }
    let varint = &head[1..];
    let complete = varint.iter().any(|b| b & VARINT_CONT == 0);
    if !complete && varint.len() < MAX_VARINT {
        return Ok(None);
    }
    let mut pos = 1;
    let body = read_varint(head, &mut pos)?;
    let whole = usize::try_from(body).ok().filter(|&b| b <= max_body);
    match whole.and_then(|b| pos.checked_add(b)) {
        Some(len) => Ok(Some(len)),
        None => corrupt(format!(
            "batch frame from node {src} claims a {body}-byte body"
        )),
    }
}

/// A cursor over one arrived batch frame: the frame's bytes, where its
/// next envelope and that envelope's payload lie, and how many are left.
/// Nothing is split out or copied; a packet is handed over as a borrow of
/// the frame.
pub(crate) struct BatchCursor {
    frame: bytes::Bytes,
    table_at: usize,
    payload_at: usize,
    left: usize,
}

impl BatchCursor {
    /// The cursor of no frame: nothing left.
    pub(crate) const fn empty() -> Self {
        BatchCursor {
            frame: bytes::Bytes::new(),
            table_at: 0,
            payload_at: 0,
            left: 0,
        }
    }

    /// Validate a whole frame — header, body length, every envelope, and
    /// that the payloads fill the frame exactly — and point a cursor at
    /// its first packet. Also returns the first envelope's sequence number
    /// (continuity across frames is the caller's to check).
    pub(crate) fn open(frame: bytes::Bytes, src: NodeId) -> MadResult<(Self, u32)> {
        if frame.first() != Some(&PROLOGUE_BATCH) {
            return corrupt(format!(
                "bad batch frame prologue from node {src} (batching enabled on one end only?)"
            ));
        }
        let mut pos = 1;
        let body = to_usize(read_varint(&frame, &mut pos)?)?;
        if pos.checked_add(body) != Some(frame.len()) {
            return corrupt(format!(
                "batch frame from node {src} is {} bytes where its body length says {body}",
                frame.len() - pos
            ));
        }
        let first_seq = read_u32_varint(&frame, &mut pos, "batch envelope seq")?;
        let count = to_usize(read_varint(&frame, &mut pos)?)?;
        if count == 0 || count > MAX_FRAME_PACKETS {
            return corrupt(format!(
                "batch frame from node {src} claims {count} packets"
            ));
        }
        let table_at = pos;
        let mut payload = 0usize;
        for _ in 0..count {
            let len = to_usize(read_varint(&frame, &mut pos)? >> 2)?;
            payload = payload.saturating_add(len);
        }
        match frame.len() - pos {
            room if room < payload => corrupt(format!(
                "batch envelopes from node {src} overrun their frame by {} bytes",
                payload - room
            )),
            room if room > payload => corrupt(format!(
                "batch frame from node {src} carries {} trailing bytes",
                room - payload
            )),
            _ => Ok((
                BatchCursor {
                    frame,
                    table_at,
                    payload_at: pos,
                    left: count,
                },
                first_seq,
            )),
        }
    }

    /// Packets not yet handed over.
    pub(crate) fn left(&self) -> usize {
        self.left
    }

    /// Hand over the next packet: its payload and envelope flags.
    pub(crate) fn next_packet(&mut self) -> Option<(&[u8], u32)> {
        self.left = self.left.checked_sub(1)?;
        let packed = read_varint(&self.frame, &mut self.table_at).expect("validated at open");
        let start = self.payload_at;
        self.payload_at += (packed >> 2) as usize;
        Some((&self.frame[start..self.payload_at], (packed & 0b11) as u32))
    }
}

// ---------------------------------------------------------------------
// Gateway fragment header.
// ---------------------------------------------------------------------

/// Per-fragment self-description (paper §6.1). Within a homogeneous
/// session a receiver's unpack sequence describes a message; a gateway has
/// none of that knowledge, so every fragment that may cross one carries
/// what the gateway needs to forward it — where it is going, where it came
/// from, how long it is. Gateways are stateless and cannot predict fields
/// the way channel receivers do, so the layout is fixed-length and the
/// same on every hop. The fragment's byte offset within its block is
/// redundant on a reliable fabric (fragments arrive in order); under
/// failover it is what lets a receiver tell a restarted block (offset 0)
/// from the stale tail of an aborted attempt, and discard the latter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FragHeader {
    /// Originating end node.
    pub src: NodeId,
    /// Final destination end node.
    pub dst: NodeId,
    /// Payload bytes following this header.
    pub len: usize,
    /// Byte offset of this fragment within its block.
    pub offset: usize,
}

impl FragHeader {
    /// Encode the [`FRAG_HEADER_LEN`]-byte wire form.
    ///
    /// # Panics
    /// Panics if a node id exceeds a byte, the length exceeds 24 bits
    /// (fragments are MTU-bounded), or the offset exceeds 32 bits.
    pub fn to_wire(&self) -> HeaderBytes {
        assert!(self.len < 1 << 24, "fragments are MTU-bounded");
        let mut h = HeaderBytes::new(PROLOGUE_FRAG);
        h.push(u8::try_from(self.src).expect("node ids < 256"));
        h.push(u8::try_from(self.dst).expect("node ids < 256"));
        h.extend(&(self.len as u32).to_le_bytes()[..3]);
        let offset = u32::try_from(self.offset).expect("block offsets < 4 GiB");
        h.extend(&offset.to_le_bytes());
        h
    }

    /// Decode [`FRAG_HEADER_LEN`] bytes, reporting anything else —
    /// including a gateway fed non-fragment traffic (e.g. a hop channel
    /// also used directly by the application) — as
    /// [`MadError::CorruptStream`].
    pub fn from_wire(b: &[u8]) -> MadResult<Self> {
        if b.len() != FRAG_HEADER_LEN || b[0] != PROLOGUE_FRAG {
            return corrupt(format!(
                "corrupt fragment header ({} bytes, prologue {:#04x}): hop channel \
                 carrying non-virtual-channel traffic?",
                b.len(),
                b.first().copied().unwrap_or(0)
            ));
        }
        Ok(FragHeader {
            src: b[1] as NodeId,
            dst: b[2] as NodeId,
            len: u32::from_le_bytes([b[3], b[4], b[5], 0]) as usize,
            offset: u32::from_le_bytes(field(b, 6)) as usize,
        })
    }

    /// [`to_wire`](Self::to_wire), for the frozen `benchmark/` probes.
    pub fn encode(&self, _: WireVersion) -> HeaderBytes {
        self.to_wire()
    }

    /// [`from_wire`](Self::from_wire), for the frozen `benchmark/` probes.
    pub fn try_decode(_: WireVersion, b: &[u8]) -> MadResult<Self> {
        Self::from_wire(b)
    }
}

// ---------------------------------------------------------------------
// Layouts the channel delimits: credit returns and client envelopes.
// ---------------------------------------------------------------------

pub(crate) const CREDIT_LEN: usize = 4;

/// Encode a return of `n` credits (`drivers::CreditWindow`: windows are
/// a few dozen buffers, so `n` fits the field).
pub(crate) fn encode_credit(n: usize) -> [u8; CREDIT_LEN] {
    (n as u32).to_le_bytes()
}

pub(crate) fn decode_credit(pkt: &[u8]) -> MadResult<usize> {
    exact_len(pkt, CREDIT_LEN, "credit return")?;
    Ok(u32::from_le_bytes(field(pkt, 0)) as usize)
}

/// Declare client envelopes: for each, the struct of its fields and the
/// one `to_wire`/`from_wire` pair that puts each field, little-endian, at
/// its byte offset, with the body length as a `u32`. Bytes no field
/// covers are zero padding.
macro_rules! envelopes {
    ($($(#[$doc:meta])* $name:ident($size:literal B, len @ $len_at:literal) {
        $($field:ident: $ty:ident @ $at:literal),* $(,)?
    })*) => {$(
        $(#[$doc])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub struct $name {
            $(pub $field: $ty,)*
            /// Body length.
            pub len: usize,
        }

        impl $name {
            /// On-wire length.
            pub const LEN: usize = $size;

            /// Panics if the body is 4 GiB or longer.
            pub fn to_wire(&self) -> [u8; $size] {
                let mut b = [0; $size];
                $(b[$at..][..size_of::<$ty>()].copy_from_slice(&self.$field.to_le_bytes());)*
                b[$len_at..][..4].copy_from_slice(&len_field(self.len));
                b
            }

            /// Decode exactly [`LEN`](Self::LEN) bytes; any other length is
            /// [`MadError::CorruptStream`].
            pub fn from_wire(b: &[u8]) -> MadResult<Self> {
                exact_len(b, $size, stringify!($name))?;
                Ok($name {
                    $($field: $ty::from_le_bytes(field(b, $at)),)*
                    len: u32::from_le_bytes(field(b, $len_at)) as usize,
                })
            }
        }
    )*};
}

envelopes! {
    /// The `ch_mad` device's envelope (§5.3.1): the communicator context,
    /// the tag, and the body length.
    MpiEnvelope(12 B, len @ 8) { ctx: u16 @ 0, tag: i32 @ 4 }

    /// A Nexus remote service request's envelope (§5.3.2): the handler to
    /// run and the body length.
    RsrEnvelope(8 B, len @ 4) { handler: u32 @ 0 }

    /// A PM2 lightweight RPC's envelope: the message kind (the caller's to
    /// interpret, so an unknown one still decodes), the service, the
    /// request id a reply answers, and the body length.
    LrpcEnvelope(20 B, len @ 16) { kind: u8 @ 0, service: u32 @ 4, req_id: u64 @ 8 }
}

// ---------------------------------------------------------------------
// Marshaled data.
// ---------------------------------------------------------------------

/// Writer of marshaled data (Nexus's `nexus_put_*`): little-endian
/// scalars, and byte strings behind their `u32` length.
#[derive(Clone, Debug, Default)]
pub struct Writer {
    bytes: Vec<u8>,
}

impl Writer {
    pub fn new() -> Self {
        Writer::default()
    }

    pub fn put_u32(&mut self, v: u32) -> &mut Self {
        self.bytes.extend_from_slice(&v.to_le_bytes());
        self
    }

    pub fn put_u64(&mut self, v: u64) -> &mut Self {
        self.bytes.extend_from_slice(&v.to_le_bytes());
        self
    }

    pub fn put_f64(&mut self, v: f64) -> &mut Self {
        self.bytes.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Panics if `v` is 4 GiB or longer.
    pub fn put_bytes(&mut self, v: &[u8]) -> &mut Self {
        self.bytes.extend_from_slice(&len_field(v.len()));
        self.bytes.extend_from_slice(v);
        self
    }

    pub fn put_str(&mut self, v: &str) -> &mut Self {
        self.put_bytes(v.as_bytes())
    }

    pub fn as_slice(&self) -> &[u8] {
        &self.bytes
    }

    pub fn into_vec(self) -> Vec<u8> {
        self.bytes
    }
}

/// Checked reader of [`Writer`]-marshaled data (Nexus's `nexus_get_*`):
/// a read past the end, or a string that is not UTF-8, is
/// [`MadError::CorruptStream`].
#[derive(Clone, Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, at: 0 }
    }

    /// Whether every byte has been read.
    pub fn is_empty(&self) -> bool {
        self.at == self.bytes.len()
    }

    fn take(&mut self, n: usize) -> MadResult<&'a [u8]> {
        let (at, len) = (self.at, self.bytes.len());
        let v = self.bytes.get(at..at.saturating_add(n)).ok_or_else(|| {
            MadError::corrupt(format!(
                "marshaled data: {n}-byte read at offset {at} of {len}"
            ))
        })?;
        self.at += n;
        Ok(v)
    }

    fn array<const N: usize>(&mut self) -> MadResult<[u8; N]> {
        self.take(N).map(|b| field(b, 0))
    }

    pub fn get_u32(&mut self) -> MadResult<u32> {
        self.array().map(u32::from_le_bytes)
    }

    pub fn get_u64(&mut self) -> MadResult<u64> {
        self.array().map(u64::from_le_bytes)
    }

    pub fn get_f64(&mut self) -> MadResult<f64> {
        self.array().map(f64::from_le_bytes)
    }

    pub fn get_bytes(&mut self) -> MadResult<&'a [u8]> {
        let n = self.get_u32()? as usize;
        self.take(n)
    }

    pub fn get_str(&mut self) -> MadResult<&'a str> {
        std::str::from_utf8(self.get_bytes()?)
            .or_else(|e| corrupt(format!("marshaled string is not UTF-8: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(v: u64) {
        let mut buf = Vec::new();
        put_varint(&mut buf, v);
        assert_eq!(buf.len(), varint_len(v), "length formula for {v}");
        let mut pos = 0;
        assert_eq!(read_varint(&buf, &mut pos).unwrap(), v);
        assert_eq!(pos, buf.len(), "cursor consumed exactly the varint");
    }

    #[test]
    fn varint_boundaries_roundtrip() {
        // Every 7-bit group boundary: 0, 2^7 +- 1, 2^14 +- 1, ... u64::MAX.
        let mut cases = vec![0u64, u64::MAX];
        for shift in (7..64).step_by(7) {
            let b = 1u64 << shift;
            cases.extend([b - 1, b, b + 1]);
        }
        for v in cases {
            roundtrip(v);
        }
        assert_eq!(varint_len(0), 1);
        assert_eq!(varint_len(127), 1);
        assert_eq!(varint_len(128), 2);
        assert_eq!(varint_len(u64::MAX), MAX_VARINT);
    }

    #[test]
    fn varint_rejects_truncation_and_overflow() {
        let mut buf = Vec::new();
        put_varint(&mut buf, u64::MAX);
        let mut pos = 0;
        assert!(read_varint(&buf[..buf.len() - 1], &mut pos).is_err());
        // 10 continuation bytes followed by anything: longer than a u64.
        let long = [VARINT_CONT | 1; 11];
        let mut pos = 0;
        assert!(read_varint(&long, &mut pos).is_err());
        // A 10th byte carrying more than the top bit of a u64.
        let mut over = [VARINT_CONT | 0x7F; 9].to_vec();
        over.push(0x02);
        let mut pos = 0;
        assert!(read_varint(&over, &mut pos).is_err());
    }

    #[test]
    fn prologues_are_distinct_and_headers_reject_each_other() {
        let all = [PROLOGUE_MSG, PROLOGUE_STRIPE, PROLOGUE_BATCH, PROLOGUE_FRAG];
        for (i, a) in all.iter().enumerate() {
            assert_eq!(*a, 0xC0 | ((i as u8) << 2) | 1);
        }
        let stripe = encode_stripe_header(2, 4096, 1024);
        assert_eq!(stripe.len(), STRIPE_HEADER_LEN);
        assert!(FragHeader::from_wire(&stripe).is_err());
        assert!(decode_msg_header(&stripe).is_err());
        match FragHeader::from_wire(&[0u8; FRAG_HEADER_LEN]) {
            Err(MadError::CorruptStream(what)) => {
                assert!(what.contains("corrupt fragment header"), "got {what:?}")
            }
            other => panic!("expected CorruptStream, got {other:?}"),
        }
    }

    /// splitmix64: the seeded, std-only source of the hostile-bytes test.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        /// A value with a uniformly drawn bit width, so every varint
        /// length is exercised.
        fn wide(&mut self) -> u64 {
            self.next() >> self.below(64)
        }
    }

    /// Run every decoder over `bytes`; the only requirement is no panic.
    fn decode_all(bytes: &[u8]) {
        let mut pos = 0;
        let _ = read_varint(bytes, &mut pos);
        let mut pos = usize::MAX;
        let _ = read_varint(bytes, &mut pos);
        let _ = decode_msg_header(bytes);
        let _ = decode_stripe_header(bytes);
        let _ = FragHeader::from_wire(bytes);
        let _ = batch_frame_len(bytes, 0, usize::MAX);
        if let Ok((mut cursor, _)) = BatchCursor::open(bytes::Bytes::copy_from_slice(bytes), 0) {
            // A frame that opens is sound to its last byte: every packet
            // it promised comes out, and they cover the frame exactly.
            let (promised, mut carried) = (cursor.left(), 0);
            let delivered =
                std::iter::from_fn(|| cursor.next_packet().map(|p| carried += p.0.len()));
            assert_eq!(delivered.count(), promised);
            assert_eq!(cursor.payload_at, bytes.len());
            assert!(carried < bytes.len());
        }
        let _ = decode_stripe_ack(bytes);
        let _ = decode_credit(bytes);
        let _ = MpiEnvelope::from_wire(bytes);
        let _ = RsrEnvelope::from_wire(bytes);
        let _ = LrpcEnvelope::from_wire(bytes);
        // Every read consumes at least 4 bytes, so this ends.
        let mut r = Reader::new(bytes);
        for read in (0..5).cycle() {
            let ok = match read {
                0 => r.get_u32().is_ok(),
                1 => r.get_bytes().is_ok(),
                2 => r.get_u64().is_ok(),
                3 => r.get_str().is_ok(),
                _ => r.get_f64().is_ok(),
            };
            if !ok {
                break;
            }
        }
    }

    /// A valid frame (table + `fill` payload bytes) for `packets`.
    fn batch_frame(first_seq: u32, packets: &[(usize, u32)], fill: u8) -> Vec<u8> {
        let mut frame = Vec::new();
        let payload = encode_batch_frame(&mut frame, first_seq, packets.iter().copied());
        frame.resize(frame.len() + payload, fill);
        frame
    }

    fn open_err(frame: &[u8]) -> String {
        match BatchCursor::open(bytes::Bytes::copy_from_slice(frame), 7) {
            Err(MadError::CorruptStream(what)) => what,
            Ok(_) => panic!("hostile frame {frame:02x?} opened"),
            Err(e) => panic!("expected CorruptStream, got {e:?}"),
        }
    }

    /// The receive path's own failure modes, each by construction: the
    /// frame is rejected whole, before a single packet is handed over.
    #[test]
    fn hostile_batch_frames_are_rejected_whole() {
        let packets = [(3usize, 0u32), (64, 1), (0, 2), (200, 0)];
        let frame = batch_frame(9, &packets, 0x5A);
        let (mut cursor, first_seq) = BatchCursor::open(frame.clone().into(), 7).unwrap();
        assert_eq!((first_seq, cursor.left()), (9, packets.len()));
        for &(len, flags) in &packets {
            assert_eq!(cursor.next_packet(), Some((&vec![0x5A; len][..], flags)));
        }
        assert_eq!(
            cursor.next_packet(),
            None,
            "an exhausted cursor stays exhausted"
        );
        assert_eq!(BatchCursor::empty().next_packet(), None);

        // Truncated table: the frame ends inside its envelope varints.
        let table_only = batch_frame(9, &[(0, 0), (0, 0), (0, 0)], 0);
        let mut cut = table_only[..table_only.len() - 1].to_vec();
        cut[1] -= 1; // keep the body length honest: only the table is short
        assert!(open_err(&cut).contains("truncated varint"));
        // Envelope overrun: an envelope claims more than the frame holds.
        let mut overrun = batch_frame(9, &[(5, 0)], 1);
        let env_at = overrun.len() - 5 - 1;
        overrun[env_at] = 6 << 2;
        assert!(open_err(&overrun).contains("overrun"));
        let mut huge = batch_frame(9, &[(1, 0)], 1);
        huge.truncate(huge.len() - 2); // drop the envelope and its payload
        put_varint(&mut huge, u64::MAX); // a length that overflows every sum
        huge[1] = (huge.len() - 2) as u8;
        assert!(open_err(&huge).contains("overrun"));
        // Trailing bytes: the payloads stop short of the frame's end.
        let mut trailing = batch_frame(9, &[(5, 0)], 1);
        trailing.push(0);
        trailing[1] += 1;
        assert!(open_err(&trailing).contains("1 trailing bytes"));
        // Body length and frame length disagree (either way).
        assert!(open_err(&frame[..frame.len() - 1]).contains("body length"));
        // Oversize body claim: refused from the header alone, so nothing
        // downstream is ever sized by it.
        let mut claim = vec![PROLOGUE_BATCH];
        put_varint(&mut claim, 4097);
        assert_eq!(
            batch_frame_len(&claim, 7, 4097).unwrap(),
            Some(claim.len() + 4097)
        );
        match batch_frame_len(&claim, 7, 4096) {
            Err(MadError::CorruptStream(what)) => assert!(what.contains("4097-byte body")),
            other => panic!("expected CorruptStream, got {other:?}"),
        }
        // The header is read as it trickles in: no answer until the
        // length field is whole, then always the same one.
        assert_eq!(batch_frame_len(&[], 7, 99).unwrap(), None);
        assert_eq!(batch_frame_len(&claim[..1], 7, 9999).unwrap(), None);
        assert_eq!(batch_frame_len(&claim[..2], 7, 9999).unwrap(), None);
        assert!(batch_frame_len(&[PROLOGUE_MSG, 1], 7, 99).is_err());
        assert!(
            batch_frame_len(&[[PROLOGUE_BATCH].as_slice(), &[0x80; 10]].concat(), 7, 99).is_err()
        );
    }

    /// Each fixed layout, byte for byte as the layers above hand-rolled it
    /// before this module held it.
    #[test]
    fn fixed_layouts_match_their_golden_bytes() {
        let mpi = MpiEnvelope {
            ctx: 0x0102,
            tag: -2,
            len: 0x0A0B_0C0D,
        };
        let golden = [2, 1, 0, 0, 0xFE, 0xFF, 0xFF, 0xFF, 0x0D, 0x0C, 0x0B, 0x0A];
        assert_eq!(mpi.to_wire(), golden);
        let rsr = RsrEnvelope {
            handler: 0x1122_3344,
            len: 5,
        };
        assert_eq!(rsr.to_wire(), [0x44, 0x33, 0x22, 0x11, 5, 0, 0, 0]);
        let lrpc = LrpcEnvelope {
            kind: 0x81,
            service: 7,
            req_id: 0x0102_0304_0506_0708,
            len: 0x100,
        };
        let golden = [
            0x81, 0, 0, 0, 7, 0, 0, 0, 8, 7, 6, 5, 4, 3, 2, 1, 0, 1, 0, 0,
        ];
        assert_eq!(lrpc.to_wire(), golden);
        assert_eq!(encode_credit(8), [8, 0, 0, 0]);
        let mut w = Writer::new();
        w.put_u32(1).put_u64(2).put_f64(1.0).put_str("hi");
        let golden = [
            1, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xF0, 0x3F, 2, 0, 0, 0, b'h',
            b'i',
        ];
        assert_eq!(w.as_slice(), golden);
        // A wrong length is corruption, never a panic or a misread.
        for short in [&golden[..11], &golden[..0]] {
            assert!(matches!(
                MpiEnvelope::from_wire(short),
                Err(MadError::CorruptStream(_))
            ));
        }
        assert!(LrpcEnvelope::from_wire(&[0; 21]).is_err());
        assert!(decode_credit(&[8, 0, 0, 0, 0, 0, 0, 0]).is_err());
    }

    #[test]
    fn decoders_are_total_and_valid_encodings_roundtrip() {
        for seed in [1u64, 2, 3] {
            let mut rng = Rng(seed);
            for _ in 0..2_000 {
                // Valid encodings round-trip, field for field.
                let (a, b) = (rng.wide(), rng.wide());
                roundtrip(a);
                let mut two = Vec::new();
                put_varint(&mut two, a);
                put_varint(&mut two, b);
                let mut pos = 0;
                assert_eq!(read_varint(&two, &mut pos).unwrap(), a);
                assert_eq!(read_varint(&two, &mut pos).unwrap(), b);
                assert_eq!(pos, two.len());

                let (src, seq) = (rng.wide() as usize, rng.next() as u32);
                let msg = encode_msg_header(src, seq);
                let d = decode_msg_header(&msg).unwrap();
                assert_eq!((d.src, d.seq), (src, seq));

                let want = StripeHeader {
                    rail: rng.below(64) as usize,
                    off: rng.next() as u32 as usize,
                    len: rng.next() as u32 as usize,
                };
                let stripe = encode_stripe_header(want.rail, want.off, want.len);
                assert_eq!(decode_stripe_header(&stripe).unwrap(), want);

                let frag = FragHeader {
                    src: rng.below(256) as usize,
                    dst: rng.below(256) as usize,
                    len: rng.below(1 << 24) as usize,
                    offset: rng.next() as u32 as usize,
                };
                let frag_bytes = frag.to_wire();
                assert_eq!(frag_bytes.len(), FRAG_HEADER_LEN);
                assert_eq!(FragHeader::from_wire(&frag_bytes).unwrap(), frag);

                let packets: Vec<(usize, u32)> = (0..1 + rng.below(8))
                    .map(|_| (rng.below(600) as usize, rng.below(4) as u32))
                    .collect();
                let total: usize = packets.iter().map(|p| p.0).sum();
                let first_seq = rng.next() as u32;
                let frame = batch_frame(first_seq, &packets, 0x5A);
                let whole = batch_frame_len(&frame, 0, total + 64).unwrap();
                assert_eq!(whole, Some(frame.len()));
                let (mut cursor, seq) = BatchCursor::open(frame.clone().into(), 0).unwrap();
                assert_eq!((seq, cursor.left()), (first_seq, packets.len()));
                for &(len, flags) in &packets {
                    let (payload, got) = cursor.next_packet().expect("promised");
                    assert_eq!((payload.len(), got), (len, flags));
                }
                assert_eq!(cursor.payload_at, frame.len());

                let ack = encode_stripe_ack(want.off);
                assert_eq!(decode_stripe_ack(&ack), Some(want.off as u64));

                let credits = rng.next() as u32 as usize;
                let credit = encode_credit(credits);
                assert_eq!(decode_credit(&credit).unwrap(), credits);
                let mpi = MpiEnvelope {
                    ctx: rng.next() as u16,
                    tag: rng.next() as i32,
                    len: rng.next() as u32 as usize,
                };
                let mpi_bytes = mpi.to_wire();
                assert_eq!(MpiEnvelope::from_wire(&mpi_bytes).unwrap(), mpi);
                let rsr = RsrEnvelope {
                    handler: rng.next() as u32,
                    len: rng.next() as u32 as usize,
                };
                let rsr_bytes = rsr.to_wire();
                assert_eq!(RsrEnvelope::from_wire(&rsr_bytes).unwrap(), rsr);
                let lrpc = LrpcEnvelope {
                    kind: rng.next() as u8,
                    service: rng.next() as u32,
                    req_id: rng.next(),
                    len: rng.next() as u32 as usize,
                };
                let lrpc_bytes = lrpc.to_wire();
                assert_eq!(LrpcEnvelope::from_wire(&lrpc_bytes).unwrap(), lrpc);

                let (n32, n64, x) = (rng.next() as u32, rng.next(), f64::from_bits(rng.next()));
                let blob: Vec<u8> = (0..rng.below(40)).map(|_| rng.next() as u8).collect();
                let text = String::from_utf8_lossy(&blob).into_owned();
                let mut w = Writer::new();
                w.put_u32(n32).put_bytes(&blob).put_u64(n64).put_str(&text);
                w.put_f64(x);
                let marshaled = w.into_vec();
                let mut r = Reader::new(&marshaled);
                assert_eq!(r.get_u32().unwrap(), n32);
                assert_eq!(r.get_bytes().unwrap(), &blob[..]);
                assert_eq!(r.get_u64().unwrap(), n64);
                assert_eq!(r.get_str().unwrap(), text);
                assert_eq!(r.get_f64().unwrap().to_bits(), x.to_bits());
                assert!(r.is_empty());

                // Truncations and single-bit flips of each valid encoding,
                // then plain noise: typed errors or values, never a panic.
                for valid in [
                    &two[..],
                    &msg[..],
                    &stripe[..],
                    &frag_bytes[..],
                    &frame[..],
                    &ack[..],
                    &credit[..],
                    &mpi_bytes[..],
                    &rsr_bytes[..],
                    &lrpc_bytes[..],
                    &marshaled[..],
                ] {
                    decode_all(&valid[..rng.below(valid.len() as u64 + 1) as usize]);
                    let mut flipped = valid.to_vec();
                    let bit = rng.below(flipped.len() as u64 * 8) as usize;
                    flipped[bit / 8] ^= 1 << (bit % 8);
                    decode_all(&flipped);
                }
                let noise: Vec<u8> = (0..rng.below(40)).map(|_| rng.next() as u8).collect();
                decode_all(&noise);
            }
        }
        // The two panics this test found at the parent commit: a short
        // fragment header, and a batch body length that overflows `usize`.
        assert!(FragHeader::from_wire(&[PROLOGUE_FRAG, 1, 2]).is_err());
        let mut huge = vec![PROLOGUE_BATCH];
        put_varint(&mut huge, u64::MAX);
        assert!(BatchCursor::open(huge.clone().into(), 0).is_err());
        assert!(batch_frame_len(&huge, 0, usize::MAX).is_err());
    }
}
