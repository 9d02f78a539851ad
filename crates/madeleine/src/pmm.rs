//! Protocol Management Modules (paper §3.3).
//!
//! One PMM per supported network interface. A PMM owns the TMs of its
//! protocol, decides — identically on the sending and the receiving side —
//! which TM carries a packet of a given length and mode combination (the
//! paper's "most-efficient transfer-method selection"), names the buffer
//! policy that feeds each TM, and announces incoming messages (a blocked
//! receive waits for an announcement through its channel's
//! [`PollPolicy`](crate::PollPolicy), not here).

use crate::bmm::SendPolicy;
use crate::flags::{RecvMode, SendMode};
use crate::tm::{TmId, TransmissionModule};
use madsim_net::NodeId;
use std::sync::Arc;

/// A protocol driving module. See module docs.
pub trait Pmm: Send + Sync {
    /// Protocol name, e.g. `"bip"`.
    fn name(&self) -> &'static str;

    /// The TMs of this protocol, indexed by [`TmId`].
    fn tms(&self) -> &[Arc<dyn TransmissionModule>];

    /// The Switch step (paper §4.1): pick the best TM for a packet. Must be
    /// a pure function of its arguments — both ends evaluate it
    /// independently and must agree (messages are not self-described).
    fn select(&self, len: usize, smode: SendMode, rmode: RecvMode) -> TmId;

    /// The buffer policy feeding TM `id`.
    fn policy(&self, id: TmId) -> SendPolicy;

    /// The node that has started sending a message on this channel, if
    /// any. Consumes nothing: the message body (starting with the internal
    /// header) is still fully receivable afterwards. Never blocks; see
    /// [`Channel::wait_incoming`](crate::Channel::wait_incoming).
    fn poll_incoming(&self) -> Option<NodeId>;

    /// Fetch a TM handle.
    fn tm(&self, id: TmId) -> Arc<dyn TransmissionModule> {
        Arc::clone(&self.tms()[id as usize])
    }

    /// Can this protocol carry multi-envelope batch frames (see
    /// [`crate::batch`])? Requires the small-packet TM to move opaque
    /// frames of any mix of lengths — true for the stream and
    /// static-buffer stacks, false by default so protocols with
    /// length-coupled handshakes (BIP's short/long split, SISCI's mapped
    /// segments) and extension channels never see a batch frame.
    fn supports_batching(&self) -> bool {
        false
    }
}
