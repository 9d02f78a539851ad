//! Serially-reusable virtual resources.
//!
//! A [`ResourceTimeline`] models a resource that can serve one transfer at a
//! time (a NIC engine, a link direction, a DMA engine): requests are granted
//! non-overlapping reservations, so a request arriving while the resource is
//! busy is queued in virtual time even if the requesting threads race in real
//! time.
//!
//! Reservations are placed in the *earliest free gap* at or after the asked
//! instant, not appended behind a watermark: a later call asking for an
//! earlier virtual instant backfills a gap an earlier call left open.
//!
//! Placement still depends on booking order wherever two requests contend
//! for the same time: the one booked first wins it. Booking `(0 µs, 100)`
//! then `(50, 100)` places `[0,100] [100,200]`; the reverse order places
//! `[50,150] [150,250]`. So placement is order-independent only when
//! requests are booked in asked-start order; a request that contends with
//! no other may be booked at any point. Racing threads (two rails sharing
//! a bus) get one placement only if something fixes that order.

use crate::time::{VDuration, VTime};
use parking_lot::Mutex;
use std::sync::Arc;

/// A granted reservation on a [`ResourceTimeline`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Reservation {
    /// When the resource actually started serving the request (>= asked start).
    pub start: VTime,
    /// When the resource finishes serving the request.
    pub end: VTime,
}

impl Reservation {
    /// Queueing delay suffered by the request.
    pub fn wait(&self, asked: VTime) -> VDuration {
        self.start.saturating_since(asked)
    }
}

/// A single-server resource in virtual time.
///
/// Thread-safe: a mutex-protected set of sorted, disjoint busy spans.
/// Adjacent spans are coalesced, so a sequential caller streaming
/// back-to-back transfers keeps the set at one entry.
#[derive(Clone)]
pub struct ResourceTimeline {
    inner: Arc<Mutex<Vec<(VTime, VTime)>>>,
    name: &'static str,
}

impl ResourceTimeline {
    pub fn new(name: &'static str) -> Self {
        ResourceTimeline {
            inner: Arc::new(Mutex::new(Vec::new())),
            name,
        }
    }

    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Reserve the resource for `dur`, no earlier than `start`.
    ///
    /// The reservation is placed in the earliest gap at or after `start`
    /// wide enough to hold `dur`; if every gap is too narrow it queues
    /// after the last existing reservation. Of two contending requests the
    /// one booked first is served first (see the module docs).
    pub fn reserve(&self, start: VTime, dur: VDuration) -> Reservation {
        let mut spans = self.inner.lock();
        if dur == VDuration::ZERO {
            let tail = spans.last().map_or(VTime::ZERO, |&(_, end)| end);
            let at = start.max(tail);
            return Reservation { start: at, end: at };
        }
        // Skip the spans that end by `start` (they cannot block it), then
        // push the candidate start past every busy span that does; stop at
        // the first gap that fits. The skip is a slice walk because that
        // compiles to a 14-byte loop, which at its 16-byte alignment never
        // straddles a cache line; a 21-byte indexed loop does in one build
        // layout of four, and runs `rpc_mix` ~30 % slower there
        // (EXPERIMENTS.md).
        let mut rest = &spans[..];
        while let [(_, end), tail @ ..] = rest {
            if *end > start {
                break;
            }
            rest = tail;
        }
        let mut idx = spans.len() - rest.len();
        let mut actual = start;
        while let Some(&(busy_start, busy_end)) = spans.get(idx) {
            if busy_start >= actual + dur {
                break;
            }
            actual = busy_end;
            idx += 1;
        }
        let end = actual + dur;
        spans.insert(idx, (actual, end));
        // Coalesce with touching neighbours to keep the set small.
        if idx + 1 < spans.len() && spans[idx].1 == spans[idx + 1].0 {
            spans[idx].1 = spans[idx + 1].1;
            spans.remove(idx + 1);
        }
        if idx > 0 && spans[idx - 1].1 == spans[idx].0 {
            spans[idx - 1].1 = spans[idx].1;
            spans.remove(idx);
        }
        Reservation { start: actual, end }
    }

    /// The instant the last booked reservation ends (the busy watermark).
    ///
    /// A new reservation may still start *earlier* than this by backfilling
    /// a gap; callers use it as a "was the resource contended at `t`"
    /// signal, not as a placement guarantee.
    pub fn next_free(&self) -> VTime {
        self.inner
            .lock()
            .last()
            .map_or(VTime::ZERO, |&(_, end)| end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> VDuration {
        VDuration::from_micros(n)
    }

    fn at(n: u64) -> VTime {
        VTime::from_nanos(n * 1_000)
    }

    #[test]
    fn back_to_back_reservations_queue() {
        let r = ResourceTimeline::new("nic");
        let a = r.reserve(at(0), us(10));
        assert_eq!(a.start, at(0));
        assert_eq!(a.end, at(10));
        // Asked at t=5 while busy until t=10: starts at 10.
        let b = r.reserve(at(5), us(10));
        assert_eq!(b.start, at(10));
        assert_eq!(b.end, at(20));
        assert_eq!(b.wait(at(5)), us(5));
    }

    #[test]
    fn idle_resource_starts_at_asked_time() {
        let r = ResourceTimeline::new("nic");
        let a = r.reserve(at(100), us(1));
        assert_eq!(a.start, at(100));
        assert_eq!(a.wait(at(100)), VDuration::ZERO);
        // A later request after the resource went idle again is not delayed.
        let b = r.reserve(at(500), us(1));
        assert_eq!(b.start, at(500));
    }

    #[test]
    fn next_free_tracks_reservations() {
        let r = ResourceTimeline::new("bus");
        assert_eq!(r.next_free(), VTime::ZERO);
        r.reserve(at(3), us(4));
        assert_eq!(r.next_free(), at(7));
    }

    #[test]
    fn late_booking_backfills_earlier_gap() {
        let r = ResourceTimeline::new("bus");
        // Book [0, 100] and [400, 500], leaving a [100, 400] gap.
        r.reserve(at(0), us(100));
        r.reserve(at(400), us(100));
        // A request asked at t=50 but *booked after* the t=400 one must
        // land in the gap, not queue behind the watermark — virtual
        // placement is independent of real-time booking order.
        let b = r.reserve(at(50), us(100));
        assert_eq!(b.start, at(100));
        assert_eq!(b.end, at(200));
        assert_eq!(r.next_free(), at(500));
        // A request too wide for any remaining gap queues at the tail.
        let c = r.reserve(at(0), us(250));
        assert_eq!(c.start, at(500));
        assert_eq!(c.end, at(750));
    }

    #[test]
    fn booking_order_does_not_change_placement() {
        // The same three requests in two different real-time orders must
        // produce the same set of busy spans. Covers the orders that keep
        // the contending (0, 100) and (10, 50) in asked-start order and
        // move only (300, 100), which contends with neither.
        let place = |order: &[(u64, u64)]| {
            let r = ResourceTimeline::new("bus");
            let mut spans: Vec<(VTime, VTime)> = order
                .iter()
                .map(|&(t, d)| {
                    let res = r.reserve(at(t), us(d));
                    (res.start, res.end)
                })
                .collect();
            spans.sort();
            spans
        };
        let a = place(&[(0, 100), (10, 50), (300, 100)]);
        let b = place(&[(300, 100), (0, 100), (10, 50)]);
        assert_eq!(a, b);
    }

    #[test]
    fn concurrent_reservations_never_overlap() {
        let r = ResourceTimeline::new("nic");
        let mut handles = Vec::new();
        for _ in 0..8 {
            let r = r.clone();
            handles.push(std::thread::spawn(move || {
                let mut spans = Vec::new();
                for _ in 0..100 {
                    spans.push(r.reserve(VTime::ZERO, us(1)));
                }
                spans
            }));
        }
        let mut all: Vec<Reservation> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_by_key(|s| s.start);
        for w in all.windows(2) {
            assert!(w[0].end <= w[1].start, "overlapping reservations");
        }
        assert_eq!(all.len(), 800);
        assert_eq!(all.last().unwrap().end, at(800));
    }
}
