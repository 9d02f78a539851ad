//! Virtual time.
//!
//! The simulated fabric moves *real bytes* between *real threads*, but all
//! performance figures are expressed in **virtual time**: a logical clock that
//! each simulated NIC, link, and bus operation advances by a calibrated cost.
//!
//! The synchronization rule is the classic conservative one used by
//! LogP-style simulators: every frame carries its virtual arrival timestamp,
//! and a receiver entering a blocking receive sets its clock to
//! `max(local_now, frame.arrival)`. Shared resources (e.g. a PCI bus) hand
//! out reservations from a timeline so that two virtual transfers never
//! overlap more than the contention model allows.
//!
//! Clocks are per *thread*, not per node: a gateway node legitimately runs
//! two pipeline threads with independent clocks that synchronize through
//! buffer hand-offs.

use std::cell::{Cell, RefCell};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// A point in virtual time, in nanoseconds since session start.
///
/// Nanosecond resolution keeps sub-microsecond costs (per-pack switch
/// overhead, PIO word costs) representable without floating-point drift.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VTime(u64);

impl VTime {
    pub const ZERO: VTime = VTime(0);

    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        VTime(ns)
    }

    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    #[inline]
    pub fn max(self, other: VTime) -> VTime {
        VTime(self.0.max(other.0))
    }

    /// Saturating difference between two instants.
    #[inline]
    pub fn saturating_since(self, earlier: VTime) -> VDuration {
        VDuration(self.0.saturating_sub(earlier.0))
    }

    /// Move this instant `d` earlier, clamping at time zero.
    #[inline]
    pub fn saturating_sub(self, d: VDuration) -> VTime {
        VTime(self.0.saturating_sub(d.0))
    }

    #[inline]
    pub fn min(self, other: VTime) -> VTime {
        VTime(self.0.min(other.0))
    }
}

impl fmt::Debug for VTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_micros_f64())
    }
}

impl fmt::Display for VTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_micros_f64())
    }
}

/// A span of virtual time, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VDuration(u64);

impl VDuration {
    pub const ZERO: VDuration = VDuration(0);

    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        VDuration(ns)
    }

    #[inline]
    pub fn from_micros_f64(us: f64) -> Self {
        debug_assert!(us >= 0.0, "negative duration");
        VDuration((us * 1_000.0).round() as u64)
    }

    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        VDuration(us * 1_000)
    }

    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Scale the duration by a dimensionless factor (e.g. a contention
    /// slowdown). Factors below 1.0 shorten, above 1.0 lengthen.
    #[inline]
    pub fn scale(self, factor: f64) -> VDuration {
        debug_assert!(factor >= 0.0, "negative scale factor");
        VDuration((self.0 as f64 * factor).round() as u64)
    }

    #[inline]
    pub fn max(self, other: VDuration) -> VDuration {
        VDuration(self.0.max(other.0))
    }
}

impl fmt::Debug for VDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_micros_f64())
    }
}

impl fmt::Display for VDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}us", self.as_micros_f64())
    }
}

impl Add<VDuration> for VTime {
    type Output = VTime;
    #[inline]
    fn add(self, rhs: VDuration) -> VTime {
        VTime(self.0 + rhs.0)
    }
}

impl AddAssign<VDuration> for VTime {
    #[inline]
    fn add_assign(&mut self, rhs: VDuration) {
        self.0 += rhs.0;
    }
}

impl Add<VDuration> for VDuration {
    type Output = VDuration;
    #[inline]
    fn add(self, rhs: VDuration) -> VDuration {
        VDuration(self.0 + rhs.0)
    }
}

impl AddAssign<VDuration> for VDuration {
    #[inline]
    fn add_assign(&mut self, rhs: VDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<VDuration> for VDuration {
    type Output = VDuration;
    #[inline]
    fn sub(self, rhs: VDuration) -> VDuration {
        VDuration(self.0.saturating_sub(rhs.0))
    }
}

/// Shared handle to a thread's virtual clock.
///
/// The clock value is also mirrored into an `AtomicU64` so *other* threads
/// (e.g. a test harness computing a global makespan) can observe it without
/// synchronizing with the owner.
#[derive(Clone)]
pub struct ClockHandle {
    inner: Arc<ClockInner>,
}

struct ClockInner {
    now: AtomicU64,
}

impl ClockHandle {
    pub fn new() -> Self {
        ClockHandle {
            inner: Arc::new(ClockInner {
                now: AtomicU64::new(0),
            }),
        }
    }

    #[inline]
    pub fn now(&self) -> VTime {
        VTime(self.inner.now.load(Ordering::Acquire))
    }

    /// Advance the clock by `d`. Returns the new time.
    #[inline]
    pub fn advance(&self, d: VDuration) -> VTime {
        let new = self.inner.now.fetch_add(d.0, Ordering::AcqRel) + d.0;
        VTime(new)
    }

    /// Move the clock forward to `t` if `t` is later than now; never moves
    /// the clock backwards. Returns the resulting time.
    #[inline]
    pub fn advance_to(&self, t: VTime) -> VTime {
        let mut cur = self.inner.now.load(Ordering::Acquire);
        loop {
            if t.0 <= cur {
                return VTime(cur);
            }
            match self.inner.now.compare_exchange_weak(
                cur,
                t.0,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return t,
                Err(seen) => cur = seen,
            }
        }
    }
}

impl Default for ClockHandle {
    fn default() -> Self {
        Self::new()
    }
}

/// The abort flag of one [`World::run`](crate::world::World::run): the id
/// of the first node whose closure panicked, [`NO_NODE`] until one does.
pub(crate) type AbortFlag = Arc<AtomicUsize>;
pub(crate) const NO_NODE: usize = usize::MAX;

thread_local! {
    static THREAD_CLOCK: Cell<Option<ClockHandle>> = const { Cell::new(None) };
    /// Set on node threads and on the auxiliary threads they spawn.
    static THREAD_ABORT: RefCell<Option<AbortFlag>> = const { RefCell::new(None) };
}

/// Make `flag` the current thread's abort flag, for the rest of its life.
pub(crate) fn set_abort(flag: AbortFlag) {
    THREAD_ABORT.with(|a| a.replace(Some(flag)));
}

/// Give up a wait that can no longer end: panics with "world aborted: node
/// N panicked" if node N of the `World::run` this thread works for has
/// panicked. For the slow branch of blocking loops only — about to park,
/// sleep or yield — never per message: a node that dies is rare, a wake-up
/// is not.
pub fn check_abort() {
    let dead = THREAD_ABORT.with(|a| a.borrow().as_ref().map(|f| f.load(Ordering::SeqCst)));
    if let Some(node) = dead.filter(|&n| n != NO_NODE) {
        // A wait inside a destructor of a thread already unwinding must not
        // panic again: that would abort the process.
        if !std::thread::panicking() {
            panic!("world aborted: node {node} panicked");
        }
    }
}

/// Install `clock` as the current thread's virtual clock. Returns the
/// previously installed clock, if any, so nested scopes can restore it.
pub fn install_clock(clock: ClockHandle) -> Option<ClockHandle> {
    THREAD_CLOCK.with(|c| c.replace(Some(clock)))
}

/// Remove the current thread's clock (restoring `prev` if given).
pub fn restore_clock(prev: Option<ClockHandle>) {
    THREAD_CLOCK.with(|c| c.replace(prev));
}

/// Fetch the current thread's clock.
///
/// # Panics
/// Panics if the thread has no installed clock — i.e. the code is running
/// outside a simulated node thread. Every thread spawned through
/// [`crate::world::World`] or [`crate::world::NodeEnv::spawn_thread`] has one.
pub fn clock() -> ClockHandle {
    with_clock(ClockHandle::clone)
}

/// Run `f` on the current thread's clock, borrowed where it is installed:
/// no reference count moves.
///
/// # Panics
/// Like [`clock`], if the thread has no installed clock.
#[inline]
fn with_clock<R>(f: impl FnOnce(&ClockHandle) -> R) -> R {
    THREAD_CLOCK.with(|c| {
        let cur = c.take();
        let r = f(cur
            .as_ref()
            .expect("no virtual clock installed on this thread (not a simulated node thread?)"));
        c.set(cur);
        r
    })
}

/// Current thread's virtual time.
#[inline]
pub fn now() -> VTime {
    with_clock(ClockHandle::now)
}

/// Advance the current thread's virtual clock by `d`.
#[inline]
pub fn advance(d: VDuration) -> VTime {
    with_clock(|c| c.advance(d))
}

/// Advance the current thread's virtual clock to at least `t`.
#[inline]
pub fn advance_to(t: VTime) -> VTime {
    with_clock(|c| c.advance_to(t))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vtime_arithmetic() {
        let t = VTime::from_nanos(1_000);
        let d = VDuration::from_micros(2);
        assert_eq!((t + d).as_nanos(), 3_000);
        assert_eq!(t.max(t + d), t + d);
        assert_eq!((t + d).saturating_since(t), d);
        assert_eq!(t.saturating_since(t + d), VDuration::ZERO);
    }

    #[test]
    fn duration_scale_rounds() {
        let d = VDuration::from_nanos(1_000);
        assert_eq!(d.scale(1.5).as_nanos(), 1_500);
        assert_eq!(d.scale(0.0).as_nanos(), 0);
        assert_eq!(d.scale(2.0).as_nanos(), 2_000);
    }

    #[test]
    fn duration_from_micros_f64() {
        assert_eq!(VDuration::from_micros_f64(3.9).as_nanos(), 3_900);
        assert_eq!(VDuration::from_micros_f64(0.0005).as_nanos(), 1);
    }

    #[test]
    fn clock_advances_monotonically() {
        let c = ClockHandle::new();
        assert_eq!(c.now(), VTime::ZERO);
        c.advance(VDuration::from_micros(5));
        assert_eq!(c.now().as_nanos(), 5_000);
        // advance_to backwards is a no-op
        c.advance_to(VTime::from_nanos(1_000));
        assert_eq!(c.now().as_nanos(), 5_000);
        c.advance_to(VTime::from_nanos(9_000));
        assert_eq!(c.now().as_nanos(), 9_000);
    }

    #[test]
    fn thread_local_clock_install() {
        let c = ClockHandle::new();
        let prev = install_clock(c.clone());
        assert!(prev.is_none());
        advance(VDuration::from_micros(1));
        assert_eq!(now().as_nanos(), 1_000);
        assert_eq!(c.now().as_nanos(), 1_000);
        restore_clock(prev);
    }

    #[test]
    fn clock_shared_across_handles() {
        let c = ClockHandle::new();
        let c2 = c.clone();
        c.advance(VDuration::from_micros(7));
        assert_eq!(c2.now().as_nanos(), 7_000);
    }

    #[test]
    fn missing_clock_panics() {
        // A brand-new thread has no clock; reading it must panic there.
        let joined = std::thread::spawn(|| {
            let _ = now();
        })
        .join();
        assert!(joined.is_err());
    }
}
