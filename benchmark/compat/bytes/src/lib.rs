//! Offline stand-in for the `bytes` crate.
//!
//! The container has no registry access, so the benchmark package patches
//! `bytes` to this file. It provides the subset of `Bytes` the workspace
//! crates call: a cheaply cloneable, sliceable, immutable byte buffer.
//! `From<Vec<u8>>` takes ownership without copying, `clone` and `slice`
//! bump a reference count, exactly the cost model of the real crate.

use std::fmt;
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

#[derive(Clone)]
enum Repr {
    Static(&'static [u8]),
    Shared(Arc<Vec<u8>>),
}

/// A reference-counted immutable byte buffer.
#[derive(Clone)]
pub struct Bytes {
    repr: Repr,
    off: usize,
    len: usize,
}

impl Bytes {
    pub const fn new() -> Self {
        Bytes::from_static(&[])
    }

    pub const fn from_static(data: &'static [u8]) -> Self {
        Bytes {
            repr: Repr::Static(data),
            off: 0,
            len: data.len(),
        }
    }

    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::from(data.to_vec())
    }

    pub fn len(&self) -> usize {
        self.len
    }

    /// A sub-view sharing the same allocation.
    ///
    /// # Panics
    /// Panics if the range is out of bounds or inverted.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let start = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len,
        };
        assert!(
            start <= end && end <= self.len,
            "slice {start}..{end} out of range for Bytes of length {}",
            self.len
        );
        Bytes {
            repr: self.repr.clone(),
            off: self.off + start,
            len: end - start,
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        let all: &[u8] = match &self.repr {
            Repr::Static(s) => s,
            Repr::Shared(v) => v,
        };
        &all[self.off..self.off + self.len]
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let len = v.len();
        Bytes {
            repr: Repr::Shared(Arc::new(v)),
            off: 0,
            len,
        }
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.iter() {
            for c in std::ascii::escape_default(b) {
                write!(f, "{}", c as char)?;
            }
        }
        write!(f, "\"")
    }
}
