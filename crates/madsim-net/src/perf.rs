//! Bandwidth helpers and piecewise-linear performance curves.
//!
//! A [`PerfCurve`] is a piecewise-linear interpolation of *one-way transfer
//! time* over message size, anchored on published numbers (min latency,
//! bandwidth at given sizes, asymptotic bandwidth). Between anchors the
//! curve interpolates linearly in message size; beyond the last anchor it
//! extrapolates with the slope of the final segment, i.e. the asymptotic
//! bandwidth. The simulated stacks do not use curves — they charge the
//! rows of [`crate::calib`] — only the models of other libraries the
//! paper compares against (`mad_mpi::baselines`) do.
//!
//! The paper quotes bandwidth in "MB/s" meaning **MiB/s** (2^20 bytes per
//! second): this is the only reading that makes its §6.2.2 arithmetic
//! consistent (8 kB packets at 47 MB/s ⇒ "pipeline period at least 166 µs"
//! only holds for MiB). All bandwidth helpers here therefore use MiB/s.

use crate::time::VDuration;

/// Bytes per microsecond corresponding to one MiB/s.
pub const MIB_PER_S_IN_BYTES_PER_US: f64 = 1.048576;

/// Convert a (bytes, duration) pair to MiB/s.
pub fn mibps(bytes: usize, dur: VDuration) -> f64 {
    let us = dur.as_micros_f64();
    if us == 0.0 {
        return f64::INFINITY;
    }
    bytes as f64 / us / MIB_PER_S_IN_BYTES_PER_US
}

/// One-way time for `bytes` at a constant bandwidth of `mibps` MiB/s.
pub fn time_at_mibps(bytes: usize, mibps: f64) -> VDuration {
    VDuration::from_micros_f64(bytes as f64 / (mibps * MIB_PER_S_IN_BYTES_PER_US))
}

/// A piecewise-linear one-way-time curve over message size.
#[derive(Clone, Debug)]
pub struct PerfCurve {
    /// (message size in bytes, one-way time in µs), strictly increasing in
    /// both coordinates.
    anchors: Vec<(usize, f64)>,
}

impl PerfCurve {
    /// Build a curve from `(bytes, one_way_us)` anchors.
    ///
    /// # Panics
    /// Panics if fewer than two anchors are given or if either coordinate is
    /// not strictly increasing (a non-monotone time curve would imply
    /// negative incremental bandwidth).
    pub fn from_anchors(anchors: &[(usize, f64)]) -> Self {
        assert!(anchors.len() >= 2, "need at least two anchors");
        for w in anchors.windows(2) {
            assert!(
                w[0].0 < w[1].0,
                "anchor sizes must be strictly increasing: {:?}",
                anchors
            );
            assert!(
                w[0].1 < w[1].1,
                "anchor times must be strictly increasing: {:?}",
                anchors
            );
        }
        PerfCurve {
            anchors: anchors.to_vec(),
        }
    }

    /// One-way transfer time for a message of `bytes` bytes.
    pub fn time_for(&self, bytes: usize) -> VDuration {
        VDuration::from_micros_f64(self.time_us(bytes))
    }

    fn time_us(&self, bytes: usize) -> f64 {
        let a = &self.anchors;
        let x = bytes as f64;
        // Below the first anchor: constant (the min-latency floor).
        if bytes <= a[0].0 {
            return a[0].1;
        }
        for w in a.windows(2) {
            let (x0, y0) = (w[0].0 as f64, w[0].1);
            let (x1, y1) = (w[1].0 as f64, w[1].1);
            if x <= x1 {
                return y0 + (y1 - y0) * (x - x0) / (x1 - x0);
            }
        }
        // Beyond the last anchor: extrapolate at the asymptotic rate.
        let n = a.len();
        let (x0, y0) = (a[n - 2].0 as f64, a[n - 2].1);
        let (x1, y1) = (a[n - 1].0 as f64, a[n - 1].1);
        y1 + (y1 - y0) * (x - x1) / (x1 - x0)
    }

    /// Effective bandwidth (MiB/s) at a given size.
    pub fn bandwidth_at(&self, bytes: usize) -> f64 {
        mibps(bytes, self.time_for(bytes))
    }

    /// The asymptotic bandwidth implied by the final segment, in MiB/s.
    pub fn asymptotic_bandwidth(&self) -> f64 {
        let n = self.anchors.len();
        let (x0, y0) = (self.anchors[n - 2].0 as f64, self.anchors[n - 2].1);
        let (x1, y1) = (self.anchors[n - 1].0 as f64, self.anchors[n - 1].1);
        (x1 - x0) / (y1 - y0) / MIB_PER_S_IN_BYTES_PER_US
    }

    /// Smallest anchored size (the latency floor applies below it).
    pub fn min_size(&self) -> usize {
        self.anchors[0].0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolates_between_anchors() {
        let c = PerfCurve::from_anchors(&[(0, 10.0), (100, 20.0), (200, 40.0)]);
        assert_eq!(c.time_for(0).as_micros_f64(), 10.0);
        assert_eq!(c.time_for(50).as_micros_f64(), 15.0);
        assert_eq!(c.time_for(100).as_micros_f64(), 20.0);
        assert_eq!(c.time_for(150).as_micros_f64(), 30.0);
    }

    #[test]
    fn extrapolates_with_last_slope() {
        let c = PerfCurve::from_anchors(&[(0, 10.0), (100, 20.0)]);
        // slope = 0.1 us/byte
        assert_eq!(c.time_for(200).as_micros_f64(), 30.0);
        assert_eq!(c.time_for(1000).as_micros_f64(), 110.0);
    }

    #[test]
    fn latency_floor_below_first_anchor() {
        let c = PerfCurve::from_anchors(&[(4, 3.9), (1024, 20.0)]);
        assert_eq!(c.time_for(0).as_micros_f64(), 3.9);
        assert_eq!(c.time_for(4).as_micros_f64(), 3.9);
    }

    #[test]
    fn asymptotic_bandwidth_from_final_segment() {
        // final segment: 100 bytes per 10us = 10 B/us = 9.5367 MiB/s
        let c = PerfCurve::from_anchors(&[(0, 10.0), (100, 20.0)]);
        let bw = c.asymptotic_bandwidth();
        assert!((bw - 10.0 / MIB_PER_S_IN_BYTES_PER_US).abs() < 1e-9);
    }

    #[test]
    fn mibps_roundtrip() {
        let d = time_at_mibps(8192, 47.0);
        let bw = mibps(8192, d);
        assert!((bw - 47.0).abs() < 0.01, "got {bw}");
    }

    #[test]
    fn paper_pipeline_arithmetic_holds_in_mib() {
        // §6.2.2: 8 kB at 47 MB/s over BIP ⇒ 166 µs; at 58 MB/s over SISCI
        // ⇒ 135 µs; observed 36.5 MB/s ⇒ ~215 µs period.
        assert!((time_at_mibps(8192, 47.0).as_micros_f64() - 166.2).abs() < 0.5);
        assert!((time_at_mibps(8192, 58.0).as_micros_f64() - 134.7).abs() < 0.5);
        assert!((time_at_mibps(8192, 36.5).as_micros_f64() - 214.0).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_non_monotone_anchors() {
        let _ = PerfCurve::from_anchors(&[(0, 10.0), (100, 5.0)]);
    }

    #[test]
    fn bandwidth_monotone_for_concave_curve() {
        let c = PerfCurve::from_anchors(&[(4, 5.0), (1024, 15.0), (65536, 600.0)]);
        let mut prev = 0.0;
        for s in [4usize, 64, 512, 1024, 8192, 65536, 1 << 20] {
            let bw = c.bandwidth_at(s);
            assert!(bw >= prev, "bandwidth dipped at {s}: {bw} < {prev}");
            prev = bw;
        }
    }
}
