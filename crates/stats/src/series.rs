//! Time series recording and rolling averages.
//!
//! Fig. 10 and Fig. 12 plot per-frame cumulative Q-values over time;
//! Fig. 11 plots the exploration probability ρ as a *rolling average
//! over 10 frames*. [`TimeSeries`] records the raw points and
//! [`RollingAverage`] implements the windowed smoothing.

use std::collections::VecDeque;

/// An append-only series of `(time, value)` points.
///
/// # Examples
///
/// ```
/// use qma_stats::TimeSeries;
///
/// let mut s = TimeSeries::new();
/// s.push(0.0, 1.0);
/// s.push(1.0, 2.0);
/// assert_eq!(s.len(), 2);
/// assert_eq!(s.last(), Some((1.0, 2.0)));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct TimeSeries {
    times: Vec<f64>,
    values: Vec<f64>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub const fn new() -> Self {
        TimeSeries {
            times: Vec::new(),
            values: Vec::new(),
        }
    }

    /// Appends a point.
    pub fn push(&mut self, time: f64, value: f64) {
        self.times.push(time);
        self.values.push(value);
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Returns `true` if the series has no points.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// The recorded timestamps.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// The recorded values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Last point, if any.
    pub fn last(&self) -> Option<(f64, f64)> {
        match (self.times.last(), self.values.last()) {
            (Some(&t), Some(&v)) => Some((t, v)),
            _ => None,
        }
    }

    /// Iterates over `(time, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.times.iter().copied().zip(self.values.iter().copied())
    }

    /// Returns a new series whose values are smoothed with a trailing
    /// rolling average over `window` points (as used for Fig. 11).
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn rolling_average(&self, window: usize) -> TimeSeries {
        assert!(window > 0, "rolling window must be positive");
        let mut avg = RollingAverage::new(window);
        let mut out = TimeSeries::new();
        for (t, v) in self.iter() {
            avg.push(v);
            out.push(t, avg.average());
        }
        out
    }

    /// Downsamples to at most `max_points` by keeping every k-th point
    /// (always keeping the last). Useful when printing long series.
    pub fn thin(&self, max_points: usize) -> TimeSeries {
        if max_points == 0 || self.len() <= max_points {
            return self.clone();
        }
        let stride = self.len().div_ceil(max_points);
        let mut out = TimeSeries::new();
        for (i, (t, v)) in self.iter().enumerate() {
            if i % stride == 0 {
                out.push(t, v);
            }
        }
        if let (Some((lt, lv)), Some((ot, _))) = (self.last(), out.last()) {
            if ot < lt {
                out.push(lt, lv);
            }
        }
        out
    }

    /// The value at the latest time not later than `time`
    /// (sample-and-hold lookup). `None` before the first point.
    pub fn value_at(&self, time: f64) -> Option<f64> {
        match self.times.partition_point(|&t| t <= time) {
            0 => None,
            n => Some(self.values[n - 1]),
        }
    }
}

impl FromIterator<(f64, f64)> for TimeSeries {
    fn from_iter<I: IntoIterator<Item = (f64, f64)>>(iter: I) -> Self {
        let mut s = TimeSeries::new();
        for (t, v) in iter {
            s.push(t, v);
        }
        s
    }
}

/// Fixed-window trailing average.
#[derive(Debug, Clone, PartialEq)]
pub struct RollingAverage {
    window: usize,
    buf: VecDeque<f64>,
    sum: f64,
}

impl RollingAverage {
    /// Creates a rolling average over the last `window` samples.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "rolling window must be positive");
        RollingAverage {
            window,
            buf: VecDeque::with_capacity(window),
            sum: 0.0,
        }
    }

    /// Adds a sample, evicting the oldest if the window is full.
    pub fn push(&mut self, value: f64) {
        if self.buf.len() == self.window {
            if let Some(old) = self.buf.pop_front() {
                self.sum -= old;
            }
        }
        self.buf.push_back(value);
        self.sum += value;
    }

    /// Current average over the retained samples (`0.0` when empty).
    pub fn average(&self) -> f64 {
        if self.buf.is_empty() {
            0.0
        } else {
            self.sum / self.buf.len() as f64
        }
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Returns `true` when no samples have been pushed.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn series_roundtrip() {
        let s: TimeSeries = [(0.0, 1.0), (0.5, -1.0)].into_iter().collect();
        assert_eq!(s.times(), &[0.0, 0.5]);
        assert_eq!(s.values(), &[1.0, -1.0]);
        assert_eq!(s.last(), Some((0.5, -1.0)));
        assert!(!s.is_empty());
    }

    #[test]
    fn rolling_average_window() {
        let mut r = RollingAverage::new(3);
        assert_eq!(r.average(), 0.0);
        r.push(3.0);
        assert_eq!(r.average(), 3.0);
        r.push(6.0);
        assert_eq!(r.average(), 4.5);
        r.push(9.0);
        assert_eq!(r.average(), 6.0);
        r.push(0.0); // evicts 3.0 → (6+9+0)/3
        assert_eq!(r.average(), 5.0);
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn series_rolling_average_matches_manual() {
        let s: TimeSeries = (0..6).map(|i| (i as f64, i as f64)).collect();
        let sm = s.rolling_average(2);
        assert_eq!(sm.values(), &[0.0, 0.5, 1.5, 2.5, 3.5, 4.5]);
        assert_eq!(sm.times(), s.times());
    }

    #[test]
    #[should_panic(expected = "rolling window must be positive")]
    fn zero_window_panics() {
        let _ = RollingAverage::new(0);
    }

    #[test]
    fn thin_keeps_endpoints() {
        let s: TimeSeries = (0..100).map(|i| (i as f64, (i * i) as f64)).collect();
        let t = s.thin(10);
        assert!(t.len() <= 11);
        assert_eq!(t.times()[0], 0.0);
        assert_eq!(t.last(), Some((99.0, 9801.0)));
    }

    #[test]
    fn thin_noop_when_small() {
        let s: TimeSeries = (0..5).map(|i| (i as f64, 1.0)).collect();
        assert_eq!(s.thin(10), s);
    }

    #[test]
    fn value_at_sample_and_hold() {
        let s: TimeSeries = [(1.0, 10.0), (2.0, 20.0)].into_iter().collect();
        assert_eq!(s.value_at(0.5), None);
        assert_eq!(s.value_at(1.0), Some(10.0));
        assert_eq!(s.value_at(1.9), Some(10.0));
        assert_eq!(s.value_at(5.0), Some(20.0));
    }
}
