//! Event-time series: record `(time, value)` observations and query
//! aggregate statistics over the run.

use agentsim_simkit::SimTime;

/// A recorded series of gauge observations (e.g. engine queue depth at
/// every scheduling event).
///
/// Observations are step functions: the value holds from its timestamp
/// until the next observation. Time-weighted statistics therefore weight
/// each value by how long it persisted.
///
/// # Example
///
/// ```
/// use agentsim_metrics::TimeSeries;
/// use agentsim_simkit::SimTime;
///
/// let mut ts = TimeSeries::new();
/// ts.record(SimTime::from_micros(0), 2.0);
/// ts.record(SimTime::from_micros(1_000_000), 6.0);
/// assert_eq!(ts.len(), 2);
/// assert_eq!(ts.max(), 6.0);
/// assert_eq!(ts.last(), 6.0);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimeSeries {
    points: Vec<(SimTime, f64)>,
}

impl TimeSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        TimeSeries::default()
    }

    /// Records an observation.
    ///
    /// # Panics
    ///
    /// Panics if `value` is not finite or `at` precedes the previous
    /// observation (series are recorded in event order).
    pub fn record(&mut self, at: SimTime, value: f64) {
        assert!(value.is_finite(), "series values must be finite");
        if let Some(&(last, _)) = self.points.last() {
            assert!(at >= last, "observations must be time-ordered");
        }
        self.points.push((at, value));
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The raw `(time, value)` points.
    pub fn points(&self) -> &[(SimTime, f64)] {
        &self.points
    }

    /// Largest observed value (0 if empty).
    pub fn max(&self) -> f64 {
        self.points.iter().map(|&(_, v)| v).fold(0.0, f64::max)
    }

    /// Last observed value (0 if empty).
    pub fn last(&self) -> f64 {
        self.points.last().map_or(0.0, |&(_, v)| v)
    }
}

impl Extend<(SimTime, f64)> for TimeSeries {
    fn extend<I: IntoIterator<Item = (SimTime, f64)>>(&mut self, iter: I) {
        for (at, v) in iter {
            self.record(at, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn empty_series_is_zeroes() {
        let ts = TimeSeries::new();
        assert_eq!(ts.max(), 0.0);
        assert_eq!(ts.last(), 0.0);
        assert!(ts.is_empty());
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn rejects_out_of_order() {
        let mut ts = TimeSeries::new();
        ts.record(t(2.0), 1.0);
        ts.record(t(1.0), 1.0);
    }
}
