//! Global-free counter/gauge registry.
//!
//! A [`Metrics`] value is owned by whoever created the [`crate::Obs`]
//! handle — there is no process-global state, so two pipelines running in
//! the same process (e.g. parallel tests) cannot contaminate each other's
//! numbers. Counters hold cumulative `u64` totals; gauges are last-write-wins
//! `f64` readings (utilization ratios, makespans).

use std::collections::BTreeMap;
use std::fmt;

/// A registry of named counters and gauges.
///
/// Names are dotted paths (`sim.invalidations`, `flg.edges_pruned`); the
/// `BTreeMap` keeps iteration order — and therefore every rendered table
/// and every trace replay — deterministic.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Metrics {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
}

impl Metrics {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the counter `name` to the cumulative `value` (a replayed `C`
    /// event carries the total, not the increment).
    pub fn set_counter(&mut self, name: &str, value: u64) {
        match self.counters.get_mut(name) {
            Some(v) => *v = value,
            None => {
                self.counters.insert(name.to_string(), value);
            }
        }
    }

    /// Sets the gauge `name` to `value` (last write wins).
    pub fn set_gauge(&mut self, name: &str, value: f64) {
        match self.gauges.get_mut(name) {
            Some(v) => *v = value,
            None => {
                self.gauges.insert(name.to_string(), value);
            }
        }
    }

    /// Current value of counter `name` (zero if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of gauge `name`, if it was ever set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Iterates counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Iterates gauges in name order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// True when no counter or gauge has ever been touched.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty()
    }
}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (name, v) in self.counters() {
            writeln!(f, "  {name:<40} {v:>14}")?;
        }
        for (name, v) in self.gauges() {
            writeln!(f, "  {name:<40} {v:>14.4}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_hold_the_latest_total() {
        let mut m = Metrics::new();
        m.set_counter("a.b", 3);
        m.set_counter("a.b", 7);
        assert_eq!(m.counter("a.b"), 7);
        assert_eq!(m.counter("missing"), 0);
    }

    #[test]
    fn gauges_last_write_wins() {
        let mut m = Metrics::new();
        assert_eq!(m.gauge("u"), None);
        m.set_gauge("u", 0.5);
        m.set_gauge("u", 0.75);
        assert_eq!(m.gauge("u"), Some(0.75));
    }

    #[test]
    fn iteration_is_name_ordered() {
        let mut m = Metrics::new();
        m.set_counter("z", 1);
        m.set_counter("a", 1);
        m.set_counter("m", 1);
        let names: Vec<&str> = m.counters().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a", "m", "z"]);
    }
}
