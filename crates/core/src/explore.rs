//! Parameter-based exploration (paper §4.2, Fig. 4).
//!
//! Instead of ε-greedy (which decays once and can never react to a
//! changed environment) or a constant rate (too slow or too noisy),
//! QMA derives the random-action probability ρ from *local pressure*:
//! the difference between the node's own queue level and the average
//! queue level of its neighbours (piggybacked on data frames).
//!
//! * Queues empty → stable state → ρ = 0, act greedily.
//! * Own queue filling while neighbours drain → the node needs more
//!   subslots → explore, increasingly aggressively.
//! * Neighbours' queues higher than ours → *stop* exploring and let
//!   them claim slots (ρ = 0).
//!
//! ρ is looked up from a small table — "stored in a table and can be
//! used efficiently by resource-restricted devices without any
//! computational overhead".

use std::sync::Arc;

/// The ρ lookup table of Fig. 4.
///
/// The values sit behind an [`Arc`], so cloning a table (and with it
/// a `QmaConfig`) shares one allocation: every agent built from one
/// configuration reads the same cache-resident ρ table instead of a
/// private copy per node.
///
/// # Examples
///
/// ```
/// use qma_core::ExplorationTable;
///
/// let t = ExplorationTable::paper();
/// assert_eq!(t.rho(-3), 0.0); // neighbours more loaded → defer
/// assert_eq!(t.rho(0), 0.0);  // stable
/// assert_eq!(t.rho(6), 0.1);  // the maximum observed in Fig. 11
/// assert_eq!(t.rho(8), 0.3);  // full queue
/// assert_eq!(t.rho(99), 0.3); // clamped
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ExplorationTable {
    /// `rho[d]` is the exploration probability for a queue difference
    /// of `d` (index 0 → difference 0). Negative differences map to 0.
    table: Arc<[f64]>,
}

impl ExplorationTable {
    /// The paper's table (Fig. 4) for a maximum queue level of 8:
    /// ρ(0..=8) = 0, 0.0001, 0.001, 0.008, 0.02, 0.05, 0.1, 0.18, 0.3.
    pub fn paper() -> Self {
        ExplorationTable {
            table: Arc::new([0.0, 0.0001, 0.001, 0.008, 0.02, 0.05, 0.1, 0.18, 0.3]),
        }
    }

    /// A table from explicit values; `table[d]` is ρ for difference
    /// `d`.
    ///
    /// # Panics
    ///
    /// Panics if the table is empty or any entry is outside `[0, 1]`.
    pub fn from_values(table: Vec<f64>) -> Self {
        assert!(!table.is_empty(), "exploration table must not be empty");
        assert!(
            table.iter().all(|&p| (0.0..=1.0).contains(&p)),
            "exploration probabilities must lie in [0, 1]"
        );
        ExplorationTable {
            table: table.into(),
        }
    }

    /// A constant exploration rate (the baseline QMA compares
    /// against in §4.2; used by ablation benchmarks).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is outside `[0, 1]`.
    pub fn constant(rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate));
        ExplorationTable {
            table: Arc::new([rate]),
        }
    }

    /// Never explore (greedy policy only).
    pub fn disabled() -> Self {
        ExplorationTable {
            table: Arc::new([0.0]),
        }
    }

    /// The exploration probability for a queue-level difference
    /// `local − neighbour_average`, clamped to the table range.
    /// Negative differences yield 0 ("give neighbouring nodes a
    /// chance to allocate additional slots").
    #[inline]
    pub fn rho(&self, queue_diff: i32) -> f64 {
        if queue_diff < 0 {
            return if self.table.len() == 1 {
                // A constant-rate table ignores the queue signal.
                self.table[0]
            } else {
                0.0
            };
        }
        let idx = (queue_diff as usize).min(self.table.len() - 1);
        self.table[idx]
    }

    /// Largest ρ the table can produce.
    pub fn max_rho(&self) -> f64 {
        self.table.iter().copied().fold(0.0, f64::max)
    }
}

impl Default for ExplorationTable {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_table_values() {
        let t = ExplorationTable::paper();
        let expected = [0.0, 0.0001, 0.001, 0.008, 0.02, 0.05, 0.1, 0.18, 0.3];
        for (d, &rho) in expected.iter().enumerate() {
            assert_eq!(t.rho(d as i32), rho, "difference {d}");
        }
    }

    #[test]
    fn negative_difference_suppresses_exploration() {
        let t = ExplorationTable::paper();
        for d in [-1, -4, -8, -100] {
            assert_eq!(t.rho(d), 0.0);
        }
    }

    #[test]
    fn clamps_above_table() {
        let t = ExplorationTable::paper();
        assert_eq!(t.rho(9), 0.3);
        assert_eq!(t.rho(1000), 0.3);
        assert_eq!(t.max_rho(), 0.3);
    }

    #[test]
    fn monotone_nondecreasing() {
        let t = ExplorationTable::paper();
        let mut last = -1.0;
        for d in 0..=8 {
            let r = t.rho(d);
            assert!(r >= last, "not monotone at {d}");
            last = r;
        }
    }

    #[test]
    fn constant_table_ignores_queue_signal() {
        let t = ExplorationTable::constant(0.05);
        assert_eq!(t.rho(-5), 0.05);
        assert_eq!(t.rho(0), 0.05);
        assert_eq!(t.rho(8), 0.05);
    }

    #[test]
    fn disabled_never_explores() {
        let t = ExplorationTable::disabled();
        for d in -8..=8 {
            assert_eq!(t.rho(d), 0.0);
        }
    }

    #[test]
    fn clones_share_one_table() {
        let t = ExplorationTable::paper();
        let copy = t.clone();
        assert!(Arc::ptr_eq(&t.table, &copy.table));
        assert_eq!(t, copy);
    }

    #[test]
    #[should_panic(expected = "must lie in [0, 1]")]
    fn invalid_probability_rejected() {
        let _ = ExplorationTable::from_values(vec![0.0, 1.5]);
    }

    #[test]
    #[should_panic(expected = "must not be empty")]
    fn empty_table_rejected() {
        let _ = ExplorationTable::from_values(vec![]);
    }
}
