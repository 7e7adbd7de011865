//! The Q-table and policy table (paper §3.1, §4, Eq. 3 and Eq. 5).
//!
//! QMA's state space is just the subslot id, so the table is a dense
//! `M × |A|` array. The update implements the paper's Eq. 5:
//!
//! ```text
//! Q(mₜ,aₜ) ← max{ Q(mₜ,aₜ) − ξ,  (1−α)·Q(mₜ,aₜ) + α·(Rₜ + γ·maxₐ Q(mₜ₊ᵢ,a)) }
//! ```
//!
//! and the policy rule of Eq. 3 in its stated form: *"an agent only
//! selects a new action for Sₜ if the associated Q-value is strictly
//! greater than the Q-value of current policy π(Sₜ)"* — which both
//! prevents policy flapping between duplicate optima (§3.1) and lets
//! the penalty ξ eventually displace an action whose value decays
//! below an alternative (§3.1.1).

use std::cell::Cell;
use std::rc::Rc;

use crate::action::QmaAction;
use crate::value::QValue;

/// Learning hyper-parameters for a Q-table update.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpdateParams {
    /// Learning rate α (paper evaluation: 0.5).
    pub alpha: f32,
    /// Discount factor γ (paper evaluation: 0.9).
    pub gamma: f32,
    /// Stochastic-environment penalty ξ (Eq. 4/5; Fig. 5 uses 2).
    pub xi: f32,
}

impl Default for UpdateParams {
    fn default() -> Self {
        UpdateParams {
            alpha: 0.5,
            gamma: 0.9,
            xi: 1.0,
        }
    }
}

/// A dense per-subslot Q-table with its policy: a thin handle on one
/// table in a [`QArena`].
///
/// The arena keeps its Q-values and its policies in two parallel
/// subslot-major runs: one `[Q; 3]` and one [`QmaAction`] per subslot
/// and table, 13 B per subslot for `f32` (7 B for
/// [`crate::Fixed16`]) where one row holding both would pad to 16 B
/// (8 B). An update reads one entry of each run. A table is one
/// [`Rc`] to its arena's block plus its index there (16 B).
/// [`QTable::new`] builds a table in an arena of its own, so its
/// entries are contiguous; [`QArena::table`] hands out the tables of
/// one shared arena. Either way the table owns its entries: no other
/// table reads or writes them, and [`Clone`] copies them into a new
/// one-table arena.
///
/// # Examples
///
/// ```
/// use qma_core::{QTable, QmaAction};
/// use qma_core::qtable::UpdateParams;
///
/// let mut t: QTable<f32> = QTable::new(4, -10.0);
/// assert_eq!(t.policy(0), QmaAction::Backoff);
/// // A successful QSend in subslot 0 (α=1, γ=1 → target = 4 + (−10)).
/// let p = UpdateParams { alpha: 1.0, gamma: 1.0, xi: 2.0 };
/// t.update(0, QmaAction::Send, 4.0, 1, &p);
/// assert_eq!(t.q(0, QmaAction::Send), -6.0);
/// assert_eq!(t.policy(0), QmaAction::Send);
/// ```
pub struct QTable<Q: QValue> {
    block: Rc<Block<Q>>,
    /// This table's index in the arena.
    slot: u32,
}

/// The Q-values of one subslot: `Q(m, a)` for every action, indexed
/// by [`QmaAction::index`].
type QRow<Q> = [Cell<Q>; QmaAction::COUNT];

/// The storage of a [`QArena`], shared by its tables: entry `m` of
/// table `t` sits at `m × tables + t` of both runs. Each cell is a
/// [`Cell`] that its one owning table reads and writes on its own.
struct Block<Q: QValue> {
    q: Box<[QRow<Q>]>,
    /// π(m), at the index of its subslot's Q-values.
    policy: Box<[Cell<QmaAction>]>,
    /// Tables in the block: the distance between two consecutive
    /// entries of one table.
    tables: u32,
    subslots: u16,
}

impl<Q: QValue> Block<Q> {
    /// Algorithm 1's initial tables: every Q-value at `init`, every
    /// policy QBackoff.
    fn new(tables: u32, subslots: u16, init: Q) -> Self {
        let len = tables as usize * subslots as usize;
        let row: QRow<Q> = [Cell::new(init), Cell::new(init), Cell::new(init)];
        Block {
            q: vec![row; len].into_boxed_slice(),
            policy: vec![Cell::new(QmaAction::Backoff); len].into_boxed_slice(),
            tables,
            subslots,
        }
    }
}

/// `maxₐ Q(m, a)`, folded in table order.
fn row_max<Q: QValue>(q: &QRow<Q>) -> Q {
    let [backoff, cca, send] = q;
    backoff.get().take_max(cca.get()).take_max(send.get())
}

/// Eq. 3: switch to the argmax action only if its Q-value is strictly
/// greater than the current policy's Q-value.
fn refresh_policy<Q: QValue>(q: &QRow<Q>, policy: &Cell<QmaAction>) {
    let mut best = policy.get();
    let mut best_q = q[best.index()].get();
    for a in QmaAction::ALL {
        let v = q[a.index()].get();
        if v > best_q {
            best = a;
            best_q = v;
        }
    }
    policy.set(best);
}

/// The Q-tables of many agents in one subslot-major block: entry `m`
/// of table `t` sits at `m × tables + t`, so subslot `m` of every
/// table is one contiguous run of Q-values and one of policies — the
/// access shape of a boundary sweep, which visits the due nodes of one
/// subslot in ascending id. One arena holds a world's tables;
/// [`QArena::table`] hands each one out once.
///
/// # Examples
///
/// ```
/// use qma_core::qtable::{QArena, UpdateParams};
/// use qma_core::QmaAction;
///
/// let arena: QArena = QArena::new(3, 4, -10.0);
/// let mut a = arena.table(0);
/// let b = arena.table(2);
/// let p = UpdateParams { alpha: 1.0, gamma: 1.0, xi: 2.0 };
/// a.update(0, QmaAction::Send, 4.0, 1, &p);
/// assert_eq!(a.policy(0), QmaAction::Send);
/// assert_eq!(b.policy(0), QmaAction::Backoff);
/// ```
pub struct QArena<Q: QValue = f32> {
    block: Rc<Block<Q>>,
    /// Which tables [`QArena::table`] has handed out.
    taken: Box<[Cell<bool>]>,
}

impl<Q: QValue> QArena<Q> {
    /// Creates `tables` tables of `subslots` subslots, every Q-value
    /// at `init` and every policy at QBackoff (Algorithm 1).
    ///
    /// # Panics
    ///
    /// Panics if `tables` or `subslots` is zero, or if `tables` does
    /// not fit in a `u32`.
    pub fn new(tables: usize, subslots: u16, init: f32) -> Self {
        assert!(tables > 0, "need at least one table");
        assert!(subslots > 0, "need at least one subslot");
        let count = u32::try_from(tables).expect("table count fits in u32");
        QArena {
            block: Rc::new(Block::new(count, subslots, Q::from_f32(init))),
            taken: (0..tables).map(|_| Cell::new(false)).collect(),
        }
    }

    /// Hands out table `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range or was handed out before: two
    /// views of one table would update each other's entries.
    pub fn table(&self, index: usize) -> QTable<Q> {
        let taken = self
            .taken
            .get(index)
            .unwrap_or_else(|| panic!("table {index} out of range"));
        assert!(!taken.replace(true), "table {index} was handed out before");
        QTable {
            block: Rc::clone(&self.block),
            slot: index as u32,
        }
    }
}

impl<Q: QValue> QTable<Q> {
    /// Creates a table with every Q-value at `init` (the paper uses
    /// −10: "a number smaller than the largest punishment") and the
    /// policy initialised to QBackoff for every subslot (Algorithm 1).
    ///
    /// # Panics
    ///
    /// Panics if `subslots` is zero.
    pub fn new(subslots: u16, init: f32) -> Self {
        assert!(subslots > 0, "need at least one subslot");
        QTable {
            block: Rc::new(Block::new(1, subslots, Q::from_f32(init))),
            slot: 0,
        }
    }

    /// Number of subslots (states).
    pub fn subslots(&self) -> u16 {
        self.block.subslots
    }

    /// The Q-value of `(subslot, action)`.
    ///
    /// # Panics
    ///
    /// Panics if `subslot` is out of range.
    pub fn q(&self, subslot: u16, action: QmaAction) -> Q {
        self.q_row(subslot)[action.index()].get()
    }

    /// The greedy policy action for a subslot.
    ///
    /// # Panics
    ///
    /// Panics if `subslot` is out of range.
    pub fn policy(&self, subslot: u16) -> QmaAction {
        self.row(subslot).1.get()
    }

    /// `maxₐ Q(subslot, a)` — the bootstrap value of a state.
    pub fn qmax(&self, subslot: u16) -> Q {
        row_max(self.q_row(subslot))
    }

    /// Applies the paper's Eq. 5 update for the action taken in
    /// `subslot`, bootstrapping from `next_subslot` (the state `i`
    /// subslots later, where the outcome became known), then refreshes
    /// the policy per Eq. 3.
    ///
    /// Returns the new Q-value of the updated cell.
    pub fn update(
        &mut self,
        subslot: u16,
        action: QmaAction,
        reward: f32,
        next_subslot: u16,
        params: &UpdateParams,
    ) -> Q {
        // The MAC always passes an in-range subslot; the wrap (and its
        // division) is only for callers that pass `m + 1` at the end.
        let subslots = self.subslots();
        let next = if next_subslot < subslots {
            next_subslot
        } else {
            next_subslot % subslots
        };
        let qmax_next = self.qmax(next);
        let (q, policy) = self.row(subslot);
        let cell = &q[action.index()];
        let q_old = cell.get();
        let target = q_old.bellman_target(reward, qmax_next, params.alpha, params.gamma);
        let new_q = q_old.penalized(params.xi).take_max(target);
        cell.set(new_q);
        refresh_policy(q, policy);
        new_q
    }

    /// Writes a raw Q-value (used by cautious startup's punishments
    /// and by tests), refreshing the policy.
    pub fn set_q(&mut self, subslot: u16, action: QmaAction, value: Q) {
        let (q, policy) = self.row(subslot);
        q[action.index()].set(value);
        refresh_policy(q, policy);
    }

    /// Puts every subslot back to its initial state: Q-values at
    /// `init`, policy QBackoff — what [`QTable::new`] builds, in place.
    pub fn reset(&mut self, init: f32) {
        let init = Q::from_f32(init);
        for m in 0..self.subslots() {
            let (q, policy) = self.row(m);
            for cell in q {
                cell.set(init);
            }
            policy.set(QmaAction::Backoff);
        }
    }

    /// Σₘ Q(m, π(m)) — the "cumulative Q-value per frame" metric of
    /// Fig. 10/12: the sum of Q-values of all subslots following the
    /// current policy.
    pub fn policy_value_sum(&self) -> f64 {
        self.policy_iter().map(|(_, _, q)| q as f64).sum()
    }

    /// Iterates over `(subslot, policy action, Q-value)` triples.
    pub fn policy_iter(&self) -> impl Iterator<Item = (u16, QmaAction, f32)> + '_ {
        (0..self.subslots()).map(|m| {
            let (q, policy) = self.row(m);
            let policy = policy.get();
            (m, policy, q[policy.index()].get().to_f32())
        })
    }

    /// Index of this table's entry for `subslot` in both runs of the
    /// block. A subslot past the last lands past the end of the runs,
    /// so their bounds checks cover it.
    #[inline]
    fn index(&self, subslot: u16) -> usize {
        subslot as usize * self.block.tables as usize + self.slot as usize
    }

    /// The Q-values of `subslot`.
    #[inline]
    fn q_row(&self, subslot: u16) -> &QRow<Q> {
        self.block
            .q
            .get(self.index(subslot))
            .unwrap_or_else(|| out_of_range(subslot))
    }

    /// The Q-values and the policy cell of `subslot`.
    #[inline]
    fn row(&self, subslot: u16) -> (&QRow<Q>, &Cell<QmaAction>) {
        let i = self.index(subslot);
        match (self.block.q.get(i), self.block.policy.get(i)) {
            (Some(q), Some(policy)) => (q, policy),
            _ => out_of_range(subslot),
        }
    }

    /// The values of `subslot`: its Q-values and its policy action.
    fn values(&self, subslot: u16) -> ([Q; QmaAction::COUNT], QmaAction) {
        let (q, policy) = self.row(subslot);
        (q.each_ref().map(Cell::get), policy.get())
    }
}

#[cold]
#[inline(never)]
fn out_of_range(subslot: u16) -> ! {
    panic!("subslot {subslot} out of range")
}

impl<Q: QValue> Clone for QTable<Q> {
    /// Copies the entries into a new one-table arena: a clone never
    /// shares them with the original.
    fn clone(&self) -> Self {
        let subslots = self.subslots();
        let (q, policy): (Vec<_>, Vec<_>) = (0..subslots)
            .map(|m| {
                let (q, policy) = self.row(m);
                (q.clone(), policy.clone())
            })
            .unzip();
        QTable {
            block: Rc::new(Block {
                q: q.into_boxed_slice(),
                policy: policy.into_boxed_slice(),
                tables: 1,
                subslots,
            }),
            slot: 0,
        }
    }
}

impl<Q: QValue> PartialEq for QTable<Q> {
    fn eq(&self, other: &Self) -> bool {
        self.subslots() == other.subslots()
            && (0..self.subslots()).all(|m| self.values(m) == other.values(m))
    }
}

impl<Q: QValue> std::fmt::Debug for QTable<Q> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QTable")
            .field(
                "rows",
                &(0..self.subslots())
                    .map(|m| self.values(m))
                    .collect::<Vec<_>>(),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fig5_params() -> UpdateParams {
        // The worked example of Fig. 5 uses α=1, γ=1, ξ=2.
        UpdateParams {
            alpha: 1.0,
            gamma: 1.0,
            xi: 2.0,
        }
    }

    #[test]
    fn init_state_matches_algorithm1() {
        let t: QTable<f32> = QTable::new(4, -10.0);
        for m in 0..4 {
            assert_eq!(t.policy(m), QmaAction::Backoff);
            for a in QmaAction::ALL {
                assert_eq!(t.q(m, a), -10.0);
            }
        }
        assert_eq!(t.policy_value_sum(), -40.0);
    }

    #[test]
    fn successful_send_updates_cell_and_policy() {
        // Fig. 5, n1, frame 1, subslot 1: QSend succeeds (R=4),
        // next-state max is −10 → Q = 4 − 10 = −6.
        let mut t: QTable<f32> = QTable::new(4, -10.0);
        let q = t.update(0, QmaAction::Send, 4.0, 1, &fig5_params());
        assert_eq!(q, -6.0);
        assert_eq!(t.policy(0), QmaAction::Send);
    }

    #[test]
    fn collision_applies_penalty_not_target() {
        // Fig. 5, subslot 3 of frame 1: QSend collides (R=−3): the
        // target −13 is *smaller* than Q−ξ = −12, so the cell becomes
        // −12 and the policy stays QBackoff.
        let mut t: QTable<f32> = QTable::new(4, -10.0);
        let q = t.update(2, QmaAction::Send, -3.0, 3, &fig5_params());
        assert_eq!(q, -12.0);
        assert_eq!(t.policy(2), QmaAction::Backoff);
    }

    #[test]
    fn backoff_chains_through_next_state() {
        // Fig. 5, n1, frame 1, subslot 4: QBackoff with an overheard
        // packet (R=2) bootstraps from subslot 1 (wrap-around), whose
        // max is −6 after the earlier QSend update → Q = 2 − 6 = −4.
        let mut t: QTable<f32> = QTable::new(4, -10.0);
        t.update(0, QmaAction::Send, 4.0, 1, &fig5_params());
        let q = t.update(
            3,
            QmaAction::Backoff,
            2.0,
            4, /* wraps to 0 */
            &fig5_params(),
        );
        assert_eq!(q, -4.0);
    }

    #[test]
    fn policy_does_not_switch_on_tie() {
        let mut t: QTable<f32> = QTable::new(1, -10.0);
        // Bring Backoff up to −5.
        t.set_q(0, QmaAction::Backoff, -5.0);
        assert_eq!(t.policy(0), QmaAction::Backoff);
        // Send reaches exactly −5 too: no strict improvement → keep B.
        t.set_q(0, QmaAction::Send, -5.0);
        assert_eq!(t.policy(0), QmaAction::Backoff);
        // Send exceeds −5 → switch.
        t.set_q(0, QmaAction::Send, -4.5);
        assert_eq!(t.policy(0), QmaAction::Send);
    }

    #[test]
    fn penalty_displaces_decaying_policy_action() {
        // §3.1.1: a fluctuating (collision-prone) action must decay
        // below a stable alternative and lose the policy.
        let params = UpdateParams {
            alpha: 1.0,
            gamma: 0.0,
            xi: 2.0,
        };
        let mut t: QTable<f32> = QTable::new(1, -10.0);
        t.update(0, QmaAction::Send, 4.0, 0, &params); // Send → 4, policy Send
        t.update(0, QmaAction::Backoff, 2.0, 0, &params); // Backoff → 2
        assert_eq!(t.policy(0), QmaAction::Send);
        // Repeated collisions: Send decays by ξ each time (target −3
        // is below Q−ξ until Q−ξ < −3).
        t.update(0, QmaAction::Send, -3.0, 0, &params); // 4→2 (tie with B, keep S)
        assert_eq!(t.policy(0), QmaAction::Send);
        t.update(0, QmaAction::Send, -3.0, 0, &params); // 2→0 < 2 → switch to B
        assert_eq!(t.policy(0), QmaAction::Backoff);
    }

    #[test]
    fn stable_optimum_is_restored_after_penalty() {
        // §3.1.1: "stable and optimal Q-values are reupdated to their
        // original value once they have been decremented".
        let params = UpdateParams {
            alpha: 1.0,
            gamma: 0.0,
            xi: 2.0,
        };
        let mut t: QTable<f32> = QTable::new(1, -10.0);
        t.update(0, QmaAction::Send, 4.0, 0, &params);
        t.update(0, QmaAction::Send, -3.0, 0, &params); // one collision: 4→2
        assert_eq!(t.q(0, QmaAction::Send), 2.0);
        t.update(0, QmaAction::Send, 4.0, 0, &params); // success: back to 4
        assert_eq!(t.q(0, QmaAction::Send), 4.0);
    }

    #[test]
    fn qmax_over_actions() {
        let mut t: QTable<f32> = QTable::new(2, -10.0);
        t.set_q(1, QmaAction::Cca, -3.0);
        t.set_q(1, QmaAction::Send, -7.0);
        assert_eq!(t.qmax(1), -3.0);
        assert_eq!(t.qmax(0), -10.0);
    }

    #[test]
    fn next_subslot_wraps() {
        let params = fig5_params();
        let mut t: QTable<f32> = QTable::new(4, -10.0);
        t.set_q(0, QmaAction::Cca, -1.0);
        // Updating subslot 3 with next=4 must bootstrap from subslot 0.
        let q = t.update(3, QmaAction::Backoff, 0.0, 4, &params);
        assert_eq!(q, -1.0); // 0 + 1·(−1)
    }

    #[test]
    fn policy_value_sum_follows_policy() {
        let mut t: QTable<f32> = QTable::new(2, -10.0);
        t.set_q(0, QmaAction::Send, 3.0);
        t.set_q(1, QmaAction::Cca, 1.0);
        assert_eq!(t.policy_value_sum(), 4.0);
        let items: Vec<_> = t.policy_iter().collect();
        assert_eq!(items[0], (0, QmaAction::Send, 3.0));
        assert_eq!(items[1], (1, QmaAction::Cca, 1.0));
    }

    #[test]
    fn works_with_fixed_point_backend() {
        use crate::value::Fixed16;
        let mut t: QTable<Fixed16> = QTable::new(4, -10.0);
        let p = fig5_params();
        let q = t.update(0, QmaAction::Send, 4.0, 1, &p);
        assert_eq!(q.to_f32(), -6.0);
        assert_eq!(t.policy(0), QmaAction::Send);
        let q = t.update(2, QmaAction::Send, -3.0, 3, &p);
        assert_eq!(q.to_f32(), -12.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_subslot_panics() {
        let t: QTable<f32> = QTable::new(2, -10.0);
        let _ = t.q(2, QmaAction::Backoff);
    }
}
