//! Property-based tests (proptest) over the core data structures and
//! invariants, spanning the workspace crates through the façade.

use proptest::prelude::*;

use qma::core::qtable::{QArena, QTable, UpdateParams};
use qma::core::{ActionOutcome, Fixed16, QValue, QmaAction, QmaAgent, QmaConfig};
use qma::des::{Scheduler, SimTime};
use qma::dsme::{GtsSlot, MsfConfig, SlotBitmap};
use qma::markov::Matrix;
use qma::netsim::{Address, Frame, HeadInfo, NodeId, TxQueues};
use qma::phy::{Connectivity, Medium, PhyNodeId};

fn arb_action() -> impl Strategy<Value = QmaAction> {
    prop_oneof![
        Just(QmaAction::Backoff),
        Just(QmaAction::Cca),
        Just(QmaAction::Send),
    ]
}

fn arb_outcome() -> impl Strategy<Value = ActionOutcome> {
    prop_oneof![
        any::<bool>().prop_map(|overheard| ActionOutcome::Backoff { overheard }),
        Just(ActionOutcome::CcaBusy),
        any::<bool>().prop_map(|acked| ActionOutcome::CcaTx { acked }),
        any::<bool>().prop_map(|acked| ActionOutcome::SendTx { acked }),
    ]
}

/// One update step: `(subslot, action, reward, next subslot)`.
type Step = (u16, QmaAction, f32, u16);

/// Runs `steps` on two identical `subslots`-row tables, one given each
/// next subslot as is, the other given it `% subslots`. Both must
/// return and store the same values at every step.
fn wrap_matches_modulo<Q: QValue>(subslots: u16, steps: &[Step]) {
    let p = UpdateParams {
        alpha: 0.5,
        gamma: 0.9,
        xi: 2.0,
    };
    let mut as_is: QTable<Q> = QTable::new(subslots, -10.0);
    let mut wrapped: QTable<Q> = QTable::new(subslots, -10.0);
    for &(m, a, r, next) in steps {
        let m = m % subslots;
        let got = as_is.update(m, a, r, next, &p);
        let want = wrapped.update(m, a, r, next % subslots, &p);
        prop_assert_eq!(got.to_f32().to_bits(), want.to_f32().to_bits());
        prop_assert_eq!(&as_is, &wrapped, "next subslot {} of {}", next, subslots);
    }
}

/// One call on an arena table: `((kind, table), subslot, action,
/// value, next subslot)`. Kinds 0–5 are an `update` with the value as reward,
/// 6–8 a `set_q` of the value, 9 a `reset` to the value.
type ArenaOp = ((u8, usize), u16, QmaAction, f32, u16);

/// A plain-row model of one Q-table: each subslot's Q-values next to
/// its policy in one tuple. It applies Eq. 5 through the same
/// [`QValue`] operations as `QTable` and Eq. 3 as its rule reads: the
/// first action holding the row's maximum replaces the policy only if
/// that maximum is strictly greater than the policy's Q-value.
struct RowModel<Q> {
    rows: Vec<([Q; 3], QmaAction)>,
}

impl<Q: QValue> RowModel<Q> {
    fn new(subslots: u16, init: f32) -> Self {
        RowModel {
            rows: vec![([Q::from_f32(init); 3], QmaAction::Backoff); subslots as usize],
        }
    }

    fn qmax(&self, m: u16) -> Q {
        let [b, c, s] = self.rows[m as usize].0;
        b.take_max(c).take_max(s)
    }

    fn refresh(&mut self, m: u16) {
        let max = self.qmax(m);
        let (q, policy) = &mut self.rows[m as usize];
        if max > q[policy.index()] {
            *policy = QmaAction::ALL
                .into_iter()
                .find(|a| q[a.index()] == max)
                .expect("the maximum is one of the row's values");
        }
    }

    fn update(&mut self, m: u16, a: QmaAction, reward: f32, next: u16, p: &UpdateParams) -> Q {
        let qmax_next = self.qmax(next % self.rows.len() as u16);
        let q_old = self.rows[m as usize].0[a.index()];
        let target = q_old.bellman_target(reward, qmax_next, p.alpha, p.gamma);
        let new_q = q_old.penalized(p.xi).take_max(target);
        self.rows[m as usize].0[a.index()] = new_q;
        self.refresh(m);
        new_q
    }

    fn set_q(&mut self, m: u16, a: QmaAction, value: Q) {
        self.rows[m as usize].0[a.index()] = value;
        self.refresh(m);
    }

    fn reset(&mut self, init: f32) {
        self.rows.fill(([Q::from_f32(init); 3], QmaAction::Backoff));
    }

    fn policy_value_sum(&self) -> f64 {
        self.rows
            .iter()
            .map(|(q, policy)| q[policy.index()].to_f32() as f64)
            .sum()
    }
}

/// The bits of a Q-value, so that a mismatch shows the raw values.
fn bits<Q: QValue>(q: Q) -> u32 {
    q.to_f32().to_bits()
}

/// Drives the tables of one arena through `ops` beside one
/// [`RowModel`] per table, and after every call compares every table's
/// `q`, `policy`, `qmax` and `policy_value_sum` with its model.
fn arena_matches_row_model<Q: QValue>(tables: usize, subslots: u16, ops: &[ArenaOp]) {
    let p = UpdateParams {
        alpha: 0.5,
        gamma: 0.9,
        xi: 2.0,
    };
    let arena: QArena<Q> = QArena::new(tables, subslots, -10.0);
    let mut real: Vec<QTable<Q>> = (0..tables).map(|t| arena.table(t)).collect();
    let mut model: Vec<RowModel<Q>> = (0..tables)
        .map(|_| RowModel::new(subslots, -10.0))
        .collect();
    for &((kind, t), m, a, v, next) in ops {
        let (t, m) = (t % tables, m % subslots);
        match kind {
            0..=5 => {
                let got = real[t].update(m, a, v, next, &p);
                let want = model[t].update(m, a, v, next, &p);
                prop_assert_eq!(bits(got), bits(want));
            }
            6..=8 => {
                real[t].set_q(m, a, Q::from_f32(v));
                model[t].set_q(m, a, Q::from_f32(v));
            }
            _ => {
                real[t].reset(v);
                model[t].reset(v);
            }
        }
        for (u, (x, y)) in real.iter().zip(&model).enumerate() {
            for s in 0..subslots {
                for b in QmaAction::ALL {
                    prop_assert_eq!(
                        bits(x.q(s, b)),
                        bits(y.rows[s as usize].0[b.index()]),
                        "table {} subslot {} action {:?} after a call on table {}",
                        u,
                        s,
                        b,
                        t
                    );
                }
                prop_assert_eq!(
                    x.policy(s),
                    y.rows[s as usize].1,
                    "table {} subslot {}",
                    u,
                    s
                );
                prop_assert_eq!(bits(x.qmax(s)), bits(y.qmax(s)));
            }
            prop_assert_eq!(
                x.policy_value_sum().to_bits(),
                y.policy_value_sum().to_bits()
            );
        }
    }
}

fn arb_arena_ops() -> impl Strategy<Value = Vec<ArenaOp>> {
    prop::collection::vec(
        (
            (0u8..10, 0usize..5),
            any::<u16>(),
            arb_action(),
            -12.0f32..=4.0,
            any::<u16>(),
        ),
        0..150,
    )
}

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    // Next subslots over all of u16, with the in-range values and both
    // ends of the range drawn often.
    let next = prop_oneof![0u16..=64, any::<u16>(), Just(u16::MAX), Just(0u16)];
    prop::collection::vec((any::<u16>(), arb_action(), -3.0f32..=4.0, next), 1..120)
}

proptest! {
    /// `QTable::update` skips the `%` when the next subslot is in
    /// range; for every `u16` it must still bootstrap from
    /// `next % subslots`, on both value backends.
    #[test]
    fn update_wraps_next_subslot_like_modulo(
        subslots in 1u16..=64,
        f32_steps in arb_steps(),
        fixed_steps in arb_steps()
    ) {
        wrap_matches_modulo::<f32>(subslots, &f32_steps);
        wrap_matches_modulo::<Fixed16>(subslots, &fixed_steps);
    }

    /// Q-values stay bounded under arbitrary update sequences: above
    /// `init − ξ·steps` trivially, and below the theoretical maximum
    /// `R_max / (1 − γ)`.
    #[test]
    fn qtable_values_stay_bounded(
        updates in prop::collection::vec(
            (0u16..8, arb_action(), -3.0f32..=4.0, 0u16..8),
            1..200
        )
    ) {
        let p = UpdateParams { alpha: 0.5, gamma: 0.9, xi: 1.0 };
        let mut t: QTable<f32> = QTable::new(8, -10.0);
        for (m, a, r, next) in updates {
            t.update(m, a, r, next, &p);
        }
        let upper = 4.0 / (1.0 - 0.9) + 1e-3;
        for m in 0..8u16 {
            for a in QmaAction::ALL {
                let q = t.q(m, a);
                prop_assert!(q <= upper, "Q({m},{a}) = {q} exceeds {upper}");
                prop_assert!(q.is_finite());
            }
        }
    }

    /// The policy always points at a maximal action (ties may keep an
    /// older argmax, but never a strictly dominated one).
    #[test]
    fn policy_never_strictly_dominated(
        updates in prop::collection::vec(
            (0u16..4, arb_action(), -3.0f32..=4.0, 0u16..4),
            1..100
        )
    ) {
        let p = UpdateParams::default();
        let mut t: QTable<f32> = QTable::new(4, -10.0);
        for (m, a, r, next) in updates {
            t.update(m, a, r, next, &p);
        }
        for m in 0..4u16 {
            let chosen = t.q(m, t.policy(m));
            for a in QmaAction::ALL {
                prop_assert!(
                    t.q(m, a) <= chosen,
                    "policy {:?} dominated by {a} at subslot {m}",
                    t.policy(m)
                );
            }
        }
    }

    /// Fixed-point and float Q-tables agree within quantisation error
    /// over arbitrary (identical) update sequences.
    #[test]
    fn fixed_point_tracks_float(
        updates in prop::collection::vec(
            (0u16..4, arb_action(), -3i8..=4, 0u16..4),
            1..100
        )
    ) {
        let p = UpdateParams { alpha: 0.5, gamma: 0.9, xi: 1.0 };
        let mut tf: QTable<f32> = QTable::new(4, -10.0);
        let mut tx: QTable<Fixed16> = QTable::new(4, -10.0);
        for (m, a, r, next) in updates {
            tf.update(m, a, r as f32, next, &p);
            tx.update(m, a, r as f32, next, &p);
        }
        for m in 0..4u16 {
            for a in QmaAction::ALL {
                let d = (tf.q(m, a) - tx.q(m, a).to_f32()).abs();
                prop_assert!(d < 0.6, "divergence {d} at ({m},{a})");
            }
        }
    }

    /// Policy identity across value backends: over many random update
    /// sequences, wherever the f32 and `Fixed16` tables disagree on
    /// the policy action, the f32 Q-values of the two candidates must
    /// be within the accumulated quantization tolerance — i.e. the
    /// fixed-point backend never picks a *meaningfully* worse action.
    /// (Complements `fixed_point_tracks_float`, which bounds the raw
    /// value divergence.)
    #[test]
    fn fixed16_selects_same_policy_as_f32(
        updates in prop::collection::vec(
            (0u16..8, arb_action(), -3i8..=4, 0u16..8),
            200
        )
    ) {
        // Same α/γ/ξ as the paper's evaluation defaults.
        let p = UpdateParams { alpha: 0.5, gamma: 0.9, xi: 1.0 };
        let quantization_tol = 0.6; // matches fixed_point_tracks_float
        let mut tf: QTable<f32> = QTable::new(8, -10.0);
        let mut tx: QTable<Fixed16> = QTable::new(8, -10.0);
        for (m, a, r, next) in updates {
            tf.update(m, a, r as f32, next, &p);
            tx.update(m, a, r as f32, next, &p);
            for s in 0..8u16 {
                let pf = tf.policy(s);
                let px = tx.policy(s);
                if pf != px {
                    let gap = (tf.q(s, pf) - tf.q(s, px)).abs();
                    prop_assert!(
                        gap < quantization_tol,
                        "subslot {s}: f32 picks {pf} ({}), Fixed16 picks {px} ({}), gap {gap}",
                        tf.q(s, pf),
                        tf.q(s, px)
                    );
                }
            }
        }
    }

    /// The agent never keeps a pending decision after `complete`, and
    /// `decide`/`complete` alternate freely for any outcome sequence.
    #[test]
    fn agent_lifecycle_is_clean(
        seed in 0u64..1000,
        outcomes in prop::collection::vec(arb_outcome(), 1..80)
    ) {
        use rand::SeedableRng;
        let cfg = QmaConfig { startup_subslots: 0, subslots: 8, ..QmaConfig::default() };
        let mut agent: QmaAgent = QmaAgent::new(cfg);
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for (i, wanted) in outcomes.into_iter().enumerate() {
            let m = (i % 8) as u16;
            let d = agent.decide(m, 4, &mut rng);
            // Coerce the sampled outcome to match the chosen action.
            let outcome = match d.action {
                QmaAction::Backoff => ActionOutcome::Backoff {
                    overheard: matches!(wanted, ActionOutcome::Backoff { overheard: true }),
                },
                QmaAction::Cca => match wanted {
                    ActionOutcome::CcaBusy => ActionOutcome::CcaBusy,
                    _ => ActionOutcome::CcaTx { acked: i % 2 == 0 },
                },
                QmaAction::Send => ActionOutcome::SendTx { acked: i % 2 == 0 },
            };
            agent.complete(outcome, (m + 1) % 8);
            prop_assert!(!agent.has_pending());
        }
    }

    /// Medium conservation: any interleaving of start/end keeps
    /// energy non-negative and ends all-idle once every transmission
    /// has ended.
    #[test]
    fn medium_conserves_energy(
        ops in prop::collection::vec((0u32..6, any::<bool>()), 1..60)
    ) {
        let mut medium = Medium::new(Connectivity::full(6));
        let mut active: Vec<(u32, qma::phy::TxToken)> = Vec::new();
        for (node, start) in ops {
            if start {
                if !active.iter().any(|(n, _)| *n == node) {
                    let t = medium.start_tx(PhyNodeId(node));
                    active.push((node, t));
                }
            } else if let Some(pos) = active.iter().position(|(n, _)| *n == node) {
                let (_, token) = active.swap_remove(pos);
                medium.end_tx(token);
            }
        }
        for (_, token) in active.drain(..) {
            medium.end_tx(token);
        }
        for n in 0..6 {
            prop_assert!(!medium.is_busy(PhyNodeId(n)), "node {n} stuck busy");
        }
        prop_assert_eq!(medium.active_count(), 0);
    }

    /// The transmit queue never exceeds capacity and accounts every
    /// rejected frame.
    #[test]
    fn queue_capacity_invariant(
        cap in 1usize..16,
        pushes in prop::collection::vec(any::<bool>(), 1..100)
    ) {
        let mut q = TxQueues::new(1, cap);
        let mut accepted = 0u64;
        let mut rejected = 0u64;
        for (i, push) in pushes.iter().enumerate() {
            if *push {
                let f = Frame::data(NodeId(0), NodeId(1).into(), i as u32, 10, false);
                if q.push(0, f, SimTime::from_micros(i as u64)) {
                    accepted += 1;
                } else {
                    rejected += 1;
                }
            } else {
                q.pop(0);
            }
            prop_assert!(q[0].len() <= cap);
        }
        prop_assert_eq!(q[0].drops(), rejected);
        prop_assert_eq!(q[0].enqueued_total(), accepted);
    }

    /// The queue's inline head copy equals the head frame's fields
    /// after any sequence of pushes (varied destinations, lengths and
    /// ACK flags, into a full queue too), pops and retry bumps.
    #[test]
    fn queue_head_info_tracks_the_head_frame(
        ops in prop::collection::vec((0u8..4, 0u32..6, 1u16..120, any::<bool>()), 0..80)
    ) {
        let mut q = TxQueues::new(1, 4);
        for (seq, (op, dst, payload, ack)) in ops.into_iter().enumerate() {
            match op {
                0 | 1 => {
                    let dst = if dst == 5 { Address::Broadcast } else { NodeId(dst).into() };
                    q.push(0, Frame::data(NodeId(0), dst, seq as u32, payload, ack), SimTime::ZERO);
                }
                2 => {
                    q.pop(0);
                }
                _ => {
                    q.bump_head_retries(0);
                }
            }
            let expect = q.head(0).map(|h| HeadInfo {
                dst: h.frame.dst,
                psdu_octets: h.frame.psdu_octets,
                ack_request: h.frame.ack_request,
            });
            prop_assert_eq!(q[0].head_info(), expect);
        }
    }

    /// Tables of one arena behave exactly like standalone tables under
    /// any sequence of updates and raw writes, and no table's writes
    /// reach another table's rows.
    #[test]
    fn arena_tables_match_standalone_tables(
        tables in 1usize..6,
        ops in prop::collection::vec(
            ((0usize..6, any::<bool>()), 0u16..5, arb_action(), -3.0f32..=4.0, 0u16..10),
            0..150
        )
    ) {
        let p = UpdateParams { alpha: 0.5, gamma: 0.9, xi: 2.0 };
        let arena: QArena<f32> = QArena::new(tables, 5, -10.0);
        let mut in_arena: Vec<QTable<f32>> = (0..tables).map(|t| arena.table(t)).collect();
        let mut alone: Vec<QTable<f32>> = (0..tables).map(|_| QTable::new(5, -10.0)).collect();
        for ((t, raw), m, a, r, next) in ops {
            let t = t % tables;
            if raw {
                in_arena[t].set_q(m, a, r);
                alone[t].set_q(m, a, r);
            } else {
                let got = in_arena[t].update(m, a, r, next, &p);
                let want = alone[t].update(m, a, r, next, &p);
                prop_assert_eq!(got.to_bits(), want.to_bits());
            }
            for (u, (x, y)) in in_arena.iter().zip(&alone).enumerate() {
                prop_assert_eq!(x, y, "table {} diverged after a write to table {}", u, t);
            }
        }
        // A clone copies the rows: writing to it leaves the arena as
        // it was.
        let mut copy = in_arena[0].clone();
        copy.set_q(0, QmaAction::Send, 100.0);
        prop_assert_eq!(&in_arena[0], &alone[0]);
    }

    /// Arena tables, `f32` and `Fixed16`, against a plain-row model
    /// under random `update`, `set_q` and `reset` calls on 1–5 tables
    /// of 1–8 subslots (next subslots over all of `u16`).
    #[test]
    fn arena_tables_match_a_plain_row_model(
        tables in 1usize..=5,
        subslots in 1u16..=8,
        f32_ops in arb_arena_ops(),
        fixed_ops in arb_arena_ops()
    ) {
        arena_matches_row_model::<f32>(tables, subslots, &f32_ops);
        arena_matches_row_model::<Fixed16>(tables, subslots, &fixed_ops);
    }

    /// Scheduler delivers every event exactly once, in non-decreasing
    /// time order, and events with equal timestamps in insertion order
    /// (times come from a small range, so ties are common).
    #[test]
    fn scheduler_orders_and_counts(
        times in prop::collection::vec(0u64..16, 1..100)
    ) {
        let mut s: Scheduler<usize> = Scheduler::new();
        for (i, &t) in times.iter().enumerate() {
            s.schedule_at(SimTime::from_micros(t), i);
        }
        let mut seen = vec![false; times.len()];
        let mut last: Option<(SimTime, usize)> = None;
        while let Some(e) = s.pop() {
            prop_assert_eq!(e.time, SimTime::from_micros(times[e.event]));
            if let Some((t, i)) = last {
                prop_assert!(e.time >= t);
                prop_assert!(e.time > t || e.event > i, "event {} overtook {} at {}", e.event, i, t);
            }
            last = Some((e.time, e.event));
            prop_assert!(!seen[e.event], "event {} delivered twice", e.event);
            seen[e.event] = true;
        }
        prop_assert!(seen.iter().all(|&b| b));
    }

    /// SAB word round-trips for arbitrary busy sets.
    #[test]
    fn sab_word_roundtrip(bits in prop::collection::vec(any::<bool>(), 56)) {
        let cfg = MsfConfig::default();
        let mut s = SlotBitmap::new(&cfg);
        for (i, &b) in bits.iter().enumerate() {
            if b {
                s.mark(GtsSlot {
                    index: (i / cfg.channels as usize) as u16,
                    channel: (i % cfg.channels as usize) as u8,
                });
            }
        }
        let back = SlotBitmap::from_word(&cfg, s.to_word());
        prop_assert_eq!(&back, &s);
        prop_assert_eq!(back.busy_count(), bits.iter().filter(|&&b| b).count());
    }

    /// Matrix inversion: A · A⁻¹ ≈ I for random diagonally dominant
    /// (hence well-conditioned) matrices.
    #[test]
    fn matrix_inverse_roundtrip(
        entries in prop::collection::vec(-1.0f64..=1.0, 16)
    ) {
        let n = 4;
        let mut a = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..n {
                a[(i, j)] = entries[i * n + j];
            }
            a[(i, i)] += 8.0; // diagonal dominance
        }
        let inv = a.inverse().expect("dominant matrices invert");
        let prod = inv.mul(&a).expect("dimensions match");
        let diff = prod.sub(&Matrix::identity(n)).expect("same shape");
        prop_assert!(diff.max_abs() < 1e-8, "residual {}", diff.max_abs());
    }

    /// Welford matches the two-pass mean/variance computation.
    #[test]
    fn welford_matches_two_pass(xs in prop::collection::vec(-1e3f64..1e3, 2..200)) {
        let w: qma::stats::Welford = xs.iter().copied().collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
        prop_assert!((w.mean() - mean).abs() < 1e-6);
        let tol = (var * 1e-9).max(1e-4);
        prop_assert!((w.sample_variance() - var).abs() < tol);
    }

    /// The handshake chain's expected messages match its closed form
    /// for arbitrary parameters.
    #[test]
    fn handshake_algebra_matches_closed_form(
        p in 0.05f64..1.0,
        messages in 1usize..5,
        attempts in 1usize..6
    ) {
        use qma::markov::handshake::{DropPolicy, HandshakeChain};
        for policy in [DropPolicy::RestartHandshake, DropPolicy::Abandon] {
            let model = HandshakeChain::parametric(p, messages, attempts, policy);
            let algebra = model.expected_messages().expect("valid chain");
            let closed = model.closed_form_expected_messages();
            prop_assert!(
                (algebra - closed).abs() < 1e-6 * algebra.max(1.0),
                "{policy:?} p={p} k={messages} a={attempts}: {algebra} vs {closed}"
            );
        }
    }
}
