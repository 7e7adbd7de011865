//! Per-operation replays through each layer's public functions, shaped
//! like a workload: the scheduler at the workload's pending population,
//! the medium on the workload's own connectivity, the Q-learning core
//! on the paper's table size.

use std::hint::black_box;
use std::time::Duration;

use qma_core::qtable::UpdateParams;
use qma_core::{ActionOutcome, Fixed16, QTable, QValue, QmaAction, QmaAgent, QmaConfig};
use qma_des::Scheduler;
use qma_netsim::FrameClock;
use qma_phy::{Connectivity, Medium, PhyNodeId};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::timing::Stopwatch;

/// How long each timed sample of a replay runs.
const SAMPLE: Duration = Duration::from_millis(25);
/// Timed samples per replay.
const SAMPLES: usize = 7;

/// Times `op` in `SAMPLES` batches of a calibrated size and returns
/// the nanoseconds per call of each batch.
pub fn ns_per_op(mut op: impl FnMut()) -> Vec<f64> {
    // Calibrate: double the batch until it fills half a sample.
    let mut batch: u64 = 1;
    loop {
        let w = Stopwatch::start();
        for _ in 0..batch {
            op();
        }
        if w.elapsed() >= SAMPLE / 2 || batch >= 1 << 30 {
            break;
        }
        batch *= 2;
    }
    (0..SAMPLES)
        .map(|_| {
            let w = Stopwatch::start();
            for _ in 0..batch {
                op();
            }
            w.ns() as f64 / batch as f64
        })
        .collect()
}

/// One `Stopwatch` start-and-read pair: what the traced run's
/// wrappers add to every callback they time.
pub fn clock_pair() -> Vec<f64> {
    ns_per_op(|| {
        black_box(Stopwatch::start().ns());
    })
}

/// One push plus one pop at a steady pending `population`: every
/// popped tick re-arms at the next subslot boundary, so the queue
/// holds the whole population at one or two boundaries — the shape of
/// a slot-synchronous world. `wheel` routes the pushes through
/// `Scheduler::schedule_boundary` on a wheel sized like the world's;
/// otherwise through `Scheduler::schedule_at` on the heap.
pub fn push_pop(population: usize, wheel: bool) -> Vec<f64> {
    let clock = FrameClock::dsme_so3();
    let m = u64::from(clock.subslots());
    let mut sched: Scheduler<u64> = Scheduler::with_capacity(population);
    if wheel {
        sched.enable_wheel(2 * (clock.subslots() as usize + 2));
    }
    let arm = |sched: &mut Scheduler<u64>, k: u64| {
        let (frame, subslot) = (k / m, (k % m) as u16);
        let at = clock.subslot_start(frame, subslot);
        if wheel {
            sched.schedule_boundary(at, clock.boundary_index(frame, subslot), k);
        } else {
            sched.schedule_at(at, k);
        }
    };
    for _ in 0..population.max(1) {
        arm(&mut sched, 1);
    }
    ns_per_op(|| {
        let entry = sched.pop().expect("population stays constant");
        arm(&mut sched, black_box(entry.event) + 1);
    })
}

/// The transmitter with the most listeners (lowest id on ties): the
/// sink of a star, an interior node of a grid.
pub fn widest_transmitter(conn: &Connectivity) -> PhyNodeId {
    let id = (0..conn.len() as u32)
        .max_by_key(|&i| (conn.degree(PhyNodeId(i)), std::cmp::Reverse(i)))
        .expect("a non-empty topology");
    PhyNodeId(id)
}

/// `Medium::start_tx_on` + `Medium::end_tx` of one frame from `tx`
/// on the workload's own connectivity.
pub fn tx_roundtrip(conn: &Connectivity, tx: PhyNodeId) -> Vec<f64> {
    let mut medium = Medium::new(conn.clone());
    ns_per_op(|| {
        let token = medium.start_tx_on(black_box(tx), 0);
        black_box(medium.end_tx(token).len());
    })
}

/// `QTable::update` on the paper's 54-subslot table, cycling through
/// subslots, actions and rewards.
pub fn q_update<Q: QValue>() -> Vec<f64> {
    let mut table: QTable<Q> = QTable::new(54, -10.0);
    let params = UpdateParams::default();
    let rewards = [2.0f32, 0.0, 3.0, -2.0, 4.0, -3.0];
    let mut i = 0usize;
    ns_per_op(|| {
        i = (i + 1) % (54 * 6);
        let subslot = (i % 54) as u16;
        let action = QmaAction::ALL[i % 3];
        black_box(table.update(subslot, action, rewards[i % 6], subslot + 1, &params));
    })
}

/// `QTable::update` over `f32` values.
pub fn q_update_f32() -> Vec<f64> {
    q_update::<f32>()
}

/// `QTable::update` over 16-bit fixed-point values.
pub fn q_update_fixed16() -> Vec<f64> {
    q_update::<Fixed16>()
}

/// One `QmaAgent::decide` plus the matching `QmaAgent::complete`, past
/// the cautious start-up phase, with outcomes varied per subslot.
pub fn decide_complete() -> Vec<f64> {
    let mut agent: QmaAgent<f32> = QmaAgent::new(QmaConfig::default());
    let mut rng = StdRng::seed_from_u64(7);
    let mut i = 0u32;
    let mut step = move || {
        i = i.wrapping_add(1);
        let subslot = (i % 54) as u16;
        let diff = (i % 5) as i32 - 2;
        let d = agent.decide(subslot, diff, &mut rng);
        let outcome = match d.action {
            QmaAction::Backoff => ActionOutcome::Backoff {
                overheard: i % 2 == 0,
            },
            QmaAction::Cca if i % 3 == 0 => ActionOutcome::CcaBusy,
            QmaAction::Cca => ActionOutcome::CcaTx { acked: i % 4 != 0 },
            QmaAction::Send => ActionOutcome::SendTx { acked: i % 4 != 0 },
        };
        agent.complete(black_box(outcome), subslot + 1);
    };
    // Leave the start-up phase (forced backoffs) before timing.
    for _ in 0..10 * 54 {
        step();
    }
    ns_per_op(step)
}
