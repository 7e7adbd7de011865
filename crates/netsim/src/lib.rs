//! Network-simulation framework for the QMA reproduction.
//!
//! This crate glues the event kernel (`qma-des`) and the radio model
//! (`qma-phy`) into a protocol test harness — the role OMNeT++ plays
//! in the paper's evaluation. Protocol logic lives *outside*: MAC
//! schemes implement [`MacProtocol`] (CSMA/CA and QMA live in
//! `qma-mac`), applications/routing/DSME implement [`UpperLayer`].
//!
//! Key pieces:
//!
//! * [`frame`] — MAC frames, addresses, app-packet provenance, and
//!   the queue-level piggyback QMA's exploration relies on,
//! * [`queue`] — the bounded transmit queues (capacity 8 in the
//!   paper) with drop accounting, their frames in one world-wide pool,
//! * [`clock`] — the synchronized superframe clock: CAP window and
//!   the M=54 contention subslots QMA uses as its learning state,
//! * [`metrics`] — PDR/delay/queue/energy/learning recorders backing
//!   every figure of the evaluation,
//! * [`world`] — nodes + medium + event dispatch with borrow-clean
//!   `Ctx` views and cross-layer notice queues.
//!
//! # Examples
//!
//! A minimal "blast one frame" MAC wired into a 2-node world:
//!
//! ```
//! use qma_netsim::{
//!     Frame, FrameKind, MacCtx, MacProtocol, MacTimerKind, NodeId, SimBuilder,
//! };
//! use qma_phy::Connectivity;
//!
//! struct Blaster;
//! impl MacProtocol for Blaster {
//!     fn start(&mut self, ctx: &mut MacCtx<'_>) {
//!         if ctx.node == NodeId(0) {
//!             let frame = Frame::data(NodeId(0), NodeId(1).into(), 1, 20, false);
//!             ctx.start_tx(frame);
//!         }
//!     }
//!     fn on_timer(&mut self, _: &mut MacCtx<'_>, _: MacTimerKind) {}
//!     fn on_frame(&mut self, ctx: &mut MacCtx<'_>, frame: &Frame) {
//!         if frame.dst.is_for(ctx.node) {
//!             ctx.deliver_to_upper(frame.clone());
//!         }
//!     }
//!     fn on_tx_end(&mut self, _: &mut MacCtx<'_>) {}
//!     fn on_cca_result(&mut self, _: &mut MacCtx<'_>, _: bool) {}
//!     fn on_enqueue(&mut self, _: &mut MacCtx<'_>) {}
//! }
//!
//! let mut sim = SimBuilder::new(Connectivity::full(2), 42)
//!     .mac_factory(|_, _| Box::new(Blaster))
//!     .build();
//! sim.run_for(qma_des::SimDuration::from_secs(1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod clock;
pub mod faults;
pub mod frame;
pub mod metrics;
pub mod queue;
pub mod world;

pub use clock::FrameClock;
pub use faults::{FaultEvent, FaultKind, FaultPlan};
pub use frame::{Address, AppInfo, Frame, FrameKind, Payload};
pub use metrics::{LearnerSample, MacCounters, MetricsHub, SlotAction, TxResult};
pub use queue::{HeadInfo, QueuedFrame, TxQueue, TxQueues};
pub use world::{
    ActiveSet, EngineCounts, MacCtx, MacProtocol, MacTimerKind, NodeId, PastClampBudgetExceeded,
    Sim, SimBuilder, TickAction, TickPlan, TickView, UpperCtx, UpperLayer,
};
