//! Wireless PHY substrate for the QMA reproduction.
//!
//! The paper evaluates QMA on IEEE 802.15.4 radios — simulated ones in
//! OMNeT++ (§6.1, §6.3) and real AT86RF231-class transceivers on FIT
//! IoT-LAB M3 nodes (§6.2). This crate provides the radio model that
//! substitutes for both:
//!
//! * [`units`] — dBm/mW power arithmetic,
//! * [`geo`] — 2-D positions and distances,
//! * [`pathloss`] — free-space and log-distance propagation, and the
//!   tx-power/sensitivity → communication-range computation used to
//!   reconstruct the testbed topologies (−9 dBm/−72 dBm for the tree,
//!   3 dBm/−90 dBm for the star),
//! * [`timing`] — O-QPSK 2.4 GHz symbol timing: frame airtime, CCA
//!   window, turnaround, ACK timing,
//! * [`medium`] — the half-duplex shared medium with binary
//!   interference (the "protocol model"): a frame is received cleanly
//!   iff it is the only audible transmission for its whole airtime and
//!   the receiver never transmits meanwhile. This reproduces the
//!   hidden-node structure of Fig. 6 exactly: a CCA at node A fails
//!   only while node B (the only node audible to A) is sending.
//! * [`energy`] — per-state energy integration plus attempt counters,
//!   backing the paper's "QMA and CSMA/CA consume the same amount of
//!   energy" observation (§6.2.1).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod energy;
pub mod geo;
pub mod medium;
pub mod pathloss;
pub mod timing;
pub mod units;

pub use energy::{EnergyMeter, EnergyReport, PowerProfile, RadioActivity};
pub use geo::Position;
pub use medium::{Connectivity, Medium, PhyNodeId, TxToken};
pub use pathloss::PathLoss;
pub use timing::{FrameTiming, PhyTiming};
pub use units::{Dbm, MilliWatts};
