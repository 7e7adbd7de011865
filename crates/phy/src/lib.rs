//! Wireless PHY substrate for the QMA reproduction.
//!
//! The paper evaluates QMA on IEEE 802.15.4 radios — simulated ones in
//! OMNeT++ (§6.1, §6.3) and real AT86RF231-class transceivers on FIT
//! IoT-LAB M3 nodes (§6.2). This crate provides the radio model that
//! substitutes for both:
//!
//! * [`geo`] — 2-D positions and distances, for node placement,
//! * [`timing`] — O-QPSK 2.4 GHz symbol timing: frame airtime, CCA
//!   window, turnaround, ACK timing,
//! * [`medium`] — the half-duplex shared medium with binary
//!   interference (the "protocol model") over an explicit audibility
//!   graph, [`Connectivity`]: a frame is received cleanly iff it is
//!   the only audible transmission for its whole airtime and the
//!   receiver never transmits meanwhile. This reproduces the
//!   hidden-node structure of Fig. 6 exactly: a CCA at node A fails
//!   only while node B (the only node audible to A) is sending. The
//!   §6.2 testbed topologies are such graphs too, given as edge lists
//!   (`qma-topo`), not derived from radio power settings.
//! * [`energy`] — per-state energy integration, backing the paper's
//!   "QMA and CSMA/CA consume the same amount of energy" observation
//!   (§6.2.1).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod energy;
pub mod geo;
pub mod medium;
pub mod timing;

pub use energy::{EnergyMeter, EnergyReport, PowerProfile, RadioActivity};
pub use geo::Position;
pub use medium::{Connectivity, Medium, PhyNodeId, TxToken};
pub use timing::{FrameTiming, PhyTiming};
