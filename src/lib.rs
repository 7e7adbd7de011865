//! # QMA — a Q-learning-based multiple access scheme for the IIoT
//!
//! A from-scratch Rust reproduction of Meyer & Turau, *"QMA: A
//! Resource-efficient, Q-learning-based Multiple Access Scheme for
//! the IIoT"* (ICDCS 2021, arXiv:2101.04003): the QMA learning agent,
//! IEEE 802.15.4 CSMA/CA baselines, a discrete-event radio simulator,
//! the DSME multi-superframe/GTS substrate, and the full experiment
//! suite regenerating every table and figure of the paper's
//! evaluation.
//!
//! This crate is a façade that re-exports the workspace members:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`core`] | `qma-core` | the QMA agent: Q-table, rewards, exploration, cautious startup |
//! | [`mac`] | `qma-mac` | QMA MAC adapter + slotted/unslotted CSMA/CA |
//! | [`des`] | `qma-des` | deterministic discrete-event kernel |
//! | [`phy`] | `qma-phy` | radio medium, audibility graph, timing, energy |
//! | [`netsim`] | `qma-netsim` | nodes, frames, frame clock, metrics, world |
//! | [`dsme`] | `qma-dsme` | multi-superframes, SAB, GTS 3-way handshake |
//! | [`net`] | `qma-net` | traffic patterns, collection app, GPSR-lite |
//! | [`topo`] | `qma-topo` | hidden-node, IoT-LAB tree/star, concentric rings |
//! | [`markov`] | `qma-markov` | absorbing-chain analysis of the handshake |
//! | [`stats`] | `qma-stats` | distributions, CIs, time series |
//! | [`scenarios`] | `qma-scenarios` | one module per paper figure |
//!
//! ## Quick start
//!
//! Run QMA on the classic hidden-node topology and watch it learn a
//! collision-free schedule:
//!
//! ```
//! use qma::mac::{QmaMac, QmaMacConfig};
//! use qma::net::{CollectionApp, CollectionConfig, TrafficPattern};
//! use qma::netsim::{FrameClock, NodeId, SimBuilder};
//!
//! let topo = qma::topo::hidden_node();
//! let sink = NodeId(topo.sink as u32);
//! let mut sim = SimBuilder::new(topo.connectivity.clone(), 42)
//!     .clock(FrameClock::dsme_so3())
//!     .mac_factory(|_, clock| Box::new(QmaMac::new(QmaMacConfig::default(), *clock)))
//!     .upper_factory(move |node, _| {
//!         let pattern = if node == sink {
//!             TrafficPattern::Silent
//!         } else {
//!             TrafficPattern::Poisson {
//!                 rate: 25.0,
//!                 start: qma::des::SimTime::from_secs(1),
//!                 limit: Some(100),
//!             }
//!         };
//!         Box::new(CollectionApp::new(CollectionConfig {
//!             pattern,
//!             next_hop: (node != sink).then_some(sink),
//!             sink,
//!             payload_octets: 60,
//!         }))
//!     })
//!     .build();
//! sim.run_for(qma::des::SimDuration::from_secs(20));
//! let pdr = sim.metrics().pdr_of([NodeId(0), NodeId(2)]).unwrap();
//! assert!(pdr > 0.5);
//! ```
//!
//! See `examples/` for runnable programs and `crates/bench` for the
//! experiment driver (`reproduce`, one report section per figure).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use qma_core as core;
pub use qma_des as des;
pub use qma_dsme as dsme;
pub use qma_mac as mac;
pub use qma_markov as markov;
pub use qma_net as net;
pub use qma_netsim as netsim;
pub use qma_phy as phy;
pub use qma_scenarios as scenarios;
pub use qma_stats as stats;
pub use qma_topo as topo;
