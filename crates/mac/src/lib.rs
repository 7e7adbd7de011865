//! MAC layer implementations for the QMA reproduction.
//!
//! Three contention MACs, all implementing
//! [`qma_netsim::MacProtocol`] so scenarios can swap them freely —
//! exactly the comparison run in the paper's evaluation:
//!
//! * [`CsmaMac`] in **unslotted** mode — IEEE 802.15.4 unslotted
//!   CSMA/CA (random backoff → single CCA → transmit),
//! * [`CsmaMac`] in **slotted** mode — IEEE 802.15.4 slotted CSMA/CA
//!   (backoff-period alignment, CW = 2 consecutive idle CCAs),
//! * [`QmaMac`] — the paper's contribution: the `qma-core` learning
//!   agent driven by the subslot clock, with CCA/ACK-derived rewards,
//!   queue-level piggybacking and cautious startup.
//!
//! Shared machinery (ACK generation, duplicate suppression, retry
//! limits) lives in [`recv`] and [`consts`]. [`MacImpl`] is a closed
//! enum over all of them, giving the simulator static dispatch on its
//! per-event hot path (with a `Custom` trait-object escape hatch).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod consts;
pub mod csma;
pub mod dispatch;
pub mod qma_mac;
pub mod recv;

pub use csma::{CsmaConfig, CsmaMac};
pub use dispatch::MacImpl;
pub use qma_mac::{QmaMac, QmaMacConfig, QmaShared};
