//! # qma-lint — the workspace determinism & durability contract
//!
//! Every headline claim this repository makes — bit-identical output
//! across tick orders within a subslot boundary (the engine goldens),
//! serial vs rayon replication, and crash/restart of the fabric and
//! `qmad` — rests on coding
//! disciplines that equivalence tests can only check after the fact.
//! This crate enforces them at the diff, with a registry-free token
//! scanner (in the spirit of the campaign TOML parser) and a
//! path-scoped rule engine:
//!
//! | rule | contract |
//! |---|---|
//! | `hash-iter` | no `HashMap`/`HashSet` iteration in sim/fold paths — visit order is hash order |
//! | `wall-clock` | no `Instant::now`/`SystemTime::now` in deterministic layers |
//! | `entropy` | no `thread_rng`/`from_entropy`/`OsRng`/`getrandom` anywhere — streams derive from the master seed |
//! | `raw-durability` | campaign/service publishes go through `campaign::durable`, never raw `fs::write`/`File::create`/`fs::rename` |
//! | `bare-thread` | no bare `thread::spawn` in the kernel — a replication runs on one thread; helpers must be scoped |
//! | `unsafe-code` | `unsafe` only in the inventoried allowlist ([`rules::UNSAFE_INVENTORY`]) |
//!
//! A violation is suppressed only by an inline annotation carrying a
//! mandatory justification — `// qma-lint: allow(rule) — reason` —
//! and a reason-less, unknown-rule or malformed annotation is itself
//! a finding (`bad-allow`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod report;
pub mod rules;
pub mod scan;
pub mod walk;

pub use rules::{check_file, FileScope, Finding, RULE_NAMES, UNSAFE_INVENTORY};
pub use walk::{scan_workspace, Report};
