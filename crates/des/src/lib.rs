//! # comfase-des — discrete-event simulation kernel
//!
//! The OMNeT++ substrate of ComFASE-RS: a small, deterministic
//! discrete-event simulation kernel that the rest of the stack (traffic,
//! wireless, platooning, and the ComFASE engine itself) is built on.
//!
//! The kernel provides exactly what OMNeT++ provides to Veins:
//!
//! - [`time::SimTime`] / [`time::SimDuration`] — fixed-point simulation time
//!   (integer nanoseconds), so event ordering is exact and reproducible;
//! - [`queue::EventQueue`] — the future event set with OMNeT++'s
//!   `(time, priority, insertion order)` delivery semantics;
//! - [`sim::Simulator`] — the kernel proper: clock + event queue + seeded
//!   RNG streams, driven by the owner via [`sim::Simulator::pop_due`];
//! - [`rng::RngStream`] — per-component deterministic random streams
//!   (xoshiro256++ seeded via SplitMix64), platform-independent;
//! - [`stats`] — OMNeT++-style result primitives (running scalars, output
//!   vectors, histograms) used for vehicle traces and experiment logs;
//! - [`wire`] — big-endian helpers for the on-air message codecs.
//!
//! # Example
//!
//! A tiny two-node ping simulation:
//!
//! ```
//! use comfase_des::sim::Simulator;
//! use comfase_des::time::{SimDuration, SimTime};
//!
//! #[derive(Debug)]
//! enum Ev {
//!     Ping,
//!     Pong,
//! }
//!
//! let mut sim = Simulator::new(1);
//! sim.schedule_in(SimDuration::from_millis(1), Ev::Ping);
//! let mut pongs = 0;
//! while let Some((_, ev)) = sim.pop_due(SimTime::from_secs(1)) {
//!     match ev {
//!         Ev::Ping => {
//!             sim.schedule_in(SimDuration::from_millis(1), Ev::Pong);
//!         }
//!         Ev::Pong => pongs += 1,
//!     }
//! }
//! assert_eq!(pongs, 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod queue;
pub mod rng;
pub mod sim;
pub mod stats;
pub mod time;
pub mod wire;

pub use queue::EventQueue;
pub use rng::{RngStream, StreamId};
pub use sim::{BreachKind, BudgetBreach, EventBudget, Simulator};
pub use stats::{RunningStats, TimeSeries};
pub use time::{SimDuration, SimTime};
