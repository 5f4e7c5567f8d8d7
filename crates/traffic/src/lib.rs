//! # comfase-traffic — microscopic traffic simulation
//!
//! The SUMO substrate of ComFASE-RS. The paper couples ComFASE to SUMO for
//! vehicle motion, collision incidents and traffic data logging; this crate
//! provides the same capabilities natively in Rust:
//!
//! - [`network`] — straight multi-lane roads (the paper's 4-lane, 9400 m
//!   highway is [`network::Road::paper_highway`]);
//! - [`vehicle`] — vehicle specifications ([`vehicle::VehicleSpec`], with the
//!   paper's platooning car as a preset) and dynamic state;
//! - [`dynamics`] — commanded-to-realised acceleration with first-order
//!   actuation lag, speed/position integration (SUMO ballistic update);
//! - [`car_following`] — SUMO's default Krauss model for background
//!   traffic;
//! - [`collision`] — SUMO-style rear-end collision detection with collider
//!   attribution, the basis of the paper's severity analysis;
//! - [`simulation`] — the per-0.01 s step loop, [`simulation::TrafficSim`].
//!   Where ComFASE drives SUMO over TraCI, the vehicular network
//!   simulation here calls `TrafficSim` directly from its step event;
//! - [`trace`] — per-vehicle trajectory logs (speed, acceleration, position)
//!   used by ComFASE's result classification.
//!
//! # Example
//!
//! ```
//! use comfase_des::rng::RngStream;
//! use comfase_traffic::network::{LaneIndex, Road};
//! use comfase_traffic::simulation::TrafficSim;
//! use comfase_traffic::vehicle::{Vehicle, VehicleId, VehicleSpec};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut sim = TrafficSim::new(Road::paper_highway(), RngStream::new(1));
//! sim.add_vehicle(Vehicle::new(
//!     VehicleId(1),
//!     VehicleSpec::paper_platooning_car(),
//!     100.0,
//!     LaneIndex(0),
//!     20.0,
//! ))?;
//! sim.run_steps(100); // one second
//! assert!(sim.vehicle(VehicleId(1)).unwrap().state.pos_m > 100.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod car_following;
pub mod collision;
pub mod dynamics;
pub mod lane_index;
pub mod network;
pub mod simulation;
pub mod trace;
pub mod vehicle;

pub use collision::Collision;
pub use lane_index::{LaneEntry, LaneOrder};
pub use network::{Lane, LaneIndex, Road};
pub use simulation::{LeaderLookup, TrafficError, TrafficSim, TrafficStats, HARD_DECEL_MPS2};
pub use trace::{GoldenSpeeds, TraceFold, TrafficTrace, VehicleTrace};
pub use vehicle::{Vehicle, VehicleId, VehicleSpec};
