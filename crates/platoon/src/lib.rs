//! # comfase-platoon — platooning models (Plexe substrate)
//!
//! The Plexe-veins substrate of ComFASE-RS: everything needed to run the
//! paper's system under test, a CACC platoon that exchanges kinematic
//! beacons over V2V radio.
//!
//! - [`beacon`] — the platooning beacon broadcast at 10 Hz, serialized into
//!   WSM payloads (and therefore attackable in flight);
//! - [`controller`] — longitudinal controllers: the constant-spacing PATH
//!   CACC (Plexe's default, used in the paper's scenario), the
//!   Milanés–Shladover CACC (paper reference \[30\]), Ploeg's CACC, and a
//!   radar-only ACC baseline;
//! - [`maneuver`] — leader speed profiles, including the paper's sinusoidal
//!   maneuver with its 5 s driving cycle;
//! - [`app`] — the per-vehicle platooning application: beacon bookkeeping
//!   (no staleness or security checks, as in the paper) and control-step
//!   evaluation;
//! - [`platoon`] — platoon composition, including the paper's 4-vehicle
//!   scenario ([`platoon::PlatoonSpec::paper_default`]).
//!
//! # Example
//!
//! ```
//! use comfase_platoon::app::PlatoonApp;
//! use comfase_platoon::controller::{ControllerKind, EgoState, RadarReading};
//! use comfase_des::time::SimTime;
//!
//! // Vehicle 2 follows the leader (vehicle 1) with the PATH CACC.
//! let mut app = PlatoonApp::follower(2, 1, 1, ControllerKind::PathCacc);
//! let accel = app.control(
//!     SimTime::ZERO,
//!     EgoState { speed_mps: 27.78, accel_mps2: 0.0 },
//!     Some(RadarReading { gap_m: 5.0, closing_speed_mps: 0.0 }),
//!     0.01,
//! );
//! assert!(accel.abs() < 1e-9); // settled platoon
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod app;
pub mod beacon;
pub mod controller;
pub mod maneuver;
pub mod monitor;
pub mod platoon;

pub use app::PlatoonApp;
pub use beacon::PlatoonBeacon;
pub use controller::{Controller, ControllerKind};
pub use maneuver::{Braking, ConstantSpeed, Maneuver, Sinusoidal};
pub use monitor::{MonitorDecision, SafetyMonitor, SafetyMonitorConfig};
pub use platoon::PlatoonSpec;
