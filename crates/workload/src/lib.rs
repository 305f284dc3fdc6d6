//! # ape-workload — workload generation for the APE-CACHE evaluation
//!
//! Three generators drive the reproduction's experiments:
//!
//! * [`ZipfSampler`] — skewed popularity (apps, flows),
//! * [`ScheduleStream`] — app execution schedules with a fixed fleet
//!   average frequency (3 runs/minute by default, the paper's setting),
//!   drawn as they are consumed ([`generate_schedule`] collects one),
//! * [`generate_trace`] — packet streams statistically matching the
//!   Table II public-WiFi captures, for the Fig. 2 feasibility experiment.
//!
//! ## Example
//!
//! ```
//! use ape_simnet::SimRng;
//! use ape_workload::{generate_schedule, ScheduleConfig};
//!
//! let mut rng = SimRng::seed_from(7);
//! let schedule = generate_schedule(&ScheduleConfig::default(), &mut rng);
//! assert!(!schedule.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod roam;
mod schedule;
mod trace;
mod zipf;

pub use roam::{generate_roam_schedule, RoamConfig, RoamEvent};
pub use schedule::{generate_schedule, Execution, ScheduleConfig, ScheduleStream};
pub use trace::{generate_trace, trace_stats, Packet, TraceSpec, TraceStats};
pub use zipf::ZipfSampler;
