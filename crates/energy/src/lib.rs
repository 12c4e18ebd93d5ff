//! Power measurement and cost metrics for `hhsim`.
//!
//! Reproduces the paper's §1.1/§1.2 methodology:
//!
//! * a simulated **Wattsup PRO** meter ([`StreamingMeter`]) takes
//!   `(duration, watts)` power segments in execution order, samples them
//!   once per (virtual) second and reports the average alongside the
//!   exact energy integral; the idle floor is subtracted to isolate
//!   dynamic dissipation. [`UtilizationTimeline`] supplies the segments
//!   of a cluster node from its busy-slot step function;
//! * **operational cost** is measured by Energy-Delay^X products (EDP,
//!   ED²P, ED³P) and **capital cost** by Energy-Delay^X-Area products
//!   (EDAP, ED²AP), with chip areas from Intel datasheets (Atom 160 mm²,
//!   Xeon 216 mm²) — see [`CostMetrics`].
//!
//! The batch pipeline — a materialized [`PowerTrace`] sampled by
//! [`PowerMeter`] — is the streaming meter's bit-for-bit reference, kept
//! for its equivalence tests and the `energy_scale` bench.
//!
//! # Examples
//!
//! ```
//! use hhsim_energy::{CostMetrics, StreamingMeter};
//!
//! let mut meter = StreamingMeter::new();
//! meter.push(10.0, 150.0); // 10 s at 150 W
//! meter.push(5.0, 90.0); // 5 s at 90 W
//! let reading = meter.finish();
//! assert!((reading.meter.average_watts - 130.0).abs() < 1.0);
//! assert_eq!(reading.exact_energy_j, 1950.0);
//!
//! let m = CostMetrics::new(1000.0, 20.0, 216.0);
//! assert_eq!(m.edp(), 20_000.0);
//! assert_eq!(m.edxp(2), 400_000.0);
//! ```

mod integrate;
mod meter;
mod metrics;
mod timeline;

pub use integrate::{measure_trace, EnergyReading, StreamingMeter};
pub use meter::{MeterReading, PowerMeter, PowerTrace};
pub use metrics::{CostMetrics, MetricKind};
pub use timeline::UtilizationTimeline;
