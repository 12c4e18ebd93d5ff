//! Discrete-event simulation kernel for `hhsim`.
//!
//! This crate provides the minimal machinery the rest of the simulator is
//! built on: a virtual clock ([`SimTime`]) and an event calendar
//! ([`Simulation`]) that executes scheduled closures in timestamp order.
//!
//! Determinism is a hard requirement — the whole paper reproduction depends
//! on re-running an experiment and getting bit-identical timings — so ties in
//! the calendar are broken by insertion sequence number, never by pointer or
//! hash order. Two calendar backends honour that contract with identical pop
//! sequences (see [`CalendarKind`]): the reference binary heap and a bucketed
//! ladder that dense 10k-node runs migrate onto automatically.
//!
//! # Examples
//!
//! ```
//! use hhsim_des::{SimTime, Simulation};
//!
//! let mut sim = Simulation::new();
//! sim.schedule_in(SimTime::from_secs_f64(2.0), |sim| {
//!     assert_eq!(sim.now().as_secs_f64(), 2.0);
//! });
//! let end = sim.run();
//! assert_eq!(end, SimTime::from_secs_f64(2.0));
//! ```

mod calendar;
mod sim;
mod time;

pub use calendar::{CalendarKind, AUTO_LADDER_THRESHOLD};
pub use sim::{EventId, Simulation};
pub use time::SimTime;
