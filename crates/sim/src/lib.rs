#![warn(missing_docs)]

//! Deterministic discrete-event simulation kernel for the CRES platform.
//!
//! Every other crate in the workspace that models time-dependent behaviour —
//! the [SoC substrate](https://docs.rs/cres-soc), the resource monitors, the
//! system security manager — runs on top of this kernel. The kernel provides:
//!
//! * [`SimTime`] / [`SimDuration`] — a cycle-granular simulated clock,
//! * [`Simulator`] — an event queue with deterministic FIFO tie-breaking,
//! * [`DetRng`] — a seedable, forkable deterministic random number generator
//!   (xoshiro256** seeded via SplitMix64),
//! * [`stage`] — the pipeline-stage vocabulary ([`Stage`], [`StageSink`])
//!   the telemetry layer's instrumentation points speak,
//! * [`intern`] — the [`MonitorId`] interner keeping monitor names off the
//!   hot event path.
//!
//! # Determinism
//!
//! Reproducibility of every experiment in the paper harness rests on two
//! properties enforced here: events scheduled for the same instant fire in
//! schedule order (a monotone sequence number breaks ties), and all
//! randomness flows from [`DetRng`] streams forked from a single seed.
//!
//! # Example
//!
//! ```
//! use cres_sim::{Simulator, SimTime, SimDuration};
//!
//! let mut sim: Simulator<u64> = Simulator::new();
//! sim.schedule_in(SimDuration::cycles(10), |world, sim| {
//!     *world += 1;
//!     // events may schedule follow-ups
//!     sim.schedule_in(SimDuration::cycles(5), |world, _| *world += 10);
//! });
//! let mut world = 0u64;
//! sim.run_until(&mut world, SimTime::at_cycle(100));
//! assert_eq!(world, 11);
//! ```

pub mod event;
pub mod intern;
pub mod rng;
pub mod stage;
pub mod time;

pub use event::{EventId, Simulator};
pub use intern::{MonitorId, MonitorRegistry};
pub use rng::DetRng;
pub use stage::{fault_code, policy_code, NullSink, Stage, StageSink};
pub use time::{SimDuration, SimTime};
