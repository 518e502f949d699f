#![warn(missing_docs)]

//! Deterministic discrete-event simulation kernel for the CRES platform.
//!
//! Every other crate in the workspace that models time-dependent behaviour —
//! the [SoC substrate](https://docs.rs/cres-soc), the resource monitors, the
//! system security manager — runs on top of this kernel. The kernel provides:
//!
//! * [`SimTime`] / [`SimDuration`] — a cycle-granular simulated clock,
//! * [`EventQueue`] — a time-ordered queue of plain-data events with
//!   deterministic FIFO tie-breaking; the caller pops and dispatches them,
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
//! properties enforced here: events scheduled for the same instant pop in
//! schedule order (a monotone sequence number breaks ties), and all
//! randomness flows from [`DetRng`] streams forked from a single seed.
//!
//! # Example
//!
//! ```
//! use cres_sim::{EventQueue, SimDuration, SimTime};
//!
//! let mut queue = EventQueue::new();
//! queue.schedule(SimTime::at_cycle(10), 1u64);
//! let mut world = 0u64;
//! while let Some((now, event)) = queue.pop_until(SimTime::at_cycle(100)) {
//!     world += event;
//!     if event == 1 {
//!         // dispatching an event may schedule follow-ups
//!         queue.schedule(now + SimDuration::cycles(5), 10);
//!     }
//! }
//! assert_eq!(world, 11);
//! ```

pub mod event;
pub mod intern;
pub mod rng;
pub mod stage;
pub mod time;

pub use event::EventQueue;
pub use intern::{MonitorId, MonitorRegistry};
pub use rng::DetRng;
pub use stage::{fault_code, policy_code, NullSink, Stage, StageSink};
pub use time::{SimDuration, SimTime};
