//! Peripherals: everything on the SoC that is not a core or memory.
//!
//! Each peripheral is a plain struct with explicit state — no hidden
//! globals, no wall-clock time — so attack injectors and monitors can
//! manipulate and observe them deterministically.

pub mod actuator;
pub mod dma;
pub mod env;
pub mod nic;
pub mod otp;
pub mod sensor;
pub mod uart;
pub mod watchdog;

pub use actuator::Actuator;
pub use dma::{DmaDescriptor, DmaEngine};
pub use env::{EnvReading, EnvSensors, EnvTamper};
pub use nic::{Nic, Packet, PacketKind};
pub use otp::OtpFuses;
pub use sensor::{Sensor, SensorSpoof};
pub use uart::Uart;
pub use watchdog::Watchdog;
