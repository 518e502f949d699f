#![deny(missing_docs)]

//! The attack injector library.
//!
//! Every §IV attack class the paper discusses, implemented as a
//! behaviour-equivalent injector against the simulated SoC. Injectors only
//! act. The **ground truth** that experiments score detection rate and
//! latency against has two owners: each [`AttackKind`] carries its name and
//! the detection capabilities that *should* see it ([`AttackKind::name`],
//! [`AttackKind::detectable_by`]), and the platform records when each step
//! ran and whether it achieved its goal.
//!
//! | Injector | Real-world analogue (paper citation) |
//! |---|---|
//! | [`CodeInjectionAttack`] | ROP/code injection on the rich OS |
//! | [`MemoryProbeAttack`] | Meltdown-class memory scanning \[17\] |
//! | [`FirmwareTamperAttack`] | persistent implant in flash \[15\] |
//! | [`DowngradeAttack`] | 3DS keyshuffling / TrustZone downgrade \[15\]\[16\] |
//! | [`DmaExfilAttack`] | DMA confused-deputy exfiltration |
//! | [`DebugPortAttack`] | JTAG/SWD intrusion |
//! | [`NetworkFloodAttack`] | M2M DoS flood |
//! | [`MalformedTrafficAttack`] | exploit-kit traffic |
//! | [`ExfilAttack`] | bulk data theft over the NIC |
//! | [`SensorSpoofAttack`] | false data injection on sensing |
//! | [`FaultInjectionAttack`] | voltage/clock glitching |
//! | [`LogWipeAttack`] | anti-forensics (the E6 antagonist) |
//! | [`SyscallAnomalyAttack`] | living-off-the-land behaviour change |
//! | [`SystemHangAttack`] | firmware crash/lockup (the watchdog's domain) |
//! | [`tee_attacks`] | Spectre/Meltdown-class TEE leakage + TA downgrade \[16\]\[32\] |

pub mod catalog;
pub mod inject;
pub mod library;
pub mod tee_attacks;

pub use catalog::UnknownAttack;
pub use inject::{AttackEffect, AttackInjector, AttackKind, AttackStepResult, AttackTargets};
pub use library::{
    CodeInjectionAttack, DebugPortAttack, DmaExfilAttack, DowngradeAttack, ExfilAttack,
    FaultInjectionAttack, FirmwareTamperAttack, LogWipeAttack, MalformedTrafficAttack,
    MemoryProbeAttack, NetworkFloodAttack, SensorSpoofAttack, SyscallAnomalyAttack,
    SystemHangAttack,
};
