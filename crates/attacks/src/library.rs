//! The concrete attack injectors.

use crate::inject::{AttackEffect, AttackInjector, AttackKind, AttackStepResult, AttackTargets};
use cres_sim::SimTime;
use cres_soc::addr::{Addr, MasterId};
use cres_soc::periph::{DmaDescriptor, EnvTamper, Packet, PacketKind, SensorSpoof};
use cres_soc::task::{BlockId, Syscall, TaskId};

/// Control-flow hijack: forces the victim task onto illegal edges.
#[derive(Debug, Clone)]
pub struct CodeInjectionAttack {
    victim: TaskId,
    gadget: BlockId,
    steps: u32,
}

impl CodeInjectionAttack {
    /// Creates an attack hijacking `victim` to `gadget` for `steps` steps.
    pub fn new(victim: TaskId, gadget: BlockId, steps: u32) -> Self {
        CodeInjectionAttack {
            victim,
            gadget,
            steps,
        }
    }
}

impl AttackInjector for CodeInjectionAttack {
    fn kind(&self) -> AttackKind {
        AttackKind::CodeInjection
    }

    fn steps(&self) -> u32 {
        self.steps
    }

    fn inject_step(
        &mut self,
        _step: u32,
        _now: SimTime,
        targets: &mut AttackTargets<'_>,
    ) -> AttackStepResult {
        let victim = targets.soc.task_mut(self.victim);
        let achieved = victim.is_some();
        if let Some(task) = victim {
            task.hijack(self.gadget);
        }
        AttackStepResult {
            achieved,
            effects: vec![],
        }
    }
}

/// Meltdown-class scanning of protected memory from a compromised master.
#[derive(Debug, Clone)]
pub struct MemoryProbeAttack {
    master: MasterId,
    targets_addrs: Vec<Addr>,
    secrets_read: u32,
}

impl MemoryProbeAttack {
    /// Creates a probe from `master` over `targets_addrs` (one per step).
    pub fn new(master: MasterId, targets_addrs: Vec<Addr>) -> Self {
        assert!(!targets_addrs.is_empty());
        MemoryProbeAttack {
            master,
            targets_addrs,
            secrets_read: 0,
        }
    }

    /// How many probe reads were *granted* — the attacker's actual win
    /// count (non-zero means the isolation failed).
    pub fn secrets_read(&self) -> u32 {
        self.secrets_read
    }
}

impl AttackInjector for MemoryProbeAttack {
    fn kind(&self) -> AttackKind {
        AttackKind::MemoryProbe
    }

    fn steps(&self) -> u32 {
        self.targets_addrs.len() as u32
    }

    fn inject_step(
        &mut self,
        step: u32,
        now: SimTime,
        targets: &mut AttackTargets<'_>,
    ) -> AttackStepResult {
        let addr = self.targets_addrs[step as usize % self.targets_addrs.len()];
        let soc = &mut *targets.soc;
        let result = soc.bus.read(now, self.master, addr, 16, &soc.mem);
        let achieved = result.is_ok();
        if achieved {
            self.secrets_read += 1;
        }
        AttackStepResult {
            achieved,
            effects: vec![],
        }
    }
}

/// Writes an implant into a firmware region through the bus, and corrupts
/// the active slot when the store is reachable.
#[derive(Debug, Clone)]
pub struct FirmwareTamperAttack {
    master: MasterId,
    flash_addr: Addr,
}

impl FirmwareTamperAttack {
    /// Creates a tamper attack from `master` writing at `flash_addr`.
    pub fn new(master: MasterId, flash_addr: Addr) -> Self {
        FirmwareTamperAttack { master, flash_addr }
    }
}

impl AttackInjector for FirmwareTamperAttack {
    fn kind(&self) -> AttackKind {
        AttackKind::FirmwareTamper
    }

    fn steps(&self) -> u32 {
        1
    }

    fn inject_step(
        &mut self,
        _step: u32,
        now: SimTime,
        targets: &mut AttackTargets<'_>,
    ) -> AttackStepResult {
        let implant = [0xEEu8; 32];
        let soc = &mut *targets.soc;
        let bus_result = soc
            .bus
            .write(now, self.master, self.flash_addr, &implant, &mut soc.mem);
        if let Some(slots) = targets.slots.as_deref_mut() {
            let mut corrupted = slots.active_bytes().to_vec();
            if corrupted.len() > 64 {
                corrupted[40..72].copy_from_slice(&implant);
            }
            let active = slots.active();
            slots.write_slot(active, corrupted);
        }
        AttackStepResult {
            achieved: bus_result.is_ok() || targets.slots.is_some(),
            effects: vec![],
        }
    }
}

/// Replays an old, genuinely signed firmware image (the §IV downgrade).
#[derive(Debug, Clone)]
pub struct DowngradeAttack {
    old_image: Vec<u8>,
}

impl DowngradeAttack {
    /// Creates a downgrade staging the supplied old signed image.
    pub fn new(old_image: Vec<u8>) -> Self {
        DowngradeAttack { old_image }
    }
}

impl AttackInjector for DowngradeAttack {
    fn kind(&self) -> AttackKind {
        AttackKind::Downgrade
    }

    fn steps(&self) -> u32 {
        1
    }

    fn inject_step(
        &mut self,
        _step: u32,
        _now: SimTime,
        targets: &mut AttackTargets<'_>,
    ) -> AttackStepResult {
        let slots = targets.slots.as_deref_mut();
        let achieved = slots.is_some();
        if let Some(slots) = slots {
            let inactive = slots.active().other();
            slots.write_slot(inactive, self.old_image.clone());
            slots.set_active(inactive);
        }
        AttackStepResult {
            achieved,
            effects: vec![],
        }
    }
}

/// Programs the DMA engine to copy a secret out, then exfiltrates it.
#[derive(Debug, Clone)]
pub struct DmaExfilAttack {
    secret_addr: Addr,
    staging_addr: Addr,
    len: u64,
    copies_done: u32,
}

impl DmaExfilAttack {
    /// Creates a DMA theft from `secret_addr` to `staging_addr`.
    pub fn new(secret_addr: Addr, staging_addr: Addr, len: u64) -> Self {
        DmaExfilAttack {
            secret_addr,
            staging_addr,
            len,
            copies_done: 0,
        }
    }

    /// Number of successful DMA copies (attacker wins).
    pub fn copies_done(&self) -> u32 {
        self.copies_done
    }
}

impl AttackInjector for DmaExfilAttack {
    fn kind(&self) -> AttackKind {
        AttackKind::DmaExfil
    }

    fn steps(&self) -> u32 {
        2
    }

    fn inject_step(
        &mut self,
        step: u32,
        now: SimTime,
        targets: &mut AttackTargets<'_>,
    ) -> AttackStepResult {
        let soc = &mut *targets.soc;
        if step == 0 {
            soc.dma.program(DmaDescriptor {
                src: self.secret_addr,
                dst: self.staging_addr,
                len: self.len,
            });
            let outcome = soc.dma.step(now, &mut soc.bus, &mut soc.mem);
            let achieved = matches!(outcome, Some(cres_soc::periph::dma::DmaOutcome::Done));
            if achieved {
                self.copies_done += 1;
            }
            AttackStepResult {
                achieved,
                effects: vec![],
            }
        } else {
            let sent = soc.nic.send(Packet {
                src: 1,
                dst: 0x6666,
                len: self.len as u32,
                kind: PacketKind::Exfil,
                at: now,
            });
            AttackStepResult {
                achieved: sent && self.copies_done > 0,
                effects: vec![],
            }
        }
    }
}

/// External debug-port intrusion scanning memory.
#[derive(Debug, Clone)]
pub struct DebugPortAttack {
    scan_addrs: Vec<Addr>,
}

impl DebugPortAttack {
    /// Creates a debug intrusion scanning the given addresses.
    pub fn new(scan_addrs: Vec<Addr>) -> Self {
        assert!(!scan_addrs.is_empty());
        DebugPortAttack { scan_addrs }
    }
}

impl AttackInjector for DebugPortAttack {
    fn kind(&self) -> AttackKind {
        AttackKind::DebugIntrusion
    }

    fn steps(&self) -> u32 {
        self.scan_addrs.len() as u32
    }

    fn inject_step(
        &mut self,
        step: u32,
        now: SimTime,
        targets: &mut AttackTargets<'_>,
    ) -> AttackStepResult {
        let addr = self.scan_addrs[step as usize % self.scan_addrs.len()];
        let soc = &mut *targets.soc;
        let r = soc.bus.read(now, MasterId::DEBUG, addr, 16, &soc.mem);
        AttackStepResult {
            achieved: r.is_ok(),
            effects: vec![],
        }
    }
}

/// Packet flood against the NIC.
#[derive(Debug, Clone)]
pub struct NetworkFloodAttack {
    packets_per_step: u32,
    steps: u32,
}

impl NetworkFloodAttack {
    /// Creates a flood delivering `packets_per_step` per step for `steps`.
    pub fn new(packets_per_step: u32, steps: u32) -> Self {
        NetworkFloodAttack {
            packets_per_step,
            steps,
        }
    }
}

impl AttackInjector for NetworkFloodAttack {
    fn kind(&self) -> AttackKind {
        AttackKind::NetworkFlood
    }

    fn steps(&self) -> u32 {
        self.steps
    }

    fn inject_step(
        &mut self,
        _step: u32,
        now: SimTime,
        targets: &mut AttackTargets<'_>,
    ) -> AttackStepResult {
        let mut accepted = 0u32;
        for i in 0..self.packets_per_step {
            if targets.soc.nic.deliver(Packet {
                src: 0xDEAD,
                dst: 1,
                len: 64,
                kind: PacketKind::Command,
                at: now + cres_sim::SimDuration::cycles(u64::from(i)),
            }) {
                accepted += 1;
            }
        }
        AttackStepResult {
            achieved: accepted > 0,
            effects: vec![],
        }
    }
}

/// Exploit-signature (malformed) traffic.
#[derive(Debug, Clone)]
pub struct MalformedTrafficAttack {
    count_per_step: u32,
    steps: u32,
}

impl MalformedTrafficAttack {
    /// Creates the attack sending `count_per_step` malformed packets per
    /// step.
    pub fn new(count_per_step: u32, steps: u32) -> Self {
        MalformedTrafficAttack {
            count_per_step,
            steps,
        }
    }
}

impl AttackInjector for MalformedTrafficAttack {
    fn kind(&self) -> AttackKind {
        AttackKind::ExploitTraffic
    }

    fn steps(&self) -> u32 {
        self.steps
    }

    fn inject_step(
        &mut self,
        _step: u32,
        now: SimTime,
        targets: &mut AttackTargets<'_>,
    ) -> AttackStepResult {
        let mut any = false;
        for _ in 0..self.count_per_step {
            any |= targets.soc.nic.deliver(Packet {
                src: 0xBAD,
                dst: 1,
                len: 999,
                kind: PacketKind::Malformed,
                at: now,
            });
        }
        AttackStepResult {
            achieved: any,
            effects: vec![],
        }
    }
}

/// Bulk exfiltration over the NIC from a compromised task.
#[derive(Debug, Clone)]
pub struct ExfilAttack {
    bytes_per_step: u32,
    steps: u32,
    bytes_exfiltrated: u64,
}

impl ExfilAttack {
    /// Creates the attack exfiltrating `bytes_per_step` per step.
    pub fn new(bytes_per_step: u32, steps: u32) -> Self {
        ExfilAttack {
            bytes_per_step,
            steps,
            bytes_exfiltrated: 0,
        }
    }

    /// Bytes that actually left the device (attacker win metric).
    pub fn bytes_exfiltrated(&self) -> u64 {
        self.bytes_exfiltrated
    }
}

impl AttackInjector for ExfilAttack {
    fn kind(&self) -> AttackKind {
        AttackKind::Exfiltration
    }

    fn steps(&self) -> u32 {
        self.steps
    }

    fn inject_step(
        &mut self,
        _step: u32,
        now: SimTime,
        targets: &mut AttackTargets<'_>,
    ) -> AttackStepResult {
        let sent = targets.soc.nic.send(Packet {
            src: 1,
            dst: 0x6666,
            len: self.bytes_per_step,
            kind: PacketKind::Exfil,
            at: now,
        });
        if sent {
            self.bytes_exfiltrated += u64::from(self.bytes_per_step);
        }
        AttackStepResult {
            achieved: sent,
            effects: vec![],
        }
    }
}

/// Sensor false-data injection.
#[derive(Debug, Clone)]
pub struct SensorSpoofAttack {
    sensor_idx: usize,
    mode: SensorSpoof,
}

impl SensorSpoofAttack {
    /// Creates a spoof of sensor `sensor_idx` using `mode`.
    pub fn new(sensor_idx: usize, mode: SensorSpoof) -> Self {
        SensorSpoofAttack { sensor_idx, mode }
    }
}

impl AttackInjector for SensorSpoofAttack {
    fn kind(&self) -> AttackKind {
        AttackKind::SensorSpoof
    }

    fn steps(&self) -> u32 {
        1
    }

    fn inject_step(
        &mut self,
        _step: u32,
        _now: SimTime,
        targets: &mut AttackTargets<'_>,
    ) -> AttackStepResult {
        let sensor = targets.soc.sensors.get_mut(self.sensor_idx);
        let achieved = sensor.is_some();
        if let Some(sensor) = sensor {
            sensor.spoof(self.mode);
        }
        AttackStepResult {
            achieved,
            effects: vec![],
        }
    }
}

/// Voltage/clock/thermal fault injection.
#[derive(Debug, Clone)]
pub struct FaultInjectionAttack {
    tamper: EnvTamper,
}

impl FaultInjectionAttack {
    /// Creates the attack applying `tamper`.
    pub fn new(tamper: EnvTamper) -> Self {
        FaultInjectionAttack { tamper }
    }
}

impl AttackInjector for FaultInjectionAttack {
    fn kind(&self) -> AttackKind {
        AttackKind::FaultInjection
    }

    fn steps(&self) -> u32 {
        1
    }

    fn inject_step(
        &mut self,
        _step: u32,
        _now: SimTime,
        targets: &mut AttackTargets<'_>,
    ) -> AttackStepResult {
        targets.soc.env.tamper(self.tamper);
        AttackStepResult {
            achieved: true,
            effects: vec![],
        }
    }
}

/// Anti-forensics: wipes the UART console log and the app-log region.
#[derive(Debug, Clone)]
pub struct LogWipeAttack {
    master: MasterId,
}

impl LogWipeAttack {
    /// Creates a log wipe performed by `master` (a compromised app core).
    pub fn new(master: MasterId) -> Self {
        LogWipeAttack { master }
    }
}

impl AttackInjector for LogWipeAttack {
    fn kind(&self) -> AttackKind {
        AttackKind::LogWipe
    }

    fn steps(&self) -> u32 {
        1
    }

    fn inject_step(
        &mut self,
        _step: u32,
        now: SimTime,
        targets: &mut AttackTargets<'_>,
    ) -> AttackStepResult {
        let soc = &mut *targets.soc;
        soc.uart.wipe();
        if let Some(region) = soc.mem.region_by_name("app_log") {
            let base = region.range().start;
            let len = region.range().len.min(256);
            let zeros = vec![0u8; len as usize];
            // the console wipe is the win; a denied region write still
            // reaches the bus and its monitors
            let _ = soc.bus.write(now, self.master, base, &zeros, &mut soc.mem);
        }
        AttackStepResult {
            achieved: true,
            effects: vec![],
        }
    }
}

/// Behavioural compromise: a task starts issuing off-profile syscalls.
#[derive(Debug, Clone)]
pub struct SyscallAnomalyAttack {
    victim: TaskId,
    sequence: Vec<Syscall>,
    steps: u32,
}

impl SyscallAnomalyAttack {
    /// Creates the attack making `victim` issue `sequence` each step.
    pub fn new(victim: TaskId, sequence: Vec<Syscall>, steps: u32) -> Self {
        SyscallAnomalyAttack {
            victim,
            sequence,
            steps,
        }
    }
}

impl AttackInjector for SyscallAnomalyAttack {
    fn kind(&self) -> AttackKind {
        AttackKind::SyscallAnomaly
    }

    fn steps(&self) -> u32 {
        self.steps
    }

    fn inject_step(
        &mut self,
        _step: u32,
        _now: SimTime,
        _targets: &mut AttackTargets<'_>,
    ) -> AttackStepResult {
        AttackStepResult {
            achieved: true,
            effects: vec![AttackEffect::SyscallsEmitted(
                self.victim,
                self.sequence.clone(),
            )],
        }
    }
}

/// Crashes the firmware: halts every application core (a wild pointer
/// deref / lockup), leaving the watchdog as the only witness. This is the
/// one attack class the passive baseline *can* detect.
#[derive(Debug, Clone, Default)]
pub struct SystemHangAttack;

impl SystemHangAttack {
    /// Creates the attack.
    pub fn new() -> Self {
        SystemHangAttack
    }
}

impl AttackInjector for SystemHangAttack {
    fn kind(&self) -> AttackKind {
        AttackKind::SystemHang
    }

    fn steps(&self) -> u32 {
        1
    }

    fn inject_step(
        &mut self,
        _step: u32,
        _now: SimTime,
        targets: &mut AttackTargets<'_>,
    ) -> AttackStepResult {
        for core in &mut targets.soc.cores {
            core.halt();
        }
        AttackStepResult {
            achieved: true,
            effects: vec![],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cres_soc::periph::Sensor;
    use cres_soc::soc::{layout, SocBuilder};
    use cres_soc::task::{control_loop_program, Criticality, Task};
    use cres_soc::Soc;

    fn soc() -> Soc {
        let mut soc = SocBuilder::with_standard_layout(11)
            .sensor(Sensor::new("s", 50.0, 0.1, 1000, 0.01))
            .build();
        soc.add_task(
            Task::new(
                TaskId(1),
                "victim",
                control_loop_program(layout::FLASH_A.0, layout::SRAM.0, layout::PERIPH.0),
                Criticality::Critical,
            ),
            0,
        );
        soc
    }

    fn run_all(attack: &mut dyn AttackInjector, soc: &mut Soc) -> Vec<AttackStepResult> {
        let mut out = Vec::new();
        for step in 0..attack.steps() {
            let mut targets = AttackTargets { soc, slots: None };
            out.push(attack.inject_step(
                step,
                SimTime::at_cycle(u64::from(step) * 100),
                &mut targets,
            ));
        }
        out
    }

    #[test]
    fn code_injection_hijacks_task() {
        let mut s = soc();
        let mut a = CodeInjectionAttack::new(TaskId(1), BlockId(3), 2);
        let results = run_all(&mut a, &mut s);
        assert_eq!(results.len(), 2);
        assert!(results.iter().all(|r| r.achieved));
        // the hijack is armed: the next step takes the illegal edge
        let out = s.step_task(TaskId(1), SimTime::at_cycle(500)).unwrap();
        assert_eq!(out.edge.1, BlockId(3));
    }

    #[test]
    fn code_injection_on_missing_task_fails() {
        let mut s = soc();
        let mut a = CodeInjectionAttack::new(TaskId(42), BlockId(3), 1);
        let results = run_all(&mut a, &mut s);
        assert!(!results[0].achieved);
    }

    #[test]
    fn memory_probe_respects_isolation() {
        let mut s = soc();
        let ssm_region = s.mem.region_by_name("ssm_private").unwrap().id();
        s.mem.revoke(MasterId::CPU1, ssm_region);
        let mut a = MemoryProbeAttack::new(MasterId::CPU1, vec![layout::SSM_PRIVATE.0]);
        let results = run_all(&mut a, &mut s);
        assert!(!results[0].achieved);
        assert_eq!(a.secrets_read(), 0);
        // but an unprotected region is readable
        let mut a2 = MemoryProbeAttack::new(MasterId::CPU1, vec![layout::SRAM.0]);
        let results = run_all(&mut a2, &mut s);
        assert!(results[0].achieved);
        assert_eq!(a2.secrets_read(), 1);
    }

    #[test]
    fn firmware_tamper_leaves_bus_trace() {
        let mut s = soc();
        let before = s.bus.total_transactions();
        let mut a = FirmwareTamperAttack::new(MasterId::CPU0, layout::FLASH_A.0.offset(0x100));
        run_all(&mut a, &mut s);
        assert!(s.bus.total_transactions() > before);
    }

    #[test]
    fn downgrade_needs_slot_access() {
        let mut s = soc();
        let mut a = DowngradeAttack::new(vec![1, 2, 3]);
        let mut targets = AttackTargets {
            soc: &mut s,
            slots: None,
        };
        assert!(!a.inject_step(0, SimTime::ZERO, &mut targets).achieved);
        let mut slots = cres_boot::SlotStore::new(vec![9, 9, 9]);
        let mut targets = AttackTargets {
            soc: &mut s,
            slots: Some(&mut slots),
        };
        assert!(a.inject_step(0, SimTime::ZERO, &mut targets).achieved);
        assert_eq!(slots.active_bytes(), &[1, 2, 3]);
    }

    #[test]
    fn flood_fills_rx_log() {
        let mut s = soc();
        let mut a = NetworkFloodAttack::new(200, 2);
        let results = run_all(&mut a, &mut s);
        assert!(results.iter().all(|r| r.achieved));
        assert_eq!(s.nic.rx_log().len(), 400);
    }

    #[test]
    fn exfil_blocked_by_quarantine() {
        let mut s = soc();
        let mut a = ExfilAttack::new(4096, 3);
        let mut targets = AttackTargets {
            soc: &mut s,
            slots: None,
        };
        assert!(a.inject_step(0, SimTime::ZERO, &mut targets).achieved);
        s.nic.quarantine();
        let mut targets = AttackTargets {
            soc: &mut s,
            slots: None,
        };
        assert!(
            !a.inject_step(1, SimTime::at_cycle(1), &mut targets)
                .achieved
        );
        assert_eq!(a.bytes_exfiltrated(), 4096);
    }

    #[test]
    fn sensor_spoof_and_fault_injection_flip_state() {
        let mut s = soc();
        let mut spoof = SensorSpoofAttack::new(0, SensorSpoof::Fixed(99.0));
        run_all(&mut spoof, &mut s);
        assert!(s.sensors[0].is_spoofed());
        let mut fault = FaultInjectionAttack::new(EnvTamper::VoltageGlitch(1.0));
        run_all(&mut fault, &mut s);
        assert!(s.env.is_tampered());
    }

    #[test]
    fn log_wipe_clears_console() {
        let mut s = soc();
        s.uart.write_line("incident evidence line");
        let mut a = LogWipeAttack::new(MasterId::CPU0);
        run_all(&mut a, &mut s);
        assert!(s.uart.lines().is_empty());
    }

    #[test]
    fn syscall_anomaly_routes_effects() {
        let mut s = soc();
        let mut a = SyscallAnomalyAttack::new(
            TaskId(1),
            vec![Syscall::PrivEscalate, Syscall::FirmwareWrite],
            2,
        );
        let results = run_all(&mut a, &mut s);
        assert_eq!(results.len(), 2);
        match &results[0].effects[0] {
            AttackEffect::SyscallsEmitted(task, calls) => {
                assert_eq!(*task, TaskId(1));
                assert_eq!(calls.len(), 2);
            }
        }
    }

    #[test]
    fn dma_exfil_two_phases() {
        let mut s = soc();
        // allow DMA everything (default grants) — copy succeeds
        let mut a = DmaExfilAttack::new(layout::TEE_SECURE.0, layout::SRAM.0.offset(0x2000), 32);
        let results = run_all(&mut a, &mut s);
        assert!(results[0].achieved);
        assert!(results[1].achieved);
        assert_eq!(a.copies_done(), 1);
        // with DMA locked out of tee_secure, theft fails
        let mut s2 = soc();
        let tee_region = s2.mem.region_by_name("tee_secure").unwrap().id();
        s2.mem.revoke(MasterId::DMA, tee_region);
        let mut a2 = DmaExfilAttack::new(layout::TEE_SECURE.0, layout::SRAM.0.offset(0x2000), 32);
        let results = run_all(&mut a2, &mut s2);
        assert!(!results[0].achieved);
    }

    #[test]
    fn debug_port_scan() {
        let mut s = soc();
        let mut a = DebugPortAttack::new(vec![layout::SRAM.0, layout::TEE_SECURE.0]);
        let results = run_all(&mut a, &mut s);
        assert_eq!(results.len(), 2);
        // leaves DEBUG-master records for the bus monitor
        assert!(s.bus.stats(MasterId::DEBUG).granted + s.bus.stats(MasterId::DEBUG).denied > 0);
    }

    #[test]
    fn every_attack_declares_ground_truth() {
        for kind in AttackKind::ALL {
            assert!(
                !kind.detectable_by().is_empty(),
                "{kind} lacks ground truth"
            );
            let injector = crate::catalog::try_build(kind.name()).expect("catalog attack");
            assert!(injector.steps() > 0, "{kind} has no steps");
        }
        // names unique
        let names: std::collections::HashSet<_> = AttackKind::ALL.map(AttackKind::name).into();
        assert_eq!(names.len(), AttackKind::ALL.len());
    }
}
