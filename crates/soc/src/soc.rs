//! The assembled system-on-chip and its builder.
//!
//! [`Soc`] owns the memory map, the interconnect, four application cores,
//! the peripheral set and the task table. It exposes a *standard layout*
//! (see [`layout`]) that the boot, TEE, monitor and platform crates all
//! reference by name, so isolation configuration lives in one place.

use crate::addr::{Addr, AddrRange, MasterId, Perms};
use crate::bus::Bus;
use crate::cpu::Core;
use crate::mem::MemoryMap;
use crate::periph::{Actuator, DmaEngine, EnvSensors, Nic, OtpFuses, Sensor, Uart, Watchdog};
use crate::task::{StepOutcome, Task, TaskId};
use cres_sim::{DetRng, SimDuration, SimTime};

/// The standard memory layout used across the workspace.
pub mod layout {
    use crate::addr::Addr;

    /// Immutable boot ROM (first-stage loader + root key fingerprint).
    pub const BOOT_ROM: (Addr, u64) = (Addr(0x0000_0000), 0x1_0000);
    /// Firmware slot A.
    pub const FLASH_A: (Addr, u64) = (Addr(0x0800_0000), 0x4_0000);
    /// Firmware slot B.
    pub const FLASH_B: (Addr, u64) = (Addr(0x0880_0000), 0x4_0000);
    /// Golden recovery image (factory programmed).
    pub const FLASH_GOLD: (Addr, u64) = (Addr(0x0900_0000), 0x4_0000);
    /// General-purpose SRAM.
    pub const SRAM: (Addr, u64) = (Addr(0x2000_0000), 0x4_0000);
    /// Application log buffer (the baseline's only audit trail).
    pub const APP_LOG: (Addr, u64) = (Addr(0x2100_0000), 0x1_0000);
    /// TEE secure-world memory.
    pub const TEE_SECURE: (Addr, u64) = (Addr(0x3000_0000), 0x1_0000);
    /// Peripheral MMIO window.
    pub const PERIPH: (Addr, u64) = (Addr(0x4000_0000), 0x1_0000);
    /// The SSM's physically private memory.
    pub const SSM_PRIVATE: (Addr, u64) = (Addr(0x5000_0000), 0x1_0000);
}

/// The simulated SoC.
#[derive(Debug, Clone)]
pub struct Soc {
    /// Memory map + permission matrix (public: the whole workspace
    /// coordinates isolation through it).
    pub mem: MemoryMap,
    /// The interconnect.
    pub bus: Bus,
    /// The four application cores.
    pub cores: Vec<Core>,
    /// Console UART.
    pub uart: Uart,
    /// Network interface.
    pub nic: Nic,
    /// Physical sensors by name order of registration.
    pub sensors: Vec<Sensor>,
    /// Actuators by registration order.
    pub actuators: Vec<Actuator>,
    /// Hardware watchdog.
    pub watchdog: Watchdog,
    /// Environmental sensor block.
    pub env: EnvSensors,
    /// OTP fuse bank.
    pub otp: OtpFuses,
    /// DMA engine.
    pub dma: DmaEngine,
    /// Each task with the index of the core it runs on, in insertion
    /// order; a platform runs a handful, so lookups scan.
    tasks: Vec<(Task, usize)>,
    rng: DetRng,
}

impl Soc {
    /// Adds a task and assigns it to application core `core_idx`.
    ///
    /// # Panics
    ///
    /// Panics on duplicate task id or bad core index.
    pub fn add_task(&mut self, task: Task, core_idx: usize) {
        assert!(core_idx < self.cores.len(), "no core {core_idx}");
        assert!(
            self.task(task.id()).is_none(),
            "duplicate task {}",
            task.id()
        );
        self.cores[core_idx].assign(task.id());
        self.tasks.push((task, core_idx));
    }

    /// Looks up a task.
    pub fn task(&self, id: TaskId) -> Option<&Task> {
        self.tasks
            .iter()
            .find(|(t, _)| t.id() == id)
            .map(|(t, _)| t)
    }

    /// Mutable task access (countermeasures and attack injectors).
    pub fn task_mut(&mut self, id: TaskId) -> Option<&mut Task> {
        self.tasks
            .iter_mut()
            .find(|(t, _)| t.id() == id)
            .map(|(t, _)| t)
    }

    /// All task ids in insertion-independent sorted order.
    pub fn task_ids(&self) -> Vec<TaskId> {
        let mut ids: Vec<TaskId> = self.tasks.iter().map(|(t, _)| t.id()).collect();
        ids.sort();
        ids
    }

    /// Steps a task: returns `None` when the task or its core cannot run at
    /// `now` (halted, in reset, suspended, killed).
    pub fn step_task(&mut self, id: TaskId, now: SimTime) -> Option<StepOutcome<'_>> {
        let (task, core_idx) = self.tasks.iter_mut().find(|(t, _)| t.id() == id)?;
        let core = &self.cores[*core_idx];
        if !core.is_running(now) {
            return None;
        }
        task.step(
            now,
            core.master(),
            &mut self.bus,
            &mut self.mem,
            &mut self.rng,
        )
    }

    /// Reads sensor `idx` at `now` (uses the SoC's deterministic RNG for
    /// measurement noise).
    ///
    /// # Panics
    ///
    /// Panics for an unknown sensor index.
    pub fn read_sensor(&mut self, idx: usize, now: SimTime) -> f64 {
        let s = &mut self.sensors[idx];
        s.read(now, &mut self.rng)
    }

    /// Samples the environmental block at `now`.
    pub fn read_env(&mut self, now: SimTime) -> crate::periph::EnvReading {
        self.env.sample(now, &mut self.rng)
    }

    /// Resets every application core for `duration` — the baseline's
    /// "reboot the system" response.
    pub fn reboot_all_cores(&mut self, now: SimTime, duration: SimDuration) {
        for c in &mut self.cores {
            c.reset(now, duration);
        }
    }
}

/// Builder for [`Soc`].
///
/// # Example
///
/// ```
/// use cres_soc::soc::SocBuilder;
/// let soc = SocBuilder::with_standard_layout(42).build();
/// assert!(soc.mem.region_by_name("ssm_private").is_some());
/// assert_eq!(soc.cores.len(), 4);
/// ```
#[derive(Debug)]
pub struct SocBuilder {
    regions: Vec<(String, Addr, u64, Perms)>,
    sensors: Vec<Sensor>,
    actuators: Vec<Actuator>,
    watchdog_timeout: SimDuration,
    bus_ring: usize,
    seed: u64,
}

impl Default for SocBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl SocBuilder {
    /// Starts an empty builder (no regions).
    pub fn new() -> Self {
        SocBuilder {
            regions: Vec::new(),
            sensors: Vec::new(),
            actuators: Vec::new(),
            watchdog_timeout: SimDuration::cycles(1_000_000),
            bus_ring: 8192,
            seed: 0,
        }
    }

    /// Starts a builder pre-populated with the [`layout`] regions and their
    /// architectural permissions.
    pub fn with_standard_layout(seed: u64) -> Self {
        let mut b = SocBuilder::new().seed(seed);
        b = b
            .region(
                "boot_rom",
                layout::BOOT_ROM.0,
                layout::BOOT_ROM.1,
                Perms::rx(),
            )
            .region(
                "flash_a",
                layout::FLASH_A.0,
                layout::FLASH_A.1,
                Perms::rwx(),
            )
            .region(
                "flash_b",
                layout::FLASH_B.0,
                layout::FLASH_B.1,
                Perms::rwx(),
            )
            .region(
                "flash_gold",
                layout::FLASH_GOLD.0,
                layout::FLASH_GOLD.1,
                Perms::rx(),
            )
            .region("sram", layout::SRAM.0, layout::SRAM.1, Perms::rwx())
            .region("app_log", layout::APP_LOG.0, layout::APP_LOG.1, Perms::rw())
            .region(
                "tee_secure",
                layout::TEE_SECURE.0,
                layout::TEE_SECURE.1,
                Perms::rwx(),
            )
            .region("periph", layout::PERIPH.0, layout::PERIPH.1, Perms::rw())
            .region(
                "ssm_private",
                layout::SSM_PRIVATE.0,
                layout::SSM_PRIVATE.1,
                Perms::rwx(),
            );
        b
    }

    /// Sets the deterministic seed for SoC-internal randomness.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Adds a memory region.
    pub fn region(mut self, name: &str, base: Addr, len: u64, perms: Perms) -> Self {
        self.regions.push((name.to_string(), base, len, perms));
        self
    }

    /// Adds a sensor.
    pub fn sensor(mut self, sensor: Sensor) -> Self {
        self.sensors.push(sensor);
        self
    }

    /// Adds an actuator.
    pub fn actuator(mut self, actuator: Actuator) -> Self {
        self.actuators.push(actuator);
        self
    }

    /// Sets the watchdog timeout.
    pub fn watchdog_timeout(mut self, timeout: SimDuration) -> Self {
        self.watchdog_timeout = timeout;
        self
    }

    /// Sets the bus tap ring capacity.
    pub fn bus_ring(mut self, capacity: usize) -> Self {
        self.bus_ring = capacity;
        self
    }

    /// Builds the SoC.
    pub fn build(self) -> Soc {
        let mem = self.memory_map();
        let bus = Bus::new(self.bus_ring);
        self.assemble(mem, bus)
    }

    /// Builds the SoC into `old`'s storage: when `old` has the same regions
    /// its memory map is wiped and reused, and so is its tap ring when the
    /// capacity matches, so a pooled device allocates neither again. The
    /// SoC equals the one [`SocBuilder::build`] makes.
    pub fn rebuild(self, old: Soc) -> Soc {
        let Soc { mut mem, bus, .. } = old;
        let same_regions =
            mem.regions().len() == self.regions.len()
                && mem.regions().iter().zip(&self.regions).all(
                    |(region, (name, base, len, perms))| {
                        region.name() == name
                            && region.range() == AddrRange::new(*base, *len)
                            && region.base_perms() == *perms
                    },
                );
        if same_regions {
            mem.wipe();
        } else {
            mem = self.memory_map();
        }
        let bus = bus.renew(self.bus_ring);
        self.assemble(mem, bus)
    }

    /// A memory map holding the builder's regions.
    fn memory_map(&self) -> MemoryMap {
        let mut mem = MemoryMap::new();
        for (name, base, len, perms) in &self.regions {
            mem.add_region(name, *base, *len, *perms);
        }
        mem
    }

    /// The SoC around `mem` and `bus`, with everything else fresh.
    fn assemble(self, mem: MemoryMap, bus: Bus) -> Soc {
        Soc {
            mem,
            bus,
            cores: vec![
                Core::new(MasterId::CPU0),
                Core::new(MasterId::CPU1),
                Core::new(MasterId::CPU2),
                Core::new(MasterId::CPU3),
            ],
            uart: Uart::default(),
            nic: Nic::default(),
            sensors: self.sensors,
            actuators: self.actuators,
            watchdog: Watchdog::new(self.watchdog_timeout),
            env: EnvSensors::default(),
            otp: OtpFuses::new(),
            dma: DmaEngine::new(),
            tasks: Vec::new(),
            rng: DetRng::seed_from(self.seed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{control_loop_program, Criticality, Task, TaskId};

    fn soc_with_task() -> Soc {
        let mut soc = SocBuilder::with_standard_layout(7).build();
        let program = control_loop_program(layout::FLASH_A.0, layout::SRAM.0, layout::PERIPH.0);
        soc.add_task(
            Task::new(TaskId(1), "ctrl", program, Criticality::Critical),
            0,
        );
        soc
    }

    #[test]
    fn standard_layout_has_all_regions() {
        let soc = SocBuilder::with_standard_layout(0).build();
        for name in [
            "boot_rom",
            "flash_a",
            "flash_b",
            "flash_gold",
            "sram",
            "app_log",
            "tee_secure",
            "periph",
            "ssm_private",
        ] {
            assert!(soc.mem.region_by_name(name).is_some(), "{name} missing");
        }
    }

    #[test]
    fn task_steps_and_produces_traffic() {
        let mut soc = soc_with_task();
        let out = soc.step_task(TaskId(1), SimTime::ZERO).unwrap();
        assert!(!out.next_delay.is_zero());
        assert!(soc.bus.total_transactions() > 0);
    }

    #[test]
    fn halted_core_stops_its_tasks() {
        let mut soc = soc_with_task();
        soc.cores[0].halt();
        assert!(soc.step_task(TaskId(1), SimTime::ZERO).is_none());
        soc.cores[0].resume(SimTime::ZERO);
        assert!(soc.step_task(TaskId(1), SimTime::ZERO).is_some());
    }

    #[test]
    fn reboot_darkens_all_cores_until_deadline() {
        let mut soc = soc_with_task();
        soc.reboot_all_cores(SimTime::ZERO, SimDuration::cycles(500));
        assert!(soc.step_task(TaskId(1), SimTime::at_cycle(100)).is_none());
        assert!(soc.step_task(TaskId(1), SimTime::at_cycle(500)).is_some());
    }

    #[test]
    #[should_panic(expected = "duplicate task")]
    fn duplicate_task_panics() {
        let mut soc = soc_with_task();
        let p = control_loop_program(layout::FLASH_A.0, layout::SRAM.0, layout::PERIPH.0);
        soc.add_task(Task::new(TaskId(1), "dup", p, Criticality::BestEffort), 1);
    }

    #[test]
    fn unknown_task_is_none() {
        let mut soc = SocBuilder::with_standard_layout(0).build();
        assert!(soc.step_task(TaskId(99), SimTime::ZERO).is_none());
        assert!(soc.task(TaskId(99)).is_none());
    }

    #[test]
    fn task_ids_sorted() {
        let mut soc = SocBuilder::with_standard_layout(0).build();
        for id in [5u32, 1, 3] {
            let p = control_loop_program(layout::FLASH_A.0, layout::SRAM.0, layout::PERIPH.0);
            soc.add_task(Task::new(TaskId(id), "t", p, Criticality::BestEffort), 0);
        }
        assert_eq!(soc.task_ids(), vec![TaskId(1), TaskId(3), TaskId(5)]);
    }

    #[test]
    fn sensors_and_env_readable_via_soc() {
        let mut soc = SocBuilder::with_standard_layout(1)
            .sensor(Sensor::new("temp", 20.0, 1.0, 1000, 0.1))
            .build();
        let v = soc.read_sensor(0, SimTime::ZERO);
        assert!((v - 20.0).abs() < 2.0);
        let env = soc.read_env(SimTime::ZERO);
        assert!((env.voltage - 3.3).abs() < 0.2);
    }

    #[test]
    fn rebuild_reuses_storage_and_equals_a_fresh_build() {
        let mut old = soc_with_task();
        for at in 0..50 {
            old.step_task(TaskId(1), SimTime::at_cycle(at));
        }
        old.mem
            .write_unchecked(layout::SSM_PRIVATE.0.offset(0x80), &[7; 16]);
        let sram = old.mem.region_by_name("sram").unwrap().id();
        old.mem.revoke(MasterId::CPU1, sram);
        old.bus.gate(MasterId::DMA);
        assert!(old.bus.total_transactions() > 0);
        assert!(old.mem.region(sram).data().iter().any(|&b| b != 0));
        let sram_bytes = old.mem.region(sram).data().as_ptr();

        let mut reused = SocBuilder::with_standard_layout(7).rebuild(old);
        let mut fresh = SocBuilder::with_standard_layout(7).build();
        assert_eq!(reused.mem.region(sram).data().as_ptr(), sram_bytes);
        for (a, b) in reused.mem.regions().iter().zip(fresh.mem.regions()) {
            assert_eq!(
                (a.name(), a.range(), a.data()),
                (b.name(), b.range(), b.data())
            );
            for m in MasterId::ALL {
                assert_eq!(
                    reused.mem.effective_perms(m, a.id()),
                    fresh.mem.effective_perms(m, b.id())
                );
            }
        }
        assert_eq!(reused.bus.total_transactions(), 0);
        assert_eq!(reused.bus.gated_masters().count(), 0);
        assert!(reused.task_ids().is_empty());
        // Both now run the same task to the same traffic and bytes.
        for soc in [&mut reused, &mut fresh] {
            let program = control_loop_program(layout::FLASH_A.0, layout::SRAM.0, layout::PERIPH.0);
            soc.add_task(
                Task::new(TaskId(1), "ctrl", program, Criticality::Critical),
                0,
            );
            for at in 0..50 {
                soc.step_task(TaskId(1), SimTime::at_cycle(at));
            }
        }
        let poll = |soc: &Soc| soc.bus.poll(&mut Default::default()).0;
        assert_eq!(poll(&reused), poll(&fresh));
        for (a, b) in reused.mem.regions().iter().zip(fresh.mem.regions()) {
            assert_eq!(a.data(), b.data(), "{}", a.name());
        }
    }

    #[test]
    fn rebuild_with_another_layout_builds_fresh() {
        let old = soc_with_task();
        let soc = SocBuilder::new()
            .region("only", Addr(0x1000), 0x100, Perms::rw())
            .bus_ring(4)
            .rebuild(old);
        assert_eq!(soc.mem.regions().len(), 1);
        assert_eq!(soc.mem.regions()[0].data(), [0; 0x100]);
        assert_eq!(soc.bus.total_transactions(), 0);
    }

    #[test]
    fn same_seed_same_behaviour() {
        let run = |seed: u64| {
            let mut soc = SocBuilder::with_standard_layout(seed)
                .sensor(Sensor::new("s", 1.0, 0.5, 100, 0.05))
                .build();
            (0..50)
                .map(|i| soc.read_sensor(0, SimTime::at_cycle(i)))
                .collect::<Vec<f64>>()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }
}
