//! The assembled platform.

use crate::config::{PlatformConfig, PlatformProfile};
use crate::faultplane::FaultPlane;
use crate::provision::{provision, Provisioned};
use crate::telemetry::TelemetryRecorder;
use cres_attacks::{AttackEffect, AttackInjector, AttackStepResult, AttackTargets};
use cres_boot::chain::BootReport;
use cres_boot::{BootChain, FirmwareImage, ImageSigner, MemArbCounters, SlotStore, UpdateEngine};
use cres_crypto::rsa::RsaPublicKey;
use cres_monitor::bus_mon::AccessWindow;
use cres_monitor::io_mon::SensorEnvelope;
use cres_monitor::{
    BusPolicyMonitor, CfiMonitor, EnvMonitor, MemoryGuardMonitor, MonitorEvent, NetworkMonitor,
    ResourceMonitor, SensorMonitor, SyscallMonitor, TaintMonitor, WatchdogMonitor,
};
use cres_monitor::{Severity, Subject};
use cres_response::{BreakerKey, PolicyDecision, RecoveryBackend, ResponseManager, ResponsePolicy};
use cres_sim::{MonitorId, SimDuration, SimTime};
use cres_soc::addr::MasterId;
use cres_soc::periph::{Actuator, Sensor};
use cres_soc::soc::{layout, SocBuilder};
use cres_soc::task::{Criticality, Syscall, Task, TaskId, TaskState};
use cres_soc::Soc;
use cres_ssm::{
    CorrelationConfig, DegradationTier, HealthState, ResponsePlan, SsmConfig, SystemSecurityManager,
};
use cres_tee::Tee;
use std::mem;

/// A registered attack with its step cursor.
struct AttackSlot {
    injector: Box<dyn AttackInjector>,
    next_step: u32,
    achieved: u32,
}

/// The recovery backend view over the platform's firmware and key state.
struct BackendView<'a> {
    update: &'a mut UpdateEngine,
    slots: &'a mut SlotStore,
    tee: &'a mut Tee,
    sig_len: usize,
    key: &'a RsaPublicKey,
}

impl RecoveryBackend for BackendView<'_> {
    fn rollback_firmware(&mut self) -> Result<(), String> {
        let fallback = self.slots.active().other();
        if self.slots.slot(fallback).is_empty() {
            return Err("no fallback slot".into());
        }
        // Recovery-partition semantics: the fallback image must still be
        // authentic (signature), but rolling back past the ARB counter is
        // an explicit recovery decision, not an attack.
        let image = FirmwareImage::from_bytes(self.slots.slot(fallback), self.sig_len)
            .map_err(|e| format!("fallback unparsable: {e}"))?;
        image
            .verify(self.key)
            .map_err(|e| format!("fallback not authentic: {e}"))?;
        self.slots.set_active(fallback);
        Ok(())
    }

    fn golden_recovery(&mut self) -> Result<(), String> {
        self.update.recover_golden(self.slots);
        Ok(())
    }

    fn zeroize_keys(&mut self) -> Result<(), String> {
        self.tee.zeroize_keys();
        Ok(())
    }
}

/// Maps an incident subject to the circuit breaker that meters it.
/// Memory regions and the environment roll up to the platform breaker —
/// neither is a resource countermeasures can isolate on its own.
fn breaker_key(subject: Subject) -> BreakerKey {
    match subject {
        Subject::Master(m) => BreakerKey::Master(m),
        Subject::Task(t) => BreakerKey::Task(t),
        Subject::Network => BreakerKey::Network,
        Subject::Sensor(index) => BreakerKey::Sensor(index),
        Subject::Region(_) | Subject::Environment | Subject::Platform => BreakerKey::Platform,
    }
}

/// Severity → tier-pressure weight. Info and Warning are routine noise
/// (weight 1); Alert and Critical escalate the posture faster.
fn severity_weight(severity: Severity) -> u32 {
    match severity {
        Severity::Info | Severity::Warning => 1,
        Severity::Alert => 2,
        Severity::Critical => 3,
    }
}

/// The cyber-resilient embedded platform (or one of its baselines).
pub struct Platform {
    /// Configuration in force.
    pub config: PlatformConfig,
    /// The simulated SoC.
    pub soc: Soc,
    /// The trusted execution environment.
    pub tee: Tee,
    /// The boot chain.
    pub chain: BootChain,
    /// Firmware slots.
    pub slots: SlotStore,
    /// Update engine.
    pub update: UpdateEngine,
    /// Anti-rollback counters (the OTP view).
    pub arb: MemArbCounters,
    /// The system security manager.
    pub ssm: SystemSecurityManager,
    /// The active response manager.
    pub response: ResponseManager,
    /// The vendor's public verification key.
    pub vendor_public: RsaPublicKey,
    /// The image signer (factory side; experiments mint images with it).
    pub signer: ImageSigner,
    /// Boot report from initial power-on.
    pub boot_report: BootReport,
    /// Control-flow integrity monitor (fed per task step).
    pub cfi: CfiMonitor,
    /// Syscall-sequence monitor (fed per task step).
    pub syscall_mon: SyscallMonitor,
    monitors: Vec<Box<dyn ResourceMonitor>>,
    /// Interned id of each periodic monitor, index-aligned with `monitors`.
    monitor_ids: Vec<MonitorId>,
    /// Interned id of the CFI monitor.
    cfi_id: MonitorId,
    /// Interned id of the syscall monitor.
    syscall_id: MonitorId,
    /// Reusable sampling buffer: cleared, never shrunk, so the steady-state
    /// sample→ingest tick performs no heap allocation.
    event_buf: Vec<MonitorEvent>,
    attacks: Vec<AttackSlot>,
    bootloader: Vec<u8>,
    evidence_key: Vec<u8>,
    /// The pipeline telemetry recorder; `None` when
    /// [`crate::telemetry::TelemetryConfig::enabled`] is off, making every
    /// instrumentation point a single branch.
    pub telemetry: Option<TelemetryRecorder>,
    /// The pipeline fault injector; `None` when
    /// [`crate::faultplane::FaultPlaneConfig::enabled`] is off — the
    /// disabled path draws no RNG and is byte-identical to a platform
    /// without a fault plane.
    pub faultplane: Option<FaultPlane>,
    /// The stateful response policy engine; `None` when
    /// [`cres_response::PolicyConfig::enabled`] is off — disabled, every
    /// plan executes exactly as the SSM planned it and the legacy boolean
    /// degraded-mode path is used, byte-identical to pre-policy builds.
    pub policy: Option<ResponsePolicy>,
    /// Incident count at the last policy tick; an unchanged count means
    /// the tick was quiet (hysteresis holdoffs advance, pressure decays).
    policy_last_incidents: usize,
    /// Accumulated monitor sampling cost (cycles) for E8.
    pub monitor_overhead_cycles: u64,
    /// Steps completed by `Critical` tasks (service-delivery metric).
    pub critical_steps: u64,
    /// Reboots observed.
    pub reboots: u32,
}

/// Reusable state salvaged from a finished platform, fed back into
/// [`Platform::build`] so a pooled rebuild does not reallocate the big
/// steady-state buffers. Every field is *content-reset* before reuse; only
/// capacity survives, so a pooled platform is bit-identical to a fresh one.
#[derive(Default)]
struct Recycled {
    /// The previous run's event buffer (cleared, capacity kept).
    event_buf: Vec<MonitorEvent>,
    /// The previous SSM: evidence-record and intern-table storage is kept.
    ssm: Option<SystemSecurityManager>,
    /// The previous telemetry recorder, reused (via
    /// [`TelemetryRecorder::reset`]) whenever the new config has telemetry
    /// on.
    telemetry: Option<TelemetryRecorder>,
}

impl Platform {
    /// Builds and boots a platform.
    pub fn new(config: PlatformConfig) -> Self {
        Self::build(config, provision(&config), Recycled::default())
    }

    /// Builds and boots a platform from already-provisioned factory state.
    ///
    /// [`crate::pool::PlatformPool`] uses this to skip re-running RSA key
    /// generation for every campaign job: [`provision`] is a pure function
    /// of `(seed, rsa_bits, TEE deployment)`, so a cached clone produces a
    /// platform bit-identical to [`Platform::new`].
    pub fn from_provisioned(config: PlatformConfig, provisioned: Provisioned) -> Self {
        Self::build(config, provisioned, Recycled::default())
    }

    /// Re-provisions this platform in place for a new job, reusing the
    /// event buffer, the SSM's evidence/intern storage and (when telemetry
    /// stays on) the telemetry recorder. Everything else is
    /// rebuilt exactly as [`Platform::from_provisioned`] would — the pooled
    /// run is bit-identical to a fresh one (pinned by proptest).
    pub fn reset(&mut self, config: PlatformConfig, provisioned: Provisioned) {
        let mut event_buf = mem::take(&mut self.event_buf);
        event_buf.clear();
        let telemetry = self.telemetry.take();
        // Placeholder SSM (empty key, no records) so the real one can be
        // moved into the rebuild and keep its buffers.
        let ssm = mem::replace(
            &mut self.ssm,
            SystemSecurityManager::new(SsmConfig::default(), &[]),
        );
        *self = Self::build(
            config,
            provisioned,
            Recycled {
                event_buf,
                ssm: Some(ssm),
                telemetry,
            },
        );
    }

    fn build(config: PlatformConfig, provisioned: Provisioned, recycled: Recycled) -> Self {
        let Provisioned {
            vendor,
            signer,
            chain,
            slots,
            update,
            tee,
            evidence_key,
            device_root_key: _,
            bootloader,
        } = provisioned;

        let mut soc = SocBuilder::with_standard_layout(config.seed)
            .watchdog_timeout(config.watchdog_timeout)
            .sensor(Sensor::new("grid_freq", 50.0, 0.05, 100_000, 0.002))
            .sensor(Sensor::new("line_temp", 40.0, 2.0, 1_000_000, 0.1))
            .actuator(Actuator::new("breaker", 0.0, 100.0))
            .build();

        // Load firmware into simulated flash for bus-level realism.
        let app = slots.active_bytes().to_vec();
        soc.mem.write_unchecked(
            layout::BOOT_ROM.0,
            &bootloader[..bootloader.len().min(0x1_0000)],
        );
        soc.mem
            .write_unchecked(layout::FLASH_A.0, &app[..app.len().min(0x4_0000)]);
        soc.otp
            .program("root_key_fp", &vendor.public.fingerprint())
            .expect("fresh OTP");

        Self::configure_isolation(&mut soc, config.profile);

        let ssm_config = SsmConfig {
            deployment: config.ssm_deployment(),
            correlation: CorrelationConfig {
                enabled: config.correlation_enabled,
                ..Default::default()
            },
            planner: config.planner_mode(),
            evidence_enabled: config.evidence_enabled,
        };
        let mut ssm = match recycled.ssm {
            Some(mut ssm) => {
                ssm.reset(ssm_config, &evidence_key);
                ssm
            }
            None => SystemSecurityManager::new(ssm_config, &evidence_key),
        };
        let response = ResponseManager::new(config.reboot_duration);

        let monitors = Self::build_monitors(&soc, &config);
        // Intern every monitor name once, at wiring time; events carry the
        // dense ids from here on and resolve back to names only at the
        // evidence/console/report edges.
        let monitor_ids: Vec<MonitorId> = monitors
            .iter()
            .map(|m| ssm.intern_monitor(m.name()))
            .collect();
        let cfi_id = ssm.intern_monitor("cfi");
        let syscall_id = ssm.intern_monitor("syscall");
        // The fault plane targets the periodic fleet (not CFI/syscall,
        // which are fed inline by the scheduler). Heartbeat liveness
        // tracking is armed only alongside it, so fault-free platforms are
        // bit-identical to builds without a fault plane.
        let faultplane = config.faultplane.enabled.then(|| {
            ssm.init_monitor_health(monitors.len(), config.monitor_period, 3);
            FaultPlane::new(config.faultplane, config.seed, monitors.len())
        });

        // Initial measured boot.
        let sig_len = vendor.public.modulus_len();
        let bl_image = FirmwareImage::from_bytes(&bootloader, sig_len).expect("bootloader parses");
        let mut arb = MemArbCounters::new();
        let boot_report = match FirmwareImage::from_bytes(slots.active_bytes(), sig_len) {
            Ok(app_image) => chain.boot(&[&bl_image, &app_image], &mut arb),
            Err(_) => chain.boot(&[&bl_image], &mut arb),
        };

        let mut platform = Platform {
            config,
            soc,
            tee,
            chain,
            slots,
            update,
            arb,
            ssm,
            response,
            vendor_public: vendor.public.clone(),
            signer,
            boot_report,
            cfi: CfiMonitor::new(),
            syscall_mon: SyscallMonitor::new([Syscall::PrivEscalate]),
            monitors,
            monitor_ids,
            cfi_id,
            syscall_id,
            event_buf: recycled.event_buf,
            attacks: Vec::new(),
            bootloader,
            evidence_key,
            telemetry: config.telemetry.enabled.then(|| match recycled.telemetry {
                Some(mut recorder) => {
                    recorder.reset();
                    recorder
                }
                None => TelemetryRecorder::new(),
            }),
            faultplane,
            policy: config
                .policy
                .enabled
                .then(|| ResponsePolicy::new(config.policy)),
            policy_last_incidents: 0,
            monitor_overhead_cycles: 0,
            critical_steps: 0,
            reboots: 0,
        };
        platform.log_console(
            SimTime::ZERO,
            &format!(
                "boot: {}",
                if platform.boot_report.booted() {
                    "ok"
                } else {
                    "FAILED"
                }
            ),
        );
        // The measured-boot result is the first evidence record: PCR values
        // commit to the exact boot path.
        let pcr_summary: Vec<String> = platform.boot_report.pcrs[..3]
            .iter()
            .map(|p| cres_crypto::hex::encode(&p[..8]))
            .collect();
        platform.ssm.record_note(
            SimTime::ZERO,
            "boot",
            &format!(
                "measured boot {}; pcr0..2 = {}",
                if platform.boot_report.booted() {
                    "verified"
                } else {
                    "FAILED"
                },
                pcr_summary.join(" ")
            ),
        );
        platform
    }

    /// Applies the permission-matrix topology for a profile.
    fn configure_isolation(soc: &mut Soc, profile: PlatformProfile) {
        let region = |soc: &Soc, name: &str| soc.mem.region_by_name(name).unwrap().id();
        let ssm_private = region(soc, "ssm_private");
        let tee_secure = region(soc, "tee_secure");
        match profile {
            PlatformProfile::CyberResilient => {
                // SSM-private memory: SSM only.
                for m in MasterId::ALL {
                    if m != MasterId::SSM {
                        soc.mem.revoke(m, ssm_private);
                    }
                }
                // TEE memory: secure coprocessor model — only the SSM core
                // (standing in for the secure element) touches it.
                for m in MasterId::ALL {
                    if m != MasterId::SSM {
                        soc.mem.revoke(m, tee_secure);
                    }
                }
            }
            PlatformProfile::PassiveTrust | PlatformProfile::TeeShared => {
                // Shared-resource topology: CPU0 legitimately maps the
                // secure world (TrustZone-style time sharing) — and with it
                // inherits the attack surface. SSM-private is nominally
                // protected from DMA/NIC/DEBUG but reachable from app cores
                // (there is no separate security processor).
                for m in [MasterId::DMA, MasterId::NIC, MasterId::DEBUG] {
                    soc.mem.revoke(m, ssm_private);
                }
            }
        }
    }

    fn build_monitors(soc: &Soc, config: &PlatformConfig) -> Vec<Box<dyn ResourceMonitor>> {
        let mut monitors: Vec<Box<dyn ResourceMonitor>> = vec![Box::new(WatchdogMonitor::new())];
        if !config.active_monitors() {
            return monitors;
        }
        let r = |name: &str| soc.mem.region_by_name(name).unwrap().id();
        let mut windows = Vec::new();
        // Mission policy: application cores run code from flash, use SRAM,
        // the log buffer and peripherals. Nothing else.
        for cpu in 0..4 {
            let m = MasterId::cpu(cpu);
            windows.push(AccessWindow {
                master: m,
                region: r("flash_a"),
                read: true,
                write: false,
                exec: true,
            });
            windows.push(AccessWindow {
                master: m,
                region: r("flash_b"),
                read: true,
                write: false,
                exec: true,
            });
            windows.push(AccessWindow {
                master: m,
                region: r("boot_rom"),
                read: true,
                write: false,
                exec: true,
            });
            windows.push(AccessWindow {
                master: m,
                region: r("sram"),
                read: true,
                write: true,
                exec: true,
            });
            windows.push(AccessWindow {
                master: m,
                region: r("periph"),
                read: true,
                write: true,
                exec: false,
            });
        }
        // Only the logger core writes the audit log; a wipe from any other
        // master is out-of-policy even though the MPU permits it.
        for m in [MasterId::CPU2, MasterId::SSM] {
            windows.push(AccessWindow {
                master: m,
                region: r("app_log"),
                read: true,
                write: true,
                exec: false,
            });
        }
        // SSM may touch everything (it is the observer).
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
            windows.push(AccessWindow {
                master: MasterId::SSM,
                region: r(name),
                read: true,
                write: true,
                exec: true,
            });
        }
        // DMA serves peripheral/SRAM transfers only.
        windows.push(AccessWindow {
            master: MasterId::DMA,
            region: r("sram"),
            read: true,
            write: true,
            exec: false,
        });
        windows.push(AccessWindow {
            master: MasterId::DMA,
            region: r("periph"),
            read: true,
            write: true,
            exec: false,
        });
        // NIC DMA lands packets in SRAM.
        windows.push(AccessWindow {
            master: MasterId::NIC,
            region: r("sram"),
            read: true,
            write: true,
            exec: false,
        });

        monitors.push(Box::new(BusPolicyMonitor::new(windows, true)));
        monitors.push(Box::new(MemoryGuardMonitor::new(
            vec![r("ssm_private"), r("tee_secure")],
            vec![r("flash_a"), r("flash_b")],
        )));
        monitors.push(Box::new(NetworkMonitor::new(64, 2_048)));
        monitors.push(Box::new(SensorMonitor::new(
            0,
            SensorEnvelope {
                min: 47.0,
                max: 53.0,
                max_step: 0.5,
            },
        )));
        monitors.push(Box::new(SensorMonitor::new(
            1,
            SensorEnvelope {
                min: -10.0,
                max: 90.0,
                max_step: 8.0,
            },
        )));
        monitors.push(Box::new(EnvMonitor::default()));
        monitors.push(Box::new(TaintMonitor::new(
            vec![r("tee_secure"), r("ssm_private")],
            vec![r("periph")],
            cres_sim::SimDuration::cycles(200_000),
        )));
        monitors
    }

    /// Number of deployed monitors (including CFI and syscall monitors on
    /// profiles that run them).
    pub fn monitor_count(&self) -> usize {
        self.monitors.len() + if self.config.active_monitors() { 2 } else { 0 }
    }

    /// The evidence key (for forensic verification in experiments).
    pub fn evidence_key(&self) -> &[u8] {
        &self.evidence_key
    }

    /// The bootloader image bytes.
    pub fn bootloader_bytes(&self) -> &[u8] {
        &self.bootloader
    }

    /// Adds a workload task on `core`, provisioning the CFI monitor with
    /// its edge set.
    pub fn add_task(&mut self, task: Task, core: usize) {
        self.cfi.provision(task.id(), task.program().edge_set());
        self.soc.add_task(task, core);
    }

    /// Registers an attack; returns its index for step scheduling.
    pub fn add_attack(&mut self, injector: Box<dyn AttackInjector>) -> usize {
        self.attacks.push(AttackSlot {
            injector,
            next_step: 0,
            achieved: 0,
        });
        self.attacks.len() - 1
    }

    /// Registered attack injectors (ground-truth access for scoring).
    pub fn attack(&self, idx: usize) -> &dyn AttackInjector {
        self.attacks[idx].injector.as_ref()
    }

    /// Number of registered attacks.
    pub fn attack_count(&self) -> usize {
        self.attacks.len()
    }

    /// `(steps executed, steps achieved)` for attack `idx`.
    pub fn attack_stats(&self, idx: usize) -> (u32, u32) {
        let slot = &self.attacks[idx];
        (slot.next_step, slot.achieved)
    }

    /// Executes the next step of attack `idx`. Returns `None` when the
    /// attack has no steps left, else the step result.
    pub fn attack_step(&mut self, idx: usize, now: SimTime) -> Option<AttackStepResult> {
        let expose = self.config.expose_slots_to_attacker;
        let slot = &mut self.attacks[idx];
        if slot.next_step >= slot.injector.steps() {
            return None;
        }
        let step = slot.next_step;
        slot.next_step += 1;
        let mut targets = AttackTargets {
            soc: &mut self.soc,
            slots: if expose { Some(&mut self.slots) } else { None },
        };
        let result = slot.injector.inject_step(step, now, &mut targets);
        if result.achieved {
            slot.achieved += 1;
        }
        for effect in &result.effects {
            match effect {
                AttackEffect::SyscallsEmitted(task, calls) => {
                    self.syscall_mon.report_syscalls(now, *task, calls);
                }
            }
        }
        Some(result)
    }

    /// Steps a task, routing its telemetry into the CFI and syscall
    /// monitors and kicking the watchdog for critical tasks. Returns the
    /// delay until the task should step again, or `None` when it cannot run.
    pub fn step_task_and_observe(&mut self, id: TaskId, now: SimTime) -> Option<SimDuration> {
        let out = self.soc.step_task(id, now)?;
        if self.config.active_monitors() {
            self.cfi.report_edge(now, id, out.edge);
            self.syscall_mon.report_syscalls(now, id, &out.syscalls);
        }
        if let Some(task) = self.soc.task(id) {
            if task.criticality() == Criticality::Critical {
                self.soc.watchdog.kick(now);
                self.critical_steps += 1;
            }
        }
        Some(out.next_delay)
    }

    /// Samples every monitor into the platform's reusable event buffer,
    /// charging the overhead account. Returns the number of events
    /// collected; feed them onward with [`Platform::ingest_sampled`].
    ///
    /// When the fault plane is armed this is the faulty interconnect:
    /// crashed monitors are skipped permanently, stalled monitors skip the
    /// round (neither produces a heartbeat), the batch is routed through
    /// [`FaultPlane::filter_events`] (loss/retry, delay, reorder,
    /// corruption — due delayed events from earlier batches are delivered
    /// first), and the SSM's heartbeat liveness sweep runs so a dead
    /// monitor is quarantined instead of silently trusted.
    pub fn sample_monitors_buffered(&mut self, now: SimTime) -> usize {
        let events = &mut self.event_buf;
        events.clear();
        let sink = &mut self.telemetry;
        for (index, m) in self.monitors.iter_mut().enumerate() {
            if let Some(fp) = self.faultplane.as_mut() {
                if fp.is_crashed(index, now) {
                    continue; // dead: no sample, no heartbeat
                }
                if fp.monitor_stalls(now, sink) {
                    continue; // stalled: skips the round and its heartbeat
                }
            }
            self.monitor_overhead_cycles += m.sample_cost();
            let start = events.len();
            m.sample_into_traced(&mut self.soc, now, events, sink);
            for e in &mut events[start..] {
                e.monitor = self.monitor_ids[index];
            }
            self.ssm.monitor_heartbeat(index, now);
        }
        if self.config.active_monitors() {
            self.monitor_overhead_cycles += self.cfi.sample_cost() + self.syscall_mon.sample_cost();
            let start = events.len();
            self.cfi
                .sample_into_traced(&mut self.soc, now, events, sink);
            for e in &mut events[start..] {
                e.monitor = self.cfi_id;
            }
            let start = events.len();
            self.syscall_mon
                .sample_into_traced(&mut self.soc, now, events, sink);
            for e in &mut events[start..] {
                e.monitor = self.syscall_id;
            }
        }
        if let Some(fp) = self.faultplane.as_mut() {
            fp.filter_events(now, events, sink);
            let quarantined = self.ssm.check_monitor_health(now, sink);
            for index in quarantined {
                self.soc.uart.write_line(format!(
                    "[{now}] ssm: monitor #{index} heartbeat lost; quarantined, sensing degraded"
                ));
            }
        }
        events.len()
    }

    /// Feeds the events collected by [`Platform::sample_monitors_buffered`]
    /// to the SSM and executes any resulting plans, keeping the reusable
    /// buffer. Returns the plans executed (the runner schedules recovery
    /// follow-ups). The steady-state no-incident path through here performs
    /// no heap allocation.
    pub fn ingest_sampled(&mut self, now: SimTime) -> Vec<ResponsePlan> {
        for e in &self.event_buf {
            // The baseline's console audit log (wipeable); the SSM's chain
            // is written inside ingest().
            if e.severity >= cres_monitor::Severity::Warning {
                self.soc.uart.write_line(format!(
                    "[{}] {} {}: {}",
                    e.at,
                    self.ssm.monitor_name(e.monitor),
                    e.subject,
                    e.rendered()
                ));
            }
        }
        let plans = self
            .ssm
            .ingest_traced(now, &self.event_buf, &mut self.telemetry);
        if self.policy.is_none() {
            for plan in &plans {
                self.execute_plan(plan, now);
            }
            return plans;
        }
        // Under the policy engine the runner must see what actually
        // executed (a suppressed reboot must not schedule a reboot
        // recovery window), so return the gated plans.
        let mut executed = Vec::with_capacity(plans.len());
        for plan in &plans {
            let gated = self.policy_gate_plan(plan, now);
            self.execute_plan(&gated, now);
            executed.push(gated);
        }
        executed
    }

    /// Routes one plan through the response policy engine: feeds the
    /// incident to the matching circuit breaker (fault pressure), converts
    /// `EnterDegradedMode` into a one-step tier raise, and suppresses
    /// global countermeasures behind open breakers. Identity when the
    /// policy engine is off.
    fn policy_gate_plan(&mut self, plan: &ResponsePlan, now: SimTime) -> ResponsePlan {
        let Some(mut policy) = self.policy.take() else {
            return plan.clone();
        };
        let (key, weight) = self
            .ssm
            .incidents()
            .iter()
            .rev()
            .find(|incident| incident.id == plan.incident)
            .map(|incident| {
                (
                    breaker_key(incident.subject),
                    severity_weight(incident.severity),
                )
            })
            .unwrap_or((BreakerKey::Platform, 1));
        let mut kept = Vec::with_capacity(plan.actions.len());
        let sink = &mut self.telemetry;
        let mut decisions = policy.on_incident(key, weight, now, sink);
        for &action in &plan.actions {
            if action == cres_ssm::ResponseAction::EnterDegradedMode {
                // the tier machine owns degradation now: a degrade
                // request raises one step (capped at CriticalOnly)
                // instead of flipping the legacy boolean posture
                decisions.extend(policy.request_degrade(key, now, sink));
                continue;
            }
            let (allowed, more) = policy.gate_action(key, action, now, sink);
            decisions.extend(more);
            if allowed {
                kept.push(action);
            }
        }
        self.policy = Some(policy);
        self.apply_policy_decisions(now, decisions);
        ResponsePlan {
            incident: plan.incident,
            actions: kept,
        }
    }

    /// Applies the side effects of policy decisions: tier changes reach
    /// the response manager's posture machinery and the SSM's evidence
    /// chain; breaker transitions are evidenced as policy notes. Every
    /// decision also lands on the console for the operator.
    fn apply_policy_decisions(&mut self, now: SimTime, decisions: Vec<PolicyDecision>) {
        for decision in decisions {
            match decision {
                PolicyDecision::TierRaised { from, to }
                | PolicyDecision::TierLowered { from, to } => {
                    self.response.apply_tier(from, to, &mut self.soc);
                    self.ssm.set_response_tier(now, from, to);
                    if to == DegradationTier::Full
                        && from > to
                        && self.ssm.health() != HealthState::Healthy
                    {
                        self.ssm.record_recovered(now);
                    }
                }
                _ => {
                    self.ssm.record_note(now, "policy", &decision.to_string());
                }
            }
            self.soc
                .uart
                .write_line(format!("[{now}] policy: {decision}"));
        }
    }

    /// One policy heartbeat: samples per-criticality service delivery and,
    /// on incident-free ticks, advances hysteresis holdoffs, decays
    /// pressure, settles breaker cooldowns, and steps the tier back toward
    /// [`DegradationTier::Full`]. Called by the runner once per monitor
    /// period; a no-op when the policy engine is off.
    pub fn policy_tick(&mut self, now: SimTime) {
        let Some(mut policy) = self.policy.take() else {
            return;
        };
        let mut critical = (0u64, 0u64);
        let mut noncritical = (0u64, 0u64);
        for id in self.soc.task_ids() {
            let Some(task) = self.soc.task(id) else {
                continue;
            };
            let class = if task.criticality() == Criticality::Critical {
                &mut critical
            } else {
                &mut noncritical
            };
            class.1 += 1;
            if task.state() == TaskState::Running {
                class.0 += 1;
            }
        }
        policy.sample_service(critical.0, critical.1, noncritical.0, noncritical.1);
        let incidents = self.ssm.incidents().len();
        let quiet = incidents == self.policy_last_incidents;
        self.policy_last_incidents = incidents;
        let decisions = if quiet {
            policy.quiet_tick(now, &mut self.telemetry)
        } else {
            Vec::new()
        };
        self.policy = Some(policy);
        self.apply_policy_decisions(now, decisions);
    }

    /// Executes one plan through the response manager with the real
    /// recovery backend, recording outcomes in the evidence chain.
    ///
    /// With the fault plane armed, each command first crosses the faulty
    /// SSM→backend interconnect: a dropped command (after retries) is
    /// recorded as a failed action in the forensic log and removed from the
    /// plan actually executed — including `EnterDegradedMode`, so a lost
    /// degrade command really is lost.
    pub fn execute_plan(&mut self, plan: &ResponsePlan, now: SimTime) {
        let plan = &self.drop_faulted_commands(plan, now);
        let mut backend = BackendView {
            update: &mut self.update,
            slots: &mut self.slots,
            tee: &mut self.tee,
            sig_len: self.vendor_public.modulus_len(),
            key: &self.vendor_public,
        };
        let results =
            self.response
                .execute_plan(plan, now, &mut self.soc, &mut backend, &mut self.telemetry);
        for r in &results {
            if matches!(
                r.action,
                cres_ssm::ResponseAction::RebootSystem
                    | cres_ssm::ResponseAction::RollbackFirmware
                    | cres_ssm::ResponseAction::GoldenRecovery
            ) && r.outcome.is_success()
            {
                self.reboots += 1;
            }
            self.ssm
                .record_response(now, &r.action.to_string(), r.outcome.is_success());
            self.soc
                .uart
                .write_line(format!("[{}] response {} -> {}", now, r.action, r.outcome));
        }
        if plan
            .actions
            .contains(&cres_ssm::ResponseAction::EnterDegradedMode)
        {
            self.ssm.record_degraded(now);
        }
    }

    /// Routes a plan's commands across the faulty interconnect, returning
    /// the plan that actually reaches the backend. Without a fault plane
    /// this is the identity.
    fn drop_faulted_commands(&mut self, plan: &ResponsePlan, now: SimTime) -> ResponsePlan {
        let Some(fp) = self.faultplane.as_mut() else {
            return plan.clone();
        };
        let mut kept = Vec::with_capacity(plan.actions.len());
        for &action in &plan.actions {
            if fp.drops_response(now, &mut self.telemetry) {
                let record = self.response.record_dropped(action, now);
                self.ssm.record_response(now, &action.to_string(), false);
                self.soc.uart.write_line(format!(
                    "[{now}] response {} -> {}",
                    record.action, record.outcome
                ));
            } else {
                kept.push(action);
            }
        }
        ResponsePlan {
            incident: plan.incident,
            actions: kept,
        }
    }

    /// Writes a console log line (the baseline's audit channel).
    pub fn log_console(&mut self, now: SimTime, line: &str) {
        self.soc.uart.write_line(format!("[{now}] {line}"));
    }

    /// Trains the syscall monitor by running every task `rounds` steps in a
    /// sandboxed pre-deployment pass, then freezes the model.
    pub fn train_syscall_monitor(&mut self, rounds: u32) {
        let ids = self.soc.task_ids();
        for _ in 0..rounds {
            for &id in &ids {
                if let Some(out) = self.soc.step_task(id, SimTime::ZERO) {
                    self.syscall_mon
                        .report_syscalls(SimTime::ZERO, id, &out.syscalls);
                }
            }
        }
        // discard any events the training produced
        let _ = self.syscall_mon.sample(&mut self.soc, SimTime::ZERO);
        self.syscall_mon.finish_training();
        // training traffic also hit the bus tap; flush the other monitors
        self.sample_monitors_buffered(SimTime::ZERO);
        self.monitor_overhead_cycles = 0;
        self.critical_steps = 0;
        // spans from the training flush are pre-deployment noise
        if let Some(recorder) = self.telemetry.as_mut() {
            recorder.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cres_soc::task::control_loop_program;

    fn platform(profile: PlatformProfile) -> Platform {
        let mut p = Platform::new(PlatformConfig::new(profile, 7));
        let program = control_loop_program(layout::FLASH_A.0, layout::SRAM.0, layout::PERIPH.0);
        p.add_task(
            Task::new(TaskId(1), "relay", program, Criticality::Critical),
            0,
        );
        p.train_syscall_monitor(30);
        p
    }

    #[test]
    fn cres_platform_boots_clean() {
        let p = platform(PlatformProfile::CyberResilient);
        assert!(p.boot_report.booted());
        assert!(p.monitor_count() >= 8);
    }

    #[test]
    fn baseline_has_only_watchdog() {
        let p = platform(PlatformProfile::PassiveTrust);
        assert!(p.boot_report.booted());
        assert_eq!(p.monitor_count(), 1); // watchdog only
    }

    #[test]
    fn isolation_topology_enforced() {
        let p = platform(PlatformProfile::CyberResilient);
        // app cores cannot read SSM-private memory
        assert!(p
            .soc
            .mem
            .read(MasterId::CPU0, layout::SSM_PRIVATE.0, 4)
            .is_err());
        assert!(p
            .soc
            .mem
            .read(MasterId::SSM, layout::SSM_PRIVATE.0, 4)
            .is_ok());
        // shared profile: app core CAN reach it
        let shared = platform(PlatformProfile::TeeShared);
        assert!(shared
            .soc
            .mem
            .read(MasterId::CPU0, layout::SSM_PRIVATE.0, 4)
            .is_ok());
    }

    #[test]
    fn benign_stepping_produces_no_incidents() {
        let mut p = platform(PlatformProfile::CyberResilient);
        let mut now = SimTime::at_cycle(1);
        for _ in 0..200 {
            if let Some(delay) = p.step_task_and_observe(TaskId(1), now) {
                now += delay;
            }
        }
        p.sample_monitors_buffered(now);
        let plans = p.ingest_sampled(now);
        assert!(plans.is_empty(), "benign workload triggered plans");
        assert!(p.ssm.incidents().is_empty());
        assert!(p.critical_steps >= 200);
    }

    #[test]
    fn code_injection_is_detected_and_answered() {
        let mut p = platform(PlatformProfile::CyberResilient);
        // a self-edge is illegal from every block in the control loop
        let gadget = p.soc.task(TaskId(1)).unwrap().current_block();
        let idx = p.add_attack(Box::new(cres_attacks::CodeInjectionAttack::new(
            TaskId(1),
            gadget,
            1,
        )));
        let mut now = SimTime::at_cycle(1);
        p.attack_step(idx, now).unwrap();
        // victim takes the hijacked edge
        for _ in 0..3 {
            if let Some(d) = p.step_task_and_observe(TaskId(1), now) {
                now += d;
            }
        }
        assert!(p.sample_monitors_buffered(now) > 0);
        let plans = p.ingest_sampled(now);
        assert!(!plans.is_empty(), "no response to code injection");
        assert_eq!(
            p.ssm.incidents()[0].kind,
            cres_ssm::IncidentKind::CodeInjection
        );
        assert!(p.ssm.evidence().verify().is_ok());
        assert!(p.response.is_degraded());
    }

    #[test]
    fn baseline_misses_code_injection() {
        let mut p = platform(PlatformProfile::PassiveTrust);
        let gadget = p.soc.task(TaskId(1)).unwrap().current_block();
        let idx = p.add_attack(Box::new(cres_attacks::CodeInjectionAttack::new(
            TaskId(1),
            gadget,
            1,
        )));
        let mut now = SimTime::at_cycle(1);
        p.attack_step(idx, now).unwrap();
        for _ in 0..3 {
            if let Some(d) = p.step_task_and_observe(TaskId(1), now) {
                now += d;
            }
        }
        // baseline has no CFI monitor feeding the SSM — its monitor list is
        // watchdog-only, and cfi events are only collected on CRES profiles
        p.sample_monitors_buffered(now);
        let plans = p.ingest_sampled(now);
        assert!(plans.is_empty());
        assert!(p.ssm.incidents().is_empty());
    }

    #[test]
    fn attack_steps_are_bounded() {
        let mut p = platform(PlatformProfile::CyberResilient);
        let idx = p.add_attack(Box::new(cres_attacks::NetworkFloodAttack::new(10, 2)));
        assert!(p.attack_step(idx, SimTime::at_cycle(1)).is_some());
        assert!(p.attack_step(idx, SimTime::at_cycle(2)).is_some());
        assert!(p.attack_step(idx, SimTime::at_cycle(3)).is_none());
        assert_eq!(p.attack(idx).injection_times().len(), 2);
    }
}
