//! The discrete-event scenario runner.
//!
//! Drives the full detect→respond→recover loop over a queue of typed
//! events: workload tasks step and re-arm, monitors sample on their
//! period, the SSM ingests and plans, the response manager executes, and
//! recovery checks return the platform to health after a quiet window.
//! Attacks are scheduled scripts of injector steps.

use crate::config::PlatformConfig;
use crate::metrics::{matching_incident_kinds, AttackOutcomeReport, RunReport};
use crate::platform::Platform;
use crate::pool::{PlatformPool, ScoreScratch};
use cres_attacks::AttackInjector;
use cres_forensics::Timeline;
use cres_sim::{EventQueue, SimDuration, SimTime};
use cres_soc::periph::{Packet, PacketKind};
use cres_soc::soc::layout;
use cres_soc::task::{control_loop_program, Criticality, Task, TaskId};
use cres_ssm::{HealthState, ResponseAction};

/// One scheduled attack.
pub struct AttackSpec {
    /// When the first step fires.
    pub start: SimTime,
    /// Interval between steps.
    pub step_interval: SimDuration,
    /// The injector.
    pub injector: Box<dyn AttackInjector>,
}

/// A runnable scenario.
pub struct Scenario {
    /// Simulated duration.
    pub duration: SimDuration,
    /// Attacks to schedule.
    pub attacks: Vec<AttackSpec>,
    /// Period of benign background network traffic (None = no traffic).
    pub benign_packet_period: Option<SimDuration>,
    /// Pre-deployment syscall-model training rounds.
    pub training_rounds: u32,
    /// Install the default three-task workload (relay/telemetry/logger).
    pub default_workload: bool,
}

impl Scenario {
    /// An attack-free scenario of the given length.
    pub fn quiet(duration: SimDuration) -> Self {
        Scenario {
            duration,
            attacks: Vec::new(),
            benign_packet_period: Some(SimDuration::cycles(2_000)),
            training_rounds: 50,
            default_workload: true,
        }
    }

    /// Adds an attack starting at `start` with one step per
    /// `step_interval`.
    pub fn attack(
        mut self,
        start: SimTime,
        step_interval: SimDuration,
        injector: Box<dyn AttackInjector>,
    ) -> Self {
        self.attacks.push(AttackSpec {
            start,
            step_interval,
            injector,
        });
        self
    }
}

/// Interval between Merkle audit seals over the evidence chain (an
/// external auditor can then verify any single record without a full
/// replay).
const SEAL_PERIOD: SimDuration = SimDuration::cycles(250_000);

/// What a scenario run schedules. [`ScenarioRunner::run_on`] pops and
/// dispatches these in one `match`.
#[derive(Clone, Copy)]
enum Event {
    /// Step a workload task; re-arms at the task's next-step delay.
    TaskStep(TaskId),
    /// The next step of attack `idx`; re-arms every `interval` while the
    /// attack has steps left.
    AttackStep { idx: usize, interval: SimDuration },
    /// One round of benign background network traffic; re-arms every
    /// `period`.
    BenignTraffic { period: SimDuration },
    /// Monitor sampling and the detect/respond/recover loop; re-arms every
    /// monitor period.
    MonitorTick,
    /// A Merkle audit seal; re-arms every [`SEAL_PERIOD`].
    Seal,
    /// A reboot or rollback recovery has finished.
    RebootDone,
    /// A quiet window has ended: restore service if the incident count is
    /// still `incidents` and the platform is not healthy.
    QuietRecovery { incidents: usize },
}

/// Runs scenarios against a platform configuration.
pub struct ScenarioRunner {
    config: PlatformConfig,
}

impl ScenarioRunner {
    /// Creates a runner.
    pub fn new(config: PlatformConfig) -> Self {
        ScenarioRunner { config }
    }

    /// Installs the default workload: a critical protection-relay loop, a
    /// best-effort telemetry loop and an important logger loop.
    pub fn install_default_workload(platform: &mut Platform) {
        let relay = Task::new(
            TaskId(1),
            "protection-relay",
            control_loop_program(layout::FLASH_A.0, layout::SRAM.0, layout::PERIPH.0),
            Criticality::Critical,
        );
        let telemetry = Task::new(
            TaskId(2),
            "telemetry",
            control_loop_program(
                layout::FLASH_A.0.offset(0x2000),
                layout::SRAM.0.offset(0x2000),
                layout::PERIPH.0.offset(0x200),
            ),
            Criticality::BestEffort,
        );
        let logger = Task::new(
            TaskId(3),
            "logger",
            control_loop_program(
                layout::FLASH_A.0.offset(0x4000),
                layout::SRAM.0.offset(0x4000),
                layout::PERIPH.0.offset(0x400),
            ),
            Criticality::Important,
        );
        platform.add_task(relay, 0);
        platform.add_task(telemetry, 1);
        platform.add_task(logger, 2);
    }

    /// Builds the platform, runs the scenario and scores the result.
    pub fn run(self, scenario: Scenario) -> RunReport {
        self.run_keep(scenario).0
    }

    /// [`ScenarioRunner::run`], but hands back the finished platform
    /// alongside the report — the export plane reads the full trace ring,
    /// evidence chain and seal history from it post-hoc (the report's
    /// telemetry snapshot keeps only a 16-span tail). The report is
    /// bit-identical to [`ScenarioRunner::run`]'s.
    pub fn run_keep(self, scenario: Scenario) -> (RunReport, Platform) {
        let mut platform = Platform::new(self.config);
        let mut scratch = ScoreScratch::default();
        let report = self.run_on(&mut platform, scenario, &mut scratch);
        (report, platform)
    }

    /// [`ScenarioRunner::run`] on a pooled platform: acquires from `pool`
    /// (recycling the previous job's platform and provisioning cache),
    /// runs, scores with the pool's reusable scratch, and releases the
    /// platform back for the next job. The report is bit-identical to
    /// [`ScenarioRunner::run`]'s.
    pub fn run_pooled(&self, pool: &mut PlatformPool, scenario: Scenario) -> RunReport {
        let mut platform = pool.acquire(self.config);
        let report = self.run_on(&mut platform, scenario, pool.scratch_mut());
        pool.release(platform);
        report
    }

    fn run_on(
        &self,
        platform: &mut Platform,
        scenario: Scenario,
        scratch: &mut ScoreScratch,
    ) -> RunReport {
        if scenario.default_workload {
            Self::install_default_workload(platform);
        }
        if scenario.training_rounds > 0 {
            platform.train_syscall_monitor(scenario.training_rounds);
        }

        // Same-instant events pop in schedule order, so this scheduling
        // order and each periodic arm re-arming after its body are part of
        // the output bytes.
        let mut queue = EventQueue::new();
        for id in platform.soc.task_ids() {
            queue.schedule(SimTime::at_cycle(1), Event::TaskStep(id));
        }
        if let Some(period) = scenario.benign_packet_period {
            queue.schedule(SimTime::ZERO + period, Event::BenignTraffic { period });
        }
        let monitor_period = self.config.monitor_period;
        let recovery_window = self.config.recovery_window;
        let policy_enabled = self.config.policy.enabled;
        queue.schedule(SimTime::ZERO + monitor_period, Event::MonitorTick);
        queue.schedule(SimTime::ZERO + SEAL_PERIOD, Event::Seal);
        for spec in scenario.attacks {
            let idx = platform.add_attack(spec.injector);
            let interval = spec.step_interval;
            queue.schedule(spec.start, Event::AttackStep { idx, interval });
        }

        let horizon = SimTime::ZERO + scenario.duration;
        while let Some((now, event)) = queue.pop_until(horizon) {
            match event {
                Event::TaskStep(id) => {
                    // halted/killed/in-reset: poll again later (response
                    // actions may restart the task)
                    let delay = platform
                        .step_task_and_observe(id, now)
                        .unwrap_or(SimDuration::cycles(2_000));
                    queue.schedule(now + delay, event);
                }
                Event::AttackStep { idx, interval } => {
                    if platform.attack_step(idx, now).is_some() {
                        queue.schedule(now + interval, event);
                    }
                }
                Event::BenignTraffic { period } => {
                    let soc = &mut platform.soc;
                    soc.deliver_packet(Packet {
                        src: 2,
                        dst: 1,
                        len: 96,
                        kind: PacketKind::Command,
                        at: now,
                    });
                    soc.nic.send(Packet {
                        src: 1,
                        dst: 2,
                        len: 128,
                        kind: PacketKind::Telemetry,
                        at: now,
                    });
                    while soc.nic.receive().is_some() {}
                    soc.irq.acknowledge(cres_soc::periph::IrqLine::NicRx);
                    queue.schedule(now + period, event);
                }
                Event::MonitorTick => {
                    // Policy heartbeat first: service-availability sampling
                    // and hysteresis holdoffs advance even on quiet ticks
                    // (no-op when the policy engine is off).
                    platform.policy_tick(now);
                    // Buffered pair: the steady-state (no-event) tick reuses
                    // the platform's event buffer and performs no heap
                    // allocation.
                    let plans = match platform.sample_monitors_buffered(now) {
                        0 => Vec::new(),
                        _ => platform.ingest_sampled(now),
                    };
                    for plan in &plans {
                        let reboots = plan.actions.iter().any(|a| {
                            matches!(
                                a,
                                ResponseAction::RebootSystem
                                    | ResponseAction::RollbackFirmware
                                    | ResponseAction::GoldenRecovery
                            )
                        });
                        if reboots {
                            platform
                                .ssm
                                .record_recovery_started(now, "reboot/rollback recovery");
                            let reboot = platform.response.reboot_duration();
                            let done = now + reboot + SimDuration::cycles(1);
                            queue.schedule(done, Event::RebootDone);
                        } else if !policy_enabled {
                            // Quiet-window recovery: if no new incidents
                            // arrive within the window, restore service. The
                            // policy engine supersedes this path — tiers
                            // step back to Full through hysteresis in
                            // `policy_tick` instead of snapping everything
                            // open after one quiet window.
                            let incidents = platform.ssm.incidents().len();
                            let at = now + recovery_window;
                            queue.schedule(at, Event::QuietRecovery { incidents });
                        }
                    }
                    queue.schedule(now + monitor_period, event);
                }
                Event::Seal => {
                    platform.ssm.seal_evidence(now);
                    queue.schedule(now + SEAL_PERIOD, event);
                }
                Event::RebootDone => {
                    platform.update.record_boot_success();
                    platform.ssm.record_recovered(now);
                }
                Event::QuietRecovery { incidents } => {
                    if platform.ssm.incidents().len() == incidents
                        && platform.ssm.health() != HealthState::Healthy
                    {
                        platform.response.exit_degraded(&mut platform.soc);
                        platform.response.restore_network(&mut platform.soc);
                        platform.ssm.record_recovered(now);
                    }
                }
            }
        }

        // Final drain so nothing observed goes unscored.
        platform.sample_monitors_buffered(horizon);
        platform.ingest_sampled(horizon);

        Self::score(self.config, scenario.duration, platform, scratch)
    }

    fn score(
        config: PlatformConfig,
        duration: SimDuration,
        platform: &mut Platform,
        scratch: &mut ScoreScratch,
    ) -> RunReport {
        let end = SimTime::ZERO + duration;
        let mut attacks = Vec::new();
        let ground_truth = &mut scratch.ground_truth;
        ground_truth.clear();
        let mut attacker_wins = 0u32;
        for idx in 0..platform.attack_count() {
            let injector = platform.attack(idx);
            let kind = injector.kind();
            let times = injector.injection_times();
            ground_truth.extend_from_slice(times);
            let first_injection = times.first().copied();
            let matching = matching_incident_kinds(kind);
            let mut matching_incidents = 0u32;
            let mut detected_at: Option<SimTime> = None;
            if let Some(t0) = first_injection {
                for incident in platform.ssm.incidents() {
                    if incident.classified_at >= t0 && matching.contains(&incident.kind) {
                        matching_incidents += 1;
                        if detected_at.is_none() {
                            detected_at = Some(incident.classified_at);
                        }
                    }
                }
            }
            let (executed, achieved) = platform.attack_stats(idx);
            attacker_wins += achieved;
            attacks.push(AttackOutcomeReport {
                name: injector.name().to_string(),
                kind,
                first_injection,
                detected_at,
                detection_latency: match (first_injection, detected_at) {
                    (Some(a), Some(b)) => Some(b.saturating_since(a).as_cycles()),
                    _ => None,
                },
                matching_incidents,
                steps_achieved: achieved,
                steps_executed: executed,
            });
        }

        let timeline = Timeline::reconstruct(platform.ssm.evidence().records());
        let tolerance = config.monitor_period.as_cycles() * 3 + 1_000;
        let evidence_coverage = timeline.coverage(ground_truth, tolerance);
        let (total_events, total_incidents) = platform.ssm.correlation_stats();

        // Freeze end-of-run telemetry: scoring-time metrics (latency
        // histogram, per-kind incident counters, occupancy/chain gauges)
        // join the span aggregates collected during the run.
        // Fold SSM-owned resilience outcomes (quarantine count, degraded
        // correlation) into the fault-plane stats before freezing them.
        let faultplane = platform.faultplane.as_mut().map(|fp| {
            let stats = fp.stats_mut();
            stats.monitors_quarantined = platform.ssm.quarantined_monitors().len() as u64;
            stats.degraded_correlation = platform.ssm.sensing_degraded();
            *stats
        });

        let availability_detail = platform.policy.as_mut().map(|policy| policy.finish(end));

        let telemetry = if let Some(recorder) = platform.telemetry.as_mut() {
            let occupancy = recorder.ring().len() as f64;
            let metrics = recorder.metrics_mut();
            for attack in &attacks {
                if let Some(latency) = attack.detection_latency {
                    metrics.observe("detection_latency_cycles", latency);
                }
            }
            for incident in platform.ssm.incidents() {
                metrics.counter_add(&format!("incidents.{}", incident.kind), 1);
            }
            metrics.gauge_set("evidence_chain_len", platform.ssm.evidence().len() as f64);
            metrics.gauge_set("trace_ring_occupancy", occupancy);
            if let Some(stats) = &faultplane {
                metrics.counter_add("faultplane.events_lost", stats.events_lost);
                metrics.counter_add("faultplane.events_delayed", stats.events_delayed);
                metrics.counter_add("faultplane.events_reordered", stats.events_reordered);
                metrics.counter_add("faultplane.events_corrupted", stats.events_corrupted);
                metrics.counter_add("faultplane.delivery_retries", stats.delivery_retries);
                metrics.counter_add(
                    "faultplane.recovered_deliveries",
                    stats.recovered_deliveries,
                );
                metrics.counter_add("faultplane.backoff_cycles", stats.backoff_cycles);
                metrics.counter_add("faultplane.monitor_stalls", stats.monitor_stalls);
                metrics.counter_add("faultplane.monitors_crashed", stats.monitors_crashed);
                metrics.counter_add(
                    "faultplane.monitors_quarantined",
                    stats.monitors_quarantined,
                );
                metrics.counter_add("faultplane.response_drops", stats.response_drops);
                metrics.counter_add("faultplane.response_retries", stats.response_retries);
                metrics.gauge_set(
                    "faultplane.degraded_correlation",
                    f64::from(u8::from(stats.degraded_correlation)),
                );
            }
            if let Some(detail) = &availability_detail {
                metrics.counter_add("policy.tier_raises", u64::from(detail.tier_raises));
                metrics.counter_add("policy.tier_lowers", u64::from(detail.tier_lowers));
                metrics.counter_add("policy.breaker_trips", u64::from(detail.breaker_trips));
                metrics.counter_add("policy.breaker_resets", u64::from(detail.breaker_resets));
                metrics.counter_add(
                    "policy.actions_suppressed",
                    u64::from(detail.actions_suppressed),
                );
                metrics.gauge_set(
                    "policy.critical_availability",
                    detail.critical_availability(),
                );
                metrics.gauge_set(
                    "policy.noncritical_availability",
                    detail.noncritical_availability(),
                );
                metrics.gauge_set("policy.peak_tier", detail.peak_tier.index() as f64);
            }
            Some(recorder.snapshot())
        } else {
            None
        };

        RunReport {
            profile: config.profile,
            seed: config.seed,
            duration_cycles: duration.as_cycles(),
            boot_ok: platform.boot_report.booted(),
            attacks,
            total_events,
            total_incidents,
            availability: platform.ssm.health_tracker().service_availability(end),
            final_health: platform.ssm.health(),
            critical_steps: platform.critical_steps,
            evidence_len: platform.ssm.evidence().len(),
            evidence_chain_ok: platform.ssm.evidence().verify().is_ok(),
            evidence_seals: platform.ssm.evidence().seals().len(),
            evidence_coverage,
            console_lines: platform.soc.uart.lines().len(),
            monitor_overhead_cycles: platform.monitor_overhead_cycles,
            reboots: platform.reboots,
            attacker_wins,
            telemetry,
            faultplane,
            availability_detail,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PlatformProfile;
    use cres_attacks::{CodeInjectionAttack, NetworkFloodAttack, SensorSpoofAttack};
    use cres_soc::periph::SensorSpoof;
    use cres_soc::task::BlockId;

    fn cfg(profile: PlatformProfile) -> PlatformConfig {
        PlatformConfig::new(profile, 42)
    }

    #[test]
    fn quiet_run_stays_healthy() {
        let report = ScenarioRunner::new(cfg(PlatformProfile::CyberResilient))
            .run(Scenario::quiet(SimDuration::cycles(300_000)));
        assert!(report.boot_ok);
        assert_eq!(report.total_incidents, 0, "false positives in quiet run");
        assert_eq!(report.final_health, HealthState::Healthy);
        assert!(report.availability > 0.999);
        assert!(report.critical_steps > 100);
        assert!(report.evidence_chain_ok);
        assert_eq!(report.attacker_wins, 0);
        assert!(report.evidence_seals >= 1, "no audit seals were taken");
    }

    #[test]
    fn quiet_run_is_reproducible() {
        let run = || {
            ScenarioRunner::new(cfg(PlatformProfile::CyberResilient))
                .run(Scenario::quiet(SimDuration::cycles(200_000)))
        };
        let a = run();
        let b = run();
        assert_eq!(a.critical_steps, b.critical_steps);
        assert_eq!(a.total_events, b.total_events);
        assert_eq!(a.evidence_len, b.evidence_len);
    }

    #[test]
    fn code_injection_detected_on_cres() {
        let scenario = Scenario::quiet(SimDuration::cycles(400_000)).attack(
            SimTime::at_cycle(100_000),
            SimDuration::cycles(5_000),
            Box::new(CodeInjectionAttack::new(TaskId(1), BlockId(3), 3)),
        );
        let report = ScenarioRunner::new(cfg(PlatformProfile::CyberResilient)).run(scenario);
        assert_eq!(report.attacks.len(), 1);
        assert!(report.attacks[0].detected(), "{:?}", report.attacks[0]);
        let latency = report.attacks[0].detection_latency.unwrap();
        assert!(latency <= 20_000, "latency {latency} too high");
        assert!(report.evidence_chain_ok);
        assert!(report.evidence_coverage > 0.5);
    }

    #[test]
    fn code_injection_missed_on_baseline() {
        let scenario = Scenario::quiet(SimDuration::cycles(400_000)).attack(
            SimTime::at_cycle(100_000),
            SimDuration::cycles(5_000),
            Box::new(CodeInjectionAttack::new(TaskId(1), BlockId(3), 3)),
        );
        let report = ScenarioRunner::new(cfg(PlatformProfile::PassiveTrust)).run(scenario);
        assert!(!report.attacks[0].detected());
        assert_eq!(report.total_incidents, 0);
    }

    #[test]
    fn flood_detected_and_rate_limited() {
        let scenario = Scenario::quiet(SimDuration::cycles(500_000)).attack(
            SimTime::at_cycle(100_000),
            SimDuration::cycles(2_000),
            Box::new(NetworkFloodAttack::new(300, 10)),
        );
        let report = ScenarioRunner::new(cfg(PlatformProfile::CyberResilient)).run(scenario);
        assert!(report.attacks[0].detected());
        // active response: no reboot needed for a flood, and the critical
        // relay keeps delivering service at the quiet-run rate
        assert_eq!(report.reboots, 0);
        let quiet = ScenarioRunner::new(cfg(PlatformProfile::CyberResilient))
            .run(Scenario::quiet(SimDuration::cycles(500_000)));
        let ratio = report.critical_steps as f64 / quiet.critical_steps as f64;
        assert!(ratio > 0.95, "relay throughput dropped to {ratio}");
    }

    #[test]
    fn system_hang_is_the_baselines_one_detection() {
        // The watchdog path: both profiles detect a firmware crash, and the
        // baseline's reboot actually restores service.
        let scenario = || {
            Scenario::quiet(SimDuration::cycles(1_500_000)).attack(
                SimTime::at_cycle(300_000),
                SimDuration::cycles(1_000),
                Box::new(cres_attacks::SystemHangAttack::new()),
            )
        };
        let passive = ScenarioRunner::new(cfg(PlatformProfile::PassiveTrust)).run(scenario());
        assert!(
            passive.attacks[0].detected(),
            "baseline watchdog missed the hang"
        );
        assert!(passive.reboots >= 1, "baseline never rebooted");
        // service resumed after the reboot: steps continued past the hang
        assert!(passive.critical_steps > 1_000);
        let cres = ScenarioRunner::new(cfg(PlatformProfile::CyberResilient)).run(scenario());
        assert!(cres.attacks[0].detected());
    }

    #[test]
    fn taint_flow_detected_on_shared_topology() {
        // DMA steals from tee_secure and stages into the peripheral window:
        // on the shared topology the MPU grants it, but the taint monitor
        // flags the secret→egress flow.
        use cres_soc::soc::layout;
        let scenario = Scenario::quiet(SimDuration::cycles(600_000)).attack(
            SimTime::at_cycle(200_000),
            SimDuration::cycles(5_000),
            Box::new(cres_attacks::DmaExfilAttack::new(
                layout::TEE_SECURE.0,
                layout::PERIPH.0.offset(0x800),
                64,
            )),
        );
        let report = ScenarioRunner::new(cfg(PlatformProfile::TeeShared)).run(scenario);
        assert!(report.attacks[0].detected());
        // ground truth: the copy actually succeeded on this topology
        assert!(report.attacks[0].steps_achieved > 0);
    }

    #[test]
    fn escalation_marks_staged_campaigns() {
        let scenario = Scenario::quiet(SimDuration::cycles(900_000))
            .attack(
                SimTime::at_cycle(200_000),
                SimDuration::cycles(5_000),
                Box::new(cres_attacks::NetworkFloodAttack::new(300, 3)),
            )
            .attack(
                SimTime::at_cycle(260_000),
                SimDuration::cycles(5_000),
                Box::new(cres_attacks::MalformedTrafficAttack::new(5, 2)),
            );
        let report = ScenarioRunner::new(cfg(PlatformProfile::CyberResilient)).run(scenario);
        assert!(report.attacks.iter().all(|a| a.detected()));
        // second-kind incident inside the escalation window is escalated —
        // verified at the unit level; here we confirm both kinds classified
        assert!(report.total_incidents >= 2);
    }

    #[test]
    fn policy_engine_degrades_and_recovers_with_hysteresis() {
        let mut config = cfg(PlatformProfile::CyberResilient);
        config.policy = cres_response::PolicyConfig::enabled();
        let scenario = Scenario::quiet(SimDuration::cycles(1_500_000)).attack(
            SimTime::at_cycle(100_000),
            SimDuration::cycles(2_000),
            Box::new(NetworkFloodAttack::new(300, 20)),
        );
        let report = ScenarioRunner::new(config).run(scenario);
        assert!(report.attacks[0].detected());
        let detail = report.availability_detail.expect("policy armed");
        assert!(detail.tier_raises >= 1, "never degraded: {detail:?}");
        // hysteresis recovery: quiet ticks after the flood stepped the
        // tier back down instead of pinning the posture forever
        assert!(detail.tier_lowers >= 1, "never recovered: {detail:?}");
        assert!(
            detail.critical_availability() > 0.9,
            "critical service collapsed: {detail:?}"
        );
        assert!(detail.time_in_tier[0] > 0, "{detail:?}");
    }

    #[test]
    fn policy_off_reports_no_availability_detail() {
        let report = ScenarioRunner::new(cfg(PlatformProfile::CyberResilient))
            .run(Scenario::quiet(SimDuration::cycles(200_000)));
        assert_eq!(report.availability_detail, None);
    }

    #[test]
    fn policy_run_is_reproducible() {
        let run = || {
            let mut config = cfg(PlatformProfile::CyberResilient);
            config.policy = cres_response::PolicyConfig::enabled();
            let scenario = Scenario::quiet(SimDuration::cycles(600_000)).attack(
                SimTime::at_cycle(100_000),
                SimDuration::cycles(2_000),
                Box::new(NetworkFloodAttack::new(300, 10)),
            );
            ScenarioRunner::new(config).run(scenario)
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn sensor_spoof_detected_and_recovers() {
        let scenario = Scenario::quiet(SimDuration::cycles(800_000)).attack(
            SimTime::at_cycle(100_000),
            SimDuration::cycles(1_000),
            Box::new(SensorSpoofAttack::new(0, SensorSpoof::Fixed(60.0))),
        );
        let report = ScenarioRunner::new(cfg(PlatformProfile::CyberResilient)).run(scenario);
        assert!(report.attacks[0].detected());
        assert!(report.critical_steps > 0);
    }
}
