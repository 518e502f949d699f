//! End-to-end integration: the full detect → respond → recover → evidence
//! lifecycle across platform profiles.

use cres::attacks::{CodeInjectionAttack, ExfilAttack, MemoryProbeAttack, NetworkFloodAttack};
use cres::forensics::BreachReport;
use cres::platform::{PlatformConfig, PlatformProfile, Scenario, ScenarioRunner};
use cres::sim::{SimDuration, SimTime};
use cres::soc::addr::MasterId;
use cres::soc::soc::layout;
use cres::soc::task::{BlockId, TaskId};
use cres::ssm::HealthState;

fn cres_config(seed: u64) -> PlatformConfig {
    PlatformConfig::new(PlatformProfile::CyberResilient, seed)
}

#[test]
fn full_lifecycle_detect_respond_recover() {
    let scenario = Scenario::quiet(SimDuration::cycles(1_000_000)).attack(
        SimTime::at_cycle(200_000),
        SimDuration::cycles(8_000),
        Box::new(CodeInjectionAttack::new(TaskId(1), BlockId(0), 3)),
    );
    let report = ScenarioRunner::new(cres_config(1)).run(scenario);
    assert!(report.boot_ok);
    assert!(report.attacks[0].detected());
    assert!(report.total_incidents >= 1);
    // recovery completed: quiet window after the 3-step attack
    assert_eq!(report.final_health, HealthState::Healthy);
    assert!(report.evidence_chain_ok);
    assert!(report.evidence_len > 0);
    // the relay kept serving: the attack killed/restarted the task but the
    // platform never globally rebooted
    assert_eq!(report.reboots, 0);
    assert!(report.critical_steps > 1_000);
}

#[test]
fn multi_attack_campaign_all_detected() {
    let scenario = Scenario::quiet(SimDuration::cycles(1_500_000))
        .attack(
            SimTime::at_cycle(200_000),
            SimDuration::cycles(3_000),
            Box::new(NetworkFloodAttack::new(300, 6)),
        )
        .attack(
            SimTime::at_cycle(500_000),
            SimDuration::cycles(5_000),
            Box::new(MemoryProbeAttack::new(
                MasterId::CPU1,
                vec![layout::SSM_PRIVATE.0, layout::TEE_SECURE.0],
            )),
        )
        .attack(
            SimTime::at_cycle(800_000),
            SimDuration::cycles(5_000),
            Box::new(ExfilAttack::new(8_192, 4)),
        );
    let report = ScenarioRunner::new(cres_config(2)).run(scenario);
    for a in &report.attacks {
        assert!(a.detected(), "{} missed", a.name);
    }
    assert!(report.evidence_chain_ok);
    assert!(
        report.evidence_coverage > 0.5,
        "coverage {}",
        report.evidence_coverage
    );
}

#[test]
fn baseline_blind_but_still_boots_securely() {
    let scenario = Scenario::quiet(SimDuration::cycles(800_000)).attack(
        SimTime::at_cycle(200_000),
        SimDuration::cycles(5_000),
        Box::new(MemoryProbeAttack::new(
            MasterId::CPU1,
            vec![layout::SSM_PRIVATE.0],
        )),
    );
    let report =
        ScenarioRunner::new(PlatformConfig::new(PlatformProfile::PassiveTrust, 2)).run(scenario);
    assert!(report.boot_ok, "secure boot still works on the baseline");
    assert!(!report.attacks[0].detected());
    assert_eq!(report.total_incidents, 0);
    // and the probe actually stole data: the shared topology granted it
    assert!(report.attacks[0].steps_achieved > 0);
}

#[test]
fn isolated_topology_blocks_what_shared_grants() {
    let probe = |profile| {
        let scenario = Scenario::quiet(SimDuration::cycles(600_000)).attack(
            SimTime::at_cycle(200_000),
            SimDuration::cycles(5_000),
            Box::new(MemoryProbeAttack::new(
                MasterId::CPU1,
                vec![layout::SSM_PRIVATE.0, layout::SSM_PRIVATE.0.offset(64)],
            )),
        );
        ScenarioRunner::new(PlatformConfig::new(profile, 3)).run(scenario)
    };
    let isolated = probe(PlatformProfile::CyberResilient);
    let shared = probe(PlatformProfile::TeeShared);
    assert_eq!(isolated.attacks[0].steps_achieved, 0, "isolation breached");
    assert!(
        shared.attacks[0].steps_achieved > 0,
        "shared topology should grant"
    );
}

#[test]
fn breach_report_from_run_verifies_and_renders() {
    use cres::platform::Platform;
    let mut p = Platform::new(cres_config(4));
    ScenarioRunner::install_default_workload(&mut p);
    p.train_syscall_monitor(30);
    let gadget = p.soc.task(TaskId(1)).unwrap().current_block();
    let idx = p.add_attack(Box::new(CodeInjectionAttack::new(TaskId(1), gadget, 1)));
    let mut now = SimTime::at_cycle(1);
    p.attack_step(idx, now).unwrap();
    for _ in 0..5 {
        if let Some(d) = p.step_task_and_observe(TaskId(1), now) {
            now += d;
        }
    }
    p.sample_monitors_buffered(now);
    p.ingest_sampled(now);

    let key = p.evidence_key().to_vec();
    let report = BreachReport::generate(&key, p.ssm.evidence().records());
    assert!(report.chain_intact());
    assert!(!report.incidents.is_empty());
    assert!(!report.responses.is_empty());
    let text = report.render();
    assert!(text.contains("CodeInjection"));
    assert!(text.contains("KillTask"));

    // wrong key → integrity violation (the report does not lie)
    let wrong = BreachReport::generate(b"wrong-key", p.ssm.evidence().records());
    assert!(!wrong.chain_intact());
}

#[test]
fn availability_recovers_after_transient_attack() {
    let scenario = Scenario::quiet(SimDuration::cycles(2_000_000)).attack(
        SimTime::at_cycle(300_000),
        SimDuration::cycles(2_000),
        Box::new(NetworkFloodAttack::new(200, 4)),
    );
    let report = ScenarioRunner::new(cres_config(5)).run(scenario);
    assert_eq!(
        report.final_health,
        HealthState::Healthy,
        "flood should clear"
    );
    // attack window + recovery window is small relative to 2M cycles
    assert!(
        report.availability > 0.8,
        "availability {}",
        report.availability
    );
}
