//! The paper's headline claim, pinned as a test: the evidence data stream
//! survives a compromise that destroys every attacker-reachable log.

use cres::attacks::{CodeInjectionAttack, ExfilAttack, LogWipeAttack, MemoryProbeAttack};
use cres::forensics::BreachReport;
use cres::platform::{PlatformConfig, PlatformProfile, Scenario, ScenarioRunner};
use cres::sim::{SimDuration, SimTime};
use cres::soc::addr::MasterId;
use cres::soc::soc::layout;
use cres::soc::task::{BlockId, TaskId};

fn staged_intrusion() -> Scenario {
    Scenario::quiet(SimDuration::cycles(900_000))
        .attack(
            SimTime::at_cycle(200_000),
            SimDuration::cycles(5_000),
            Box::new(MemoryProbeAttack::new(
                MasterId::CPU1,
                vec![layout::SSM_PRIVATE.0, layout::TEE_SECURE.0],
            )),
        )
        .attack(
            SimTime::at_cycle(350_000),
            SimDuration::cycles(8_000),
            Box::new(CodeInjectionAttack::new(TaskId(1), BlockId(0), 2)),
        )
        .attack(
            SimTime::at_cycle(500_000),
            SimDuration::cycles(5_000),
            Box::new(ExfilAttack::new(8_192, 3)),
        )
        .attack(
            SimTime::at_cycle(650_000),
            SimDuration::cycles(1_000),
            Box::new(LogWipeAttack::new(MasterId::CPU0)),
        )
}

#[test]
fn cres_evidence_survives_the_log_wipe() {
    let report = ScenarioRunner::new(PlatformConfig::new(PlatformProfile::CyberResilient, 99))
        .run(staged_intrusion());
    // every stage of the intrusion was classified
    for a in &report.attacks {
        assert!(a.detected(), "{} missed", a.name);
    }
    // the chain survived the wipe, intact and substantial
    assert!(report.evidence_chain_ok);
    assert!(
        report.evidence_len > 20,
        "only {} records",
        report.evidence_len
    );
    // most ground-truth attack instants are reconstructable
    assert!(
        report.evidence_coverage > 0.7,
        "coverage {}",
        report.evidence_coverage
    );
}

#[test]
fn baseline_trail_dies_with_the_wipe() {
    let report = ScenarioRunner::new(PlatformConfig::new(PlatformProfile::PassiveTrust, 99))
        .run(staged_intrusion());
    // nothing was detected, nothing was recorded, and the console residue
    // post-wipe is at most a handful of late lines
    assert_eq!(report.total_incidents, 0);
    assert_eq!(report.evidence_len, 0);
    assert_eq!(report.evidence_coverage, 0.0);
    assert!(
        report.console_lines < 5,
        "{} console lines survived",
        report.console_lines
    );
}

#[test]
fn shared_ssm_evidence_is_wipeable_hence_the_isolation_requirement() {
    use cres::platform::Platform;
    use cres::ssm::SsmDeployment;

    let mut isolated = Platform::new(PlatformConfig::new(PlatformProfile::CyberResilient, 7));
    assert_eq!(
        isolated.ssm.config().deployment,
        SsmDeployment::IsolatedCore
    );
    assert!(isolated.ssm.attack_surface().is_none());

    let mut shared = Platform::new(PlatformConfig::new(PlatformProfile::TeeShared, 7));
    assert_eq!(shared.ssm.config().deployment, SsmDeployment::SharedWithGpp);
    let surface = shared
        .ssm
        .attack_surface()
        .expect("shared SSM is reachable");
    surface.records_mut_for_attack().clear();
}

#[test]
fn forensic_report_from_scenario_chain_is_self_consistent() {
    use cres::platform::Platform;
    // run the intrusion "by hand" on a live platform so the evidence key is
    // available for verification
    let mut p = Platform::new(PlatformConfig::new(PlatformProfile::CyberResilient, 31));
    ScenarioRunner::install_default_workload(&mut p);
    p.train_syscall_monitor(30);
    let probe = p.add_attack(Box::new(MemoryProbeAttack::new(
        MasterId::CPU1,
        vec![layout::SSM_PRIVATE.0],
    )));
    let mut now = SimTime::at_cycle(1_000);
    for id in p.soc.task_ids() {
        p.step_task_and_observe(id, now);
    }
    p.attack_step(probe, now);
    now += SimDuration::cycles(5_000);
    p.sample_monitors_buffered(now);
    p.ingest_sampled(now);

    let key = p.evidence_key().to_vec();
    let report = BreachReport::generate(&key, p.ssm.evidence().records());
    assert!(report.chain_intact());
    assert_eq!(report.total_records, p.ssm.evidence().len());
    // every incident the SSM classified appears in the report
    assert_eq!(report.incidents.len(), p.ssm.incidents().len());
}
