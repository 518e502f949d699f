//! Golden `RunReport` fixtures: one cell per platform profile at a fixed
//! seed, committed under `tests/fixtures/` and compared byte-for-byte.
//!
//! This is the safety net for hot-path refactors (interned monitor names,
//! lazy detail rendering, buffer reuse): any change that perturbs event
//! ordering, evidence payload text, correlation outcomes, or the JSON
//! encoding itself shows up here as a fixture diff.
//!
//! Regenerate deliberately with:
//!
//! ```text
//! CRES_BLESS=1 cargo test --test report_goldens
//! ```
//!
//! and review the diff like any other behavioural change.

use cres::attacks::catalog::try_build;
use cres::attacks::{
    CodeInjectionAttack, DebugPortAttack, ExfilAttack, NetworkFloodAttack, SensorSpoofAttack,
};
use cres::platform::{
    FaultPlaneConfig, PlatformConfig, PlatformProfile, RunReport, Scenario, ScenarioRunner,
};
use cres::sim::{SimDuration, SimTime};
use cres::soc::periph::SensorSpoof;
use cres::soc::soc::layout;
use cres::soc::task::{BlockId, TaskId};
use std::path::PathBuf;

const GOLDEN_SEED: u64 = 42;

/// A mixed gauntlet slice that exercises the breadth of detail variants:
/// CFI edges, debug-port bus taps, network exfiltration signatures and
/// sensor plausibility — including both string-classified incident kinds
/// (debug-port, exfiltration).
fn golden_scenario() -> Scenario {
    Scenario::quiet(SimDuration::cycles(1_200_000))
        .attack(
            SimTime::at_cycle(200_000),
            SimDuration::cycles(8_000),
            Box::new(CodeInjectionAttack::new(TaskId(1), BlockId(0), 3)),
        )
        .attack(
            SimTime::at_cycle(450_000),
            SimDuration::cycles(4_000),
            Box::new(DebugPortAttack::new(vec![
                layout::SRAM.0,
                layout::TEE_SECURE.0,
                layout::SSM_PRIVATE.0,
            ])),
        )
        .attack(
            SimTime::at_cycle(700_000),
            SimDuration::cycles(5_000),
            Box::new(ExfilAttack::new(4_096, 4)),
        )
        .attack(
            SimTime::at_cycle(950_000),
            SimDuration::cycles(6_000),
            Box::new(SensorSpoofAttack::new(0, SensorSpoof::Fixed(61.5))),
        )
}

fn fixture_path(profile: PlatformProfile) -> PathBuf {
    let stem = match profile {
        PlatformProfile::CyberResilient => "cyber_resilient",
        PlatformProfile::PassiveTrust => "passive_trust",
        PlatformProfile::TeeShared => "tee_shared",
    };
    named_fixture_path(stem)
}

fn named_fixture_path(stem: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(format!("report_{stem}.json"))
}

fn bless_mode() -> bool {
    std::env::var("CRES_BLESS").is_ok_and(|v| !v.is_empty() && v != "0")
}

fn run_cell(profile: PlatformProfile) -> RunReport {
    ScenarioRunner::new(PlatformConfig::new(profile, GOLDEN_SEED)).run(golden_scenario())
}

#[test]
fn reports_match_committed_goldens() {
    for profile in PlatformProfile::ALL {
        let report = run_cell(profile);
        let json = report.to_json();
        let path = fixture_path(profile);
        if bless_mode() {
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(&path, &json)
                .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
            eprintln!("blessed {}", path.display());
            continue;
        }
        let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            panic!(
                "missing golden {} ({e}); run CRES_BLESS=1 cargo test --test report_goldens",
                path.display()
            )
        });
        assert_eq!(
            json,
            golden,
            "{profile} report diverged from {} — if intentional, re-bless and review the diff",
            path.display()
        );
    }
}

/// The policy-armed cell: same scenario and seed as the CyberResilient
/// golden, with the response policy engine enabled — so the fixture pins
/// the `availability_detail` block (tiers, breakers, per-class service
/// accounting) byte-for-byte alongside the legacy cells, which must stay
/// untouched by the schema addition.
#[test]
fn policy_report_matches_committed_golden() {
    let mut config = PlatformConfig::new(PlatformProfile::CyberResilient, GOLDEN_SEED);
    config.policy = cres::response::PolicyConfig::enabled();
    let report = ScenarioRunner::new(config).run(golden_scenario());
    let json = report.to_json();
    let path = named_fixture_path("policy_tiers");
    if bless_mode() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &json).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        eprintln!("blessed {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run CRES_BLESS=1 cargo test --test report_goldens",
            path.display()
        )
    });
    assert_eq!(
        json,
        golden,
        "policy report diverged from {} — if intentional, re-bless and review the diff",
        path.display()
    );
    assert!(golden.contains("\"availability_detail\":{"));
    let detail = report
        .availability_detail
        .as_ref()
        .expect("policy run carries the availability block");
    assert!(detail.critical_offered > 0);
}

/// The fault-plane sweep: E11's cell geometry over the golden scenario,
/// with a sustained flood and memory probe so that every fault kind (and
/// the retry ladder) fires. One report line per (loss, crashed) cell,
/// crash at 100k. A single cell does not pin the derived fault rates: at
/// 30% loss alone, several one-constant changes to the plane leave its
/// bytes unchanged, so the golden spans three loss levels with and without
/// a crashed monitor.
#[test]
fn faultplane_reports_match_committed_golden() {
    let mut lines = String::new();
    for loss in [0.1, 0.2, 0.3] {
        for crashed in [0, 1] {
            let mut config = PlatformConfig::new(PlatformProfile::CyberResilient, GOLDEN_SEED);
            config.faultplane = Some(FaultPlaneConfig {
                loss,
                crashed,
                crash_at: 100_000,
            });
            let scenario = golden_scenario()
                .attack(
                    SimTime::at_cycle(300_000),
                    SimDuration::cycles(2_000),
                    Box::new(NetworkFloodAttack::new(300, 20)),
                )
                .attack(
                    SimTime::at_cycle(500_000),
                    SimDuration::cycles(3_000),
                    try_build("memory-probe").expect("catalog attack"),
                );
            lines.push_str(&ScenarioRunner::new(config).run(scenario).to_json());
            lines.push('\n');
        }
    }
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/report_faultplane.jsonl");
    if bless_mode() {
        std::fs::write(&path, &lines).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        eprintln!("blessed {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run CRES_BLESS=1 cargo test --test report_goldens",
            path.display()
        )
    });
    assert_eq!(
        lines,
        golden,
        "fault-plane sweep diverged from {} — if intentional, re-bless and review the diff",
        path.display()
    );
}
