//! Gauntlet coverage: the paper's central detection claim, pinned as a
//! test. The full attack gauntlet is detected by the cyber-resilient
//! profile, while the passive baseline — whose only detector is the
//! watchdog — sees none of it except the hang class.
//!
//! The sweep runs through the campaign engine (one job per
//! `attack × profile` cell) so the suite exercises the parallel path while
//! staying fast on multicore machines.

use cres_attacks::catalog::try_build;
use cres_bench::scenarios::GAUNTLET;
use cres_platform::campaign::{default_jobs, Campaign, ScenarioSpec};
use cres_platform::{PlatformConfig, PlatformProfile};
use cres_sim::{SimDuration, SimTime};

const SEED: u64 = 42;

/// Mirrors e3's cell: attack at 200k, long enough for the watchdog
/// (timeout 500k) to resolve hang-class events.
fn cell_spec(attack: &str) -> ScenarioSpec {
    ScenarioSpec::quiet(SimDuration::cycles(1_000_000)).attack(
        attack,
        SimTime::at_cycle(200_000),
        SimDuration::cycles(4_000),
    )
}

fn run_gauntlet(profile: PlatformProfile, attacks: &[&str]) -> Vec<(String, bool)> {
    let mut campaign = Campaign::new(try_build);
    for attack in attacks {
        campaign.submit(
            *attack,
            PlatformConfig::new(profile, SEED),
            cell_spec(attack),
        );
    }
    campaign
        .run_parallel(default_jobs())
        .expect("gauntlet names resolve")
        .results
        .into_iter()
        .map(|result| {
            let detected = result.report.attacks[0].detected();
            (result.label, detected)
        })
        .collect()
}

#[test]
fn cyber_resilient_detects_every_gauntlet_attack() {
    let outcomes = run_gauntlet(PlatformProfile::CyberResilient, &GAUNTLET);
    assert_eq!(outcomes.len(), GAUNTLET.len());
    let missed: Vec<&str> = outcomes
        .iter()
        .filter(|(_, detected)| !detected)
        .map(|(name, _)| name.as_str())
        .collect();
    assert!(
        missed.is_empty(),
        "CRES missed gauntlet attacks: {missed:?}"
    );
}

#[test]
fn passive_baseline_detects_no_gauntlet_attack() {
    // the gauntlet contains no hang-class attack, so the watchdog — the
    // passive platform's only detector — never fires
    let outcomes = run_gauntlet(PlatformProfile::PassiveTrust, &GAUNTLET);
    assert_eq!(outcomes.len(), GAUNTLET.len());
    let seen: Vec<&str> = outcomes
        .iter()
        .filter(|(_, detected)| *detected)
        .map(|(name, _)| name.as_str())
        .collect();
    assert!(
        seen.is_empty(),
        "passive baseline unexpectedly detected: {seen:?}"
    );
}

#[test]
fn watchdog_path_catches_system_hang_on_both_profiles() {
    for profile in [
        PlatformProfile::CyberResilient,
        PlatformProfile::PassiveTrust,
    ] {
        let outcomes = run_gauntlet(profile, &["system-hang"]);
        assert!(
            outcomes[0].1,
            "{profile} failed to detect system-hang via watchdog"
        );
    }
}
