//! The campaign engine's core guarantee: parallel fan-out is a pure
//! scheduling optimisation. The same campaign run on 1, 2 and 8 worker
//! threads yields identical `RunReport`s in submission order, and each of
//! them equals what a hand-rolled sequential `ScenarioRunner::run` loop
//! produces for the same `(config, scenario)` cells.

use cres::attacks::{
    AttackInjector, CodeInjectionAttack, LogWipeAttack, NetworkFloodAttack, SensorSpoofAttack,
    UnknownAttack,
};
use cres::platform::campaign::{Campaign, CampaignSummary, ScenarioSpec};
use cres::platform::{PlatformConfig, PlatformProfile, RunReport, Scenario, ScenarioRunner};
use cres::sim::{SimDuration, SimTime, Stage};
use cres::soc::addr::MasterId;
use cres::soc::periph::SensorSpoof;
use cres::soc::task::{BlockId, TaskId};

const DURATION: u64 = 250_000;

fn build(name: &str) -> Result<Box<dyn AttackInjector>, UnknownAttack> {
    Ok(match name {
        "code-injection" => Box::new(CodeInjectionAttack::new(TaskId(1), BlockId(0), 3)) as _,
        "network-flood" => Box::new(NetworkFloodAttack::new(300, 6)) as _,
        "sensor-spoof" => Box::new(SensorSpoofAttack::new(0, SensorSpoof::Fixed(61.5))) as _,
        "log-wipe" => Box::new(LogWipeAttack::new(MasterId::CPU0)) as _,
        other => {
            return Err(UnknownAttack {
                name: other.to_string(),
            })
        }
    })
}

/// The campaign cells: a profile/seed/scenario mix exercising quiet runs,
/// single attacks and a staged multi-attack chain. Telemetry is toggled
/// off for one cell per profile/seed block so the mixed on/off path is
/// exercised too (a disabled cell must contribute nothing to the merge).
fn cells() -> Vec<(PlatformConfig, ScenarioSpec)> {
    let mut cells = Vec::new();
    for profile in [
        PlatformProfile::CyberResilient,
        PlatformProfile::PassiveTrust,
    ] {
        for seed in [7u64, 1234] {
            let mut quiet_config = PlatformConfig::new(profile, seed);
            quiet_config.telemetry.enabled = false;
            cells.push((
                quiet_config,
                ScenarioSpec::quiet(SimDuration::cycles(DURATION)),
            ));
            cells.push((
                PlatformConfig::new(profile, seed),
                ScenarioSpec::quiet(SimDuration::cycles(DURATION)).attack(
                    "network-flood",
                    SimTime::at_cycle(60_000),
                    SimDuration::cycles(2_000),
                ),
            ));
            cells.push((
                PlatformConfig::new(profile, seed),
                ScenarioSpec::quiet(SimDuration::cycles(DURATION))
                    .attack(
                        "code-injection",
                        SimTime::at_cycle(50_000),
                        SimDuration::cycles(5_000),
                    )
                    .attack(
                        "sensor-spoof",
                        SimTime::at_cycle(100_000),
                        SimDuration::cycles(1_000),
                    )
                    .attack(
                        "log-wipe",
                        SimTime::at_cycle(150_000),
                        SimDuration::cycles(1_000),
                    ),
            ));
            // A hostile fault plane (lossy interconnect + crashed monitor)
            // must not dent determinism either: its RNG stream is forked
            // per-platform, never shared across workers.
            let mut faulted_config = PlatformConfig::new(profile, seed);
            faulted_config.faultplane = Some(cres::platform::FaultPlaneConfig {
                loss: 0.15,
                crashed: 1,
                crash_at: 40_000,
            });
            cells.push((
                faulted_config,
                ScenarioSpec::quiet(SimDuration::cycles(DURATION)).attack(
                    "network-flood",
                    SimTime::at_cycle(60_000),
                    SimDuration::cycles(2_000),
                ),
            ));
        }
    }
    cells
}

fn run_with_threads(threads: usize) -> CampaignSummary {
    let mut campaign = Campaign::new(build);
    for (index, (config, spec)) in cells().into_iter().enumerate() {
        campaign.submit(format!("cell-{index}"), config, spec);
    }
    campaign
        .run_parallel(threads)
        .expect("all cell attacks resolve")
}

/// The reference: a plain loop materialising each scenario and running it
/// on the calling thread, no campaign machinery at all.
fn hand_rolled_sequential() -> Vec<RunReport> {
    cells()
        .into_iter()
        .map(|(config, spec)| {
            let mut scenario = Scenario::quiet(spec.duration);
            for attack in &spec.attacks {
                scenario = scenario.attack(
                    attack.start,
                    attack.step_interval,
                    build(&attack.name).expect("known attack"),
                );
            }
            ScenarioRunner::new(config).run(scenario)
        })
        .collect()
}

fn assert_reports_identical(context: &str, expected: &[RunReport], actual: &[RunReport]) {
    assert_eq!(expected.len(), actual.len(), "{context}: job count");
    for (index, (e, a)) in expected.iter().zip(actual).enumerate() {
        // the named determinism-critical fields first, for readable failures
        assert_eq!(
            e.critical_steps, a.critical_steps,
            "{context}: job {index} critical_steps"
        );
        assert_eq!(
            e.total_events, a.total_events,
            "{context}: job {index} total_events"
        );
        assert_eq!(
            e.total_incidents, a.total_incidents,
            "{context}: job {index} total_incidents"
        );
        assert_eq!(
            e.evidence_len, a.evidence_len,
            "{context}: job {index} evidence_len"
        );
        assert_eq!(
            e.evidence_coverage, a.evidence_coverage,
            "{context}: job {index} evidence_coverage"
        );
        // then the whole report, bit for bit
        assert_eq!(e, a, "{context}: job {index} full report");
    }
}

#[test]
fn thread_count_does_not_change_results() {
    let reference = run_with_threads(1);
    let reference_reports: Vec<RunReport> =
        reference.results.iter().map(|r| r.report.clone()).collect();
    for threads in [2, 8] {
        let summary = run_with_threads(threads);
        assert_eq!(summary.threads, threads.min(reference_reports.len()));
        let reports: Vec<RunReport> = summary.results.iter().map(|r| r.report.clone()).collect();
        assert_reports_identical(&format!("{threads} threads"), &reference_reports, &reports);
        // labels stay in submission order too
        for (index, result) in summary.results.iter().enumerate() {
            assert_eq!(result.label, format!("cell-{index}"), "{threads} threads");
        }
    }
}

/// The telemetry layer inherits the engine's determinism guarantee: the
/// submission-order fold over per-run snapshots must not care how the runs
/// were scheduled, and cells that ran with telemetry disabled contribute
/// nothing (rather than poisoning the merge).
#[test]
fn merged_telemetry_does_not_depend_on_thread_count() {
    let reference = run_with_threads(1);
    let merged = reference
        .merged_telemetry()
        .expect("telemetry-enabled cells present");
    assert!(merged.spans_recorded > 0, "pipeline spans were recorded");
    assert!(
        merged.stage(Stage::MonitorSample).is_some(),
        "monitor stage present in merged stats"
    );
    // Per-run telemetry: disabled cells carry None, enabled cells Some.
    for (result, (config, _)) in reference.results.iter().zip(cells()) {
        assert_eq!(
            result.report.telemetry.is_some(),
            config.telemetry.enabled,
            "telemetry presence follows the per-cell config ({})",
            result.label
        );
    }
    for threads in [2, 8] {
        let summary = run_with_threads(threads);
        assert_eq!(
            summary.merged_telemetry().as_ref(),
            Some(&merged),
            "{threads} threads: merged telemetry"
        );
    }
}

#[test]
fn engine_matches_hand_rolled_sequential_loop() {
    let reference = hand_rolled_sequential();
    for threads in [1, 2, 8] {
        let summary = run_with_threads(threads);
        let reports: Vec<RunReport> = summary.results.iter().map(|r| r.report.clone()).collect();
        assert_reports_identical(
            &format!("engine({threads} threads) vs hand-rolled"),
            &reference,
            &reports,
        );
    }
}
