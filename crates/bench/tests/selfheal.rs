//! Self-resilience acceptance, pinned as tests: E11's headline cell (10%
//! event loss, one crashed monitor) must keep detection at or above 90%
//! with sensing-degraded compensation engaged, and the fault plane must be
//! accounting-independent of the telemetry layer — a telemetry-off run is
//! bit-identical outside the `telemetry` field, fault counters included.

use cres_attacks::catalog::try_build;
use cres_platform::campaign::{default_jobs, Campaign, ScenarioSpec};
use cres_platform::{FaultPlaneConfig, PlatformConfig, PlatformProfile};
use cres_sim::{SimDuration, SimTime};

const SEEDS: [u64; 3] = [11, 42, 1979];
const ATTACKS: [&str; 4] = [
    "network-flood",
    "memory-probe",
    "sensor-spoof",
    "code-injection",
];

/// Mirrors the `e11_selfheal` cell geometry: crash at 100k, attack at
/// 200k, full-budget run.
fn cell_spec(attack: &str) -> ScenarioSpec {
    ScenarioSpec::quiet(SimDuration::cycles(1_000_000)).attack(
        attack,
        SimTime::at_cycle(200_000),
        SimDuration::cycles(4_000),
    )
}

fn faulted_config(seed: u64, loss: f64, crashed: u32) -> PlatformConfig {
    let mut config = PlatformConfig::new(PlatformProfile::CyberResilient, seed);
    config.faultplane = Some(FaultPlaneConfig {
        loss,
        crashed,
        crash_at: 100_000,
    });
    config
}

#[test]
fn acceptance_cell_detection_stays_above_90_percent() {
    let mut campaign = Campaign::new(try_build);
    for attack in ATTACKS {
        for seed in SEEDS {
            campaign.submit(
                format!("{attack}/{seed}"),
                faulted_config(seed, 0.10, 1),
                cell_spec(attack),
            );
        }
    }
    let summary = campaign
        .run_parallel(default_jobs())
        .expect("gauntlet names resolve");

    let mut detected = 0u32;
    let mut degraded = 0u32;
    for result in &summary.results {
        let report = &result.report;
        detected += u32::from(report.attacks[0].detected());
        let stats = report.faultplane.expect("fault plane was enabled");
        assert_eq!(
            stats.monitors_crashed, 1,
            "{}: exactly one monitor must crash",
            result.label
        );
        degraded += u32::from(stats.degraded_correlation);
    }
    let runs = summary.results.len() as u32;
    let rate = f64::from(detected) / f64::from(runs);
    assert!(
        rate >= 0.90,
        "detection {detected}/{runs} under 10% loss + 1 crashed monitor is below the 90% bar"
    );
    assert!(
        degraded > 0,
        "no run engaged sensing-degraded mode despite a crashed monitor"
    );
}

#[test]
fn crashed_monitor_is_quarantined_and_evidenced() {
    let mut campaign = Campaign::new(try_build);
    campaign.submit(
        "quarantine",
        faulted_config(42, 0.0, 1),
        cell_spec("memory-probe"),
    );
    let report = &campaign.run_parallel(1).expect("known attacks").results[0].report;
    let stats = report.faultplane.expect("fault plane was enabled");
    assert_eq!(stats.monitors_crashed, 1);
    assert_eq!(
        stats.monitors_quarantined, 1,
        "heartbeat tracking must quarantine the crashed monitor"
    );
    assert!(
        stats.degraded_correlation,
        "quarantine must degrade sensing"
    );
}

#[test]
fn faultplane_report_is_bit_identical_outside_telemetry_field() {
    // Same faulted cell with telemetry on vs off: fault decisions come
    // from their own forked RNG stream and never read the sink, so only
    // the `telemetry` field may differ — fault counters included.
    let run = |telemetry: bool| {
        let mut config = faulted_config(7, 0.20, 1);
        config.telemetry.enabled = telemetry;
        let mut campaign = Campaign::new(try_build);
        campaign.submit("cell", config, cell_spec("network-flood"));
        campaign
            .run_parallel(1)
            .expect("known attacks")
            .results
            .remove(0)
            .report
    };
    let mut on = run(true);
    let off = run(false);
    assert!(on.telemetry.is_some());
    assert!(off.telemetry.is_none());
    on.telemetry = None;
    assert_eq!(
        on, off,
        "telemetry recording perturbed a fault-plane run (fault stats or sim state moved)"
    );
}

#[test]
fn all_quiet_faultplane_only_adds_the_stats_field() {
    // An armed fault plane at zero loss and no crashes must be
    // transparent: identical to the unfaulted platform everywhere except
    // the (all-zero) `faultplane` stats field itself. Telemetry is off
    // because an armed plane intentionally registers zeroed `faultplane.*`
    // counters in the metrics registry.
    let run = |armed: bool| {
        let mut config = PlatformConfig::new(PlatformProfile::CyberResilient, 99);
        config.faultplane = armed.then_some(FaultPlaneConfig {
            loss: 0.0,
            crashed: 0,
            crash_at: 0,
        });
        config.telemetry.enabled = false;
        let mut campaign = Campaign::new(try_build);
        campaign.submit("cell", config, cell_spec("sensor-spoof"));
        campaign
            .run_parallel(1)
            .expect("known attacks")
            .results
            .remove(0)
            .report
    };
    let mut armed = run(true);
    let unfaulted = run(false);
    let stats = armed.faultplane.take().expect("armed run reports stats");
    assert_eq!(stats, Default::default(), "quiet plane must inject nothing");
    assert!(unfaulted.faultplane.is_none());
    assert_eq!(
        armed, unfaulted,
        "an all-quiet fault plane perturbed the simulation"
    );
}
