//! Golden artifact fixtures for the three export formats, plus the
//! cross-worker byte-identity pin.
//!
//! One attacked single-device run at seed 42 is exported to all three
//! formats and compared byte-for-byte against fixtures committed under
//! `tests/fixtures/`; a small campaign fleet pins the fleet-scope JSONL
//! and Prometheus artifacts the same way. Any change to an exporter's
//! byte layout — field order, number rendering, escaping, record
//! ordering — shows up here as a fixture diff.
//!
//! Regenerate deliberately with:
//!
//! ```text
//! CRES_BLESS=1 cargo test -p cres-obs --test export_goldens
//! ```
//!
//! and review the diff like any other behavioural change.

use cres_fleet::spec::AttackMix;
use cres_fleet::{FleetConfig, FleetSocConfig};
use cres_obs::lint::{check_chrome, check_jsonl, check_prom};
use cres_obs::{
    chrome_trace, device_records, fleet_jsonl, fleet_prometheus, observe_fleet, prometheus,
    write_jsonl, FleetObservation, ObsCapture,
};
use cres_platform::{PlatformConfig, PlatformProfile, Scenario, ScenarioRunner};
use cres_sim::{SimDuration, SimTime};
use std::path::PathBuf;

const GOLDEN_SEED: u64 = 42;

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn bless_mode() -> bool {
    std::env::var("CRES_BLESS").is_ok_and(|v| !v.is_empty() && v != "0")
}

fn assert_golden(name: &str, artifact: &str) {
    let path = fixture_path(name);
    if bless_mode() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, artifact)
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        eprintln!("blessed {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run CRES_BLESS=1 cargo test -p cres-obs --test export_goldens",
            path.display()
        )
    });
    assert_eq!(
        artifact, golden,
        "{name} diverged from its golden — if intentional, re-bless and review the diff"
    );
}

/// The golden device cell: an attacked CyberResilient run long enough to
/// exercise spans, fault-plane transitions, policy-free recovery and
/// evidence seals in one artifact set.
fn golden_capture() -> ObsCapture {
    let scenario = Scenario::quiet(SimDuration::cycles(300_000)).attack(
        SimTime::at_cycle(120_000),
        SimDuration::cycles(8_000),
        cres_attacks::catalog::try_build("code-injection").expect("known attack"),
    );
    let config = PlatformConfig::new(PlatformProfile::CyberResilient, GOLDEN_SEED);
    let (report, platform) = ScenarioRunner::new(config).run_keep(scenario);
    ObsCapture::from_run(0, report, &platform)
}

fn fleet(mix: &AttackMix, workers: usize) -> FleetObservation {
    let mut config = FleetConfig::new(24, GOLDEN_SEED);
    config.device_cycles = 60_000;
    config.mix = mix.clone();
    observe_fleet(
        &config,
        &FleetSocConfig::default(),
        workers,
        cres_attacks::catalog::try_build,
    )
    .expect("fleet mix resolves")
}

#[test]
fn device_artifacts_match_committed_goldens() {
    let capture = golden_capture();
    let trace = chrome_trace(std::slice::from_ref(&capture));
    let log = write_jsonl(&device_records(&capture));
    let prom = prometheus(capture.report.telemetry.as_ref().expect("telemetry on"));
    // the fixtures must be valid before they are golden
    check_chrome(&trace).expect("golden trace fails lint");
    check_jsonl(&log).expect("golden log fails lint");
    check_prom(&prom).expect("golden exposition fails lint");
    assert_golden("trace_seed42.json", &trace);
    assert_golden("log_seed42.jsonl", &log);
    assert_golden("metrics_seed42.prom", &prom);
}

#[test]
fn fleet_artifacts_match_committed_goldens() {
    let observation = fleet(&AttackMix::campaign("code-injection"), 2);
    let jsonl = fleet_jsonl(&observation);
    let prom = fleet_prometheus(&observation.report.verdict);
    check_jsonl(&jsonl).expect("golden fleet log fails lint");
    check_prom(&prom).expect("golden fleet exposition fails lint");
    assert_golden("fleet_seed42.jsonl", &jsonl);
    assert_golden("fleet_seed42.prom", &prom);
}

/// The worker-invariance pin: the exported bytes — not just the verdict —
/// must be identical at 1, 2 and 8 workers, for the golden campaign fleet
/// and for the standard attack mix. Sharding is scheduling, and scheduling
/// must be invisible in the artifacts.
#[test]
fn fleet_artifacts_byte_identical_across_worker_counts() {
    for mix in [AttackMix::campaign("code-injection"), AttackMix::standard()] {
        let mut reference: Option<(String, String)> = None;
        for workers in [1usize, 2, 8] {
            let observation = fleet(&mix, workers);
            let artifacts = (
                fleet_jsonl(&observation),
                fleet_prometheus(&observation.report.verdict),
            );
            check_jsonl(&artifacts.0).expect("fleet log fails lint");
            check_prom(&artifacts.1).expect("fleet exposition fails lint");
            match &reference {
                None => reference = Some(artifacts),
                Some(expected) => assert_eq!(
                    expected, &artifacts,
                    "{mix:?} fleet artifacts diverged at {workers} workers"
                ),
            }
        }
    }
}
