//! The fleet runner's core guarantee, mirroring `campaign_determinism`:
//! sharding is a pure scheduling optimisation. The same fleet config run
//! on 1, 2 and 8 workers yields byte-equal `FleetVerdict` JSON, and each
//! of them equals what a hand-rolled sequential loop — no executor, no
//! reorder ring, one pool — produces by ingesting the same devices in
//! order. A panic in one device or in the observer ends the run with
//! that panic, promptly, on any worker count.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::Duration;

use cres::attacks::catalog::try_build;
use cres::attacks::{AttackInjector, AttackKind, AttackStepResult, AttackTargets};
use cres::fleet::soc::{FleetSoc, FleetSocConfig, FleetVerdict};
use cres::fleet::spec::{AttackMix, DeviceSpec, FleetConfig};
use cres::fleet::summary::DeviceSummary;
use cres::fleet::{run_fleet, run_fleet_observed, FleetIncident};
use cres::platform::campaign::BuiltAttack;
use cres::platform::{PlatformPool, ScenarioRunner};
use cres::sim::SimTime;

fn config(devices: u32, seed: u64) -> FleetConfig {
    let mut config = FleetConfig::new(devices, seed);
    // enough for training + injection + detection, short enough for CI
    config.device_cycles = 60_000;
    config
}

/// The reference: a plain in-order loop with one pool, no fleet runner
/// machinery at all.
fn hand_rolled_sequential(config: &FleetConfig) -> FleetVerdict {
    let mut pool = PlatformPool::new();
    let mut soc = FleetSoc::new(FleetSocConfig::default());
    for id in 0..config.devices {
        let spec = DeviceSpec::generate(config, id);
        let scenario = spec
            .scenario_spec()
            .materialise(&try_build)
            .expect("catalog attack");
        let report = ScenarioRunner::new(spec.platform_config(config.telemetry))
            .run_pooled(&mut pool, scenario);
        soc.ingest(&DeviceSummary::from_report(id, &report));
    }
    soc.finish()
}

#[test]
fn worker_count_does_not_change_the_verdict() {
    let config = config(32, 9001);
    let reference = run_fleet(&config, 1, try_build).expect("fleet runs");
    let reference_json = reference.verdict.to_json();
    // the mix should actually exercise correlation, not a quiet fleet
    assert!(reference.verdict.attacked > 0, "mix produced no attacks");
    for workers in [2, 8] {
        let report = run_fleet(&config, workers, try_build).expect("fleet runs");
        assert_eq!(
            report.verdict, reference.verdict,
            "{workers} workers: verdict struct"
        );
        assert_eq!(
            report.verdict.to_json(),
            reference_json,
            "{workers} workers: verdict JSON bytes"
        );
        assert_eq!(
            report.shards.iter().map(|s| s.items).sum::<usize>(),
            config.devices as usize,
            "{workers} workers: shard coverage"
        );
    }
}

#[test]
fn engine_matches_hand_rolled_sequential_loop() {
    let config = config(24, 77);
    let reference = hand_rolled_sequential(&config);
    for workers in [1, 2, 8] {
        let report = run_fleet(&config, workers, try_build).expect("fleet runs");
        assert_eq!(
            report.verdict.to_json(),
            reference.to_json(),
            "{workers} workers vs hand-rolled"
        );
    }
}

#[test]
fn campaign_mix_raises_the_same_fleet_incidents_everywhere() {
    let mut config = config(24, 4242);
    config.mix = AttackMix::campaign("network-flood");
    let reference = run_fleet(&config, 1, try_build).expect("fleet runs");
    let campaign = reference
        .verdict
        .incidents
        .iter()
        .find_map(|incident| match incident {
            FleetIncident::CoordinatedCampaign {
                signature, devices, ..
            } => Some((signature.clone(), *devices)),
            FleetIncident::LateralMovement { .. } => None,
        })
        .expect("60% exposure to one signature is a campaign");
    assert_eq!(campaign.0, "network-flood");
    assert!(campaign.1 >= 3, "campaign carriers: {}", campaign.1);
    // escalation quarantines every carrier
    assert!(reference.verdict.quarantined >= campaign.1);
    for workers in [2, 8] {
        let report = run_fleet(&config, workers, try_build).expect("fleet runs");
        assert_eq!(report.verdict.to_json(), reference.verdict.to_json());
    }
}

#[test]
fn fleet_evidence_root_is_reproducible_per_device() {
    // re-running any single device reproduces the exact summary digest
    // the fleet accumulator consumed — the audit story behind the root
    let config = config(16, 31337);
    let fleet = run_fleet(&config, 2, try_build).expect("fleet runs");
    assert_eq!(fleet.verdict.evidence_leaves, 16);
    let root = fleet.verdict.evidence_root.expect("non-empty fleet");
    // rebuild the accumulator from independently re-run devices
    let mut acc = cres::crypto::merkle::MerkleAccumulator::new();
    let mut pool = PlatformPool::new();
    for id in 0..config.devices {
        let spec = DeviceSpec::generate(&config, id);
        let scenario = spec
            .scenario_spec()
            .materialise(&try_build)
            .expect("catalog attack");
        let report = ScenarioRunner::new(spec.platform_config(config.telemetry))
            .run_pooled(&mut pool, scenario);
        acc.append_digest(&DeviceSummary::from_report(id, &report).digest);
    }
    assert_eq!(acc.root(), Some(root));
}

/// Set by the first [`PanicOnFirstStep`] injector to be stepped, so
/// exactly one device of a run panics.
static STEPPED: AtomicBool = AtomicBool::new(false);

/// A catalog injector that panics instead of running the first step any
/// injector takes.
struct PanicOnFirstStep(Box<dyn AttackInjector>);

impl AttackInjector for PanicOnFirstStep {
    fn kind(&self) -> AttackKind {
        self.0.kind()
    }
    fn steps(&self) -> u32 {
        self.0.steps()
    }
    fn inject_step(
        &mut self,
        step: u32,
        now: SimTime,
        targets: &mut AttackTargets<'_>,
    ) -> AttackStepResult {
        assert!(
            STEPPED.swap(true, Ordering::SeqCst),
            "injected device fault"
        );
        self.0.inject_step(step, now, targets)
    }
}

fn panicking_build(name: &str) -> BuiltAttack {
    try_build(name).map(|inner| Box::new(PanicOnFirstStep(inner)) as Box<dyn AttackInjector>)
}

/// Runs `run` on its own thread and asserts that it ends with a panic
/// within 30 s: a run that hangs fails this test instead of stalling the
/// suite.
fn assert_panics_promptly(what: &str, run: impl FnOnce() + Send + 'static) {
    let (tx, rx) = mpsc::channel();
    let handle = std::thread::spawn(move || {
        let panicked = catch_unwind(AssertUnwindSafe(run)).is_err();
        tx.send(panicked).expect("the test is waiting");
    });
    let panicked = rx
        .recv_timeout(Duration::from_secs(30))
        .unwrap_or_else(|_| panic!("{what}: the run was still going after 30 s"));
    handle.join().expect("catch_unwind holds the run's panic");
    assert!(
        panicked,
        "{what}: the run finished without re-raising the panic"
    );
}

fn flood_fleet() -> FleetConfig {
    let mut config = config(200, 4242);
    config.mix = AttackMix::campaign("network-flood");
    config
}

#[test]
fn a_panicking_device_ends_the_run_promptly_on_any_worker_count() {
    for workers in [1, 2, 8] {
        STEPPED.store(false, Ordering::SeqCst);
        assert_panics_promptly(&format!("device panic, {workers} workers"), move || {
            let _ = run_fleet(&flood_fleet(), workers, panicking_build);
        });
    }
}

#[test]
fn a_panicking_observer_ends_the_run_promptly_on_any_worker_count() {
    for workers in [1, 2, 8] {
        assert_panics_promptly(&format!("observer panic, {workers} workers"), move || {
            let observe = |summary: &DeviceSummary| {
                assert_ne!(summary.device, 10, "injected observer fault");
            };
            let soc = FleetSocConfig::default();
            let _ = run_fleet_observed(&flood_fleet(), &soc, workers, try_build, observe);
        });
    }
}
