//! The fleet runner: N devices on W warm workers of the ordered executor
//! [`run_ordered`].
//!
//! Each worker forks the spec of every device id it claims and runs it on
//! its **own** `PlatformPool`, so the warm path (cached provisioning cell
//! and recycled platform) stays lock-free and allocation-light. Only the
//! compact [`DeviceSummary`] leaves the worker. The calling thread folds
//! summaries into the fleet SOC strictly in device order, so verdicts are
//! bit-identical across worker counts. A worker a full
//! [`REORDER_WINDOW`](crate::REORDER_WINDOW) ahead of the fold parks,
//! which bounds fleet memory, and a panicking device or observer is
//! re-raised on the caller instead of hanging the run.

use std::time::{Duration, Instant};

use cres_platform::campaign::{run_ordered, BuiltAttack, WorkerStats};
use cres_platform::runner::ScenarioRunner;
use cres_platform::PoolStats;

use crate::soc::{FleetSoc, FleetSocConfig, FleetVerdict};
use crate::spec::{DeviceSpec, FleetConfig};
use crate::summary::DeviceSummary;

/// Why a fleet run refused to start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetError {
    /// The attack mix names an injector the builder cannot resolve
    /// (validated up front, before any device runs).
    UnknownAttack(String),
    /// `workers` was zero.
    NoWorkers,
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::UnknownAttack(name) => write!(f, "unknown attack in fleet mix: {name}"),
            FleetError::NoWorkers => write!(f, "fleet runs need at least one worker"),
        }
    }
}

impl std::error::Error for FleetError {}

/// The outcome of a fleet run: the deterministic verdict plus
/// schedule-dependent performance accounting.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// The fleet SOC's verdict — a pure function of the fleet config.
    pub verdict: FleetVerdict,
    /// Devices executed.
    pub devices: u32,
    /// Workers the run was given.
    pub workers: usize,
    /// Wall-clock time of the sharded execution.
    pub wall: Duration,
    /// Fleet throughput: devices per wall-clock second.
    pub devices_per_sec: f64,
    /// Per-worker accounting, indexed by worker (at most one per device).
    pub shards: Vec<WorkerStats>,
}

impl FleetReport {
    /// Pool counters merged across all shards.
    pub fn pool_stats(&self) -> PoolStats {
        let mut merged = PoolStats::default();
        for shard in &self.shards {
            merged.merge(&shard.pool);
        }
        merged
    }
}

/// Runs the fleet with default SOC thresholds and no observer. See
/// [`run_fleet_observed`].
pub fn run_fleet<B>(
    config: &FleetConfig,
    workers: usize,
    builder: B,
) -> Result<FleetReport, FleetError>
where
    B: Fn(&str) -> BuiltAttack + Sync,
{
    run_fleet_observed(config, &FleetSocConfig::default(), workers, builder, |_| {})
}

/// Runs `config.devices` device simulations on `workers` workers,
/// correlates them through a fleet SOC with the given thresholds, and
/// shows every [`DeviceSummary`] to `observe` exactly once, in strict
/// device-id order, right after the fleet SOC ingests it — the hook the
/// export plane streams fleet-scale event logs from without a second pass
/// over the fleet.
///
/// The verdict inside the returned report, and whatever `observe`
/// accumulates, are bit-identical for any `workers ≥ 1`;
/// wall/throughput/shard fields are schedule-dependent. A panic in a
/// device simulation or in `observe` is re-raised once every worker stops.
pub fn run_fleet_observed<B, O>(
    config: &FleetConfig,
    soc_config: &FleetSocConfig,
    workers: usize,
    builder: B,
    mut observe: O,
) -> Result<FleetReport, FleetError>
where
    B: Fn(&str) -> BuiltAttack + Sync,
    O: FnMut(&DeviceSummary),
{
    if workers == 0 {
        return Err(FleetError::NoWorkers);
    }
    // Validate the whole mix before spending a cycle on simulation, so
    // a typo'd attack name fails fast instead of mid-fleet.
    for name in &config.mix.attacks {
        builder(name).map_err(|e| FleetError::UnknownAttack(e.name))?;
    }

    let mut soc = FleetSoc::new(soc_config.clone());
    let started = Instant::now();
    let shards = run_ordered(
        config.devices as usize,
        workers,
        |pool, id| {
            let spec = DeviceSpec::generate(config, id as u32);
            let scenario = spec
                .scenario_spec()
                .materialise(&builder)
                .expect("mix validated before spawn");
            let runner = ScenarioRunner::new(spec.platform_config(config.telemetry));
            // only the compact summary outlives the device's RunReport
            DeviceSummary::from_report(id as u32, &runner.run_pooled(pool, scenario))
        },
        |summary| {
            soc.ingest(&summary);
            observe(&summary);
        },
    );
    let wall = started.elapsed();
    let verdict = soc.finish();
    debug_assert_eq!(verdict.devices, config.devices);
    Ok(FleetReport {
        verdict,
        devices: config.devices,
        workers,
        devices_per_sec: f64::from(config.devices) / wall.as_secs_f64().max(1e-9),
        wall,
        shards,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::AttackMix;

    fn small_config() -> FleetConfig {
        let mut config = FleetConfig::new(12, 42);
        config.device_cycles = 60_000;
        config
    }

    #[test]
    fn unknown_attack_fails_before_running() {
        let mut config = small_config();
        config.mix = AttackMix::campaign("no-such-attack");
        let err = run_fleet(&config, 2, cres_attacks::catalog::try_build).unwrap_err();
        assert_eq!(err, FleetError::UnknownAttack("no-such-attack".into()));
    }

    #[test]
    fn zero_workers_is_an_error() {
        let err = run_fleet(&small_config(), 0, cres_attacks::catalog::try_build).unwrap_err();
        assert_eq!(err, FleetError::NoWorkers);
    }

    #[test]
    fn shards_cover_every_device_exactly_once() {
        let config = small_config();
        let report = run_fleet(&config, 3, cres_attacks::catalog::try_build).unwrap();
        assert_eq!(report.devices, 12);
        assert_eq!(report.verdict.devices, 12);
        assert_eq!(
            report.shards.iter().map(|s| s.items).sum::<usize>(),
            config.devices as usize
        );
        assert_eq!(report.verdict.evidence_leaves, 12);
        assert!(report.devices_per_sec > 0.0);
    }

    #[test]
    fn verdict_is_worker_count_invariant() {
        let config = small_config();
        let one = run_fleet(&config, 1, cres_attacks::catalog::try_build).unwrap();
        let three = run_fleet(&config, 3, cres_attacks::catalog::try_build).unwrap();
        assert_eq!(one.verdict, three.verdict);
        assert_eq!(one.verdict.to_json(), three.verdict.to_json());
    }

    #[test]
    fn observer_sees_every_device_in_order_on_any_worker_count() {
        let config = small_config();
        let observed = |workers| {
            let mut seen: Vec<DeviceSummary> = Vec::new();
            run_fleet_observed(
                &config,
                &FleetSocConfig::default(),
                workers,
                cres_attacks::catalog::try_build,
                |summary| seen.push(summary.clone()),
            )
            .unwrap();
            seen
        };
        let one = observed(1);
        assert_eq!(one.len(), 12);
        assert!(one.windows(2).all(|w| w[0].device + 1 == w[1].device));
        assert_eq!(one, observed(3), "observer stream is schedule-dependent");
    }

    #[test]
    fn pools_stay_warm_across_a_shard() {
        let mut config = small_config();
        config.devices = 24;
        let report = run_fleet(&config, 1, cres_attacks::catalog::try_build).unwrap();
        let pool = report.pool_stats();
        // 2 batches × ≤2 TEE deployments = ≤4 provisioning cells; the
        // other 20+ acquires must hit the cache
        assert!(
            pool.hit_rate() >= 0.8,
            "cold fleet pool: {pool:?} (hit rate {:.2})",
            pool.hit_rate()
        );
        assert!(pool.platform_recycles > 0);
    }
}
