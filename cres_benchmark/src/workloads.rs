//! The four workloads: inputs made from a seed, the reference pass that
//! also feeds the traced pass, and one timed call of the real entry point.
//!
//! The reference pass is a naive sequential fold over the library's public
//! calls on one platform pool. Each timed repetition goes through the
//! entry point a user calls (`run_fleet_observed`, `Campaign::run_parallel`
//! or the `run_keep` + `cres_obs` export sequence) and must reproduce the
//! reference's per-run digests and whole-pass bytes exactly.

use std::time::{Duration, Instant};

use cres_attacks::catalog::try_build;
use cres_bench::scenarios::GAUNTLET;
use cres_crypto::sha2::Sha256;
use cres_fleet::{
    run_fleet_observed, AttackMix, DeviceSpec, DeviceSummary, FleetConfig, FleetSoc, FleetSocConfig,
};
use cres_obs::lint::{check_chrome, check_jsonl, check_prom};
use cres_obs::{chrome_trace, device_records, prometheus, write_jsonl, LogRecord, ObsCapture};
use cres_platform::campaign::{Campaign, Job, ScenarioSpec};
use cres_platform::telemetry::TelemetrySnapshot;
use cres_platform::{PlatformConfig, PlatformPool, PlatformProfile, RunReport, ScenarioRunner};
use cres_sim::{DetRng, SimDuration, SimTime};

use crate::trace::{Tracer, PASS};

/// Devices in one `fleet_standard` repetition (120k cycles each).
const STANDARD_DEVICES: u32 = 1_000;
/// Devices in one `fleet_short_2w` repetition.
const SHORT_DEVICES: u32 = 3_600;
/// Simulated cycles per `fleet_short_2w` device.
const SHORT_CYCLES: u64 = 60_000;
/// Platform seeds of the `campaign_sweep` grid (fixed: provisioning cost
/// depends on the seed, and the sweep varies attack timing instead).
const SWEEP_CONFIG_SEEDS: [u64; 2] = [11, 1979];
/// Onset/interval variants per `(attack, profile, config seed)` cell.
const SWEEP_VARIANTS: usize = 3;
/// Simulated cycles per `campaign_sweep` job.
const SWEEP_CYCLES: u64 = 600_000;
/// Cells in one `trace_export` repetition.
const EXPORT_CELLS: usize = 32;
/// Simulated cycles per `trace_export` cell.
const EXPORT_CYCLES: u64 = 1_000_000;
/// Platform seed of every `trace_export` cell (the e16 worst-case cell).
const EXPORT_CONFIG_SEED: u64 = 8;
/// Monitor sampling period of `trace_export` cells, cycles.
const EXPORT_PERIOD: u64 = 1_000;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `run_fleet`, one worker, standard mix, 120k-cycle devices.
    FleetStandard,
    /// `run_fleet`, two workers, one campaign signature, 60k-cycle devices.
    FleetShort2w,
    /// `Campaign::run_parallel(2)` over an attacked gauntlet grid.
    CampaignSweep,
    /// Telemetry-on cells through `run_keep` and the three exporters.
    TraceExport,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 4] = [
        Workload::FleetStandard,
        Workload::FleetShort2w,
        Workload::CampaignSweep,
        Workload::TraceExport,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetStandard => "fleet_standard",
            Workload::FleetShort2w => "fleet_short_2w",
            Workload::CampaignSweep => "campaign_sweep",
            Workload::TraceExport => "trace_export",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Worker threads the entry point runs on.
    pub fn workers(self) -> usize {
        match self {
            Workload::FleetShort2w | Workload::CampaignSweep => 2,
            Workload::FleetStandard | Workload::TraceExport => 1,
        }
    }
}

/// A workload's inputs, generated from the seed.
pub struct Plan {
    /// Which workload.
    pub workload: Workload,
    kind: Kind,
}

enum Kind {
    Fleet(FleetConfig),
    Campaign(Vec<Job>),
    Export {
        config: PlatformConfig,
        cells: Vec<ScenarioSpec>,
    },
}

/// What a pass or a repetition produced, compared byte for byte against
/// the reference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Output {
    /// One digest per run, in run order: the fleet summary digest, or a
    /// SHA-256 of the run's `RunReport::to_json`.
    pub runs: Vec<[u8; 32]>,
    /// Whole-pass bytes: the fleet verdict JSON, or the SHA-256 of each
    /// exported artifact; empty for the campaign.
    pub aggregate: Vec<u8>,
}

/// Simulated outcomes and work counts summed over a pass's runs.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Tally {
    /// Runs folded in.
    pub runs: u64,
    /// Runs that carried an attack.
    pub attacked: u64,
    /// Attacked runs whose platform classified a matching incident.
    pub detected: u64,
    /// Sum of per-run service availability.
    pub availability: f64,
    /// Monitor sampling ticks.
    pub ticks: u64,
    /// Monitor events the SSM ingested.
    pub events: u64,
    /// Evidence records at end of run.
    pub records: u64,
    /// Merkle audit seals.
    pub seals: u64,
}

impl Tally {
    fn add(&mut self, report: &RunReport, period: SimDuration) {
        self.runs += 1;
        if let Some(attack) = report.attacks.first() {
            self.attacked += 1;
            self.detected += u64::from(attack.detected());
        }
        self.availability += report.availability;
        self.ticks += report.duration_cycles / period.as_cycles().max(1);
        self.events += report.total_events;
        self.records += report.evidence_len as u64;
        self.seals += report.evidence_seals as u64;
    }

    /// `total` per run.
    pub fn per_run(&self, total: u64) -> f64 {
        total as f64 / self.runs.max(1) as f64
    }
}

/// The reference (or traced) pass.
pub struct Pass {
    /// Digests to compare repetitions against.
    pub output: Output,
    /// Outcomes and work counts.
    pub tally: Tally,
    /// Provisioning calls the pass paid (pool misses, or one per
    /// un-pooled run).
    pub provisions: u64,
    /// Artifact lint result (always `Ok` for workloads that export
    /// nothing).
    pub lint: Result<(), String>,
}

/// One timed call of the entry point.
pub struct Rep {
    /// Wall time of the call.
    pub wall: Duration,
    /// What it produced.
    pub output: Output,
}

impl Plan {
    /// The inputs of `workload` for `seed`.
    pub fn new(workload: Workload, seed: u64) -> Plan {
        let kind = match workload {
            Workload::FleetStandard => Kind::Fleet(FleetConfig::new(STANDARD_DEVICES, seed)),
            Workload::FleetShort2w => {
                let mut config = FleetConfig::new(SHORT_DEVICES, seed);
                config.device_cycles = SHORT_CYCLES;
                config.mix = AttackMix::campaign("network-flood");
                Kind::Fleet(config)
            }
            Workload::CampaignSweep => Kind::Campaign(sweep_jobs(seed)),
            Workload::TraceExport => Kind::Export {
                config: export_config(),
                cells: export_cells(seed),
            },
        };
        Plan { workload, kind }
    }

    /// Runs (devices, jobs or cells) per pass.
    pub fn runs(&self) -> u64 {
        match &self.kind {
            Kind::Fleet(config) => u64::from(config.devices),
            Kind::Campaign(jobs) => jobs.len() as u64,
            Kind::Export { cells, .. } => cells.len() as u64,
        }
    }

    /// The fleet configuration, for fleet workloads.
    pub fn fleet(&self) -> Option<&FleetConfig> {
        match &self.kind {
            Kind::Fleet(config) => Some(config),
            _ => None,
        }
    }

    /// Platform configuration of every run, in run order.
    pub fn configs(&self) -> Vec<PlatformConfig> {
        match &self.kind {
            Kind::Fleet(config) => (0..config.devices)
                .map(|id| DeviceSpec::generate(config, id).platform_config(config.telemetry))
                .collect(),
            Kind::Campaign(jobs) => jobs.iter().map(|job| job.config).collect(),
            Kind::Export { config, cells } => vec![*config; cells.len()],
        }
    }

    /// Distinct provisioning cells one worker touches: `provision` is a
    /// pure function of `(seed, rsa_bits, TEE deployment)`.
    pub fn cells(&self) -> Vec<PlatformConfig> {
        let mut cells: Vec<PlatformConfig> = Vec::new();
        for config in self.configs() {
            let same = |c: &PlatformConfig| {
                c.seed == config.seed
                    && c.rsa_bits == config.rsa_bits
                    && c.tee_deployment() == config.tee_deployment()
            };
            if !cells.iter().any(same) {
                cells.push(config);
            }
        }
        cells
    }

    /// The reference pass, with a span around each public call when `tr`
    /// records.
    pub fn reference(&self, tr: &mut Tracer) -> Pass {
        match &self.kind {
            Kind::Fleet(config) => fleet_reference(config, tr),
            Kind::Campaign(jobs) => sweep_reference(jobs, tr),
            Kind::Export { config, cells } => {
                let (captures, artifacts) = export(config, cells, tr);
                let mut tally = Tally::default();
                for capture in &captures {
                    tally.add(&capture.report, config.monitor_period);
                }
                let [chrome, jsonl, prom] = &artifacts;
                let lint = check_chrome(chrome)
                    .and_then(|_| check_jsonl(jsonl))
                    .and_then(|_| check_prom(prom))
                    .map(drop);
                Pass {
                    output: export_output(&captures, &artifacts),
                    tally,
                    provisions: cells.len() as u64,
                    lint,
                }
            }
        }
    }

    /// One timed call of the workload's entry point. Digests are taken
    /// after the clock stops.
    pub fn entry(&self) -> Rep {
        let workers = self.workload.workers();
        match &self.kind {
            Kind::Fleet(config) => {
                let mut runs = Vec::with_capacity(config.devices as usize);
                let started = Instant::now();
                let report = run_fleet_observed(
                    config,
                    &FleetSocConfig::default(),
                    workers,
                    try_build,
                    |summary| runs.push(summary.digest),
                )
                .expect("fleet mix names catalog attacks");
                let wall = started.elapsed();
                Rep {
                    wall,
                    output: Output {
                        runs,
                        aggregate: report.verdict.to_json().into_bytes(),
                    },
                }
            }
            Kind::Campaign(jobs) => {
                let mut campaign = Campaign::new(try_build);
                for job in jobs {
                    campaign.submit(job.label.clone(), job.config, job.spec.clone());
                }
                let started = Instant::now();
                let summary = campaign
                    .run_parallel(workers)
                    .expect("gauntlet names resolve");
                let wall = started.elapsed();
                Rep {
                    wall,
                    output: Output {
                        runs: summary
                            .results
                            .iter()
                            .map(|r| report_digest(&r.report))
                            .collect(),
                        aggregate: Vec::new(),
                    },
                }
            }
            Kind::Export { config, cells } => {
                let started = Instant::now();
                let (captures, artifacts) = export(config, cells, &mut Tracer::off());
                let wall = started.elapsed();
                Rep {
                    wall,
                    output: export_output(&captures, &artifacts),
                }
            }
        }
    }
}

/// SHA-256 of a report's canonical JSON.
fn report_digest(report: &RunReport) -> [u8; 32] {
    Sha256::digest(report.to_json().as_bytes())
}

fn fleet_reference(config: &FleetConfig, tr: &mut Tracer) -> Pass {
    let mut pool = PlatformPool::new();
    let mut soc = FleetSoc::new(FleetSocConfig::default());
    let mut runs = Vec::with_capacity(config.devices as usize);
    let mut tally = Tally::default();
    for id in 0..config.devices {
        let device = tr.begin("fleet.device", id);
        let (spec, scenario_spec) = tr.span("fleet.spec", id, || {
            let spec = DeviceSpec::generate(config, id);
            let scenario_spec = spec.scenario_spec();
            (spec, scenario_spec)
        });
        let scenario = tr
            .span("campaign.materialise", id, || {
                scenario_spec.materialise(&try_build)
            })
            .expect("fleet mix names catalog attacks");
        let platform = spec.platform_config(config.telemetry);
        let runner = ScenarioRunner::new(platform);
        let report = tr.span("platform.run", id, || {
            runner.run_pooled(&mut pool, scenario)
        });
        let summary = tr.span("fleet.summary", id, || {
            DeviceSummary::from_report(id, &report)
        });
        tr.span("fleet.soc.ingest", id, || soc.ingest(&summary));
        tr.end(device);
        tally.add(&report, platform.monitor_period);
        runs.push(summary.digest);
    }
    let verdict = tr.span("fleet.soc.finish", PASS, || soc.finish());
    Pass {
        output: Output {
            runs,
            aggregate: verdict.to_json().into_bytes(),
        },
        tally,
        provisions: pool.stats().provision_misses,
        lint: Ok(()),
    }
}

/// 11 gauntlet attacks × 3 profiles × 2 platform seeds × a few
/// seed-drawn onset/interval variants; every job is attacked.
fn sweep_jobs(seed: u64) -> Vec<Job> {
    let mut rng = DetRng::seed_from(seed).fork("campaign_sweep");
    let mut jobs = Vec::new();
    for attack in GAUNTLET {
        for profile in PlatformProfile::ALL {
            for config_seed in SWEEP_CONFIG_SEEDS {
                for variant in 0..SWEEP_VARIANTS {
                    let onset = rng.range_u64(100_000, 300_000);
                    let interval = rng.range_u64(2_000, 6_000);
                    jobs.push(Job {
                        label: format!("{attack}/{profile}/{config_seed}/{variant}"),
                        config: PlatformConfig::new(profile, config_seed),
                        spec: ScenarioSpec::quiet(SimDuration::cycles(SWEEP_CYCLES)).attack(
                            attack,
                            SimTime::at_cycle(onset),
                            SimDuration::cycles(interval),
                        ),
                    });
                }
            }
        }
    }
    jobs
}

fn sweep_reference(jobs: &[Job], tr: &mut Tracer) -> Pass {
    let mut pool = PlatformPool::new();
    let mut runs = Vec::with_capacity(jobs.len());
    let mut tally = Tally::default();
    for (index, job) in jobs.iter().enumerate() {
        let run = index as u32;
        let open = tr.begin("campaign.job", run);
        let scenario = tr
            .span("campaign.materialise", run, || {
                job.spec.materialise(&try_build)
            })
            .expect("gauntlet names resolve");
        let runner = ScenarioRunner::new(job.config);
        let report = tr.span("platform.run", run, || {
            runner.run_pooled(&mut pool, scenario)
        });
        tr.end(open);
        tally.add(&report, job.config.monitor_period);
        runs.push(report_digest(&report));
    }
    Pass {
        output: Output {
            runs,
            aggregate: Vec::new(),
        },
        tally,
        provisions: pool.stats().provision_misses,
        lint: Ok(()),
    }
}

/// The e16 worst-case cell: resilient profile, 1000-cycle sampling,
/// telemetry on.
fn export_config() -> PlatformConfig {
    let mut config = PlatformConfig::new(PlatformProfile::CyberResilient, EXPORT_CONFIG_SEED);
    config.monitor_period = SimDuration::cycles(EXPORT_PERIOD);
    config
}

/// One gauntlet attack per cell; attack, onset and interval drawn from
/// the seed.
fn export_cells(seed: u64) -> Vec<ScenarioSpec> {
    let mut rng = DetRng::seed_from(seed).fork("trace_export");
    (0..EXPORT_CELLS)
        .map(|_| {
            let attack = GAUNTLET[rng.range_u64(0, GAUNTLET.len() as u64) as usize];
            let onset = rng.range_u64(200_000, 700_000);
            let interval = rng.range_u64(4_000, 12_000);
            ScenarioSpec::quiet(SimDuration::cycles(EXPORT_CYCLES)).attack(
                attack,
                SimTime::at_cycle(onset),
                SimDuration::cycles(interval),
            )
        })
        .collect()
}

/// Runs every cell un-pooled through `run_keep`, captures it, and renders
/// the Chrome trace, the JSONL log and the Prometheus exposition of the
/// merged telemetry.
fn export(
    config: &PlatformConfig,
    cells: &[ScenarioSpec],
    tr: &mut Tracer,
) -> (Vec<ObsCapture>, [String; 3]) {
    let mut captures = Vec::with_capacity(cells.len());
    for (index, cell) in cells.iter().enumerate() {
        let run = index as u32;
        let open = tr.begin("obs.cell", run);
        let scenario = tr
            .span("campaign.materialise", run, || cell.materialise(&try_build))
            .expect("gauntlet names resolve");
        let runner = ScenarioRunner::new(*config);
        let (report, platform) = tr.span("platform.run", run, || runner.run_keep(scenario));
        let capture = tr.span("obs.capture", run, || {
            ObsCapture::from_run(run, report, &platform)
        });
        captures.push(capture);
        drop(platform);
        tr.end(open);
    }
    let chrome = tr.span("obs.chrome", PASS, || chrome_trace(&captures));
    let jsonl = tr.span("obs.jsonl", PASS, || {
        let records: Vec<LogRecord> = captures.iter().flat_map(device_records).collect();
        write_jsonl(&records)
    });
    let prom = tr.span("obs.prom", PASS, || {
        prometheus(&merged_telemetry(&captures))
    });
    (captures, [chrome, jsonl, prom])
}

/// Every capture's telemetry folded in run order.
fn merged_telemetry(captures: &[ObsCapture]) -> TelemetrySnapshot {
    let mut snapshots = captures.iter().filter_map(|c| c.report.telemetry.as_ref());
    let mut merged = snapshots
        .next()
        .expect("export cells record telemetry")
        .clone();
    for snapshot in snapshots {
        merged.merge(snapshot);
    }
    merged
}

fn export_output(captures: &[ObsCapture], artifacts: &[String; 3]) -> Output {
    Output {
        runs: captures.iter().map(|c| report_digest(&c.report)).collect(),
        aggregate: artifacts
            .iter()
            .flat_map(|a| Sha256::digest(a.as_bytes()))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("fleet"), None);
    }

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        let jobs = |seed| {
            sweep_jobs(seed)
                .into_iter()
                .map(|j| (j.label, j.spec))
                .collect::<Vec<_>>()
        };
        assert_eq!(jobs(42), jobs(42));
        assert_ne!(jobs(42), jobs(7));
        assert_eq!(export_cells(42), export_cells(42));
        assert_ne!(export_cells(42), export_cells(7));
        assert_eq!(sweep_jobs(1).len(), GAUNTLET.len() * 3 * 2 * SWEEP_VARIANTS);
    }

    #[test]
    fn fleet_cells_are_batch_times_tee_deployment() {
        let plan = Plan::new(Workload::FleetStandard, 42);
        let cells = plan.cells();
        assert!((1..=4).contains(&cells.len()), "{}", cells.len());
        assert_eq!(Plan::new(Workload::TraceExport, 42).cells().len(), 1);
    }
}
