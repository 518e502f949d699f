//! Layer microbenchmarks: one timed public call per row.
//!
//! Each row times one layer in isolation and reports a median with its
//! spread and sample count, plus allocations per call. Inputs are fixed
//! or drawn from the workload (its first platform cell, its fleet
//! configuration, a chain as long as its average run's), so a row moves
//! only when its layer does. The rows cover the crypto substrate, verified
//! boot, the evidence chain, the monitor→SSM tick, platform acquire and
//! training, the fleet spec/summary/SOC path and the export plane.

use std::hint::black_box;
use std::time::{Duration, Instant};

use cres_attacks::catalog::try_build;
use cres_boot::{FirmwareImage, MemArbCounters};
use cres_crypto::hmac::HmacSha256;
use cres_crypto::merkle::MerkleAccumulator;
use cres_crypto::sha2::Sha256;
use cres_fleet::{DeviceSpec, DeviceSummary, FleetConfig, FleetSoc, FleetSocConfig};
use cres_forensics::Timeline;
use cres_monitor::bus_mon::AccessWindow;
use cres_monitor::{BusPolicyMonitor, ResourceMonitor};
use cres_obs::{chrome_trace, device_records, prometheus, write_jsonl, ObsCapture};
use cres_platform::campaign::ScenarioSpec;
use cres_platform::provision::Provisioned;
use cres_platform::{Platform, PlatformConfig, PlatformPool, PlatformProfile, ScenarioRunner};
use cres_sim::{SimDuration, SimTime};
use cres_soc::addr::MasterId;
use cres_soc::soc::{layout, SocBuilder};
use cres_ssm::{CorrelationConfig, EvidenceStore, SsmConfig, SystemSecurityManager};

use crate::stats::Spread;
use crate::trace::allocs;

/// Fewest samples a row takes, whatever its budget: enough for a median
/// with ten samples beyond it.
const MIN_SAMPLES: usize = 20;
/// Most samples a row takes.
const MAX_SAMPLES: usize = 200_000;
/// Rows [`run`] measures; the budget is split evenly among them.
pub const ROWS: u32 = 23;

/// One measured row.
#[derive(Debug, Clone)]
pub struct Row {
    /// Metric name of the row's timing.
    pub name: &'static str,
    /// Unit of `spread`.
    pub unit: &'static str,
    /// Per-call time.
    pub spread: Spread,
    /// Allocations per call.
    pub allocs: f64,
}

/// Collects samples for one row until its budget is spent.
struct Sampler {
    name: &'static str,
    unit: &'static str,
    budget: Duration,
    started: Instant,
    ns: Vec<f64>,
    allocs: u64,
    calls: u64,
}

impl Sampler {
    fn new(name: &'static str, unit: &'static str, budget: Duration) -> Sampler {
        Sampler {
            name,
            unit,
            budget,
            started: Instant::now(),
            ns: Vec::new(),
            allocs: 0,
            calls: 0,
        }
    }

    fn more(&self) -> bool {
        let n = self.ns.len();
        n < MIN_SAMPLES || (n < MAX_SAMPLES && self.started.elapsed() < self.budget)
    }

    /// Times `f`, which makes `calls` calls of the row's operation, and
    /// records the per-call time and allocations.
    fn time<T>(&mut self, calls: u32, f: impl FnOnce() -> T) -> T {
        let a0 = allocs();
        let t0 = Instant::now();
        let out = black_box(f());
        let dt = t0.elapsed();
        self.allocs += allocs() - a0;
        self.calls += u64::from(calls);
        self.ns.push(dt.as_nanos() as f64 / f64::from(calls));
        out
    }

    fn finish(self) -> Row {
        let scale = match self.unit {
            "us" => 1e3,
            "ms" => 1e6,
            _ => 1.0,
        };
        let values: Vec<f64> = self.ns.iter().map(|ns| ns / scale).collect();
        Row {
            name: self.name,
            unit: self.unit,
            spread: Spread::of(&values),
            allocs: self.allocs as f64 / self.calls.max(1) as f64,
        }
    }
}

/// What the rows are built from.
pub struct Inputs<'a> {
    /// A provisioned cell of the workload (boot images, vendor key).
    pub provisioned: &'a Provisioned,
    /// The workload's first platform configuration.
    pub platform: PlatformConfig,
    /// The workload's fleet, or a standard-mix stand-in.
    pub fleet: FleetConfig,
    /// Evidence records of the workload's average run.
    pub chain_len: u64,
}

/// Measures every row, giving each `budget`. Also returns the bytes one
/// export cell renders to.
pub fn run(input: &Inputs, budget: Duration) -> (Vec<Row>, u64) {
    let mut rows = Vec::with_capacity(ROWS as usize);
    rows.extend(crypto(input, budget));
    rows.push(boot(input, budget));
    rows.extend(evidence(input, budget));
    rows.extend(ticks(input, budget));
    rows.push(pipeline(budget));
    rows.extend(platform(input, budget));
    rows.extend(fleet(input, budget));
    let (obs_rows, obs_bytes) = obs(budget);
    rows.extend(obs_rows);
    debug_assert_eq!(rows.len(), ROWS as usize);
    (rows, obs_bytes)
}

fn crypto(input: &Inputs, budget: Duration) -> [Row; 4] {
    let kib: Vec<u8> = (0..16 * 1024).map(|i| (i * 31 % 251) as u8).collect();
    let mut s = Sampler::new("crypto.sha256.ns_per_kib", "ns", budget);
    while s.more() {
        // one 16 KiB digest, reported per KiB
        s.time(16, || Sha256::digest(black_box(&kib)));
    }
    let sha = s.finish();

    let msg = &kib[..64];
    let mut s = Sampler::new("crypto.hmac_sha256_64b.ns", "ns", budget);
    while s.more() {
        s.time(64, || {
            for _ in 0..64 {
                black_box(HmacSha256::mac(b"evidence-key", black_box(msg)));
            }
        });
    }
    let hmac = s.finish();

    let vendor = &input.provisioned.vendor;
    let signature = vendor.private.sign(&kib[..1024]);
    let mut s = Sampler::new("crypto.rsa_verify_512.us", "us", budget);
    while s.more() {
        s.time(1, || {
            vendor
                .public
                .verify(black_box(&kib[..1024]), black_box(&signature))
                .expect("signature verifies")
        });
    }
    let rsa = s.finish();

    let mut acc = MerkleAccumulator::new();
    let leaf = Sha256::digest(b"leaf");
    let mut s = Sampler::new("crypto.merkle_append.ns", "ns", budget);
    while s.more() {
        s.time(256, || {
            for _ in 0..256 {
                acc.append_digest(black_box(&leaf));
            }
        });
    }
    [sha, hmac, rsa, s.finish()]
}

fn boot(input: &Inputs, budget: Duration) -> Row {
    let p = input.provisioned;
    let sig_len = p.vendor.public.modulus_len();
    let bootloader = FirmwareImage::from_bytes(&p.bootloader, sig_len).expect("bootloader parses");
    let app = FirmwareImage::from_bytes(p.slots.active_bytes(), sig_len).expect("app parses");
    let mut s = Sampler::new("boot.verify.us", "us", budget);
    while s.more() {
        let mut arb = MemArbCounters::new();
        let booted = s.time(1, || p.chain.boot(&[&bootloader, &app], &mut arb).booted());
        assert!(booted, "provisioned images boot");
    }
    s.finish()
}

/// A store of `len` records shaped like a run's chain.
fn chain(len: u64) -> EvidenceStore {
    const CATEGORIES: [&str; 4] = ["bus-policy", "incident", "response", "recovery"];
    let mut store = EvidenceStore::new(b"cres-benchmark");
    for i in 0..len {
        store.append(
            SimTime::at_cycle(i * 1_000),
            CATEGORIES[i as usize % CATEGORIES.len()],
            "out-of-policy R by CPU1 at 0x50000000",
        );
    }
    store
}

fn evidence(input: &Inputs, budget: Duration) -> [Row; 4] {
    let mut store = chain(1_000);
    let mut next = 1_000u64;
    let mut s = Sampler::new("ssm.evidence.append.ns", "ns", budget);
    while s.more() {
        s.time(64, || {
            for _ in 0..64 {
                next += 1;
                store.append(SimTime::at_cycle(next * 1_000), "bench", "payload line");
            }
        });
    }
    let append = s.finish();

    let len = input.chain_len.max(16);
    let mut store = chain(len);
    let mut s = Sampler::new("ssm.evidence.seal.us", "us", budget);
    while s.more() {
        s.time(1, || store.seal(SimTime::at_cycle(len * 1_000)));
    }
    let seal = s.finish();

    let mut s = Sampler::new("ssm.evidence.verify.us", "us", budget);
    while s.more() {
        s.time(1, || store.verify().expect("chain verifies"));
    }
    let verify = s.finish();

    let mut s = Sampler::new("forensics.timeline.us", "us", budget);
    while s.more() {
        s.time(1, || Timeline::reconstruct(store.records()));
    }
    [append, seal, verify, s.finish()]
}

/// The steady (event-free) monitor tick: one sampling pass plus one SSM
/// ingest, after a burst of in-policy bus traffic.
fn tick_row(
    name: &'static str,
    config: PlatformConfig,
    pool: &mut PlatformPool,
    budget: Duration,
) -> Row {
    let mut p = pool.acquire(config);
    p.train_syscall_monitor(50);
    let sram = layout::SRAM.0;
    let mut tick = 0u64;
    let mut s = Sampler::new(name, "ns", budget);
    while s.more() {
        tick += 1;
        let now = SimTime::at_cycle(tick * 5_000);
        p.soc.watchdog.kick(now);
        for k in 0..32u64 {
            let _ = p.soc.bus.write(
                SimTime::at_cycle(tick * 5_000 - 32 + k),
                MasterId::CPU0,
                sram.offset(64 + 8 * k),
                &[0u8; 8],
                &mut p.soc.mem,
            );
        }
        let collected = s.time(1, || {
            let collected = p.sample_monitors_buffered(now);
            black_box(p.ingest_sampled(now));
            collected
        });
        assert_eq!(collected, 0, "steady tick emitted events");
    }
    pool.release(p);
    s.finish()
}

fn ticks(input: &Inputs, budget: Duration) -> [Row; 2] {
    let mut pool = PlatformPool::new();
    let mut config = PlatformConfig::new(PlatformProfile::CyberResilient, input.platform.seed);
    config.telemetry.enabled = false;
    let off = tick_row("monitor.tick.ns", config, &mut pool, budget);
    config.telemetry.enabled = true;
    let on = tick_row("telemetry.tick.ns", config, &mut pool, budget);
    [off, on]
}

/// Bus policy monitor sampling plus SSM ingest of a burst of denied
/// probes, evidence off, spaced so no incident forms: the per-event cost
/// of the sample→correlate→plan path.
fn pipeline(budget: Duration) -> Row {
    const EVENTS: u32 = 512;
    let mut soc = SocBuilder::with_standard_layout(1).bus_ring(4_096).build();
    let ssm_private = soc
        .mem
        .region_by_name("ssm_private")
        .expect("standard layout")
        .id();
    for m in MasterId::ALL {
        if m != MasterId::SSM {
            soc.mem.revoke(m, ssm_private);
        }
    }
    let region = |name: &str| soc.mem.region_by_name(name).expect("standard layout").id();
    let mut windows = Vec::new();
    for cpu in 0..4 {
        for (name, read, write, exec) in
            [("flash_a", true, false, true), ("sram", true, true, false)]
        {
            windows.push(AccessWindow {
                master: MasterId::cpu(cpu),
                region: region(name),
                read,
                write,
                exec,
            });
        }
    }
    let mut monitor = BusPolicyMonitor::new(windows, true);
    let base = PlatformConfig::new(PlatformProfile::CyberResilient, 1);
    let mut ssm = SystemSecurityManager::new(
        SsmConfig {
            deployment: base.ssm_deployment(),
            correlation: CorrelationConfig::default(),
            planner: base.planner_mode(),
            evidence_enabled: false,
        },
        b"cres-benchmark",
    );
    let mut epoch = 0u64;
    let mut events = Vec::with_capacity(EVENTS as usize);
    let mut s = Sampler::new("ssm.pipeline.ns_per_event", "ns", budget);
    while s.more() {
        for i in 0..u64::from(EVENTS) {
            let _ = soc.bus.write(
                SimTime::at_cycle((epoch + i) * 250_000),
                MasterId::CPU3,
                layout::SSM_PRIVATE.0,
                &[0u8; 8],
                &mut soc.mem,
            );
        }
        epoch += u64::from(EVENTS);
        let now = SimTime::at_cycle(epoch * 250_000);
        events.clear();
        let plans = s.time(EVENTS, || {
            monitor.sample_into(&mut soc, now, &mut events);
            ssm.ingest(now, &events)
        });
        assert_eq!(events.len(), EVENTS as usize);
        assert!(plans.is_empty(), "pipeline probes raised an incident");
    }
    s.finish()
}

fn platform(input: &Inputs, budget: Duration) -> [Row; 2] {
    let mut pool = PlatformPool::new();
    let warm = pool.acquire(input.platform);
    pool.release(warm);
    let mut s = Sampler::new("platform.acquire.us", "us", budget);
    while s.more() {
        let p = s.time(1, || pool.acquire(input.platform));
        pool.release(p);
    }
    let acquire = s.finish();

    let mut s = Sampler::new("platform.train.us", "us", budget);
    while s.more() {
        let mut p = pool.acquire(input.platform);
        ScenarioRunner::install_default_workload(&mut p);
        s.time(1, || p.train_syscall_monitor(50));
        pool.release(p);
    }
    [acquire, s.finish()]
}

fn fleet(input: &Inputs, budget: Duration) -> [Row; 5] {
    let config = &input.fleet;
    let ids = config.devices.max(1);
    // sub-microsecond calls: time BATCH per sample, collecting the
    // results into reserved storage so drops stay outside the clock
    const BATCH: u32 = 16;
    let mut id = 0u32;
    let mut specs = Vec::with_capacity(BATCH as usize);
    let mut s = Sampler::new("fleet.spec.us", "us", budget);
    while s.more() {
        specs.clear();
        s.time(BATCH, || {
            for _ in 0..BATCH {
                id = (id + 1) % ids;
                let spec = DeviceSpec::generate(config, id);
                let scenario = spec.scenario_spec();
                specs.push((spec, scenario));
            }
        });
    }
    let spec = s.finish();

    // materialise attacked devices only: quiet specs resolve nothing
    let attacked: Vec<ScenarioSpec> = (0..ids)
        .map(|id| DeviceSpec::generate(config, id))
        .filter(|spec| spec.attack.is_some())
        .take(64)
        .map(|spec| spec.scenario_spec())
        .collect();
    assert!(!attacked.is_empty(), "fleet mix attacks no device");
    let mut scenarios = Vec::with_capacity(BATCH as usize);
    let mut s = Sampler::new("campaign.materialise.us", "us", budget);
    let mut k = 0usize;
    while s.more() {
        scenarios.clear();
        s.time(BATCH, || {
            for _ in 0..BATCH {
                k = (k + 1) % attacked.len();
                scenarios.push(attacked[k].materialise(&try_build));
            }
        });
        assert!(
            scenarios.iter().all(Result::is_ok),
            "fleet mix names catalog attacks"
        );
    }
    let materialise = s.finish();

    // a few real device reports to distil and fold
    let mut pool = PlatformPool::new();
    let reports: Vec<_> = (0..8.min(ids))
        .map(|id| {
            let spec = DeviceSpec::generate(config, id);
            let scenario = spec
                .scenario_spec()
                .materialise(&try_build)
                .expect("fleet mix names catalog attacks");
            ScenarioRunner::new(spec.platform_config(config.telemetry))
                .run_pooled(&mut pool, scenario)
        })
        .collect();
    let mut distilled = Vec::with_capacity(BATCH as usize);
    let mut s = Sampler::new("fleet.summary.us", "us", budget);
    while s.more() {
        distilled.clear();
        s.time(BATCH, || {
            for k in 0..BATCH as usize {
                let report = &reports[k % reports.len()];
                distilled.push(DeviceSummary::from_report(k as u32, report));
            }
        });
    }
    let summary = s.finish();

    const FLEET: u32 = 4_096;
    let summaries: Vec<DeviceSummary> = (0..FLEET)
        .map(|id| DeviceSummary::from_report(id, &reports[id as usize % reports.len()]))
        .collect();
    let mut soc = FleetSoc::new(FleetSocConfig::default());
    let mut s = Sampler::new("fleet.soc.ingest.us", "us", budget);
    while s.more() {
        if soc.ingested() + BATCH > FLEET {
            soc = FleetSoc::new(FleetSocConfig::default());
        }
        let from = soc.ingested() as usize;
        let batch = &summaries[from..from + BATCH as usize];
        s.time(BATCH, || {
            for summary in batch {
                soc.ingest(summary);
            }
        });
    }
    let ingest = s.finish();

    let mut s = Sampler::new("fleet.soc.finish.us", "us", budget);
    while s.more() {
        let mut soc = FleetSoc::new(FleetSocConfig::default());
        for summary in &summaries[..256] {
            soc.ingest(summary);
        }
        s.time(1, || soc.finish());
    }
    [spec, materialise, summary, ingest, s.finish()]
}

/// The export rows on the e16 worst-case cell, plus the bytes one cell
/// exports.
fn obs(budget: Duration) -> ([Row; 4], u64) {
    let mut config = PlatformConfig::new(PlatformProfile::CyberResilient, 8);
    config.monitor_period = SimDuration::cycles(1_000);
    let scenario = ScenarioSpec::quiet(SimDuration::cycles(1_000_000))
        .attack(
            "code-injection",
            SimTime::at_cycle(500_000),
            SimDuration::cycles(8_000),
        )
        .materialise(&try_build)
        .expect("catalog attack");
    let (report, platform): (_, Platform) = ScenarioRunner::new(config).run_keep(scenario);

    let mut s = Sampler::new("obs.capture.ms", "ms", budget);
    while s.more() {
        let copy = report.clone();
        s.time(1, || ObsCapture::from_run(0, copy, &platform));
    }
    let capture_row = s.finish();
    let capture = ObsCapture::from_run(0, report, &platform);
    let one = std::slice::from_ref(&capture);

    let mut s = Sampler::new("obs.chrome.ms", "ms", budget);
    while s.more() {
        s.time(1, || chrome_trace(one));
    }
    let chrome = s.finish();

    let mut s = Sampler::new("obs.jsonl.ms", "ms", budget);
    while s.more() {
        s.time(1, || write_jsonl(&device_records(&capture)));
    }
    let jsonl = s.finish();

    let snapshot = capture.report.telemetry.as_ref().expect("telemetry on");
    let mut s = Sampler::new("obs.prom.us", "us", budget);
    while s.more() {
        s.time(1, || prometheus(snapshot));
    }
    let prom = s.finish();

    let bytes = chrome_trace(one).len()
        + write_jsonl(&device_records(&capture)).len()
        + prometheus(snapshot).len();
    ([capture_row, chrome, jsonl, prom], bytes as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sampler_takes_at_least_the_minimum_and_scales_units() {
        let mut s = Sampler::new("x", "us", Duration::ZERO);
        while s.more() {
            s.time(2, || std::thread::sleep(Duration::from_micros(20)));
        }
        let row = s.finish();
        assert_eq!(row.spread.n, MIN_SAMPLES);
        // two calls per 20+ µs sample: at least 10 µs per call
        assert!(row.spread.median >= 10.0, "{}", row.spread.median);
        assert_eq!(row.unit, "us");
    }
}
