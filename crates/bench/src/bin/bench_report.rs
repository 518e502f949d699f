//! `bench_report` — the perf-trajectory harness.
//!
//! Runs the hot-path benchmark workloads (steady-state platform tick,
//! monitor→SSM event pipeline, evidence append, Merkle seal, full platform
//! slice, end-to-end campaign) under a counting global allocator and writes
//! `BENCH_pipeline.json`: per-bench median ns/iter, derived throughput and
//! allocations per iteration, next to the committed pre-optimisation
//! baseline so CI and future PRs can track the trajectory.
//!
//! Run: `cargo run --release -p cres-bench --bin bench_report`
//!
//! * `CRES_FAST=1` shrinks sample counts (CI smoke mode);
//! * `CRES_REPORT_DIR=<dir>` redirects the JSON artifact (default: CWD).

use cres_fleet::{run_fleet, FleetConfig};
use cres_monitor::bus_mon::AccessWindow;
use cres_monitor::{BusPolicyMonitor, ResourceMonitor};
use cres_platform::{
    Platform, PlatformConfig, PlatformPool, PlatformProfile, Scenario, ScenarioRunner,
};
use cres_sim::{SimDuration, SimTime};
use cres_soc::addr::MasterId;
use cres_soc::soc::{layout, SocBuilder};
use cres_ssm::{CorrelationConfig, EvidenceStore, SsmConfig, SystemSecurityManager};
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Counting allocator: every heap allocation in the process bumps a relaxed
/// counter, so each timed region can report allocations per iteration.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: delegates every operation to `System` unchanged; the counter is a
// side effect only.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// One measured benchmark.
struct BenchResult {
    name: &'static str,
    median_ns_per_iter: f64,
    /// Events (or appends/seals/runs) per second, when the bench has a
    /// natural per-iteration element count.
    throughput_per_sec: Option<f64>,
    allocs_per_iter: f64,
}

/// Pre-pooling numbers, measured at the commit before the campaign layer
/// got platform pooling and incremental Merkle sealing (fresh platform +
/// full re-provisioning per job, batch tree rebuild per seal, per-record
/// category/payload `String`s). Kept in the artifact's `baseline` field so
/// every future `BENCH_pipeline.json` carries its own reference point.
struct BaselineEntry {
    name: &'static str,
    median_ns_per_iter: f64,
    throughput_per_sec: Option<f64>,
    allocs_per_iter: f64,
}

const BASELINE: &[BaselineEntry] = &[
    BaselineEntry {
        name: "steady_tick",
        median_ns_per_iter: 3_223.0,
        throughput_per_sec: Some(9_928_468.0),
        allocs_per_iter: 0.0,
    },
    BaselineEntry {
        name: "pipeline_events",
        median_ns_per_iter: 41_091.0,
        throughput_per_sec: Some(12_460_180.0),
        allocs_per_iter: 0.0,
    },
    BaselineEntry {
        name: "evidence_append",
        median_ns_per_iter: 1_897.0,
        throughput_per_sec: Some(527_165.0),
        allocs_per_iter: 2.0,
    },
    BaselineEntry {
        name: "merkle_seal_10k",
        median_ns_per_iter: 11_658_241.0,
        throughput_per_sec: Some(857_762.0),
        allocs_per_iter: 19.0,
    },
    BaselineEntry {
        name: "platform_slice_100k",
        median_ns_per_iter: 67_038_622.0,
        throughput_per_sec: None,
        allocs_per_iter: 677_671.0,
    },
    // Renamed from `campaign_events_per_sec`: the bench always measured
    // whole campaign runs (one attacked cell per profile), so throughput
    // is runs/sec — 3 runs over the pre-pooling 122.7ms iteration.
    BaselineEntry {
        name: "campaign_runs_per_sec",
        median_ns_per_iter: 122_690_758.0,
        throughput_per_sec: Some(24.0),
        allocs_per_iter: 1_195_599.0,
    },
];

/// Times `f` over `samples` batches of `iters` calls; reports the median
/// per-iteration time and the mean allocation count per iteration.
fn measure(
    name: &'static str,
    elements_per_iter: Option<u64>,
    iters: u64,
    samples: usize,
    mut f: impl FnMut(),
) -> BenchResult {
    // Warm-up: let lazily grown buffers reach steady state.
    for _ in 0..iters.min(16) {
        f();
    }
    let mut per_iter_ns: Vec<f64> = Vec::with_capacity(samples);
    let mut total_allocs = 0u64;
    for _ in 0..samples {
        let a0 = ALLOCS.load(Ordering::Relaxed);
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        let dt = t0.elapsed();
        total_allocs += ALLOCS.load(Ordering::Relaxed) - a0;
        per_iter_ns.push(dt.as_nanos() as f64 / iters as f64);
    }
    per_iter_ns.sort_by(|a, b| a.total_cmp(b));
    let median_ns_per_iter = per_iter_ns[per_iter_ns.len() / 2];
    let allocs_per_iter = total_allocs as f64 / (samples as u64 * iters) as f64;
    let throughput_per_sec =
        elements_per_iter.map(|n| n as f64 * 1e9 / median_ns_per_iter.max(1e-9));
    println!(
        "{name:<28} {median_ns_per_iter:>12.0} ns/iter  {:>14}  {allocs_per_iter:>8.1} allocs/iter",
        throughput_per_sec.map_or("—".to_string(), |t| format!("{t:.0}/s")),
    );
    BenchResult {
        name,
        median_ns_per_iter,
        throughput_per_sec,
        allocs_per_iter,
    }
}

fn scaled(samples: usize) -> usize {
    if cres_bench::fast_mode() {
        (samples / 4).max(3)
    } else {
        samples
    }
}

/// Policy windows matching the platform's mission policy for CPU cores.
fn cpu_windows(soc: &cres_soc::Soc) -> Vec<AccessWindow> {
    let r = |name: &str| soc.mem.region_by_name(name).unwrap().id();
    let mut windows = Vec::new();
    for cpu in 0..4 {
        for (region, read, write, exec) in
            [("flash_a", true, false, true), ("sram", true, true, false)]
        {
            windows.push(AccessWindow {
                master: MasterId::cpu(cpu),
                region: r(region),
                read,
                write,
                exec,
            });
        }
    }
    windows
}

/// Steady-state platform tick: benign bus traffic, one monitor sampling
/// pass, one SSM ingest — the path the tentpole makes allocation-free.
fn bench_steady_tick() -> BenchResult {
    let mut p = Platform::new(PlatformConfig::new(PlatformProfile::CyberResilient, 7));
    p.train_syscall_monitor(50);
    let sram = layout::SRAM.0;
    let mut tick = 0u64;
    measure("steady_tick", Some(32), 200, scaled(40), move || {
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
        let collected = p.sample_monitors_buffered(now);
        assert_eq!(collected, 0, "steady tick emitted events");
        let plans = p.ingest_sampled(now);
        black_box(plans.len());
    })
}

/// The headline pipeline bench: produce a burst of denied bus probes, tap
/// them through a persistent `BusPolicyMonitor` and ingest every produced
/// event into the SSM — the full transaction→event→correlate→plan path.
/// Evidence is disabled so the number isolates the sample→correlate→plan
/// path rather than HMAC cost; probe timestamps advance wider than the
/// correlation window so the stream stays incident-free (steady state).
fn bench_pipeline_events() -> BenchResult {
    const EVENTS: u64 = 512;
    let mut soc = SocBuilder::with_standard_layout(1).bus_ring(4_096).build();
    let ssm_private = soc.mem.region_by_name("ssm_private").unwrap().id();
    for m in MasterId::ALL {
        if m != MasterId::SSM {
            soc.mem.revoke(m, ssm_private);
        }
    }
    let mut mon = BusPolicyMonitor::new(cpu_windows(&soc), true);
    let base = PlatformConfig::new(PlatformProfile::CyberResilient, 1);
    let mut ssm = SystemSecurityManager::new(
        SsmConfig {
            deployment: base.ssm_deployment(),
            correlation: CorrelationConfig::default(),
            planner: base.planner_mode(),
            evidence_enabled: false,
        },
        b"bench-key",
    );
    let mut epoch = 0u64;
    let mut events = Vec::with_capacity(EVENTS as usize);
    measure("pipeline_events", Some(EVENTS), 50, scaled(40), move || {
        // Denied probes, spaced wider than the 200k-cycle correlation
        // window, timestamps strictly advancing across iterations.
        for i in 0..EVENTS {
            let _ = soc.bus.write(
                SimTime::at_cycle((epoch + i) * 250_000),
                MasterId::CPU3,
                layout::SSM_PRIVATE.0,
                &[0u8; 8],
                &mut soc.mem,
            );
        }
        epoch += EVENTS;
        let now = SimTime::at_cycle(epoch * 250_000);
        events.clear();
        mon.sample_into(&mut soc, now, &mut events);
        assert_eq!(events.len() as u64, EVENTS);
        let plans = ssm.ingest(now, &events);
        assert!(plans.is_empty(), "pipeline bench raised incidents");
        black_box(events.len());
    })
}

/// Evidence append with a 1k-record chain behind it (HMAC-dominated).
fn bench_evidence_append() -> BenchResult {
    let mut s = EvidenceStore::new(b"bench-key");
    for i in 0..1_000u64 {
        s.append(
            SimTime::at_cycle(i),
            "bus-policy",
            "out-of-policy R by CPU1 at 0x50000000",
        );
    }
    let mut i = 1_000u64;
    measure("evidence_append", Some(1), 2_000, scaled(40), move || {
        i += 1;
        s.append(SimTime::at_cycle(i), "bench", black_box("payload line"));
    })
}

/// Merkle seal over a 10k-record store (leaf-borrowing target).
fn bench_merkle_seal() -> BenchResult {
    let mut s = EvidenceStore::new(b"bench-key");
    for i in 0..10_000u64 {
        s.append(SimTime::at_cycle(i), "bench", "payload line");
    }
    measure("merkle_seal_10k", Some(10_000), 20, scaled(20), move || {
        black_box(s.seal(SimTime::at_cycle(10_000)));
    })
}

/// Full platform slice: 100k quiet cycles under the resilient profile,
/// through the campaign workers' pooled path (recycled platform + cached
/// provisioning). The `measure` warm-up call fills the pool.
fn bench_platform_slice() -> BenchResult {
    let mut pool = PlatformPool::new();
    measure("platform_slice_100k", None, 1, scaled(12), move || {
        let config = PlatformConfig::new(PlatformProfile::CyberResilient, 3);
        let report = ScenarioRunner::new(config)
            .run_pooled(&mut pool, Scenario::quiet(SimDuration::cycles(100_000)));
        black_box(report.critical_steps);
    })
}

/// One attacked campaign cell per profile through a shared worker pool;
/// returns total monitor events processed.
fn run_campaign_cells(pool: &mut PlatformPool, budget: u64) -> u64 {
    use cres_bench::scenarios::build;
    let mut events = 0u64;
    for profile in PlatformProfile::ALL {
        let scenario = Scenario::quiet(SimDuration::cycles(budget)).attack(
            SimTime::at_cycle(200_000),
            SimDuration::cycles(3_000),
            build("network-flood"),
        );
        let report =
            ScenarioRunner::new(PlatformConfig::new(profile, 11)).run_pooled(pool, scenario);
        events += report.total_events;
    }
    events
}

/// End-to-end campaign runs/sec: one attacked cell per profile on a
/// worker-style platform pool. One iteration = `PlatformProfile::ALL.len()`
/// full scenario runs, so throughput honestly reports runs (not the
/// monitor events the old `campaign_events_per_sec` name implied).
fn bench_campaign() -> BenchResult {
    let budget = cres_bench::budget(600_000);
    let mut pool = PlatformPool::new();
    // Sanity pass (the cells really process events) that also warms the
    // pool's provisioning cache for all three cells.
    let total_events = run_campaign_cells(&mut pool, budget);
    assert!(total_events > 0, "campaign cells processed no events");
    measure(
        "campaign_runs_per_sec",
        Some(PlatformProfile::ALL.len() as u64),
        1,
        scaled(8),
        move || {
            black_box(run_campaign_cells(&mut pool, budget));
        },
    )
}

/// Fleet throughput: devices simulated per wall-clock second through the
/// sharded fleet runner (spec forking, pooled device runs, summary
/// shipping, streaming SOC correlation). Runs single-worker so the number
/// is schedule-stable across runners; `e15_fleet` reports the worker
/// sweep.
fn bench_fleet() -> BenchResult {
    let devices: u32 = if cres_bench::fast_mode() { 12 } else { 48 };
    let mut config = FleetConfig::new(devices, 11);
    config.device_cycles = 60_000;
    measure(
        "fleet_devices_per_sec",
        Some(u64::from(devices)),
        1,
        scaled(8),
        move || {
            let report = run_fleet(&config, 1, cres_attacks::catalog::try_build)
                .expect("fleet mix resolves");
            assert_eq!(report.verdict.devices, devices);
            black_box(report.devices_per_sec);
        },
    )
}

fn json_bench_line(
    name: &str,
    median_ns_per_iter: f64,
    throughput_per_sec: Option<f64>,
    allocs_per_iter: f64,
    last: bool,
) -> String {
    format!(
        "    {{\"name\": \"{name}\", \"median_ns_per_iter\": {median_ns_per_iter:.0}, \"throughput_per_sec\": {}, \"allocs_per_iter\": {allocs_per_iter:.1}}}{}\n",
        throughput_per_sec.map_or("null".to_string(), |t| format!("{t:.0}")),
        if last { "" } else { "," },
    )
}

fn write_json(results: &[BenchResult]) {
    let mut out = String::from("{\n  \"schema\": \"cres-bench-report-v1\",\n  \"benches\": [\n");
    for (i, r) in results.iter().enumerate() {
        out.push_str(&json_bench_line(
            r.name,
            r.median_ns_per_iter,
            r.throughput_per_sec,
            r.allocs_per_iter,
            i + 1 == results.len(),
        ));
    }
    out.push_str("  ],\n  \"baseline\": [\n");
    for (i, b) in BASELINE.iter().enumerate() {
        out.push_str(&json_bench_line(
            b.name,
            b.median_ns_per_iter,
            b.throughput_per_sec,
            b.allocs_per_iter,
            i + 1 == BASELINE.len(),
        ));
    }
    out.push_str("  ]\n}\n");
    let dir = std::env::var_os("CRES_REPORT_DIR").unwrap_or_else(|| ".".into());
    let path = std::path::Path::new(&dir).join("BENCH_pipeline.json");
    std::fs::write(&path, out).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    println!("\nwrote {}", path.display());
}

/// Prints the trajectory vs the committed pre-pooling baseline.
fn print_deltas(results: &[BenchResult]) {
    println!("\n-- vs pre-pooling baseline --");
    for r in results {
        let Some(b) = BASELINE.iter().find(|b| b.name == r.name) else {
            continue;
        };
        let speedup = b.median_ns_per_iter / r.median_ns_per_iter.max(1e-9);
        println!(
            "{:<28} {speedup:>6.2}x faster   allocs {:>9.1} -> {:>7.1}",
            r.name, b.allocs_per_iter, r.allocs_per_iter,
        );
    }
}

/// The acceptance gates. Allocation counts are deterministic, so the
/// allocation gates hold in every mode; the timing/throughput gates only
/// run outside `CRES_FAST` (fast mode shrinks workloads, which shifts
/// throughput without meaning anything).
fn enforce_gates(results: &[BenchResult]) {
    let get = |name: &str| {
        results
            .iter()
            .find(|r| r.name == name)
            .unwrap_or_else(|| panic!("gate references missing bench {name:?}"))
    };
    let mut failures: Vec<String> = Vec::new();

    // Zero-alloc hot paths: a fraction below 0.5 tolerates nothing but
    // amortised Vec doubling noise.
    for name in ["steady_tick", "pipeline_events", "evidence_append"] {
        let r = get(name);
        if r.allocs_per_iter >= 0.5 {
            failures.push(format!(
                "{name}: {:.1} allocs/iter (must be allocation-free)",
                r.allocs_per_iter
            ));
        }
    }
    // The campaign-wall ratchet, matching `alloc_campaign`: a warm pooled
    // 100k-cycle slice must never pay re-provisioning (~600k allocs) or a
    // boxed closure per scheduled event again.
    let slice = get("platform_slice_100k");
    if slice.allocs_per_iter > 25_000.0 {
        failures.push(format!(
            "platform_slice_100k: {:.0} allocs/iter (ceiling 25000; pooling or the event queue regressed)",
            slice.allocs_per_iter
        ));
    }

    if !cres_bench::fast_mode() {
        // Incremental sealing: >= 5x faster than the pre-pooling batch
        // rebuild at 10k records.
        let seal = get("merkle_seal_10k");
        let seal_target = 11_658_241.0 / 5.0;
        if seal.median_ns_per_iter > seal_target {
            failures.push(format!(
                "merkle_seal_10k: {:.0} ns/iter (must be <= {seal_target:.0}, 5x faster than the batch baseline)",
                seal.median_ns_per_iter
            ));
        }
        // Campaign throughput floor (pre-pooling baseline was 24 runs/s;
        // pooling landed ~85 runs/s — the floor keeps most of that win).
        let campaign = get("campaign_runs_per_sec");
        let throughput = campaign.throughput_per_sec.unwrap_or(0.0);
        if throughput < 38.0 {
            failures.push(format!(
                "campaign_runs_per_sec: {throughput:.0}/s (floor 38/s)"
            ));
        }
        // Fleet throughput floor: the sharded runner must stay within
        // pooled-slice territory per device, not regress toward fresh
        // provisioning per device (~0.9 devices/s).
        let fleet = get("fleet_devices_per_sec");
        let fleet_throughput = fleet.throughput_per_sec.unwrap_or(0.0);
        if fleet_throughput < 120.0 {
            failures.push(format!(
                "fleet_devices_per_sec: {fleet_throughput:.0}/s (floor 120/s)"
            ));
        }
    }

    if failures.is_empty() {
        println!("\nall bench gates passed");
    } else {
        for failure in &failures {
            eprintln!("bench gate FAILED: {failure}");
        }
        panic!("{} bench gate(s) failed", failures.len());
    }
}

fn main() {
    cres_bench::banner("BENCH", "Hot-path benchmark report");
    let results = vec![
        bench_steady_tick(),
        bench_pipeline_events(),
        bench_evidence_append(),
        bench_merkle_seal(),
        bench_platform_slice(),
        bench_campaign(),
        bench_fleet(),
    ];
    print_deltas(&results);
    write_json(&results);
    enforce_gates(&results);
}
