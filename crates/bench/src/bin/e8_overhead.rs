//! E8 — monitoring overhead vs sampling period, and the overhead/latency
//! trade (the cost side of §V's continuous monitoring).
//!
//! Run: `cargo run --release -p cres-bench --bin e8_overhead`

use cres_attacks::catalog::try_build;
use cres_platform::{PlatformConfig, PlatformProfile, Scenario, ScenarioRunner};
use cres_sim::{SimDuration, SimTime};

const FULL_DURATION: u64 = 1_000_000;

fn main() {
    cres_bench::banner(
        "E8",
        "Monitoring overhead vs sampling period (and the latency trade-off)",
    );
    let duration = cres_bench::budget(FULL_DURATION);
    let mut labelled: Vec<(String, cres_platform::RunReport)> = Vec::new();
    let widths = [16, 18, 12, 16, 14];
    cres_bench::row(
        &[
            &"sample period",
            &"overhead cycles",
            &"overhead",
            &"detect latency",
            &"relay steps",
        ],
        &widths,
    );
    cres_bench::rule(&widths);

    for period in [1_000u64, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000] {
        let mut config = PlatformConfig::new(PlatformProfile::CyberResilient, 8);
        config.monitor_period = SimDuration::cycles(period);
        let scenario = Scenario::quiet(SimDuration::cycles(duration)).attack(
            SimTime::at_cycle(duration / 2),
            SimDuration::cycles(8_000),
            try_build("code-injection").expect("catalog attack"),
        );
        let report = ScenarioRunner::new(config).run(scenario);
        cres_bench::row(
            &[
                &format!("{period}cy"),
                &report.monitor_overhead_cycles,
                &cres_bench::pct(report.monitor_overhead_cycles as f64 / duration as f64),
                &report
                    .attacks
                    .first()
                    .and_then(|a| a.detection_latency)
                    .map_or("missed".to_string(), |l| format!("{l}cy")),
                &report.critical_steps,
            ],
            &widths,
        );
        labelled.push((format!("period={period}"), report));
    }
    cres_bench::rule(&widths);

    // Baseline row for contrast.
    let config = PlatformConfig::new(PlatformProfile::PassiveTrust, 8);
    let quiet = ScenarioRunner::new(config).run(Scenario::quiet(SimDuration::cycles(duration)));
    println!(
        "passive baseline: overhead {} cycles ({}) — and detects nothing.",
        quiet.monitor_overhead_cycles,
        cres_bench::pct(quiet.monitor_overhead_cycles as f64 / duration as f64)
    );

    // Telemetry layer cost: the same worst-case cell (fastest sweep period)
    // with the recorder on vs off. Span recording is pure accounting, so
    // the simulation itself must not move — only the instrumentation
    // counter differs.
    let telemetry_scenario = || {
        Scenario::quiet(SimDuration::cycles(duration)).attack(
            SimTime::at_cycle(duration / 2),
            SimDuration::cycles(8_000),
            try_build("code-injection").expect("catalog attack"),
        )
    };
    let mut on_config = PlatformConfig::new(PlatformProfile::CyberResilient, 8);
    on_config.monitor_period = SimDuration::cycles(1_000);
    let mut off_config = on_config;
    off_config.telemetry.enabled = false;
    let on = ScenarioRunner::new(on_config).run(telemetry_scenario());
    let off = ScenarioRunner::new(off_config).run(telemetry_scenario());
    labelled.push(("telemetry=on".into(), on.clone()));
    labelled.push(("telemetry=off".into(), off.clone()));

    let snapshot = on.telemetry.as_ref().expect("telemetry enabled");
    let overhead = snapshot.instrumentation_cycles;
    let ratio = overhead as f64 / duration as f64;
    println!(
        "\ntelemetry layer (worst case, 1000cy sampling): off 0 cycles, on {} cycles ({} of the {}-cycle run)",
        overhead,
        cres_bench::pct(ratio),
        duration
    );
    println!("  {}", snapshot.summary_line());
    print!("{}", snapshot.stage_table());

    let mut on_stripped = on.clone();
    on_stripped.telemetry = None;
    assert_eq!(
        on_stripped, off,
        "telemetry recording perturbed the simulation"
    );
    assert!(
        ratio < 0.05,
        "telemetry overhead {ratio:.4} breached the 5% budget"
    );
    println!("  telemetry on/off reports identical; overhead under the 5% budget.");

    println!(
        "\nexpected shape: overhead scales ~1/period; detection latency scales\n\
         ~period. The knee (here a few thousand cycles) is where a designer\n\
         buys sub-period detection for <1% monitoring cost."
    );
    cres_bench::emit_reports("e8", labelled.iter().map(|(l, r)| (l.as_str(), r)));
}
