//! E4 — service continuity under attack: active response vs reboot-only
//! vs no response (claim C3: "a compromised resource can be physically
//! isolated … gracefully degrade the system functionality while maintaining
//! critical services").
//!
//! All three rows run the **same monitors** (full CRES detection); only the
//! planner differs, isolating the response variable. The quiet baselines
//! and attack runs for every planner/seed cell are independent, so the
//! whole grid goes through the campaign engine (`CRES_JOBS` workers).
//!
//! Run: `cargo run --release -p cres-bench --bin e4_response`

use cres_attacks::catalog::try_build;
use cres_platform::campaign::{default_jobs, Campaign, ScenarioSpec};
use cres_platform::{PlatformConfig, PlatformProfile};
use cres_sim::{SimDuration, SimTime};
use cres_ssm::PlannerMode;

const FULL_DURATION: u64 = 1_500_000;
const SEEDS: [u64; 3] = [5, 77, 3003];

/// Active cycle budget (`CRES_FAST` shrinks it; attack waves compress
/// proportionally so every vector still fires).
fn duration() -> u64 {
    cres_bench::budget(FULL_DURATION)
}

fn attack_spec() -> ScenarioSpec {
    // A sustained multi-vector campaign: flood, exploit traffic, sensor
    // spoof and repeated code injection.
    let at = |full: u64| SimTime::at_cycle(full * duration() / FULL_DURATION);
    ScenarioSpec::quiet(SimDuration::cycles(duration()))
        .attack("network-flood", at(200_000), SimDuration::cycles(3_000))
        .attack("exploit-traffic", at(400_000), SimDuration::cycles(10_000))
        .attack("sensor-spoof", at(600_000), SimDuration::cycles(1_000))
        .attack("code-injection", at(800_000), SimDuration::cycles(20_000))
}

const PLANNERS: [(&str, PlannerMode); 3] = [
    ("Active (CRES)", PlannerMode::Active),
    ("Reboot-only (passive)", PlannerMode::PassiveRebootOnly),
    ("No response", PlannerMode::None),
];

fn main() {
    cres_bench::banner(
        "E4",
        "Service continuity under multi-vector attack: response policy comparison",
    );

    // Submission order: (planner, seed, quiet-then-attack). The quiet run
    // supplies the relay-throughput denominator for its attack twin.
    let mut campaign = Campaign::new(try_build);
    for (label, planner) in PLANNERS {
        for seed in SEEDS {
            let mut config = PlatformConfig::new(PlatformProfile::CyberResilient, seed);
            config.planner_override = Some(planner);
            campaign.submit(
                format!("{label}/quiet/{seed}"),
                config,
                ScenarioSpec::quiet(SimDuration::cycles(duration())),
            );
            campaign.submit(format!("{label}/attack/{seed}"), config, attack_spec());
        }
    }
    let summary = campaign
        .run_parallel(default_jobs())
        .expect("gauntlet names resolve");
    cres_bench::emit_campaign_reports("e4", &summary);

    let widths = [22, 12, 14, 10, 12, 12];
    // "relay steps" = critical-task throughput vs an attack-free run of the
    // same policy; "healthy time" = fraction of the run the health state
    // machine reported Healthy/Degraded (it stays Compromised while attack
    // waves continue, regardless of service delivery).
    cres_bench::row(
        &[
            &"response policy",
            &"relay steps",
            &"healthy time",
            &"reboots",
            &"wins",
            &"detected",
        ],
        &widths,
    );
    cres_bench::rule(&widths);

    let mut results = summary.results.iter();
    for (label, _planner) in PLANNERS {
        let mut avail = 0.0;
        let mut ratio = 0.0;
        let mut reboots = 0.0;
        let mut wins = 0.0;
        let mut detected = 0.0;
        for _seed in SEEDS {
            let quiet = &results.next().expect("quiet run per cell").report;
            let report = &results.next().expect("attack run per cell").report;
            avail += report.availability;
            ratio += report.critical_steps as f64 / quiet.critical_steps.max(1) as f64;
            reboots += f64::from(report.reboots);
            wins += f64::from(report.attacker_wins);
            detected += report.detection_rate();
        }
        let n = SEEDS.len() as f64;
        cres_bench::row(
            &[
                &label,
                &cres_bench::pct(ratio / n),
                &cres_bench::pct(avail / n),
                &format!("{:.1}", reboots / n),
                &format!("{:.1}", wins / n),
                &cres_bench::pct(detected / n),
            ],
            &widths,
        );
    }
    cres_bench::rule(&widths);
    println!(
        "\nexpected shape: identical detection across rows; active response\n\
         preserves relay throughput (isolation/rate-limit instead of global\n\
         reboots), reboot-only pays the reboot duty cycle in relay steps, and\n\
         no-response lets attacker wins run unchecked."
    );
    if let Some(telemetry) = summary.merged_telemetry() {
        println!("\n[e4] pipeline telemetry: {}", telemetry.summary_line());
        print!("{}", telemetry.stage_table());
    }
    summary.print_aggregate("e4");
}
