//! E14 — the availability-vs-detection frontier: graded degradation tiers
//! (the response policy engine) vs passive reboot vs watchdog-only, swept
//! across an attack-intensity ladder.
//!
//! The policy axis isolates *response strategy*:
//!
//! * **cres-tiers** — full CRES monitors, active planner, policy engine
//!   armed: per-resource circuit breakers and graded tiers
//!   (`Full → ShedNonCritical → CriticalOnly → SafeHalt`) with hysteresis.
//! * **passive-reboot** — the *same monitors* (so detection is equal by
//!   construction) but a reboot-only planner and no policy engine: every
//!   incident answers with a global reboot.
//! * **watchdog-only** — the passive baseline: no runtime monitors at all;
//!   the watchdog's hang detection is the only tripwire.
//!
//! Each cell pairs an attack run with a quiet twin of the same policy, so
//! "critical availability" is the relay's delivered step fraction against
//! its own attack-free throughput — comparable across policies that differ
//! in reboot duty cycle.
//!
//! Run: `cargo run --release -p cres-bench --bin e14_frontier`

use cres_attacks::catalog::try_build;
use cres_platform::campaign::{default_jobs, Campaign, ScenarioSpec};
use cres_platform::{PlatformConfig, PlatformProfile};
use cres_response::PolicyConfig;
use cres_sim::{SimDuration, SimTime};
use cres_ssm::PlannerMode;

const FULL_DURATION: u64 = 1_500_000;
const SEED: u64 = 42;

fn duration() -> u64 {
    cres_bench::budget(FULL_DURATION)
}

const POLICIES: [&str; 3] = ["cres-tiers", "passive-reboot", "watchdog-only"];

fn policy_config(policy: &str) -> PlatformConfig {
    match policy {
        "cres-tiers" => {
            let mut config = PlatformConfig::new(PlatformProfile::CyberResilient, SEED);
            config.policy = PolicyConfig::enabled();
            config
        }
        "passive-reboot" => {
            let mut config = PlatformConfig::new(PlatformProfile::CyberResilient, SEED);
            config.planner_override = Some(PlannerMode::PassiveRebootOnly);
            config
        }
        "watchdog-only" => PlatformConfig::new(PlatformProfile::PassiveTrust, SEED),
        other => unreachable!("unknown policy {other}"),
    }
}

const INTENSITIES: [&str; 3] = ["low", "medium", "high"];

/// The intensity ladder: each rung adds vectors and density. Attack
/// offsets scale with the active budget so every wave still fires under
/// `CRES_FAST`.
fn intensity_spec(level: &str) -> ScenarioSpec {
    let at = |full: u64| SimTime::at_cycle(full * duration() / FULL_DURATION);
    let spec = ScenarioSpec::quiet(SimDuration::cycles(duration()));
    match level {
        "low" => spec.attack("network-flood", at(200_000), SimDuration::cycles(6_000)),
        "medium" => spec
            .attack("network-flood", at(200_000), SimDuration::cycles(3_000))
            .attack("exploit-traffic", at(500_000), SimDuration::cycles(12_000)),
        "high" => spec
            .attack("network-flood", at(200_000), SimDuration::cycles(1_500))
            .attack("exploit-traffic", at(450_000), SimDuration::cycles(6_000))
            .attack("sensor-spoof", at(700_000), SimDuration::cycles(2_000))
            .attack("code-injection", at(900_000), SimDuration::cycles(20_000)),
        other => unreachable!("unknown intensity {other}"),
    }
}

fn main() {
    cres_bench::banner(
        "E14",
        "Availability-vs-detection frontier: graded tiers vs passive reboot vs watchdog",
    );

    // Submission order per policy: quiet twin first, then one attack run
    // per intensity rung. The quiet twin supplies every rung's
    // critical-step denominator.
    let mut campaign = Campaign::new(try_build);
    for policy in POLICIES {
        let config = policy_config(policy);
        campaign.submit(
            format!("{policy}/quiet"),
            config,
            ScenarioSpec::quiet(SimDuration::cycles(duration())),
        );
        for level in INTENSITIES {
            campaign.submit(format!("{policy}/{level}"), config, intensity_spec(level));
        }
    }
    let summary = campaign
        .run_parallel(default_jobs())
        .expect("catalog names resolve");
    cres_bench::emit_campaign_reports("e14", &summary);

    let widths = [10, 16, 10, 14, 14, 9, 6, 18];
    cres_bench::row(
        &[
            &"intensity",
            &"policy",
            &"detected",
            &"crit avail",
            &"non-crit",
            &"reboots",
            &"wins",
            &"tier (peak/final)",
        ],
        &widths,
    );
    cres_bench::rule(&widths);

    let mut results = summary.results.iter();
    // frontier[level] -> (cres detection, cres avail, passive detection, passive avail)
    let mut frontier = vec![(0.0f64, 0.0f64, 0.0f64, 0.0f64); INTENSITIES.len()];
    for policy in POLICIES {
        let quiet = &results.next().expect("quiet twin per policy").report;
        for (index, level) in INTENSITIES.iter().enumerate() {
            let report = &results.next().expect("attack run per rung").report;
            let crit_avail = report.critical_steps as f64 / quiet.critical_steps.max(1) as f64;
            let detection = report.detection_rate();
            let (noncrit, tiers) = match &report.availability_detail {
                Some(detail) => (
                    cres_bench::pct(detail.noncritical_availability()),
                    format!("{} / {}", detail.peak_tier, detail.final_tier),
                ),
                None => ("—".to_string(), "—".to_string()),
            };
            if policy == "cres-tiers" {
                frontier[index].0 = detection;
                frontier[index].1 = crit_avail;
            } else if policy == "passive-reboot" {
                frontier[index].2 = detection;
                frontier[index].3 = crit_avail;
            }
            cres_bench::row(
                &[
                    level,
                    &policy,
                    &cres_bench::pct(detection),
                    &cres_bench::pct(crit_avail),
                    &noncrit,
                    &report.reboots,
                    &report.attacker_wins,
                    &tiers,
                ],
                &widths,
            );
        }
    }
    cres_bench::rule(&widths);

    println!("\nfrontier (seed {SEED}): graded tiers vs passive reboot at equal monitors");
    for (index, level) in INTENSITIES.iter().enumerate() {
        let (cres_det, cres_avail, passive_det, passive_avail) = frontier[index];
        let dominated = cres_det >= passive_det && cres_avail > passive_avail;
        println!(
            "  {level:<8} tiers ({}, {}) vs reboot ({}, {}) -> {}",
            cres_bench::pct(cres_det),
            cres_bench::pct(cres_avail),
            cres_bench::pct(passive_det),
            cres_bench::pct(passive_avail),
            if dominated {
                "tiers dominate"
            } else {
                "NOT dominated"
            }
        );
    }
    println!(
        "\nexpected shape: cres-tiers and passive-reboot detect identically (same\n\
         monitor fleet); the tiers row holds critical availability near the quiet\n\
         baseline by shedding non-critical load instead of paying the global\n\
         reboot duty cycle; watchdog-only keeps service up by never responding —\n\
         at the price of detecting (almost) nothing."
    );
    if let Some(telemetry) = summary.merged_telemetry() {
        println!("\n[e14] pipeline telemetry: {}", telemetry.summary_line());
        print!("{}", telemetry.stage_table());
    }
    summary.print_aggregate("e14");
}
