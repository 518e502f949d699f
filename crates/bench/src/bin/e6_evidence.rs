//! E6 — **the headline claim (C1)**: continuity of the evidence data
//! stream once trust is broken.
//!
//! A staged intrusion (probe → code injection → exfiltration) ends with an
//! anti-forensic log wipe. The passive baseline's audit trail lives in
//! GPP-reachable memory (console + app_log) and dies with the wipe; the
//! CRES SSM's hash-chained store — keyed and held in physically isolated
//! memory — survives, and tampering with a shared-deployment store is at
//! least *detectable*. Both profile runs are independent and go through
//! the campaign engine.
//!
//! Run: `cargo run --release -p cres-bench --bin e6_evidence`

use cres_attacks::catalog::try_build;
use cres_platform::campaign::{default_jobs, Campaign, ScenarioSpec};
use cres_platform::{PlatformConfig, PlatformProfile};
use cres_sim::{SimDuration, SimTime};

/// Stage starts are laid out for the full 900k-cycle budget and compress
/// proportionally when `CRES_FAST` shrinks `duration`, so the wipe always
/// lands.
fn staged_intrusion(duration: u64) -> ScenarioSpec {
    let at = |full: u64| SimTime::at_cycle(full * duration / 900_000);
    ScenarioSpec::quiet(SimDuration::cycles(duration))
        .attack("memory-probe", at(200_000), SimDuration::cycles(5_000))
        .attack("code-injection", at(350_000), SimDuration::cycles(8_000))
        .attack("exfiltration", at(500_000), SimDuration::cycles(5_000))
        .attack("log-wipe", at(650_000), SimDuration::cycles(1_000))
}

fn main() {
    cres_bench::banner(
        "E6",
        "Evidence continuity once trust is broken (staged intrusion ending in log wipe)",
    );
    let duration = cres_bench::budget(900_000);
    let profiles = [
        PlatformProfile::CyberResilient,
        PlatformProfile::PassiveTrust,
    ];

    let mut campaign = Campaign::new(try_build);
    for profile in profiles {
        let mut config = PlatformConfig::new(profile, 99);
        // the baseline has no SSM evidence store at all
        config.evidence_enabled = profile == PlatformProfile::CyberResilient;
        campaign.submit(profile.to_string(), config, staged_intrusion(duration));
    }
    let summary = campaign
        .run_parallel(default_jobs())
        .expect("gauntlet names resolve");
    cres_bench::emit_campaign_reports("e6", &summary);

    let widths = [16, 14, 14, 12, 14, 14];
    cres_bench::row(
        &[
            &"profile",
            &"evid records",
            &"chain",
            &"coverage",
            &"console lines",
            &"incidents",
        ],
        &widths,
    );
    cres_bench::rule(&widths);
    for (profile, result) in profiles.iter().zip(&summary.results) {
        let report = &result.report;
        cres_bench::row(
            &[
                &profile.to_string(),
                &report.evidence_len,
                &if report.evidence_chain_ok {
                    "intact"
                } else {
                    "BROKEN"
                },
                &cres_bench::pct(report.evidence_coverage),
                &report.console_lines,
                &report.total_incidents,
            ],
            &widths,
        );
    }
    cres_bench::rule(&widths);
    println!(
        "\nnote: the baseline's console count reflects the post-wipe residue —\n\
         every line written before the wipe is gone; with evidence disabled its\n\
         coverage of the attack timeline is zero. The CRES chain records the\n\
         probe, the injection, the exfiltration AND the wipe attempt itself,\n\
         and still verifies end-to-end."
    );
    if let Some(telemetry) = summary.merged_telemetry() {
        println!("\n[e6] pipeline telemetry: {}", telemetry.summary_line());
        print!("{}", telemetry.stage_table());
    }
    summary.print_timing("e6");
}
