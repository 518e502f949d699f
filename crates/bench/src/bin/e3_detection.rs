//! E3 — detection rate and latency per attack class, CRES vs the passive
//! baseline (claim C1: existing defences are passive and miss attacks; the
//! active monitor set sees them).
//!
//! All `attack × seed × profile` cells are independent simulations, so the
//! sweep is submitted to the campaign engine and fanned out across
//! `CRES_JOBS` workers (default: all cores).
//!
//! Run: `cargo run --release -p cres-bench --bin e3_detection`

use cres_attacks::catalog::try_build;
use cres_bench::scenarios::GAUNTLET;
use cres_platform::campaign::{default_jobs, Campaign, ScenarioSpec};
use cres_platform::{PlatformConfig, PlatformProfile};
use cres_sim::{SimDuration, SimTime};

const SEEDS: [u64; 3] = [11, 42, 1979];
const PROFILES: [PlatformProfile; 2] = [
    PlatformProfile::CyberResilient,
    PlatformProfile::PassiveTrust,
];

struct Cell {
    detected: u32,
    runs: u32,
    latency_sum: u64,
    latency_n: u32,
}

impl Cell {
    fn new() -> Self {
        Cell {
            detected: 0,
            runs: 0,
            latency_sum: 0,
            latency_n: 0,
        }
    }

    fn rate(&self) -> String {
        format!("{}/{}", self.detected, self.runs)
    }

    fn latency(&self) -> String {
        if self.latency_n == 0 {
            "—".into()
        } else {
            format!("{}cy", self.latency_sum / u64::from(self.latency_n))
        }
    }
}

/// One cell's scenario: quiet background plus the named attack.
/// Long enough (at full budget) that even the watchdog path (timeout 500k)
/// resolves; `CRES_FAST` shrinks it to a determinism smoke.
fn cell_spec(attack: &str) -> ScenarioSpec {
    ScenarioSpec::quiet(SimDuration::cycles(cres_bench::budget(1_000_000))).attack(
        attack,
        SimTime::at_cycle(200_000),
        SimDuration::cycles(4_000),
    )
}

fn main() {
    cres_bench::banner(
        "E3",
        "Detection rate & latency per attack class (CRES vs passive baseline)",
    );

    let mut attacks: Vec<&str> = GAUNTLET.to_vec();
    attacks.push("syscall-anomaly");
    attacks.push("system-hang");

    // Submission order mirrors the old sequential loop nest
    // (attack, seed, profile) so results can be consumed positionally.
    let mut campaign = Campaign::new(try_build);
    for attack in &attacks {
        for seed in SEEDS {
            for profile in PROFILES {
                campaign.submit(
                    format!("{attack}/{profile}/{seed}"),
                    PlatformConfig::new(profile, seed),
                    cell_spec(attack),
                );
            }
        }
    }
    let summary = campaign
        .run_parallel(default_jobs())
        .expect("gauntlet names resolve");
    cres_bench::emit_campaign_reports("e3", &summary);

    let widths = [18, 12, 12, 12, 12, 10];
    cres_bench::row(
        &[
            &"attack",
            &"CRES det",
            &"CRES lat",
            &"passive det",
            &"passive lat",
            &"wins(CRES)",
        ],
        &widths,
    );
    cres_bench::rule(&widths);

    let mut results = summary.results.iter();
    let mut cres_total = 0u32;
    let mut passive_total = 0u32;
    let mut runs_total = 0u32;
    for attack in &attacks {
        let mut cres = Cell::new();
        let mut passive = Cell::new();
        let mut cres_wins = 0u32;
        for _seed in SEEDS {
            for profile in PROFILES {
                let report = &results.next().expect("one result per cell").report;
                let a = &report.attacks[0];
                let cell = if profile == PlatformProfile::CyberResilient {
                    cres_wins += a.steps_achieved;
                    &mut cres
                } else {
                    &mut passive
                };
                cell.runs += 1;
                if a.detected() {
                    cell.detected += 1;
                }
                if let Some(l) = a.detection_latency {
                    cell.latency_sum += l;
                    cell.latency_n += 1;
                }
            }
        }
        cres_total += cres.detected;
        passive_total += passive.detected;
        runs_total += cres.runs;
        cres_bench::row(
            &[
                attack,
                &cres.rate(),
                &cres.latency(),
                &passive.rate(),
                &passive.latency(),
                &cres_wins,
            ],
            &widths,
        );
    }
    cres_bench::rule(&widths);
    println!(
        "overall detection: CRES {}/{runs_total}  |  passive {}/{runs_total}",
        cres_total, passive_total
    );
    println!(
        "\nexpected shape (paper §III-3/§V): the passive baseline detects only\n\
         hang-class events via its watchdog; the active monitor set detects\n\
         every class with latency bounded by the sampling period."
    );
    if let Some(telemetry) = summary.merged_telemetry() {
        println!("\n[e3] pipeline telemetry: {}", telemetry.summary_line());
        print!("{}", telemetry.stage_table());
    }
    summary.print_timing("e3");
}
