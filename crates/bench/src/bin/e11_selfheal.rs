//! E11 — self-resilience: detection performance while the security
//! pipeline *itself* is under fault injection.
//!
//! Every other experiment assumes the resilience layer is perfectly
//! reliable. E11 drops that assumption: the fault plane
//! (`cres_platform::faultplane`) injects event loss/delay/reorder/
//! corruption on the monitor→SSM interconnect, stalls and permanently
//! crashes seed-chosen monitors, and drops response commands — while the
//! pipeline fights back with bounded sim-clock retry, heartbeat
//! quarantine and sensing-degraded correlation.
//!
//! The sweep is `event loss ∈ {0%, 5%, 10%, 20%, 30%}` × `crashed
//! monitors ∈ {0, 1, 2}`, each cell averaged over attacks × seeds via the
//! campaign engine. The acceptance bar (pinned here and in
//! `crates/bench/tests/selfheal.rs`): ≥ 90% detection at 10% loss with
//! one crashed monitor, with degraded mode engaged and zero panics.
//!
//! Run: `cargo run --release -p cres-bench --bin e11_selfheal`

use cres_attacks::catalog::try_build;
use cres_platform::campaign::{default_jobs, Campaign, ScenarioSpec};
use cres_platform::{FaultPlaneConfig, FaultPlaneStats, PlatformConfig, PlatformProfile};
use cres_sim::{SimDuration, SimTime};

const LOSS_SWEEP: [f64; 5] = [0.0, 0.05, 0.10, 0.20, 0.30];
const CRASH_SWEEP: [u32; 3] = [0, 1, 2];
const SEEDS: [u64; 3] = [11, 42, 1979];
/// Attack mix spanning the monitor fleet: bus/NIC-visible, memory-guard
/// visible, sensor-envelope visible and (inline) CFI-visible.
const ATTACKS: [&str; 4] = [
    "network-flood",
    "memory-probe",
    "sensor-spoof",
    "code-injection",
];
/// Crashing monitors die well before the attack starts, so detection runs
/// entirely on the degraded fleet.
const CRASH_AT: u64 = 100_000;

struct Cell {
    detected: u32,
    runs: u32,
    latency_sum: u64,
    latency_n: u32,
    degraded: u32,
    stats: FaultPlaneStats,
}

impl Cell {
    fn new() -> Self {
        Cell {
            detected: 0,
            runs: 0,
            latency_sum: 0,
            latency_n: 0,
            degraded: 0,
            stats: FaultPlaneStats::default(),
        }
    }

    fn rate(&self) -> f64 {
        f64::from(self.detected) / f64::from(self.runs.max(1))
    }

    fn latency(&self) -> String {
        if self.latency_n == 0 {
            "—".into()
        } else {
            format!("{}cy", self.latency_sum / u64::from(self.latency_n))
        }
    }
}

fn main() {
    cres_bench::banner(
        "E11",
        "Self-resilience: detection under faults in the security pipeline itself",
    );
    let duration = cres_bench::budget(1_000_000);

    // Submission order: (loss, crashed, attack, seed) — consumed
    // positionally below.
    let mut campaign = Campaign::new(try_build);
    for loss in LOSS_SWEEP {
        for crashed in CRASH_SWEEP {
            for attack in ATTACKS {
                for seed in SEEDS {
                    let mut config = PlatformConfig::new(PlatformProfile::CyberResilient, seed);
                    config.faultplane = Some(FaultPlaneConfig {
                        loss,
                        crashed,
                        crash_at: CRASH_AT,
                    });
                    campaign.submit(
                        format!("loss={loss:.2}/crash={crashed}/{attack}/{seed}"),
                        config,
                        ScenarioSpec::quiet(SimDuration::cycles(duration)).attack(
                            attack,
                            SimTime::at_cycle(200_000),
                            SimDuration::cycles(4_000),
                        ),
                    );
                }
            }
        }
    }
    let summary = campaign
        .run_parallel(default_jobs())
        .expect("gauntlet names resolve");
    cres_bench::emit_campaign_reports("e11", &summary);

    let widths = [8, 8, 10, 10, 10, 10, 10, 10, 10];
    cres_bench::row(
        &[
            &"loss",
            &"crashed",
            &"detected",
            &"latency",
            &"ev lost",
            &"recovered",
            &"retries",
            &"quarant.",
            &"degraded",
        ],
        &widths,
    );
    cres_bench::rule(&widths);

    let mut results = summary.results.iter();
    let mut acceptance: Option<(f64, u32)> = None;
    for loss in LOSS_SWEEP {
        for crashed in CRASH_SWEEP {
            let mut cell = Cell::new();
            for _attack in ATTACKS {
                for _seed in SEEDS {
                    let report = &results.next().expect("one result per cell").report;
                    cell.runs += 1;
                    let a = &report.attacks[0];
                    if a.detected() {
                        cell.detected += 1;
                    }
                    if let Some(latency) = a.detection_latency {
                        cell.latency_sum += latency;
                        cell.latency_n += 1;
                    }
                    let stats = report
                        .faultplane
                        .expect("fault plane enabled for every cell");
                    cell.degraded += u32::from(stats.degraded_correlation);
                    cell.stats.events_lost += stats.events_lost;
                    cell.stats.recovered_deliveries += stats.recovered_deliveries;
                    cell.stats.delivery_retries += stats.delivery_retries;
                    cell.stats.response_retries += stats.response_retries;
                    cell.stats.monitors_quarantined += stats.monitors_quarantined;
                }
            }
            cres_bench::row(
                &[
                    &cres_bench::pct(loss),
                    &crashed,
                    &cres_bench::pct(cell.rate()),
                    &cell.latency(),
                    &cell.stats.events_lost,
                    &cell.stats.recovered_deliveries,
                    &(cell.stats.delivery_retries + cell.stats.response_retries),
                    &cell.stats.monitors_quarantined,
                    &format!("{}/{}", cell.degraded, cell.runs),
                ],
                &widths,
            );
            if loss == 0.10 && crashed == 1 {
                acceptance = Some((cell.rate(), cell.degraded));
            }
        }
    }
    cres_bench::rule(&widths);

    let (rate, degraded) = acceptance.expect("sweep contains the 10%/1-crash cell");
    println!(
        "\nacceptance cell (10% loss, 1 crashed monitor): detection {}, degraded mode in {degraded} runs",
        cres_bench::pct(rate)
    );
    assert!(
        rate >= 0.90,
        "detection {rate:.3} under 10% loss + 1 crashed monitor breached the 90% bar"
    );
    assert!(
        degraded > 0,
        "no run engaged sensing-degraded mode despite a crashed monitor"
    );
    println!("  ≥90% detection with degraded-mode compensation engaged — bar met.");

    println!(
        "\nexpected shape: detection stays near 100% on an intact fleet even\n\
         at 30% event loss (retry recovers most faults; correlation absorbs\n\
         the rest); crashing monitors costs coverage for the attacks only\n\
         they see, and heartbeat quarantine + widened windows claw most of\n\
         it back instead of the SSM going silently blind."
    );
    summary.print_aggregate("e11");
}
