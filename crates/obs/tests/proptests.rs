//! Property tests for the export plane: the three artifact invariants
//! the `obs_lint` gate enforces must hold for *any* run, not just the
//! golden cells.
//!
//! Each case samples a platform cell (profile, seed, duration, attack)
//! and drives a real simulation through `run_keep`, then checks the
//! exported artifacts structurally — and through the same [`lint`]
//! validators CI applies to exported files, so the validators themselves
//! are exercised against generated (not hand-picked) inputs.
//!
//! [`lint`]: cres_obs::lint

use cres_attacks::catalog;
use cres_obs::lint::{check_chrome, check_jsonl, check_prom};
use cres_obs::{
    chrome_events, chrome_trace, device_records, prometheus, write_jsonl, ChromeEvent, ObsCapture,
};
use cres_platform::{PlatformConfig, PlatformProfile, Scenario, ScenarioRunner};
use cres_sim::{SimDuration, SimTime};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// One sampled cell, driven through a real run.
fn run_cell(profile_index: usize, seed: u64, duration: u64, attack_index: usize) -> ObsCapture {
    let profile = PlatformProfile::ALL[profile_index % PlatformProfile::ALL.len()];
    let name = catalog::NAMES[attack_index % catalog::NAMES.len()];
    let scenario = Scenario::quiet(SimDuration::cycles(duration)).attack(
        SimTime::at_cycle(duration / 3),
        SimDuration::cycles(4_000),
        catalog::try_build(name).expect("catalog name builds"),
    );
    let mut config = PlatformConfig::new(profile, seed);
    config.telemetry.enabled = true;
    let (report, platform) = ScenarioRunner::new(config).run_keep(scenario);
    ObsCapture::from_run(0, report, &platform)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// JSONL records come out strictly `(device, cycle, seq)`-ordered
    /// with dense per-device sequence numbers, and the rendered document
    /// passes the lint gate.
    #[test]
    fn jsonl_is_strictly_ordered(
        profile in 0usize..3,
        seed in 0u64..10_000,
        duration in 40_000u64..160_000,
        attack in 0usize..16
    ) {
        let capture = run_cell(profile, seed, duration, attack);
        let records = device_records(&capture);
        prop_assert!(!records.is_empty(), "run recorded nothing");
        for (i, pair) in records.windows(2).enumerate() {
            prop_assert!(
                (pair[0].device, pair[0].cycle, pair[0].seq)
                    < (pair[1].device, pair[1].cycle, pair[1].seq),
                "records {i} and {} out of order", i + 1
            );
        }
        for (i, record) in records.iter().enumerate() {
            prop_assert_eq!(record.seq as usize, i, "sequence numbers not dense");
        }
        prop_assert_eq!(check_jsonl(&write_jsonl(&records)), Ok(records.len()));
    }

    /// Chrome duration events on one `(pid, tid)` track never overlap,
    /// every duration is at least 1µs, and the rendered trace passes the
    /// lint gate.
    #[test]
    fn chrome_tracks_never_overlap(
        profile in 0usize..3,
        seed in 10_000u64..20_000,
        duration in 40_000u64..160_000,
        attack in 0usize..16
    ) {
        let capture = run_cell(profile, seed, duration, attack);
        let events: Vec<ChromeEvent> = chrome_events(std::slice::from_ref(&capture)).collect();
        prop_assert!(!events.is_empty(), "run produced no trace events");
        let mut cursors: BTreeMap<(u32, u32), u64> = BTreeMap::new();
        for event in &events {
            let cursor = cursors.entry((event.pid, event.tid)).or_insert(0);
            prop_assert!(
                event.ts >= *cursor,
                "track ({}, {}) overlaps at ts {}", event.pid, event.tid, event.ts
            );
            prop_assert!(event.dur >= 1);
            prop_assert!(event.ts >= event.cycle, "cursor nudged an event backwards");
            *cursor = event.ts + event.dur;
        }
        let trace = chrome_trace(std::slice::from_ref(&capture));
        prop_assert_eq!(check_chrome(&trace), Ok(events.len()));
    }

    /// Prometheus histogram buckets are monotone cumulative with
    /// `+Inf` equal to `_count` — checked by parsing the rendered
    /// exposition, which must also pass the lint gate.
    #[test]
    fn prom_buckets_are_monotone_cumulative(
        profile in 0usize..3,
        seed in 20_000u64..30_000,
        duration in 40_000u64..160_000,
        attack in 0usize..16
    ) {
        let capture = run_cell(profile, seed, duration, attack);
        let snapshot = capture.report.telemetry.as_ref().expect("telemetry on");
        let prom = prometheus(snapshot);
        prop_assert!(check_prom(&prom).is_ok(), "{:?}", check_prom(&prom));
        // independent bucket walk, not trusting the lint gate's parser
        let mut last: Option<u64> = None;
        let mut inf: Option<u64> = None;
        for line in prom.lines() {
            if let Some((head, value)) = line.rsplit_once(' ') {
                if let Some((name, label)) = head.split_once("{le=\"") {
                    prop_assert!(name.ends_with("_bucket"));
                    let value: u64 = value.parse().expect("bucket count parses");
                    if let Some(previous) = last {
                        prop_assert!(
                            value >= previous,
                            "bucket {head} dropped below its predecessor"
                        );
                    }
                    last = Some(value);
                    if label.starts_with("+Inf") {
                        inf = Some(value);
                        last = None;
                    }
                } else if head.ends_with("_count") {
                    let count: u64 = value.parse().expect("count parses");
                    prop_assert_eq!(
                        inf.take(),
                        Some(count),
                        "histogram +Inf bucket != _count"
                    );
                }
            }
        }
    }
}
