#![warn(missing_docs)]

//! Experiment harness support: shared formatting and sweep helpers for the
//! `e*`/`a*` experiment binaries.
//!
//! Each binary in `src/bin/` regenerates one table or figure from the
//! paper reproduction plan (see `DESIGN.md` §3 and `EXPERIMENTS.md`):
//!
//! | binary | reproduces |
//! |---|---|
//! | `e1_figure1` | Figure 1 — framework functions/principles/activities |
//! | `e2_table1` | Table I — requirement ↔ mechanism mapping |
//! | `e3_detection` | detection rate & latency per attack class |
//! | `e4_response` | service continuity: active response vs reboot-only |
//! | `e5_recovery` | recovery paths: reboot vs rollback vs golden |
//! | `e6_evidence` | evidence continuity once trust is broken |
//! | `e7_isolation` | isolated SSM vs shared-resource TEE |
//! | `e8_overhead` | monitoring overhead sweep |
//! | `e9_degradation` | graceful degradation under progressive compromise |
//! | `e10_downgrade` | secure-boot downgrade vs anti-rollback |
//! | `e11_selfheal` | self-resilience: detection under pipeline faults |
//! | `e13_fuzz` | generative attack fuzzing against the detection fleet |
//! | `e14_frontier` | availability-vs-detection frontier: tiers vs reboot |
//! | `e15_fleet` | fleet-scale sweep: sharded devices, streaming fleet SOC |
//! | `e16_observe` | flight-recorder export plane: byte-identity + wall budget |
//! | `a1_correlation` | ablation: correlation engine on/off |
//! | `obs_lint` | export-plane artifact gate (schema + ordering lint) |
//!
//! Two environment knobs exist for CI:
//!
//! * `CRES_FAST=1` shrinks every cycle budget (see [`budget`]) so the whole
//!   suite finishes in seconds at reduced fidelity;
//! * `CRES_REPORT_DIR=<dir>` makes every campaign-backed binary write its
//!   per-run [`RunReport`]s as JSON (see [`emit_reports`]) so two runs can
//!   be `diff`ed to pin cross-run determinism.

pub mod scenarios;

use cres_platform::campaign::CampaignSummary;
use cres_platform::json::write_string;
use cres_platform::RunReport;
use std::fmt::Display;

/// True when `CRES_FAST` is set to anything but `""` or `"0"` — the CI
/// smoke mode that trades fidelity for wall time.
pub fn fast_mode() -> bool {
    std::env::var("CRES_FAST").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Scales an experiment's cycle budget for the active mode: `full` normally,
/// a quarter (floored at 300k cycles so the standard 200k-cycle attack
/// start still fires) under [`fast_mode`]. Attack waves scheduled beyond
/// the reduced budget are simply truncated — fast mode is a determinism
/// smoke, not a fidelity run.
pub fn budget(full: u64) -> u64 {
    if fast_mode() {
        (full / 4).clamp(300_000.min(full), full)
    } else {
        full
    }
}

/// Writes labelled run reports as `<CRES_REPORT_DIR>/<id>.json` — one
/// `{"label":…,"report":…}` object per line, in submission order — and
/// returns the path written. A no-op returning `None` when
/// `CRES_REPORT_DIR` is unset. Only simulation-deterministic fields go in
/// (never wall-clock timings), so two runs of the same binary must produce
/// byte-identical files; CI diffs them.
pub fn emit_reports<'a>(
    id: &str,
    reports: impl IntoIterator<Item = (&'a str, &'a RunReport)>,
) -> Option<std::path::PathBuf> {
    let dir = std::env::var_os("CRES_REPORT_DIR")?;
    let mut out = String::new();
    for (label, report) in reports {
        out.push_str("{\"label\":");
        write_string(&mut out, label);
        out.push_str(",\"report\":");
        out.push_str(&report.to_json());
        out.push_str("}\n");
    }
    let path = std::path::Path::new(&dir).join(format!("{id}.json"));
    std::fs::write(&path, out).unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    Some(path)
}

/// [`emit_reports`] for a whole campaign, labels taken from the jobs.
pub fn emit_campaign_reports(id: &str, summary: &CampaignSummary) -> Option<std::path::PathBuf> {
    emit_reports(
        id,
        summary
            .results
            .iter()
            .map(|r| (r.label.as_str(), &r.report)),
    )
}

/// Prints an experiment banner.
pub fn banner(id: &str, title: &str) {
    println!("==================================================================");
    println!("{id}: {title}");
    println!("==================================================================");
}

/// Prints a table row of fixed-width cells.
pub fn row(cells: &[&dyn Display], widths: &[usize]) {
    let mut line = String::new();
    for (cell, width) in cells.iter().zip(widths) {
        line.push_str(&format!("{:<width$}  ", cell.to_string(), width = width));
    }
    println!("{}", line.trim_end());
}

/// Prints a rule sized to the given widths.
pub fn rule(widths: &[usize]) {
    let total: usize = widths.iter().sum::<usize>() + widths.len() * 2;
    println!("{}", "-".repeat(total));
}

/// Formats a fraction as a percentage.
pub fn pct(v: f64) -> String {
    format!("{:.1}%", v * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.5), "50.0%");
        assert_eq!(pct(1.0), "100.0%");
    }

    // The only test in this binary that reads CRES_REPORT_DIR, so setting
    // it here races with nothing.
    #[test]
    fn emit_reports_escapes_labels() {
        use cres_platform::{PlatformConfig, PlatformProfile, Scenario, ScenarioRunner};
        use cres_sim::SimDuration;

        let report = ScenarioRunner::new(PlatformConfig::new(PlatformProfile::CyberResilient, 1))
            .run(Scenario::quiet(SimDuration::cycles(10_000)));
        let dir = std::env::temp_dir().join(format!("cres-emit-reports-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create report dir");
        std::env::set_var("CRES_REPORT_DIR", &dir);
        let path = emit_reports("escape", [(r#"say "hi" C:\tmp"#, &report)]).expect("dir is set");
        std::env::remove_var("CRES_REPORT_DIR");
        let written = std::fs::read_to_string(&path).expect("read report file");
        std::fs::remove_dir_all(&dir).expect("remove report dir");
        assert_eq!(
            written,
            format!(
                "{{\"label\":\"say \\\"hi\\\" C:\\\\tmp\",\"report\":{}}}\n",
                report.to_json()
            )
        );
    }
}
