//! `bench_gate` — the hard CI bench regression gate.
//!
//! Compares a freshly produced `BENCH_pipeline.json` against the committed
//! one and **fails** (exit 1) when the fresh run regresses:
//!
//! * any `allocs_per_iter` increase on a zero/low-alloc bench (committed
//!   count ≤ 1000) — allocation counts are deterministic, so this gate has
//!   no noise floor and ratchets monotonically downward;
//! * a throughput drop of more than 10% on any bench that reports
//!   throughput (tunable via `CRES_GATE_MIN_RATIO`, default `0.9`, for
//!   runners with known-different performance envelopes).
//!
//! A fresh row the committed file does not have yet is listed in the table
//! as "new, not gated"; the re-bless that commits it starts gating it.
//!
//! Prints a before/after markdown table; when `GITHUB_STEP_SUMMARY` is set
//! the table is appended there too, so the regression is readable from the
//! job summary without digging through logs.
//!
//! Run: `bench_gate <committed BENCH_pipeline.json> <fresh BENCH_pipeline.json>`
//!
//! To intentionally re-bless numbers (e.g. after landing an optimisation),
//! regenerate with `cargo run --release -p cres-bench --bin bench_report`
//! and commit the refreshed `BENCH_pipeline.json` in the same PR.

use std::fmt::Write as _;

/// One parsed bench entry from the artifact's fixed line format.
#[derive(Debug, Clone, PartialEq)]
struct Entry {
    name: String,
    median_ns_per_iter: f64,
    throughput_per_sec: Option<f64>,
    allocs_per_iter: f64,
}

/// Low-alloc threshold: below this committed count the alloc ratchet is
/// absolute (any increase fails).
const LOW_ALLOC_CEILING: f64 = 1000.0;

fn field<'a>(line: &'a str, key: &str) -> &'a str {
    let marker = format!("\"{key}\": ");
    let start = line
        .find(&marker)
        .unwrap_or_else(|| panic!("bench line missing {key:?}: {line}"))
        + marker.len();
    let rest = &line[start..];
    let end = rest
        .find([',', '}'])
        .unwrap_or_else(|| panic!("unterminated {key:?} in bench line: {line}"));
    rest[..end].trim()
}

fn parse_line(line: &str) -> Entry {
    let name = field(line, "name").trim_matches('"').to_string();
    let median_ns_per_iter = field(line, "median_ns_per_iter")
        .parse()
        .unwrap_or_else(|e| panic!("bad median_ns_per_iter for {name}: {e}"));
    let throughput = field(line, "throughput_per_sec");
    let throughput_per_sec = if throughput == "null" {
        None
    } else {
        Some(
            throughput
                .parse()
                .unwrap_or_else(|e| panic!("bad throughput_per_sec for {name}: {e}")),
        )
    };
    let allocs_per_iter = field(line, "allocs_per_iter")
        .parse()
        .unwrap_or_else(|e| panic!("bad allocs_per_iter for {name}: {e}"));
    Entry {
        name,
        median_ns_per_iter,
        throughput_per_sec,
        allocs_per_iter,
    }
}

/// Extracts the `benches` array (not `baseline`) from the artifact. The
/// writer emits one object per line, so a line scanner is enough — no JSON
/// dependency in the gate.
fn parse_benches(text: &str, origin: &str) -> Vec<Entry> {
    let start = text
        .find("\"benches\": [")
        .unwrap_or_else(|| panic!("{origin}: no \"benches\" array (schema drift?)"));
    let section = &text[start..];
    let end = section
        .find(']')
        .unwrap_or_else(|| panic!("{origin}: unterminated \"benches\" array"));
    let entries: Vec<Entry> = section[..end]
        .lines()
        .filter(|line| line.contains("\"name\""))
        .map(parse_line)
        .collect();
    assert!(!entries.is_empty(), "{origin}: empty \"benches\" array");
    entries
}

fn fmt_throughput(t: Option<f64>) -> String {
    t.map_or("—".to_string(), |t| format!("{t:.0}/s"))
}

fn min_throughput_ratio() -> f64 {
    match std::env::var("CRES_GATE_MIN_RATIO") {
        Err(_) => 0.9,
        Ok(v) => v
            .trim()
            .parse()
            .ok()
            .filter(|r| (0.0..=1.0).contains(r))
            .unwrap_or_else(|| {
                eprintln!("error: invalid CRES_GATE_MIN_RATIO={v:?}: expected a ratio in [0, 1]");
                std::process::exit(2);
            }),
    }
}

/// Gates `fresh` against `committed`: the before/after markdown table and
/// one line per regression. A fresh row the committed file lacks is
/// listed as new and not gated; it is gated once a re-bless commits it.
fn compare(committed: &[Entry], fresh: &[Entry], min_ratio: f64) -> (String, Vec<String>) {
    let mut failures: Vec<String> = Vec::new();
    let mut table = String::from(
        "| bench | ns/iter (was → now) | throughput (was → now) | allocs/iter (was → now) | verdict |\n\
         |---|---|---|---|---|\n",
    );

    for was in committed {
        let Some(now) = fresh.iter().find(|e| e.name == was.name) else {
            failures.push(format!(
                "{}: present in committed artifact but missing from fresh run",
                was.name
            ));
            continue;
        };
        let mut verdicts: Vec<&str> = Vec::new();

        if was.allocs_per_iter <= LOW_ALLOC_CEILING && now.allocs_per_iter > was.allocs_per_iter {
            failures.push(format!(
                "{}: allocs_per_iter regressed {:.1} -> {:.1} (low-alloc ratchet only goes down)",
                was.name, was.allocs_per_iter, now.allocs_per_iter
            ));
            verdicts.push("allocs regressed");
        }
        if let (Some(t_was), Some(t_now)) = (was.throughput_per_sec, now.throughput_per_sec) {
            if t_now < t_was * min_ratio {
                failures.push(format!(
                    "{}: throughput dropped {:.0}/s -> {:.0}/s ({:.1}% of committed, floor {:.0}%)",
                    was.name,
                    t_was,
                    t_now,
                    t_now / t_was * 100.0,
                    min_ratio * 100.0
                ));
                verdicts.push("throughput dropped");
            }
        }

        let verdict = if verdicts.is_empty() {
            "ok".to_string()
        } else {
            format!("FAIL: {}", verdicts.join(", "))
        };
        writeln!(
            table,
            "| {} | {:.0} → {:.0} | {} → {} | {:.1} → {:.1} | {} |",
            was.name,
            was.median_ns_per_iter,
            now.median_ns_per_iter,
            fmt_throughput(was.throughput_per_sec),
            fmt_throughput(now.throughput_per_sec),
            was.allocs_per_iter,
            now.allocs_per_iter,
            verdict
        )
        .expect("String write cannot fail");
    }
    for now in fresh
        .iter()
        .filter(|now| committed.iter().all(|was| was.name != now.name))
    {
        writeln!(
            table,
            "| {} | — → {:.0} | — → {} | — → {:.1} | new, not gated |",
            now.name,
            now.median_ns_per_iter,
            fmt_throughput(now.throughput_per_sec),
            now.allocs_per_iter
        )
        .expect("String write cannot fail");
    }
    (table, failures)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.len() != 3 {
        eprintln!("usage: bench_gate <committed BENCH_pipeline.json> <fresh BENCH_pipeline.json>");
        std::process::exit(2);
    }
    let read = |path: &str| {
        std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("error: reading {path}: {e}");
            std::process::exit(2);
        })
    };
    let committed = parse_benches(&read(&args[1]), &args[1]);
    let fresh = parse_benches(&read(&args[2]), &args[2]);
    let min_ratio = min_throughput_ratio();

    let (table, failures) = compare(&committed, &fresh, min_ratio);
    let verdict_line = if failures.is_empty() {
        "**bench gate passed** — no throughput or allocation regressions".to_string()
    } else {
        format!("**bench gate FAILED** — {} regression(s)", failures.len())
    };
    println!("## Bench regression gate\n\n{table}\n{verdict_line}");

    if let Ok(summary_path) = std::env::var("GITHUB_STEP_SUMMARY") {
        let block = format!("## Bench regression gate\n\n{table}\n{verdict_line}\n");
        if let Err(e) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&summary_path)
            .and_then(|mut f| std::io::Write::write_all(&mut f, block.as_bytes()))
        {
            eprintln!("warning: could not append to GITHUB_STEP_SUMMARY: {e}");
        }
    }

    if !failures.is_empty() {
        for failure in &failures {
            eprintln!("bench gate FAILED: {failure}");
        }
        eprintln!(
            "\nIf this regression is an intentional trade-off, re-bless the numbers: \
             `cargo run --release -p cres-bench --bin bench_report` and commit the \
             refreshed BENCH_pipeline.json in the same PR."
        );
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
  "schema": "cres-bench-report-v1",
  "benches": [
    {"name": "steady_tick", "median_ns_per_iter": 3103, "throughput_per_sec": 10313947, "allocs_per_iter": 0.0},
    {"name": "platform_slice_100k", "median_ns_per_iter": 2474032, "throughput_per_sec": null, "allocs_per_iter": 26541.0}
  ],
  "baseline": [
    {"name": "steady_tick", "median_ns_per_iter": 3223, "throughput_per_sec": 9928468, "allocs_per_iter": 12.0}
  ]
}
"#;

    #[test]
    fn parses_benches_not_baseline() {
        let entries = parse_benches(SAMPLE, "sample");
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].name, "steady_tick");
        assert_eq!(entries[0].median_ns_per_iter, 3103.0);
        assert_eq!(entries[0].throughput_per_sec, Some(10_313_947.0));
        assert_eq!(entries[0].allocs_per_iter, 0.0);
        // baseline's 12.0 allocs for steady_tick must not leak in
        assert_eq!(entries[1].name, "platform_slice_100k");
        assert_eq!(entries[1].throughput_per_sec, None);
        assert_eq!(entries[1].allocs_per_iter, 26541.0);
    }

    #[test]
    fn fresh_rows_missing_from_the_committed_file_are_listed_not_gated() {
        let committed = parse_benches(SAMPLE, "sample");
        let mut fresh = committed.clone();
        fresh.push(parse_line(
            r#"    {"name": "provision_cell", "median_ns_per_iter": 2500000, "throughput_per_sec": null, "allocs_per_iter": 922.0}"#,
        ));
        let (table, failures) = compare(&committed, &fresh, 0.9);
        assert!(failures.is_empty(), "{failures:?}");
        assert!(
            table.contains("| provision_cell | — → 2500000 | — → — | — → 922.0 | new, not gated |"),
            "{table}"
        );
        // a committed row the fresh run lost still fails
        let (_, failures) = compare(&fresh, &committed, 0.9);
        assert_eq!(failures.len(), 1, "{failures:?}");
    }

    #[test]
    fn null_throughput_parses_as_none() {
        let entry = parse_line(
            r#"    {"name": "x", "median_ns_per_iter": 10, "throughput_per_sec": null, "allocs_per_iter": 1.5}"#,
        );
        assert_eq!(entry.throughput_per_sec, None);
        assert_eq!(entry.allocs_per_iter, 1.5);
    }
}
