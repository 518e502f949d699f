//! `obs_lint` — the export-plane artifact gate.
//!
//! Walks a directory of exported artifacts (the first CLI argument, else
//! `CRES_REPORT_DIR`) and validates every file the export plane produces:
//!
//! * `*.jsonl` → [`check_jsonl`]: schema-versioned envelope, known kinds,
//!   strict `(device, cycle, seq)` ordering;
//! * `*.trace.json` → [`check_chrome`]: well-formed `trace_event` wrapper,
//!   complete events, no same-track overlap;
//! * `*.prom` → [`check_prom`]: typed metric families, monotone cumulative
//!   histogram buckets, `+Inf` == `_count`.
//!
//! A lint failure exits 1; a missing directory argument is a usage error
//! (exit 2). That worker count never shows in the exported bytes is
//! pinned by `cres-obs`'s `fleet_artifacts_byte_identical_across_worker_counts`
//! test.
//!
//! CI runs this after the `CRES_FAST` experiments matrix, pointing it at
//! the matrix's `CRES_REPORT_DIR`; the nightly fleet job points it at
//! the full-size artifacts.
//!
//! Run: `cargo run --release -p cres-bench --bin obs_lint DIR`

use cres_obs::lint::{check_chrome, check_jsonl, check_prom};
use std::path::Path;
use std::process::ExitCode;

fn lint_dir(dir: &Path) -> Result<usize, String> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(Result::ok)
        .map(|entry| entry.path())
        .collect();
    entries.sort();
    let mut checked = 0;
    for path in entries {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        let kind = if name.ends_with(".jsonl") {
            "jsonl"
        } else if name.ends_with(".trace.json") {
            "chrome"
        } else if name.ends_with(".prom") {
            "prom"
        } else {
            continue;
        };
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let result = match kind {
            "jsonl" => check_jsonl(&text),
            "chrome" => check_chrome(&text),
            _ => check_prom(&text),
        };
        match result {
            Ok(units) => {
                println!("  ok {name}: {units} {kind} records, {} B", text.len());
                checked += 1;
            }
            Err(why) => return Err(format!("{name}: {why}")),
        }
    }
    Ok(checked)
}

fn main() -> ExitCode {
    let dir = std::env::args().nth(1).or_else(|| {
        std::env::var("CRES_REPORT_DIR")
            .ok()
            .filter(|d| !d.is_empty())
    });
    let Some(dir) = dir else {
        eprintln!("usage: obs_lint DIR (or set CRES_REPORT_DIR)");
        return ExitCode::from(2);
    };
    println!("obs_lint: validating artifacts in {dir}");
    match lint_dir(Path::new(&dir)) {
        Ok(0) => println!("  (no exported artifacts found — nothing to lint)"),
        Ok(n) => println!("  {n} artifacts pass"),
        Err(why) => {
            eprintln!("obs_lint: FAIL: {why}");
            return ExitCode::FAILURE;
        }
    }
    println!("obs_lint: PASS — artifacts valid");
    ExitCode::SUCCESS
}
