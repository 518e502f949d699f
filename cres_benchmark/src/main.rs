//! `cres_benchmark` — end-to-end and per-layer benchmark of the CRES
//! device pipeline (provision → boot → monitor → SSM → evidence → fleet
//! SOC / export plane).
//!
//! # Command
//!
//! ```text
//! cargo run --release --manifest-path cres_benchmark/Cargo.toml -- \
//!     --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One invocation runs one workload. The default seed is 42; seed 7 is
//! held out for checking a claimed gain. `--seconds` (default 10) is how
//! long the timed repetitions run. Unknown workloads and malformed flags
//! exit with code 2.
//!
//! Every invocation first measures set-up (five `provision` calls per
//! provisioning cell), then runs the untraced **reference pass**: a naive
//! sequential fold over the library's public calls on one platform pool,
//! whose per-run digests every later repetition must reproduce.
//!
//! * `--trace 0` then calls the workload's real entry point repeatedly,
//!   untraced, for `--seconds` (at least three repetitions), makes one more
//!   untimed call to measure its peak heap, and reports the end-to-end
//!   metrics.
//! * `--trace 1` instead re-runs the reference pass with a span around each
//!   public call, runs one untraced repetition of the entry point to
//!   reconcile against, times every layer microbenchmark row, and reports
//!   the per-layer metrics. The traced pass is also written as a Chrome
//!   `trace_event` file, `cres_benchmark.<workload>.trace.json`.
//!
//! Each metric prints as one `<workload> <metric> <value> <unit>` line,
//! followed by its spread (median, quartiles, tail percentile, n) where it
//! has one. The last line of standard output is one JSON object with the
//! keys `correct`, `attempted`, `failed` and `metrics`. With
//! `CRES_REPORT_DIR` set, the same result plus spreads is written to
//! `$CRES_REPORT_DIR/cres_benchmark.<workload>.json`, and the trace file
//! goes there too (otherwise into `cres_benchmark/out/`). The process exits
//! 1 after printing when any output check failed.
//!
//! Load stays within two busy threads. Everything is measured on one
//! spawned thread, the way the entry points run their workers, while the
//! main thread waits on its join; the two-worker entry points run two
//! workers while that thread blocks on the channel or the join.
//!
//! # Workloads
//!
//! | name | what | why |
//! |---|---|---|
//! | `fleet_standard` | `run_fleet`, 1 worker, `FleetConfig::new(1000, seed)`: standard mix, 40% attacked, 120k cycles per device | The production fleet shape. Pooled device simulation is nearly all of the wall, on a schedule-stable single shard, so it measures the platform layers per simulated device. |
//! | `fleet_short_2w` | `run_fleet`, 2 workers, 3600 devices × 60k cycles, `AttackMix::campaign("network-flood")` | Short devices make the fixed per-device cost (pool reset, verified boot, 50 training rounds, scoring, summary, SOC fold) a large share, and both shards drive the channel, reorder window and watermark. Fleet bookkeeping and executor changes show here. |
//! | `campaign_sweep` | `Campaign::run_parallel(2)`: 11 gauntlet attacks × 3 profiles × 2 platform seeds × 3 seed-drawn onset/interval variants = 198 attacked jobs of 600k cycles | Every job is attacked, so incidents, responses and HMAC'd evidence records do most of the work. There are no fleet layers and only four provisioning cells per worker. |
//! | `trace_export` | 32 e16-style cells (resilient profile, platform seed 8, 1000-cycle sampling, telemetry on, 1M cycles, one seed-drawn gauntlet attack) through `run_keep`, then `ObsCapture`, `chrome_trace`, `write_jsonl` and `prometheus` | The same monitor→SSM layers with the telemetry recorder on, five times denser sampling, un-pooled provisioning on every run, and the exporters. A gain on the telemetry-off path that costs the recorder, the exporters or provisioning shows here. |
//!
//! # End-to-end metrics (`--trace 0`)
//!
//! | metric | unit | better | definition |
//! |---|---|---|---|
//! | `runs_per_s` | runs/s | higher | Runs (devices, jobs, cells) completed per wall second of one entry-point call, its own cold start included, in the fastest repetition. Other tenants of a shared host only ever slow a repetition (by up to ~40%, for seconds to minutes at a time), so the fastest one is the steadiest estimate; the median and quartiles over repetitions are printed beside it. |
//! | `setup_s` | s | lower | Set-up cost before steady state: the sum, over each distinct provisioning cell one worker touches, of the median of five `provision` calls. |
//! | `peak_heap_mib` | MiB | lower | Most heap bytes live at once during one more, untimed entry-point call, counted from the bytes live when it began (all threads; tracked by the counting allocator). |
//! | `detection_rate` | fraction | higher | Attacked runs whose platform classified a matching incident, over attacked runs. Simulated: repeats exactly for a seed. |
//! | `availability_mean` | fraction | higher | Mean simulated service availability over runs. Repeats exactly for a seed. |
//!
//! `failed_frac` (runs whose digest differs from the reference, or whose
//! repetition panicked, over runs attempted) is printed too; it is the
//! `failed`/`attempted` pair of the result line, and any failure makes
//! `correct` false.
//!
//! # Per-layer metrics (`--trace 1`)
//!
//! From the traced reference pass and the workload's run reports:
//!
//! | metric | unit | meaning |
//! |---|---|---|
//! | `platform.run.ms_p50`, `platform.run.ms_tail` | ms | Median and tail (highest percentile with ten runs beyond it) of `run_pooled`/`run_keep`. |
//! | `platform.run.allocs` | count | Allocations per run call. |
//! | `platform.run.attributed_frac` | fraction | Share of the mean run call explained by the microbenchmark rows times their per-run counts (acquire, training, provisioning, ticks, events, evidence appends and seals, chain verify, timeline). The rest is task stepping and the event queue. |
//! | `platform.provision.per_run` | count | `provision` calls per run in the reference pass. |
//! | `monitor.ticks_per_run`, `ssm.events_per_run`, `ssm.evidence.records_per_run` | count | Work per run from `RunReport`. |
//! | `runner.attributed_frac` | fraction | Σ traced per-run layer time / (untraced entry wall × workers): the reconciliation of the layers with the end-to-end call; outside 0.85–1.15 a warning is printed. |
//! | `trace.wall_ratio` | ratio | Traced reference pass wall over the untraced one. |
//!
//! Microbenchmark rows (median per call; spread and n printed):
//! `platform.provision.ms` and `.allocs` (from the set-up calls),
//! `platform.acquire.us` and `.allocs` (warm `PlatformPool::acquire`:
//! reset and boot), `platform.train.us` (`train_syscall_monitor(50)`),
//! `monitor.tick.ns` and `telemetry.tick.ns` (steady sample + ingest tick,
//! recorder off and on), `ssm.pipeline.ns_per_event` (bus policy sampling +
//! SSM ingest), `ssm.evidence.append.ns`, `ssm.evidence.seal.us`,
//! `ssm.evidence.verify.us`, `forensics.timeline.us` (on a run-sized
//! chain), `crypto.sha256.ns_per_kib`, `crypto.hmac_sha256_64b.ns`,
//! `crypto.rsa_verify_512.us`, `crypto.merkle_append.ns`, `boot.verify.us`,
//! `fleet.spec.us` and `.allocs`, `campaign.materialise.us` and `.allocs`,
//! `fleet.summary.us` and `.allocs`, `fleet.soc.ingest.us` and `.allocs`,
//! `fleet.soc.finish.us`, `obs.capture.ms`, `obs.chrome.ms`,
//! `obs.jsonl.ms`, `obs.prom.us` and `obs.bytes_per_run` (on the e16
//! worst-case cell).
//!
//! The traced pass also prints each layer's self time (span time minus
//! child spans), call count and self allocations as `# self_ms.<layer>`
//! lines.

mod layers;
mod stats;
mod trace;
mod workloads;

use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use cres_fleet::FleetConfig;
use cres_platform::provision::{provision, Provisioned};

use stats::Spread;
use trace::Tracer;
use workloads::{Output, Pass, Plan, Workload};

#[global_allocator]
static GLOBAL: trace::CountingAlloc = trace::CountingAlloc;

const USAGE: &str =
    "usage: cres_benchmark --workload <fleet_standard|fleet_short_2w|campaign_sweep|trace_export> \
[--seed N] [--seconds S] [--trace 0|1]";

/// `provision` calls per cell when measuring set-up.
const SETUP_REPEATS: usize = 5;
/// Fewest timed repetitions, however short `--seconds` is.
const MIN_REPS: usize = 3;
/// Bytes per MiB.
const MIB: f64 = 1024.0 * 1024.0;
/// Range `runner.attributed_frac` should fall in; outside it the run warns.
const RECONCILE: std::ops::RangeInclusive<f64> = 0.85..=1.15;
/// Microbenchmark rows whose allocations are metrics too.
const ALLOC_ROWS: [&str; 5] = [
    "platform.acquire.us",
    "fleet.spec.us",
    "campaign.materialise.us",
    "fleet.summary.us",
    "fleet.soc.ingest.us",
];

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 42;
    let mut seconds = 10;
    let mut trace = false;
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            return Err(format!("{flag} needs a value"));
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                );
            }
            "--seed" => seed = number(&flag, &value)?,
            "--seconds" => {
                seconds = number(&flag, &value)?;
                if !(1..=600).contains(&seconds) {
                    return Err(format!("--seconds must be 1..=600, not {seconds}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                };
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn number(flag: &str, value: &str) -> Result<u64, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    spread: Option<Spread>,
}

impl Metric {
    fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            spread: None,
        }
    }

    fn with_spread(name: impl Into<String>, spread: Spread, unit: &'static str) -> Metric {
        Metric {
            spread: Some(spread),
            ..Metric::new(name, spread.median, unit)
        }
    }
}

/// The outcome of one invocation.
#[derive(Default)]
struct Outcome {
    attempted: u64,
    failed: u64,
    /// Whole-pass checks that failed (run count, verdict or artifact bytes,
    /// lint, panics).
    problems: Vec<String>,
    metrics: Vec<Metric>,
    /// Informational lines printed before the metrics.
    notes: Vec<String>,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// Checks one pass or repetition against the reference, run by run.
    fn check(&mut self, reference: &Output, got: &Output, what: &str) {
        self.attempted += reference.runs.len() as u64;
        let differing = reference
            .runs
            .iter()
            .enumerate()
            .filter(|(i, digest)| got.runs.get(*i) != Some(digest))
            .count() as u64;
        self.failed += differing;
        if got.runs.len() != reference.runs.len() {
            self.problems.push(format!(
                "{what}: {} runs, reference has {}",
                got.runs.len(),
                reference.runs.len()
            ));
        }
        if got.aggregate != reference.aggregate {
            self.problems.push(format!(
                "{what}: whole-pass output differs from the reference"
            ));
        }
    }

    /// A repetition that panicked: every run in it failed.
    fn panicked(&mut self, runs: u64, what: &str) {
        self.attempted += runs;
        self.failed += runs;
        self.problems.push(format!("{what} panicked"));
    }
}

/// Set-up measurements.
struct Setup {
    /// Σ over cells of the median provisioning time.
    seconds: f64,
    /// Every `provision` call, ms.
    calls_ms: Vec<f64>,
    /// Allocations per `provision` call (counted in traced runs only).
    allocs_per_call: f64,
    /// The first cell's factory state, for the boot and RSA rows.
    first: Provisioned,
}

fn set_up(plan: &Plan) -> Setup {
    let mut seconds = 0.0;
    let mut calls_ms = Vec::new();
    let mut allocs = 0u64;
    let mut first = None;
    for cell in plan.cells() {
        let mut times = Vec::with_capacity(SETUP_REPEATS);
        for _ in 0..SETUP_REPEATS {
            let a0 = trace::allocs();
            let t0 = Instant::now();
            let provisioned = provision(&cell);
            let dt = t0.elapsed().as_secs_f64();
            allocs += trace::allocs() - a0;
            times.push(dt);
            calls_ms.push(dt * 1e3);
            first.get_or_insert(provisioned);
        }
        seconds += Spread::of(&times).median;
    }
    Setup {
        seconds,
        allocs_per_call: allocs as f64 / calls_ms.len().max(1) as f64,
        calls_ms,
        first: first.expect("every workload has a provisioning cell"),
    }
}

/// `--trace 0`: the end-to-end metrics.
fn timed(plan: &Plan, reference: &Pass, setup: &Setup, seconds: u64) -> Outcome {
    let mut outcome = Outcome::default();
    let runs = plan.runs();
    let mut per_s = Vec::new();
    let mut reps = 0;
    let started = Instant::now();
    while reps < MIN_REPS || started.elapsed() < Duration::from_secs(seconds) {
        reps += 1;
        let what = format!("repetition {reps}");
        match catch_unwind(AssertUnwindSafe(|| plan.entry())) {
            Ok(rep) => {
                outcome.check(&reference.output, &rep.output, &what);
                per_s.push(runs as f64 / rep.wall.as_secs_f64());
            }
            Err(_) => outcome.panicked(runs, &what),
        }
    }
    // One more, untimed call measures the heap the entry point needs.
    let (rep, peak_heap) = trace::peak_heap(|| catch_unwind(AssertUnwindSafe(|| plan.entry())));
    match rep {
        Ok(rep) => outcome.check(&reference.output, &rep.output, "heap repetition"),
        Err(_) => outcome.panicked(runs, "heap repetition"),
    }
    outcome
        .notes
        .push(format!("runs_per_s by repetition: {per_s:.1?}"));
    // Other tenants of a shared host only ever slow a repetition down (by
    // up to ~40%, for seconds to minutes at a time), so the fastest
    // repetition is the steadiest estimate of the program's own speed; the
    // median is printed beside it.
    let best = per_s.iter().copied().fold(0.0, f64::max);
    let tally = &reference.tally;
    let failed_frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    outcome.notes.push(format!(
        "failed_frac {failed_frac} fraction ({} of {} runs)",
        outcome.failed, outcome.attempted
    ));
    outcome.metrics = vec![
        Metric {
            spread: Some(Spread::of(&per_s)),
            ..Metric::new("runs_per_s", best, "runs/s")
        },
        Metric::new("setup_s", setup.seconds, "s"),
        Metric::new("peak_heap_mib", peak_heap as f64 / MIB, "MiB"),
        Metric::new(
            "detection_rate",
            tally.detected as f64 / tally.attacked.max(1) as f64,
            "fraction",
        ),
        Metric::new(
            "availability_mean",
            tally.availability / tally.runs.max(1) as f64,
            "fraction",
        ),
    ];
    outcome
}

/// `--trace 1`: the per-layer metrics.
fn traced(
    plan: &Plan,
    seed: u64,
    reference: &Pass,
    plain_wall: Duration,
    setup: &Setup,
    seconds: u64,
) -> Outcome {
    let mut outcome = Outcome::default();
    let runs = plan.runs();

    let mut tr = Tracer::on();
    let started = Instant::now();
    let pass = plan.reference(&mut tr);
    let traced_wall = started.elapsed();
    outcome.check(&reference.output, &pass.output, "traced pass");

    let workers = plan.workload.workers();
    let entry_wall = match catch_unwind(AssertUnwindSafe(|| plan.entry())) {
        Ok(rep) => {
            outcome.check(&reference.output, &rep.output, "entry repetition");
            Some(rep.wall)
        }
        Err(_) => {
            outcome.panicked(runs, "entry repetition");
            None
        }
    };
    let root_s: f64 = tr
        .spans()
        .iter()
        .filter(|s| s.is_root())
        .map(|s| s.dur_ns() as f64 / 1e9)
        .sum();
    let runner_frac = entry_wall.map_or(0.0, |wall| root_s / (wall.as_secs_f64() * workers as f64));
    // A warning, not a failed check: the outputs are still correct, and on
    // a shared host one repetition's wall can swing by more than the band.
    if !RECONCILE.contains(&runner_frac) {
        outcome.notes.push(format!(
            "WARNING reconciliation: traced layers explain {runner_frac:.3} of the entry wall × {workers} worker(s), outside {:.2}–{:.2}",
            RECONCILE.start(),
            RECONCILE.end()
        ));
    }

    let run_spans: Vec<&trace::Span> = tr
        .spans()
        .iter()
        .filter(|s| s.name == "platform.run")
        .collect();
    let run_ms: Vec<f64> = run_spans.iter().map(|s| s.dur_ns() as f64 / 1e6).collect();
    let run_allocs =
        run_spans.iter().map(|s| s.allocs).sum::<u64>() as f64 / run_spans.len().max(1) as f64;
    let run_spread = Spread::of(&run_ms);
    let run_mean_ms = run_ms.iter().sum::<f64>() / run_ms.len().max(1) as f64;

    let tally = &pass.tally;
    let configs = plan.configs();
    let telemetry_share =
        configs.iter().filter(|c| c.telemetry.enabled).count() as f64 / configs.len().max(1) as f64;
    let input = layers::Inputs {
        provisioned: &setup.first,
        platform: configs[0],
        fleet: plan
            .fleet()
            .cloned()
            .unwrap_or_else(|| FleetConfig::new(256, seed)),
        chain_len: (tally.per_run(tally.records)).round() as u64,
    };
    let budget = Duration::from_secs(seconds) / (2 * layers::ROWS);
    let (rows, obs_bytes) = layers::run(&input, budget);
    let row = |name: &str| {
        rows.iter()
            .find(|r| r.name == name)
            .map_or(0.0, |r| r.spread.median)
    };

    let provision = Spread::of(&setup.calls_ms);
    let provisions_per_run = pass.provisions as f64 / runs as f64;
    let tick_ns = telemetry_share * row("telemetry.tick.ns")
        + (1.0 - telemetry_share) * row("monitor.tick.ns");
    let explained_us = row("platform.acquire.us")
        + row("platform.train.us")
        + provisions_per_run * provision.median * 1e3
        + tally.per_run(tally.ticks) * tick_ns / 1e3
        + tally.per_run(tally.events) * row("ssm.pipeline.ns_per_event") / 1e3
        + tally.per_run(tally.records) * row("ssm.evidence.append.ns") / 1e3
        + tally.per_run(tally.seals) * row("ssm.evidence.seal.us")
        + row("ssm.evidence.verify.us")
        + row("forensics.timeline.us");

    let mut metrics = vec![
        Metric::with_spread("platform.run.ms_p50", run_spread, "ms"),
        Metric::new("platform.run.ms_tail", run_spread.tail, "ms"),
        Metric::new("platform.run.allocs", run_allocs, "count"),
        Metric::new(
            "platform.run.attributed_frac",
            explained_us / (run_mean_ms * 1e3),
            "fraction",
        ),
        Metric::new("platform.provision.per_run", provisions_per_run, "count"),
        Metric::with_spread("platform.provision.ms", provision, "ms"),
        Metric::new("platform.provision.allocs", setup.allocs_per_call, "count"),
        Metric::new("monitor.ticks_per_run", tally.per_run(tally.ticks), "count"),
        Metric::new("ssm.events_per_run", tally.per_run(tally.events), "count"),
        Metric::new(
            "ssm.evidence.records_per_run",
            tally.per_run(tally.records),
            "count",
        ),
        Metric::new("runner.attributed_frac", runner_frac, "fraction"),
        Metric::new(
            "trace.wall_ratio",
            traced_wall.as_secs_f64() / plain_wall.as_secs_f64(),
            "ratio",
        ),
    ];
    for r in &rows {
        metrics.push(Metric::with_spread(r.name, r.spread, r.unit));
        if ALLOC_ROWS.contains(&r.name) {
            let layer = r.name.rsplit_once('.').map_or(r.name, |(layer, _)| layer);
            metrics.push(Metric::new(format!("{layer}.allocs"), r.allocs, "count"));
        }
    }
    metrics.push(Metric::new("obs.bytes_per_run", obs_bytes as f64, "bytes"));
    outcome.metrics = metrics;

    for (name, layer) in tr.layers() {
        outcome.notes.push(format!(
            "self_ms.{name} {} ms ({} calls, {} self allocs)",
            layer.self_ns as f64 / 1e6,
            layer.calls,
            layer.self_allocs
        ));
    }
    match write_report(
        &format!("cres_benchmark.{}.trace.json", plan.workload.name()),
        &tr.chrome_trace(),
    ) {
        Ok(path) => outcome
            .notes
            .push(format!("wrote traced pass to {}", path.display())),
        Err(e) => outcome.notes.push(format!("could not write trace: {e}")),
    }
    outcome
}

/// Where report files go: `$CRES_REPORT_DIR`, else `out/` beside this
/// package's manifest.
fn report_dir() -> PathBuf {
    std::env::var_os("CRES_REPORT_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out"))
}

fn write_report(file: &str, contents: &str) -> std::io::Result<PathBuf> {
    let dir = report_dir();
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(file);
    std::fs::write(&path, contents)?;
    Ok(path)
}

/// A JSON number: shortest round-trip digits; non-finite values as 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The result object; `spreads` adds each metric's spread.
fn result_json(outcome: &Outcome, spreads: bool) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.correct(),
        outcome.attempted,
        outcome.failed
    );
    for (i, m) in outcome.metrics.iter().enumerate() {
        let _ = write!(
            out,
            "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"",
            if i == 0 { "" } else { ", " },
            m.name,
            json_number(m.value),
            m.unit
        );
        if let (true, Some(s)) = (spreads, m.spread) {
            let _ = write!(
                out,
                ", \"median\": {}, \"q1\": {}, \"q3\": {}, \"tail_level\": {}, \"tail\": {}, \"n\": {}",
                json_number(s.median),
                json_number(s.q1),
                json_number(s.q3),
                json_number(s.tail_level),
                json_number(s.tail),
                s.n
            );
        }
        out.push('}');
    }
    out.push_str("}}");
    out
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.trace {
        trace::count_allocations();
    }
    let name = args.workload.name();
    let plan = Plan::new(args.workload, args.seed);
    println!(
        "# {name}: seed {}, {} runs per pass, {} worker(s), {} s measured, trace {}, available parallelism {}",
        args.seed,
        plan.runs(),
        args.workload.workers(),
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );

    // Everything is measured on a spawned thread, the way the entry points
    // run their workers (a spawned thread allocates from its own malloc
    // arena, which changes allocation-heavy timings), while this thread
    // waits on the join.
    let measured = std::thread::scope(|scope| {
        scope
            .spawn(|| {
                let setup = set_up(&plan);
                let started = Instant::now();
                let reference = plan.reference(&mut Tracer::off());
                let plain_wall = started.elapsed();
                let mut outcome = if args.trace {
                    traced(
                        &plan,
                        args.seed,
                        &reference,
                        plain_wall,
                        &setup,
                        args.seconds,
                    )
                } else {
                    timed(&plan, &reference, &setup, args.seconds)
                };
                if let Err(e) = &reference.lint {
                    outcome.problems.push(format!("artifact lint: {e}"));
                }
                outcome
            })
            .join()
    });
    let outcome = match measured {
        Ok(outcome) => outcome,
        Err(panic) => std::panic::resume_unwind(panic),
    };

    for note in &outcome.notes {
        println!("# {note}");
    }
    for problem in &outcome.problems {
        println!("# CHECK FAILED: {problem}");
    }
    for m in &outcome.metrics {
        let mut line = format!("{name} {} {} {}", m.name, m.value, m.unit);
        if let Some(s) = m.spread {
            let _ = write!(
                line,
                "  (median {} q1 {} q3 {} iqr {:.1}% p{:.1} {} n {})",
                s.median,
                s.q1,
                s.q3,
                s.iqr_frac() * 100.0,
                s.tail_level * 100.0,
                s.tail,
                s.n
            );
        }
        println!("{line}");
    }
    if std::env::var_os("CRES_REPORT_DIR").is_some() {
        let mut report = format!(
            "{{\"workload\": \"{name}\", \"seed\": {}, \"trace\": {}, \"result\": ",
            args.seed,
            u8::from(args.trace)
        );
        report.push_str(&result_json(&outcome, true));
        report.push_str("}\n");
        if let Err(e) = write_report(&format!("cres_benchmark.{name}.json"), &report) {
            eprintln!("warning: could not write the JSON report: {e}");
        }
    }
    println!("{}", result_json(&outcome, false));
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_a_full_command_line() {
        let args = parse("--workload campaign_sweep --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(
            args,
            Args {
                workload: Workload::CampaignSweep,
                seed: 7,
                seconds: 12,
                trace: true,
            }
        );
        let defaults = parse("--workload trace_export").unwrap();
        assert_eq!((defaults.seed, defaults.seconds), (42, 10));
        assert!(!defaults.trace);
    }

    #[test]
    fn rejects_malformed_command_lines() {
        for bad in [
            "",
            "--workload",
            "--workload nope",
            "--workload fleet_standard --seed -1",
            "--workload fleet_standard --seed x",
            "--workload fleet_standard --seconds 0",
            "--workload fleet_standard --trace 2",
            "--workload fleet_standard --trace",
            "--workload fleet_standard --reps 5",
            "fleet_standard",
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let outcome = Outcome {
            attempted: 3,
            metrics: vec![
                Metric::new("setup_s", 0.5, "s"),
                Metric::with_spread("runs_per_s", Spread::of(&[1.0, 2.0, 3.0]), "runs/s"),
            ],
            ..Outcome::default()
        };
        assert_eq!(
            result_json(&outcome, false),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
             \"runs_per_s\": {\"value\": 2, \"unit\": \"runs/s\"}}}"
        );
        assert!(result_json(&outcome, true).contains("\"n\": 3"));
        assert_eq!(json_number(f64::NAN), "0");
    }

    #[test]
    fn checks_count_differing_runs_and_whole_pass_bytes() {
        let reference = Output {
            runs: vec![[1; 32], [2; 32], [3; 32]],
            aggregate: b"verdict".to_vec(),
        };
        let mut outcome = Outcome::default();
        outcome.check(&reference, &reference.clone(), "same");
        assert!(outcome.correct());
        let mut got = reference.clone();
        got.runs[1] = [9; 32];
        outcome.check(&reference, &got, "one off");
        assert_eq!((outcome.attempted, outcome.failed), (6, 1));
        let mut outcome = Outcome::default();
        let mut got = reference.clone();
        got.aggregate.push(b'!');
        outcome.check(&reference, &got, "verdict");
        assert_eq!(outcome.failed, 0);
        assert!(!outcome.correct());
        outcome.panicked(3, "rep");
        assert_eq!((outcome.attempted, outcome.failed), (6, 3));
    }
}
