//! The ordered executor, and the campaign engine that fans independent
//! `(config, scenario)` simulations out across it.
//!
//! [`run_ordered`] is the workspace's one work-stealing loop: a
//! [`Campaign`] folds its results into a `Vec`, and `cres-fleet` folds
//! device summaries into its fleet SOC.
//!
//! Every experiment that sweeps `(profile, seed, scenario)` cells runs
//! fully independent simulations — each builds its own
//! [`crate::platform::Platform`] and consumes its own [`Scenario`] — so
//! wall-clock should scale with cores,
//! not with the number of cells. The sim kernel stays single-threaded *per
//! run*; parallelism is strictly *across* runs, which is why the output is
//! bit-identical to a sequential loop at any worker count (proved by
//! `tests/campaign_determinism.rs`).
//!
//! [`Scenario`] itself holds `Box<dyn AttackInjector>` state and cannot be
//! built ahead of time and shipped to a worker, so jobs carry a
//! [`ScenarioSpec`] — duration, workload knobs and *named* attacks with
//! their timing — and each worker materialises the concrete scenario
//! locally through the campaign's injector builder (the experiment
//! binaries pass `cres_attacks::catalog::try_build`). Resolution is
//! fallible: every spec is validated against the builder *before* any
//! worker spawns, so an unknown attack name is a structured
//! [`CampaignError`] naming the job and the offending attack, never a
//! worker-thread panic.
//!
//! ```
//! use cres_platform::campaign::{Campaign, ScenarioSpec};
//! use cres_platform::config::{PlatformConfig, PlatformProfile};
//! use cres_sim::{SimDuration, SimTime};
//!
//! let mut campaign = Campaign::new(cres_attacks::catalog::try_build);
//! for seed in [1, 2] {
//!     campaign.submit(
//!         format!("flood/{seed}"),
//!         PlatformConfig::new(PlatformProfile::CyberResilient, seed),
//!         ScenarioSpec::quiet(SimDuration::cycles(200_000)).attack(
//!             "network-flood",
//!             SimTime::at_cycle(50_000),
//!             SimDuration::cycles(3_000),
//!         ),
//!     );
//! }
//! let summary = campaign.run_parallel(2).expect("catalog names resolve");
//! assert_eq!(summary.results.len(), 2);
//! assert!(summary.results.iter().all(|r| r.report.attacks[0].detected()));
//! ```

use crate::config::PlatformConfig;
use crate::metrics::RunReport;
use crate::pool::{PlatformPool, PoolStats};
use crate::runner::{Scenario, ScenarioRunner};
use crate::telemetry::TelemetrySnapshot;
use cres_attacks::{AttackInjector, UnknownAttack};
use cres_sim::{SimDuration, SimTime};
use std::fmt;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// A campaign failed before any simulation ran: a queued job's spec
/// referenced an attack name the injector builder cannot resolve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignError {
    /// Label of the offending job.
    pub label: String,
    /// Submission index of the offending job.
    pub index: usize,
    /// The unresolvable attack name.
    pub unknown: UnknownAttack,
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "job #{} ({:?}): {}",
            self.index, self.label, self.unknown
        )
    }
}

impl std::error::Error for CampaignError {}

/// A named attack plus its schedule, materialised per worker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttackTemplate {
    /// Injector name, resolved through the campaign's builder.
    pub name: String,
    /// When the first step fires.
    pub start: SimTime,
    /// Interval between steps.
    pub step_interval: SimDuration,
}

/// The result of resolving one attack name: a live injector, or a
/// structured [`UnknownAttack`] naming the string that failed to resolve.
pub type BuiltAttack = Result<Box<dyn AttackInjector>, UnknownAttack>;

/// A buildable description of a [`Scenario`]: everything `Scenario` holds
/// except live injector state, so it is `Clone + Send` and can cross into
/// a worker thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioSpec {
    /// Simulated duration.
    pub duration: SimDuration,
    /// Named attacks to schedule.
    pub attacks: Vec<AttackTemplate>,
    /// Period of benign background traffic (None = no traffic).
    pub benign_packet_period: Option<SimDuration>,
    /// Pre-deployment syscall-model training rounds.
    pub training_rounds: u32,
    /// Install the default three-task workload.
    pub default_workload: bool,
}

impl ScenarioSpec {
    /// An attack-free spec with [`Scenario::quiet`]'s defaults.
    pub fn quiet(duration: SimDuration) -> Self {
        let quiet = Scenario::quiet(duration);
        ScenarioSpec {
            duration,
            attacks: Vec::new(),
            benign_packet_period: quiet.benign_packet_period,
            training_rounds: quiet.training_rounds,
            default_workload: quiet.default_workload,
        }
    }

    /// Adds a named attack starting at `start` with one step per
    /// `step_interval`.
    pub fn attack(
        mut self,
        name: impl Into<String>,
        start: SimTime,
        step_interval: SimDuration,
    ) -> Self {
        self.attacks.push(AttackTemplate {
            name: name.into(),
            start,
            step_interval,
        });
        self
    }

    /// Builds the concrete runnable scenario, resolving attack names
    /// through `build`.
    ///
    /// Fails with the offending name when `build` cannot resolve one of
    /// the spec's attacks.
    pub fn materialise(
        &self,
        build: &dyn Fn(&str) -> BuiltAttack,
    ) -> Result<Scenario, UnknownAttack> {
        let mut scenario = Scenario {
            duration: self.duration,
            attacks: Vec::new(),
            benign_packet_period: self.benign_packet_period,
            training_rounds: self.training_rounds,
            default_workload: self.default_workload,
        };
        for template in &self.attacks {
            scenario = scenario.attack(
                template.start,
                template.step_interval,
                build(&template.name)?,
            );
        }
        Ok(scenario)
    }
}

/// One campaign cell: a platform configuration plus the scenario to run on
/// it.
#[derive(Debug, Clone)]
pub struct Job {
    /// Display label for timing output (e.g. `"code-injection/cres/42"`).
    pub label: String,
    /// Full platform configuration (profile, seed and ablation knobs).
    pub config: PlatformConfig,
    /// The scenario description.
    pub spec: ScenarioSpec,
}

/// A completed job: the report plus how long the run took on its worker.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// The job's label.
    pub label: String,
    /// The scored run.
    pub report: RunReport,
    /// Wall-clock time this single run took.
    pub wall: Duration,
}

/// All results of a campaign, in submission order, with timing aggregates.
#[derive(Debug)]
pub struct CampaignSummary {
    /// Per-job results, index-aligned with submission order.
    pub results: Vec<JobResult>,
    /// Worker threads used.
    pub threads: usize,
    /// Wall-clock time for the whole campaign.
    pub total_wall: Duration,
}

impl CampaignSummary {
    /// Sum of per-job wall times: what a sequential loop would have cost.
    pub fn sequential_equivalent(&self) -> Duration {
        self.results.iter().map(|r| r.wall).sum()
    }

    /// Aggregate speedup over the sequential-equivalent cost.
    pub fn speedup(&self) -> f64 {
        let total = self.total_wall.as_secs_f64();
        if total <= 0.0 {
            return 1.0;
        }
        self.sequential_equivalent().as_secs_f64() / total
    }

    /// Folds every job's telemetry snapshot into one campaign-wide
    /// aggregate, **in submission order** — so the result is identical
    /// whether the campaign ran sequentially or on any number of threads.
    /// `None` when no job carried telemetry.
    pub fn merged_telemetry(&self) -> Option<TelemetrySnapshot> {
        let mut merged: Option<TelemetrySnapshot> = None;
        for result in &self.results {
            let Some(snapshot) = &result.report.telemetry else {
                continue;
            };
            match merged.as_mut() {
                Some(acc) => acc.merge(snapshot),
                None => {
                    let mut first = snapshot.clone();
                    // a merged aggregate never keeps a single run's tail
                    first.trace_tail.clear();
                    merged = Some(first);
                }
            }
        }
        merged
    }

    /// Prints per-run wall times plus the aggregate line the BENCH
    /// trajectory records, on stderr: wall time differs between runs, so
    /// stdout stays the same on any thread count.
    pub fn print_timing(&self, id: &str) {
        eprintln!(
            "\n[{id}] campaign timing ({} jobs on {} threads):",
            self.results.len(),
            self.threads
        );
        for result in &self.results {
            eprintln!(
                "  {:<40} {:>9.1} ms",
                result.label,
                result.wall.as_secs_f64() * 1e3
            );
        }
        self.print_aggregate(id);
    }

    /// Prints only the aggregate speedup line, on stderr.
    pub fn print_aggregate(&self, id: &str) {
        eprintln!(
            "[{id}] {} jobs on {} threads: wall {:.2}s, sequential-equivalent {:.2}s, speedup {:.2}x",
            self.results.len(),
            self.threads,
            self.total_wall.as_secs_f64(),
            self.sequential_equivalent().as_secs_f64(),
            self.speedup(),
        );
    }
}

/// A batch of independent scenario runs plus the injector builder that
/// materialises named attacks inside each worker.
pub struct Campaign<B>
where
    B: Fn(&str) -> BuiltAttack + Sync,
{
    builder: B,
    jobs: Vec<Job>,
}

impl<B> Campaign<B>
where
    B: Fn(&str) -> BuiltAttack + Sync,
{
    /// Creates an empty campaign over an injector builder.
    pub fn new(builder: B) -> Self {
        Campaign {
            builder,
            jobs: Vec::new(),
        }
    }

    /// Queues a job; returns its index (results come back in submission
    /// order, so the index addresses the matching [`JobResult`]).
    pub fn submit(
        &mut self,
        label: impl Into<String>,
        config: PlatformConfig,
        spec: ScenarioSpec,
    ) -> usize {
        self.jobs.push(Job {
            label: label.into(),
            config,
            spec,
        });
        self.jobs.len() - 1
    }

    /// Queued job count.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether no jobs are queued.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Checks every queued spec against the builder, reporting the first
    /// job whose attacks do not all resolve. Runs on the calling thread so
    /// a bad scenario never reaches a worker.
    fn validate(&self) -> Result<(), CampaignError> {
        for (index, job) in self.jobs.iter().enumerate() {
            if let Err(unknown) = job.spec.materialise(&|name| (self.builder)(name)) {
                return Err(CampaignError {
                    label: job.label.clone(),
                    index,
                    unknown,
                });
            }
        }
        Ok(())
    }

    /// Runs the jobs on `threads` workers of [`run_ordered`] (clamped to
    /// `1..=jobs`) and collects the results in submission order, so the
    /// output is byte-identical at any thread count.
    ///
    /// Fails up front — before any worker spawns — when a queued spec
    /// references an attack the builder cannot resolve.
    pub fn run_parallel(self, threads: usize) -> Result<CampaignSummary, CampaignError> {
        self.validate()?;
        let start = Instant::now();
        let mut results = Vec::with_capacity(self.jobs.len());
        let workers = run_ordered(
            self.jobs.len(),
            threads,
            |pool, index| {
                let job = &self.jobs[index];
                let started = Instant::now();
                let scenario = job
                    .spec
                    .materialise(&self.builder)
                    .expect("specs validated before dispatch");
                let report = ScenarioRunner::new(job.config).run_pooled(pool, scenario);
                JobResult {
                    label: job.label.clone(),
                    report,
                    wall: started.elapsed(),
                }
            },
            |result| results.push(result),
        );
        Ok(CampaignSummary {
            results,
            threads: workers.len(),
            total_wall: start.elapsed(),
        })
    }
}

/// How many finished results may wait for the fold in [`run_ordered`]'s
/// reorder ring. Workers a full window ahead park, so at most
/// `REORDER_WINDOW + workers` results are held however slow one item is.
pub const REORDER_WINDOW: usize = 64;

/// One [`run_ordered`] worker's accounting. It depends on scheduling, so
/// it is never part of a result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkerStats {
    /// Worker index.
    pub worker: usize,
    /// Items this worker ran.
    pub items: usize,
    /// The worker pool's final counters.
    pub pool: PoolStats,
}

/// The reorder ring: result `i` waits in slot `i % REORDER_WINDOW`.
struct Ring<T> {
    slots: Vec<Option<T>>,
    /// Results folded so far. Result `i` may enter the ring only while
    /// `i < folded + REORDER_WINDOW`, so no two results share a slot.
    folded: usize,
    /// A worker or the fold panicked: every thread stops.
    aborted: bool,
}

struct Shared<T> {
    cursor: AtomicUsize,
    ring: Mutex<Ring<T>>,
    /// Signalled on each deposit the fold waits for, each fold and abort.
    changed: Condvar,
}

impl<T> Shared<T> {
    /// Locks the ring once `ready` holds or the run is aborted.
    fn lock_when(&self, ready: impl Fn(&Ring<T>) -> bool) -> MutexGuard<'_, Ring<T>> {
        // No code panics while holding the lock, and each update leaves the
        // ring consistent; `aborted` is what reports a panic.
        let ring = self.ring.lock().unwrap_or_else(PoisonError::into_inner);
        self.changed
            .wait_while(ring, |ring| !ring.aborted && !ready(ring))
            .unwrap_or_else(PoisonError::into_inner)
    }

    fn update(&self, update: impl FnOnce(&mut Ring<T>)) {
        update(&mut self.lock_when(|_| true));
        self.changed.notify_all();
    }
}

/// Aborts the run when its thread unwinds, waking every waiter, so a panic
/// reaches the caller instead of leaving the other threads waiting on a
/// fold that will never move.
struct AbortOnUnwind<'a, T>(&'a Shared<T>);

impl<T> Drop for AbortOnUnwind<'_, T> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.update(|ring| ring.aborted = true);
        }
    }
}

/// Runs `work(pool, i)` for every `i` in `0..items` on `workers` scoped
/// threads (clamped to `1..=items`), and hands each result to `fold` on
/// the calling thread, strictly in index order — so whatever `fold`
/// builds is independent of the worker count.
///
/// Workers claim indices from one atomic cursor, so a slow item never
/// idles the others, and each owns a [`PlatformPool`] that stays warm
/// across its items. A finished result waits in the reorder ring until
/// the fold reaches it; a worker [`REORDER_WINDOW`] or more items ahead
/// of the fold parks until the fold catches up.
///
/// # Panics
///
/// Re-raises a panic from `work` or `fold` once every worker has stopped.
/// The other workers stop after the item they are running.
pub fn run_ordered<T, W, F>(items: usize, workers: usize, work: W, mut fold: F) -> Vec<WorkerStats>
where
    T: Send,
    W: Fn(&mut PlatformPool, usize) -> T + Sync,
    F: FnMut(T),
{
    let shared = &Shared {
        cursor: AtomicUsize::new(0),
        ring: Mutex::new(Ring {
            slots: (0..REORDER_WINDOW).map(|_| None).collect(),
            folded: 0,
            aborted: false,
        }),
        changed: Condvar::new(),
    };
    let work = &work;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.clamp(1, items.max(1)))
            .map(|worker| {
                scope.spawn(move || {
                    let _abort = AbortOnUnwind(shared);
                    let mut pool = PlatformPool::new();
                    let mut ran = 0;
                    loop {
                        // Relaxed: results travel through the ring's mutex.
                        let index = shared.cursor.fetch_add(1, Ordering::Relaxed);
                        if index >= items {
                            break;
                        }
                        let result = work(&mut pool, index);
                        let mut ring = shared.lock_when(|r| index < r.folded + REORDER_WINDOW);
                        if ring.aborted {
                            break;
                        }
                        ring.slots[index % REORDER_WINDOW] = Some(result);
                        if index == ring.folded {
                            shared.changed.notify_all();
                        }
                        ran += 1;
                    }
                    WorkerStats {
                        worker,
                        items: ran,
                        pool: pool.stats(),
                    }
                })
            })
            .collect();
        let _abort = AbortOnUnwind(shared);
        for index in 0..items {
            let slot = index % REORDER_WINDOW;
            let taken = shared.lock_when(|ring| ring.slots[slot].is_some()).slots[slot].take();
            // Empty only when a worker panicked: joining below re-raises it.
            let Some(result) = taken else { break };
            fold(result);
            shared.update(|ring| ring.folded = index + 1);
        }
        handles
            .into_iter()
            .map(|handle| handle.join().unwrap_or_else(|panic| resume_unwind(panic)))
            .collect()
    })
}

/// Parses the `CRES_JOBS` override. Returns `Ok(None)` when the variable is
/// unset, `Ok(Some(n))` for a positive integer, and `Err` (with a
/// user-facing message) for anything else — `0`, garbage, or empty.
pub fn jobs_from_env() -> Result<Option<usize>, String> {
    match std::env::var("CRES_JOBS") {
        Err(_) => Ok(None),
        Ok(value) => match value.trim().parse::<usize>() {
            Ok(n) if n > 0 => Ok(Some(n)),
            Ok(_) => Err(format!(
                "invalid CRES_JOBS={value:?}: job count must be at least 1"
            )),
            Err(_) => Err(format!(
                "invalid CRES_JOBS={value:?}: expected a positive integer"
            )),
        },
    }
}

/// Worker count for experiment sweeps: `CRES_JOBS` when set, otherwise the
/// machine's available parallelism. A malformed or zero `CRES_JOBS` is a
/// hard error (exit code 2), not a silent fallback — a determinism matrix
/// that quietly ran on the wrong thread count would prove nothing.
pub fn default_jobs() -> usize {
    match jobs_from_env() {
        Ok(Some(n)) => n,
        Ok(None) => std::thread::available_parallelism().map_or(1, |n| n.get()),
        Err(message) => {
            eprintln!("error: {message}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PlatformProfile;
    use cres_attacks::{NetworkFloodAttack, SensorSpoofAttack};
    use cres_soc::periph::SensorSpoof;

    fn test_builder(name: &str) -> BuiltAttack {
        Ok(match name {
            "network-flood" => Box::new(NetworkFloodAttack::new(300, 4)) as _,
            "sensor-spoof" => Box::new(SensorSpoofAttack::new(0, SensorSpoof::Fixed(61.5))) as _,
            other => {
                return Err(UnknownAttack {
                    name: other.to_string(),
                })
            }
        })
    }

    type TestBuilder = fn(&str) -> BuiltAttack;

    fn small_campaign() -> Campaign<TestBuilder> {
        let mut campaign = Campaign::new(test_builder as TestBuilder);
        for (index, seed) in [3u64, 4, 5, 6].into_iter().enumerate() {
            let spec = if index % 2 == 0 {
                ScenarioSpec::quiet(SimDuration::cycles(150_000)).attack(
                    "network-flood",
                    SimTime::at_cycle(40_000),
                    SimDuration::cycles(2_000),
                )
            } else {
                ScenarioSpec::quiet(SimDuration::cycles(150_000))
            };
            campaign.submit(
                format!("job/{seed}"),
                PlatformConfig::new(PlatformProfile::CyberResilient, seed),
                spec,
            );
        }
        campaign
    }

    #[test]
    fn parallel_matches_sequential_in_submission_order() {
        let sequential = small_campaign().run_parallel(1).expect("known attacks");
        let parallel = small_campaign().run_parallel(4).expect("known attacks");
        assert_eq!(sequential.results.len(), parallel.results.len());
        for (a, b) in sequential.results.iter().zip(&parallel.results) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.report, b.report, "parallel diverged for {}", a.label);
        }
    }

    #[test]
    fn merged_telemetry_is_thread_count_invariant() {
        let sequential = small_campaign()
            .run_parallel(1)
            .expect("known attacks")
            .merged_telemetry();
        let parallel = small_campaign()
            .run_parallel(4)
            .expect("known attacks")
            .merged_telemetry();
        assert_eq!(sequential, parallel);
        let merged = sequential.expect("telemetry is on by default");
        assert!(merged.spans_recorded > 0);
        assert!(merged.trace_tail.is_empty());
    }

    #[test]
    fn spec_materialises_the_same_scenario_shape() {
        let spec = ScenarioSpec::quiet(SimDuration::cycles(100_000)).attack(
            "sensor-spoof",
            SimTime::at_cycle(10_000),
            SimDuration::cycles(1_000),
        );
        let scenario = spec.materialise(&test_builder).expect("known attack");
        assert_eq!(scenario.duration, spec.duration);
        assert_eq!(scenario.attacks.len(), 1);
        assert_eq!(scenario.attacks[0].start, SimTime::at_cycle(10_000));
        assert_eq!(scenario.attacks[0].injector.kind().name(), "sensor-spoof");
        let quiet = Scenario::quiet(SimDuration::cycles(100_000));
        assert_eq!(scenario.benign_packet_period, quiet.benign_packet_period);
        assert_eq!(scenario.training_rounds, quiet.training_rounds);
        assert_eq!(scenario.default_workload, quiet.default_workload);
    }

    #[test]
    fn summary_speedup_uses_sequential_equivalent() {
        let summary = CampaignSummary {
            results: vec![
                JobResult {
                    label: "a".into(),
                    report: dummy_report(),
                    wall: Duration::from_millis(30),
                },
                JobResult {
                    label: "b".into(),
                    report: dummy_report(),
                    wall: Duration::from_millis(30),
                },
            ],
            threads: 2,
            total_wall: Duration::from_millis(30),
        };
        assert_eq!(summary.sequential_equivalent(), Duration::from_millis(60));
        assert!((summary.speedup() - 2.0).abs() < 1e-9);
    }

    fn dummy_report() -> RunReport {
        ScenarioRunner::new(PlatformConfig::new(PlatformProfile::PassiveTrust, 1))
            .run(Scenario::quiet(SimDuration::cycles(5_000)))
    }

    #[test]
    fn run_ordered_reraises_a_worker_or_fold_panic_with_its_payload() {
        let payload = |run: &dyn Fn()| {
            let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run))
                .expect_err("the panic must reach the caller");
            *panic.downcast::<&str>().expect("original payload")
        };
        for workers in [1, 2, 8] {
            let in_work = payload(&|| {
                run_ordered(
                    200,
                    workers,
                    |_, index| {
                        if index == 70 {
                            panic!("work 70");
                        }
                    },
                    |()| {},
                );
            });
            assert_eq!(in_work, "work 70", "{workers} workers");
            let in_fold = payload(&|| {
                run_ordered(
                    200,
                    workers,
                    |_, index| index,
                    |index| {
                        if index == 70 {
                            panic!("fold 70");
                        }
                    },
                );
            });
            assert_eq!(in_fold, "fold 70", "{workers} workers");
        }
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let summary = small_campaign().run_parallel(0).expect("known attacks");
        assert_eq!(summary.results.len(), 4);
        assert_eq!(summary.threads, 1);
    }

    #[test]
    fn unknown_attack_is_a_structured_error_not_a_panic() {
        let mut campaign = Campaign::new(test_builder as TestBuilder);
        campaign.submit(
            "good",
            PlatformConfig::new(PlatformProfile::CyberResilient, 1),
            ScenarioSpec::quiet(SimDuration::cycles(50_000)).attack(
                "network-flood",
                SimTime::at_cycle(10_000),
                SimDuration::cycles(1_000),
            ),
        );
        campaign.submit(
            "bad",
            PlatformConfig::new(PlatformProfile::CyberResilient, 2),
            ScenarioSpec::quiet(SimDuration::cycles(50_000)).attack(
                "zero-day",
                SimTime::at_cycle(10_000),
                SimDuration::cycles(1_000),
            ),
        );
        let err = campaign.run_parallel(4).expect_err("bad name must surface");
        assert_eq!(err.index, 1);
        assert_eq!(err.label, "bad");
        assert_eq!(err.unknown.name, "zero-day");
        assert!(err.to_string().contains("zero-day"), "{err}");
    }
}
