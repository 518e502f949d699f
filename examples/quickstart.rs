//! Quickstart: build a cyber-resilient platform, run a benign workload,
//! inject one attack, and watch the detect → respond → recover → evidence
//! loop close.
//!
//! Run: `cargo run --release --example quickstart`

use cres::attacks::CodeInjectionAttack;
use cres::forensics::BreachReport;
use cres::platform::{Platform, PlatformConfig, PlatformProfile, Scenario, ScenarioRunner};
use cres::sim::{SimDuration, SimTime};
use cres::soc::task::{BlockId, TaskId};

fn main() {
    // 1. Configure the paper's proposed topology: physically isolated SSM,
    //    full monitor set, active response.
    let config = PlatformConfig::new(PlatformProfile::CyberResilient, 42);

    // 2. A scenario: ~1M cycles of substation workload with a control-flow
    //    hijack of the protection-relay task injected at t=300k.
    let scenario = Scenario::quiet(SimDuration::cycles(1_000_000)).attack(
        SimTime::at_cycle(300_000),
        SimDuration::cycles(10_000),
        Box::new(CodeInjectionAttack::new(TaskId(1), BlockId(0), 3)),
    );

    // 3. Run it.
    let report = ScenarioRunner::new(config).run(scenario);

    println!("=== quickstart run ===");
    println!("boot verified      : {}", report.boot_ok);
    println!("attack detected    : {}", report.attacks[0].detected());
    println!(
        "detection latency  : {}",
        report.attacks[0]
            .detection_latency
            .map_or("—".into(), |l| format!("{l} cycles"))
    );
    println!("incidents          : {}", report.total_incidents);
    println!("final health       : {}", report.final_health);
    println!("availability       : {:.2}%", report.availability * 100.0);
    println!("relay steps served : {}", report.critical_steps);
    println!(
        "evidence records   : {} (chain {})",
        report.evidence_len,
        if report.evidence_chain_ok {
            "intact"
        } else {
            "BROKEN"
        }
    );

    // 4. The forensic view: rebuild the platform the same way and rerun, to
    //    show the evidence export path on a live platform object.
    let mut platform = Platform::new(PlatformConfig::new(PlatformProfile::CyberResilient, 42));
    ScenarioRunner::install_default_workload(&mut platform);
    platform.train_syscall_monitor(30);
    let gadget = platform.soc.task(TaskId(1)).unwrap().current_block();
    let idx = platform.add_attack(Box::new(CodeInjectionAttack::new(TaskId(1), gadget, 1)));
    let mut now = SimTime::at_cycle(1);
    platform.attack_step(idx, now).unwrap();
    for _ in 0..4 {
        if let Some(d) = platform.step_task_and_observe(TaskId(1), now) {
            now += d;
        }
    }
    platform.sample_monitors_buffered(now);
    platform.ingest_sampled(now);

    let key = platform.evidence_key().to_vec();
    let breach = BreachReport::generate(&key, platform.ssm.evidence().records());
    println!("\n=== breach report (live platform) ===");
    print!("{}", breach.render());
}
