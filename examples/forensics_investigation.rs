//! Post-breach forensic investigation: the paper's evidence-continuity
//! story from the analyst's chair.
//!
//! A staged intrusion ends with the attacker wiping every log they can
//! reach. The investigator then pulls the SSM's evidence export, verifies
//! the HMAC chain, reconstructs the attack timeline phase by phase, checks
//! a single record against a Merkle seal — and finally demonstrates that a
//! tampered export is caught.
//!
//! Run: `cargo run --release --example forensics_investigation`

use cres::attacks::{CodeInjectionAttack, ExfilAttack, LogWipeAttack, MemoryProbeAttack};
use cres::forensics::{BreachReport, Phase, Timeline};
use cres::platform::{Platform, PlatformConfig, PlatformProfile, ScenarioRunner};
use cres::sim::{SimDuration, SimTime};
use cres::soc::addr::MasterId;
use cres::soc::soc::layout;
use cres::soc::task::TaskId;
use cres::ssm::EvidenceStore;

fn main() {
    println!("=== forensic investigation of a staged intrusion ===\n");
    let mut p = Platform::new(PlatformConfig::new(PlatformProfile::CyberResilient, 1337));
    ScenarioRunner::install_default_workload(&mut p);
    p.train_syscall_monitor(40);

    // --- the intrusion, driven step by step ---
    let probe = p.add_attack(Box::new(MemoryProbeAttack::new(
        MasterId::CPU1,
        vec![layout::SSM_PRIVATE.0, layout::TEE_SECURE.0],
    )));
    let gadget = p.soc.task(TaskId(1)).unwrap().current_block();
    let inject = p.add_attack(Box::new(CodeInjectionAttack::new(TaskId(1), gadget, 1)));
    let exfil = p.add_attack(Box::new(ExfilAttack::new(8_192, 2)));
    let wipe = p.add_attack(Box::new(LogWipeAttack::new(MasterId::CPU0)));

    let mut now = SimTime::at_cycle(1_000);
    let drive = |p: &mut Platform, now: &mut SimTime, steps: u32| {
        for _ in 0..steps {
            for id in p.soc.task_ids() {
                if let Some(d) = p.step_task_and_observe(id, *now) {
                    *now += d / 3;
                }
            }
        }
        p.sample_monitors_buffered(*now);
        p.ingest_sampled(*now);
        *now += SimDuration::cycles(10_000);
    };

    drive(&mut p, &mut now, 10); // benign lead-in
    p.attack_step(probe, now);
    p.attack_step(probe, now + SimDuration::cycles(100));
    drive(&mut p, &mut now, 3);
    p.attack_step(inject, now);
    drive(&mut p, &mut now, 3);
    p.attack_step(exfil, now);
    p.attack_step(exfil, now + SimDuration::cycles(50));
    drive(&mut p, &mut now, 3);
    p.attack_step(wipe, now); // anti-forensics
    drive(&mut p, &mut now, 3);
    p.ssm
        .record_recovery_started(now, "restart compromised task from clean image");
    now += SimDuration::cycles(60_000);
    p.ssm.record_recovered(now);

    // --- what the attacker wiped ---
    println!(
        "console log after wipe : {} lines (attacker-controlled memory)",
        p.soc.uart.lines().len()
    );

    // --- the investigation ---
    let key = p.evidence_key().to_vec();
    let export: Vec<_> = p.ssm.evidence().records().to_vec();
    println!(
        "evidence export        : {} records from SSM-private memory",
        export.len()
    );

    let report = BreachReport::generate(&key, &export);
    println!(
        "chain verification     : {}",
        if report.chain_intact() {
            "INTACT"
        } else {
            "VIOLATED"
        }
    );
    println!("incidents on record    : {}", report.incidents.len());
    println!("responses on record    : {}", report.responses.len());
    println!("recovery completed     : {}", report.recovered);

    let timeline = Timeline::reconstruct(&export);
    println!("\nreconstructed phases:");
    for phase in [
        Phase::PreIncident,
        Phase::Attack,
        Phase::Response,
        Phase::Recovery,
        Phase::PostRecovery,
    ] {
        println!(
            "  {:<13} {:>4} entries",
            phase.to_string(),
            timeline.in_phase(phase).count()
        );
    }

    // --- Merkle seal: prove one record to an external auditor ---
    let root = p
        .ssm
        .seal_evidence(SimTime::at_cycle(900_000))
        .expect("non-empty store");
    let mid = (export.len() / 2) as u64;
    let (proof, sealed_root) = p.ssm.evidence().prove_inclusion(mid).unwrap();
    assert_eq!(root, sealed_root);
    let ok =
        EvidenceStore::verify_inclusion(&p.ssm.evidence().records()[mid as usize], &proof, &root);
    println!(
        "\nMerkle inclusion proof for record #{mid}: {}",
        if ok { "verifies" } else { "FAILS" }
    );

    // --- tamper demonstration ---
    let mut tampered = export.clone();
    if let Some(rec) = tampered.iter_mut().find(|r| r.category == "incident") {
        rec.payload = "#0 routine maintenance event".into();
    }
    let cover_up = BreachReport::generate(&key, &tampered);
    println!(
        "tampered export check  : {}",
        cover_up
            .integrity_failure
            .as_deref()
            .unwrap_or("NOT DETECTED (bug!)")
    );

    println!("\n--- full breach report ---");
    print!("{}", report.render());
}
