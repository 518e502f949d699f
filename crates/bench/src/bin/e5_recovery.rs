//! E5 — recovery path comparison (claim C4 / §III-5): plain reboot vs
//! firmware rollback vs golden-image recovery vs roll-forward update, after
//! a firmware-corruption incident.
//!
//! The flash-programming cost model: rebooting costs the configured reboot
//! latency; switching slots costs one extra verify; reflashing costs
//! `bytes / 8` cycles of flash programming on top.
//!
//! Run: `cargo run --release -p cres-bench --bin e5_recovery`

use cres_boot::FirmwareImage;
use cres_platform::config::REBOOT_DURATION;
use cres_platform::{Platform, PlatformConfig, PlatformProfile};

/// Flash programming throughput: bytes per cycle.
const FLASH_BYTES_PER_CYCLE: u64 = 8;

struct PathResult {
    name: &'static str,
    recovered: bool,
    version_after: Option<u32>,
    latency_cycles: u64,
    notes: String,
}

fn corrupt_active_slot(platform: &mut Platform) {
    let active = platform.slots.active();
    let mut bytes = platform.slots.active_bytes().to_vec();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF; // ransomware-style corruption
    platform.slots.write_slot(active, bytes);
}

fn active_image(platform: &Platform) -> Option<FirmwareImage> {
    FirmwareImage::from_bytes(
        platform.slots.active_bytes(),
        platform.vendor_public.modulus_len(),
    )
    .ok()
    .filter(|img| img.verify(&platform.vendor_public).is_ok())
}

fn fresh_platform_with_v2() -> Platform {
    let mut p = Platform::new(PlatformConfig::new(PlatformProfile::CyberResilient, 404));
    // Field update to v2 first, so there is history to roll back to.
    let v2 = p
        .signer
        .sign("app", 2, 2, b"CRES application firmware v2")
        .to_bytes();
    p.update.stage(&mut p.slots, v2);
    p.update
        .commit(&mut p.slots, p.chain.rom(), &p.vendor_public, &mut p.arb)
        .expect("v2 update applies");
    p
}

fn main() {
    cres_bench::banner(
        "E5",
        "Recovery paths after firmware corruption: reboot vs rollback vs golden vs roll-forward",
    );
    let reboot = REBOOT_DURATION.as_cycles();
    let mut results = Vec::new();

    // Path 1: plain reboot (the passive baseline's only recovery).
    {
        let mut p = fresh_platform_with_v2();
        corrupt_active_slot(&mut p);
        // reboot does not touch flash: the corrupted image is still there
        let recovered = active_image(&p).is_some();
        results.push(PathResult {
            name: "reboot only",
            recovered,
            version_after: active_image(&p).map(|i| i.header.version),
            latency_cycles: reboot,
            notes: "corrupted image persists; boot verification fails again".into(),
        });
    }

    // Path 2: rollback to the previous slot.
    {
        let mut p = fresh_platform_with_v2();
        corrupt_active_slot(&mut p);
        let fallback = p.slots.active().other();
        let ok = !p.slots.slot(fallback).is_empty();
        if ok {
            p.slots.set_active(fallback);
        }
        let img = active_image(&p);
        results.push(PathResult {
            name: "rollback (A/B)",
            recovered: img.is_some(),
            version_after: img.map(|i| i.header.version),
            latency_cycles: reboot + 100, // slot switch + re-verify
            notes: "previous version restored; v2 data-format state lost".into(),
        });
    }

    // Path 3: golden-image recovery.
    {
        let mut p = fresh_platform_with_v2();
        corrupt_active_slot(&mut p);
        // also corrupt the fallback (worst case: both slots hit)
        let fallback = p.slots.active().other();
        p.slots.write_slot(fallback, b"ransomware".to_vec());
        let golden_len = p.slots.golden().len() as u64;
        p.update.recover_golden(&mut p.slots);
        let img = active_image(&p);
        results.push(PathResult {
            name: "golden recovery",
            recovered: img.is_some(),
            version_after: img.map(|i| i.header.version),
            latency_cycles: reboot + golden_len / FLASH_BYTES_PER_CYCLE,
            notes: "works even with both slots corrupted; factory state".into(),
        });
    }

    // Path 4: roll-forward (re-stage a fixed v3 over the air).
    {
        let mut p = fresh_platform_with_v2();
        corrupt_active_slot(&mut p);
        let v3 = p
            .signer
            .sign("app", 3, 3, b"CRES application firmware v3 (fixed)")
            .to_bytes();
        let v3_len = v3.len() as u64;
        p.update.stage(&mut p.slots, v3);
        let commit = p
            .update
            .commit(&mut p.slots, p.chain.rom(), &p.vendor_public, &mut p.arb);
        let img = active_image(&p);
        results.push(PathResult {
            name: "roll-forward (v3)",
            recovered: commit.is_ok() && img.is_some(),
            version_after: img.map(|i| i.header.version),
            latency_cycles: reboot + v3_len / FLASH_BYTES_PER_CYCLE + 50_000, // + OTA transfer
            notes: "newest fix applied; requires network & vendor".into(),
        });
    }

    let widths = [18, 10, 10, 12, 52];
    cres_bench::row(
        &[&"path", &"recovers", &"version", &"latency", &"notes"],
        &widths,
    );
    cres_bench::rule(&widths);
    for r in &results {
        cres_bench::row(
            &[
                &r.name,
                &if r.recovered { "yes" } else { "NO" },
                &r.version_after.map_or("—".to_string(), |v| format!("v{v}")),
                &format!("{}cy", r.latency_cycles),
                &r.notes,
            ],
            &widths,
        );
    }
    cres_bench::rule(&widths);
    println!(
        "\nexpected shape: reboot alone cannot recover a corrupted image;\n\
         rollback is fastest but loses the newest version; golden recovery\n\
         survives total slot loss at the highest flash cost; roll-forward\n\
         gives the best end state but depends on external infrastructure."
    );
}
