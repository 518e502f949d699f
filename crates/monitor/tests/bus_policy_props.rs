//! Differential property test for the bus-policy monitor: its compiled
//! policy (one op bitmask per region and master) against a reference
//! monitor that scans the mission-policy windows for every record, the
//! way the windows read.

use cres_monitor::bus_mon::{AccessWindow, BusPolicyMonitor};
use cres_monitor::detail::Detail;
use cres_monitor::event::{MonitorEvent, ResourceMonitor, Severity, Subject};
use cres_policy::DetectionCapability;
use cres_sim::SimTime;
use cres_soc::addr::{Addr, BusOp, MasterId, Perms, RegionId};
use cres_soc::bus::{TxnCursor, TxnOutcome};
use cres_soc::soc::{Soc, SocBuilder};
use proptest::prelude::*;

/// Regions in the test map, 0x100 bytes each at `0x1000 * (id + 1)`.
const REGIONS: u64 = 6;

/// Region ids the windows draw from: past the map's last region too, so
/// some windows name regions no record hits.
const WINDOW_REGIONS: u32 = 8;

const OPS: [BusOp; 3] = [BusOp::Read, BusOp::Write, BusOp::Exec];

/// The naive bus-policy monitor: every granted record scans the windows.
struct RefBusPolicy {
    windows: Vec<AccessWindow>,
    cursor: TxnCursor,
    flag_debug_port: bool,
    out_of_policy: u64,
}

impl RefBusPolicy {
    fn in_policy(&self, master: MasterId, region: RegionId, op: BusOp) -> bool {
        self.windows
            .iter()
            .any(|w| w.master == master && w.region == region && w.allows(op))
    }
}

impl ResourceMonitor for RefBusPolicy {
    fn name(&self) -> &'static str {
        "bus-policy"
    }

    fn capability(&self) -> DetectionCapability {
        DetectionCapability::BusPolicing
    }

    fn sample_into(&mut self, soc: &mut Soc, now: SimTime, out: &mut Vec<MonitorEvent>) {
        let (records, lost) = soc.bus.poll(&mut self.cursor);
        if lost > 0 {
            out.push(MonitorEvent::new(
                now,
                DetectionCapability::BusPolicing,
                Severity::Warning,
                Subject::Platform,
                Detail::BusTapOverflow { lost },
            ));
        }
        for rec in records {
            let (severity, detail) = if self.flag_debug_port && rec.master == MasterId::DEBUG {
                let detail = Detail::DebugPortActive {
                    op: rec.op,
                    addr: rec.addr,
                };
                (Severity::Alert, detail)
            } else {
                match (rec.outcome, rec.region) {
                    (TxnOutcome::Denied(err), _) => {
                        let detail = Detail::AccessDenied {
                            op: rec.op,
                            master: rec.master,
                            addr: rec.addr,
                            err,
                        };
                        (Severity::Warning, detail)
                    }
                    (TxnOutcome::Granted, Some(region))
                        if !self.in_policy(rec.master, region, rec.op) =>
                    {
                        self.out_of_policy += 1;
                        let detail = Detail::OutOfPolicy {
                            op: rec.op,
                            master: rec.master,
                            addr: rec.addr,
                            region,
                        };
                        (Severity::Alert, detail)
                    }
                    (TxnOutcome::Granted, _) => continue,
                }
            };
            out.push(MonitorEvent::new(
                rec.at,
                DetectionCapability::BusPolicing,
                severity,
                Subject::Master(rec.master),
                detail,
            ));
        }
    }
}

/// A SoC with [`REGIONS`] open regions and a tap ring of `ring` records.
fn soc(ring: usize) -> Soc {
    let mut b = SocBuilder::new().bus_ring(ring);
    for r in 0..REGIONS {
        b = b.region(
            &format!("r{r}"),
            Addr(0x1000 * (r + 1)),
            0x100,
            Perms::rwx(),
        );
    }
    b.build()
}

/// Issues `op` by `master` at `addr` through the bus; the outcome is only
/// recorded.
fn access(soc: &mut Soc, at: SimTime, master: MasterId, op: BusOp, addr: Addr) {
    let _ = match op {
        BusOp::Read => soc.bus.read(at, master, addr, 4, &soc.mem).map(|_| ()),
        BusOp::Write => soc.bus.write(at, master, addr, &[0xA5; 4], &mut soc.mem),
        BusOp::Exec => soc.bus.fetch(at, master, addr, 4, &soc.mem),
    };
}

/// Samples both monitors at `now` and returns their events.
fn sample_both(
    monitor: &mut BusPolicyMonitor,
    reference: &mut RefBusPolicy,
    soc: &mut Soc,
    now: SimTime,
) -> (Vec<MonitorEvent>, Vec<MonitorEvent>) {
    let mut got = Vec::new();
    monitor.sample_into(soc, now, &mut got);
    let mut want = Vec::new();
    reference.sample_into(soc, now, &mut want);
    (got, want)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn compiled_policy_matches_the_window_scan(
        raw_windows in proptest::collection::vec(
            (0usize..8, 0u32..WINDOW_REGIONS, 0u8..8),
            0..24
        ),
        repeats in proptest::collection::vec(any::<u16>(), 0..6),
        flag_debug_port: bool,
        traffic in proptest::collection::vec((0usize..8, 0u8..6, (0u64..8, 1u64..6)), 1..120)
    ) {
        let mut windows: Vec<AccessWindow> = raw_windows
            .iter()
            .map(|&(m, region, ops)| AccessWindow {
                master: MasterId::ALL[m],
                region: RegionId(region),
                read: ops & 1 != 0,
                write: ops & 2 != 0,
                exec: ops & 4 != 0,
            })
            .collect();
        // Exact duplicates, beside the overlaps the small ranges draw.
        for &i in &repeats {
            if !windows.is_empty() {
                let w = windows[i as usize % windows.len()];
                windows.push(w);
            }
        }
        let reference = |flag| RefBusPolicy {
            windows: windows.clone(),
            cursor: TxnCursor::default(),
            flag_debug_port: flag,
            out_of_policy: 0,
        };

        // Every (master, region, op), granted, with the debug port
        // checked against the policy like any other master.
        let mut sweep = soc(256);
        let mut monitor = BusPolicyMonitor::new(windows.clone(), false);
        let mut naive = reference(false);
        for (i, m) in MasterId::ALL.into_iter().enumerate() {
            for r in 0..REGIONS {
                for op in OPS {
                    let at = SimTime::at_cycle(i as u64);
                    access(&mut sweep, at, m, op, Addr(0x1000 * (r + 1) + 0x10));
                }
            }
        }
        let (got, want) = sample_both(&mut monitor, &mut naive, &mut sweep, SimTime::ZERO);
        prop_assert_eq!(&got, &want);
        prop_assert_eq!(monitor.out_of_policy(), naive.out_of_policy);
        let outside = MasterId::ALL
            .into_iter()
            .flat_map(|m| (0..REGIONS as u32).flat_map(move |r| OPS.map(|op| (m, r, op))))
            .filter(|&(m, r, op)| !naive.in_policy(m, RegionId(r), op))
            .count();
        prop_assert_eq!(monitor.out_of_policy(), outside as u64);

        // Random traffic on a small ring: gates, revocations, unmapped
        // targets, a straddled region end (offset 0xff) and tap overflow,
        // sampled at random points.
        let mut soc = soc(8);
        let mut monitor = BusPolicyMonitor::new(windows.clone(), flag_debug_port);
        let mut naive = reference(flag_debug_port);
        for (i, &(m, kind, (target, offset))) in traffic.iter().enumerate() {
            let at = SimTime::at_cycle(i as u64);
            let master = MasterId::ALL[m];
            let addr = if target < REGIONS {
                Addr(0x1000 * (target + 1) + offset * 0x33)
            } else {
                Addr(0x9000 + target)
            };
            match kind {
                0..=2 => access(&mut soc, at, master, OPS[kind as usize], addr),
                3 if soc.bus.is_gated(master) => soc.bus.ungate(master),
                3 => soc.bus.gate(master),
                4 => soc.mem.revoke(master, RegionId((target % REGIONS) as u32)),
                _ => soc.mem.grant(master, RegionId((target % REGIONS) as u32), Perms::rwx()),
            }
            if offset == 1 || i + 1 == traffic.len() {
                let (got, want) = sample_both(&mut monitor, &mut naive, &mut soc, at);
                prop_assert_eq!(&got, &want, "after op {}", i);
                prop_assert_eq!(monitor.out_of_policy(), naive.out_of_policy);
            }
        }
    }
}
