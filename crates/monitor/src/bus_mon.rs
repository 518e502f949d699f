//! Interconnect monitors: bus policing and memory guarding.
//!
//! Both monitors tap the bus ring through their own cursors — the hardware
//! analogue is a probe on the interconnect fabric (SECA-style, per Table I's
//! academic landscape). The *policy* they check is stricter than the MPU:
//! the MPU enforces architectural legality, the policy windows encode
//! *expected mission behaviour* (which masters should ever touch which
//! regions), so the bus monitor catches reconnaissance that the MPU lets
//! through.

use crate::detail::Detail;
use crate::event::{MonitorEvent, ResourceMonitor, Severity, Subject};
use cres_policy::DetectionCapability;
use cres_sim::SimTime;
use cres_soc::addr::{BusOp, MasterId, RegionId};
use cres_soc::bus::{TxnCursor, TxnOutcome};
use cres_soc::Soc;

/// An allowed (master, region, operation-set) triple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessWindow {
    /// Master the window applies to.
    pub master: MasterId,
    /// Region the window covers.
    pub region: RegionId,
    /// Reads allowed.
    pub read: bool,
    /// Writes allowed.
    pub write: bool,
    /// Fetches allowed.
    pub exec: bool,
}

impl AccessWindow {
    /// True when the window permits `op`.
    pub fn allows(&self, op: BusOp) -> bool {
        match op {
            BusOp::Read => self.read,
            BusOp::Write => self.write,
            BusOp::Exec => self.exec,
        }
    }
}

/// Bit of a read in a compiled policy entry.
const READ: u8 = 1;
/// Bit of a write in a compiled policy entry.
const WRITE: u8 = 2;
/// Bit of a fetch in a compiled policy entry.
const EXEC: u8 = 4;

/// The bit `op` owns in a compiled policy entry.
fn op_bit(op: BusOp) -> u8 {
    match op {
        BusOp::Read => READ,
        BusOp::Write => WRITE,
        BusOp::Exec => EXEC,
    }
}

/// Bus transaction policing against mission policy windows.
#[derive(Debug, Clone)]
pub struct BusPolicyMonitor {
    /// The windows compiled to one op bitmask per master, indexed by region
    /// id and then by [`MasterId::index`]; a region past the end is in no
    /// window.
    policy: Vec<[u8; MasterId::ALL.len()]>,
    cursor: TxnCursor,
    flag_debug_port: bool,
    out_of_policy: u64,
}

impl BusPolicyMonitor {
    /// Creates a monitor with the given policy windows. `flag_debug_port`
    /// raises an alert on any DEBUG-master activity (production devices
    /// should see none).
    pub fn new(windows: Vec<AccessWindow>, flag_debug_port: bool) -> Self {
        let regions = windows.iter().map(|w| w.region.0 as usize + 1).max();
        let mut policy = vec![[0; MasterId::ALL.len()]; regions.unwrap_or(0)];
        for w in &windows {
            let mask = [(w.read, READ), (w.write, WRITE), (w.exec, EXEC)]
                .into_iter()
                .filter(|&(allowed, _)| allowed)
                .fold(0, |mask, (_, bit)| mask | bit);
            policy[w.region.0 as usize][w.master.index()] |= mask;
        }
        BusPolicyMonitor {
            policy,
            cursor: TxnCursor::default(),
            flag_debug_port,
            out_of_policy: 0,
        }
    }

    /// Count of out-of-policy transactions seen so far.
    pub fn out_of_policy(&self) -> u64 {
        self.out_of_policy
    }

    /// True when some window lets `master` perform `op` on `region`.
    fn in_policy(&self, master: MasterId, region: RegionId, op: BusOp) -> bool {
        self.policy
            .get(region.0 as usize)
            .is_some_and(|masks| masks[master.index()] & op_bit(op) != 0)
    }
}

impl ResourceMonitor for BusPolicyMonitor {
    fn name(&self) -> &'static str {
        "bus-policy"
    }

    fn capability(&self) -> DetectionCapability {
        DetectionCapability::BusPolicing
    }

    fn sample_into(&mut self, soc: &mut Soc, now: SimTime, events: &mut Vec<MonitorEvent>) {
        let (records, lost) = soc.bus.poll_iter(&mut self.cursor);
        if lost > 0 {
            events.push(MonitorEvent::new(
                now,
                self.capability(),
                Severity::Warning,
                Subject::Platform,
                Detail::BusTapOverflow { lost },
            ));
        }
        let mut out_of_policy = 0;
        for rec in records {
            if self.flag_debug_port && rec.master == MasterId::DEBUG {
                events.push(MonitorEvent::new(
                    rec.at,
                    DetectionCapability::BusPolicing,
                    Severity::Alert,
                    Subject::Master(MasterId::DEBUG),
                    Detail::DebugPortActive {
                        op: rec.op,
                        addr: rec.addr,
                    },
                ));
                continue;
            }
            match (rec.outcome, rec.region) {
                (TxnOutcome::Granted, Some(region)) => {
                    if !self.in_policy(rec.master, region, rec.op) {
                        out_of_policy += 1;
                        events.push(MonitorEvent::new(
                            rec.at,
                            DetectionCapability::BusPolicing,
                            Severity::Alert,
                            Subject::Master(rec.master),
                            Detail::OutOfPolicy {
                                op: rec.op,
                                master: rec.master,
                                addr: rec.addr,
                                region,
                            },
                        ));
                    }
                }
                (TxnOutcome::Granted, None) => {}
                (TxnOutcome::Denied(err), _) => {
                    events.push(MonitorEvent::new(
                        rec.at,
                        DetectionCapability::BusPolicing,
                        Severity::Warning,
                        Subject::Master(rec.master),
                        Detail::AccessDenied {
                            op: rec.op,
                            master: rec.master,
                            addr: rec.addr,
                            err,
                        },
                    ));
                }
            }
        }
        self.out_of_policy += out_of_policy;
    }
}

/// Guards a set of protected regions: denied probes are alerts (someone is
/// scanning for secrets) and *granted writes* to guarded code regions are
/// critical (firmware tamper in progress).
#[derive(Debug, Clone)]
pub struct MemoryGuardMonitor {
    guarded: Vec<RegionId>,
    write_guarded: Vec<RegionId>,
    cursor: TxnCursor,
}

impl MemoryGuardMonitor {
    /// Creates a guard over `guarded` regions (all denied accesses alert)
    /// and `write_guarded` regions (granted writes are critical — e.g.
    /// firmware slots outside an update window).
    pub fn new(guarded: Vec<RegionId>, write_guarded: Vec<RegionId>) -> Self {
        MemoryGuardMonitor {
            guarded,
            write_guarded,
            cursor: TxnCursor::default(),
        }
    }
}

impl ResourceMonitor for MemoryGuardMonitor {
    fn name(&self) -> &'static str {
        "memory-guard"
    }

    fn capability(&self) -> DetectionCapability {
        DetectionCapability::MemoryGuard
    }

    fn sample_into(&mut self, soc: &mut Soc, _now: SimTime, events: &mut Vec<MonitorEvent>) {
        let (records, _) = soc.bus.poll_iter(&mut self.cursor);
        for rec in records {
            let Some(region) = rec.region else { continue };
            match rec.outcome {
                TxnOutcome::Denied(_) if self.guarded.contains(&region) => {
                    events.push(MonitorEvent::new(
                        rec.at,
                        DetectionCapability::MemoryGuard,
                        Severity::Alert,
                        Subject::Master(rec.master),
                        Detail::GuardedProbe {
                            region,
                            master: rec.master,
                            op: rec.op,
                            addr: rec.addr,
                        },
                    ));
                }
                TxnOutcome::Granted
                    if rec.op == BusOp::Write && self.write_guarded.contains(&region) =>
                {
                    events.push(MonitorEvent::new(
                        rec.at,
                        DetectionCapability::MemoryGuard,
                        Severity::Critical,
                        Subject::Region(region),
                        Detail::GuardedWrite {
                            region,
                            master: rec.master,
                            addr: rec.addr,
                        },
                    ));
                }
                _ => {}
            }
        }
    }

    fn sample_cost(&self) -> u64 {
        3
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cres_soc::addr::Addr;
    use cres_soc::soc::SocBuilder;

    fn soc() -> Soc {
        SocBuilder::with_standard_layout(1).build()
    }

    fn windows_for_cpu0(soc: &Soc) -> Vec<AccessWindow> {
        // CPU0 may use flash_a (rx), sram (rw) and periph (rw) only.
        let r = |name: &str| soc.mem.region_by_name(name).unwrap().id();
        vec![
            AccessWindow {
                master: MasterId::CPU0,
                region: r("flash_a"),
                read: true,
                write: false,
                exec: true,
            },
            AccessWindow {
                master: MasterId::CPU0,
                region: r("sram"),
                read: true,
                write: true,
                exec: false,
            },
            AccessWindow {
                master: MasterId::CPU0,
                region: r("periph"),
                read: true,
                write: true,
                exec: false,
            },
        ]
    }

    #[test]
    fn in_policy_traffic_is_silent() {
        let mut soc = soc();
        let mut mon = BusPolicyMonitor::new(windows_for_cpu0(&soc), true);
        let now = SimTime::ZERO;
        let sram = Addr(0x2000_0000);
        soc.bus
            .write(now, MasterId::CPU0, sram, &[1, 2], &mut soc.mem)
            .unwrap();
        soc.bus
            .fetch(now, MasterId::CPU0, Addr(0x0800_0000), 16, &soc.mem)
            .unwrap();
        let events = mon.sample(&mut soc, now);
        assert!(events.is_empty(), "unexpected events: {events:?}");
    }

    #[test]
    fn out_of_policy_granted_access_alerts() {
        let mut soc = soc();
        let mut mon = BusPolicyMonitor::new(windows_for_cpu0(&soc), true);
        // tee_secure is architecturally open by default grants, but NOT in
        // CPU0's mission policy — reconnaissance the MPU misses.
        soc.bus
            .read(
                SimTime::ZERO,
                MasterId::CPU0,
                Addr(0x3000_0000),
                16,
                &soc.mem,
            )
            .unwrap();
        let events = mon.sample(&mut soc, SimTime::ZERO);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].severity, Severity::Alert);
        assert!(events[0].detail.contains("out-of-policy"));
        assert_eq!(mon.out_of_policy(), 1);
    }

    #[test]
    fn denied_access_warns() {
        let mut soc = soc();
        let ssm_region = soc.mem.region_by_name("ssm_private").unwrap().id();
        soc.mem.revoke(MasterId::CPU0, ssm_region);
        let mut mon = BusPolicyMonitor::new(windows_for_cpu0(&soc), true);
        let _ = soc.bus.read(
            SimTime::ZERO,
            MasterId::CPU0,
            Addr(0x5000_0000),
            16,
            &soc.mem,
        );
        let events = mon.sample(&mut soc, SimTime::ZERO);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].severity, Severity::Warning);
        assert!(events[0].detail.contains("denied"));
    }

    #[test]
    fn debug_port_activity_always_alerts() {
        let mut soc = soc();
        let mut mon = BusPolicyMonitor::new(vec![], true);
        let _ = soc.bus.read(
            SimTime::ZERO,
            MasterId::DEBUG,
            Addr(0x2000_0000),
            4,
            &soc.mem,
        );
        let events = mon.sample(&mut soc, SimTime::ZERO);
        assert_eq!(events.len(), 1);
        assert!(events[0].detail.contains("debug port"));
    }

    #[test]
    fn each_event_reported_once() {
        let mut soc = soc();
        let mut mon = BusPolicyMonitor::new(windows_for_cpu0(&soc), true);
        soc.bus
            .read(
                SimTime::ZERO,
                MasterId::CPU0,
                Addr(0x3000_0000),
                4,
                &soc.mem,
            )
            .unwrap();
        assert_eq!(mon.sample(&mut soc, SimTime::ZERO).len(), 1);
        assert!(mon.sample(&mut soc, SimTime::ZERO).is_empty());
    }

    #[test]
    fn memory_guard_flags_probe_and_tamper() {
        let mut soc = soc();
        let ssm = soc.mem.region_by_name("ssm_private").unwrap().id();
        let flash_a = soc.mem.region_by_name("flash_a").unwrap().id();
        for cpu in 0..4 {
            soc.mem.revoke(MasterId::cpu(cpu), ssm);
        }
        let mut mon = MemoryGuardMonitor::new(vec![ssm], vec![flash_a]);
        // probe the guarded region (denied)
        let _ = soc.bus.read(
            SimTime::ZERO,
            MasterId::CPU1,
            Addr(0x5000_0000),
            8,
            &soc.mem,
        );
        // tamper with write-guarded flash (granted: rwx base perms)
        soc.bus
            .write(
                SimTime::ZERO,
                MasterId::CPU1,
                Addr(0x0800_0000),
                &[0xEE],
                &mut soc.mem,
            )
            .unwrap();
        let events = mon.sample(&mut soc, SimTime::ZERO);
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].severity, Severity::Alert);
        assert!(events[0].detail.contains("probe"));
        assert_eq!(events[1].severity, Severity::Critical);
        assert!(events[1].detail.contains("write-guarded"));
    }

    #[test]
    fn guard_ignores_unrelated_traffic() {
        let mut soc = soc();
        let ssm = soc.mem.region_by_name("ssm_private").unwrap().id();
        let mut mon = MemoryGuardMonitor::new(vec![ssm], vec![]);
        soc.bus
            .write(
                SimTime::ZERO,
                MasterId::CPU0,
                Addr(0x2000_0000),
                &[1],
                &mut soc.mem,
            )
            .unwrap();
        assert!(mon.sample(&mut soc, SimTime::ZERO).is_empty());
    }
}
