//! Property tests for the SoC substrate: memory/MPU invariants, bus tap
//! completeness, and a differential check of the bus and MPU against a
//! naive reference built on hash maps and a linear region scan.

use cres_sim::SimTime;
use cres_soc::addr::{Addr, AddrRange, BusOp, MasterId, Perms, RegionId};
use cres_soc::bus::{Bus, BusError, MasterStats, TxnCursor, TxnOutcome, TxnRecord};
use cres_soc::mem::MemoryMap;
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

fn small_map() -> MemoryMap {
    let mut m = MemoryMap::new();
    m.add_region("a", Addr(0x1000), 0x1000, Perms::rw());
    m.add_region("b", Addr(0x4000), 0x1000, Perms::rw());
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn write_then_read_round_trips(
        off in 0u64..0x0F00,
        data in proptest::collection::vec(any::<u8>(), 1..256)
    ) {
        let mut m = small_map();
        let addr = Addr(0x1000 + off.min(0x1000 - data.len() as u64));
        m.write(MasterId::CPU0, addr, &data).unwrap();
        prop_assert_eq!(m.read(MasterId::CPU0, addr, data.len() as u64).unwrap(), data);
    }

    #[test]
    fn revoked_master_never_reads(
        off in 0u64..0x0FF0,
        master_idx in 0usize..4
    ) {
        let mut m = small_map();
        let master = MasterId::cpu(master_idx);
        let region = m.region_by_name("a").unwrap().id();
        m.revoke(master, region);
        prop_assert!(m.read(master, Addr(0x1000 + off), 4).is_err());
        // other region untouched
        prop_assert!(m.read(master, Addr(0x4000), 4).is_ok());
    }

    #[test]
    fn grants_never_exceed_base_perms(
        read: bool, write: bool, exec: bool
    ) {
        let mut m = MemoryMap::new();
        m.add_region("rom", Addr(0), 0x100, Perms::rx());
        let id = m.region_by_name("rom").unwrap().id();
        m.grant(MasterId::CPU0, id, Perms { read, write, exec });
        let eff = m.effective_perms(MasterId::CPU0, id);
        // base is r-x: write can never be granted
        prop_assert!(!eff.write);
        prop_assert!(!eff.read || read);
        prop_assert!(!eff.exec || exec);
    }

    #[test]
    fn range_algebra(start in 0u64..1_000_000, len in 1u64..10_000, probe in 0u64..1_010_000) {
        let r = AddrRange::new(Addr(start), len);
        let inside = probe >= start && probe < start + len;
        prop_assert_eq!(r.contains(Addr(probe)), inside);
        prop_assert!(r.covers(&r));
        prop_assert!(r.overlaps(&r));
    }

    #[test]
    fn bus_cursor_sees_every_admitted_txn_once(ops in proptest::collection::vec((0u64..0x1000, any::<bool>()), 1..200)) {
        let mut m = small_map();
        let mut bus = Bus::new(4096); // big enough: no eviction
        let mut cursor = TxnCursor::default();
        let mut admitted = 0u64;
        for (i, (off, is_write)) in ops.iter().enumerate() {
            let addr = Addr(0x1000 + (off % 0xFF0));
            if *is_write {
                let _ = bus.write(SimTime::at_cycle(i as u64), MasterId::CPU1, addr, &[1, 2], &mut m);
            } else {
                let _ = bus.read(SimTime::at_cycle(i as u64), MasterId::CPU1, addr, 2, &m);
            }
            admitted += 1;
        }
        let (records, lost) = bus.poll(&mut cursor);
        prop_assert_eq!(lost, 0);
        prop_assert_eq!(records.len() as u64, admitted);
        // sequence numbers dense and increasing
        for (i, r) in records.iter().enumerate() {
            prop_assert_eq!(r.seq, i as u64);
        }
        // nothing seen twice
        let (again, _) = bus.poll(&mut cursor);
        prop_assert!(again.is_empty());
    }

    #[test]
    fn gated_master_admits_nothing(ops in 1usize..50) {
        let mut m = small_map();
        let mut bus = Bus::new(64);
        bus.gate(MasterId::DMA);
        for i in 0..ops {
            let r = bus.read(SimTime::at_cycle(i as u64), MasterId::DMA, Addr(0x1000), 4, &m);
            prop_assert!(r.is_err());
        }
        prop_assert_eq!(bus.stats(MasterId::DMA).granted, 0);
        prop_assert_eq!(bus.stats(MasterId::DMA).denied, ops as u64);
        let _ = &mut m;
    }

    #[test]
    fn mpu_check_agrees_with_read_write(
        off in 0u64..0x1100,
        len in 0u64..64,
        w: bool
    ) {
        let mut m = small_map();
        let addr = Addr(0x1000 + off);
        let op = if w { BusOp::Write } else { BusOp::Read };
        let checked = m.check(MasterId::CPU2, op, addr, len).is_ok();
        let actual = if w {
            m.write(MasterId::CPU2, addr, &vec![0u8; len as usize]).is_ok()
        } else {
            m.read(MasterId::CPU2, addr, len).is_ok()
        };
        prop_assert_eq!(checked, actual);
    }

    #[test]
    fn bus_and_mpu_match_the_naive_reference(
        ops in proptest::collection::vec((0u8..10, any::<u64>(), any::<u64>()), 1..160)
    ) {
        let mut mem = MemoryMap::new();
        for &(name, base, len, perms) in &DIFF_REGIONS {
            mem.add_region(name, Addr(base), len, perms);
        }
        let mut bus = Bus::new(4096); // big enough: no eviction
        let mut cursor = TxnCursor::default();
        let mut reference = Reference::new();

        for (i, &(kind, a, b)) in ops.iter().enumerate() {
            let at = SimTime::at_cycle(i as u64);
            let master = MasterId::ALL[(a % 8) as usize];
            let region = RegionId(((a >> 3) % DIFF_REGIONS.len() as u64) as u32);
            let perms = Perms {
                read: a & (1 << 8) != 0,
                write: a & (1 << 9) != 0,
                exec: a & (1 << 10) != 0,
            };
            let (addr, len) = diff_target(b);
            let data: Vec<u8> = (0..len).map(|k| (b >> (k % 8 * 8)) as u8 ^ k as u8).collect();
            let byte = (a >> 16) as u8;
            match kind {
                0 => {
                    mem.grant(master, region, perms);
                    reference.grant(master, region, perms);
                }
                1 => {
                    mem.revoke(master, region);
                    reference.grants.insert((master, region), Perms::NONE);
                }
                2 => {
                    mem.revoke_all(master);
                    for r in 0..DIFF_REGIONS.len() {
                        reference.grants.insert((master, RegionId(r as u32)), Perms::NONE);
                    }
                }
                3 => {
                    bus.gate(master);
                    reference.gated.insert(master);
                }
                4 => {
                    bus.ungate(master);
                    reference.gated.remove(&master);
                }
                5 | 6 => {
                    let got = bus.read(at, master, addr, len, &mem).map(<[u8]>::to_vec);
                    let want = reference.access(at, master, BusOp::Read, addr, len);
                    let want = want.map(|r| reference.regions[r].bytes(addr, len).to_vec());
                    prop_assert_eq!(got, want);
                }
                7 => {
                    let got = bus.write(at, master, addr, &data, &mut mem);
                    let want = reference.access(at, master, BusOp::Write, addr, len);
                    if let Ok(r) = want {
                        reference.regions[r].bytes_mut(addr, len).copy_from_slice(&data);
                    }
                    prop_assert_eq!(got, want.map(|_| ()));
                }
                8 => {
                    let got = bus.fill(at, master, addr, len, byte, &mut mem);
                    let want = reference.access(at, master, BusOp::Write, addr, len);
                    if let Ok(r) = want {
                        reference.regions[r].bytes_mut(addr, len).fill(byte);
                    }
                    prop_assert_eq!(got, want.map(|_| ()));
                }
                _ => {
                    let got = bus.fetch(at, master, addr, len, &mem);
                    let want = reference.access(at, master, BusOp::Exec, addr, len);
                    prop_assert_eq!(got, want.map(|_| ()));
                }
            }

            let (records, lost) = bus.poll(&mut cursor);
            prop_assert_eq!(lost, 0);
            prop_assert_eq!(&records, &reference.unpolled, "op {} ({:?})", i, (kind, a, b));
            reference.unpolled.clear();
            for m in MasterId::ALL {
                let want = reference.stats.get(&m).copied().unwrap_or_default();
                prop_assert_eq!(bus.stats(m), want, "stats of {}", m);
                prop_assert_eq!(bus.is_gated(m), reference.gated.contains(&m));
            }
            let gated: Vec<MasterId> = bus.gated_masters().collect();
            let mut want_gated: Vec<MasterId> = reference.gated.iter().copied().collect();
            want_gated.sort();
            prop_assert_eq!(gated, want_gated);
        }

        for (r, region) in reference.regions.iter().enumerate() {
            let id = RegionId(r as u32);
            prop_assert_eq!(mem.region(id).data(), &region.data[..], "contents of {}", id);
            for m in MasterId::ALL {
                let want = reference.grants.get(&(m, id)).copied().unwrap_or(Perms::NONE);
                prop_assert_eq!(mem.effective_perms(m, id), want);
            }
        }
    }
}

/// Regions of the differential map `(name, base, len, base perms)`: a code
/// region, and a data region that abuts a peripheral window so accesses
/// can run across a region boundary.
const DIFF_REGIONS: [(&str, u64, u64, Perms); 3] = [
    (
        "code",
        0x1000,
        0x100,
        Perms {
            read: true,
            write: false,
            exec: true,
        },
    ),
    (
        "data",
        0x2000,
        0x100,
        Perms {
            read: true,
            write: true,
            exec: false,
        },
    ),
    (
        "periph",
        0x2100,
        0x80,
        Perms {
            read: true,
            write: true,
            exec: true,
        },
    ),
];

/// Draws an access `(addr, len)` of 0..24 bytes from `raw`: inside a
/// region, straddling a region's end, or unmapped.
fn diff_target(raw: u64) -> (Addr, u64) {
    let len = raw % 24;
    let (_, base, size, _) = DIFF_REGIONS[((raw >> 8) % 3) as usize];
    let pick = raw >> 16;
    let addr = match pick % 3 {
        0 => base + (pick >> 2) % size,
        1 => base + size - 1 - (pick >> 2) % 8,
        _ => 0x8000 + (pick >> 2) % 0x100,
    };
    (Addr(addr), len)
}

/// A reference region: its range, architectural permissions and bytes.
struct RefRegion {
    base: u64,
    len: u64,
    perms: Perms,
    data: Vec<u8>,
}

impl RefRegion {
    fn bytes(&self, addr: Addr, len: u64) -> &[u8] {
        let off = (addr.0 - self.base) as usize;
        &self.data[off..off + len as usize]
    }

    fn bytes_mut(&mut self, addr: Addr, len: u64) -> &mut [u8] {
        let off = (addr.0 - self.base) as usize;
        &mut self.data[off..off + len as usize]
    }
}

/// The naive bus and MPU: grants, gates and counters in hash maps keyed
/// by master, regions found by a linear scan, every record kept.
struct Reference {
    regions: Vec<RefRegion>,
    grants: HashMap<(MasterId, RegionId), Perms>,
    gated: HashSet<MasterId>,
    stats: HashMap<MasterId, MasterStats>,
    unpolled: Vec<TxnRecord>,
    next_seq: u64,
}

impl Reference {
    fn new() -> Self {
        let mut grants = HashMap::new();
        let mut regions = Vec::new();
        for (r, &(_, base, len, perms)) in DIFF_REGIONS.iter().enumerate() {
            for m in MasterId::ALL {
                grants.insert((m, RegionId(r as u32)), perms);
            }
            regions.push(RefRegion {
                base,
                len,
                perms,
                data: vec![0; len as usize],
            });
        }
        Reference {
            regions,
            grants,
            gated: HashSet::new(),
            stats: HashMap::new(),
            unpolled: Vec::new(),
            next_seq: 0,
        }
    }

    fn grant(&mut self, master: MasterId, region: RegionId, perms: Perms) {
        let base = self.regions[region.0 as usize].perms;
        self.grants.insert((master, region), perms.intersect(base));
    }

    /// Admits one transaction: records it, counts it and returns the index
    /// of the region it may touch.
    fn access(
        &mut self,
        at: SimTime,
        master: MasterId,
        op: BusOp,
        addr: Addr,
        len: u64,
    ) -> Result<usize, BusError> {
        let hit = self
            .regions
            .iter()
            .position(|r| addr.0 >= r.base && addr.0 < r.base + r.len);
        let result = if self.gated.contains(&master) {
            Err(BusError::MasterGated(master))
        } else {
            match hit {
                None => Err(BusError::Unmapped),
                Some(r) if len > 0 && addr.0 + len > self.regions[r].base + self.regions[r].len => {
                    Err(BusError::OutOfBounds)
                }
                Some(r) => {
                    let perms = self.grants[&(master, RegionId(r as u32))];
                    if perms.allows(op) {
                        Ok(r)
                    } else {
                        Err(BusError::PermissionDenied)
                    }
                }
            }
        };
        self.unpolled.push(TxnRecord {
            seq: self.next_seq,
            at,
            master,
            op,
            addr,
            len,
            region: hit.map(|r| RegionId(r as u32)),
            outcome: match result {
                Ok(_) => TxnOutcome::Granted,
                Err(e) => TxnOutcome::Denied(e),
            },
        });
        self.next_seq += 1;
        let stats = self.stats.entry(master).or_default();
        match result {
            Ok(_) => {
                stats.granted += 1;
                stats.bytes += len;
            }
            Err(_) => stats.denied += 1,
        }
        result
    }
}
