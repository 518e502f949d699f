//! The memory map and the MPU-style per-master permission matrix.
//!
//! The permission matrix is the **single source of truth for isolation** in
//! the whole platform. "The SSM is physically isolated" is literally the
//! absence of `(app core, ssm-private-region)` entries in this matrix, and
//! the response manager's *physical isolation* countermeasure operates by
//! revoking entries (plus bus gating). Experiments E7 and E9 read and
//! manipulate it directly.

use crate::addr::{Addr, AddrRange, BusOp, MasterId, Perms, RegionId};
use std::fmt;
use std::ops::Range;

/// Length of [`ZEROS`]: the largest region that can wait for its first
/// write before it is backed. It covers every [`crate::soc::layout`]
/// region; a larger region is backed when it is added.
const ZERO_BLOCK: usize = 0x4_0000;

/// What every never-written region reads as, shared by all of them.
static ZEROS: [u8; ZERO_BLOCK] = [0; ZERO_BLOCK];

/// A contiguous region of physical memory.
#[derive(Debug, Clone)]
pub struct MemoryRegion {
    id: RegionId,
    name: String,
    range: AddrRange,
    /// The region's bytes, allocated on its first write; empty until then,
    /// when the region reads as [`ZEROS`].
    data: Vec<u8>,
    /// The span of `data` written since it was allocated or last wiped:
    /// every byte outside it is zero.
    written: Range<usize>,
    /// Base (architectural) permissions, intersected with per-master grants.
    base_perms: Perms,
}

impl MemoryRegion {
    /// Region identifier.
    pub fn id(&self) -> RegionId {
        self.id
    }

    /// Human-readable name, e.g. `"sram"` or `"ssm_private"`.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The address range this region occupies.
    pub fn range(&self) -> AddrRange {
        self.range
    }

    /// Architectural permissions, before per-master restriction.
    pub fn base_perms(&self) -> Perms {
        self.base_perms
    }

    /// Raw contents (for checkpointing and forensics).
    pub fn data(&self) -> &[u8] {
        if self.data.is_empty() {
            &ZEROS[..self.range.len as usize]
        } else {
            &self.data
        }
    }

    /// The bytes `[addr, addr+len)`, which must lie inside the region.
    fn bytes(&self, addr: Addr, len: u64) -> &[u8] {
        let off = (addr.0 - self.range.start.0) as usize;
        &self.data()[off..off + len as usize]
    }

    /// [`MemoryRegion::bytes`] for writing: backs the region on its first
    /// write.
    fn bytes_mut(&mut self, addr: Addr, len: u64) -> &mut [u8] {
        if self.data.is_empty() {
            self.data = vec![0; self.range.len as usize];
        }
        let off = (addr.0 - self.range.start.0) as usize;
        let span = off..off + len as usize;
        if self.written.is_empty() {
            self.written = span.clone();
        } else {
            self.written = self.written.start.min(span.start)..self.written.end.max(span.end);
        }
        &mut self.data[span]
    }

    /// Zeroes the written span, keeping the bytes allocated.
    fn wipe(&mut self) {
        self.data[self.written.clone()].fill(0);
        self.written = 0..0;
    }
}

/// Why a memory access failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemError {
    /// No region is mapped at the address.
    Unmapped(Addr),
    /// The access crosses the end of its region.
    OutOfBounds(Addr),
    /// The MPU denied the access for this master.
    Denied {
        /// Master that attempted the access.
        master: MasterId,
        /// Operation that was attempted.
        op: BusOp,
        /// Address of the attempt.
        addr: Addr,
    },
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::Unmapped(a) => write!(f, "unmapped address {a}"),
            MemError::OutOfBounds(a) => write!(f, "access at {a} crosses region boundary"),
            MemError::Denied { master, op, addr } => {
                write!(f, "mpu denied {op} by {master} at {addr}")
            }
        }
    }
}

impl std::error::Error for MemError {}

/// The full memory map plus the per-master permission matrix.
#[derive(Debug, Clone, Default)]
pub struct MemoryMap {
    regions: Vec<MemoryRegion>,
    /// Per-master grants, indexed by region id and then by master.
    grants: Vec<[Perms; MasterId::ALL.len()]>,
}

impl MemoryMap {
    /// Creates an empty memory map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a region and grants every master the region's base permissions
    /// (callers then restrict with [`MemoryMap::revoke`] /
    /// [`MemoryMap::grant`]).
    ///
    /// # Panics
    ///
    /// Panics if the region overlaps an existing one or has zero length.
    pub fn add_region(&mut self, name: &str, base: Addr, len: u64, perms: Perms) -> RegionId {
        assert!(len > 0, "region {name:?} must have non-zero length");
        let range = AddrRange::new(base, len);
        for r in &self.regions {
            assert!(
                !r.range.overlaps(&range),
                "region {name:?} overlaps {:?}",
                r.name
            );
        }
        let id = RegionId(self.regions.len() as u32);
        self.regions.push(MemoryRegion {
            id,
            name: name.to_string(),
            range,
            data: if len as usize > ZERO_BLOCK {
                vec![0; len as usize]
            } else {
                Vec::new()
            },
            written: 0..0,
            base_perms: perms,
        });
        self.grants.push([perms; MasterId::ALL.len()]);
        id
    }

    /// Restores the map to how [`MemoryMap::add_region`] left it: every
    /// byte zero and every master granted each region's base permissions.
    /// Regions keep the bytes they have allocated; only their written
    /// spans are cleared.
    pub(crate) fn wipe(&mut self) {
        for (region, row) in self.regions.iter_mut().zip(&mut self.grants) {
            region.wipe();
            *row = [region.base_perms; MasterId::ALL.len()];
        }
    }

    /// Grants `perms` (intersected with the region's base permissions) to
    /// `master` on `region`.
    pub fn grant(&mut self, master: MasterId, region: RegionId, perms: Perms) {
        let base = self.region(region).base_perms;
        self.grants[region.0 as usize][master.index()] = perms.intersect(base);
    }

    /// Removes all access for `master` on `region`.
    pub fn revoke(&mut self, master: MasterId, region: RegionId) {
        if let Some(row) = self.grants.get_mut(region.0 as usize) {
            row[master.index()] = Perms::NONE;
        }
    }

    /// Removes all access for `master` on every region (full lockout, used
    /// by the isolation countermeasure).
    pub fn revoke_all(&mut self, master: MasterId) {
        for row in &mut self.grants {
            row[master.index()] = Perms::NONE;
        }
    }

    /// The effective permissions of `master` on `region`.
    pub fn effective_perms(&self, master: MasterId, region: RegionId) -> Perms {
        self.grants
            .get(region.0 as usize)
            .map_or(Perms::NONE, |row| row[master.index()])
    }

    /// Looks up the region containing `addr`.
    pub fn region_at(&self, addr: Addr) -> Option<&MemoryRegion> {
        self.regions.iter().find(|r| r.range.contains(addr))
    }

    /// Looks up a region by id.
    ///
    /// # Panics
    ///
    /// Panics for an unknown id (region ids never dangle — they are only
    /// minted by [`MemoryMap::add_region`]).
    pub fn region(&self, id: RegionId) -> &MemoryRegion {
        &self.regions[id.0 as usize]
    }

    /// Looks up a region by name.
    pub fn region_by_name(&self, name: &str) -> Option<&MemoryRegion> {
        self.regions.iter().find(|r| r.name == name)
    }

    /// All regions in declaration order.
    pub fn regions(&self) -> &[MemoryRegion] {
        &self.regions
    }

    /// Checks whether `master` may perform `op` over `[addr, addr+len)`.
    ///
    /// # Errors
    ///
    /// Returns the reason the access would fault.
    pub fn check(
        &self,
        master: MasterId,
        op: BusOp,
        addr: Addr,
        len: u64,
    ) -> Result<RegionId, MemError> {
        self.permit(self.region_at(addr), master, op, addr, len)
    }

    /// [`MemoryMap::check`] against `region`, the result of
    /// [`MemoryMap::region_at`] for `addr`, so that a caller which needs the
    /// region anyway scans the map once.
    ///
    /// # Errors
    ///
    /// Returns the reason the access would fault.
    pub(crate) fn permit(
        &self,
        region: Option<&MemoryRegion>,
        master: MasterId,
        op: BusOp,
        addr: Addr,
        len: u64,
    ) -> Result<RegionId, MemError> {
        let region = region.ok_or(MemError::Unmapped(addr))?;
        if len > 0 && !region.range.covers(&AddrRange::new(addr, len)) {
            return Err(MemError::OutOfBounds(addr));
        }
        let perms = self.effective_perms(master, region.id);
        if !perms.allows(op) {
            return Err(MemError::Denied { master, op, addr });
        }
        Ok(region.id)
    }

    /// Performs a checked read, borrowing the bytes from the map.
    ///
    /// # Errors
    ///
    /// Propagates [`MemError`] from the permission check.
    pub fn read(&self, master: MasterId, addr: Addr, len: u64) -> Result<&[u8], MemError> {
        let id = self.check(master, BusOp::Read, addr, len)?;
        Ok(self.bytes(id, addr, len))
    }

    /// Performs a checked write.
    ///
    /// # Errors
    ///
    /// Propagates [`MemError`] from the permission check.
    pub fn write(&mut self, master: MasterId, addr: Addr, data: &[u8]) -> Result<(), MemError> {
        let len = data.len() as u64;
        let id = self.check(master, BusOp::Write, addr, len)?;
        self.bytes_mut(id, addr, len).copy_from_slice(data);
        Ok(())
    }

    /// The bytes `[addr, addr+len)` of region `id`, where an admitted
    /// access lies.
    pub(crate) fn bytes(&self, id: RegionId, addr: Addr, len: u64) -> &[u8] {
        self.region(id).bytes(addr, len)
    }

    /// [`MemoryMap::bytes`] for writing.
    pub(crate) fn bytes_mut(&mut self, id: RegionId, addr: Addr, len: u64) -> &mut [u8] {
        self.regions[id.0 as usize].bytes_mut(addr, len)
    }

    /// Unchecked write used by the boot ROM and attack injectors that model
    /// physical access (they bypass the MPU by construction).
    ///
    /// # Panics
    ///
    /// Panics when the range is unmapped or crosses a region boundary.
    pub fn write_unchecked(&mut self, addr: Addr, data: &[u8]) {
        let region = self
            .regions
            .iter_mut()
            .find(|r| r.range.contains(addr))
            .unwrap_or_else(|| panic!("write_unchecked at unmapped {addr}"));
        region
            .bytes_mut(addr, data.len() as u64)
            .copy_from_slice(data);
    }

    /// Unchecked read for boot/forensic tooling.
    ///
    /// # Panics
    ///
    /// Panics when the range is unmapped or crosses a region boundary.
    pub fn read_unchecked(&self, addr: Addr, len: u64) -> Vec<u8> {
        let region = self
            .region_at(addr)
            .unwrap_or_else(|| panic!("read_unchecked at unmapped {addr}"));
        region.bytes(addr, len).to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map() -> MemoryMap {
        let mut m = MemoryMap::new();
        m.add_region("flash", Addr(0x0800_0000), 0x1000, Perms::rx());
        m.add_region("sram", Addr(0x2000_0000), 0x1000, Perms::rw());
        m.add_region("ssm_private", Addr(0x5000_0000), 0x400, Perms::rw());
        m
    }

    #[test]
    fn read_write_round_trip() {
        let mut m = map();
        m.write(MasterId::CPU0, Addr(0x2000_0100), &[1, 2, 3])
            .unwrap();
        assert_eq!(
            m.read(MasterId::CPU0, Addr(0x2000_0100), 3).unwrap(),
            vec![1, 2, 3]
        );
    }

    #[test]
    fn unmapped_access_fails() {
        let m = map();
        assert!(matches!(
            m.read(MasterId::CPU0, Addr(0x9999_0000), 4),
            Err(MemError::Unmapped(_))
        ));
    }

    #[test]
    fn cross_boundary_access_fails() {
        let m = map();
        assert!(matches!(
            m.read(MasterId::CPU0, Addr(0x2000_0FFE), 4),
            Err(MemError::OutOfBounds(_))
        ));
    }

    #[test]
    fn base_perms_enforced() {
        let mut m = map();
        // flash is rx: writes must fail even with default grants
        assert!(matches!(
            m.write(MasterId::CPU0, Addr(0x0800_0000), &[0]),
            Err(MemError::Denied { .. })
        ));
    }

    #[test]
    fn revoke_isolates_master() {
        let mut m = map();
        let ssm_region = m.region_by_name("ssm_private").unwrap().id();
        for cpu in 0..4 {
            m.revoke(MasterId::cpu(cpu), ssm_region);
        }
        assert!(m.read(MasterId::CPU0, Addr(0x5000_0000), 4).is_err());
        assert!(m.read(MasterId::SSM, Addr(0x5000_0000), 4).is_ok());
    }

    #[test]
    fn revoke_all_locks_out_master() {
        let mut m = map();
        m.revoke_all(MasterId::DMA);
        assert!(m.read(MasterId::DMA, Addr(0x2000_0000), 4).is_err());
        assert!(m.read(MasterId::DMA, Addr(0x0800_0000), 4).is_err());
        // others unaffected
        assert!(m.read(MasterId::CPU1, Addr(0x2000_0000), 4).is_ok());
    }

    #[test]
    fn grant_cannot_exceed_base_perms() {
        let mut m = map();
        let flash = m.region_by_name("flash").unwrap().id();
        m.grant(MasterId::CPU0, flash, Perms::rwx());
        // write still denied because base is rx
        assert!(m.write(MasterId::CPU0, Addr(0x0800_0000), &[0]).is_err());
        assert!(m
            .check(MasterId::CPU0, BusOp::Exec, Addr(0x0800_0000), 4)
            .is_ok());
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn overlapping_regions_panic() {
        let mut m = map();
        m.add_region("bad", Addr(0x2000_0800), 0x1000, Perms::rw());
    }

    #[test]
    #[should_panic(expected = "non-zero length")]
    fn zero_length_region_panics() {
        let mut m = MemoryMap::new();
        m.add_region("empty", Addr(0), 0, Perms::rw());
    }

    #[test]
    fn unchecked_access_bypasses_mpu() {
        let mut m = map();
        let ssm_region = m.region_by_name("ssm_private").unwrap().id();
        m.revoke(MasterId::CPU0, ssm_region);
        // physical attacker writes anyway
        m.write_unchecked(Addr(0x5000_0000), &[0xAA]);
        assert_eq!(m.read_unchecked(Addr(0x5000_0000), 1), vec![0xAA]);
    }

    #[test]
    fn region_lookup() {
        let m = map();
        assert_eq!(m.region_at(Addr(0x2000_0010)).unwrap().name(), "sram");
        assert!(m.region_at(Addr(0x3000_0000)).is_none());
        assert!(m.region_by_name("nope").is_none());
        assert_eq!(m.regions().len(), 3);
    }

    #[test]
    fn unwritten_regions_read_as_zeros_until_their_first_write() {
        let mut m = map();
        // Larger than the shared zero block, so backed from the start.
        let big = 2 * ZERO_BLOCK as u64;
        m.add_region("big", Addr(0x6000_0000), big, Perms::rw());
        let mut eager: Vec<Vec<u8>> = m
            .regions()
            .iter()
            .map(|r| vec![0; r.range().len as usize])
            .collect();
        for (r, want) in m.regions().iter().zip(&eager) {
            assert_eq!(r.data(), &want[..], "{} before any write", r.name());
        }
        assert_eq!(
            m.read(MasterId::CPU0, Addr(0x2000_0FFC), 4).unwrap(),
            [0; 4]
        );
        assert_eq!(m.read_unchecked(Addr(0x6000_0000 + big - 4), 4), [0; 4]);

        m.write(MasterId::CPU0, Addr(0x2000_0FFE), &[1, 2]).unwrap();
        eager[1][0xFFE..].copy_from_slice(&[1, 2]);
        m.write_unchecked(Addr(0x5000_0010), &[3]);
        eager[2][0x10] = 3;
        m.write(MasterId::CPU0, Addr(0x6000_0000 + big - 1), &[4])
            .unwrap();
        eager[3][big as usize - 1] = 4;
        for (r, want) in m.regions().iter().zip(&eager) {
            assert_eq!(r.data(), &want[..], "{} after the writes", r.name());
        }
        assert_eq!(
            m.read(MasterId::CPU0, Addr(0x2000_0FFC), 4).unwrap(),
            [0, 0, 1, 2]
        );
    }

    #[test]
    fn zero_length_access_checks_mapping_only() {
        let m = map();
        assert!(m
            .check(MasterId::CPU0, BusOp::Read, Addr(0x2000_0000), 0)
            .is_ok());
    }
}
