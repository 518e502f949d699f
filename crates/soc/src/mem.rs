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

/// A contiguous region of backed physical memory.
#[derive(Debug, Clone)]
pub struct MemoryRegion {
    id: RegionId,
    name: String,
    range: AddrRange,
    data: Vec<u8>,
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
        &self.data
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
            data: vec![0; len as usize],
            base_perms: perms,
        });
        self.grants.push([perms; MasterId::ALL.len()]);
        id
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
        let region = self.region_at(addr).ok_or(MemError::Unmapped(addr))?;
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
        let region = self.region(id);
        let off = (addr.0 - region.range.start.0) as usize;
        Ok(&region.data[off..off + len as usize])
    }

    /// Performs a checked write.
    ///
    /// # Errors
    ///
    /// Propagates [`MemError`] from the permission check.
    pub fn write(&mut self, master: MasterId, addr: Addr, data: &[u8]) -> Result<(), MemError> {
        self.checked_mut(master, addr, data.len() as u64)?
            .copy_from_slice(data);
        Ok(())
    }

    /// Performs a checked write of `len` copies of `byte`.
    ///
    /// # Errors
    ///
    /// Propagates [`MemError`] from the permission check.
    pub fn fill(
        &mut self,
        master: MasterId,
        addr: Addr,
        len: u64,
        byte: u8,
    ) -> Result<(), MemError> {
        self.checked_mut(master, addr, len)?.fill(byte);
        Ok(())
    }

    /// The bytes `[addr, addr+len)` once `master` may write them.
    fn checked_mut(
        &mut self,
        master: MasterId,
        addr: Addr,
        len: u64,
    ) -> Result<&mut [u8], MemError> {
        let id = self.check(master, BusOp::Write, addr, len)?;
        let region = &mut self.regions[id.0 as usize];
        let off = (addr.0 - region.range.start.0) as usize;
        Ok(&mut region.data[off..off + len as usize])
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
        let off = (addr.0 - region.range.start.0) as usize;
        region.data[off..off + data.len()].copy_from_slice(data);
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
        let off = (addr.0 - region.range.start.0) as usize;
        region.data[off..off + len as usize].to_vec()
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
    fn zero_length_access_checks_mapping_only() {
        let m = map();
        assert!(m
            .check(MasterId::CPU0, BusOp::Read, Addr(0x2000_0000), 0)
            .is_ok());
    }
}
