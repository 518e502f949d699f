//! Physical addressing, bus masters and permission flags.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A physical address on the SoC interconnect.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Addr(pub u64);

impl Addr {
    /// Offsets the address by `delta` bytes.
    ///
    /// # Panics
    ///
    /// Panics on overflow.
    pub fn offset(self, delta: u64) -> Addr {
        Addr(self.0.checked_add(delta).expect("address overflow"))
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#010x}", self.0)
    }
}

impl fmt::LowerHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

/// A half-open physical address range `[start, start + len)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AddrRange {
    /// First address in the range.
    pub start: Addr,
    /// Length in bytes.
    pub len: u64,
}

impl AddrRange {
    /// Creates a range; `len` may be zero (an empty range contains nothing).
    pub fn new(start: Addr, len: u64) -> Self {
        start.0.checked_add(len).expect("address range overflow");
        AddrRange { start, len }
    }

    /// One-past-the-end address.
    pub fn end(&self) -> Addr {
        Addr(self.start.0 + self.len)
    }

    /// True when `a` lies inside the range.
    pub fn contains(&self, a: Addr) -> bool {
        a >= self.start && a.0 < self.start.0 + self.len
    }

    /// True when the two ranges share at least one address.
    pub fn overlaps(&self, other: &AddrRange) -> bool {
        self.start.0 < other.end().0 && other.start.0 < self.end().0
    }

    /// True when `other` lies entirely inside `self`.
    pub fn covers(&self, other: &AddrRange) -> bool {
        other.start >= self.start && other.end().0 <= self.end().0
    }
}

impl fmt::Display for AddrRange {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {})", self.start, self.end())
    }
}

/// A bus master: anything that can originate transactions.
///
/// The set is fixed at the architectural level (matching the paper's SoC
/// sketch): four application cores, the isolated security manager core, a
/// DMA engine, the NIC's bus-mastering port and an external debug port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum MasterId {
    /// Application core 0 (runs the rich OS / primary workload).
    CPU0,
    /// Application core 1.
    CPU1,
    /// Application core 2.
    CPU2,
    /// Application core 3.
    CPU3,
    /// The independent security manager's private core (the paper's SSM).
    SSM,
    /// The DMA engine.
    DMA,
    /// The network interface's bus-master port.
    NIC,
    /// External debug access port (JTAG/SWD-class).
    DEBUG,
}

impl MasterId {
    /// All masters, in a stable order.
    pub const ALL: [MasterId; 8] = [
        MasterId::CPU0,
        MasterId::CPU1,
        MasterId::CPU2,
        MasterId::CPU3,
        MasterId::SSM,
        MasterId::DMA,
        MasterId::NIC,
        MasterId::DEBUG,
    ];

    /// Returns the application core with the given index (0..=3).
    ///
    /// # Panics
    ///
    /// Panics for indices above 3.
    pub fn cpu(idx: usize) -> MasterId {
        match idx {
            0 => MasterId::CPU0,
            1 => MasterId::CPU1,
            2 => MasterId::CPU2,
            3 => MasterId::CPU3,
            _ => panic!("no such application core: {idx}"),
        }
    }

    /// Dense index of the master: its position in [`MasterId::ALL`].
    pub const fn index(self) -> usize {
        self as usize
    }

    /// True for the application cores (not SSM/DMA/NIC/DEBUG).
    pub fn is_app_core(self) -> bool {
        matches!(
            self,
            MasterId::CPU0 | MasterId::CPU1 | MasterId::CPU2 | MasterId::CPU3
        )
    }
}

impl fmt::Display for MasterId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Identifier of a memory region in the memory map.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct RegionId(pub u32);

impl fmt::Display for RegionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "region#{}", self.0)
    }
}

/// The kind of bus operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BusOp {
    /// Data read.
    Read,
    /// Data write.
    Write,
    /// Instruction fetch.
    Exec,
}

impl fmt::Display for BusOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BusOp::Read => write!(f, "R"),
            BusOp::Write => write!(f, "W"),
            BusOp::Exec => write!(f, "X"),
        }
    }
}

/// Read/write/execute permission flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct Perms {
    /// Reads allowed.
    pub read: bool,
    /// Writes allowed.
    pub write: bool,
    /// Instruction fetches allowed.
    pub exec: bool,
}

impl Perms {
    /// No access.
    pub const NONE: Perms = Perms {
        read: false,
        write: false,
        exec: false,
    };

    /// Read-only.
    pub fn ro() -> Perms {
        Perms {
            read: true,
            write: false,
            exec: false,
        }
    }

    /// Read-write.
    pub fn rw() -> Perms {
        Perms {
            read: true,
            write: true,
            exec: false,
        }
    }

    /// Read-execute (typical flash/code region).
    pub fn rx() -> Perms {
        Perms {
            read: true,
            write: false,
            exec: true,
        }
    }

    /// Read-write-execute.
    pub fn rwx() -> Perms {
        Perms {
            read: true,
            write: true,
            exec: true,
        }
    }

    /// True when `op` is permitted.
    pub fn allows(self, op: BusOp) -> bool {
        match op {
            BusOp::Read => self.read,
            BusOp::Write => self.write,
            BusOp::Exec => self.exec,
        }
    }

    /// Intersection of two permission sets.
    pub fn intersect(self, other: Perms) -> Perms {
        Perms {
            read: self.read && other.read,
            write: self.write && other.write,
            exec: self.exec && other.exec,
        }
    }
}

impl fmt::Display for Perms {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}{}",
            if self.read { 'r' } else { '-' },
            if self.write { 'w' } else { '-' },
            if self.exec { 'x' } else { '-' }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_display_and_offset() {
        assert_eq!(Addr(0x1000).to_string(), "0x00001000");
        assert_eq!(Addr(0x1000).offset(0x10), Addr(0x1010));
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn addr_offset_overflow_panics() {
        Addr(u64::MAX).offset(1);
    }

    #[test]
    fn range_contains_and_end() {
        let r = AddrRange::new(Addr(100), 10);
        assert!(r.contains(Addr(100)));
        assert!(r.contains(Addr(109)));
        assert!(!r.contains(Addr(110)));
        assert!(!r.contains(Addr(99)));
        assert_eq!(r.end(), Addr(110));
    }

    #[test]
    fn empty_range_contains_nothing() {
        let r = AddrRange::new(Addr(5), 0);
        assert!(!r.contains(Addr(5)));
    }

    #[test]
    fn range_overlap() {
        let a = AddrRange::new(Addr(0), 10);
        let b = AddrRange::new(Addr(9), 5);
        let c = AddrRange::new(Addr(10), 5);
        assert!(a.overlaps(&b));
        assert!(!a.overlaps(&c));
        assert!(b.overlaps(&c));
    }

    #[test]
    fn range_covers() {
        let outer = AddrRange::new(Addr(0), 100);
        let inner = AddrRange::new(Addr(10), 20);
        assert!(outer.covers(&inner));
        assert!(!inner.covers(&outer));
        assert!(outer.covers(&outer));
    }

    #[test]
    fn master_classification() {
        assert!(MasterId::CPU0.is_app_core());
        assert!(!MasterId::SSM.is_app_core());
        assert!(!MasterId::DMA.is_app_core());
        assert_eq!(MasterId::cpu(2), MasterId::CPU2);
        assert_eq!(MasterId::ALL.len(), 8);
        for (i, m) in MasterId::ALL.into_iter().enumerate() {
            assert_eq!(m.index(), i);
        }
    }

    #[test]
    #[should_panic(expected = "no such application core")]
    fn bad_cpu_index_panics() {
        MasterId::cpu(4);
    }

    #[test]
    fn perms_allow() {
        assert!(Perms::ro().allows(BusOp::Read));
        assert!(!Perms::ro().allows(BusOp::Write));
        assert!(Perms::rx().allows(BusOp::Exec));
        assert!(!Perms::rw().allows(BusOp::Exec));
        assert!(Perms::rwx().allows(BusOp::Write));
        assert!(!Perms::NONE.allows(BusOp::Read));
    }

    #[test]
    fn perms_intersect() {
        let p = Perms::rwx().intersect(Perms::ro());
        assert!(p.read && !p.write && !p.exec);
    }

    #[test]
    fn perms_display() {
        assert_eq!(Perms::rw().to_string(), "rw-");
        assert_eq!(Perms::NONE.to_string(), "---");
        assert_eq!(Perms::rx().to_string(), "r-x");
    }
}
