//! The DMA engine: a programmable bus master.
//!
//! DMA is the classic confused-deputy on an SoC: software programs a
//! descriptor and the engine moves memory with *its own* bus identity. The
//! DMA attack in `cres-attacks` programs a copy out of a protected region;
//! whether it succeeds depends entirely on the permission matrix rows for
//! [`MasterId::DMA`] — and gating the engine is the response manager's fix.

use crate::addr::{Addr, MasterId};
use crate::bus::{Bus, BusError};
use crate::mem::MemoryMap;
use cres_sim::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// One DMA transfer descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DmaDescriptor {
    /// Source address.
    pub src: Addr,
    /// Destination address.
    pub dst: Addr,
    /// Bytes to copy.
    pub len: u64,
}

/// Result of executing one descriptor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DmaOutcome {
    /// The copy completed.
    Done,
    /// The read side faulted.
    ReadFault(BusError),
    /// The write side faulted (source was readable).
    WriteFault(BusError),
}

/// The DMA engine.
#[derive(Debug, Clone, Default)]
pub struct DmaEngine {
    queue: VecDeque<DmaDescriptor>,
    completed: u64,
    faulted: u64,
}

impl DmaEngine {
    /// Creates an idle engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queues a descriptor.
    pub fn program(&mut self, desc: DmaDescriptor) {
        self.queue.push_back(desc);
    }

    /// Number of queued descriptors.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Executes the next descriptor through the bus as [`MasterId::DMA`].
    /// Returns `None` when idle.
    pub fn step(&mut self, now: SimTime, bus: &mut Bus, mem: &mut MemoryMap) -> Option<DmaOutcome> {
        let desc = self.queue.pop_front()?;
        // the copy is written back into the same map, so it cannot borrow it
        let data = match bus.read(now, MasterId::DMA, desc.src, desc.len, mem) {
            Ok(d) => d.to_vec(),
            Err(e) => {
                self.faulted += 1;
                return Some(DmaOutcome::ReadFault(e));
            }
        };
        match bus.write(now, MasterId::DMA, desc.dst, &data, mem) {
            Ok(()) => {
                self.completed += 1;
                Some(DmaOutcome::Done)
            }
            Err(e) => {
                self.faulted += 1;
                Some(DmaOutcome::WriteFault(e))
            }
        }
    }

    /// Completed transfer count.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Faulted transfer count.
    pub fn faulted(&self) -> u64 {
        self.faulted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Perms;

    fn env() -> (Bus, MemoryMap) {
        let mut mem = MemoryMap::new();
        mem.add_region("a", Addr(0x1000), 0x100, Perms::rw());
        mem.add_region("secret", Addr(0x2000), 0x100, Perms::rw());
        (Bus::new(64), mem)
    }

    #[test]
    fn copy_moves_bytes() {
        let (mut bus, mut mem) = env();
        mem.write_unchecked(Addr(0x1000), &[1, 2, 3, 4]);
        let mut dma = DmaEngine::new();
        dma.program(DmaDescriptor {
            src: Addr(0x1000),
            dst: Addr(0x1080),
            len: 4,
        });
        assert_eq!(
            dma.step(SimTime::ZERO, &mut bus, &mut mem),
            Some(DmaOutcome::Done)
        );
        assert_eq!(mem.read_unchecked(Addr(0x1080), 4), vec![1, 2, 3, 4]);
        assert_eq!(dma.completed(), 1);
    }

    #[test]
    fn idle_engine_returns_none() {
        let (mut bus, mut mem) = env();
        let mut dma = DmaEngine::new();
        assert_eq!(dma.step(SimTime::ZERO, &mut bus, &mut mem), None);
    }

    #[test]
    fn protected_source_faults() {
        let (mut bus, mut mem) = env();
        let secret = mem.region_by_name("secret").unwrap().id();
        mem.revoke(MasterId::DMA, secret);
        let mut dma = DmaEngine::new();
        dma.program(DmaDescriptor {
            src: Addr(0x2000),
            dst: Addr(0x1000),
            len: 8,
        });
        let out = dma.step(SimTime::ZERO, &mut bus, &mut mem).unwrap();
        assert!(matches!(
            out,
            DmaOutcome::ReadFault(BusError::PermissionDenied)
        ));
        assert_eq!(dma.faulted(), 1);
    }

    #[test]
    fn gated_engine_faults() {
        let (mut bus, mut mem) = env();
        bus.gate(MasterId::DMA);
        let mut dma = DmaEngine::new();
        dma.program(DmaDescriptor {
            src: Addr(0x1000),
            dst: Addr(0x1010),
            len: 4,
        });
        let out = dma.step(SimTime::ZERO, &mut bus, &mut mem).unwrap();
        assert!(matches!(
            out,
            DmaOutcome::ReadFault(BusError::MasterGated(_))
        ));
    }

    #[test]
    fn write_fault_reported_separately() {
        let (mut bus, mut mem) = env();
        let secret = mem.region_by_name("secret").unwrap().id();
        mem.grant(MasterId::DMA, secret, Perms::ro());
        let mut dma = DmaEngine::new();
        dma.program(DmaDescriptor {
            src: Addr(0x1000),
            dst: Addr(0x2000),
            len: 4,
        });
        let out = dma.step(SimTime::ZERO, &mut bus, &mut mem).unwrap();
        assert!(matches!(
            out,
            DmaOutcome::WriteFault(BusError::PermissionDenied)
        ));
    }

    #[test]
    fn descriptors_run_fifo() {
        let (mut bus, mut mem) = env();
        let mut dma = DmaEngine::new();
        mem.write_unchecked(Addr(0x1000), &[7]);
        dma.program(DmaDescriptor {
            src: Addr(0x1000),
            dst: Addr(0x1001),
            len: 1,
        });
        dma.program(DmaDescriptor {
            src: Addr(0x1001),
            dst: Addr(0x1002),
            len: 1,
        });
        assert_eq!(dma.pending(), 2);
        dma.step(SimTime::ZERO, &mut bus, &mut mem);
        dma.step(SimTime::ZERO, &mut bus, &mut mem);
        assert_eq!(mem.read_unchecked(Addr(0x1002), 1), vec![7]);
        assert_eq!(dma.pending(), 0);
    }
}
