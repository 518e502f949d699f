//! The SoC interconnect: checked transactions, a monitor tap and gating.
//!
//! Every transaction — granted or denied — leaves a [`TxnRecord`] in the
//! bus's bounded tap ring. Resource monitors sample the ring through a
//! [`TxnCursor`], which models a hardware bus probe: the monitor sees
//! transaction metadata, never payloads, and a slow monitor loses old
//! records (counted, so overload is observable rather than silent).
//!
//! Gating a master models the response manager's strongest countermeasure:
//! physically disconnecting a compromised bus master from the interconnect.

use crate::addr::{Addr, BusOp, MasterId, RegionId};
use crate::mem::{MemError, MemoryMap};
use cres_sim::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::fmt;

/// Why a bus transaction failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BusError {
    /// The master has been gated off the interconnect.
    MasterGated(MasterId),
    /// The MPU denied the access.
    PermissionDenied,
    /// No memory is mapped at the target address.
    Unmapped,
    /// The access crossed a region boundary.
    OutOfBounds,
}

impl fmt::Display for BusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BusError::MasterGated(m) => write!(f, "master {m} is gated"),
            BusError::PermissionDenied => write!(f, "permission denied"),
            BusError::Unmapped => write!(f, "unmapped address"),
            BusError::OutOfBounds => write!(f, "out of bounds"),
        }
    }
}

impl std::error::Error for BusError {}

impl From<MemError> for BusError {
    fn from(e: MemError) -> Self {
        match e {
            MemError::Unmapped(_) => BusError::Unmapped,
            MemError::OutOfBounds(_) => BusError::OutOfBounds,
            MemError::Denied { .. } => BusError::PermissionDenied,
        }
    }
}

/// Outcome recorded in the tap ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TxnOutcome {
    /// The transaction completed.
    Granted,
    /// The transaction was rejected.
    Denied(BusError),
}

/// Metadata of one bus transaction, as seen by a hardware probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TxnRecord {
    /// Monotone sequence number (never reused, survives ring eviction).
    pub seq: u64,
    /// When the transaction occurred.
    pub at: SimTime,
    /// Originating master.
    pub master: MasterId,
    /// Operation kind.
    pub op: BusOp,
    /// Target address.
    pub addr: Addr,
    /// Transfer length in bytes.
    pub len: u64,
    /// Region hit, when the address was mapped.
    pub region: Option<RegionId>,
    /// Granted or denied.
    pub outcome: TxnOutcome,
}

/// A monitor's read position in the tap ring.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TxnCursor {
    next_seq: u64,
}

/// Aggregate per-master counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MasterStats {
    /// Granted transactions.
    pub granted: u64,
    /// Denied transactions.
    pub denied: u64,
    /// Total bytes transferred in granted transactions.
    pub bytes: u64,
}

/// The bus interconnect.
#[derive(Debug, Clone)]
pub struct Bus {
    ring: VecDeque<TxnRecord>,
    ring_capacity: usize,
    next_seq: u64,
    evicted: u64,
    /// Gate flags, indexed by [`MasterId::index`].
    gated: [bool; MasterId::ALL.len()],
    /// Per-master counters, indexed by [`MasterId::index`].
    stats: [MasterStats; MasterId::ALL.len()],
    /// Fixed per-transaction latency plus per-8-bytes beat cost, in cycles.
    base_latency: u64,
}

impl Default for Bus {
    fn default() -> Self {
        Self::new(4096)
    }
}

impl Bus {
    /// Creates a bus whose tap ring holds `ring_capacity` records.
    ///
    /// # Panics
    ///
    /// Panics if `ring_capacity` is zero.
    pub fn new(ring_capacity: usize) -> Self {
        assert!(ring_capacity > 0, "tap ring capacity must be non-zero");
        Self::with_ring(VecDeque::with_capacity(ring_capacity), ring_capacity)
    }

    /// [`Bus::new`], reusing this bus's tap-ring storage when it holds
    /// `ring_capacity` records.
    ///
    /// # Panics
    ///
    /// Panics if `ring_capacity` is zero.
    pub(crate) fn renew(mut self, ring_capacity: usize) -> Self {
        if ring_capacity != self.ring_capacity {
            return Self::new(ring_capacity);
        }
        self.ring.clear();
        Self::with_ring(self.ring, ring_capacity)
    }

    /// A fresh bus around an empty `ring` with room for `ring_capacity`.
    fn with_ring(ring: VecDeque<TxnRecord>, ring_capacity: usize) -> Self {
        Bus {
            ring,
            ring_capacity,
            next_seq: 0,
            evicted: 0,
            gated: [false; MasterId::ALL.len()],
            stats: [MasterStats::default(); MasterId::ALL.len()],
            base_latency: 4,
        }
    }

    /// Gates `master` off the interconnect (all its transactions fail).
    pub fn gate(&mut self, master: MasterId) {
        self.gated[master.index()] = true;
    }

    /// Restores a gated master.
    pub fn ungate(&mut self, master: MasterId) {
        self.gated[master.index()] = false;
    }

    /// True when `master` is gated.
    pub fn is_gated(&self, master: MasterId) -> bool {
        self.gated[master.index()]
    }

    /// All currently gated masters, in [`MasterId::ALL`] order.
    pub fn gated_masters(&self) -> impl Iterator<Item = MasterId> + '_ {
        MasterId::ALL.into_iter().filter(|m| self.is_gated(*m))
    }

    /// Performs a checked read through the interconnect, borrowing the
    /// bytes from the memory map.
    ///
    /// # Errors
    ///
    /// Returns [`BusError`] when gated or when the MPU rejects the access.
    pub fn read<'m>(
        &mut self,
        at: SimTime,
        master: MasterId,
        addr: Addr,
        len: u64,
        mem: &'m MemoryMap,
    ) -> Result<&'m [u8], BusError> {
        let region = self.admit(at, master, BusOp::Read, addr, len, mem)?;
        Ok(mem.bytes(region, addr, len))
    }

    /// Performs a checked write through the interconnect.
    ///
    /// # Errors
    ///
    /// Returns [`BusError`] when gated or when the MPU rejects the access.
    pub fn write(
        &mut self,
        at: SimTime,
        master: MasterId,
        addr: Addr,
        data: &[u8],
        mem: &mut MemoryMap,
    ) -> Result<(), BusError> {
        let len = data.len() as u64;
        let region = self.admit(at, master, BusOp::Write, addr, len, mem)?;
        mem.bytes_mut(region, addr, len).copy_from_slice(data);
        Ok(())
    }

    /// Performs a checked write of `len` copies of `byte`: [`Bus::write`]
    /// without a source buffer.
    ///
    /// # Errors
    ///
    /// Returns [`BusError`] when gated or when the MPU rejects the access.
    pub fn fill(
        &mut self,
        at: SimTime,
        master: MasterId,
        addr: Addr,
        len: u64,
        byte: u8,
        mem: &mut MemoryMap,
    ) -> Result<(), BusError> {
        let region = self.admit(at, master, BusOp::Write, addr, len, mem)?;
        mem.bytes_mut(region, addr, len).fill(byte);
        Ok(())
    }

    /// Performs an instruction-fetch check (no data is returned; the task
    /// model only needs the permission/telemetry side).
    ///
    /// # Errors
    ///
    /// Returns [`BusError`] when gated or when the MPU rejects the fetch.
    pub fn fetch(
        &mut self,
        at: SimTime,
        master: MasterId,
        addr: Addr,
        len: u64,
        mem: &MemoryMap,
    ) -> Result<(), BusError> {
        self.admit(at, master, BusOp::Exec, addr, len, mem)
            .map(|_| ())
    }

    /// Common admission path: gate check, MPU check, record, account.
    /// Finds the target region once, for the record and the MPU alike, and
    /// returns it when the access is granted.
    fn admit(
        &mut self,
        at: SimTime,
        master: MasterId,
        op: BusOp,
        addr: Addr,
        len: u64,
        mem: &MemoryMap,
    ) -> Result<RegionId, BusError> {
        let hit = mem.region_at(addr);
        let result = if self.is_gated(master) {
            Err(BusError::MasterGated(master))
        } else {
            mem.permit(hit, master, op, addr, len)
                .map_err(BusError::from)
        };
        let outcome = match &result {
            Ok(_) => TxnOutcome::Granted,
            Err(e) => TxnOutcome::Denied(*e),
        };
        self.record(TxnRecord {
            seq: 0, // assigned in record()
            at,
            master,
            op,
            addr,
            len,
            region: hit.map(|r| r.id()),
            outcome,
        });
        let stats = &mut self.stats[master.index()];
        match &result {
            Ok(_) => {
                stats.granted += 1;
                stats.bytes += len;
            }
            Err(_) => stats.denied += 1,
        }
        result
    }

    fn record(&mut self, mut rec: TxnRecord) {
        rec.seq = self.next_seq;
        self.next_seq += 1;
        if self.ring.len() == self.ring_capacity {
            self.ring.pop_front();
            self.evicted += 1;
        }
        self.ring.push_back(rec);
    }

    /// Transaction latency in cycles for a transfer of `len` bytes.
    pub fn latency_for(&self, len: u64) -> u64 {
        self.base_latency + len.div_ceil(8)
    }

    /// Returns all records the cursor has not yet seen and advances it.
    /// Records evicted before the cursor reached them are lost; the second
    /// tuple element counts such losses.
    pub fn poll(&self, cursor: &mut TxnCursor) -> (Vec<TxnRecord>, u64) {
        let (iter, lost) = self.poll_iter(cursor);
        (iter.copied().collect(), lost)
    }

    /// Allocation-free [`Bus::poll`]: yields borrowed records straight out
    /// of the tap ring. Sequence numbers are contiguous in the ring, so the
    /// unseen suffix is a single `O(1)` range rather than a filtered scan.
    pub fn poll_iter(
        &self,
        cursor: &mut TxnCursor,
    ) -> (impl Iterator<Item = &TxnRecord> + '_, u64) {
        let oldest = self.ring.front().map_or(self.next_seq, |r| r.seq);
        let lost = oldest.saturating_sub(cursor.next_seq);
        let from = cursor.next_seq.max(oldest);
        let start = (self.ring.len() as u64).min(from - oldest) as usize;
        cursor.next_seq = self.next_seq;
        (self.ring.range(start..), lost)
    }

    /// Aggregate counters for a master.
    pub fn stats(&self, master: MasterId) -> MasterStats {
        self.stats[master.index()]
    }

    /// Total transactions admitted (granted + denied) since construction.
    pub fn total_transactions(&self) -> u64 {
        self.next_seq
    }

    /// Records evicted from the ring before any cursor saw them.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Perms;

    fn setup() -> (Bus, MemoryMap) {
        let mut mem = MemoryMap::new();
        mem.add_region("sram", Addr(0x1000), 0x1000, Perms::rw());
        mem.add_region("rom", Addr(0x8000), 0x1000, Perms::rx());
        (Bus::new(16), mem)
    }

    fn t0() -> SimTime {
        SimTime::ZERO
    }

    #[test]
    fn write_then_read_round_trips() {
        let (mut bus, mut mem) = setup();
        bus.write(t0(), MasterId::CPU0, Addr(0x1010), &[9, 8, 7], &mut mem)
            .unwrap();
        let data = bus
            .read(t0(), MasterId::CPU0, Addr(0x1010), 3, &mem)
            .unwrap();
        assert_eq!(data, vec![9, 8, 7]);
    }

    #[test]
    fn denied_write_is_recorded_but_not_applied() {
        let (mut bus, mut mem) = setup();
        let r = bus.write(t0(), MasterId::CPU0, Addr(0x8000), &[1], &mut mem);
        assert_eq!(r, Err(BusError::PermissionDenied));
        let mut cur = TxnCursor::default();
        let (recs, _) = bus.poll(&mut cur);
        assert_eq!(recs.len(), 1);
        assert!(matches!(
            recs[0].outcome,
            TxnOutcome::Denied(BusError::PermissionDenied)
        ));
        assert_eq!(mem.read_unchecked(Addr(0x8000), 1), vec![0]);
    }

    #[test]
    fn gated_master_fails_everything() {
        let (mut bus, mut mem) = setup();
        bus.gate(MasterId::DMA);
        assert!(bus.is_gated(MasterId::DMA));
        let r = bus.read(t0(), MasterId::DMA, Addr(0x1000), 4, &mem);
        assert_eq!(r, Err(BusError::MasterGated(MasterId::DMA)));
        // other masters unaffected
        assert!(bus
            .write(t0(), MasterId::CPU0, Addr(0x1000), &[1], &mut mem)
            .is_ok());
        bus.ungate(MasterId::DMA);
        assert!(bus.read(t0(), MasterId::DMA, Addr(0x1000), 4, &mem).is_ok());
    }

    #[test]
    fn cursor_sees_each_record_once() {
        let (mut bus, mem) = setup();
        let mut cur = TxnCursor::default();
        for i in 0..5u64 {
            let _ = bus.read(SimTime::at_cycle(i), MasterId::CPU0, Addr(0x1000), 4, &mem);
        }
        let (first, lost) = bus.poll(&mut cur);
        assert_eq!(first.len(), 5);
        assert_eq!(lost, 0);
        let (second, _) = bus.poll(&mut cur);
        assert!(second.is_empty());
        let _ = bus.read(t0(), MasterId::CPU1, Addr(0x1000), 4, &mem);
        let (third, _) = bus.poll(&mut cur);
        assert_eq!(third.len(), 1);
        assert_eq!(third[0].master, MasterId::CPU1);
    }

    #[test]
    fn slow_cursor_loses_evicted_records() {
        let (mut bus, mem) = setup(); // capacity 16
        let mut cur = TxnCursor::default();
        for _ in 0..20 {
            let _ = bus.read(t0(), MasterId::CPU0, Addr(0x1000), 4, &mem);
        }
        let (recs, lost) = bus.poll(&mut cur);
        assert_eq!(recs.len(), 16);
        assert_eq!(lost, 4);
        assert_eq!(bus.evicted(), 4);
    }

    #[test]
    fn stats_accumulate() {
        let (mut bus, mut mem) = setup();
        bus.write(t0(), MasterId::CPU0, Addr(0x1000), &[0; 8], &mut mem)
            .unwrap();
        let _ = bus.write(t0(), MasterId::CPU0, Addr(0x8000), &[0; 4], &mut mem); // denied
        let s = bus.stats(MasterId::CPU0);
        assert_eq!(s.granted, 1);
        assert_eq!(s.denied, 1);
        assert_eq!(s.bytes, 8);
        assert_eq!(bus.stats(MasterId::CPU3), MasterStats::default());
        assert_eq!(bus.total_transactions(), 2);
    }

    #[test]
    fn fetch_respects_exec_permission() {
        let (mut bus, mem) = setup();
        assert!(bus
            .fetch(t0(), MasterId::CPU0, Addr(0x8000), 16, &mem)
            .is_ok());
        assert_eq!(
            bus.fetch(t0(), MasterId::CPU0, Addr(0x1000), 16, &mem),
            Err(BusError::PermissionDenied)
        );
    }

    #[test]
    fn latency_scales_with_length() {
        let bus = Bus::new(4);
        assert_eq!(bus.latency_for(0), 4);
        assert_eq!(bus.latency_for(8), 5);
        assert_eq!(bus.latency_for(64), 12);
    }

    #[test]
    fn unmapped_is_distinct_error() {
        let (mut bus, mem) = setup();
        assert_eq!(
            bus.read(t0(), MasterId::CPU0, Addr(0xdead_0000), 4, &mem),
            Err(BusError::Unmapped)
        );
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_ring_panics() {
        Bus::new(0);
    }
}
