//! The workload model: tasks as basic-block graphs.
//!
//! A [`Task`] executes a [`Program`] — a graph of [`Block`]s, each of which
//! fetches from a code address, performs data reads/writes and optionally
//! issues abstract syscalls. Stepping a task emits exactly the telemetry the
//! paper's resource monitors consume: instruction-fetch and data
//! transactions on the bus, a control-flow edge for the CFI monitor and a
//! syscall trace for the sequence monitor.
//!
//! Attack injectors compromise tasks by forcing a control-flow transition
//! outside the program's edge set ([`Task::hijack`]) — the abstract
//! equivalent of a code-injection or ROP redirect.

use crate::addr::{Addr, MasterId};
use crate::bus::Bus;
use crate::mem::MemoryMap;
use cres_sim::{DetRng, SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::fmt;

/// Identifier of a basic block within its program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct BlockId(pub u32);

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// Identifier of a task on the platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TaskId(pub u32);

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "task#{}", self.0)
    }
}

/// Abstract system calls a block may issue (coarse classes, enough for
/// n-gram sequence monitoring).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Syscall {
    /// Read a sensor value.
    SensorRead,
    /// Drive an actuator.
    Actuate,
    /// Send a network packet.
    NetSend,
    /// Receive a network packet.
    NetRecv,
    /// Use a keystore/crypto service.
    CryptoOp,
    /// Write to persistent storage.
    StorageWrite,
    /// Read from persistent storage.
    StorageRead,
    /// Request privilege elevation (rare in benign traces).
    PrivEscalate,
    /// Modify firmware / request update.
    FirmwareWrite,
}

impl Syscall {
    /// All syscall kinds, in declaration order.
    pub const ALL: [Syscall; 9] = [
        Syscall::SensorRead,
        Syscall::Actuate,
        Syscall::NetSend,
        Syscall::NetRecv,
        Syscall::CryptoOp,
        Syscall::StorageWrite,
        Syscall::StorageRead,
        Syscall::PrivEscalate,
        Syscall::FirmwareWrite,
    ];

    /// Dense index of the kind: its position in [`Syscall::ALL`].
    pub const fn index(self) -> usize {
        self as usize
    }
}

/// One basic block of a program.
#[derive(Debug, Clone)]
pub struct Block {
    /// Block identifier (index into the program).
    pub id: BlockId,
    /// Code address the block fetches from.
    pub fetch_addr: Addr,
    /// Compute time consumed by the block.
    pub duration: SimDuration,
    /// Data reads `(addr, len)` performed by the block.
    pub reads: Vec<(Addr, u64)>,
    /// Data writes `(addr, len)` performed by the block.
    pub writes: Vec<(Addr, u64)>,
    /// Syscalls the block issues.
    pub syscalls: Vec<Syscall>,
    /// Legal successor blocks; empty means the program loops to entry.
    pub successors: Vec<BlockId>,
}

/// A control-flow graph of blocks with a designated entry.
#[derive(Debug, Clone)]
pub struct Program {
    blocks: Vec<Block>,
    entry: BlockId,
}

impl Program {
    /// Starts building a program.
    pub fn builder() -> ProgramBuilder {
        ProgramBuilder { blocks: Vec::new() }
    }

    /// The entry block.
    pub fn entry(&self) -> BlockId {
        self.entry
    }

    /// Looks up a block.
    ///
    /// # Panics
    ///
    /// Panics for ids not in this program.
    pub fn block(&self, id: BlockId) -> &Block {
        &self.blocks[id.0 as usize]
    }

    /// All blocks.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// The complete legal edge set `(from, to)`, including loop-back edges
    /// from terminal blocks to the entry. This is what the CFI monitor is
    /// provisioned with.
    pub fn edge_set(&self) -> HashSet<(BlockId, BlockId)> {
        let mut edges = HashSet::new();
        for b in &self.blocks {
            if b.successors.is_empty() {
                edges.insert((b.id, self.entry));
            } else {
                for s in &b.successors {
                    edges.insert((b.id, *s));
                }
            }
        }
        edges
    }
}

/// Incremental builder for [`Program`].
#[derive(Debug)]
pub struct ProgramBuilder {
    blocks: Vec<Block>,
}

impl ProgramBuilder {
    /// Adds a block and returns its id. Successors may reference blocks not
    /// yet added; [`ProgramBuilder::build`] validates them.
    #[allow(clippy::too_many_arguments)]
    pub fn block(
        &mut self,
        fetch_addr: Addr,
        duration: SimDuration,
        reads: Vec<(Addr, u64)>,
        writes: Vec<(Addr, u64)>,
        syscalls: Vec<Syscall>,
        successors: Vec<BlockId>,
    ) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(Block {
            id,
            fetch_addr,
            duration,
            reads,
            writes,
            syscalls,
            successors,
        });
        id
    }

    /// Finishes the program with block 0 as entry.
    ///
    /// # Panics
    ///
    /// Panics when the program is empty or a successor id dangles.
    pub fn build(self) -> Program {
        assert!(!self.blocks.is_empty(), "program needs at least one block");
        let n = self.blocks.len() as u32;
        for b in &self.blocks {
            for s in &b.successors {
                assert!(s.0 < n, "block {} has dangling successor {}", b.id, s);
            }
        }
        Program {
            blocks: self.blocks,
            entry: BlockId(0),
        }
    }
}

/// How important a task is to the platform's mission — drives graceful
/// degradation decisions (critical services are kept alive at the cost of
/// shedding best-effort load).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Criticality {
    /// May be shed freely under degradation.
    BestEffort,
    /// Shed only under severe degradation.
    Important,
    /// Must keep running while the platform is alive.
    Critical,
}

/// Run state of a task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TaskState {
    /// Executing normally.
    Running,
    /// Suspended by the scheduler or a countermeasure.
    Suspended,
    /// Terminated by a countermeasure; restartable.
    Killed,
}

/// A running task: a program plus its execution cursor.
#[derive(Debug, Clone)]
pub struct Task {
    id: TaskId,
    name: String,
    program: Program,
    criticality: Criticality,
    state: TaskState,
    current: BlockId,
    steps: u64,
    hijack: Option<BlockId>,
}

/// Telemetry produced by one task step, borrowing from the stepped task.
#[derive(Debug, Clone)]
pub struct StepOutcome<'a> {
    /// The control-flow edge taken `(from, to)`.
    pub edge: (BlockId, BlockId),
    /// Syscalls issued by the block entered.
    pub syscalls: &'a [Syscall],
    /// Bus accesses of the block that were denied (the tap ring records
    /// each one with its reason).
    pub denied: u32,
    /// Compute + bus time until the task should step again.
    pub next_delay: SimDuration,
}

impl Task {
    /// Creates a task positioned at its program's entry.
    pub fn new(id: TaskId, name: &str, program: Program, criticality: Criticality) -> Self {
        let entry = program.entry();
        Task {
            id,
            name: name.to_string(),
            program,
            criticality,
            state: TaskState::Running,
            current: entry,
            steps: 0,
            hijack: None,
        }
    }

    /// Task identifier.
    pub fn id(&self) -> TaskId {
        self.id
    }

    /// Task name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The program this task runs.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Mission criticality.
    pub fn criticality(&self) -> Criticality {
        self.criticality
    }

    /// Current run state.
    pub fn state(&self) -> TaskState {
        self.state
    }

    /// Current block.
    pub fn current_block(&self) -> BlockId {
        self.current
    }

    /// Number of steps executed.
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Suspends the task (scheduler or countermeasure).
    pub fn suspend(&mut self) {
        if self.state == TaskState::Running {
            self.state = TaskState::Suspended;
        }
    }

    /// Resumes a suspended task.
    pub fn resume(&mut self) {
        if self.state == TaskState::Suspended {
            self.state = TaskState::Running;
        }
    }

    /// Kills the task (countermeasure). A killed task stays dead until
    /// [`Task::restart`].
    pub fn kill(&mut self) {
        self.state = TaskState::Killed;
    }

    /// Restarts a killed or suspended task from its entry block, clearing
    /// any pending hijack.
    pub fn restart(&mut self) {
        self.state = TaskState::Running;
        self.current = self.program.entry();
        self.hijack = None;
    }

    /// Forces the next transition to `target`, regardless of the edge set —
    /// the attack injector's control-flow-hijack lever.
    pub fn hijack(&mut self, target: BlockId) {
        self.hijack = Some(target);
    }

    /// Executes one step: transitions to the next block (hijacked or chosen
    /// uniformly among legal successors) and performs that block's fetch,
    /// reads, writes and syscalls through the bus. Returns `None` when the
    /// task is not running. Allocation-free: the block is borrowed, reads
    /// are not copied and writes fill a constant pattern.
    pub fn step(
        &mut self,
        now: SimTime,
        master: MasterId,
        bus: &mut Bus,
        mem: &mut MemoryMap,
        rng: &mut DetRng,
    ) -> Option<StepOutcome<'_>> {
        if self.state != TaskState::Running {
            return None;
        }
        let from = self.current;
        let to = if let Some(target) = self.hijack.take() {
            target
        } else {
            let succ = &self.program.block(from).successors;
            if succ.is_empty() {
                self.program.entry()
            } else {
                *rng.choose(succ)
            }
        };
        self.current = to;
        self.steps += 1;

        let block = self.program.block(to);
        let mut denied = 0u32;
        let mut bus_cycles = 0u64;

        denied += u32::from(bus.fetch(now, master, block.fetch_addr, 16, mem).is_err());
        bus_cycles += bus.latency_for(16);
        for &(addr, len) in &block.reads {
            denied += u32::from(bus.read(now, master, addr, len, mem).is_err());
            bus_cycles += bus.latency_for(len);
        }
        for &(addr, len) in &block.writes {
            denied += u32::from(bus.fill(now, master, addr, len, 0xA5, mem).is_err());
            bus_cycles += bus.latency_for(len);
        }

        Some(StepOutcome {
            edge: (from, to),
            syscalls: &block.syscalls,
            denied,
            next_delay: block.duration + SimDuration::cycles(bus_cycles),
        })
    }
}

/// Convenience constructor for benign "control loop" programs used across
/// tests, examples and experiments: `read sensor → compute → write actuator
/// → send telemetry`, with all traffic confined to the given regions.
pub fn control_loop_program(code_base: Addr, data_base: Addr, periph_base: Addr) -> Program {
    let mut b = Program::builder();
    let step = SimDuration::cycles(50);
    // bb0: read sensor
    b.block(
        code_base,
        step,
        vec![(periph_base, 8)],
        vec![(data_base, 8)],
        vec![Syscall::SensorRead],
        vec![BlockId(1)],
    );
    // bb1: compute
    b.block(
        code_base.offset(0x40),
        step * 2,
        vec![(data_base, 8)],
        vec![(data_base.offset(8), 8)],
        vec![],
        vec![BlockId(2), BlockId(3)],
    );
    // bb2: actuate
    b.block(
        code_base.offset(0x80),
        step,
        vec![(data_base.offset(8), 8)],
        vec![(periph_base.offset(8), 8)],
        vec![Syscall::Actuate],
        vec![BlockId(3)],
    );
    // bb3: telemetry send, loop back
    b.block(
        code_base.offset(0xC0),
        step,
        vec![(data_base.offset(8), 8)],
        vec![],
        vec![Syscall::NetSend],
        vec![],
    );
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Perms;

    fn env() -> (Bus, MemoryMap, DetRng) {
        let mut mem = MemoryMap::new();
        mem.add_region("code", Addr(0x0800_0000), 0x1000, Perms::rx());
        mem.add_region("data", Addr(0x2000_0000), 0x1000, Perms::rw());
        mem.add_region("periph", Addr(0x4000_0000), 0x1000, Perms::rw());
        (Bus::new(1024), mem, DetRng::seed_from(1))
    }

    fn make_task() -> Task {
        let p = control_loop_program(Addr(0x0800_0000), Addr(0x2000_0000), Addr(0x4000_0000));
        Task::new(TaskId(0), "loop", p, Criticality::Critical)
    }

    #[test]
    fn program_builder_validates_successors() {
        let mut b = Program::builder();
        b.block(
            Addr(0),
            SimDuration::cycles(1),
            vec![],
            vec![],
            vec![],
            vec![BlockId(5)],
        );
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| b.build()));
        assert!(result.is_err());
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn empty_program_panics() {
        Program::builder().build();
    }

    #[test]
    fn edge_set_includes_loopback() {
        let p = control_loop_program(Addr(0x0800_0000), Addr(0x2000_0000), Addr(0x4000_0000));
        let edges = p.edge_set();
        assert!(edges.contains(&(BlockId(0), BlockId(1))));
        assert!(edges.contains(&(BlockId(1), BlockId(2))));
        assert!(edges.contains(&(BlockId(1), BlockId(3))));
        assert!(edges.contains(&(BlockId(3), BlockId(0))), "loopback edge");
        assert!(!edges.contains(&(BlockId(0), BlockId(3))));
    }

    #[test]
    fn stepping_takes_only_legal_edges() {
        let (mut bus, mut mem, mut rng) = env();
        let mut task = make_task();
        let edges = task.program().edge_set();
        for _ in 0..200 {
            let out = task
                .step(SimTime::ZERO, MasterId::CPU0, &mut bus, &mut mem, &mut rng)
                .unwrap();
            assert!(edges.contains(&out.edge), "illegal edge {:?}", out.edge);
            assert_eq!(out.denied, 0, "benign task was denied");
            assert!(!out.next_delay.is_zero());
        }
        assert_eq!(task.steps(), 200);
    }

    #[test]
    fn hijack_forces_illegal_edge_once() {
        let (mut bus, mut mem, mut rng) = env();
        let mut task = make_task();
        let edges = task.program().edge_set();
        // from bb0 the only legal successor is bb1; hijack to bb3
        task.hijack(BlockId(3));
        let out = task
            .step(SimTime::ZERO, MasterId::CPU0, &mut bus, &mut mem, &mut rng)
            .unwrap();
        assert_eq!(out.edge, (BlockId(0), BlockId(3)));
        assert!(!edges.contains(&out.edge));
        // subsequent steps are legal again
        let out2 = task
            .step(SimTime::ZERO, MasterId::CPU0, &mut bus, &mut mem, &mut rng)
            .unwrap();
        assert!(edges.contains(&out2.edge));
    }

    #[test]
    fn lifecycle_states() {
        let (mut bus, mut mem, mut rng) = env();
        let mut task = make_task();
        task.suspend();
        assert_eq!(task.state(), TaskState::Suspended);
        assert!(task
            .step(SimTime::ZERO, MasterId::CPU0, &mut bus, &mut mem, &mut rng)
            .is_none());
        task.resume();
        assert_eq!(task.state(), TaskState::Running);
        task.kill();
        assert_eq!(task.state(), TaskState::Killed);
        // resume does not revive a killed task
        task.resume();
        assert_eq!(task.state(), TaskState::Killed);
        task.restart();
        assert_eq!(task.state(), TaskState::Running);
        assert_eq!(task.current_block(), task.program().entry());
    }

    #[test]
    fn restart_clears_hijack() {
        let (mut bus, mut mem, mut rng) = env();
        let mut task = make_task();
        let edges = task.program().edge_set();
        task.hijack(BlockId(3));
        task.restart();
        let out = task
            .step(SimTime::ZERO, MasterId::CPU0, &mut bus, &mut mem, &mut rng)
            .unwrap();
        assert!(edges.contains(&out.edge));
    }

    #[test]
    fn denied_accesses_are_reported() {
        let (mut bus, mut mem, mut rng) = env();
        // lock CPU0 out of the peripheral region
        let periph = mem.region_by_name("periph").unwrap().id();
        mem.revoke(MasterId::CPU0, periph);
        let mut task = make_task();
        let mut saw_denial = false;
        for _ in 0..20 {
            let out = task
                .step(SimTime::ZERO, MasterId::CPU0, &mut bus, &mut mem, &mut rng)
                .unwrap();
            if out.denied > 0 {
                saw_denial = true;
            }
        }
        assert!(saw_denial, "peripheral accesses should have been denied");
    }

    #[test]
    fn syscalls_follow_blocks() {
        let (mut bus, mut mem, mut rng) = env();
        let mut task = make_task();
        let mut seen = HashSet::new();
        for _ in 0..100 {
            let out = task
                .step(SimTime::ZERO, MasterId::CPU0, &mut bus, &mut mem, &mut rng)
                .unwrap();
            seen.extend(out.syscalls.iter().copied());
        }
        assert!(seen.contains(&Syscall::SensorRead));
        assert!(seen.contains(&Syscall::NetSend));
        assert!(!seen.contains(&Syscall::PrivEscalate));
    }

    #[test]
    fn syscall_index_is_position_in_all() {
        for (i, call) in Syscall::ALL.into_iter().enumerate() {
            assert_eq!(call.index(), i);
        }
    }

    #[test]
    fn criticality_order() {
        assert!(Criticality::Critical > Criticality::Important);
        assert!(Criticality::Important > Criticality::BestEffort);
    }
}
