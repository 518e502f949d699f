//! Differential property tests for the execution monitors: the syscall
//! bigram monitor against a reference built on `HashMap`/`HashSet` bigram
//! sets, and the CFI monitor against per-task `HashSet` edge sets. Both
//! references are the naive form of what the monitors index densely.

use cres_monitor::detail::Detail;
use cres_monitor::event::{MonitorEvent, ResourceMonitor, Severity, Subject};
use cres_monitor::exec_mon::{CfiMonitor, SyscallMonitor};
use cres_policy::DetectionCapability;
use cres_sim::SimTime;
use cres_soc::soc::{Soc, SocBuilder};
use cres_soc::task::{BlockId, Syscall, TaskId};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

/// Task ids the streams draw from: sparse on purpose, so nothing may
/// assume ids are small or contiguous.
const TASKS: [TaskId; 5] = [
    TaskId(1),
    TaskId(2),
    TaskId(3),
    TaskId(77),
    TaskId(u32::MAX),
];

/// Basic blocks per CFI task; edges are drawn from the full square.
const BLOCKS: u32 = 6;

/// The naive syscall monitor: per-task bigram sets and last calls in hash
/// maps, a hash-set deny list.
struct RefSyscalls {
    deny: HashSet<Syscall>,
    bigrams: HashMap<TaskId, HashSet<(Syscall, Syscall)>>,
    last: HashMap<TaskId, Syscall>,
    training: bool,
    events: Vec<MonitorEvent>,
    anomalies: u64,
}

impl RefSyscalls {
    fn new(deny: &[Syscall]) -> Self {
        RefSyscalls {
            deny: deny.iter().copied().collect(),
            bigrams: HashMap::new(),
            last: HashMap::new(),
            training: true,
            events: Vec::new(),
            anomalies: 0,
        }
    }

    fn report(&mut self, now: SimTime, task: TaskId, calls: &[Syscall]) {
        for &call in calls {
            if self.deny.contains(&call) {
                self.anomalies += 1;
                self.events.push(MonitorEvent::new(
                    now,
                    DetectionCapability::SyscallSequence,
                    Severity::Critical,
                    Subject::Task(task),
                    Detail::DenyListedSyscall { call },
                ));
                continue;
            }
            if let Some(&prev) = self.last.get(&task) {
                if self.training {
                    self.bigrams.entry(task).or_default().insert((prev, call));
                } else if !self
                    .bigrams
                    .get(&task)
                    .is_some_and(|set| set.contains(&(prev, call)))
                {
                    self.anomalies += 1;
                    self.events.push(MonitorEvent::new(
                        now,
                        DetectionCapability::SyscallSequence,
                        Severity::Alert,
                        Subject::Task(task),
                        Detail::UnseenSyscallSequence { prev, call },
                    ));
                }
            }
            self.last.insert(task, call);
        }
    }

    fn learned(&self, task: TaskId) -> usize {
        self.bigrams.get(&task).map_or(0, HashSet::len)
    }
}

/// Decodes up to three syscalls from `raw`, half the time from a
/// four-kind alphabet so detection also meets bigrams training has seen.
fn calls(raw: u64) -> Vec<Syscall> {
    let alphabet = if raw & 1 == 0 {
        4
    } else {
        Syscall::ALL.len() as u64
    };
    (0..(raw >> 1) % 4)
        .map(|k| Syscall::ALL[((raw >> (8 + 8 * k)) % alphabet) as usize])
        .collect()
}

/// The edge set encoded by the low `BLOCKS²` bits of `mask`.
fn edge_set(mask: u64) -> HashSet<(BlockId, BlockId)> {
    (0..BLOCKS * BLOCKS)
        .filter(|bit| mask & (1 << bit) != 0)
        .map(|bit| (BlockId(bit / BLOCKS), BlockId(bit % BLOCKS)))
        .collect()
}

fn drain(monitor: &mut dyn ResourceMonitor, soc: &mut Soc, now: SimTime) -> Vec<MonitorEvent> {
    let mut out = Vec::new();
    monitor.sample_into(soc, now, &mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn syscall_monitor_matches_the_hash_set_reference(
        deny_masks in (0u16..512, 0u16..512),
        train_len in 0usize..120,
        stream in proptest::collection::vec((0usize..TASKS.len(), any::<u64>()), 1..240)
    ) {
        let deny: Vec<Syscall> = Syscall::ALL
            .into_iter()
            .filter(|call| deny_masks.0 & deny_masks.1 & (1 << call.index()) != 0)
            .collect();
        let mut monitor = SyscallMonitor::new(deny.iter().copied());
        let mut reference = RefSyscalls::new(&deny);
        let mut soc = SocBuilder::new().build();

        for (step, &(task, raw)) in stream.iter().enumerate() {
            if step == train_len {
                monitor.finish_training();
                reference.training = false;
            }
            prop_assert_eq!(monitor.is_training(), reference.training);
            let now = SimTime::at_cycle(step as u64);
            let task = TASKS[task];
            let calls = calls(raw);
            monitor.report_syscalls(now, task, &calls);
            reference.report(now, task, &calls);

            let events = drain(&mut monitor, &mut soc, now);
            prop_assert_eq!(&events, &reference.events, "step {} {:?} {:?}", step, task, calls);
            reference.events.clear();
            prop_assert_eq!(monitor.anomalies(), reference.anomalies);
            for t in TASKS {
                prop_assert_eq!(monitor.learned_bigrams(t), reference.learned(t), "{}", t);
            }
        }
    }

    #[test]
    fn cfi_monitor_matches_the_hash_set_reference(
        ops in proptest::collection::vec((0u8..5, any::<u64>(), any::<u64>()), 1..200)
    ) {
        let mut monitor = CfiMonitor::new();
        let mut reference: HashMap<TaskId, HashSet<(BlockId, BlockId)>> = HashMap::new();
        let mut violations = 0u64;
        let mut soc = SocBuilder::new().build();

        for (i, &(kind, a, b)) in ops.iter().enumerate() {
            let now = SimTime::at_cycle(i as u64);
            let task = TASKS[(a % TASKS.len() as u64) as usize];
            let mut expected = Vec::new();
            if kind == 0 {
                // sparse: about a quarter of the possible edges
                let edges = edge_set(b & b.rotate_right(32));
                monitor.provision(task, edges.clone());
                reference.insert(task, edges);
            } else {
                let edge = (BlockId((b % 8) as u32), BlockId(((b >> 8) % 8) as u32));
                monitor.report_edge(now, task, edge);
                if !reference.get(&task).is_some_and(|set| set.contains(&edge)) {
                    violations += 1;
                    expected.push(MonitorEvent::new(
                        now,
                        DetectionCapability::ControlFlowIntegrity,
                        Severity::Critical,
                        Subject::Task(task),
                        Detail::IllegalEdge { from: edge.0, to: edge.1 },
                    ));
                }
            }
            prop_assert_eq!(drain(&mut monitor, &mut soc, now), expected, "op {}", i);
            prop_assert_eq!(monitor.violations(), violations);
            for t in TASKS {
                prop_assert_eq!(monitor.is_provisioned(t), reference.contains_key(&t));
            }
        }
        let checked = ops.iter().filter(|op| op.0 != 0).count() as u64;
        prop_assert_eq!(monitor.edges_checked(), checked);
    }
}
