//! Execution monitors: control-flow integrity and syscall sequences.
//!
//! These two monitors observe *software behaviour* rather than bus traffic,
//! so they cannot be fed purely by sampling the SoC — the platform reports
//! each task step into them ([`CfiMonitor::report_edge`],
//! [`SyscallMonitor::report_syscalls`]) and `sample` drains the accumulated
//! observations. The hardware analogue is an ARMHEx-style trace-port
//! checker (Table I's academic landscape).

use crate::detail::Detail;
use crate::event::{MonitorEvent, ResourceMonitor, Severity, Subject};
use cres_policy::DetectionCapability;
use cres_sim::SimTime;
use cres_soc::task::{BlockId, Syscall, TaskId};
use cres_soc::Soc;
use std::collections::HashSet;

/// Control-flow integrity over per-task basic-block edge sets.
///
/// Provisioned statically from each task's program (the "static" half of
/// Table I's "Static & Dynamic Flow Integrity"); the dynamic half is the
/// runtime edge check.
#[derive(Debug, Clone, Default)]
pub struct CfiMonitor {
    /// Each provisioned task's legal edges, sorted for binary search. A
    /// platform runs a handful of tasks, so the task lookup scans.
    edge_sets: Vec<(TaskId, Vec<(BlockId, BlockId)>)>,
    pending: Vec<MonitorEvent>,
    violations: u64,
    edges_checked: u64,
}

impl CfiMonitor {
    /// Creates an empty monitor; provision tasks with
    /// [`CfiMonitor::provision`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers the legal edge set for a task.
    pub fn provision(&mut self, task: TaskId, edges: HashSet<(BlockId, BlockId)>) {
        let mut edges: Vec<_> = edges.into_iter().collect();
        edges.sort_unstable();
        match self.edge_sets.iter_mut().find(|(t, _)| *t == task) {
            Some((_, set)) => *set = edges,
            None => self.edge_sets.push((task, edges)),
        }
    }

    /// True when a task has been provisioned.
    pub fn is_provisioned(&self, task: TaskId) -> bool {
        self.edge_sets.iter().any(|(t, _)| *t == task)
    }

    /// Reports one executed edge. An edge outside the provisioned set (or
    /// any edge from an unprovisioned task) raises a critical event.
    pub fn report_edge(&mut self, now: SimTime, task: TaskId, edge: (BlockId, BlockId)) {
        self.edges_checked += 1;
        let legal = self
            .edge_sets
            .iter()
            .find(|(t, _)| *t == task)
            .is_some_and(|(_, set)| set.binary_search(&edge).is_ok());
        if !legal {
            self.violations += 1;
            self.pending.push(MonitorEvent::new(
                now,
                DetectionCapability::ControlFlowIntegrity,
                Severity::Critical,
                Subject::Task(task),
                Detail::IllegalEdge {
                    from: edge.0,
                    to: edge.1,
                },
            ));
        }
    }

    /// Total violations observed.
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// Total edges checked.
    pub fn edges_checked(&self) -> u64 {
        self.edges_checked
    }
}

impl ResourceMonitor for CfiMonitor {
    fn name(&self) -> &'static str {
        "cfi"
    }

    fn capability(&self) -> DetectionCapability {
        DetectionCapability::ControlFlowIntegrity
    }

    fn sample_into(&mut self, _soc: &mut Soc, _now: SimTime, out: &mut Vec<MonitorEvent>) {
        // append drains `pending` while keeping its capacity for next time
        out.append(&mut self.pending);
    }

    fn sample_cost(&self) -> u64 {
        1
    }
}

// Every bigram is one bit of a `u128`, and every deny-listed kind one bit
// of a `u16`.
const _: () = assert!(
    Syscall::ALL.len() * Syscall::ALL.len() <= u128::BITS as usize
        && Syscall::ALL.len() <= u16::BITS as usize
);

/// The bit of a task's bigram set that stands for `prev` then `call`.
fn bigram_bit(prev: Syscall, call: Syscall) -> u128 {
    1 << (prev.index() * Syscall::ALL.len() + call.index())
}

/// What the syscall monitor knows about one task.
#[derive(Debug, Clone, Copy)]
struct TaskSyscalls {
    task: TaskId,
    /// The task's last syscall that was not deny-listed.
    last: Option<Syscall>,
    /// Learned bigrams, one [`bigram_bit`] each.
    bigrams: u128,
}

/// Syscall-sequence anomaly detection via learned bigrams.
///
/// In training mode the monitor learns the set of observed syscall bigrams
/// per task; after [`SyscallMonitor::finish_training`], any unseen bigram
/// or any syscall from the deny list raises an event.
#[derive(Debug, Clone, Default)]
pub struct SyscallMonitor {
    /// Per-task state, in first-report order; lookups scan.
    tasks: Vec<TaskSyscalls>,
    /// Deny-listed kinds, bit [`Syscall::index`] each.
    deny: u16,
    training: bool,
    pending: Vec<MonitorEvent>,
    anomalies: u64,
}

impl SyscallMonitor {
    /// Creates a monitor in training mode with a deny list that fires even
    /// during training (e.g. [`Syscall::PrivEscalate`] is never benign).
    pub fn new(deny: impl IntoIterator<Item = Syscall>) -> Self {
        SyscallMonitor {
            tasks: Vec::new(),
            deny: deny
                .into_iter()
                .fold(0, |mask, call| mask | (1 << call.index())),
            training: true,
            pending: Vec::new(),
            anomalies: 0,
        }
    }

    /// Ends the learning phase; subsequent unseen bigrams are anomalies.
    pub fn finish_training(&mut self) {
        self.training = false;
    }

    /// True while learning.
    pub fn is_training(&self) -> bool {
        self.training
    }

    /// Number of learned bigrams for a task.
    pub fn learned_bigrams(&self, task: TaskId) -> usize {
        self.tasks
            .iter()
            .find(|t| t.task == task)
            .map_or(0, |t| t.bigrams.count_ones() as usize)
    }

    /// Reports the syscalls a task issued in one step.
    pub fn report_syscalls(&mut self, now: SimTime, task: TaskId, calls: &[Syscall]) {
        if calls.is_empty() {
            return;
        }
        let state = match self.tasks.iter().position(|t| t.task == task) {
            Some(i) => &mut self.tasks[i],
            None => {
                self.tasks.push(TaskSyscalls {
                    task,
                    last: None,
                    bigrams: 0,
                });
                self.tasks.last_mut().expect("just pushed")
            }
        };
        for &call in calls {
            if self.deny & (1 << call.index()) != 0 {
                self.anomalies += 1;
                self.pending.push(MonitorEvent::new(
                    now,
                    DetectionCapability::SyscallSequence,
                    Severity::Critical,
                    Subject::Task(task),
                    Detail::DenyListedSyscall { call },
                ));
                continue;
            }
            if let Some(prev) = state.last {
                let bit = bigram_bit(prev, call);
                if self.training {
                    state.bigrams |= bit;
                } else {
                    let known = state.bigrams & bit != 0;
                    if !known {
                        self.anomalies += 1;
                        self.pending.push(MonitorEvent::new(
                            now,
                            DetectionCapability::SyscallSequence,
                            Severity::Alert,
                            Subject::Task(task),
                            Detail::UnseenSyscallSequence { prev, call },
                        ));
                    }
                }
            }
            state.last = Some(call);
        }
    }

    /// Total anomalies observed.
    pub fn anomalies(&self) -> u64 {
        self.anomalies
    }
}

impl ResourceMonitor for SyscallMonitor {
    fn name(&self) -> &'static str {
        "syscall"
    }

    fn capability(&self) -> DetectionCapability {
        DetectionCapability::SyscallSequence
    }

    fn sample_into(&mut self, _soc: &mut Soc, _now: SimTime, out: &mut Vec<MonitorEvent>) {
        out.append(&mut self.pending);
    }

    fn sample_cost(&self) -> u64 {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cres_soc::soc::SocBuilder;

    fn t(c: u64) -> SimTime {
        SimTime::at_cycle(c)
    }

    fn drain(m: &mut dyn ResourceMonitor) -> Vec<MonitorEvent> {
        let mut soc = SocBuilder::with_standard_layout(0).build();
        m.sample(&mut soc, SimTime::ZERO)
    }

    #[test]
    fn cfi_accepts_legal_edges() {
        let mut cfi = CfiMonitor::new();
        let edges: HashSet<_> = [(BlockId(0), BlockId(1)), (BlockId(1), BlockId(0))]
            .into_iter()
            .collect();
        cfi.provision(TaskId(1), edges);
        cfi.report_edge(t(1), TaskId(1), (BlockId(0), BlockId(1)));
        cfi.report_edge(t(2), TaskId(1), (BlockId(1), BlockId(0)));
        assert!(drain(&mut cfi).is_empty());
        assert_eq!(cfi.violations(), 0);
        assert_eq!(cfi.edges_checked(), 2);
    }

    #[test]
    fn cfi_flags_illegal_edge() {
        let mut cfi = CfiMonitor::new();
        cfi.provision(TaskId(1), [(BlockId(0), BlockId(1))].into_iter().collect());
        cfi.report_edge(t(5), TaskId(1), (BlockId(0), BlockId(7)));
        let events = drain(&mut cfi);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].severity, Severity::Critical);
        assert!(events[0].detail.contains("bb0 -> bb7"));
        assert_eq!(cfi.violations(), 1);
    }

    #[test]
    fn cfi_flags_unprovisioned_task() {
        let mut cfi = CfiMonitor::new();
        cfi.report_edge(t(1), TaskId(9), (BlockId(0), BlockId(1)));
        assert_eq!(drain(&mut cfi).len(), 1);
        assert!(!cfi.is_provisioned(TaskId(9)));
    }

    #[test]
    fn cfi_events_drain_once() {
        let mut cfi = CfiMonitor::new();
        cfi.report_edge(t(1), TaskId(9), (BlockId(0), BlockId(1)));
        assert_eq!(drain(&mut cfi).len(), 1);
        assert!(drain(&mut cfi).is_empty());
    }

    #[test]
    fn syscall_training_then_detection() {
        let mut sm = SyscallMonitor::new([Syscall::PrivEscalate]);
        // benign trace: SensorRead -> Actuate -> NetSend (looped)
        let benign = [Syscall::SensorRead, Syscall::Actuate, Syscall::NetSend];
        for _ in 0..10 {
            sm.report_syscalls(t(1), TaskId(1), &benign);
        }
        assert!(drain(&mut sm).is_empty());
        assert!(sm.learned_bigrams(TaskId(1)) >= 3);
        sm.finish_training();
        assert!(!sm.is_training());
        // same trace: silent
        sm.report_syscalls(t(2), TaskId(1), &benign);
        assert!(drain(&mut sm).is_empty());
        // novel sequence: firmware write after sensor read
        sm.report_syscalls(
            t(3),
            TaskId(1),
            &[Syscall::SensorRead, Syscall::FirmwareWrite],
        );
        let events = drain(&mut sm);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].severity, Severity::Alert);
        assert!(events[0].detail.contains("FirmwareWrite"));
    }

    #[test]
    fn deny_list_fires_even_during_training() {
        let mut sm = SyscallMonitor::new([Syscall::PrivEscalate]);
        assert!(sm.is_training());
        sm.report_syscalls(t(1), TaskId(2), &[Syscall::PrivEscalate]);
        let events = drain(&mut sm);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].severity, Severity::Critical);
        assert_eq!(sm.anomalies(), 1);
    }

    #[test]
    fn syscall_sequences_are_per_task() {
        let mut sm = SyscallMonitor::new([]);
        sm.report_syscalls(t(1), TaskId(1), &[Syscall::SensorRead, Syscall::Actuate]);
        sm.report_syscalls(t(1), TaskId(2), &[Syscall::NetRecv, Syscall::NetSend]);
        sm.finish_training();
        // task 2 doing task 1's sequence is anomalous
        sm.report_syscalls(t(2), TaskId(2), &[Syscall::SensorRead, Syscall::Actuate]);
        let events = drain(&mut sm);
        assert!(!events.is_empty());
        assert!(events.iter().all(|e| e.subject == Subject::Task(TaskId(2))));
    }
}
