//! Processing elements: application cores and their run states.
//!
//! Cores are bookkeeping objects — task execution lives in
//! [`crate::task`] — but their run state matters to the response manager:
//! halting a core is a coarse countermeasure, and the *reset* state models
//! the passive baseline's reboot behaviour (the core is dark for the reset
//! latency, which is exactly the availability cost E4 measures).

use crate::addr::MasterId;
use crate::task::TaskId;
use cres_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Run state of a core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CoreState {
    /// Executing tasks.
    Running,
    /// Halted by a countermeasure; tasks make no progress.
    Halted,
    /// In reset until the contained time; tasks make no progress.
    InReset {
        /// When the reset sequence completes.
        until: SimTime,
    },
}

/// One application core.
#[derive(Debug, Clone)]
pub struct Core {
    master: MasterId,
    state: CoreState,
    tasks: Vec<TaskId>,
    resets: u32,
}

impl Core {
    /// Creates a running core for the given bus master.
    ///
    /// # Panics
    ///
    /// Panics if `master` is not an application core.
    pub fn new(master: MasterId) -> Self {
        assert!(master.is_app_core(), "{master} is not an application core");
        Core {
            master,
            state: CoreState::Running,
            tasks: Vec::new(),
            resets: 0,
        }
    }

    /// The bus master identity of this core.
    pub fn master(&self) -> MasterId {
        self.master
    }

    /// Current run state, resolving an elapsed reset back to running.
    pub fn state_at(&self, now: SimTime) -> CoreState {
        match self.state {
            CoreState::InReset { until } if now >= until => CoreState::Running,
            s => s,
        }
    }

    /// True when the core can execute at `now`.
    pub fn is_running(&self, now: SimTime) -> bool {
        self.state_at(now) == CoreState::Running
    }

    /// Assigns a task to this core.
    pub fn assign(&mut self, task: TaskId) {
        if !self.tasks.contains(&task) {
            self.tasks.push(task);
        }
    }

    /// Tasks assigned to this core.
    pub fn tasks(&self) -> &[TaskId] {
        &self.tasks
    }

    /// Halts the core.
    pub fn halt(&mut self) {
        self.state = CoreState::Halted;
    }

    /// Resumes a halted core. A core in reset stays in reset.
    pub fn resume(&mut self, now: SimTime) {
        if self.state_at(now) == CoreState::Halted || self.state == CoreState::Halted {
            self.state = CoreState::Running;
        }
    }

    /// Puts the core into reset for `duration` starting at `now`.
    pub fn reset(&mut self, now: SimTime, duration: SimDuration) {
        self.state = CoreState::InReset {
            until: now + duration,
        };
        self.resets += 1;
    }

    /// Number of resets this core has undergone.
    pub fn reset_count(&self) -> u32 {
        self.resets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_core_runs() {
        let c = Core::new(MasterId::CPU0);
        assert!(c.is_running(SimTime::ZERO));
        assert_eq!(c.master(), MasterId::CPU0);
    }

    #[test]
    #[should_panic(expected = "not an application core")]
    fn non_app_core_panics() {
        Core::new(MasterId::DMA);
    }

    #[test]
    fn halt_and_resume() {
        let mut c = Core::new(MasterId::CPU1);
        c.halt();
        assert!(!c.is_running(SimTime::ZERO));
        c.resume(SimTime::ZERO);
        assert!(c.is_running(SimTime::ZERO));
    }

    #[test]
    fn reset_expires_with_time() {
        let mut c = Core::new(MasterId::CPU0);
        c.reset(SimTime::at_cycle(100), SimDuration::cycles(50));
        assert!(!c.is_running(SimTime::at_cycle(120)));
        assert!(c.is_running(SimTime::at_cycle(150)));
        assert_eq!(c.reset_count(), 1);
    }

    #[test]
    fn resume_does_not_cancel_reset() {
        let mut c = Core::new(MasterId::CPU0);
        c.reset(SimTime::ZERO, SimDuration::cycles(100));
        c.resume(SimTime::at_cycle(10));
        assert!(!c.is_running(SimTime::at_cycle(10)));
        assert!(c.is_running(SimTime::at_cycle(100)));
    }

    #[test]
    fn task_assignment() {
        let mut c = Core::new(MasterId::CPU2);
        c.assign(TaskId(1));
        c.assign(TaskId(2));
        c.assign(TaskId(1)); // duplicate ignored
        assert_eq!(c.tasks(), &[TaskId(1), TaskId(2)]);
    }
}
