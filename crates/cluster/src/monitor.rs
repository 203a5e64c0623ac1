//! The worker monitor (§3, §5), reduced to what placement reads:
//! per-machine health. Consecutive machine faults and straggler strikes
//! blacklist a machine for a bounded time, so replanned groups steer
//! away from it. Job progress, utilization samples and fault reports
//! are the engine's to keep and to forward to telemetry.

use muri_telemetry::{BlacklistReason, Event, TelemetrySink};
use muri_workload::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Thresholds of the monitor's health tracking.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HealthPolicy {
    /// Consecutive machine-level faults before a machine is blacklisted.
    pub fault_threshold: u32,
    /// Realized/planned iteration-rate ratio at or above which a machine
    /// observation counts as a straggler strike.
    pub straggler_slowdown: f64,
    /// Consecutive straggler strikes before a machine is blacklisted.
    pub straggler_threshold: u32,
    /// How long a blacklist lasts before the machine is retried.
    pub blacklist_duration: SimDuration,
}

impl Default for HealthPolicy {
    fn default() -> Self {
        HealthPolicy {
            fault_threshold: 3,
            straggler_slowdown: 1.25,
            straggler_threshold: 3,
            blacklist_duration: SimDuration::from_secs(30 * 60),
        }
    }
}

/// Per-machine health counters.
#[derive(Debug, Clone, Copy, Default)]
struct MachineState {
    consecutive_faults: u32,
    straggler_strikes: u32,
    blacklisted_until: Option<SimTime>,
}

/// The worker monitor.
#[derive(Debug, Clone)]
pub struct WorkerMonitor {
    machines: BTreeMap<u32, MachineState>,
    policy: HealthPolicy,
    sink: TelemetrySink,
}

impl Default for WorkerMonitor {
    fn default() -> Self {
        WorkerMonitor::with_policy(HealthPolicy::default())
    }
}

impl WorkerMonitor {
    /// A fresh monitor with the default health policy.
    pub fn new() -> Self {
        WorkerMonitor::default()
    }

    /// A monitor with an explicit health policy.
    pub fn with_policy(policy: HealthPolicy) -> Self {
        WorkerMonitor {
            machines: BTreeMap::new(),
            policy,
            sink: TelemetrySink::disabled(),
        }
    }

    /// Attach (or replace) the sink that receives `MachineBlacklisted`
    /// events, keeping all state.
    pub fn set_sink(&mut self, sink: TelemetrySink) {
        self.sink = sink;
    }

    /// The health policy in force.
    pub fn policy(&self) -> &HealthPolicy {
        &self.policy
    }

    /// Count one machine-level failure against `machine`'s health.
    /// Called once per machine fault (not once per victim job); crossing
    /// [`HealthPolicy::fault_threshold`] blacklists the machine.
    pub fn record_machine_fault(&mut self, machine: u32, time: SimTime) {
        let st = self.machines.entry(machine).or_default();
        st.consecutive_faults += 1;
        if st.consecutive_faults >= self.policy.fault_threshold && !Self::is_banned_at(st, time) {
            self.blacklist(machine, time, BlacklistReason::ConsecutiveFaults);
        }
    }

    /// Feed one realized/planned slowdown observation for `machine`.
    /// A ratio at or above [`HealthPolicy::straggler_slowdown`] is a
    /// strike; consecutive strikes crossing the threshold blacklist the
    /// machine, and any on-pace observation clears the strikes.
    pub fn observe_machine_rate(&mut self, machine: u32, time: SimTime, ratio: f64) {
        let st = self.machines.entry(machine).or_default();
        if ratio >= self.policy.straggler_slowdown {
            st.straggler_strikes += 1;
            if st.straggler_strikes >= self.policy.straggler_threshold
                && !Self::is_banned_at(st, time)
            {
                self.blacklist(machine, time, BlacklistReason::Straggler);
            }
        } else {
            st.straggler_strikes = 0;
        }
    }

    /// A group hosted on `machine` made healthy progress: clear its
    /// consecutive-fault counter.
    pub fn record_machine_ok(&mut self, machine: u32) {
        if let Some(st) = self.machines.get_mut(&machine) {
            st.consecutive_faults = 0;
        }
    }

    fn is_banned_at(st: &MachineState, now: SimTime) -> bool {
        st.blacklisted_until.is_some_and(|until| now < until)
    }

    fn blacklist(&mut self, machine: u32, time: SimTime, reason: BlacklistReason) {
        if let Some(st) = self.machines.get_mut(&machine) {
            st.blacklisted_until = Some(time + self.policy.blacklist_duration);
            // Probation: the machine re-earns trust from zero when the
            // blacklist expires.
            st.consecutive_faults = 0;
            st.straggler_strikes = 0;
        }
        self.sink.emit(|| Event::MachineBlacklisted {
            time,
            machine,
            reason,
        });
    }

    /// Machines blacklisted as of `now`, ascending.
    pub fn blacklisted_machines(&self, now: SimTime) -> Vec<u32> {
        self.machines
            .iter()
            .filter(|(_, st)| Self::is_banned_at(st, now))
            .map(|(&m, _)| m)
            .collect()
    }

    /// Machines blacklisted as of `now` with their expiry instants,
    /// ascending by machine. The expiry identifies the *ban episode*: a
    /// re-blacklist after probation carries a later expiry, which is how
    /// the recovery auditor tells "banned the whole window" apart from
    /// "expired, hosted a legal placement, and was banned again".
    pub fn blacklisted_with_expiry(&self, now: SimTime) -> Vec<(u32, SimTime)> {
        self.machines
            .iter()
            .filter(|(_, st)| Self::is_banned_at(st, now))
            .filter_map(|(&m, st)| st.blacklisted_until.map(|until| (m, until)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consecutive_machine_faults_blacklist_then_expire() {
        let mut m = WorkerMonitor::new(); // fault_threshold 3, 30 min ban
        let t = SimTime::from_secs(100);
        m.record_machine_fault(2, t);
        m.record_machine_fault(2, t);
        assert!(m.blacklisted_machines(t).is_empty());
        m.record_machine_fault(2, t);
        assert_eq!(m.blacklisted_machines(t), vec![2]);
        assert_eq!(
            m.blacklisted_with_expiry(t),
            vec![(2, t + m.policy().blacklist_duration)]
        );
        // The ban is time-bound: after the duration the machine is
        // retried, and the counters were reset on blacklist.
        let later = t + m.policy().blacklist_duration;
        assert!(m.blacklisted_machines(later).is_empty());
        m.record_machine_fault(2, later);
        m.record_machine_fault(2, later);
        assert!(m.blacklisted_machines(later).is_empty());
    }

    #[test]
    fn healthy_progress_resets_the_fault_streak() {
        let mut m = WorkerMonitor::new();
        let t = SimTime::from_secs(5);
        m.record_machine_fault(1, t);
        m.record_machine_fault(1, t);
        m.record_machine_ok(1);
        m.record_machine_fault(1, t);
        // 2 faults + reset + 1 fault: never 3 consecutive.
        assert!(m.blacklisted_machines(t).is_empty());
        m.record_machine_fault(1, t);
        m.record_machine_fault(1, t);
        assert_eq!(m.blacklisted_machines(t), vec![1]);
    }

    #[test]
    fn straggler_strikes_blacklist_and_on_pace_observations_clear() {
        let mut m = WorkerMonitor::new(); // slowdown 1.25, threshold 3
        let t = SimTime::from_secs(50);
        m.observe_machine_rate(4, t, 1.5);
        m.observe_machine_rate(4, t, 1.5);
        m.observe_machine_rate(4, t, 1.0); // on pace: strikes clear
        m.observe_machine_rate(4, t, 1.5);
        m.observe_machine_rate(4, t, 1.5);
        assert!(m.blacklisted_machines(t).is_empty());
        m.observe_machine_rate(4, t, 1.5);
        assert_eq!(m.blacklisted_machines(t), vec![4]);
    }

    #[test]
    fn blacklist_events_reach_the_sink() {
        use muri_telemetry::Telemetry;
        let sink = TelemetrySink::enabled(Telemetry::new());
        let mut m = WorkerMonitor::new();
        m.set_sink(sink.clone());
        let t = SimTime::from_secs(9);
        for _ in 0..3 {
            m.record_machine_fault(7, t);
        }
        drop(m);
        let telem = sink.into_inner().expect("last handle");
        assert_eq!(telem.journal.counts().machine_blacklists, 1);
        match &telem.journal.events()[0] {
            Event::MachineBlacklisted {
                machine, reason, ..
            } => {
                assert_eq!(*machine, 7);
                assert_eq!(*reason, BlacklistReason::ConsecutiveFaults);
            }
            other => panic!("unexpected event {other:?}"),
        }
    }
}
