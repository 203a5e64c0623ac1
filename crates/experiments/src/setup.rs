//! Shared experiment setup: the paper's traces, cluster, and per-policy
//! simulation configurations.

use muri_cluster::ClusterSpec;
use muri_core::{PolicyKind, SchedulerConfig};
use muri_sim::{simulate, SimConfig, SimReport};
use muri_workload::{philly_like_trace, Trace};

/// Global scale knob: 1.0 reproduces the paper's trace sizes (992–5755
/// jobs, 400-job testbed window); smaller values shrink job counts for
/// quick runs. Everything stays deterministic at any scale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale(pub f64);

impl Default for Scale {
    fn default() -> Self {
        Scale(1.0)
    }
}

impl Scale {
    /// Scale a paper job count.
    pub fn count(&self, full: usize) -> usize {
        ((full as f64 * self.0).round() as usize).max(8)
    }
}

/// The paper's testbed workload: the busiest 400-job window of the most
/// loaded trace (§6.1: "we select the busiest interval that contains 400
/// jobs").
pub fn testbed_trace(scale: Scale) -> Trace {
    philly_like_trace(4, 1.0).busiest_window(scale.count(400))
}

/// Simulation trace `index` (1–4), §6.3.
pub fn simulation_trace(index: usize, scale: Scale) -> Trace {
    philly_like_trace(index, scale.0)
}

/// The high-load `'` variant of a simulation trace (all submissions at 0).
pub fn simulation_trace_t0(index: usize, scale: Scale) -> Trace {
    simulation_trace(index, scale).at_time_zero()
}

/// Paper-testbed simulation config for a policy.
pub fn config_for(policy: PolicyKind) -> SimConfig {
    SimConfig {
        cluster: ClusterSpec::paper_testbed(),
        ..SimConfig::testbed(SchedulerConfig::preset(policy))
    }
}

/// Run a policy over a trace with the standard config.
pub fn run(trace: &Trace, policy: PolicyKind) -> SimReport {
    simulate(trace, &config_for(policy))
}

/// Run with a custom config.
pub fn run_with(trace: &Trace, cfg: &SimConfig) -> SimReport {
    simulate(trace, cfg)
}

/// The paper's duration-aware policy set (Table 4 / Fig. 9).
pub const KNOWN_DURATION_POLICIES: [PolicyKind; 3] =
    [PolicyKind::Srtf, PolicyKind::Srsf, PolicyKind::MuriS];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_shrinks_counts() {
        assert_eq!(Scale(1.0).count(400), 400);
        assert_eq!(Scale(0.1).count(400), 40);
        assert_eq!(Scale(0.001).count(400), 8, "floor at 8 jobs");
    }

    #[test]
    fn testbed_trace_is_rebased_window() {
        let t = testbed_trace(Scale(0.05));
        assert_eq!(t.len(), 20);
        assert_eq!(t.jobs[0].submit_time, muri_workload::SimTime::ZERO);
    }

    #[test]
    fn policy_sets_match_paper() {
        assert_eq!(KNOWN_DURATION_POLICIES.len(), 3);
    }
}
