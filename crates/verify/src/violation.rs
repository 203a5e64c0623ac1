//! The typed violation vocabulary and the audit report that carries it.

use muri_workload::JobId;
use std::fmt;

/// One broken invariant, with enough context to locate the offender.
///
/// Each variant corresponds to a rule the paper states or relies on; the
/// audit passes in this crate are the only producers.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// Interleaving efficiency outside `[0, 1]` (Eq. 4), or a stored
    /// γ / iteration time that disagrees with an independent recomputation
    /// of Eq. 3/4 from the group's profiles and offsets.
    GammaOutOfRange {
        /// Members of the offending group.
        jobs: Vec<JobId>,
        /// The stored efficiency value.
        gamma: f64,
        /// What exactly disagreed.
        detail: String,
    },
    /// Phase offsets are not distinct modulo the cycle length (or their
    /// count does not match the member count), so one resource would host
    /// two jobs in the same phase — the premise of Eq. 3 (§4.1's barrier
    /// discipline) is void.
    DuplicatePhaseOffset {
        /// Members of the offending group.
        jobs: Vec<JobId>,
        /// The offending offset assignment.
        offsets: Vec<usize>,
        /// Length of the resource cycle the offsets index into.
        cycle_len: usize,
    },
    /// A physical resource (a GPU, or a timeline slot-resource) is claimed
    /// by two holders at once.
    ResourceDoubleBooked {
        /// Human-readable name of the double-booked resource.
        resource: String,
        /// Jobs holding it.
        holders: Vec<JobId>,
    },
    /// A matching is not a matching: asymmetric mates, self-mates, matched
    /// pairs with no edge, or a total weight that does not equal the sum
    /// of its edges (§4.1 requires a maximum *weighted matching*).
    NonMatchingEdgeSet {
        /// What the validation found.
        detail: String,
    },
    /// A group mixes jobs with different GPU counts — grouping must never
    /// cross GPU-count buckets or the Fig. 7 cascade returns (§4.2
    /// "Handling multi-GPU jobs").
    CrossBucketGroup {
        /// Members of the offending group.
        jobs: Vec<JobId>,
        /// Their per-job GPU demands.
        gpu_counts: Vec<u32>,
    },
    /// More capacity claimed than exists: a plan demanding more GPUs than
    /// are free, a GPU id outside the cluster, or a group packed beyond
    /// the pack factor.
    GpuOversubscribed {
        /// Where the oversubscription was observed.
        scope: String,
        /// Units demanded.
        demanded: u64,
        /// Units actually available.
        capacity: u64,
    },
    /// A lower-priority job was scheduled while the highest-priority
    /// candidate of the same GPU class was left waiting — the SRSF /
    /// 2D-LAS order of §4.2 ("Optimizing for average JCT") was not
    /// respected.
    PriorityInversion {
        /// A scheduled job of the class.
        scheduled: JobId,
        /// The higher-priority candidate that was skipped.
        skipped: JobId,
        /// The GPU class (per-job demand).
        num_gpus: u32,
    },
    /// A job is unaccounted for or double-counted: it appears in zero or
    /// in several of {queued, running, finished, rejected}, was planned
    /// twice, or regressed in progress accounting.
    JobConservationBroken {
        /// The offending job.
        job: JobId,
        /// What the accounting looks like.
        detail: String,
    },
    /// A matched pair's γ edge was pruned away by the top-m
    /// sparsification pass, yet no dense fallback was recorded — the
    /// reported matching cannot have come from the pruned graph the
    /// certificate covers.
    PrunedEdgeMatched {
        /// The offending matched node pair (graph indices).
        pair: (usize, usize),
        /// The edge's fixed-point weight.
        weight: i64,
        /// The configured top-m prune width.
        top_m: usize,
    },
    /// A sharded cold-start plan reports a pair weight that disagrees
    /// with an independent recomputation of the merged efficiency from
    /// the two nodes' member profiles (quantized and thresholded exactly
    /// like the planner's edge weights).
    ShardPairMismatch {
        /// The offending matched node pair (pool indices).
        pair: (usize, usize),
        /// The weight the plan reported.
        stated: i64,
        /// The independently recomputed weight.
        recomputed: i64,
    },
    /// A sharded cold-start plan's composed loss certificate does not
    /// hold: the achieved weight is too far below the availability-aware
    /// half-max-sum upper bound on the dense optimum for the configured
    /// loss tolerance.
    ShardLossExceeded {
        /// Total weight of the sharded plan.
        achieved: i64,
        /// The independently recomputed upper bound.
        upper_bound: i64,
        /// The configured loss tolerance.
        loss_bound: f64,
    },
    /// A running group occupies a machine that is fail-stopped, or a
    /// newly-placed group occupies a machine the monitor had blacklisted
    /// for the whole planning window — recovery must steer replanned
    /// work off bad machines.
    DeadMachineAssignment {
        /// The dead or banned machine.
        machine: u32,
        /// Jobs assigned to it.
        jobs: Vec<JobId>,
        /// Why the machine must not host work (`"down"`,
        /// `"blacklisted"`).
        status: String,
    },
    /// A recovered daemon's replayed op log and post-replay state
    /// disagree: broken seq/time monotonicity, duplicated or orphaned
    /// job references, a submitted job lost by replay, or an id
    /// allocator that could reissue an already-used job id.
    ReplayDivergence {
        /// Sequence number of the offending (or nearest) op.
        seq: u64,
        /// What diverged.
        detail: String,
    },
    /// A quantity that must never shrink across recovery (attained
    /// service, durable checkpointed progress) went backwards between
    /// two scheduling passes.
    ProgressRegressed {
        /// The offending job.
        job: JobId,
        /// Which ledger entry regressed.
        metric: String,
        /// Value at the earlier pass.
        before: u64,
        /// Value at the later pass.
        after: u64,
    },
    /// A spot eviction disrespected its advance warning: a warned
    /// machine was evicted before the full warning window elapsed, or a
    /// drain destroyed work it had time to checkpoint.
    SpotDrainViolation {
        /// The evicted spot machine.
        machine: u32,
        /// What went wrong with the drain.
        detail: String,
    },
    /// A running group spans GPU generations even though some single
    /// generation could have held it — generation-aware placement must
    /// keep interleaved stages in lockstep on uniform hardware.
    HeteroPlacementIllegal {
        /// Members of the offending group.
        jobs: Vec<JobId>,
        /// Generations the group's GPUs span.
        generations: Vec<u32>,
        /// Largest single-generation static capacity (legal spans need
        /// a demand above this).
        max_generation_capacity: u32,
    },
    /// An elastic resize broke conservation: attained service or durable
    /// progress changed across the resize, or the new GPU count is not a
    /// positive power of two within the cluster.
    ElasticConservationBroken {
        /// The resizing job.
        job: JobId,
        /// What the resize broke.
        detail: String,
    },
    /// An SLO job's priority key rose between passes while its scheduling
    /// state was unchanged — deadline escalation must be monotone.
    SloEscalationNonMonotone {
        /// The offending job.
        job: JobId,
        /// Key at the earlier pass.
        before: i64,
        /// Key at the later pass.
        after: i64,
    },
}

impl Violation {
    /// Stable machine-readable name of the variant (used by the negative
    /// tests to assert the *kind* of violation detected).
    pub fn kind(&self) -> &'static str {
        match self {
            Violation::GammaOutOfRange { .. } => "GammaOutOfRange",
            Violation::DuplicatePhaseOffset { .. } => "DuplicatePhaseOffset",
            Violation::ResourceDoubleBooked { .. } => "ResourceDoubleBooked",
            Violation::NonMatchingEdgeSet { .. } => "NonMatchingEdgeSet",
            Violation::CrossBucketGroup { .. } => "CrossBucketGroup",
            Violation::GpuOversubscribed { .. } => "GpuOversubscribed",
            Violation::PriorityInversion { .. } => "PriorityInversion",
            Violation::JobConservationBroken { .. } => "JobConservationBroken",
            Violation::PrunedEdgeMatched { .. } => "PrunedEdgeMatched",
            Violation::ShardPairMismatch { .. } => "ShardPairMismatch",
            Violation::ShardLossExceeded { .. } => "ShardLossExceeded",
            Violation::DeadMachineAssignment { .. } => "DeadMachineAssignment",
            Violation::ReplayDivergence { .. } => "ReplayDivergence",
            Violation::ProgressRegressed { .. } => "ProgressRegressed",
            Violation::SpotDrainViolation { .. } => "SpotDrainViolation",
            Violation::HeteroPlacementIllegal { .. } => "HeteroPlacementIllegal",
            Violation::ElasticConservationBroken { .. } => "ElasticConservationBroken",
            Violation::SloEscalationNonMonotone { .. } => "SloEscalationNonMonotone",
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::GammaOutOfRange {
                jobs,
                gamma,
                detail,
            } => {
                write!(
                    f,
                    "GammaOutOfRange: γ = {gamma} for group {jobs:?} — {detail}"
                )
            }
            Violation::DuplicatePhaseOffset {
                jobs,
                offsets,
                cycle_len,
            } => write!(
                f,
                "DuplicatePhaseOffset: offsets {offsets:?} (cycle length {cycle_len}) \
                 for group {jobs:?} are not one distinct offset per member"
            ),
            Violation::ResourceDoubleBooked { resource, holders } => {
                write!(f, "ResourceDoubleBooked: {resource} held by {holders:?}")
            }
            Violation::NonMatchingEdgeSet { detail } => {
                write!(f, "NonMatchingEdgeSet: {detail}")
            }
            Violation::CrossBucketGroup { jobs, gpu_counts } => write!(
                f,
                "CrossBucketGroup: group {jobs:?} mixes GPU demands {gpu_counts:?}"
            ),
            Violation::GpuOversubscribed {
                scope,
                demanded,
                capacity,
            } => write!(
                f,
                "GpuOversubscribed: {scope} demands {demanded} with capacity {capacity}"
            ),
            Violation::PriorityInversion {
                scheduled,
                skipped,
                num_gpus,
            } => write!(
                f,
                "PriorityInversion: {scheduled} ({num_gpus}-GPU class) runs while \
                 higher-priority {skipped} waits"
            ),
            Violation::JobConservationBroken { job, detail } => {
                write!(f, "JobConservationBroken: {job} — {detail}")
            }
            Violation::PrunedEdgeMatched {
                pair,
                weight,
                top_m,
            } => write!(
                f,
                "PrunedEdgeMatched: matched pair {pair:?} (weight {weight}) was outside \
                 both endpoints' top-{top_m} candidate edges and no fallback fired"
            ),
            Violation::ShardPairMismatch {
                pair,
                stated,
                recomputed,
            } => write!(
                f,
                "ShardPairMismatch: pair {pair:?} states weight {stated} but \
                 recomputation gives {recomputed}"
            ),
            Violation::ShardLossExceeded {
                achieved,
                upper_bound,
                loss_bound,
            } => write!(
                f,
                "ShardLossExceeded: plan weight {achieved} vs bound {upper_bound} \
                 exceeds the loss tolerance {loss_bound}"
            ),
            Violation::DeadMachineAssignment {
                machine,
                jobs,
                status,
            } => write!(
                f,
                "DeadMachineAssignment: machine {machine} is {status} yet hosts {jobs:?}"
            ),
            Violation::ReplayDivergence { seq, detail } => {
                write!(f, "ReplayDivergence: op seq {seq} — {detail}")
            }
            Violation::ProgressRegressed {
                job,
                metric,
                before,
                after,
            } => write!(
                f,
                "ProgressRegressed: {job} {metric} went backwards {before} → {after}"
            ),
            Violation::SpotDrainViolation { machine, detail } => {
                write!(f, "SpotDrainViolation: spot machine {machine} — {detail}")
            }
            Violation::HeteroPlacementIllegal {
                jobs,
                generations,
                max_generation_capacity,
            } => write!(
                f,
                "HeteroPlacementIllegal: group {jobs:?} spans GPU generations \
                 {generations:?} though one generation holds up to \
                 {max_generation_capacity} GPUs"
            ),
            Violation::ElasticConservationBroken { job, detail } => {
                write!(f, "ElasticConservationBroken: {job} — {detail}")
            }
            Violation::SloEscalationNonMonotone { job, before, after } => write!(
                f,
                "SloEscalationNonMonotone: {job} priority key rose {before} → {after} \
                 with unchanged scheduling state"
            ),
        }
    }
}

/// Outcome of one or more audit passes: how many checks ran and every
/// violation they found.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AuditReport {
    /// Number of audited entities (groups, plans, matchings, ticks…).
    pub checks: usize,
    /// Everything the checks found, in discovery order.
    pub violations: Vec<Violation>,
}

impl AuditReport {
    /// An empty report.
    pub fn new() -> Self {
        AuditReport::default()
    }

    /// True if no check found a violation.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Record a violation.
    pub fn push(&mut self, v: Violation) {
        self.violations.push(v);
    }

    /// Fold another report into this one.
    pub fn merge(&mut self, other: AuditReport) {
        self.checks += other.checks;
        self.violations.extend(other.violations);
    }

    /// Count of violations of the given [`Violation::kind`].
    pub fn count_kind(&self, kind: &str) -> usize {
        self.violations.iter().filter(|v| v.kind() == kind).count()
    }

    /// Human-readable multi-line summary (what `muri verify` prints).
    pub fn render(&self) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} checks, {} violation(s)",
            self.checks,
            self.violations.len()
        );
        for v in &self.violations {
            let _ = writeln!(out, "  - {v}");
        }
        out
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_merge_accumulates() {
        let mut a = AuditReport::new();
        a.checks = 2;
        let mut b = AuditReport::new();
        b.checks = 3;
        b.push(Violation::NonMatchingEdgeSet { detail: "x".into() });
        a.merge(b);
        assert_eq!(a.checks, 5);
        assert_eq!(a.violations.len(), 1);
        assert!(!a.is_clean());
        assert_eq!(a.count_kind("NonMatchingEdgeSet"), 1);
        assert_eq!(a.count_kind("GammaOutOfRange"), 0);
    }

    #[test]
    fn render_lists_each_violation() {
        let mut r = AuditReport::new();
        r.checks = 1;
        r.push(Violation::PriorityInversion {
            scheduled: JobId(2),
            skipped: JobId(1),
            num_gpus: 4,
        });
        let text = r.render();
        assert!(text.contains("PriorityInversion"), "{text}");
        assert!(text.contains("1 checks"), "{text}");
    }
}
