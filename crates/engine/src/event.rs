//! The typed events a scheduler core reacts to.

use muri_workload::JobId;

/// One scheduler event, tagged with the state it must match to apply.
///
/// Group-addressed events (`JobCompleted`, `JobFault`, `CheckpointDue`)
/// carry the group slot index and the group *version* current when the
/// event was armed: group membership changes bump the version, so a
/// handler can drop events aimed at a group that has since been
/// reformed or torn down without cancelling anything in the queue.
///
/// `Ord` is derived only so the event can sit in
/// [`crate::VirtualClockQueue`]'s `(time, seq, event)` heap entries. It
/// never decides the pop order: every `seq` is unique, so events at the
/// same instant pop in insertion order whatever their variant, and
/// variants may be added or reordered freely.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SchedulerEvent {
    /// A job submission becomes visible to the scheduler. The payload
    /// is the index into the harness's job-spec table (trace order for
    /// the simulator, submission order for the daemon).
    JobSubmitted(u32),
    /// The fastest-finishing member of group `gid` reaches its final
    /// iteration (stale if the group's version moved past `version`).
    JobCompleted {
        /// Group slot index.
        gid: u32,
        /// Group version the completion was aimed at.
        version: u64,
    },
    /// An executor fault fires for `job` inside group `gid`.
    JobFault {
        /// Group slot index.
        gid: u32,
        /// Group version the fault was aimed at.
        version: u64,
        /// The faulting member.
        job: JobId,
    },
    /// A periodic checkpoint comes due for group `gid`.
    CheckpointDue {
        /// Group slot index.
        gid: u32,
        /// Group version the checkpoint was aimed at.
        version: u64,
    },
    /// Machine `m` fail-stops (or suffers a transient fault).
    MachineFailed(u32),
    /// Machine `m` completes repair and rejoins the cluster.
    MachineRecovered(u32),
    /// A periodic planning tick: run the full (preemptive) scheduling
    /// pass if anything changed since the last one.
    PlanRequested,
    /// Spot machine `m` receives its advance eviction warning: drain
    /// hosted groups to a checkpoint before the eviction lands.
    SpotWarning(u32),
    /// Spot machine `m` is evicted (capacity leaves the cluster).
    SpotEvicted(u32),
    /// Spot machine `m` returns after an eviction.
    SpotRestored(u32),
    /// Elastic job `job` reaches a resize point: grow or shrink its GPU
    /// count at the next iteration boundary.
    ElasticResize {
        /// The resizing job.
        job: JobId,
        /// Resize epoch (guards against stale events after the job
        /// finishes or the chain is re-armed).
        epoch: u64,
    },
}
