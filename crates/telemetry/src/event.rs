//! The typed event vocabulary of the journal.
//!
//! Events are flat JSON objects tagged by a `"type"` field. The vendored
//! serde derive only supports unit-variant enums, so [`Event`]'s
//! `Serialize` / `Deserialize` impls are written by hand against the
//! value model — which also keeps the wire schema explicit and stable
//! (the golden tests in `tests/golden.rs` pin it).

use muri_workload::{JobId, ResourceKind, SimDuration, SimTime};
use serde::{Deserialize, Error, Serialize, Value};

/// Typed cause of a reported fault. Replaces the old free-form string
/// reason: per-fault reports no longer allocate, and exporters can label
/// by kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Per-job exponential fault injection (the MTBF model).
    Injected,
    /// The hosting machine fail-stopped and is down until repaired.
    MachineFailStop,
    /// The hosting machine suffered a transient fault (it stays up, but
    /// every job it hosted was killed).
    MachineTransient,
}

impl FaultKind {
    /// Stable wire tag (the JSONL `"kind"` field).
    pub fn as_str(self) -> &'static str {
        match self {
            FaultKind::Injected => "injected",
            FaultKind::MachineFailStop => "machine_fail_stop",
            FaultKind::MachineTransient => "machine_transient",
        }
    }

    /// True when the fault was caused by a machine-level failure.
    pub fn is_machine(self) -> bool {
        matches!(
            self,
            FaultKind::MachineFailStop | FaultKind::MachineTransient
        )
    }
}

impl Serialize for FaultKind {
    fn to_value(&self) -> Value {
        Value::Str(self.as_str().to_string())
    }
}

impl Deserialize for FaultKind {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let s: String = String::from_value(v)?;
        Ok(match s.as_str() {
            "injected" => FaultKind::Injected,
            "machine_fail_stop" => FaultKind::MachineFailStop,
            "machine_transient" => FaultKind::MachineTransient,
            other => return Err(Error::msg(format!("unknown fault kind {other:?}"))),
        })
    }
}

/// Why the worker monitor blacklisted a machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlacklistReason {
    /// The machine hit the consecutive machine-fault threshold.
    ConsecutiveFaults,
    /// The machine repeatedly ran its groups slower than planned.
    Straggler,
}

impl BlacklistReason {
    /// Stable wire tag (the JSONL `"reason"` field).
    pub fn as_str(self) -> &'static str {
        match self {
            BlacklistReason::ConsecutiveFaults => "consecutive_faults",
            BlacklistReason::Straggler => "straggler",
        }
    }
}

impl Serialize for BlacklistReason {
    fn to_value(&self) -> Value {
        Value::Str(self.as_str().to_string())
    }
}

impl Deserialize for BlacklistReason {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let s: String = String::from_value(v)?;
        Ok(match s.as_str() {
            "consecutive_faults" => BlacklistReason::ConsecutiveFaults,
            "straggler" => BlacklistReason::Straggler,
            other => return Err(Error::msg(format!("unknown blacklist reason {other:?}"))),
        })
    }
}

/// Wall-clock durations of the phases of one `plan_schedule` call, in
/// microseconds. `grouping_us` covers the whole grouping call;
/// `graph_build_us` / `matching_us` are the portions spent building
/// round graphs and running the matcher inside it (cache hits skip
/// both).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct PlanPhases {
    /// Priority sort of the pending queue.
    pub sort_us: u64,
    /// Admission scan (Algorithm 1 lines 3–7).
    pub admission_us: u64,
    /// Splitting admitted jobs into GPU-count buckets.
    pub bucketing_us: u64,
    /// The capacity-aware multi-round grouping call, total.
    pub grouping_us: u64,
    /// Round-graph edge-weight construction inside grouping.
    pub graph_build_us: u64,
    /// Blossom / greedy matching rounds inside grouping.
    pub matching_us: u64,
    /// Matching rounds executed (0 when every bucket fit outright).
    pub matching_rounds: u32,
    /// Edges dropped by the Blossom sparsification pass (0 when pruning
    /// is off or the matcher never ran). Journals predating the knob
    /// deserialize to 0.
    #[serde(default)]
    pub pruned_edges: u64,
    /// Dense re-runs taken because the prune loss certificate failed.
    #[serde(default)]
    pub prune_fallbacks: u64,
    /// Shard subproblems planned by the sharded cold-start planner
    /// (0 when it never engaged). Journals predating the knob
    /// deserialize to 0.
    #[serde(default)]
    pub shards: u64,
    /// Distinct shard templates solved (≤ `shards`; the rest were
    /// answered by the template cache).
    #[serde(default)]
    pub shard_templates: u64,
    /// Sharded plans whose composed loss certificate failed.
    #[serde(default)]
    pub shard_fallbacks: u64,
    /// Capacity selection, relaxation, and placement ordering.
    pub selection_us: u64,
}

/// Hit/miss delta of one memoization layer across a planning pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CacheDelta {
    /// Lookups answered from the cache during the pass.
    pub hits: u64,
    /// Lookups that had to compute during the pass.
    pub misses: u64,
}

/// One journal entry. Times are simulation time; durations inside
/// [`PlanPhases`] are host wall-clock (the scheduler runs for real even
/// when the cluster is simulated).
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A job entered the system (§3: the scheduler "is periodically
    /// invoked on events like job arrival").
    JobArrived {
        /// Arrival (submission) time.
        time: SimTime,
        /// The job.
        job: JobId,
        /// Its GPU demand.
        num_gpus: u32,
    },
    /// A job started (or restarted) executing on a GPU set.
    JobStarted {
        /// Start time.
        time: SimTime,
        /// The job.
        job: JobId,
        /// `true` when this is a restart after preemption or a fault.
        restart: bool,
    },
    /// A preemptive tick tore the job's group down and requeued it.
    JobPreempted {
        /// Preemption time.
        time: SimTime,
        /// The job.
        job: JobId,
    },
    /// An executor reported a fault; the job was terminated and requeued
    /// (§5).
    JobFaulted {
        /// Fault time.
        time: SimTime,
        /// The job.
        job: JobId,
        /// What kind of failure terminated the job.
        kind: FaultKind,
    },
    /// A job finished its final iteration.
    JobCompleted {
        /// Completion time.
        time: SimTime,
        /// The job.
        job: JobId,
    },
    /// The scheduler formed an interleave group (Algorithm 1 output).
    GroupFormed {
        /// Formation time.
        time: SimTime,
        /// Member jobs, in offset order.
        members: Vec<JobId>,
        /// GPUs the group occupies.
        num_gpus: u32,
        /// Interleaving efficiency γ (Eq. 4) under the chosen ordering.
        gamma: f64,
        /// Group per-iteration time (Eq. 3).
        iteration_time: SimDuration,
        /// The effective resource cycle of the chosen ordering.
        cycle: Vec<ResourceKind>,
        /// Per-member phase offsets into the cycle.
        offsets: Vec<usize>,
    },
    /// One `plan_schedule` call: inputs, outputs, per-phase durations,
    /// and memoization-layer deltas.
    PlanningPass {
        /// Simulation time of the pass.
        time: SimTime,
        /// Candidate jobs handed to the scheduler.
        candidates: u32,
        /// Free GPUs available for (re)placement.
        free_gpus: u32,
        /// Groups in the returned plan.
        planned_groups: u32,
        /// Jobs across the returned plan.
        planned_jobs: u32,
        /// Per-phase wall-clock durations.
        phases: PlanPhases,
        /// γ-cache hits/misses during the pass.
        gamma_cache: CacheDelta,
        /// Always `{0, 0}`: the planner keeps no round memo. The field
        /// stays so existing journals and readers keep their shape.
        round_cache: CacheDelta,
    },
    /// A machine-level fault killed every job the machine hosted (§5:
    /// the executor reports the error and terminates training).
    MachineFailed {
        /// Fault time.
        time: SimTime,
        /// The failed machine.
        machine: u32,
        /// `true` when the machine stayed up (transient fault); `false`
        /// for fail-stop, in which case a `MachineRecovered` follows.
        transient: bool,
        /// Running jobs terminated by the cascade.
        jobs_hit: u32,
    },
    /// A fail-stopped machine finished repair and rejoined the cluster.
    MachineRecovered {
        /// Recovery time.
        time: SimTime,
        /// The repaired machine.
        machine: u32,
    },
    /// The worker monitor blacklisted a machine; placement avoids it
    /// until the blacklist expires.
    MachineBlacklisted {
        /// Blacklist time.
        time: SimTime,
        /// The blacklisted machine.
        machine: u32,
        /// Which health threshold tripped.
        reason: BlacklistReason,
    },
    /// A running job persisted its progress (and paid the checkpoint
    /// cost).
    CheckpointTaken {
        /// Checkpoint time.
        time: SimTime,
        /// The job.
        job: JobId,
        /// Durable iterations after this checkpoint.
        iters_saved: u64,
    },
    /// A fault rolled a job back to its last checkpoint.
    WorkLost {
        /// Fault time.
        time: SimTime,
        /// The job.
        job: JobId,
        /// Iterations discarded by the rollback.
        iterations: u64,
        /// Wall-clock worth of the discarded iterations.
        wasted: SimDuration,
    },
    /// A spot/preemptible machine was evicted. `drained` counts the
    /// hosted jobs checkpointed during the advance-warning window;
    /// `wasted` is the wall-clock worth of work the eviction still
    /// destroyed (zero when the drain saved everything).
    SpotEvicted {
        /// Eviction time.
        time: SimTime,
        /// The evicted machine.
        machine: u32,
        /// Jobs drained to a checkpoint inside the warning window.
        drained: u64,
        /// Wall-clock worth of work destroyed despite the drain.
        wasted: SimDuration,
    },
    /// An elastic job changed its GPU count at an iteration boundary.
    ElasticResized {
        /// Resize time.
        time: SimTime,
        /// The resizing job.
        job: JobId,
        /// GPU count before the resize.
        from_gpus: u32,
        /// GPU count after the resize.
        to_gpus: u32,
    },
}

impl Event {
    /// Simulation time the event is stamped with.
    pub fn time(&self) -> SimTime {
        match self {
            Event::JobArrived { time, .. }
            | Event::JobStarted { time, .. }
            | Event::JobPreempted { time, .. }
            | Event::JobFaulted { time, .. }
            | Event::JobCompleted { time, .. }
            | Event::GroupFormed { time, .. }
            | Event::PlanningPass { time, .. }
            | Event::MachineFailed { time, .. }
            | Event::MachineRecovered { time, .. }
            | Event::MachineBlacklisted { time, .. }
            | Event::CheckpointTaken { time, .. }
            | Event::WorkLost { time, .. }
            | Event::SpotEvicted { time, .. }
            | Event::ElasticResized { time, .. } => *time,
        }
    }

    /// The job a lifecycle event concerns (`None` for scheduler and
    /// machine events).
    pub fn job(&self) -> Option<JobId> {
        match self {
            Event::JobArrived { job, .. }
            | Event::JobStarted { job, .. }
            | Event::JobPreempted { job, .. }
            | Event::JobFaulted { job, .. }
            | Event::JobCompleted { job, .. }
            | Event::CheckpointTaken { job, .. }
            | Event::WorkLost { job, .. }
            | Event::ElasticResized { job, .. } => Some(*job),
            Event::GroupFormed { .. }
            | Event::PlanningPass { .. }
            | Event::MachineFailed { .. }
            | Event::MachineRecovered { .. }
            | Event::MachineBlacklisted { .. }
            | Event::SpotEvicted { .. } => None,
        }
    }

    /// Stable machine-readable tag — the JSONL `"type"` field.
    pub fn kind(&self) -> &'static str {
        match self {
            Event::JobArrived { .. } => "job_arrived",
            Event::JobStarted { .. } => "job_started",
            Event::JobPreempted { .. } => "job_preempted",
            Event::JobFaulted { .. } => "job_faulted",
            Event::JobCompleted { .. } => "job_completed",
            Event::GroupFormed { .. } => "group_formed",
            Event::PlanningPass { .. } => "planning_pass",
            Event::MachineFailed { .. } => "machine_failed",
            Event::MachineRecovered { .. } => "machine_recovered",
            Event::MachineBlacklisted { .. } => "machine_blacklisted",
            Event::CheckpointTaken { .. } => "checkpoint_taken",
            Event::WorkLost { .. } => "work_lost",
            Event::SpotEvicted { .. } => "spot_evicted",
            Event::ElasticResized { .. } => "elastic_resized",
        }
    }
}

/// Build the common `{"type": ..., "time_us": ...}` prefix.
fn tagged(kind: &str, time: SimTime) -> Vec<(String, Value)> {
    vec![
        ("type".to_string(), Value::Str(kind.to_string())),
        ("time_us".to_string(), Value::UInt(time.as_micros())),
    ]
}

impl Serialize for Event {
    fn to_value(&self) -> Value {
        let mut m = tagged(self.kind(), self.time());
        match self {
            Event::JobArrived { job, num_gpus, .. } => {
                m.push(("job".into(), job.to_value()));
                m.push(("num_gpus".into(), num_gpus.to_value()));
            }
            Event::JobStarted { job, restart, .. } => {
                m.push(("job".into(), job.to_value()));
                m.push(("restart".into(), restart.to_value()));
            }
            Event::JobPreempted { job, .. } | Event::JobCompleted { job, .. } => {
                m.push(("job".into(), job.to_value()));
            }
            Event::JobFaulted { job, kind, .. } => {
                m.push(("job".into(), job.to_value()));
                m.push(("kind".into(), kind.to_value()));
            }
            Event::GroupFormed {
                members,
                num_gpus,
                gamma,
                iteration_time,
                cycle,
                offsets,
                ..
            } => {
                m.push(("members".into(), members.to_value()));
                m.push(("num_gpus".into(), num_gpus.to_value()));
                m.push(("gamma".into(), gamma.to_value()));
                m.push((
                    "iteration_time_us".into(),
                    Value::UInt(iteration_time.as_micros()),
                ));
                m.push(("cycle".into(), cycle.to_value()));
                m.push(("offsets".into(), offsets.to_value()));
            }
            Event::PlanningPass {
                candidates,
                free_gpus,
                planned_groups,
                planned_jobs,
                phases,
                gamma_cache,
                round_cache,
                ..
            } => {
                m.push(("candidates".into(), candidates.to_value()));
                m.push(("free_gpus".into(), free_gpus.to_value()));
                m.push(("planned_groups".into(), planned_groups.to_value()));
                m.push(("planned_jobs".into(), planned_jobs.to_value()));
                m.push(("phases".into(), phases.to_value()));
                m.push(("gamma_cache".into(), gamma_cache.to_value()));
                m.push(("round_cache".into(), round_cache.to_value()));
            }
            Event::MachineFailed {
                machine,
                transient,
                jobs_hit,
                ..
            } => {
                m.push(("machine".into(), machine.to_value()));
                m.push(("transient".into(), transient.to_value()));
                m.push(("jobs_hit".into(), jobs_hit.to_value()));
            }
            Event::MachineRecovered { machine, .. } => {
                m.push(("machine".into(), machine.to_value()));
            }
            Event::MachineBlacklisted {
                machine, reason, ..
            } => {
                m.push(("machine".into(), machine.to_value()));
                m.push(("reason".into(), reason.to_value()));
            }
            Event::CheckpointTaken {
                job, iters_saved, ..
            } => {
                m.push(("job".into(), job.to_value()));
                m.push(("iters_saved".into(), iters_saved.to_value()));
            }
            Event::WorkLost {
                job,
                iterations,
                wasted,
                ..
            } => {
                m.push(("job".into(), job.to_value()));
                m.push(("iterations".into(), iterations.to_value()));
                m.push(("wasted_us".into(), Value::UInt(wasted.as_micros())));
            }
            Event::SpotEvicted {
                machine,
                drained,
                wasted,
                ..
            } => {
                m.push(("machine".into(), machine.to_value()));
                m.push(("drained".into(), drained.to_value()));
                m.push(("wasted_us".into(), Value::UInt(wasted.as_micros())));
            }
            Event::ElasticResized {
                job,
                from_gpus,
                to_gpus,
                ..
            } => {
                m.push(("job".into(), job.to_value()));
                m.push(("from_gpus".into(), from_gpus.to_value()));
                m.push(("to_gpus".into(), to_gpus.to_value()));
            }
        }
        Value::Map(m)
    }
}

/// Extract and deserialize a required field of an event object.
fn field<T: Deserialize>(v: &Value, key: &str) -> Result<T, Error> {
    let val = v
        .get(key)
        .ok_or_else(|| Error::msg(format!("event missing field `{key}`")))?;
    T::from_value(val).map_err(|e| Error::msg(format!("field `{key}`: {e}")))
}

impl Deserialize for Event {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let kind: String = field(v, "type")?;
        let time = SimTime(field::<u64>(v, "time_us")?);
        Ok(match kind.as_str() {
            "job_arrived" => Event::JobArrived {
                time,
                job: field(v, "job")?,
                num_gpus: field(v, "num_gpus")?,
            },
            "job_started" => Event::JobStarted {
                time,
                job: field(v, "job")?,
                restart: field(v, "restart")?,
            },
            "job_preempted" => Event::JobPreempted {
                time,
                job: field(v, "job")?,
            },
            "job_faulted" => Event::JobFaulted {
                time,
                job: field(v, "job")?,
                kind: field(v, "kind")?,
            },
            "job_completed" => Event::JobCompleted {
                time,
                job: field(v, "job")?,
            },
            "group_formed" => Event::GroupFormed {
                time,
                members: field(v, "members")?,
                num_gpus: field(v, "num_gpus")?,
                gamma: field(v, "gamma")?,
                iteration_time: SimDuration::from_micros(field::<u64>(v, "iteration_time_us")?),
                cycle: field(v, "cycle")?,
                offsets: field(v, "offsets")?,
            },
            "planning_pass" => Event::PlanningPass {
                time,
                candidates: field(v, "candidates")?,
                free_gpus: field(v, "free_gpus")?,
                planned_groups: field(v, "planned_groups")?,
                planned_jobs: field(v, "planned_jobs")?,
                phases: field(v, "phases")?,
                gamma_cache: field(v, "gamma_cache")?,
                round_cache: field(v, "round_cache")?,
            },
            "machine_failed" => Event::MachineFailed {
                time,
                machine: field(v, "machine")?,
                transient: field(v, "transient")?,
                jobs_hit: field(v, "jobs_hit")?,
            },
            "machine_recovered" => Event::MachineRecovered {
                time,
                machine: field(v, "machine")?,
            },
            "machine_blacklisted" => Event::MachineBlacklisted {
                time,
                machine: field(v, "machine")?,
                reason: field(v, "reason")?,
            },
            "checkpoint_taken" => Event::CheckpointTaken {
                time,
                job: field(v, "job")?,
                iters_saved: field(v, "iters_saved")?,
            },
            "work_lost" => Event::WorkLost {
                time,
                job: field(v, "job")?,
                iterations: field(v, "iterations")?,
                wasted: SimDuration::from_micros(field::<u64>(v, "wasted_us")?),
            },
            "spot_evicted" => Event::SpotEvicted {
                time,
                machine: field(v, "machine")?,
                drained: field(v, "drained")?,
                wasted: SimDuration::from_micros(field::<u64>(v, "wasted_us")?),
            },
            "elastic_resized" => Event::ElasticResized {
                time,
                job: field(v, "job")?,
                from_gpus: field(v, "from_gpus")?,
                to_gpus: field(v, "to_gpus")?,
            },
            other => return Err(Error::msg(format!("unknown event type {other:?}"))),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(ev: &Event) {
        let json = serde_json::to_string(ev).expect("serializes");
        let back: Event = serde_json::from_str(&json).expect("parses");
        assert_eq!(*ev, back, "{json}");
    }

    #[test]
    fn every_variant_roundtrips() {
        let t = SimTime::from_secs(7);
        roundtrip(&Event::JobArrived {
            time: t,
            job: JobId(3),
            num_gpus: 2,
        });
        roundtrip(&Event::JobStarted {
            time: t,
            job: JobId(3),
            restart: true,
        });
        roundtrip(&Event::JobPreempted {
            time: t,
            job: JobId(4),
        });
        roundtrip(&Event::JobFaulted {
            time: t,
            job: JobId(5),
            kind: FaultKind::Injected,
        });
        roundtrip(&Event::JobCompleted {
            time: t,
            job: JobId(6),
        });
        roundtrip(&Event::GroupFormed {
            time: t,
            members: vec![JobId(1), JobId(2)],
            num_gpus: 4,
            gamma: 0.93,
            iteration_time: SimDuration::from_millis(420),
            cycle: vec![ResourceKind::Cpu, ResourceKind::Gpu],
            offsets: vec![0, 1],
        });
        roundtrip(&Event::PlanningPass {
            time: t,
            candidates: 12,
            free_gpus: 8,
            planned_groups: 3,
            planned_jobs: 7,
            phases: PlanPhases {
                sort_us: 1,
                admission_us: 2,
                bucketing_us: 3,
                grouping_us: 40,
                graph_build_us: 20,
                matching_us: 15,
                matching_rounds: 2,
                pruned_edges: 37,
                prune_fallbacks: 1,
                shards: 9,
                shard_templates: 3,
                shard_fallbacks: 0,
                selection_us: 4,
            },
            gamma_cache: CacheDelta {
                hits: 10,
                misses: 2,
            },
            round_cache: CacheDelta { hits: 1, misses: 0 },
        });
        roundtrip(&Event::MachineFailed {
            time: t,
            machine: 3,
            transient: true,
            jobs_hit: 4,
        });
        roundtrip(&Event::MachineRecovered {
            time: t,
            machine: 3,
        });
        roundtrip(&Event::MachineBlacklisted {
            time: t,
            machine: 5,
            reason: BlacklistReason::Straggler,
        });
        roundtrip(&Event::CheckpointTaken {
            time: t,
            job: JobId(8),
            iters_saved: 120,
        });
        roundtrip(&Event::WorkLost {
            time: t,
            job: JobId(8),
            iterations: 37,
            wasted: SimDuration::from_secs(11),
        });
        roundtrip(&Event::SpotEvicted {
            time: t,
            machine: 6,
            drained: 3,
            wasted: SimDuration::from_secs(2),
        });
        roundtrip(&Event::ElasticResized {
            time: t,
            job: JobId(9),
            from_gpus: 2,
            to_gpus: 4,
        });
    }

    #[test]
    fn fault_kinds_and_blacklist_reasons_roundtrip() {
        for kind in [
            FaultKind::Injected,
            FaultKind::MachineFailStop,
            FaultKind::MachineTransient,
        ] {
            let json = serde_json::to_string(&kind).expect("serializes");
            let back: FaultKind = serde_json::from_str(&json).expect("parses");
            assert_eq!(kind, back);
            assert_eq!(kind.is_machine(), kind != FaultKind::Injected);
        }
        for reason in [
            BlacklistReason::ConsecutiveFaults,
            BlacklistReason::Straggler,
        ] {
            let json = serde_json::to_string(&reason).expect("serializes");
            let back: BlacklistReason = serde_json::from_str(&json).expect("parses");
            assert_eq!(reason, back);
        }
        assert!(serde_json::from_str::<FaultKind>("\"melted\"").is_err());
        assert!(serde_json::from_str::<BlacklistReason>("\"vibes\"").is_err());
    }

    #[test]
    fn unknown_type_is_rejected() {
        let r: Result<Event, _> = serde_json::from_str(r#"{"type":"nope","time_us":0}"#);
        assert!(r.is_err());
    }

    #[test]
    fn accessors_cover_all_variants() {
        let ev = Event::JobCompleted {
            time: SimTime::from_secs(1),
            job: JobId(9),
        };
        assert_eq!(ev.time(), SimTime::from_secs(1));
        assert_eq!(ev.job(), Some(JobId(9)));
        assert_eq!(ev.kind(), "job_completed");
        let pass = Event::PlanningPass {
            time: SimTime::ZERO,
            candidates: 0,
            free_gpus: 0,
            planned_groups: 0,
            planned_jobs: 0,
            phases: PlanPhases::default(),
            gamma_cache: CacheDelta::default(),
            round_cache: CacheDelta::default(),
        };
        assert_eq!(pass.job(), None);
    }
}
