//! Simulation metrics — everything §6 reports.
//!
//! * **Average JCT** and **makespan**: "two common metrics to reflect the
//!   job and resource efficiency of schedulers";
//! * **tail JCT** (99th percentile): fairness;
//! * **queue length**: busyness of the cluster;
//! * **blocking index**: "the average ratio of pending time to remaining
//!   time of pending jobs, showing the ability to avoid job starvation";
//! * **resource utilization** per resource type (the Fig. 8 curves).

use muri_workload::stats;
use muri_workload::{JobId, ModelKind, ResourceVec, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Lifecycle record of one job.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JobRecord {
    /// Job id.
    pub id: JobId,
    /// Model trained.
    pub model: ModelKind,
    /// GPUs used.
    pub num_gpus: u32,
    /// Submission time.
    pub submit: SimTime,
    /// First time the job started executing, if it ever did.
    pub first_start: Option<SimTime>,
    /// Completion time, if the job finished.
    pub finish: Option<SimTime>,
    /// Total wall-clock time spent executing (attained service).
    pub attained: SimDuration,
    /// Iterations completed.
    pub iterations_done: u64,
    /// Iterations requested.
    pub iterations_total: u64,
    /// Number of times the job was restarted (preemptions + faults).
    pub restarts: u32,
    /// Number of faults the job suffered.
    pub faults: u32,
}

impl JobRecord {
    /// Job completion time (finish − submit). `None` if unfinished.
    pub fn jct(&self) -> Option<SimDuration> {
        self.finish.map(|f| f.since(self.submit))
    }

    /// Queueing delay before the first start. `None` if never started.
    pub fn queueing_delay(&self) -> Option<SimDuration> {
        self.first_start.map(|s| s.since(self.submit))
    }
}

/// One point of the sampled time series (Fig. 8).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SeriesSample {
    /// Sample time.
    pub time: SimTime,
    /// Jobs waiting in the queue.
    pub queue_length: usize,
    /// Average pending-time / remaining-time over queued jobs.
    pub blocking_index: f64,
    /// Cluster-wide utilization per resource in `[0, 1]`
    /// (busy GPU-set-weighted fraction over all GPUs).
    pub utilization: ResourceVec<f64>,
    /// Jobs currently running.
    pub running_jobs: usize,
    /// GPUs currently leased.
    pub used_gpus: u32,
}

/// Full result of one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Scheduler name (e.g. "Muri-S").
    pub policy: String,
    /// Trace name.
    pub trace: String,
    /// Per-job records, by submission order.
    pub records: Vec<JobRecord>,
    /// Sampled time series.
    pub series: Vec<SeriesSample>,
    /// Completion time of the last job.
    pub makespan: SimDuration,
    /// Number of scheduling passes executed.
    pub scheduling_passes: u64,
    /// Total simulated events processed.
    pub events: u64,
}

impl SimReport {
    /// All finished-job JCTs in seconds.
    pub fn jcts_secs(&self) -> Vec<f64> {
        self.records
            .iter()
            .filter_map(JobRecord::jct)
            .map(muri_workload::SimDuration::as_secs_f64)
            .collect()
    }

    /// Average JCT in seconds.
    pub fn avg_jct_secs(&self) -> f64 {
        stats::mean(&self.jcts_secs())
    }

    /// Tail (99th-percentile) JCT in seconds.
    pub fn p99_jct_secs(&self) -> f64 {
        stats::percentile(&self.jcts_secs(), 99.0)
    }

    /// Makespan in seconds.
    pub fn makespan_secs(&self) -> f64 {
        self.makespan.as_secs_f64()
    }

    /// Number of jobs that finished.
    pub fn finished_jobs(&self) -> usize {
        self.records.iter().filter(|r| r.finish.is_some()).count()
    }

    /// True if every job finished.
    pub fn all_finished(&self) -> bool {
        self.finished_jobs() == self.records.len()
    }

    /// Time-weighted average utilization of one resource over the run.
    pub fn avg_utilization(&self, r: muri_workload::ResourceKind) -> f64 {
        if self.series.len() < 2 {
            return self.series.first().map_or(0.0, |s| s.utilization[r]);
        }
        let mut acc = 0.0;
        let mut total = 0.0;
        for w in self.series.windows(2) {
            let dt = w[1].time.since(w[0].time).as_secs_f64();
            acc += w[0].utilization[r] * dt;
            total += dt;
        }
        if total == 0.0 {
            self.series[0].utilization[r]
        } else {
            acc / total
        }
    }

    /// Average queue length over samples.
    pub fn avg_queue_length(&self) -> f64 {
        stats::mean(
            &self
                .series
                .iter()
                .map(|s| s.queue_length as f64)
                .collect::<Vec<_>>(),
        )
    }

    /// Average blocking index over samples with a non-empty queue.
    pub fn avg_blocking_index(&self) -> f64 {
        let xs: Vec<f64> = self
            .series
            .iter()
            .filter(|s| s.queue_length > 0)
            .map(|s| s.blocking_index)
            .collect();
        stats::mean(&xs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: u32, submit: u64, finish: Option<u64>) -> JobRecord {
        JobRecord {
            id: JobId(id),
            model: ModelKind::ResNet18,
            num_gpus: 1,
            submit: SimTime::from_secs(submit),
            first_start: finish.map(|_| SimTime::from_secs(submit + 1)),
            finish: finish.map(SimTime::from_secs),
            attained: SimDuration::from_secs(10),
            iterations_done: 100,
            iterations_total: 100,
            restarts: 0,
            faults: 0,
        }
    }

    fn report(records: Vec<JobRecord>) -> SimReport {
        SimReport {
            policy: "test".into(),
            trace: "t".into(),
            makespan: records
                .iter()
                .filter_map(|r| r.finish)
                .max()
                .map_or(SimDuration::ZERO, |t| t.since(SimTime::ZERO)),
            records,
            series: Vec::new(),
            scheduling_passes: 0,
            events: 0,
        }
    }

    #[test]
    fn jct_math() {
        let r = record(1, 10, Some(25));
        assert_eq!(r.jct(), Some(SimDuration::from_secs(15)));
        assert_eq!(r.queueing_delay(), Some(SimDuration::from_secs(1)));
        let unfinished = record(2, 10, None);
        assert_eq!(unfinished.jct(), None);
    }

    #[test]
    fn aggregates() {
        let rep = report(vec![
            record(1, 0, Some(10)),
            record(2, 0, Some(30)),
            record(3, 0, None),
        ]);
        assert_eq!(rep.avg_jct_secs(), 20.0);
        assert_eq!(rep.p99_jct_secs(), 30.0);
        assert_eq!(rep.finished_jobs(), 2);
        assert!(!rep.all_finished());
        assert_eq!(rep.makespan_secs(), 30.0);
    }

    #[test]
    fn empty_report_is_well_defined() {
        let rep = report(Vec::new());
        assert_eq!(rep.avg_jct_secs(), 0.0);
        assert_eq!(rep.p99_jct_secs(), 0.0);
        assert!(rep.all_finished());
        assert_eq!(rep.avg_queue_length(), 0.0);
    }

    #[test]
    fn utilization_series_weighting() {
        let mut rep = report(Vec::new());
        let s = |t: u64, u: f64| SeriesSample {
            time: SimTime::from_secs(t),
            queue_length: 0,
            blocking_index: 0.0,
            utilization: ResourceVec::splat(u),
            running_jobs: 0,
            used_gpus: 0,
        };
        rep.series = vec![s(0, 1.0), s(2, 0.0), s(4, 0.0)];
        let u = rep.avg_utilization(muri_workload::ResourceKind::Gpu);
        assert!((u - 0.5).abs() < 1e-12);
    }
}
