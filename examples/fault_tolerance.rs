//! Fault tolerance: inject executor faults (§5: "when a fault occurs,
//! the executor will report the error information to the worker monitor
//! and terminate the training process. The related DL job will be pushed
//! back to the job queue") and watch the scheduler absorb them.
//!
//! ```text
//! cargo run --release --example fault_tolerance
//! ```

use muri::cluster::ClusterSpec;
use muri::core::{PolicyKind, SchedulerConfig};
use muri::sim::{simulate, FaultPlan, SimConfig};
use muri::workload::{SimDuration, SynthConfig};

fn main() {
    let trace = SynthConfig {
        name: "faulty".into(),
        num_jobs: 120,
        seed: 99,
        duration_median_secs: 600.0,
        duration_sigma: 1.0,
        load_reference_gpus: 16,
        target_load: 1.2,
        gpu_dist: muri::workload::GpuDistribution::default().capped(8),
        ..SynthConfig::default()
    }
    .generate();

    println!("workload: {} jobs on 16 GPUs under Muri-L\n", trace.len());
    println!(
        "{:<22} {:>10} {:>10} {:>10} {:>8} {:>9}",
        "MTBF per running job", "avg JCT", "p99 JCT", "makespan", "faults", "restarts"
    );
    for mtbf_mins in [0u64, 240, 60, 15] {
        let mut cfg = SimConfig {
            cluster: ClusterSpec::with_machines(2),
            ..SimConfig::testbed(SchedulerConfig::preset(PolicyKind::MuriL))
        };
        cfg.faults = FaultPlan {
            mtbf: (mtbf_mins > 0).then(|| SimDuration::from_mins(mtbf_mins)),
            seed: 5,
            ..FaultPlan::default()
        };
        let r = simulate(&trace, &cfg);
        assert!(r.all_finished(), "faults must never lose a job");
        let faults: u32 = r.records.iter().map(|j| j.faults).sum();
        let restarts: u32 = r.records.iter().map(|j| j.restarts).sum();
        println!(
            "{:<22} {:>9.0}s {:>9.0}s {:>9.1}h {:>8} {:>9}",
            if mtbf_mins == 0 {
                "none".to_string()
            } else {
                format!("{mtbf_mins} min")
            },
            r.avg_jct_secs(),
            r.p99_jct_secs(),
            r.makespan_secs() / 3600.0,
            faults,
            restarts
        );
    }
    println!("\nEvery job finishes under every fault rate: faulted jobs return to");
    println!("the queue with their completed iterations intact and are regrouped.");
}
