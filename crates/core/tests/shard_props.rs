//! Property tests for the sharded cold-start planner (DESIGN.md §8):
//!
//! * **Certified loss bound vs the unsharded oracle.** At `max_group_size
//!   = 2` the grouping objective is exactly the matching weight, so the
//!   composed sharding+pruning certificate implies `W_sharded ≥
//!   (1 − ε) · W_dense` for the same config with sharding off: a
//!   certified plan satisfies `W ≥ (1 − ε) · U` where the half-max-sum
//!   bound `U` dominates every matching (including the dense optimum),
//!   and a failed certificate at small n falls back to the dense path
//!   verbatim. Either way the inequality must hold.
//! * **Bit-identical reruns** per shard size from cold caches: the shard
//!   assembly order must never leak into results.
//! * **Structural validity**: sharded groupings are exact partitions of
//!   the job pool respecting `max_group_size`.

use muri_core::{gamma_cache, merged_efficiency, multi_round_grouping};
use muri_core::{GroupingConfig, GroupingMode, ShardBy};
use muri_matching::weight_from_f64;
use muri_workload::{SimDuration, StageProfile};
use proptest::prelude::*;

fn arb_profile() -> impl Strategy<Value = StageProfile> {
    (1u64..=50, 1u64..=50, 1u64..=50, 1u64..=50).prop_map(|(s, c, g, n)| {
        StageProfile::new(
            SimDuration::from_millis(s),
            SimDuration::from_millis(c),
            SimDuration::from_millis(g),
            SimDuration::from_millis(n),
        )
    })
}

/// A job pool drawn from a small palette of profile classes — the
/// workload shape sharding is built for (few model families repeated
/// across many jobs), which exercises the profile-class table, the LSH
/// signatures, and the shard-template dedup cache.
fn arb_class_pool() -> impl Strategy<Value = Vec<StageProfile>> {
    proptest::collection::vec(arb_profile(), 2..=5).prop_flat_map(|palette| {
        let k = palette.len();
        proptest::collection::vec(0..k, 6..=48)
            .prop_map(move |picks| picks.into_iter().map(|i| palette[i]).collect())
    })
}

fn reset_caches() {
    gamma_cache::reset();
}

/// The grouping objective at `max_group_size = 2`: summed quantized pair
/// weights, recomputed from scratch through the same `merged_efficiency`
/// + `weight_from_f64` pipeline the planner uses.
fn total_pair_weight(
    groups: &[Vec<usize>],
    profiles: &[StageProfile],
    cfg: &GroupingConfig,
) -> i64 {
    groups
        .iter()
        .filter(|g| g.len() == 2)
        .map(|g| {
            let members: Vec<StageProfile> = g.iter().map(|&i| profiles[i]).collect();
            weight_from_f64(merged_efficiency(&members, cfg.ordering))
        })
        .sum()
}

fn check_partition(groups: &[Vec<usize>], n: usize, max_group_size: usize) {
    let mut seen = vec![false; n];
    for g in groups {
        assert!(
            !g.is_empty() && g.len() <= max_group_size,
            "group size {}",
            g.len()
        );
        for &i in g {
            assert!(i < n, "member {i} out of range");
            assert!(!seen[i], "member {i} appears twice");
            seen[i] = true;
        }
    }
    assert!(seen.iter().all(|&s| s), "some job left ungrouped");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sharded output weight stays within the certified loss bound of
    /// the unsharded oracle, for both solvers, across shard sizes and
    /// candidate budgets.
    #[test]
    fn sharded_weight_meets_certified_bound_vs_unsharded_oracle(
        profiles in arb_class_pool(),
        shard_size in 3usize..=12,
        candidate_m in 1usize..=4,
        mode_greedy in any::<bool>(),
    ) {
        let mode = if mode_greedy {
            GroupingMode::GreedyMatching
        } else {
            GroupingMode::Blossom
        };
        let base = GroupingConfig {
            mode,
            max_group_size: 2,
            ..GroupingConfig::default()
        };

        reset_caches();
        let dense_cfg = GroupingConfig { shard_by: ShardBy::Off, ..base };
        let dense = multi_round_grouping(&profiles, &dense_cfg);
        let dense_w = total_pair_weight(&dense, &profiles, &dense_cfg);

        reset_caches();
        let sharded_cfg = GroupingConfig {
            shard_by: ShardBy::Force,
            shard_size,
            candidate_m,
            ..base
        };
        let sharded = multi_round_grouping(&profiles, &sharded_cfg);
        check_partition(&sharded, profiles.len(), 2);
        let sharded_w = total_pair_weight(&sharded, &profiles, &sharded_cfg);

        let eps = sharded_cfg.prune_loss_bound;
        // Quantization slack: weights are exact i64, but ε enters the
        // certificate through LOSS_BOUND_SCALE quantization — allow a
        // few units on weights in the hundreds of thousands.
        prop_assert!(
            sharded_w as f64 + 4.0 >= (1.0 - eps) * dense_w as f64,
            "sharded weight {} fell below (1-{})·{} (shard_size={}, candidate_m={}, mode={:?})",
            sharded_w, eps, dense_w, shard_size, candidate_m, mode
        );
    }
}

proptest! {
    // Fewer cases keep repeated Blossom runs affordable.
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Sharded grouping from cold caches partitions the pool into groups
    /// of at most `max_group_size`, for every shard size and mode.
    #[test]
    fn sharded_grouping_partitions_the_pool(
        profiles in proptest::collection::vec(arb_profile(), 4..=80),
        shard_size in 3usize..=9,
        max_group_size in 2usize..=4,
        mode_greedy in any::<bool>(),
    ) {
        let mode = if mode_greedy {
            GroupingMode::GreedyMatching
        } else {
            GroupingMode::Blossom
        };
        reset_caches();
        let cfg = GroupingConfig {
            mode,
            max_group_size,
            shard_by: ShardBy::Force,
            shard_size,
            ..GroupingConfig::default()
        };
        let groups = multi_round_grouping(&profiles, &cfg);
        check_partition(&groups, profiles.len(), max_group_size);
    }

    /// Re-running the same sharded config from cold caches reproduces
    /// the plan exactly, for every shard size — shard assembly order is
    /// a pure function of (profiles, config), never of execution state.
    #[test]
    fn sharded_grouping_is_deterministic_across_reruns_per_shard_size(
        profiles in arb_class_pool(),
        max_group_size in 2usize..=4,
    ) {
        for shard_size in [3usize, 5, 8, 16] {
            let cfg = GroupingConfig {
                max_group_size,
                shard_by: ShardBy::Force,
                shard_size,
                ..GroupingConfig::default()
            };
            reset_caches();
            let cold = multi_round_grouping(&profiles, &cfg);
            check_partition(&cold, profiles.len(), max_group_size);
            let warm = multi_round_grouping(&profiles, &cfg);
            prop_assert_eq!(&cold, &warm, "warm cache diverged at shard_size={}", shard_size);
            reset_caches();
            let recomputed = multi_round_grouping(&profiles, &cfg);
            prop_assert_eq!(&cold, &recomputed, "cold rerun diverged at shard_size={}", shard_size);
        }
    }
}
