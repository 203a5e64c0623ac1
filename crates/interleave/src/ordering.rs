//! Stage-ordering enumeration (the paper's Fig. 6 / §4.2).
//!
//! "Given multiple resources, there are several orderings to interleave
//! two jobs, and different orderings have different interleaving
//! efficiency. … we enumerate all the orderings to find the best one."
//!
//! An ordering is an assignment of distinct phase offsets to the jobs of a
//! group over the group's effective resource cycle
//! ([`crate::efficiency::effective_cycle`]). Eq. 3 is rotation-invariant
//! (shifting every offset by a constant permutes the phase sum), so the
//! first job is pinned to offset 0 and the rest are enumerated: at most
//! `(k−1)!/(k−p)! ≤ 6` assignments for `k = 4`, cheap enough to do exactly
//! — as the paper notes.

use crate::efficiency::{
    effective_cycle, effective_cycle_buf, group_efficiency_on_cycle, group_iteration_time_on_cycle,
};
use muri_workload::{ResourceKind, SimDuration, StageProfile, NUM_RESOURCES};
use serde::{Deserialize, Serialize};

/// How a group picks its stage ordering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum OrderingPolicy {
    /// Enumerate all orderings and take the one minimizing the group
    /// iteration time (the paper's design).
    #[default]
    Best,
    /// Take the ordering *maximizing* iteration time — the paper's
    /// "Muri-L with worst ordering" ablation (Fig. 11).
    Worst,
    /// The canonical assignment `o_i = i` without enumeration
    /// (Eq. 3 as literally written).
    Canonical,
}

/// The chosen ordering for a group: the effective cycle, distinct phase
/// offsets per job, and the resulting group iteration time.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChosenOrdering {
    /// The effective resource cycle the offsets index into.
    pub cycle: Vec<ResourceKind>,
    /// `offsets[i]` is the phase offset of the group's `i`-th job.
    pub offsets: Vec<usize>,
    /// Group per-iteration time under these offsets (Eq. 3).
    pub iteration_time: SimDuration,
}

/// Precomputed assignment tables for every `(p, k)` with `p ≤ k ≤ 4`, in
/// the exact depth-first order the recursive enumerator produces (ties in
/// the Best/Worst search are broken by "first enumerated wins", so the
/// order is observable). With `k ≤ NUM_RESOURCES = 4` there are at most
/// six assignments of length at most four, so the whole search space fits
/// in a handful of static slices and the hot path never allocates.
const ASSIGN_P0: &[&[usize]] = &[&[]];
const ASSIGN_P1: &[&[usize]] = &[&[0]];
const ASSIGN_P2_K2: &[&[usize]] = &[&[0, 1]];
const ASSIGN_P2_K3: &[&[usize]] = &[&[0, 1], &[0, 2]];
const ASSIGN_P2_K4: &[&[usize]] = &[&[0, 1], &[0, 2], &[0, 3]];
const ASSIGN_P3_K3: &[&[usize]] = &[&[0, 1, 2], &[0, 2, 1]];
const ASSIGN_P3_K4: &[&[usize]] = &[
    &[0, 1, 2],
    &[0, 1, 3],
    &[0, 2, 1],
    &[0, 2, 3],
    &[0, 3, 1],
    &[0, 3, 2],
];
const ASSIGN_P4_K4: &[&[usize]] = &[
    &[0, 1, 2, 3],
    &[0, 1, 3, 2],
    &[0, 2, 1, 3],
    &[0, 2, 3, 1],
    &[0, 3, 1, 2],
    &[0, 3, 2, 1],
];

/// The static assignment table for `(p, k)`, or `None` when `k` exceeds
/// the canonical cycle length and the recursive enumerator must run.
fn assignment_table(p: usize, k: usize) -> Option<&'static [&'static [usize]]> {
    Some(match (p, k) {
        (0, _) => ASSIGN_P0,
        (1, 1..=4) => ASSIGN_P1,
        (2, 2) => ASSIGN_P2_K2,
        (2, 3) => ASSIGN_P2_K3,
        (2, 4) => ASSIGN_P2_K4,
        (3, 3) => ASSIGN_P3_K3,
        (3, 4) => ASSIGN_P3_K4,
        (4, 4) => ASSIGN_P4_K4,
        _ => return None,
    })
}

/// Enumerate every distinct-offset assignment for `p` jobs over a cycle of
/// length `k`, with the first job pinned to offset 0. Returns `[[]]` for
/// `p = 0`. Panics if `p > k`.
pub fn enumerate_assignments(p: usize, k: usize) -> Vec<Vec<usize>> {
    assert!(
        p <= k,
        "cannot give {p} jobs distinct offsets over a {k}-cycle"
    );
    assert!(p <= NUM_RESOURCES, "at most {NUM_RESOURCES} jobs per group");
    if let Some(table) = assignment_table(p, k) {
        return table.iter().map(|a| a.to_vec()).collect();
    }
    if p == 0 {
        return vec![Vec::new()];
    }
    let mut out = Vec::new();
    let mut current = vec![0usize];
    let mut used = vec![false; k];
    used[0] = true;
    fn rec(
        p: usize,
        k: usize,
        current: &mut Vec<usize>,
        used: &mut [bool],
        out: &mut Vec<Vec<usize>>,
    ) {
        if current.len() == p {
            out.push(current.clone());
            return;
        }
        for o in 1..k {
            if !used[o] {
                used[o] = true;
                current.push(o);
                rec(p, k, current, used, out);
                current.pop();
                used[o] = false;
            }
        }
    }
    rec(p, k, &mut current, &mut used, &mut out);
    out
}

/// Identity offsets `[0, 1, 2, 3]`, sliced for `Canonical` orderings.
const IDENTITY_OFFSETS: [usize; NUM_RESOURCES] = [0, 1, 2, 3];

/// Search the static assignment table for the offsets optimizing the
/// group iteration time (minimizing for `Best`, maximizing for `Worst`).
/// Ties break toward the first enumerated assignment, exactly like the
/// allocating search in [`choose_ordering`].
fn search_assignments(
    profiles: &[StageProfile],
    cycle: &[ResourceKind],
    policy: OrderingPolicy,
) -> (&'static [usize], SimDuration) {
    // The effective cycle never exceeds NUM_RESOURCES, so the table
    // always exists and is non-empty for 1 ≤ p ≤ k.
    let table = assignment_table(profiles.len(), cycle.len()).unwrap_or(ASSIGN_P0);
    let mut it = table.iter();
    let first = it.next().copied().unwrap_or(&[]);
    let mut best = (first, group_iteration_time_on_cycle(profiles, first, cycle));
    for &offsets in it {
        let t = group_iteration_time_on_cycle(profiles, offsets, cycle);
        let better = match policy {
            OrderingPolicy::Best => t < best.1,
            OrderingPolicy::Worst => t > best.1,
            OrderingPolicy::Canonical => false,
        };
        if better {
            best = (offsets, t);
        }
    }
    best
}

/// Interleaving efficiency γ of `profiles` under `policy`, computed
/// without heap allocation: the effective cycle lives on the stack and
/// the ordering search walks the precomputed assignment tables. Returns
/// exactly `group_efficiency(profiles, &choose_ordering(profiles,
/// policy).offsets)`, and 0 for an empty group.
pub fn policy_efficiency(profiles: &[StageProfile], policy: OrderingPolicy) -> f64 {
    assert!(
        profiles.len() <= NUM_RESOURCES,
        "group of {} exceeds k = {NUM_RESOURCES}",
        profiles.len()
    );
    if profiles.is_empty() {
        return 0.0;
    }
    let (kinds, k) = effective_cycle_buf(profiles);
    let cycle = &kinds[..k];
    let offsets: &[usize] = match policy {
        OrderingPolicy::Canonical => &IDENTITY_OFFSETS[..profiles.len()],
        OrderingPolicy::Best | OrderingPolicy::Worst => {
            search_assignments(profiles, cycle, policy).0
        }
    };
    group_efficiency_on_cycle(profiles, offsets, cycle)
}

/// Choose an ordering for `profiles` according to `policy`.
pub fn choose_ordering(profiles: &[StageProfile], policy: OrderingPolicy) -> ChosenOrdering {
    assert!(
        profiles.len() <= NUM_RESOURCES,
        "group of {} exceeds k = {NUM_RESOURCES}",
        profiles.len()
    );
    let cycle = effective_cycle(profiles);
    if profiles.is_empty() {
        return ChosenOrdering {
            cycle,
            offsets: Vec::new(),
            iteration_time: SimDuration::ZERO,
        };
    }
    match policy {
        OrderingPolicy::Canonical => {
            let offsets: Vec<usize> = (0..profiles.len()).collect();
            let iteration_time = group_iteration_time_on_cycle(profiles, &offsets, &cycle);
            ChosenOrdering {
                cycle,
                offsets,
                iteration_time,
            }
        }
        OrderingPolicy::Best | OrderingPolicy::Worst => {
            let (offsets, iteration_time) = search_assignments(profiles, &cycle, policy);
            ChosenOrdering {
                cycle,
                offsets: offsets.to_vec(),
                iteration_time,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::efficiency::group_efficiency;
    use muri_workload::SimDuration;

    fn secs(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    #[test]
    fn assignment_counts() {
        assert_eq!(enumerate_assignments(0, 4).len(), 1);
        assert_eq!(enumerate_assignments(1, 4).len(), 1);
        assert_eq!(enumerate_assignments(2, 4).len(), 3);
        assert_eq!(enumerate_assignments(3, 4).len(), 6);
        assert_eq!(enumerate_assignments(4, 4).len(), 6);
        assert_eq!(enumerate_assignments(2, 2).len(), 1);
        assert_eq!(enumerate_assignments(2, 3).len(), 2);
    }

    #[test]
    fn assignments_are_distinct_offsets() {
        for k in 1..=4usize {
            for p in 1..=k {
                for a in enumerate_assignments(p, k) {
                    assert_eq!(a[0], 0, "first job pinned to offset 0");
                    let mut sorted = a.clone();
                    sorted.sort_unstable();
                    sorted.dedup();
                    assert_eq!(sorted.len(), p, "distinct offsets in {a:?}");
                    assert!(sorted.iter().all(|&o| o < k));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "distinct offsets")]
    fn oversized_group_rejected() {
        let _ = enumerate_assignments(3, 2);
    }

    #[test]
    fn best_beats_worst_on_figure6() {
        // Fig. 6's two jobs (all four resources in use): best T=5, worst T=6.
        let a = StageProfile::new(secs(1), secs(2), secs(1), secs(1));
        let b = StageProfile::new(secs(1), secs(1), secs(2), secs(1));
        let best = choose_ordering(&[a, b], OrderingPolicy::Best);
        let worst = choose_ordering(&[a, b], OrderingPolicy::Worst);
        assert_eq!(best.iteration_time, secs(5));
        assert_eq!(worst.iteration_time, secs(6));
        assert_eq!(best.cycle.len(), 4);
    }

    #[test]
    fn two_resource_pair_uses_short_cycle() {
        // Fig. 4's A and B only use CPU+GPU: the chosen ordering runs on a
        // 2-cycle and recovers the paper's T = 3.
        let a = StageProfile::new(SimDuration::ZERO, secs(2), secs(1), SimDuration::ZERO);
        let b = StageProfile::new(SimDuration::ZERO, secs(1), secs(2), SimDuration::ZERO);
        let best = choose_ordering(&[a, b], OrderingPolicy::Best);
        assert_eq!(best.cycle.len(), 2);
        assert_eq!(best.iteration_time, secs(3));
    }

    #[test]
    fn canonical_uses_identity_offsets() {
        let p = StageProfile::from_secs_f64(1.0, 1.0, 1.0, 1.0);
        let c = choose_ordering(&[p, p, p], OrderingPolicy::Canonical);
        assert_eq!(c.offsets, vec![0, 1, 2]);
    }

    #[test]
    fn best_is_lower_bound_over_all_assignments() {
        let a = StageProfile::new(secs(3), secs(1), secs(4), secs(2));
        let b = StageProfile::new(secs(1), secs(5), secs(1), secs(1));
        let c = StageProfile::new(secs(2), secs(2), secs(2), secs(6));
        let best = choose_ordering(&[a, b, c], OrderingPolicy::Best);
        for offsets in enumerate_assignments(3, best.cycle.len()) {
            assert!(
                group_iteration_time_on_cycle(&[a, b, c], &offsets, &best.cycle)
                    >= best.iteration_time
            );
        }
    }

    #[test]
    fn assignment_tables_match_recursive_enumeration() {
        // The static tables must reproduce the recursive DFS order exactly
        // (the Best/Worst tie-break depends on enumeration order).
        fn reference(p: usize, k: usize) -> Vec<Vec<usize>> {
            if p == 0 {
                return vec![Vec::new()];
            }
            let mut out = Vec::new();
            let mut current = vec![0usize];
            let mut used = vec![false; k];
            used[0] = true;
            fn rec(
                p: usize,
                k: usize,
                cur: &mut Vec<usize>,
                used: &mut [bool],
                out: &mut Vec<Vec<usize>>,
            ) {
                if cur.len() == p {
                    out.push(cur.clone());
                    return;
                }
                for o in 1..k {
                    if !used[o] {
                        used[o] = true;
                        cur.push(o);
                        rec(p, k, cur, used, out);
                        cur.pop();
                        used[o] = false;
                    }
                }
            }
            rec(p, k, &mut current, &mut used, &mut out);
            out
        }
        for k in 1..=4usize {
            for p in 0..=k {
                assert_eq!(
                    enumerate_assignments(p, k),
                    reference(p, k),
                    "table mismatch at p={p} k={k}"
                );
            }
        }
    }

    #[test]
    fn policy_efficiency_matches_choose_ordering() {
        let profiles = [
            StageProfile::new(secs(3), secs(1), secs(4), secs(2)),
            StageProfile::new(secs(1), secs(5), secs(1), secs(1)),
            StageProfile::new(secs(2), secs(2), secs(2), secs(6)),
            StageProfile::new(SimDuration::ZERO, secs(2), secs(1), SimDuration::ZERO),
        ];
        for policy in [
            OrderingPolicy::Best,
            OrderingPolicy::Worst,
            OrderingPolicy::Canonical,
        ] {
            for len in 0..=profiles.len() {
                let ps = &profiles[..len];
                let chosen = choose_ordering(ps, policy);
                let via_chosen = group_efficiency(ps, &chosen.offsets);
                let direct = policy_efficiency(ps, policy);
                assert_eq!(
                    direct.to_bits(),
                    via_chosen.to_bits(),
                    "{policy:?} len={len}: {direct} vs {via_chosen}"
                );
            }
        }
    }

    #[test]
    fn empty_group_ordering() {
        let c = choose_ordering(&[], OrderingPolicy::Best);
        assert!(c.offsets.is_empty());
        assert_eq!(c.iteration_time, SimDuration::ZERO);
    }

    #[test]
    fn singleton_ordering_is_serial_time() {
        let p = StageProfile::new(secs(1), secs(2), secs(3), secs(4));
        for policy in [
            OrderingPolicy::Best,
            OrderingPolicy::Worst,
            OrderingPolicy::Canonical,
        ] {
            let c = choose_ordering(&[p], policy);
            assert_eq!(c.iteration_time, p.iteration_time(), "{policy:?}");
        }
    }
}
