//! Property tests for the γ memo's equivalence guarantee:
//! `merged_efficiency` is **bit-identical** under every permutation of
//! the member set for the permutation-invariant policies (Best/Worst),
//! and matches the direct (uncached) computation within float tolerance
//! — so the cache's key canonicalization is both exact and semantically
//! honest.

use muri_core::merged_efficiency;
use muri_interleave::{policy_efficiency, OrderingPolicy};
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

/// All permutations of `0..n` for `n <= 4`, in lexicographic order.
fn permutations(n: usize) -> Vec<Vec<usize>> {
    assert!(n <= 4);
    let mut out = Vec::new();
    let mut idx: Vec<usize> = (0..n).collect();
    // Heap-free lexicographic enumeration: small n, recursion is fine.
    fn rec(prefix: &mut Vec<usize>, rest: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if rest.is_empty() {
            out.push(prefix.clone());
            return;
        }
        for i in 0..rest.len() {
            let x = rest.remove(i);
            prefix.push(x);
            rec(prefix, rest, out);
            prefix.pop();
            rest.insert(i, x);
        }
    }
    rec(&mut Vec::new(), &mut idx, &mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn merged_efficiency_is_permutation_invariant(
        profiles in proptest::collection::vec(arb_profile(), 1..=4),
    ) {
        for policy in [OrderingPolicy::Best, OrderingPolicy::Worst] {
            let reference = merged_efficiency(&profiles, policy);
            for perm in permutations(profiles.len()) {
                let permuted: Vec<StageProfile> =
                    perm.iter().map(|&i| profiles[i]).collect();
                // Cache canonicalization: exact at the bit level.
                let cached = merged_efficiency(&permuted, policy);
                prop_assert_eq!(
                    cached.to_bits(),
                    reference.to_bits(),
                    "cached γ differs across permutations: {} vs {}",
                    cached,
                    reference
                );
                // Semantic honesty: the direct, uncached computation on
                // the permuted order agrees within float tolerance.
                let direct = policy_efficiency(&permuted, policy);
                prop_assert!(
                    (direct - reference).abs() < 1e-9,
                    "direct γ {} diverges from canonical {}",
                    direct,
                    reference
                );
            }
        }
    }
}
