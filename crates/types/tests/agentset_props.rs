//! Property tests: `AgentSet` agrees with a reference `BTreeSet` model
//! under arbitrary operation sequences.

use std::collections::BTreeSet;

use busarb_types::{AgentId, AgentSet};
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum Op {
    Insert(u32),
    Remove(u32),
    Clear,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u32..=128).prop_map(Op::Insert),
        (1u32..=128).prop_map(Op::Remove),
        Just(Op::Clear),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn agrees_with_btreeset_model(ops in prop::collection::vec(op_strategy(), 0..200)) {
        let mut set = AgentSet::new();
        let mut model = BTreeSet::new();
        for op in ops {
            match op {
                Op::Insert(i) => {
                    let id = AgentId::new(i).unwrap();
                    prop_assert_eq!(set.insert(id), model.insert(i));
                }
                Op::Remove(i) => {
                    let id = AgentId::new(i).unwrap();
                    prop_assert_eq!(set.remove(id), model.remove(&i));
                }
                Op::Clear => {
                    set.clear();
                    model.clear();
                }
            }
            prop_assert_eq!(set.len(), model.len());
            prop_assert_eq!(set.is_empty(), model.is_empty());
            prop_assert_eq!(set.max().map(AgentId::get), model.iter().max().copied());
            prop_assert_eq!(set.min().map(AgentId::get), model.iter().min().copied());
            let ids: Vec<u32> = set.iter().map(AgentId::get).collect();
            let model_ids: Vec<u32> = model.iter().copied().collect();
            prop_assert_eq!(ids, model_ids);
        }
    }

    #[test]
    fn max_below_matches_model(
        members in prop::collection::btree_set(1u32..=128, 0..40),
        bound in 1u32..=128,
    ) {
        let set: AgentSet = members
            .iter()
            .map(|&i| AgentId::new(i).unwrap())
            .collect();
        let expected = members.iter().copied().filter(|&i| i < bound).max();
        prop_assert_eq!(
            set.max_below(AgentId::new(bound).unwrap()).map(AgentId::get),
            expected
        );
    }

    #[test]
    fn set_algebra_matches_model(
        a in prop::collection::btree_set(1u32..=64, 0..30),
        b in prop::collection::btree_set(1u32..=64, 0..30),
    ) {
        let to_set = |m: &BTreeSet<u32>| -> AgentSet {
            m.iter().map(|&i| AgentId::new(i).unwrap()).collect()
        };
        let sa = to_set(&a);
        let sb = to_set(&b);
        let got_union: Vec<u32> = sa.union(sb).iter().map(AgentId::get).collect();
        let want_union: Vec<u32> = a.union(&b).copied().collect();
        prop_assert_eq!(got_union, want_union);
        let got_inter: Vec<u32> = sa.intersection(sb).iter().map(AgentId::get).collect();
        let want_inter: Vec<u32> = a.intersection(&b).copied().collect();
        prop_assert_eq!(got_inter, want_inter);
        let got_diff: Vec<u32> = sa.difference(sb).iter().map(AgentId::get).collect();
        let want_diff: Vec<u32> = a.difference(&b).copied().collect();
        prop_assert_eq!(got_diff, want_diff);
    }

    #[test]
    fn full_contains_exactly_the_prefix(n in 0u32..=128) {
        let set = AgentSet::full(n);
        prop_assert_eq!(set.len() as u32, n);
        for id in AgentId::all(128) {
            prop_assert_eq!(set.contains(id), id.get() <= n);
        }
    }

    #[test]
    fn lines_required_is_minimal(n in 1u32..=1024) {
        let k = AgentId::lines_required(n);
        // n fits in k bits, and does not fit in k-1 bits.
        prop_assert!(u64::from(n) < (1u64 << k));
        if k > 0 {
            prop_assert!(u64::from(n) >= (1u64 << (k - 1)));
        }
    }
}
