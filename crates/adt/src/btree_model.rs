//! The paper's dictionary "implemented as a B-tree", checked as one:
//! [`BTreeDict`] driven through `apply` must keep its keys in order and
//! answer every insert, delete, lookup and range scan exactly as the
//! standard library's `BTreeMap` does.

mod tests {
    use crate::BTreeDict;
    use obase_core::object::SemanticType;
    use obase_core::op::Operation;
    use obase_core::value::Value;
    use obase_rng::{ChaCha8Rng, Rng, SeedableRng};
    use std::collections::BTreeMap;
    use std::sync::Arc;

    /// The `[k, v]` pairs of a state, asserting that its keys strictly
    /// ascend.
    fn entries(state: &Value) -> Vec<(i64, i64)> {
        let entries: Vec<(i64, i64)> = state
            .as_list()
            .expect("a BTreeDict state is a list")
            .iter()
            .map(|p| match p.as_list() {
                Some([Value::Int(k), Value::Int(v)]) => (*k, *v),
                _ => panic!("malformed pair {p:?}"),
            })
            .collect();
        assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "keys out of order: {entries:?}"
        );
        entries
    }

    fn encode(model: &BTreeMap<i64, i64>) -> Value {
        Value::list(
            model
                .iter()
                .map(|(k, v)| Value::list([Value::Int(*k), Value::Int(*v)])),
        )
    }

    fn same_payload(a: &Value, b: &Value) -> bool {
        matches!((a, b), (Value::List(x), Value::List(y)) if Arc::ptr_eq(x, y))
    }

    fn int(v: Value) -> Option<i64> {
        match v {
            Value::Int(i) => Some(i),
            Value::Unit => None,
            other => panic!("expected Int or Unit, got {other:?}"),
        }
    }

    /// A `BTreeDict` state driven through `apply`. Every operation must
    /// leave its input unchanged and its result's keys ascending; reads and
    /// absent deletes must return their input's payload.
    struct Dict(Value);

    impl Dict {
        fn new() -> Self {
            Dict(BTreeDict.initial_state())
        }

        fn apply(&mut self, op: Operation) -> Value {
            let before = entries(&self.0);
            let (next, ret) = BTreeDict.apply(&self.0, &op).expect("well-formed");
            assert_eq!(entries(&self.0), before, "{op:?} wrote through its input");
            entries(&next);
            let unchanged =
                BTreeDict.op_is_readonly(&op) || (op.name == "Delete" && ret == Value::Unit);
            if unchanged {
                assert!(same_payload(&self.0, &next), "{op:?} copied its input");
            }
            self.0 = next;
            ret
        }

        fn insert(&mut self, k: i64, v: i64) -> Option<i64> {
            int(self.apply(Operation::new("Insert", [Value::Int(k), Value::Int(v)])))
        }

        fn remove(&mut self, k: i64) -> Option<i64> {
            int(self.apply(Operation::unary("Delete", k)))
        }

        fn get(&mut self, k: i64) -> Option<i64> {
            int(self.apply(Operation::unary("Lookup", k)))
        }

        fn range(&mut self, lo: i64, hi: i64) -> Vec<i64> {
            let ret = self.apply(Operation::new("Range", [Value::Int(lo), Value::Int(hi)]));
            ret.as_list()
                .expect("Range returns a list")
                .iter()
                .map(|v| int(v.clone()).expect("Range returns values"))
                .collect()
        }

        fn keys(&self) -> Vec<i64> {
            entries(&self.0).into_iter().map(|(k, _)| k).collect()
        }

        fn len(&self) -> usize {
            entries(&self.0).len()
        }
    }

    #[test]
    fn insert_get_remove_small() {
        let mut t = Dict::new();
        assert_eq!(t.len(), 0);
        assert_eq!(t.insert(2, 20), None);
        assert_eq!(t.insert(1, 10), None);
        assert_eq!(t.insert(3, 30), None);
        assert_eq!(t.len(), 3);
        assert_eq!(t.get(2), Some(20));
        assert_eq!(t.insert(2, 22), Some(20));
        assert_eq!(t.len(), 3);
        assert_eq!(t.remove(1), Some(10));
        assert_eq!(t.remove(1), None);
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(3), Some(30));
        assert_eq!(t.get(1), None);
    }

    #[test]
    fn ordered_iteration_and_range() {
        let mut t = Dict::new();
        for i in [5, 1, 9, 3, 7, 2, 8, 4, 6, 0] {
            t.insert(i, -i);
        }
        assert_eq!(t.keys(), (0..10).collect::<Vec<_>>());
        assert_eq!(t.range(3, 6), vec![-3, -4, -5, -6]);
        assert_eq!(t.range(-5, 0), vec![0]);
        assert_eq!(t.range(9, 20), vec![-9]);
        assert_eq!(t.range(6, 3), Vec::<i64>::new(), "lo > hi is empty");
        assert_eq!(t.range(i64::MIN, i64::MAX).len(), 10);
    }

    #[test]
    fn empty_tree_queries() {
        let mut t = Dict::new();
        assert_eq!(t.get(1), None);
        assert_eq!(t.keys(), Vec::<i64>::new());
        assert!(t.range(0, 10).is_empty());
        assert!(t.range(i64::MIN, i64::MAX).is_empty());
        assert_eq!(t.remove(1), None);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn reverse_and_random_orders() {
        let mut shuffled: Vec<i64> = (0..200).collect();
        let mut rng = ChaCha8Rng::seed_from_u64(0x0DE5);
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.gen_range(0..=i));
        }
        let orders = [(0..200).rev().collect::<Vec<i64>>(), shuffled];
        for order in orders {
            let mut t = Dict::new();
            for &i in &order {
                assert_eq!(t.insert(i, i), None);
            }
            assert_eq!(t.keys(), (0..200).collect::<Vec<_>>());
            // Remove odd keys.
            for i in (1..200).step_by(2) {
                assert_eq!(t.remove(i), Some(i));
            }
            assert_eq!(t.len(), 100);
            for i in 0..200 {
                assert_eq!(t.get(i), (i % 2 == 0).then_some(i));
            }
        }
    }

    /// Seeded operation sequences against `std::collections::BTreeMap`, from
    /// the empty state, the sample states and a scenario-style preload:
    /// every return value matches, every state stays strictly ascending and
    /// equal to the model, reads and absent deletes share their input's
    /// payload, and no operation writes through its input.
    #[test]
    fn behaves_like_btreemap() {
        let d = BTreeDict;
        let preload =
            Value::list((0..48i64).map(|k| Value::list([Value::Int(k), Value::Int(10 * k)])));
        let mut starts = d.sample_states();
        starts.push(preload);
        let extremes = [i64::MIN, i64::MIN + 1, -1, 0, i64::MAX - 1, i64::MAX];
        let mut rng = ChaCha8Rng::seed_from_u64(0xB7EE);
        for (s, start) in starts.iter().enumerate() {
            for case in 0..16 {
                let mut state = start.clone();
                let mut model: BTreeMap<i64, i64> = entries(&state).into_iter().collect();
                for step in 0..200 {
                    let mut key = || {
                        if rng.gen_bool(0.1) {
                            extremes[rng.gen_range(0..extremes.len())]
                        } else {
                            rng.gen_range(-16..64i64)
                        }
                    };
                    let (k, k2) = (key(), key());
                    let v = rng.gen_range(-1_000..1_000i64);
                    let op = match rng.gen_range(0..4u32) {
                        0 => Operation::new("Insert", [Value::Int(k), Value::Int(v)]),
                        1 => Operation::unary("Delete", k),
                        2 => Operation::unary("Lookup", k),
                        _ => Operation::new("Range", [Value::Int(k), Value::Int(k2)]),
                    };
                    let at = format!("start {s}, case {case}, step {step}: {op:?}");
                    let before = encode(&model);
                    let (next, ret) = d.apply(&state, &op).expect(&at);
                    assert_eq!(state, before, "{at} wrote through its input");
                    let opt = |v: Option<i64>| v.map(Value::Int).unwrap_or(Value::Unit);
                    let (want, shares) = match op.name.as_str() {
                        "Insert" => (opt(model.insert(k, v)), false),
                        "Delete" => {
                            let removed = model.remove(&k);
                            (opt(removed), removed.is_none())
                        }
                        "Lookup" => (opt(model.get(&k).copied()), true),
                        _ => {
                            let values = if k <= k2 {
                                model.range(k..=k2).map(|(_, v)| Value::Int(*v)).collect()
                            } else {
                                Vec::new()
                            };
                            (Value::list(values), true)
                        }
                    };
                    assert_eq!(ret, want, "{at}");
                    assert_eq!(next, encode(&model), "{at}");
                    entries(&next);
                    assert_eq!(same_payload(&state, &next), shares, "{at}");
                    state = next;
                }
            }
        }
    }
}
