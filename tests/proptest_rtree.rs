//! Model-based property tests for the R*-tree: arbitrary interleavings
//! of inserts, deletes and window queries must agree with a flat-map
//! model, and structural invariants must hold at every step.

use gir::rtree::{Mbb, Node, NodeEntries, RTree, Record};
use gir::storage::{MemPageStore, PageStore, PAGE_SIZE};
use gir_geometry::vector::PointD;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

#[derive(Debug, Clone)]
enum Op {
    Insert { coords: Vec<f64> },
    DeleteNth(usize),
    Window { lo: Vec<f64>, hi: Vec<f64> },
}

fn ops(d: usize, n: usize) -> impl Strategy<Value = Vec<Op>> {
    let insert = proptest::collection::vec(0.0f64..1.0, d).prop_map(|coords| Op::Insert { coords });
    let delete = (0usize..1000).prop_map(Op::DeleteNth);
    let window = (
        proptest::collection::vec(0.0f64..1.0, d),
        proptest::collection::vec(0.0f64..1.0, d),
    )
        .prop_map(|(a, b)| {
            let lo: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x.min(*y)).collect();
            let hi: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x.max(*y)).collect();
            Op::Window { lo, hi }
        });
    proptest::collection::vec(prop_oneof![4 => insert, 2 => delete, 1 => window], n..n * 2)
}

fn check_invariants(tree: &RTree) {
    let mut stack = vec![(tree.root_page(), true)];
    while let Some((page, is_root)) = stack.pop() {
        let node = tree.read_node(page).unwrap();
        if !is_root {
            assert!(
                node.len() >= Node::min_fill(node.capacity()),
                "underfull non-root node"
            );
        }
        if let NodeEntries::Internal(children) = &node.entries {
            for (mbb, child) in children {
                let child_mbb = tree.read_node(*child).unwrap().mbb();
                assert!(mbb.contains_mbb(&child_mbb), "entry MBB too small");
                stack.push((*child, false));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn rtree_agrees_with_model(script in ops(3, 60)) {
        let store: Arc<dyn PageStore> = Arc::new(MemPageStore::new(PAGE_SIZE));
        let mut tree = RTree::new(store, 3).unwrap();
        let mut model: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
        let mut next_id = 0u64;

        for op in script {
            match op {
                Op::Insert { coords } => {
                    tree.insert(Record::new(next_id, coords.clone())).unwrap();
                    model.insert(next_id, coords);
                    next_id += 1;
                }
                Op::DeleteNth(nth) => {
                    if !model.is_empty() {
                        let key = *model.keys().nth(nth % model.len()).unwrap();
                        let coords = model.remove(&key).unwrap();
                        prop_assert!(
                            tree.delete(key, &PointD::from(coords)).unwrap(),
                            "live record {} not found", key
                        );
                    }
                }
                Op::Window { lo, hi } => {
                    let window = Mbb {
                        lo: PointD::from(lo.clone()),
                        hi: PointD::from(hi.clone()),
                    };
                    let mut got: Vec<u64> =
                        tree.window_query(&window).unwrap().iter().map(|r| r.id).collect();
                    got.sort_unstable();
                    let mut expect: Vec<u64> = model
                        .iter()
                        .filter(|(_, c)| {
                            c.iter()
                                .enumerate()
                                .all(|(i, &x)| lo[i] <= x && x <= hi[i])
                        })
                        .map(|(&id, _)| id)
                        .collect();
                    expect.sort_unstable();
                    prop_assert_eq!(got, expect);
                }
            }
            prop_assert_eq!(tree.len() as usize, model.len());
        }
        check_invariants(&tree);

        // Final full-content comparison.
        let mut all: Vec<u64> = tree.scan_all().unwrap().iter().map(|r| r.id).collect();
        all.sort_unstable();
        let expect: Vec<u64> = model.keys().copied().collect();
        prop_assert_eq!(all, expect);
    }

    #[test]
    fn bulk_load_equals_incremental_content(rows in proptest::collection::vec(
        proptest::collection::vec(0.0f64..1.0, 2), 1..300)
    ) {
        let records: Vec<Record> = rows
            .iter()
            .enumerate()
            .map(|(i, c)| Record::new(i as u64, c.clone()))
            .collect();
        let bulk = RTree::bulk_load(
            Arc::new(MemPageStore::new(PAGE_SIZE)) as Arc<dyn PageStore>,
            &records,
        )
        .unwrap();
        let mut inc = RTree::new(
            Arc::new(MemPageStore::new(PAGE_SIZE)) as Arc<dyn PageStore>,
            2,
        )
        .unwrap();
        for r in &records {
            inc.insert(r.clone()).unwrap();
        }
        let mut a: Vec<u64> = bulk.scan_all().unwrap().iter().map(|r| r.id).collect();
        let mut b: Vec<u64> = inc.scan_all().unwrap().iter().map(|r| r.id).collect();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
        check_invariants(&bulk);
        check_invariants(&inc);
    }
}
