//! A persistent ordered map: a B-tree whose nodes sit behind [`Arc`].
//!
//! The paper's own example of an object with internal structure is a
//! dictionary "implemented as a B-tree" (§2). [`PMap`] is that B-tree made
//! *persistent* by path copying (Driscoll, Sarnak, Sleator & Tarjan, "Making
//! data structures persistent", JCSS 1989): a clone shares every node with
//! its original, and a write copies, through [`Arc::make_mut`], only the
//! nodes it changes — the nodes from the root down to the entry, plus at
//! most one sibling per level when a removal rebalances. A map nobody else
//! holds is therefore mutated in place, and a shared one costs O(log n) node
//! copies per write instead of a copy of every entry.
//!
//! A node keeps its keys behind an `Arc` of their own, apart from its values
//! and children. Copying a node for a write that leaves its keys alone — an
//! overwrite, or any write on the nodes above the one whose key set changes
//! — therefore clones values and child pointers but no key.
//!
//! `Eq`, `Ord`, `Hash` and `Debug` are defined over the in-order entries
//! exactly as [`std::collections::BTreeMap`] defines them, so the two are
//! interchangeable wherever a map is compared, hashed or printed.

use std::borrow::Borrow;
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Minimum degree: a node other than the root holds between `B - 1` and
/// `2B - 1` entries, and an internal node holds one child more than it has
/// entries (a fanout of at most `2B`). Copying an internal node bumps the
/// reference count of every child, so a write's path copy costs about
/// `B · log_B n` bumps; a small `B` keeps that low, and a lookup's cost
/// hardly depends on it (`experiments e14` times both).
const B: usize = 4;
const MAX: usize = 2 * B - 1;
const MIN: usize = B - 1;
/// More levels than any map in memory can have: below the root every level
/// at least doubles the number of nodes.
const MAX_DEPTH: usize = 64;

/// A persistent ordered map with O(1) clone and O(log n) lookups and
/// writes; see the [module documentation](self).
pub struct PMap<K, V> {
    root: Option<Arc<Node<K, V>>>,
    len: usize,
}

#[derive(Clone)]
struct Node<K, V> {
    /// Sorted; shared between a node and its copies until one of them
    /// changes its key set.
    keys: Arc<Vec<K>>,
    /// `vals[i]` is the value under `keys[i]`.
    vals: Vec<V>,
    /// Empty in a leaf; `keys.len() + 1` subtrees in an internal node.
    children: Vec<Arc<Node<K, V>>>,
}

/// The way to an entry, found by one read-only descent: the child taken at
/// each level above the node that holds the entry, then the entry's index
/// in that node. A write then path-copies along it without searching again.
struct Path {
    children: [u8; MAX_DEPTH],
    depth: usize,
    entry: usize,
}

impl Path {
    fn children(&self) -> &[u8] {
        &self.children[..self.depth]
    }
}

/// What an insertion below a node did.
enum Inserted<K, V> {
    /// The key was present; its old value.
    Replaced(V),
    /// A new entry was added and the node still fits.
    Added,
    /// A new entry was added and the node split: the median entry and the
    /// new right sibling go up to the parent.
    Split((K, V), Arc<Node<K, V>>),
}

impl<K, V> PMap<K, V> {
    /// An empty map; allocates nothing.
    pub fn new() -> Self {
        PMap { root: None, len: 0 }
    }

    /// The number of entries, in O(1).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The entries in key order.
    pub fn iter(&self) -> Iter<'_, K, V> {
        let mut iter = Iter { stack: Vec::new() };
        if let Some(root) = &self.root {
            iter.descend_left(root);
        }
        iter
    }

    /// Whether the two maps share their root node, and so every entry.
    /// Two empty maps always do.
    pub fn ptr_eq(&self, other: &Self) -> bool {
        match (&self.root, &other.root) {
            (Some(a), Some(b)) => Arc::ptr_eq(a, b),
            (None, None) => true,
            _ => false,
        }
    }

    /// The number of levels of the tree: 0 for an empty map, 1 for a lone
    /// leaf.
    pub fn depth(&self) -> usize {
        let mut depth = 0;
        let mut node = self.root.as_deref();
        while let Some(n) = node {
            depth += 1;
            node = n.children.first().map(|c| &**c);
        }
        depth
    }

    /// How many of this map's nodes `other` does not share: the nodes a
    /// write that turned `other` into `self` had to copy or create. A
    /// diagnostic for the path-copying contract.
    pub fn unshared_nodes(&self, other: &Self) -> usize {
        let mut theirs = std::collections::HashSet::new();
        let mut todo: Vec<&Arc<Node<K, V>>> = other.root.iter().collect();
        while let Some(n) = todo.pop() {
            theirs.insert(Arc::as_ptr(n));
            todo.extend(&n.children);
        }
        let mut unshared = 0;
        let mut todo: Vec<&Arc<Node<K, V>>> = self.root.iter().collect();
        while let Some(n) = todo.pop() {
            // A shared node's whole subtree is shared with it.
            if !theirs.contains(&Arc::as_ptr(n)) {
                unshared += 1;
                todo.extend(&n.children);
            }
        }
        unshared
    }
}

impl<K: Ord, V> PMap<K, V> {
    /// The value stored under `key`.
    pub fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let mut node = self.root.as_deref()?;
        loop {
            match node.search(key) {
                Ok(i) => return Some(&node.vals[i]),
                Err(i) => node = node.children.get(i)?,
            }
        }
    }

    /// Whether `key` is present.
    pub fn contains_key<Q>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.get(key).is_some()
    }

    /// The path to `key`'s entry, or `None` if it is missing.
    fn find<Q>(&self, key: &Q) -> Option<Path>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let mut path = Path {
            children: [0; MAX_DEPTH],
            depth: 0,
            entry: 0,
        };
        let mut node = self.root.as_deref()?;
        loop {
            match node.search(key) {
                Ok(i) => {
                    path.entry = i;
                    return Some(path);
                }
                Err(i) => {
                    node = node.children.get(i)?;
                    path.children[path.depth] = i as u8;
                    path.depth += 1;
                }
            }
        }
    }
}

impl<K: Ord + Clone, V: Clone> PMap<K, V> {
    /// A mutable reference to the value under `key`, copying the nodes from
    /// the root down to it that are shared. The key is searched for once; a
    /// missing key copies nothing.
    pub fn get_mut<Q>(&mut self, key: &Q) -> Option<&mut V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let path = self.find(key)?;
        let mut node = Arc::make_mut(self.root.as_mut()?);
        for &i in path.children() {
            node = Arc::make_mut(&mut node.children[usize::from(i)]);
        }
        Some(&mut node.vals[path.entry])
    }

    /// Inserts `value` under `key` and returns the value it replaces. As in
    /// [`BTreeMap::insert`](std::collections::BTreeMap::insert), a key
    /// already present is kept and the given one dropped.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        let Some(root) = self.root.as_mut() else {
            self.root = Some(Arc::new(Node::leaf(key, value)));
            self.len = 1;
            return None;
        };
        match Arc::make_mut(root).insert(key, value) {
            Inserted::Replaced(old) => return Some(old),
            Inserted::Added => {}
            Inserted::Split(median, right) => {
                let left = self.root.take().expect("the root was just written");
                let mut root = Node::leaf(median.0, median.1);
                root.children = vec![left, right];
                self.root = Some(Arc::new(root));
            }
        }
        self.len += 1;
        None
    }

    /// Removes `key` and returns its value. The key is searched for once; a
    /// missing key copies nothing.
    pub fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let path = self.find(key)?;
        let root = Arc::make_mut(self.root.as_mut()?);
        let (_, value) = root.remove_at(path.children(), path.entry);
        self.len -= 1;
        if root.keys.is_empty() {
            // An emptied internal root has one child left, which becomes the
            // root; an emptied leaf root leaves the map empty.
            self.root = root.children.pop();
        }
        Some(value)
    }
}

impl<K, V> Node<K, V> {
    fn leaf(key: K, value: V) -> Self {
        Node {
            keys: Arc::new(vec![key]),
            vals: vec![value],
            children: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.keys.len()
    }

    fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }

    fn search<Q>(&self, key: &Q) -> Result<usize, usize>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.keys.binary_search_by(|k| k.borrow().cmp(key))
    }
}

impl<K: Clone, V> Node<K, V> {
    /// The keys, copied first if another node still shares them.
    fn keys_mut(&mut self) -> &mut Vec<K> {
        Arc::make_mut(&mut self.keys)
    }

    fn insert_entry(&mut self, i: usize, (key, value): (K, V)) {
        self.keys_mut().insert(i, key);
        self.vals.insert(i, value);
    }

    fn push_entry(&mut self, (key, value): (K, V)) {
        self.keys_mut().push(key);
        self.vals.push(value);
    }

    fn remove_entry(&mut self, i: usize) -> (K, V) {
        (self.keys_mut().remove(i), self.vals.remove(i))
    }

    fn pop_entry(&mut self) -> (K, V) {
        let key = self
            .keys_mut()
            .pop()
            .expect("a non-root node is never empty");
        (key, self.vals.pop().expect("one value per key"))
    }

    fn replace_entry(&mut self, i: usize, (key, value): (K, V)) -> (K, V) {
        (
            std::mem::replace(&mut self.keys_mut()[i], key),
            std::mem::replace(&mut self.vals[i], value),
        )
    }
}

impl<K: Ord + Clone, V: Clone> Node<K, V> {
    fn insert(&mut self, key: K, value: V) -> Inserted<K, V> {
        let i = match self.search(&key) {
            Ok(i) => return Inserted::Replaced(std::mem::replace(&mut self.vals[i], value)),
            Err(i) => i,
        };
        if self.is_leaf() {
            self.insert_entry(i, (key, value));
        } else {
            match Arc::make_mut(&mut self.children[i]).insert(key, value) {
                Inserted::Split(median, right) => {
                    self.insert_entry(i, median);
                    self.children.insert(i + 1, right);
                }
                done => return done,
            }
        }
        if self.len() <= MAX {
            return Inserted::Added;
        }
        // 2B entries: the left half keeps B, the median goes up and the new
        // right sibling takes the last B - 1; an internal node's 2B + 1
        // children split B + 1 / B.
        let right = Node {
            keys: Arc::new(self.keys_mut().split_off(B + 1)),
            vals: self.vals.split_off(B + 1),
            children: if self.is_leaf() {
                Vec::new()
            } else {
                self.children.split_off(B + 1)
            },
        };
        Inserted::Split(self.pop_entry(), Arc::new(right))
    }

    /// Removes the entry at `entry` in the node reached from this one by
    /// taking the children `path`.
    fn remove_at(&mut self, path: &[u8], entry: usize) -> (K, V) {
        let Some((&i, below)) = path.split_first() else {
            if self.is_leaf() {
                return self.remove_entry(entry);
            }
            // Replace the entry by its in-order predecessor, the last entry
            // of the subtree to its left.
            let pred = Arc::make_mut(&mut self.children[entry]).remove_last();
            let removed = self.replace_entry(entry, pred);
            self.rebalance(entry);
            return removed;
        };
        let i = usize::from(i);
        let removed = Arc::make_mut(&mut self.children[i]).remove_at(below, entry);
        self.rebalance(i);
        removed
    }

    fn remove_last(&mut self) -> (K, V) {
        if self.is_leaf() {
            return self.pop_entry();
        }
        let last = self.children.len() - 1;
        let entry = Arc::make_mut(&mut self.children[last]).remove_last();
        self.rebalance(last);
        entry
    }

    /// Restores child `i` to at least `MIN` entries after a removal below
    /// it: borrow an entry through this node from a sibling that can spare
    /// one, or else merge the child with a sibling and their separator.
    fn rebalance(&mut self, i: usize) {
        if self.children[i].len() >= MIN {
            return;
        }
        if i > 0 && self.children[i - 1].len() > MIN {
            let mut children = std::mem::take(&mut self.children);
            let (before, from_child) = children.split_at_mut(i);
            let left = Arc::make_mut(&mut before[i - 1]);
            let child = Arc::make_mut(&mut from_child[0]);
            let up = left.pop_entry();
            child.insert_entry(0, self.replace_entry(i - 1, up));
            if let Some(grandchild) = left.children.pop() {
                child.children.insert(0, grandchild);
            }
            self.children = children;
        } else if i + 1 < self.children.len() && self.children[i + 1].len() > MIN {
            let mut children = std::mem::take(&mut self.children);
            let (to_child, after) = children.split_at_mut(i + 1);
            let child = Arc::make_mut(&mut to_child[i]);
            let right = Arc::make_mut(&mut after[0]);
            let up = right.remove_entry(0);
            child.push_entry(self.replace_entry(i, up));
            if !right.children.is_empty() {
                child.children.push(right.children.remove(0));
            }
            self.children = children;
        } else {
            let j = i.saturating_sub(1);
            let right = self.children.remove(j + 1);
            let separator = self.remove_entry(j);
            let left = Arc::make_mut(&mut self.children[j]);
            left.push_entry(separator);
            let right = Arc::unwrap_or_clone(right);
            left.keys_mut().extend(Arc::unwrap_or_clone(right.keys));
            left.vals.extend(right.vals);
            left.children.extend(right.children);
        }
    }
}

/// An iterator over a [`PMap`]'s entries in key order.
pub struct Iter<'a, K, V> {
    /// The path to the next entry: each node with the index of the next
    /// entry to yield from it.
    stack: Vec<(&'a Node<K, V>, usize)>,
}

impl<'a, K, V> Iter<'a, K, V> {
    fn descend_left(&mut self, mut node: &'a Node<K, V>) {
        loop {
            self.stack.push((node, 0));
            match node.children.first() {
                Some(child) => node = child,
                None => return,
            }
        }
    }
}

impl<'a, K, V> Iterator for Iter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let (node, next) = self.stack.last_mut()?;
            let node: &'a Node<K, V> = node;
            if *next < node.len() {
                let i = *next;
                *next += 1;
                if let Some(child) = node.children.get(i + 1) {
                    self.descend_left(child);
                }
                return Some((&node.keys[i], &node.vals[i]));
            }
            self.stack.pop();
        }
    }
}

impl<K, V> Clone for PMap<K, V> {
    /// O(1): the clone shares every node.
    fn clone(&self) -> Self {
        PMap {
            root: self.root.clone(),
            len: self.len,
        }
    }
}

impl<K, V> Default for PMap<K, V> {
    fn default() -> Self {
        PMap::new()
    }
}

impl<K: Ord, V> FromIterator<(K, V)> for PMap<K, V> {
    /// A later duplicate key's value wins, as in `BTreeMap`. Sorts the
    /// entries and builds the tree bottom-up, level by level, with no
    /// per-entry descent.
    fn from_iter<I: IntoIterator<Item = (K, V)>>(entries: I) -> Self {
        let mut items: Vec<(K, V)> = entries.into_iter().collect();
        // Stable, so equal keys keep their order; then each run of equal
        // keys collapses onto its last value.
        items.sort_by(|a, b| a.0.cmp(&b.0));
        items.dedup_by(|later, earlier| {
            let duplicate = later.0 == earlier.0;
            if duplicate {
                std::mem::swap(later, earlier);
            }
            duplicate
        });
        let len = items.len();
        if len == 0 {
            return PMap::new();
        }
        // `items` are this level's entries in key order and `children` the
        // subtrees between them (none at the leaf level). While they do not
        // fit one node, pack them into `k` nodes as evenly as possible, and
        // lift the `k - 1` entries between those nodes to the next level.
        let mut children: Vec<Arc<Node<K, V>>> = Vec::new();
        while items.len() > MAX {
            let n = items.len();
            let k = (n + 1).div_ceil(MAX + 1);
            let leaf_level = children.is_empty();
            let in_nodes = n + 1 - k;
            let mut items_left = items.into_iter();
            let mut children_left = children.into_iter();
            let mut up_items = Vec::with_capacity(k - 1);
            let mut up_children = Vec::with_capacity(k);
            for i in 0..k {
                let size = in_nodes / k + usize::from(i < in_nodes % k);
                let mut keys = Vec::with_capacity(size);
                let mut vals = Vec::with_capacity(size);
                for (k, v) in items_left.by_ref().take(size) {
                    keys.push(k);
                    vals.push(v);
                }
                let children = if leaf_level {
                    Vec::new()
                } else {
                    children_left.by_ref().take(size + 1).collect()
                };
                up_children.push(Arc::new(Node {
                    keys: Arc::new(keys),
                    vals,
                    children,
                }));
                up_items.extend(items_left.next());
            }
            items = up_items;
            children = up_children;
        }
        let (keys, vals) = items.into_iter().unzip();
        PMap {
            root: Some(Arc::new(Node {
                keys: Arc::new(keys),
                vals,
                children,
            })),
            len,
        }
    }
}

impl<K: PartialEq, V: PartialEq> PartialEq for PMap<K, V> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && (self.ptr_eq(other) || self.iter().eq(other.iter()))
    }
}

impl<K: Eq, V: Eq> Eq for PMap<K, V> {}

impl<K: PartialOrd, V: PartialOrd> PartialOrd for PMap<K, V> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        self.iter().partial_cmp(other.iter())
    }
}

impl<K: Ord, V: Ord> Ord for PMap<K, V> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.iter().cmp(other.iter())
    }
}

impl<K: Hash, V: Hash> Hash for PMap<K, V> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // `BTreeMap`'s length prefix, then each entry.
        state.write_usize(self.len);
        for entry in self.iter() {
            entry.hash(state);
        }
    }
}

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for PMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
impl<K: Ord, V> PMap<K, V> {
    /// Asserts the B-tree's shape: occupancy bounds, keys sorted within and
    /// across nodes, one more child than entries in internal nodes, and
    /// every leaf at one depth.
    fn assert_invariants(&self) {
        /// Checks the subtree at `n`, whose keys must lie strictly between
        /// `lo` and `hi`, and returns its depth.
        fn walk<K: Ord, V>(n: &Node<K, V>, is_root: bool, lo: Option<&K>, hi: Option<&K>) -> usize {
            let min = if is_root { 1 } else { MIN };
            let count = n.len();
            assert!((min..=MAX).contains(&count), "node with {count} entries");
            assert_eq!(n.vals.len(), count);
            assert!(n.keys.windows(2).all(|w| w[0] < w[1]));
            let (first, last) = (&n.keys[0], &n.keys[count - 1]);
            assert!(lo.is_none_or(|lo| lo < first) && hi.is_none_or(|hi| last < hi));
            if n.is_leaf() {
                return 1;
            }
            assert_eq!(n.children.len(), count + 1);
            let depths: Vec<usize> = (0..=count)
                .map(|i| {
                    let lo = if i == 0 { lo } else { Some(&n.keys[i - 1]) };
                    let hi = n.keys.get(i).or(hi);
                    walk(&n.children[i], false, lo, hi)
                })
                .collect();
            assert!(
                depths.windows(2).all(|w| w[0] == w[1]),
                "leaves at depths {depths:?}"
            );
            depths[0] + 1
        }
        let depth = self
            .root
            .as_deref()
            .map_or(0, |r| walk(r, true, None, None));
        assert_eq!(depth, self.depth());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;
    use obase_rng::{ChaCha8Rng, Rng, SeedableRng};
    use std::collections::hash_map::DefaultHasher;
    use std::collections::BTreeMap;

    fn hash_of(x: &impl Hash) -> u64 {
        let mut h = DefaultHasher::new();
        x.hash(&mut h);
        h.finish()
    }

    fn same_entries(p: &PMap<String, Value>, m: &BTreeMap<String, Value>) {
        assert_eq!(p.len(), m.len());
        assert!(p.iter().eq(m.iter()), "entries differ from the model");
    }

    /// Drives a `PMap` and a `BTreeMap` through one seeded sequence of
    /// operations over keys drawn from `0..key_space`: both start from the
    /// same bulk-built `target / 2` random entries (duplicates included),
    /// grow to about `target` entries and then shrink back to empty, so
    /// every split, borrow, merge and root collapse runs. Every `snapshot_every`
    /// operations a clone of both is kept, and at the end every snapshot
    /// must still show its own entries.
    fn model_run(seed: u64, target: usize, snapshot_every: usize) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let key_space = (target * 2).max(4) as u64;
        let key = |rng: &mut ChaCha8Rng| format!("k{:06}", rng.gen_range(0..key_space));
        let initial: Vec<(String, Value)> = (0..target / 2)
            .map(|i| (key(&mut rng), Value::Int(i as i64)))
            .collect();
        let mut p: PMap<String, Value> = initial.iter().cloned().collect();
        let mut m: BTreeMap<String, Value> = initial.into_iter().collect();
        p.assert_invariants();
        same_entries(&p, &m);
        let mut snapshots: Vec<(PMap<String, Value>, BTreeMap<String, Value>)> = Vec::new();
        let mut ops = 0usize;
        for growing in [true, false] {
            loop {
                if growing && m.len() >= target || !growing && m.is_empty() {
                    break;
                }
                let insert_bias = if growing { 0.8 } else { 0.2 };
                let k = if !growing && rng.gen_bool(0.8) {
                    // Mostly remove present keys so the map drains.
                    let nth = rng.gen_range(0..m.len());
                    m.keys().nth(nth).cloned().expect("in range")
                } else {
                    key(&mut rng)
                };
                match rng.gen_range(0..10u32) {
                    r if f64::from(r) < insert_bias * 10.0 => {
                        let v = Value::Int(rng.gen_range(0..1000i64));
                        assert_eq!(p.insert(k.clone(), v.clone()), m.insert(k, v));
                    }
                    r if r % 2 == 0 || !growing => {
                        assert_eq!(p.remove(k.as_str()), m.remove(&k));
                    }
                    _ => {
                        assert_eq!(p.get(k.as_str()), m.get(&k));
                        assert_eq!(p.contains_key(&k), m.contains_key(&k));
                    }
                }
                ops += 1;
                p.assert_invariants();
                same_entries(&p, &m);
                if ops.is_multiple_of(snapshot_every) {
                    snapshots.push((p.clone(), m.clone()));
                }
            }
        }
        assert!(p.is_empty() && p.depth() == 0);
        for (sp, sm) in &snapshots {
            sp.assert_invariants();
            same_entries(sp, sm);
        }
    }

    #[test]
    fn model_small_maps_with_dense_snapshots() {
        for seed in 0..20 {
            model_run(seed, seed as usize * 3, 1);
        }
    }

    #[test]
    fn model_large_maps() {
        for (seed, target) in [(100, 300), (101, 3_000)] {
            model_run(seed, target, 97);
        }
    }

    #[test]
    fn get_mut_copies_only_a_present_path() {
        let base: PMap<String, Value> = (0..1024)
            .map(|k| (format!("k{k:04}"), Value::Int(k)))
            .collect();
        let mut miss = base.clone();
        assert!(miss.get_mut("absent").is_none());
        assert!(miss.remove("absent").is_none());
        assert!(miss.ptr_eq(&base));
        assert_eq!(miss.unshared_nodes(&base), 0);

        let mut hit = base.clone();
        *hit.get_mut("k0500").expect("present") = Value::Int(-1);
        assert!(hit.unshared_nodes(&base) <= base.depth());
        assert_eq!(base.get("k0500"), Some(&Value::Int(500)));
        assert_eq!(hit.get("k0500"), Some(&Value::Int(-1)));

        // A removal copies its path and at most one sibling per level (a
        // borrow or merge), and leaves the original whole.
        let mut removed = base.clone();
        for k in ["k0000", "k0500", "k1023"] {
            assert_eq!(removed.remove(k), base.get(k).cloned());
        }
        removed.assert_invariants();
        assert!(removed.unshared_nodes(&base) <= 3 * 2 * base.depth());
        assert_eq!(base.len(), 1024);
        assert_eq!(base.get("k0500"), Some(&Value::Int(500)));
    }

    #[test]
    fn from_iter_builds_a_valid_tree_where_later_duplicates_win() {
        let p: PMap<&str, i32> = [("a", 1), ("b", 2), ("a", 3)].into_iter().collect();
        let m: BTreeMap<&str, i32> = [("a", 1), ("b", 2), ("a", 3)].into_iter().collect();
        assert!(p.iter().eq(m.iter()));
        // All sizes up to 150, and the neighbours of the sizes that fill
        // every node of a tree of two to four levels.
        let full = |levels: u32| (1..levels).fold(MAX, |below, _| (MAX + 1) * below + MAX);
        let around_full = (2..=4).flat_map(|l| [full(l) - 1, full(l), full(l) + 1]);
        for n in (0..=150).chain(around_full) {
            let p: PMap<usize, usize> = (0..n).rev().map(|k| (k, k)).collect();
            p.assert_invariants();
            assert_eq!(p.len(), n);
            assert!(p.iter().map(|(k, _)| *k).eq(0..n));
        }
    }

    #[test]
    fn value_traits_match_the_btreemap_payload() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let mut models: Vec<BTreeMap<String, Value>> = vec![BTreeMap::new()];
        for n in [1usize, 2, 5, 40, 200] {
            for _ in 0..3 {
                let m: BTreeMap<String, Value> = (0..n)
                    .map(|_| {
                        let k = format!("k{}", rng.gen_range(0..(2 * n as u64)));
                        (k, Value::Int(rng.gen_range(0..3i64)))
                    })
                    .collect();
                models.push(m);
            }
        }
        // A nested map, and a map whose values are strings and lists.
        models.push(BTreeMap::from([
            ("inner".to_owned(), Value::map([("x", Value::Int(1))])),
            ("list".to_owned(), Value::list([Value::from("s")])),
        ]));
        let values: Vec<Value> = models.iter().map(|m| Value::map(m.clone())).collect();
        for (a, ma) in values.iter().zip(&models) {
            let Value::Map(pa) = a else { unreachable!() };
            assert_eq!(hash_of(pa), hash_of(ma));
            assert_eq!(format!("{a:?}"), format!("{ma:?}"));
            for (b, mb) in values.iter().zip(&models) {
                assert_eq!(a == b, ma == mb);
                assert_eq!(a.cmp(b), ma.cmp(mb));
                assert_eq!(a.partial_cmp(b), ma.partial_cmp(mb));
                if a == b {
                    assert_eq!(hash_of(a), hash_of(b));
                }
            }
        }
    }
}
