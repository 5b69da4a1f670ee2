//! Persistent (structurally shared) containers for the in-memory read
//! model.
//!
//! Every published view of the record log — an audit-engine snapshot, or
//! the standalone store's own model — is a *value*: extending it yields a
//! new value and leaves the old one answering exactly as before.  The two
//! containers here make that cheap:
//!
//! * `PVec` — an append-only vector: a 32-way trie of full leaves plus a
//!   tail leaf.  Leaf slots are written once (`OnceLock`), so a version
//!   and its extensions share leaves *including the tail*: an append fills
//!   the next free slot in place and never copies an earlier element.
//!   Only when two extensions of the same version both append does the
//!   second one copy the tail's visible prefix (at most 31 elements).
//! * `PMap` — an ordered map: a B-tree of `Arc` nodes whose leaves hold
//!   each key inline beside its `Arc`'d value.  An insert copies only the
//!   nodes on the path to the changed leaf (O(log n) nodes of at most 16
//!   keys); every other node and value is shared with the predecessor.
//!   Nodes are searched linearly (see `search`).
//!
//! Both mutate in place wherever they own a node outright (a node copied
//! earlier in the same batch), so a batch pays for each path once.
//!
//! [`nodes_allocated`] counts, per thread, every node these containers
//! allocate or copy — the deterministic measure the flat-publish-cost
//! tests assert on.

use std::cell::Cell;
use std::cmp::Ordering;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Slots in a full `PVec` leaf, and children of a trie branch.
pub(crate) const LEAF: usize = 32;
const BITS: usize = 5;
/// Maximum entries in a `PMap` leaf, and children of a branch.
const NODE_WIDTH: usize = 16;

thread_local! {
    static NODES: Cell<u64> = const { Cell::new(0) };
}

fn note_node() {
    NODES.with(|n| n.set(n.get() + 1));
}

/// Nodes (trie leaves and branches, map nodes and values, posting-list
/// headers) that persistent containers have allocated or copied on the
/// calling thread since it started.  Take the difference around an
/// operation to count what it allocated.
pub fn nodes_allocated() -> u64 {
    NODES.with(Cell::get)
}

/// `Arc::make_mut`, counting the copy when the node was shared.
fn cow<T: Clone>(arc: &mut Arc<T>) -> &mut T {
    if Arc::get_mut(arc).is_none() {
        note_node();
    }
    Arc::make_mut(arc)
}

/// Allocates a counted node.
pub(crate) fn counted<T>(value: T) -> Arc<T> {
    note_node();
    Arc::new(value)
}

// ---------------------------------------------------------------------------
// PVec
// ---------------------------------------------------------------------------

type Leaf<T> = Arc<[OnceLock<T>]>;

fn new_leaf<T>() -> Leaf<T> {
    note_node();
    (0..LEAF).map(|_| OnceLock::new()).collect()
}

enum Node<T> {
    Branch(Arc<Vec<Node<T>>>),
    Leaf(Leaf<T>),
}

impl<T> Clone for Node<T> {
    fn clone(&self) -> Self {
        match self {
            Node::Branch(children) => Node::Branch(Arc::clone(children)),
            Node::Leaf(leaf) => Node::Leaf(Arc::clone(leaf)),
        }
    }
}

/// A persistent append-only vector (see the module docs).
pub(crate) struct PVec<T> {
    len: usize,
    /// Levels of branches above the trie's leaves (0: the root is a leaf).
    height: usize,
    /// Every full leaf before the tail; `None` while the tail holds all.
    root: Option<Node<T>>,
    tail: Leaf<T>,
}

impl<T> Clone for PVec<T> {
    fn clone(&self) -> Self {
        PVec {
            len: self.len,
            height: self.height,
            root: self.root.clone(),
            tail: Arc::clone(&self.tail),
        }
    }
}

impl<T> Default for PVec<T> {
    fn default() -> Self {
        PVec {
            len: 0,
            height: 0,
            root: None,
            tail: Arc::new([]),
        }
    }
}

impl<T> PVec<T> {
    /// An empty vector.
    pub(crate) fn new() -> Self {
        PVec::default()
    }

    /// Number of elements.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// `true` when empty.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Elements held by full trie leaves (a multiple of [`LEAF`]).
    fn tail_offset(&self) -> usize {
        if self.len == 0 {
            0
        } else {
            (self.len - 1) / LEAF * LEAF
        }
    }

    /// Leaves holding elements: full trie leaves plus the tail.
    pub(crate) fn leaf_count(&self) -> usize {
        self.len.div_ceil(LEAF)
    }

    /// Levels from the root to a leaf, counting the leaf (0 when empty).
    pub(crate) fn depth(&self) -> usize {
        match (self.len, &self.root) {
            (0, _) => 0,
            (_, None) => 1,
            (_, Some(_)) => self.height + 1,
        }
    }

    /// The `n`-th leaf's allocation (the tail for the last one) — exposed
    /// so that sharing between versions is checkable with `Arc::ptr_eq`.
    pub(crate) fn leaf(&self, n: usize) -> Option<&Arc<[OnceLock<T>]>> {
        let start = n.checked_mul(LEAF)?;
        if start >= self.len {
            None
        } else if start >= self.tail_offset() {
            Some(&self.tail)
        } else {
            Some(self.trie_leaf(n))
        }
    }

    /// The trie leaf with index `n` (`n * LEAF < tail_offset`).
    fn trie_leaf(&self, n: usize) -> &Leaf<T> {
        let mut node = self.root.as_ref().expect("a trie leaf below the tail");
        let mut level = self.height;
        loop {
            match node {
                Node::Leaf(leaf) => return leaf,
                Node::Branch(children) => {
                    node = &children[(n >> (BITS * (level - 1))) & (LEAF - 1)];
                    level -= 1;
                }
            }
        }
    }

    /// The element at `index`.
    pub(crate) fn get(&self, index: usize) -> Option<&T> {
        if index >= self.len {
            return None;
        }
        let offset = self.tail_offset();
        if index >= offset {
            self.tail[index - offset].get()
        } else {
            self.trie_leaf(index / LEAF)[index % LEAF].get()
        }
    }

    /// The last element.
    pub(crate) fn last(&self) -> Option<&T> {
        self.len.checked_sub(1).and_then(|i| self.get(i))
    }

    /// The elements in order.
    pub(crate) fn iter(&self) -> VecIter<'_, T> {
        VecIter {
            vec: self,
            index: 0,
            leaf: &[],
        }
    }
}

/// In-order iterator over a persistent vector: one trie walk per leaf.
pub struct VecIter<'a, T> {
    vec: &'a PVec<T>,
    index: usize,
    leaf: &'a [OnceLock<T>],
}

impl<'a, T> Iterator for VecIter<'a, T> {
    type Item = &'a T;

    fn next(&mut self) -> Option<&'a T> {
        while self.index < self.vec.len {
            if self.index.is_multiple_of(LEAF) {
                self.leaf = self.vec.leaf(self.index / LEAF).map_or(&[], |l| &l[..]);
            }
            let slot = self.leaf.get(self.index % LEAF);
            self.index += 1;
            if let Some(item) = slot.and_then(OnceLock::get) {
                return Some(item);
            }
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.vec.len - self.index;
        (left, Some(left))
    }
}

impl<T> fmt::Debug for VecIter<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VecIter")
            .field("index", &self.index)
            .field("len", &self.vec.len)
            .finish()
    }
}

impl<T: Clone> PVec<T> {
    /// Appends `value`.  Fills the tail's next slot in place; allocates a
    /// new tail only when the current one is full, and copies the tail's
    /// visible prefix only when another extension of this same version
    /// already took that slot.
    pub(crate) fn push(&mut self, value: T) {
        let used = self.len - self.tail_offset();
        if self.tail.is_empty() {
            self.tail = self.tail_copy(0, value);
        } else if used < LEAF {
            if let Err(value) = self.tail[used].set(value) {
                self.tail = self.tail_copy(used, value);
            }
        } else {
            let fresh = self.tail_copy(0, value);
            let full = std::mem::replace(&mut self.tail, fresh);
            self.push_leaf(full);
        }
        self.len += 1;
    }

    /// A new full-size tail holding the current tail's first `used`
    /// elements followed by `value`.
    fn tail_copy(&self, used: usize, value: T) -> Leaf<T> {
        let fresh = new_leaf();
        for (slot, cell) in fresh.iter().zip(self.tail[..used].iter()) {
            if let Some(element) = cell.get() {
                let _ = slot.set(element.clone());
            }
        }
        let _ = fresh[used].set(value);
        fresh
    }

    /// Moves a full tail into the trie (`len` is a multiple of [`LEAF`]).
    fn push_leaf(&mut self, leaf: Leaf<T>) {
        let index = self.len / LEAF - 1;
        match self.root.as_mut() {
            None => self.root = Some(Node::Leaf(leaf)),
            Some(_) if index == 1 << (BITS * self.height) => {
                let old = self.root.take().expect("checked above");
                let path = new_path(leaf, self.height);
                self.root = Some(Node::Branch(counted(vec![old, path])));
                self.height += 1;
            }
            Some(root) => insert_leaf(root, self.height, index, leaf),
        }
    }
}

/// A chain of single-child branches `height` levels tall ending in `leaf`.
fn new_path<T>(leaf: Leaf<T>, height: usize) -> Node<T> {
    (0..height).fold(Node::Leaf(leaf), |node, _| {
        Node::Branch(counted(vec![node]))
    })
}

fn insert_leaf<T>(node: &mut Node<T>, height: usize, index: usize, leaf: Leaf<T>) {
    let Node::Branch(children) = node else {
        unreachable!("a full subtree is never descended into");
    };
    let children = cow(children);
    let shift = BITS * (height - 1);
    let slot = (index >> shift) & (LEAF - 1);
    if slot < children.len() {
        insert_leaf(&mut children[slot], height - 1, index, leaf);
    } else {
        children.push(new_path(leaf, height - 1));
    }
}

impl<T: fmt::Debug> fmt::Debug for PVec<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

// ---------------------------------------------------------------------------
// PMap
// ---------------------------------------------------------------------------

/// A map node.  Keys sit inline in their node, so a lookup compares keys
/// without following a pointer per comparison.
#[derive(Clone)]
enum MapNode<K, V> {
    /// Keys in order, each with its value; a value is shared between map
    /// versions until its key is next written.
    Leaf(Vec<(K, Arc<V>)>),
    /// Children in key order, each with the smallest key under it.
    Branch(Vec<(K, Arc<MapNode<K, V>>)>),
}

impl<K, V> MapNode<K, V> {
    fn first_key(&self) -> &K {
        match self {
            MapNode::Leaf(entries) => &entries[0].0,
            MapNode::Branch(children) => &children[0].0,
        }
    }
}

/// Where `key` is among a node's sorted `pairs` (`Ok`), or where it would
/// go (`Err`).  A linear scan: on nodes this small it beats a binary
/// search, because the loads of consecutive keys overlap instead of each
/// waiting on the previous comparison.
fn search<K: Ord, T>(pairs: &[(K, T)], key: &K) -> Result<usize, usize> {
    for (i, (k, _)) in pairs.iter().enumerate() {
        match k.cmp(key) {
            Ordering::Less => {}
            Ordering::Equal => return Ok(i),
            Ordering::Greater => return Err(i),
        }
    }
    Err(pairs.len())
}

/// Position of the last pair whose key is `<= key` (`None` when every key
/// is greater).
fn floor<K: Ord, T>(pairs: &[(K, T)], key: &K) -> Option<usize> {
    match search(pairs, key) {
        Ok(i) => Some(i),
        Err(i) => i.checked_sub(1),
    }
}

/// A persistent ordered map (see the module docs).
pub(crate) struct PMap<K, V> {
    root: Option<Arc<MapNode<K, V>>>,
    len: usize,
    height: usize,
}

impl<K, V> Clone for PMap<K, V> {
    fn clone(&self) -> Self {
        PMap {
            root: self.root.clone(),
            len: self.len,
            height: self.height,
        }
    }
}

impl<K, V> Default for PMap<K, V> {
    fn default() -> Self {
        PMap {
            root: None,
            len: 0,
            height: 0,
        }
    }
}

impl<K, V> PMap<K, V> {
    /// Number of keys.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Levels from the root to a leaf, counting the leaf (0 when empty).
    pub(crate) fn depth(&self) -> usize {
        self.height
    }

    /// The keys and values in key order.
    pub(crate) fn iter(&self) -> Iter<'_, K, V> {
        Iter {
            stack: self.root.as_deref().map(|n| (n, 0)).into_iter().collect(),
        }
    }
}

impl<K: Ord, V> PMap<K, V> {
    /// The value stored under `key`, as its shared allocation (so that
    /// sharing between versions is checkable with `Arc::ptr_eq`).
    pub(crate) fn get_shared(&self, key: &K) -> Option<&Arc<V>> {
        let mut node = self.root.as_deref()?;
        loop {
            match node {
                MapNode::Branch(children) => node = &children[floor(children, key)?].1,
                MapNode::Leaf(entries) => return search(entries, key).ok().map(|i| &entries[i].1),
            }
        }
    }

    /// The value stored under `key`.
    pub(crate) fn get(&self, key: &K) -> Option<&V> {
        self.get_shared(key).map(|value| &**value)
    }
}

impl<K: Ord + Clone, V: Clone> PMap<K, V> {
    /// The value under `key`, for in-place update: copies the path to it
    /// (and the value) where they are shared with another version.
    pub(crate) fn get_mut(&mut self, key: &K) -> Option<&mut V> {
        self.get_shared(key)?;
        let mut node = cow(self.root.as_mut().expect("key found above"));
        loop {
            match node {
                MapNode::Branch(children) => {
                    let i = floor(children, key).expect("key found above");
                    node = cow(&mut children[i].1);
                }
                MapNode::Leaf(entries) => {
                    let i = search(entries, key).ok()?;
                    return Some(cow(&mut entries[i].1));
                }
            }
        }
    }

    /// Inserts or replaces the value under `key`.
    pub(crate) fn insert(&mut self, key: K, value: V) {
        let value = counted(value);
        let Some(root) = self.root.as_mut() else {
            self.root = Some(counted(MapNode::Leaf(vec![(key, value)])));
            self.len = 1;
            self.height = 1;
            return;
        };
        let (added, split) = insert_entry(root, key, value);
        self.len += added as usize;
        if let Some(right) = split {
            let left = self.root.take().expect("root present");
            let children = vec![
                (left.first_key().clone(), left),
                (right.first_key().clone(), right),
            ];
            self.root = Some(counted(MapNode::Branch(children)));
            self.height += 1;
        }
    }
}

/// Inserts into the subtree at `node`, returning whether the key is new
/// and the node split off to the right, if the subtree overflowed.
fn insert_entry<K: Ord + Clone, V: Clone>(
    node: &mut Arc<MapNode<K, V>>,
    key: K,
    value: Arc<V>,
) -> (bool, Option<Arc<MapNode<K, V>>>) {
    match cow(node) {
        MapNode::Leaf(entries) => {
            let added = match search(entries, &key) {
                Ok(i) => {
                    entries[i].1 = value;
                    false
                }
                Err(i) => {
                    // Exact growth: leaves are most of a map's memory, and
                    // a doubled `Vec` would leave them mostly empty.
                    entries.reserve_exact(1);
                    entries.insert(i, (key, value));
                    true
                }
            };
            if entries.len() <= NODE_WIDTH {
                return (added, None);
            }
            let right = entries.split_off(entries.len() / 2);
            entries.shrink_to_fit();
            (added, Some(counted(MapNode::Leaf(right))))
        }
        MapNode::Branch(children) => {
            // A key below every child goes to the first one, which then
            // holds the new smallest key.
            let i = floor(children, &key).unwrap_or(0);
            if key < children[i].0 {
                children[i].0 = key.clone();
            }
            let (added, split) = insert_entry(&mut children[i].1, key, value);
            if let Some(right) = split {
                children.insert(i + 1, (right.first_key().clone(), right));
            }
            if children.len() <= NODE_WIDTH {
                return (added, None);
            }
            let right = children.split_off(children.len() / 2);
            (added, Some(counted(MapNode::Branch(right))))
        }
    }
}

/// In-order iterator over a `PMap`'s keys and values.
pub(crate) struct Iter<'a, K, V> {
    /// Nodes being walked, with the next child or entry to visit.
    stack: Vec<(&'a MapNode<K, V>, usize)>,
}

impl<'a, K, V> Iterator for Iter<'a, K, V> {
    type Item = (&'a K, &'a V);

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let (node, next) = self.stack.last_mut()?;
            match node {
                MapNode::Leaf(entries) => {
                    if let Some((key, value)) = entries.get(*next) {
                        *next += 1;
                        return Some((key, value));
                    }
                }
                MapNode::Branch(children) => {
                    if let Some((_, child)) = children.get(*next) {
                        *next += 1;
                        self.stack.push((child, 0));
                        continue;
                    }
                }
            }
            self.stack.pop();
        }
    }
}

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for PMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vector_appends_across_leaves_and_levels() {
        let mut v = PVec::new();
        let n = LEAF * LEAF * 2 + 7;
        for i in 0..n {
            v.push(i);
            assert_eq!(v.len(), i + 1);
            assert_eq!(v.last(), Some(&i));
        }
        assert_eq!(v.depth(), 3);
        assert_eq!(v.leaf_count(), n.div_ceil(LEAF));
        for i in (0..n).step_by(13) {
            assert_eq!(v.get(i), Some(&i));
        }
        assert_eq!(v.get(n), None);
        assert!(v.iter().copied().eq(0..n));
    }

    #[test]
    fn older_versions_are_unchanged_by_appends_and_forks() {
        let mut base = PVec::new();
        for i in 0..40 {
            base.push(i);
        }
        let mut a = base.clone();
        a.push(100);
        // A second extension of the same version finds the slot taken
        // and copies the tail instead of overwriting a's element.
        let mut b = base.clone();
        b.push(200);
        assert!(base.iter().copied().eq(0..40));
        assert_eq!(a.last(), Some(&100));
        assert_eq!(b.last(), Some(&200));
        assert!(Arc::ptr_eq(base.leaf(0).unwrap(), a.leaf(0).unwrap()));
        assert!(Arc::ptr_eq(base.leaf(1).unwrap(), a.leaf(1).unwrap()));
        assert!(!Arc::ptr_eq(base.leaf(1).unwrap(), b.leaf(1).unwrap()));
    }

    #[test]
    fn map_keeps_order_and_versions() {
        let mut map = PMap::default();
        for i in (0..500u32).rev() {
            map.insert(i * 2, i);
        }
        let frozen = map.clone();
        map.insert(3, 99);
        *map.get_mut(&10).unwrap() = 7;
        assert_eq!(map.len(), 501);
        assert_eq!(frozen.len(), 500);
        assert_eq!(map.get(&3), Some(&99));
        assert_eq!(frozen.get(&3), None);
        assert_eq!(map.get(&10), Some(&7));
        assert_eq!(frozen.get(&10), Some(&5));
        assert!(map.get_mut(&5).is_none());
        let keys: Vec<u32> = map.iter().map(|(k, _)| *k).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
        assert!(Arc::ptr_eq(
            map.get_shared(&998).unwrap(),
            frozen.get_shared(&998).unwrap()
        ));
        assert!(map.depth() >= 3);
    }

    #[test]
    fn a_map_insert_copies_one_path() {
        let mut map = PMap::default();
        for i in 0..10_000u32 {
            map.insert(i, i);
        }
        let base = map.clone();
        let mut next = base.clone();
        let before = nodes_allocated();
        next.insert(5_000, 0);
        // The new value, plus one copy per level (no split: a replace).
        assert_eq!(nodes_allocated() - before, 1 + base.depth() as u64);
        assert_eq!(base.get(&5_000), Some(&5_000));
    }
}
