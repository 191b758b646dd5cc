//! Interned AS-path arena: a parent-pointer tree that stores every path
//! seen during one propagation run exactly once.
//!
//! BGP path propagation is structurally incremental — every exported path
//! is the received path with the exporter's ASN prepended — so the set of
//! paths alive in a fixpoint computation forms a tree rooted at the
//! injected origination paths. Storing that tree as an append-only arena
//! of `(asn, parent, len)` nodes makes prepending an O(prepends) push
//! instead of a `Vec` clone, shrinks [`crate::Route`] to a copyable
//! handle, and lets path predicates (loop checks, poison filters) walk
//! parent pointers without materializing a `Vec<Asn>`.
//!
//! Interning is *canonical*: [`PathArena::push`] returns the same
//! [`PathId`] for the same `(parent, asn)` pair, so — by induction from
//! the shared root — two paths have equal content if and only if they
//! have equal ids **within one arena**. Route equality therefore remains
//! exact content equality, which is what keeps arena-backed propagation
//! bit-identical to the materialized-path oracle. Ids are meaningless
//! across arenas; comparisons that span two engines or two sessions must
//! materialize first (see [`crate::RoutingOutcome::path_of`]).

use std::collections::HashMap;
use std::sync::Arc;
use trackdown_topology::{AsPath, Asn};

/// Handle to an interned AS-path in a [`PathArena`] / [`PathStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PathId(u32);

impl PathId {
    /// The empty path (no ASes). Parent of every origination path.
    pub const EMPTY: PathId = PathId(u32::MAX);

    /// True for [`PathId::EMPTY`].
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == u32::MAX
    }
}

/// One node of the parent-pointer path tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PathNode {
    asn: Asn,
    parent: PathId,
    len: u32,
}

/// Iterator over a path's ASes, most-recent forwarder first, origin last —
/// the same order as [`AsPath::as_slice`].
#[derive(Debug, Clone)]
pub struct PathIter<'a> {
    nodes: &'a [PathNode],
    cur: PathId,
}

impl Iterator for PathIter<'_> {
    type Item = Asn;

    #[inline]
    fn next(&mut self) -> Option<Asn> {
        if self.cur.is_empty() {
            return None;
        }
        let node = &self.nodes[self.cur.0 as usize];
        self.cur = node.parent;
        Some(node.asn)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let len = if self.cur.is_empty() {
            0
        } else {
            self.nodes[self.cur.0 as usize].len as usize
        };
        (len, Some(len))
    }
}

impl ExactSizeIterator for PathIter<'_> {}

#[inline]
fn iter_nodes(nodes: &[PathNode], id: PathId) -> PathIter<'_> {
    PathIter { nodes, cur: id }
}

#[inline]
fn materialize_nodes(nodes: &[PathNode], id: PathId) -> AsPath {
    iter_nodes(nodes, id).collect()
}

/// Append-only interned path storage for one propagation state.
///
/// Owned by the engine's simulation; snapshots that need path contents
/// copy the node table into an immutable [`PathStore`]
/// ([`crate::SnapshotDetail::Paths`] and [`crate::SnapshotDetail::Full`]).
#[derive(Debug, Default)]
pub struct PathArena {
    nodes: Vec<PathNode>,
    /// `(parent raw id, asn) -> node index`: the canonical-interning map.
    intern: HashMap<(u32, Asn), u32>,
}

impl PathArena {
    /// An empty arena.
    pub fn new() -> PathArena {
        PathArena::default()
    }

    /// Number of interned nodes (the arena's high-water statistic).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Drop all paths but keep the allocated capacity of both the node
    /// table and the interning map, so the next run re-interns without
    /// heap allocation once a high-water mark is reached.
    ///
    /// Every outstanding [`PathId`] into this arena is invalidated; the
    /// caller must drop all routing state holding ids first (the engine
    /// only clears the arena inside `Simulation::clear`).
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.intern.clear();
    }

    /// Drop every node interned after the first `len`, with its interning
    /// key, so the arena holds exactly what it held when it had `len`
    /// nodes: the next pushes intern the same ids they interned then. The
    /// cost is one key removal per dropped node.
    ///
    /// Every outstanding [`PathId`] at or past `len` is invalidated; the
    /// engine truncates only while rolling its routing state back to the
    /// moment the arena had `len` nodes.
    pub fn truncate(&mut self, len: usize) {
        for node in self.nodes.get(len..).unwrap_or_default() {
            self.intern.remove(&(node.parent.0, node.asn));
        }
        self.nodes.truncate(len);
    }

    /// Intern `parent` extended by one more recent hop `asn`.
    pub fn push(&mut self, parent: PathId, asn: Asn) -> PathId {
        match self.intern.get(&(parent.0, asn)) {
            Some(&idx) => PathId(idx),
            None => {
                let idx = u32::try_from(self.nodes.len()).expect("path arena overflow");
                assert!(idx != u32::MAX, "path arena overflow");
                let len = self.len(parent) as u32 + 1;
                self.nodes.push(PathNode { asn, parent, len });
                self.intern.insert((parent.0, asn), idx);
                PathId(idx)
            }
        }
    }

    /// Intern `parent` prepended by `asn` `times` times (BGP prepending).
    pub fn push_times(&mut self, parent: PathId, asn: Asn, times: usize) -> PathId {
        let mut id = parent;
        for _ in 0..times {
            id = self.push(id, asn);
        }
        id
    }

    /// Intern a materialized [`AsPath`] (origin-last slice order).
    pub fn intern_path(&mut self, path: &AsPath) -> PathId {
        let mut id = PathId::EMPTY;
        for &asn in path.as_slice().iter().rev() {
            id = self.push(id, asn);
        }
        id
    }

    /// Hop count of the path (counting prepend repetitions).
    #[inline]
    pub fn len(&self, id: PathId) -> usize {
        if id.is_empty() {
            0
        } else {
            self.nodes[id.0 as usize].len as usize
        }
    }

    /// True if `asn` appears anywhere on the path (the loop-prevention /
    /// poison predicate), evaluated by a parent walk without materializing.
    #[inline]
    pub fn contains(&self, id: PathId, asn: Asn) -> bool {
        self.iter(id).any(|a| a == asn)
    }

    /// Walk the path most-recent-first (matching [`AsPath::as_slice`]).
    #[inline]
    pub fn iter(&self, id: PathId) -> PathIter<'_> {
        iter_nodes(&self.nodes, id)
    }

    /// Materialize the path as an owned [`AsPath`].
    pub fn materialize(&self, id: PathId) -> AsPath {
        materialize_nodes(&self.nodes, id)
    }

    /// Copy the node table into an immutable, shareable [`PathStore`]
    /// (detached from this arena: later pushes or clears don't affect it).
    pub fn store(&self) -> PathStore {
        PathStore {
            nodes: Arc::from(self.nodes.as_slice()),
        }
    }
}

/// An immutable snapshot of a [`PathArena`]'s node table, carried by
/// [`crate::RoutingOutcome`] so routes can be materialized after the
/// engine's mutable state has moved on (or been cleared).
///
/// The default store is empty: outcomes captured at
/// [`crate::SnapshotDetail::Catchments`] detail don't pay for the copy,
/// and materializing a route from one panics.
#[derive(Debug, Clone, Default)]
pub struct PathStore {
    nodes: Arc<[PathNode]>,
}

impl PathStore {
    /// Walk the path most-recent-first.
    ///
    /// # Panics
    /// Panics if the store is empty (snapshot captured without
    /// [`crate::SnapshotDetail::Paths`] or [`crate::SnapshotDetail::Full`])
    /// or `id` belongs to another arena.
    #[inline]
    pub fn iter(&self, id: PathId) -> PathIter<'_> {
        assert!(
            id.is_empty() || (id.0 as usize) < self.nodes.len(),
            "path id not in this store — was the outcome captured with SnapshotDetail::Paths \
             or SnapshotDetail::Full?"
        );
        iter_nodes(&self.nodes, id)
    }

    /// Materialize the path as an owned [`AsPath`]. Same panics as
    /// [`PathStore::iter`].
    pub fn materialize(&self, id: PathId) -> AsPath {
        self.iter(id).collect()
    }

    /// Number of path nodes in the snapshot.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when this store carries no nodes (Catchments-detail snapshot).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_path() {
        let arena = PathArena::new();
        assert_eq!(arena.len(PathId::EMPTY), 0);
        assert!(!arena.contains(PathId::EMPTY, Asn(1)));
        assert_eq!(arena.materialize(PathId::EMPTY), AsPath::empty());
        assert_eq!(arena.iter(PathId::EMPTY).count(), 0);
    }

    #[test]
    fn intern_roundtrip_matches_slice_order() {
        let mut arena = PathArena::new();
        let path = AsPath::from_sequence([Asn(3), Asn(2), Asn(1)]);
        let id = arena.intern_path(&path);
        assert_eq!(arena.len(id), 3);
        assert_eq!(arena.materialize(id), path);
        let walked: Vec<Asn> = arena.iter(id).collect();
        assert_eq!(walked, path.as_slice());
    }

    #[test]
    fn interning_is_canonical() {
        let mut arena = PathArena::new();
        let path = AsPath::from_sequence([Asn(3), Asn(2), Asn(1)]);
        let a = arena.intern_path(&path);
        let b = arena.intern_path(&path);
        assert_eq!(a, b);
        // Rebuilding the same path hop by hop lands on the same id.
        let base = arena.intern_path(&AsPath::from_sequence([Asn(2), Asn(1)]));
        assert_eq!(arena.push(base, Asn(3)), a);
        // A different extension gets a different id.
        assert_ne!(arena.push(base, Asn(9)), a);
    }

    #[test]
    fn push_times_prepends() {
        let mut arena = PathArena::new();
        let origin = arena.push(PathId::EMPTY, Asn(1));
        let id = arena.push_times(origin, Asn(7), 3);
        assert_eq!(arena.len(id), 4);
        assert_eq!(
            arena.materialize(id),
            AsPath::from_origin(Asn(1)).prepended_by_times(Asn(7), 3)
        );
        assert!(arena.contains(id, Asn(7)));
        assert!(arena.contains(id, Asn(1)));
        assert!(!arena.contains(id, Asn(2)));
    }

    #[test]
    fn poison_sandwich_survives_interning() {
        let mut arena = PathArena::new();
        let path = AsPath::poisoned_origin(Asn(47065), &[Asn(10), Asn(20)]);
        let id = arena.intern_path(&path);
        let m = arena.materialize(id);
        assert_eq!(m, path);
        assert_eq!(m.poisons_of(Asn(47065)), vec![Asn(10), Asn(20)]);
    }

    #[test]
    fn clear_resets_but_keeps_determinism() {
        let mut arena = PathArena::new();
        let path = AsPath::from_sequence([Asn(5), Asn(4)]);
        let before = arena.intern_path(&path);
        let nodes_before = arena.num_nodes();
        arena.clear();
        assert_eq!(arena.num_nodes(), 0);
        // Identical operation sequences after a clear produce identical ids.
        let after = arena.intern_path(&path);
        assert_eq!(before, after);
        assert_eq!(arena.num_nodes(), nodes_before);
    }

    #[test]
    fn truncate_forgets_later_paths_and_reinterns_them_identically() {
        let mut arena = PathArena::new();
        let base = arena.intern_path(&AsPath::from_sequence([Asn(2), Asn(1)]));
        let mark = arena.num_nodes();
        let later = arena.push_times(base, Asn(3), 2);
        let branch = arena.push(base, Asn(4));
        arena.truncate(mark);
        assert_eq!(arena.num_nodes(), mark);
        // Paths interned before the mark keep their ids; later ones are
        // interned again under the ids they had.
        assert_eq!(
            arena.intern_path(&AsPath::from_sequence([Asn(2), Asn(1)])),
            base
        );
        assert_eq!(arena.push_times(base, Asn(3), 2), later);
        assert_eq!(arena.push(base, Asn(4)), branch);
        // Truncating past the end changes nothing.
        arena.truncate(usize::MAX);
        assert_eq!(arena.num_nodes(), mark + 3);
    }

    #[test]
    fn store_outlives_arena_mutation() {
        let mut arena = PathArena::new();
        let path = AsPath::from_sequence([Asn(3), Asn(2), Asn(1)]);
        let id = arena.intern_path(&path);
        let store = arena.store();
        arena.clear();
        arena.intern_path(&AsPath::from_origin(Asn(99)));
        assert_eq!(store.materialize(id), path);
        let walked: Vec<Asn> = store.iter(id).collect();
        assert_eq!(walked, path.as_slice());
    }

    #[test]
    #[should_panic(expected = "SnapshotDetail::Full")]
    fn empty_store_panics_on_materialize() {
        let mut arena = PathArena::new();
        let id = arena.intern_path(&AsPath::from_origin(Asn(1)));
        let empty = PathStore::default();
        let _ = empty.materialize(id);
    }
}
