//! The consistent-hash ring behind fleet routing.
//!
//! Stream keys and node virtual points hash onto one `u64` circle; a
//! key routes to the first virtual point at or clockwise of its hash.
//! Because a node's points depend only on `(seed, node, vnode)` — never
//! on who else is on the ring — adding or removing one node of `N`
//! remaps only the keys that fell between the changed points and their
//! predecessors: an expected `1/N` fraction, the bounded-data-movement
//! property the rebalancer relies on.
//!
//! # Examples
//!
//! ```
//! use shredder_cluster::HashRing;
//!
//! let mut ring = HashRing::with_nodes(42, 64, 4);
//! let before = ring.route("tenant-7/vm-3").unwrap();
//! ring.remove_node(before);
//! let after = ring.route("tenant-7/vm-3").unwrap();
//! assert_ne!(after, before); // rerouted off the removed node
//! ring.add_node(before);
//! assert_eq!(ring.route("tenant-7/vm-3").unwrap(), before); // and back
//! ```

use std::collections::{BTreeMap, BTreeSet};

use shredder_hash::{splitmix64, Fnv1a64};

/// A seeded consistent-hash ring with virtual nodes.
///
/// Node indices are plain `usize`s (fleet slot numbers). Each node owns
/// `vnodes` points on the circle; more points smooth the key
/// distribution at the cost of a larger routing map. The ring is a pure
/// function of `(seed, vnodes, membership set)` — membership *history*
/// (the order of joins and leaves) never changes where keys land.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashRing {
    seed: u64,
    vnodes: usize,
    points: BTreeMap<u64, usize>,
    nodes: BTreeSet<usize>,
}

/// Finalizes an FNV-1a prefix hash through one splitmix64 round, mixed
/// with the ring seed. FNV alone distributes poorly in the high bits
/// for short keys; the splitmix finalizer fixes that and folds the seed
/// in so two rings with different seeds disagree about placement.
fn finish(prefix: u64, seed: u64) -> u64 {
    let mut state = prefix ^ seed;
    splitmix64(&mut state)
}

impl HashRing {
    /// Creates an empty ring. `vnodes` is the number of virtual points
    /// each added node will own; it must be at least 1.
    ///
    /// # Panics
    ///
    /// Panics if `vnodes` is zero.
    pub fn new(seed: u64, vnodes: usize) -> Self {
        assert!(vnodes > 0, "a hash ring needs at least one vnode per node");
        HashRing {
            seed,
            vnodes,
            points: BTreeMap::new(),
            nodes: BTreeSet::new(),
        }
    }

    /// Creates a ring pre-populated with nodes `0..nodes`.
    pub fn with_nodes(seed: u64, vnodes: usize, nodes: usize) -> Self {
        let mut ring = HashRing::new(seed, vnodes);
        for node in 0..nodes {
            ring.add_node(node);
        }
        ring
    }

    /// The point on the circle for one `(node, vnode)` pair. Depends
    /// only on the ring seed and the pair, so a node's points survive
    /// any membership churn unchanged.
    fn point(&self, node: usize, vnode: usize) -> u64 {
        let mut h = Fnv1a64::new();
        h.write(b"vnode");
        h.write(&(node as u64).to_le_bytes());
        h.write(&(vnode as u64).to_le_bytes());
        finish(h.finish(), self.seed)
    }

    /// Where a stream key lands on the circle.
    fn key_point(&self, key: &str) -> u64 {
        let mut h = Fnv1a64::new();
        h.write(b"key");
        h.write(key.as_bytes());
        finish(h.finish(), self.seed)
    }

    /// Adds a node's virtual points. Returns `false` (and changes
    /// nothing) if the node is already on the ring. A point already
    /// claimed by another node is left with its current owner — a
    /// one-in-2⁶⁴ tie broken deterministically.
    pub fn add_node(&mut self, node: usize) -> bool {
        if !self.nodes.insert(node) {
            return false;
        }
        for vnode in 0..self.vnodes {
            self.points.entry(self.point(node, vnode)).or_insert(node);
        }
        true
    }

    /// Removes a node's virtual points. Returns `false` (and changes
    /// nothing) if the node is not on the ring.
    pub fn remove_node(&mut self, node: usize) -> bool {
        if !self.nodes.remove(&node) {
            return false;
        }
        for vnode in 0..self.vnodes {
            let p = self.point(node, vnode);
            if self.points.get(&p) == Some(&node) {
                self.points.remove(&p);
            }
        }
        true
    }

    /// True if `node` is currently on the ring.
    pub fn contains(&self, node: usize) -> bool {
        self.nodes.contains(&node)
    }

    /// Nodes currently on the ring, ascending.
    pub fn nodes(&self) -> impl Iterator<Item = usize> + '_ {
        self.nodes.iter().copied()
    }

    /// Number of nodes on the ring.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// True when no node is on the ring.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The primary owner of `key`: the node whose virtual point is
    /// first at or clockwise of the key's hash. `None` on an empty
    /// ring.
    pub fn route(&self, key: &str) -> Option<usize> {
        let kp = self.key_point(key);
        self.points
            .range(kp..)
            .next()
            .or_else(|| self.points.iter().next())
            .map(|(_, &node)| node)
    }

    /// The first `replicas` *distinct* nodes clockwise of `key` — the
    /// primary first, then the successor nodes that hold its replicas.
    /// Shorter than `replicas` when the ring has fewer nodes.
    pub fn replicas(&self, key: &str, replicas: usize) -> Vec<usize> {
        let want = replicas.min(self.nodes.len());
        let mut out = Vec::with_capacity(want);
        if want == 0 {
            return out;
        }
        let kp = self.key_point(key);
        for (_, &node) in self.points.range(kp..).chain(self.points.range(..kp)) {
            if !out.contains(&node) {
                out.push(node);
                if out.len() == want {
                    break;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: usize) -> Vec<String> {
        (0..n)
            .map(|i| format!("tenant-{}/vm-{}", i % 17, i))
            .collect()
    }

    #[test]
    fn empty_ring_routes_nothing() {
        let ring = HashRing::new(1, 8);
        assert!(ring.is_empty());
        assert_eq!(ring.route("k"), None);
        assert!(ring.replicas("k", 3).is_empty());
    }

    #[test]
    fn routing_is_deterministic_and_seed_sensitive() {
        let a = HashRing::with_nodes(7, 64, 4);
        let b = HashRing::with_nodes(7, 64, 4);
        let c = HashRing::with_nodes(8, 64, 4);
        let ks = keys(200);
        assert!(ks.iter().all(|k| a.route(k) == b.route(k)));
        // A different seed must disagree somewhere.
        assert!(ks.iter().any(|k| a.route(k) != c.route(k)));
    }

    #[test]
    fn all_nodes_receive_keys() {
        let ring = HashRing::with_nodes(3, 64, 4);
        let mut hit = [false; 4];
        for k in keys(400) {
            hit[ring.route(&k).unwrap()] = true;
        }
        assert!(hit.iter().all(|&h| h), "a node got no keys: {hit:?}");
    }

    #[test]
    fn replicas_are_distinct_and_led_by_the_primary() {
        let ring = HashRing::with_nodes(5, 64, 4);
        for k in keys(100) {
            let reps = ring.replicas(&k, 3);
            assert_eq!(reps.len(), 3);
            assert_eq!(reps[0], ring.route(&k).unwrap());
            let mut sorted = reps.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 3, "duplicate replica for {k}: {reps:?}");
        }
        // Capped by ring size.
        let two = HashRing::with_nodes(5, 16, 2);
        assert_eq!(two.replicas("k", 3).len(), 2);
    }

    #[test]
    fn remove_then_add_restores_the_exact_ring() {
        let mut ring = HashRing::with_nodes(11, 32, 5);
        let pristine = ring.clone();
        assert!(ring.remove_node(2));
        assert!(!ring.contains(2));
        assert_eq!(ring.node_count(), 4);
        assert!(ring.add_node(2));
        assert_eq!(ring, pristine);
        // Double add / double remove are no-ops.
        assert!(!ring.add_node(2));
        assert!(ring.remove_node(2));
        assert!(!ring.remove_node(2));
    }

    #[test]
    fn membership_history_does_not_move_keys() {
        // Build {0,1,3} two ways: directly, and via add-then-remove of 2.
        let mut direct = HashRing::new(9, 32);
        for n in [0usize, 1, 3] {
            direct.add_node(n);
        }
        let mut churned = HashRing::with_nodes(9, 32, 4);
        churned.remove_node(2);
        assert_eq!(direct, churned);
    }

    #[test]
    fn removal_only_remaps_keys_owned_by_the_removed_node() {
        let mut ring = HashRing::with_nodes(13, 64, 4);
        let ks = keys(500);
        let before: Vec<usize> = ks.iter().map(|k| ring.route(k).unwrap()).collect();
        ring.remove_node(1);
        for (k, &owner) in ks.iter().zip(&before) {
            let now = ring.route(k).unwrap();
            if owner != 1 {
                assert_eq!(now, owner, "unowned key {k} moved");
            } else {
                assert_ne!(now, 1);
            }
        }
    }
}
