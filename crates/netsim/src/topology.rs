//! Reusable topology builders.
//!
//! Generic shapes used by tests and examples; the paper's specific
//! four-level tertiary tree (figure 6) is assembled in the `experiments`
//! crate from these primitives.

use crate::engine::Engine;
use crate::id::{ChannelId, NodeId};
use crate::queue::QueueConfig;
use crate::time::SimDuration;

/// Link parameters used by the builders.
#[derive(Debug, Clone)]
pub struct LinkSpec {
    /// Bits per second.
    pub bandwidth_bps: u64,
    /// One-way propagation delay.
    pub delay: SimDuration,
    /// Buffer discipline for both directions.
    pub queue: QueueConfig,
}

impl LinkSpec {
    /// A convenience constructor.
    pub fn new(bandwidth_bps: u64, delay: SimDuration, queue: QueueConfig) -> Self {
        LinkSpec {
            bandwidth_bps,
            delay,
            queue,
        }
    }
}

/// A complete k-ary tree of gateways with hosts at the leaves.
#[derive(Debug)]
pub struct KaryTree {
    /// The root node.
    pub root: NodeId,
    /// `levels[l]` holds the nodes at depth `l` (`levels[0] = [root]`).
    pub levels: Vec<Vec<NodeId>>,
    /// `links[l][i]` is the `(down, up)` channel pair of the i-th link
    /// *entering* level `l+1` (so `links[0]` are the root's links).
    pub links: Vec<Vec<(ChannelId, ChannelId)>>,
}

impl KaryTree {
    /// The leaf nodes (deepest level).
    pub fn leaves(&self) -> &[NodeId] {
        self.levels.last().map(|v| v.as_slice()).unwrap_or(&[])
    }
}

/// Build a k-ary tree of the given `depth` (number of link levels).
/// `level_specs[l]` describes the links between level `l` and `l+1`; its
/// length must equal `depth`.
pub fn kary_tree(engine: &mut Engine, arity: usize, level_specs: &[LinkSpec]) -> KaryTree {
    assert!(arity >= 1, "tree arity must be at least 1");
    assert!(!level_specs.is_empty(), "tree must have at least one level");
    let root = engine.add_node("root");
    let mut levels = vec![vec![root]];
    let mut links = Vec::new();
    for (depth, spec) in level_specs.iter().enumerate() {
        let mut next = Vec::new();
        let mut level_links = Vec::new();
        let parents = levels[depth].clone();
        for (pi, &parent) in parents.iter().enumerate() {
            for c in 0..arity {
                let idx = pi * arity + c;
                let child = engine.add_node(format!("d{}n{}", depth + 1, idx));
                let pair =
                    engine.add_link(parent, child, spec.bandwidth_bps, spec.delay, &spec.queue);
                next.push(child);
                level_links.push(pair);
            }
        }
        levels.push(next);
        links.push(level_links);
    }
    KaryTree {
        root,
        levels,
        links,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> LinkSpec {
        LinkSpec::new(
            8_000_000,
            SimDuration::from_millis(5),
            QueueConfig::paper_droptail(),
        )
    }

    #[test]
    fn tertiary_tree_shape() {
        // The paper's tree: depth 4, arity 3 -> 1+3+9+27+81? No: the paper
        // branches 3-way at each of 3 gateway levels below a single chain
        // link; the generic builder here is a full 3-ary tree, so depth 3
        // gives 27 leaves.
        let mut e = Engine::new(0);
        let t = kary_tree(&mut e, 3, &[spec(), spec(), spec()]);
        assert_eq!(t.levels.len(), 4);
        assert_eq!(t.leaves().len(), 27);
        assert_eq!(t.links[0].len(), 3);
        assert_eq!(t.links[2].len(), 27);
        e.compute_routes();
        // Root can reach every leaf.
        for &leaf in t.leaves() {
            assert!(e.world().node(t.root).route_to(leaf).is_some());
        }
    }
}
