//! The paper's figure-6 topology: a four-level tertiary tree.
//!
//! ```text
//! S --L1-- G1 --L2j-- G2j (x3) --L3k-- G3k (x9) --L4l-- Rl (x27)
//! ```
//!
//! One-way propagation delays: 5 ms on levels 1–3, 100 ms on level 4
//! (leaf) links, so the base RTT to a leaf is 2·(5+5+5+100) = 230 ms.
//! Non-bottleneck links run at 100 Mbps; the congested links of each case
//! are sized so that the soft-bottleneck share `min μ_i/(m_i+1)` is 100
//! packets per second. All gateways buffer 20 packets.

use std::fmt;

use netsim::engine::Engine;
use netsim::id::{ChannelId, NodeId};
use netsim::queue::QueueConfig;
use netsim::time::SimDuration;

/// Packets per second → bits per second for the paper's 1000-byte packets.
pub const fn pps_to_bps(pps: u64) -> u64 {
    pps * 8 * 1000
}

/// Speed of all uncongested links.
pub const FAST_BPS: u64 = 100_000_000;

/// The soft-bottleneck per-connection share every case is normalized to.
pub const TARGET_SHARE_PPS: u64 = 100;

/// Links on each level of the tree, L1 to L4.
pub(crate) const LINKS_PER_LEVEL: [usize; 4] = [1, 3, 9, 27];

/// Leaf receivers R1–R27, one under each level-4 link.
pub(crate) const LEAVES: usize = LINKS_PER_LEVEL[3];

/// One congestion placement on the tree: a run of congested links on one
/// level, and whether the G3 gateways also host multicast receivers.
/// Everything else about the placement is derived from these fields — its
/// μ, its paper label, its congested leaves and channels, every link's
/// speed. The seven rows of figures 7–10 are associated consts.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct CongestionCase {
    /// The row's name; `Debug` prints it (capture stems, messages).
    name: &'static str,
    /// The congested level, 1 (the root link) to 4 (the leaf links).
    level: usize,
    /// The first congested link at `level`, 0-based.
    first: usize,
    /// How many consecutive links from `first` are congested.
    count: usize,
    /// Whether the G3 gateways host multicast receivers too: figure 10's
    /// 36 receivers with unequal RTTs (TCP stays leaf-only).
    pub(crate) g3_receivers: bool,
}

// The rows keep the names of the enum variants they replaced: the
// `benchmark/` harness and ~140 call sites name them that way.
#[allow(non_upper_case_globals)]
#[rustfmt::skip]
impl CongestionCase {
    /// Case 1: the root link L1 (fully correlated losses).
    pub const Case1RootLink: Self = Self { name: "Case1RootLink", level: 1, first: 0, count: 1, g3_receivers: false };
    /// Case 2: all nine level-3 links (partially correlated).
    pub const Case2AllLevel3: Self = Self { name: "Case2AllLevel3", level: 3, first: 0, count: 9, g3_receivers: false };
    /// Case 3: all 27 leaf links (independent losses).
    pub const Case3AllLeaves: Self = Self { name: "Case3AllLeaves", level: 4, first: 0, count: 27, g3_receivers: false };
    /// Case 4: only leaf links 1–5.
    pub const Case4FiveLeaves: Self = Self { name: "Case4FiveLeaves", level: 4, first: 0, count: 5, g3_receivers: false };
    /// Case 5: the single level-2 link L21.
    pub const Case5OneLevel2: Self = Self { name: "Case5OneLevel2", level: 2, first: 0, count: 1, g3_receivers: false };
    /// Figure 10 case 1: all three level-2 links, G3 receivers.
    pub const Fig10AllLevel2: Self = Self { name: "Fig10AllLevel2", level: 2, first: 0, count: 3, g3_receivers: true };
    /// Figure 10 case 2: all nine level-3 links, G3 receivers.
    pub const Fig10AllLevel3: Self = Self { name: "Fig10AllLevel3", level: 3, first: 0, count: 9, g3_receivers: true };

    /// The five equal-RTT cases in table order.
    pub const FIGURE7_CASES: [Self; 5] =
        [Self::Case1RootLink, Self::Case2AllLevel3, Self::Case3AllLeaves, Self::Case4FiveLeaves, Self::Case5OneLevel2];
    /// The two unequal-RTT cases of figure 10 in table order.
    pub const FIGURE10_CASES: [Self; 2] = [Self::Fig10AllLevel2, Self::Fig10AllLevel3];
}

impl CongestionCase {
    /// The congested links' indices at [`level`](Self::level).
    fn links(&self) -> std::ops::Range<usize> {
        self.first..self.first + self.count
    }

    /// Leaves below one link at the congested level.
    fn leaves_per_link(&self) -> usize {
        LEAVES / LINKS_PER_LEVEL[self.level - 1]
    }

    /// The paper's label for the congested-link set: `L1`, `L21`,
    /// `L3i, i=1..9`.
    pub fn label(&self) -> String {
        let (level, first, end) = (self.level, self.first + 1, self.first + self.count);
        if level == 1 {
            "L1".to_string()
        } else if self.count == 1 {
            format!("L{level}{first}")
        } else {
            format!("L{level}i, i={first}..{end}")
        }
    }

    /// μ of every congested link, in pkt/s: the soft-bottleneck share
    /// times the connections crossing it — one TCP per leaf below it, plus
    /// the multicast — so 2800, 1000, 400 and 200 on levels 1–4. Also
    /// sizes the random processing overhead that removes phase effects.
    pub fn bottleneck_pps(&self) -> u64 {
        TARGET_SHARE_PPS * (self.leaves_per_link() as u64 + 1)
    }

    /// Leaf indices under the congested links ("more congested" receivers
    /// in figure 8's grouping). Empty means *all* are equally congested.
    pub fn congested_leaves(&self) -> Vec<usize> {
        let per = self.leaves_per_link();
        let leaves = self.first * per..(self.first + self.count) * per;
        if leaves.len() == LEAVES {
            return Vec::new();
        }
        leaves.collect()
    }

    /// Speed of link `i` on `level` (1–4) under this placement.
    fn link_bps(&self, level: usize, i: usize) -> u64 {
        if level == self.level && self.links().contains(&i) {
            pps_to_bps(self.bottleneck_pps())
        } else {
            FAST_BPS
        }
    }
}

impl fmt::Debug for CongestionCase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name)
    }
}

/// Parse a paper-style link label (`L1`, `L2.1`, `L3.4`, `L4.12`; 1-based
/// indices) into `(level, 0-based index)`: `None` unless it is exactly
/// [`link_label`]'s spelling of one of the tree's 40 links.
pub(crate) fn parse_link_label(label: &str) -> Option<(usize, usize)> {
    (1..)
        .zip(LINKS_PER_LEVEL)
        .flat_map(|(level, links)| (0..links).map(move |i| (level, i)))
        .find(|&(level, i)| link_label(level, i) == label)
}

/// The label of link `i` (0-based) on `level`: `L1`, `L2.1`, … `L4.27`.
pub(crate) fn link_label(level: usize, i: usize) -> String {
    if level == 1 {
        "L1".to_string()
    } else {
        format!("L{level}.{}", i + 1)
    }
}

/// The built tree: node and channel handles for scenario wiring.
#[derive(Debug)]
pub struct TertiaryTree {
    /// The sender-side root node S.
    pub root: NodeId,
    /// The level-1 gateway G1.
    pub g1: NodeId,
    /// Level-2 gateways G21–G23.
    pub g2: Vec<NodeId>,
    /// Level-3 gateways G31–G39.
    pub g3: Vec<NodeId>,
    /// Leaf receiver nodes R1–R27.
    pub leaves: Vec<NodeId>,
    /// Downstream channel of L1 (root → G1).
    pub l1_down: ChannelId,
    /// Downstream channels of L2j (G1 → G2j).
    pub l2_down: Vec<ChannelId>,
    /// Downstream channels of L3k (G2 → G3k).
    pub l3_down: Vec<ChannelId>,
    /// Downstream channels of L4l (G3 → Rl).
    pub l4_down: Vec<ChannelId>,
    /// The case the link speeds were configured for.
    pub case: CongestionCase,
}

impl TertiaryTree {
    /// The downstream channels of `level` (1–4), in link order.
    fn level_down(&self, level: usize) -> &[ChannelId] {
        match level {
            1 => std::slice::from_ref(&self.l1_down),
            2 => &self.l2_down,
            3 => &self.l3_down,
            _ => &self.l4_down,
        }
    }

    /// The congested downstream channels of this case, labelled like the
    /// paper's links (`L1`, `L2.1`, `L4.12`) — the buffers worth watching
    /// in a queue-occupancy timeline.
    pub fn congested_channels(&self) -> Vec<(String, ChannelId)> {
        let level = self.case.level;
        let down = self.level_down(level);
        self.case
            .links()
            .map(|i| (link_label(level, i), down[i]))
            .collect()
    }

    /// Resolve a link label (`L1`, `L2.1` … `L4.27`) to its downstream
    /// channel — the addressing scheme scheduled `LinkDegrade`/
    /// `LinkRestore` events use. Any link, congested or not, resolves;
    /// `None` means the label names no link of the tree.
    pub fn channel_by_label(&self, label: &str) -> Option<ChannelId> {
        let (level, i) = parse_link_label(label)?;
        Some(self.level_down(level)[i])
    }

    /// Base (zero-queueing) RTT from the root to leaf receivers.
    pub fn leaf_rtt() -> SimDuration {
        SimDuration::from_millis(2 * (5 + 5 + 5 + 100))
    }
}

/// Build the tree for `case`, with every link buffer using `queue`: level
/// by level, link `i` runs from node `i / 3` of the level above down to a
/// new node, in the order the tree's nodes and channels are numbered.
pub fn build_tree(engine: &mut Engine, case: CongestionCase, queue: &QueueConfig) -> TertiaryTree {
    let root = engine.add_node("S");
    let mut nodes = vec![vec![root]];
    let mut down = Vec::new();
    for (level, links) in (1..).zip(LINKS_PER_LEVEL) {
        let delay = SimDuration::from_millis(if level == 4 { 100 } else { 5 });
        let (mut below, mut chans) = (Vec::new(), Vec::new());
        for i in 0..links {
            let name = match level {
                1 => "G1".to_string(),
                4 => format!("R{}", i + 1),
                _ => format!("G{level}{}", i + 1),
            };
            let n = engine.add_node(name);
            let parent = nodes[level - 1][i / 3];
            let (c, _) = engine.add_link(parent, n, case.link_bps(level, i), delay, queue);
            below.push(n);
            chans.push(c);
        }
        nodes.push(below);
        down.push(chans);
    }
    let [_, g1, g2, g3, leaves] = nodes.try_into().expect("four levels below the root");
    let [l1, l2_down, l3_down, l4_down] = down.try_into().expect("four levels");
    TertiaryTree {
        root,
        g1: g1[0],
        g2,
        g3,
        leaves,
        l1_down: l1[0],
        l2_down,
        l3_down,
        l4_down,
        case,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_has_paper_shape() {
        let mut e = Engine::new(0);
        let t = build_tree(
            &mut e,
            CongestionCase::Case1RootLink,
            &QueueConfig::paper_droptail(),
        );
        assert_eq!(t.g2.len(), 3);
        assert_eq!(t.g3.len(), 9);
        assert_eq!(t.leaves.len(), 27);
        // 1 + 3 + 9 + 27 = 40 duplex links -> 80 channels.
        assert_eq!(e.world().channel_count(), 80);
        e.compute_routes();
        for &leaf in &t.leaves {
            assert!(e.world().node(t.root).route_to(leaf).is_some());
        }
    }

    #[test]
    fn every_row_matches_the_papers_placement() {
        // From §5's text, not from the derivation: the label, μ of the
        // congested links in pkt/s, how many there are with the first and
        // last name, and the "more congested" leaves of figure 8.
        type Row = (
            CongestionCase,
            &'static str,
            u64,
            usize,
            &'static str,
            &'static str,
            Vec<usize>,
        );
        #[rustfmt::skip]
        let rows: [Row; 7] = [
            (CongestionCase::Case1RootLink, "L1", 2800, 1, "L1", "L1", vec![]),
            (CongestionCase::Case2AllLevel3, "L3i, i=1..9", 400, 9, "L3.1", "L3.9", vec![]),
            (CongestionCase::Case3AllLeaves, "L4i, i=1..27", 200, 27, "L4.1", "L4.27", vec![]),
            (CongestionCase::Case4FiveLeaves, "L4i, i=1..5", 200, 5, "L4.1", "L4.5", (0..5).collect()),
            (CongestionCase::Case5OneLevel2, "L21", 1000, 1, "L2.1", "L2.1", (0..9).collect()),
            (CongestionCase::Fig10AllLevel2, "L2i, i=1..3", 1000, 3, "L2.1", "L2.3", vec![]),
            (CongestionCase::Fig10AllLevel3, "L3i, i=1..9", 400, 9, "L3.1", "L3.9", vec![]),
        ];
        for (case, label, pps, count, first, last, leaves) in rows {
            let mut e = Engine::new(0);
            let t = build_tree(&mut e, case, &QueueConfig::paper_droptail());
            assert_eq!(case.label(), label, "{case:?}");
            assert_eq!(case.congested_leaves(), leaves, "{case:?}");
            let congested = t.congested_channels();
            assert_eq!(congested.len(), count, "{case:?}");
            assert_eq!(congested[0].0, first, "{case:?}");
            assert_eq!(congested[count - 1].0, last, "{case:?}");
            let l1 = std::slice::from_ref(&t.l1_down);
            let downstream = [l1, &t.l2_down, &t.l3_down, &t.l4_down].concat();
            assert_eq!(downstream.len(), 40);
            for c in downstream {
                let want = if congested.iter().any(|&(_, cc)| cc == c) {
                    pps * 8_000
                } else {
                    FAST_BPS
                };
                assert_eq!(e.world().channel(c).bandwidth_bps, want, "{case:?}");
            }
        }
    }

    #[test]
    fn link_labels_name_exactly_the_trees_links() {
        let mut e = Engine::new(0);
        let t = build_tree(
            &mut e,
            CongestionCase::Case1RootLink,
            &QueueConfig::paper_droptail(),
        );
        let mut resolved = Vec::new();
        for (level, &links) in (1..).zip(&LINKS_PER_LEVEL) {
            for i in 0..links {
                let label = link_label(level, i);
                assert_eq!(parse_link_label(&label), Some((level, i)), "{label}");
                resolved.push(t.channel_by_label(&label).expect("a link of the tree"));
            }
        }
        assert_eq!(resolved.len(), 40);
        assert_eq!(resolved[1], t.l2_down[0]);
        assert_eq!(resolved[39], t.l4_down[26]);
    }

    #[test]
    fn leaf_rtt_is_230ms() {
        assert_eq!(TertiaryTree::leaf_rtt(), SimDuration::from_millis(230));
    }
}
