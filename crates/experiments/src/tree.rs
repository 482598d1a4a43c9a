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
pub const TARGET_SHARE_PPS: f64 = 100.0;

/// The five congestion placements of figures 7–9, plus the two unequal-RTT
/// cases of figure 10.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CongestionCase {
    /// Case 1: the root link L1 is the bottleneck (fully correlated
    /// losses). 27 TCPs + 1 multicast share it: μ = 2800 pkt/s.
    Case1RootLink,
    /// Case 2: all nine level-3 links (partially correlated). 3 TCPs + 1
    /// multicast each: μ = 400 pkt/s.
    Case2AllLevel3,
    /// Case 3: all 27 leaf links (independent losses). 1 TCP + 1 multicast
    /// each: μ = 200 pkt/s.
    Case3AllLeaves,
    /// Case 4: only leaf links 1–5 congested at 200 pkt/s.
    Case4FiveLeaves,
    /// Case 5: the single level-2 link L21. 9 TCPs + 1 multicast:
    /// μ = 1000 pkt/s.
    Case5OneLevel2,
    /// Figure 10 case 1: all three level-2 links, with the G3 gateways
    /// also hosting *multicast* receivers (TCP stays leaf-only, as the
    /// paper's near-equal WTCP/BTCP shows): 9 TCPs + 1 multicast per L2
    /// link, μ = 1000 pkt/s.
    Fig10AllLevel2,
    /// Figure 10 case 2: all nine level-3 links with G3 multicast
    /// receivers (3 TCPs + 1 multicast each: μ = 400 pkt/s).
    Fig10AllLevel3,
}

impl CongestionCase {
    /// The five equal-RTT cases in table order.
    pub const FIGURE7_CASES: [CongestionCase; 5] = [
        CongestionCase::Case1RootLink,
        CongestionCase::Case2AllLevel3,
        CongestionCase::Case3AllLeaves,
        CongestionCase::Case4FiveLeaves,
        CongestionCase::Case5OneLevel2,
    ];

    /// The two unequal-RTT cases of figure 10 in table order.
    pub const FIGURE10_CASES: [CongestionCase; 2] = [
        CongestionCase::Fig10AllLevel2,
        CongestionCase::Fig10AllLevel3,
    ];

    /// The paper's label for the congested-link set.
    pub fn label(&self) -> &'static str {
        match self {
            CongestionCase::Case1RootLink => "L1",
            CongestionCase::Case2AllLevel3 => "L3i, i=1..9",
            CongestionCase::Case3AllLeaves => "L4i, i=1..27",
            CongestionCase::Case4FiveLeaves => "L4i, i=1..5",
            CongestionCase::Case5OneLevel2 => "L21",
            CongestionCase::Fig10AllLevel2 => "L2i, i=1..3",
            CongestionCase::Fig10AllLevel3 => "L3i, i=1..9",
        }
    }

    /// Whether this case adds the G3 gateways as receivers (figure 10's
    /// unequal-RTT population of 36).
    pub fn has_g3_receivers(&self) -> bool {
        matches!(
            self,
            CongestionCase::Fig10AllLevel2 | CongestionCase::Fig10AllLevel3
        )
    }

    /// The smallest congested-link bandwidth (used to size the random
    /// processing overhead that removes phase effects).
    pub fn bottleneck_pps(&self) -> u64 {
        match self {
            CongestionCase::Case1RootLink => 2800,
            CongestionCase::Case2AllLevel3 => 400,
            CongestionCase::Case3AllLeaves | CongestionCase::Case4FiveLeaves => 200,
            CongestionCase::Case5OneLevel2 => 1000,
            CongestionCase::Fig10AllLevel2 => 1000,
            CongestionCase::Fig10AllLevel3 => 400,
        }
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
    /// Leaf indices on congested branches ("more congested" receivers in
    /// figure 8's grouping). Empty means *all* are equally congested.
    pub fn congested_leaves(&self) -> Vec<usize> {
        match self.case {
            CongestionCase::Case4FiveLeaves => (0..5).collect(),
            CongestionCase::Case5OneLevel2 => (0..9).collect(),
            _ => Vec::new(),
        }
    }

    /// The congested downstream channels of this case, labeled like the
    /// paper's link names (`L1`, `L2.1`, `L3.4`, `L4.12`) — the buffers
    /// worth watching in a queue-occupancy timeline.
    pub fn congested_channels(&self) -> Vec<(String, ChannelId)> {
        let level = |prefix: &str, chans: &[ChannelId]| {
            chans
                .iter()
                .enumerate()
                .map(|(i, &c)| (format!("{prefix}.{}", i + 1), c))
                .collect::<Vec<_>>()
        };
        match self.case {
            CongestionCase::Case1RootLink => vec![("L1".to_string(), self.l1_down)],
            CongestionCase::Case2AllLevel3 | CongestionCase::Fig10AllLevel3 => {
                level("L3", &self.l3_down)
            }
            CongestionCase::Case3AllLeaves => level("L4", &self.l4_down),
            CongestionCase::Case4FiveLeaves => level("L4", &self.l4_down[..5]),
            CongestionCase::Case5OneLevel2 => {
                vec![("L2.1".to_string(), self.l2_down[0])]
            }
            CongestionCase::Fig10AllLevel2 => level("L2", &self.l2_down),
        }
    }

    /// Resolve a paper-style link label (`L1`, `L2.1`, `L3.4`, `L4.12`;
    /// 1-based indices, matching [`TertiaryTree::congested_channels`]) to
    /// its downstream channel — the addressing scheme scheduled
    /// `LinkDegrade`/`LinkRestore` events use. Any label, congested or
    /// not, resolves; `None` means the label names no link in this tree.
    pub fn channel_by_label(&self, label: &str) -> Option<ChannelId> {
        if label == "L1" {
            return Some(self.l1_down);
        }
        let (level, idx) = label.split_once('.')?;
        let i: usize = idx.parse().ok()?;
        let chans = match level {
            "L2" => &self.l2_down,
            "L3" => &self.l3_down,
            "L4" => &self.l4_down,
            _ => return None,
        };
        chans.get(i.checked_sub(1)?).copied()
    }

    /// Base (zero-queueing) RTT from the root to leaf receivers.
    pub fn leaf_rtt() -> SimDuration {
        SimDuration::from_millis(2 * (5 + 5 + 5 + 100))
    }
}

/// Build the tree for `case`, with every link buffer using `queue`.
pub fn build_tree(engine: &mut Engine, case: CongestionCase, queue: &QueueConfig) -> TertiaryTree {
    let d5 = SimDuration::from_millis(5);
    let d100 = SimDuration::from_millis(100);

    let root = engine.add_node("S");
    let g1 = engine.add_node("G1");

    // Per-case link speeds (bits per second).
    let l1_bw = match case {
        CongestionCase::Case1RootLink => pps_to_bps(2800),
        _ => FAST_BPS,
    };
    let l2_bw = |j: usize| match case {
        CongestionCase::Case5OneLevel2 if j == 0 => pps_to_bps(1000),
        CongestionCase::Fig10AllLevel2 => pps_to_bps(1000),
        _ => FAST_BPS,
    };
    let l3_bw = |_k: usize| match case {
        CongestionCase::Case2AllLevel3 => pps_to_bps(400),
        CongestionCase::Fig10AllLevel3 => pps_to_bps(400),
        _ => FAST_BPS,
    };
    let l4_bw = |l: usize| match case {
        CongestionCase::Case3AllLeaves => pps_to_bps(200),
        CongestionCase::Case4FiveLeaves if l < 5 => pps_to_bps(200),
        _ => FAST_BPS,
    };

    let (l1_down, _) = engine.add_link(root, g1, l1_bw, d5, queue);

    let mut g2 = Vec::new();
    let mut l2_down = Vec::new();
    for j in 0..3 {
        let n = engine.add_node(format!("G2{}", j + 1));
        let (down, _) = engine.add_link(g1, n, l2_bw(j), d5, queue);
        g2.push(n);
        l2_down.push(down);
    }

    let mut g3 = Vec::new();
    let mut l3_down = Vec::new();
    for k in 0..9 {
        let n = engine.add_node(format!("G3{}", k + 1));
        let (down, _) = engine.add_link(g2[k / 3], n, l3_bw(k), d5, queue);
        g3.push(n);
        l3_down.push(down);
    }

    let mut leaves = Vec::new();
    let mut l4_down = Vec::new();
    for l in 0..27 {
        let n = engine.add_node(format!("R{}", l + 1));
        let (down, _) = engine.add_link(g3[l / 3], n, l4_bw(l), d100, queue);
        leaves.push(n);
        l4_down.push(down);
    }

    TertiaryTree {
        root,
        g1,
        g2,
        g3,
        leaves,
        l1_down,
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
    fn case_bandwidths_match_soft_bottleneck_target() {
        // Each case's congested link must give share = 100 pkt/s.
        let mut e = Engine::new(0);
        let t = build_tree(
            &mut e,
            CongestionCase::Case2AllLevel3,
            &QueueConfig::paper_droptail(),
        );
        // L3 carries 3 TCPs + 1 multicast at 400 pkt/s = 3.2 Mbps.
        let bw = e.world().channel(t.l3_down[0]).bandwidth_bps;
        assert_eq!(bw, 3_200_000);
        assert_eq!(bw as f64 / 8000.0 / 4.0, TARGET_SHARE_PPS);
    }

    #[test]
    fn case5_congests_only_the_first_level2_link() {
        let mut e = Engine::new(0);
        let t = build_tree(
            &mut e,
            CongestionCase::Case5OneLevel2,
            &QueueConfig::paper_droptail(),
        );
        assert_eq!(e.world().channel(t.l2_down[0]).bandwidth_bps, 8_000_000);
        assert_eq!(e.world().channel(t.l2_down[1]).bandwidth_bps, FAST_BPS);
        assert_eq!(t.congested_leaves(), (0..9).collect::<Vec<_>>());
    }

    #[test]
    fn leaf_rtt_is_230ms() {
        assert_eq!(TertiaryTree::leaf_rtt(), SimDuration::from_millis(230));
    }
}
