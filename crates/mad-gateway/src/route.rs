//! Route computation over a sequence of real channels.
//!
//! A virtual channel is "a sequence of real channels" (paper §6): a linear
//! chain of clusters where adjacent hops share exactly one node — the
//! gateway. Routing on a chain is trivial and static: an end node finds the
//! hop segment it shares with the destination or forwards toward it through
//! the adjacent gateway.

use madsim_net::NodeId;

/// The static topology of one virtual channel.
#[derive(Clone, Debug)]
pub struct Route {
    /// Member nodes of each hop channel, in chain order.
    hops: Vec<Vec<NodeId>>,
    /// `gateways[i]` joins `hops[i]` and `hops[i+1]`.
    gateways: Vec<NodeId>,
}

impl Route {
    /// Build the route from the member lists of the hop channels.
    ///
    /// # Panics
    /// Panics unless adjacent hops share **exactly one** node (the
    /// gateway), and non-adjacent hops share none.
    pub fn new(hops: Vec<Vec<NodeId>>) -> Self {
        assert!(!hops.is_empty(), "a virtual channel needs at least one hop");
        let mut gateways = Vec::new();
        for w in hops.windows(2) {
            let shared: Vec<NodeId> = w[0].iter().copied().filter(|n| w[1].contains(n)).collect();
            assert_eq!(
                shared.len(),
                1,
                "adjacent hops must share exactly one gateway node, found {shared:?}"
            );
            gateways.push(shared[0]);
        }
        for i in 0..hops.len() {
            for j in i + 2..hops.len() {
                for n in &hops[i] {
                    assert!(
                        !hops[j].contains(n),
                        "node {n} appears in non-adjacent hops {i} and {j}: \
                         the chain must be linear"
                    );
                }
            }
        }
        Route { hops, gateways }
    }

    /// The gateway joining hops `i` and `i+1`.
    pub fn gateway(&self, i: usize) -> NodeId {
        self.gateways[i]
    }

    /// Gateways adjacent to `node` as `(left_hop_index, node_is_gateway)`
    /// pairs: indices `i` such that `node` is the gateway between hops `i`
    /// and `i+1`.
    pub fn gateway_positions(&self, node: NodeId) -> Vec<usize> {
        (0..self.gateways.len())
            .filter(|&i| self.gateways[i] == node)
            .collect()
    }

    /// Every distinct member node.
    pub fn all_members(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self.hops.iter().flatten().copied().collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Hop indices containing `node`.
    pub fn hops_of(&self, node: NodeId) -> Vec<usize> {
        (0..self.hops.len())
            .filter(|&i| self.hops[i].contains(&node))
            .collect()
    }

    /// From `me`, the `(hop_index, next_node)` of the first leg toward
    /// `dst`.
    ///
    /// # Panics
    /// Panics if `me` or `dst` is not on the route.
    pub fn next_leg(&self, me: NodeId, dst: NodeId) -> (usize, NodeId) {
        assert_ne!(me, dst, "routing to self");
        let my_hops = self.hops_of(me);
        assert!(!my_hops.is_empty(), "node {me} is not on this route");
        let dst_hops = self.hops_of(dst);
        assert!(!dst_hops.is_empty(), "node {dst} is not on this route");
        // Shared hop: direct.
        for &h in &my_hops {
            if dst_hops.contains(&h) {
                return (h, dst);
            }
        }
        // Otherwise move along the chain toward dst.
        let my_max = *my_hops.iter().max().expect("non-empty");
        let my_min = *my_hops.iter().min().expect("non-empty");
        let dst_min = *dst_hops.iter().min().expect("non-empty");
        if dst_min > my_max {
            // Rightwards: exit through the gateway at the right edge.
            (my_max, self.gateways[my_max])
        } else {
            debug_assert!(dst_min < my_min);
            // Leftwards.
            (my_min, self.gateways[my_min - 1])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_cluster() -> Route {
        // SCI cluster {0,1,2}, gateway 2, Myrinet cluster {2,3,4}.
        Route::new(vec![vec![0, 1, 2], vec![2, 3, 4]])
    }

    #[test]
    fn gateway_is_detected() {
        let r = two_cluster();
        assert_eq!(r.gateway(0), 2);
        assert_eq!(r.gateway_positions(2), vec![0]);
        assert_eq!(r.gateway_positions(0), Vec::<usize>::new());
    }

    #[test]
    fn direct_route_within_hop() {
        let r = two_cluster();
        assert_eq!(r.next_leg(0, 1), (0, 1));
        assert_eq!(r.next_leg(3, 4), (1, 4));
    }

    #[test]
    fn cross_cluster_route_goes_through_gateway() {
        let r = two_cluster();
        assert_eq!(r.next_leg(0, 4), (0, 2));
        assert_eq!(r.next_leg(4, 1), (1, 2));
    }

    #[test]
    fn gateway_routes_onward() {
        let r = two_cluster();
        assert_eq!(r.next_leg(2, 0), (0, 0));
        assert_eq!(r.next_leg(2, 4), (1, 4));
    }

    #[test]
    fn three_hop_chain() {
        // {0,1} -[1]- {1,2} -[2]- {2,3}
        let r = Route::new(vec![vec![0, 1], vec![1, 2], vec![2, 3]]);
        assert_eq!(r.gateway(0), 1);
        assert_eq!(r.gateway(1), 2);
        assert_eq!(r.next_leg(0, 3), (0, 1));
        assert_eq!(r.next_leg(1, 3), (1, 2));
        assert_eq!(r.next_leg(2, 3), (2, 3));
        assert_eq!(r.next_leg(3, 0), (2, 2));
        assert_eq!(r.all_members(), vec![0, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "exactly one gateway")]
    fn disjoint_hops_rejected() {
        Route::new(vec![vec![0, 1], vec![2, 3]]);
    }

    #[test]
    #[should_panic(expected = "exactly one gateway")]
    fn doubly_joined_hops_rejected() {
        Route::new(vec![vec![0, 1, 2], vec![1, 2, 3]]);
    }

    #[test]
    #[should_panic(expected = "linear")]
    fn cyclic_chain_rejected() {
        Route::new(vec![vec![0, 1], vec![1, 2], vec![2, 0]]);
    }
}
