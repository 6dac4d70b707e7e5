//! Operator task graphs.
//!
//! The paper (§3.3) models an inference function as a task graph
//! `G = (O, E)` of operators, decomposable into *sequence chains* (times
//! add) and *parallel branches* (times max). [`OperatorDag`] is a general
//! DAG; for weighted nodes the chain/branch combination rule equals the
//! weighted critical path, which [`OperatorDag::critical_path`] computes
//! directly, so COP works on arbitrary DAGs, not just series-parallel
//! ones.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::operator::{OpKind, Operator};

/// Identifier of a node inside one [`OperatorDag`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(usize);

impl NodeId {
    /// The node's index in [`OperatorDag::nodes`].
    pub fn index(self) -> usize {
        self.0
    }
}

/// A validated operator DAG.
///
/// Construct with [`DagBuilder`]; the builder enforces acyclicity by
/// construction (edges only point from existing nodes to newer ones).
///
/// # Example
///
/// ```
/// use infless_models::{DagBuilder, OpKind, Operator};
///
/// // input -> two parallel conv branches -> concat
/// let mut b = DagBuilder::new();
/// let root = b.node(Operator::new(OpKind::Embedding, 0.01), &[]);
/// let c1 = b.node(Operator::new(OpKind::Conv2d, 0.2), &[root]);
/// let c2 = b.node(Operator::new(OpKind::Conv2d, 0.3), &[root]);
/// let _out = b.node(Operator::new(OpKind::ConcatV2, 0.001), &[c1, c2]);
/// let dag = b.build();
/// assert_eq!(dag.len(), 4);
/// // Critical path takes the heavier branch.
/// let cp = dag.critical_path(|op| op.gflops());
/// assert!((cp - (0.01 + 0.3 + 0.001)).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OperatorDag {
    nodes: Vec<Operator>,
    /// `preds[i]` lists the predecessors of node `i`; every entry is < i,
    /// so node order is already a topological order.
    preds: Vec<Vec<usize>>,
}

impl OperatorDag {
    /// Number of operator call sites in the graph.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The operators in topological order.
    pub fn nodes(&self) -> &[Operator] {
        &self.nodes
    }

    /// Predecessors of `node`.
    pub fn predecessors(&self, node: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.preds[node.0].iter().map(|&i| NodeId(i))
    }

    /// Iterates `(NodeId, &Operator)` in topological order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &Operator)> {
        self.nodes.iter().enumerate().map(|(i, op)| (NodeId(i), op))
    }

    /// Total work: the sum of `weight` over all nodes.
    ///
    /// With `weight = |op| op.gflops()` this is the model's total GFLOPs;
    /// with a latency function it is the serialized execution time.
    pub fn total<W: Fn(&Operator) -> f64>(&self, weight: W) -> f64 {
        self.nodes.iter().map(weight).sum()
    }

    /// Weighted critical path: the longest weight-sum over any
    /// source→sink path. For series-parallel graphs this equals the
    /// paper's chain-sum / branch-max combination rule.
    pub fn critical_path<W: Fn(&Operator) -> f64>(&self, weight: W) -> f64 {
        let mut finish = vec![0.0f64; self.nodes.len()];
        let mut best: f64 = 0.0;
        for (i, op) in self.nodes.iter().enumerate() {
            let start = self.preds[i]
                .iter()
                .map(|&p| finish[p])
                .fold(0.0f64, f64::max);
            finish[i] = start + weight(op);
            best = best.max(finish[i]);
        }
        best
    }

    /// The slack between serialized and critical-path execution:
    /// `total - critical_path`, i.e. how much work runs on parallel
    /// branches off the longest path. Zero for a pure chain.
    pub fn parallel_slack<W: Fn(&Operator) -> f64 + Copy>(&self, weight: W) -> f64 {
        (self.total(weight) - self.critical_path(weight)).max(0.0)
    }

    /// Counts call sites per distinct operator kind (paper Fig. 7 shows
    /// these counts for LSTM-2365 and ResNet-50), in kind order.
    pub fn kind_counts(&self) -> BTreeMap<OpKind, usize> {
        let mut m = BTreeMap::new();
        for op in &self.nodes {
            *m.entry(op.kind()).or_insert(0) += 1;
        }
        m
    }

    /// Aggregates `weight` per operator kind — e.g. the share of total
    /// execution time attributable to `Conv2D` (Fig. 7b). Summed in
    /// node order, keyed in kind order, so every run sees the same bits.
    pub fn kind_totals<W: Fn(&Operator) -> f64>(&self, weight: W) -> BTreeMap<OpKind, f64> {
        let mut m = BTreeMap::new();
        for op in &self.nodes {
            *m.entry(op.kind()).or_insert(0.0) += weight(op);
        }
        m
    }
}

/// Incremental builder for [`OperatorDag`].
///
/// Acyclic by construction: a node's predecessors must already exist, so
/// edges always point forward in insertion order.
#[derive(Debug, Clone, Default)]
pub struct DagBuilder {
    nodes: Vec<Operator>,
    preds: Vec<Vec<usize>>,
}

impl DagBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        DagBuilder::default()
    }

    /// Adds a node with the given predecessors and returns its id.
    ///
    /// # Panics
    ///
    /// Panics if any predecessor id does not refer to an existing node
    /// or appears twice.
    pub fn node(&mut self, op: Operator, preds: &[NodeId]) -> NodeId {
        let mut ps: Vec<usize> = preds.iter().map(|p| p.0).collect();
        ps.sort_unstable();
        for w in ps.windows(2) {
            assert_ne!(w[0], w[1], "duplicate predecessor");
        }
        for &p in &ps {
            assert!(p < self.nodes.len(), "predecessor does not exist yet");
        }
        let id = NodeId(self.nodes.len());
        self.nodes.push(op);
        self.preds.push(ps);
        id
    }

    /// Appends a chain of operators, each depending on the previous one;
    /// the first depends on `after` (or is a source if `after` is `None`).
    /// Returns the id of the last node, or `after` if `ops` is empty.
    pub fn chain<I>(&mut self, after: Option<NodeId>, ops: I) -> Option<NodeId>
    where
        I: IntoIterator<Item = Operator>,
    {
        let mut tail = after;
        for op in ops {
            let preds: Vec<NodeId> = tail.into_iter().collect();
            tail = Some(self.node(op, &preds));
        }
        tail
    }

    /// Adds a join node depending on all of `branch_tails`.
    pub fn join(&mut self, op: Operator, branch_tails: &[NodeId]) -> NodeId {
        self.node(op, branch_tails)
    }

    /// Current number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if no nodes have been added yet.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Finalizes the graph.
    ///
    /// # Panics
    ///
    /// Panics if the graph is empty — every model computes something.
    pub fn build(self) -> OperatorDag {
        assert!(!self.nodes.is_empty(), "a model DAG cannot be empty");
        OperatorDag {
            nodes: self.nodes,
            preds: self.preds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::OpKind;
    use proptest::prelude::*;

    fn op(gf: f64) -> Operator {
        Operator::new(OpKind::MatMul, gf)
    }

    #[test]
    fn chain_critical_path_is_sum() {
        let mut b = DagBuilder::new();
        b.chain(None, [op(1.0), op(2.0), op(3.0)]);
        let dag = b.build();
        assert_eq!(dag.len(), 3);
        assert_eq!(dag.critical_path(|o| o.gflops()), 6.0);
        assert_eq!(dag.parallel_slack(|o| o.gflops()), 0.0);
    }

    #[test]
    fn branches_take_max() {
        let mut b = DagBuilder::new();
        let root = b.node(op(1.0), &[]);
        let left = b.chain(Some(root), [op(5.0)]).unwrap();
        let right = b.chain(Some(root), [op(2.0), op(2.0)]).unwrap();
        b.join(op(1.0), &[left, right]);
        let dag = b.build();
        assert_eq!(dag.critical_path(|o| o.gflops()), 1.0 + 5.0 + 1.0);
        assert_eq!(dag.total(|o| o.gflops()), 11.0);
        assert_eq!(dag.parallel_slack(|o| o.gflops()), 4.0);
    }

    #[test]
    fn kind_statistics() {
        let mut b = DagBuilder::new();
        let a = b.node(Operator::new(OpKind::Conv2d, 2.0), &[]);
        let c = b.node(Operator::new(OpKind::Conv2d, 3.0), &[a]);
        b.node(Operator::new(OpKind::Relu, 0.1), &[c]);
        let dag = b.build();
        let counts = dag.kind_counts();
        assert_eq!(counts[&OpKind::Conv2d], 2);
        assert_eq!(counts[&OpKind::Relu], 1);
        let totals = dag.kind_totals(|o| o.gflops());
        assert_eq!(totals[&OpKind::Conv2d], 5.0);
    }

    #[test]
    #[should_panic(expected = "does not exist")]
    fn forward_edges_only() {
        let mut b = DagBuilder::new();
        // NodeId can only be obtained from the builder, so fake a stale
        // one via a second builder.
        let mut other = DagBuilder::new();
        let x = other.node(op(1.0), &[]);
        let _y = other.node(op(1.0), &[x]);
        // `b` has no nodes: using `x` from `other` must panic.
        b.node(op(1.0), &[x]);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_predecessor_rejected() {
        let mut b = DagBuilder::new();
        let a = b.node(op(1.0), &[]);
        b.node(op(1.0), &[a, a]);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_dag_rejected() {
        DagBuilder::new().build();
    }

    #[test]
    fn empty_chain_returns_after() {
        let mut b = DagBuilder::new();
        let a = b.node(op(1.0), &[]);
        assert_eq!(b.chain(Some(a), std::iter::empty()), Some(a));
    }

    proptest! {
        /// Critical path is bounded by total work and by the max single node.
        #[test]
        fn prop_critical_path_bounds(gfs in prop::collection::vec(0.0f64..10.0, 1..50)) {
            let mut b = DagBuilder::new();
            // Random-ish fan structure: node i depends on node i/2.
            let mut ids: Vec<NodeId> = Vec::new();
            for (i, gf) in gfs.iter().enumerate() {
                let preds: Vec<NodeId> = if i == 0 { vec![] } else { vec![ids[i / 2]] };
                ids.push(b.node(op(*gf), &preds));
            }
            let dag = b.build();
            let cp = dag.critical_path(|o| o.gflops());
            let total = dag.total(|o| o.gflops());
            let max_node = gfs.iter().cloned().fold(0.0f64, f64::max);
            prop_assert!(cp <= total + 1e-9);
            prop_assert!(cp >= max_node - 1e-9);
            prop_assert!(dag.parallel_slack(|o| o.gflops()) >= 0.0);
        }

        /// For a pure chain, critical path == total exactly.
        #[test]
        fn prop_chain_equality(gfs in prop::collection::vec(0.0f64..10.0, 1..50)) {
            let mut b = DagBuilder::new();
            b.chain(None, gfs.iter().map(|&g| op(g)));
            let dag = b.build();
            let cp = dag.critical_path(|o| o.gflops());
            let total = dag.total(|o| o.gflops());
            prop_assert!((cp - total).abs() < 1e-9);
        }
    }
}
