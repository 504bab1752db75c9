//! Plan shapes (Table II of the paper).
//!
//! The evaluation uses two families of binary join trees over `N` sources:
//!
//! | N | Bushy plan | Left-deep plan |
//! |---|---|---|
//! | 3 | — | `(A⋈B)⋈C` |
//! | 4 | `(A⋈B)⋈(C⋈D)` | `((A⋈B)⋈C)⋈D` |
//! | 5 | `((A⋈B)⋈(C⋈D))⋈E` | `(((A⋈B)⋈C)⋈D)⋈E` |
//! | 6 | `((A⋈B)⋈(C⋈D))⋈(E⋈F)` | `((((A⋈B)⋈C)⋈D)⋈E)⋈F` |
//! | 7 | `((A⋈B)⋈(C⋈D))⋈((E⋈F)⋈G)` | — |
//! | 8 | `((A⋈B)⋈(C⋈D))⋈((E⋈F)⋈(G⋈H))` | — |

use jit_types::{SourceId, SourceSet};
use serde::{Deserialize, Serialize};

/// Which family of binary tree to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TreeShape {
    /// Balanced plans pairing sources first (Table II, middle column).
    Bushy,
    /// Linear plans extending one source at a time (Table II, right column).
    LeftDeep,
}

/// What feeds one input of a join node while describing a shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlanInput {
    /// A raw source, by index.
    Source(usize),
    /// The output of an earlier join node, by index into the node list.
    Node(usize),
}

/// One binary join of the shape. Nodes are listed bottom-up; the last node is
/// the root (the query's output operator).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct JoinNode {
    /// Left input.
    pub left: PlanInput,
    /// Right input.
    pub right: PlanInput,
}

/// A plan shape: tree family + number of sources.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlanShape {
    /// Bushy or left-deep.
    pub shape: TreeShape,
    /// Number of streaming sources `N`.
    pub num_sources: usize,
}

impl PlanShape {
    /// A bushy plan over `n` sources (Table II supports 3 ≤ n ≤ 8).
    pub fn bushy(n: usize) -> Self {
        PlanShape {
            shape: TreeShape::Bushy,
            num_sources: n,
        }
    }

    /// A left-deep plan over `n` sources (n ≥ 2).
    pub fn left_deep(n: usize) -> Self {
        PlanShape {
            shape: TreeShape::LeftDeep,
            num_sources: n,
        }
    }

    /// The join nodes of the shape, bottom-up (the last node is the root).
    pub fn nodes(&self) -> Vec<JoinNode> {
        match self.shape {
            TreeShape::LeftDeep => left_deep_nodes(self.num_sources),
            TreeShape::Bushy => bushy_nodes(self.num_sources),
        }
    }

    /// Number of binary join operators in the plan (`N − 1`).
    #[cfg(test)]
    fn num_joins(&self) -> usize {
        self.num_sources.saturating_sub(1)
    }

    /// The schema (set of sources) covered by each node's output, in node
    /// order. Useful when instantiating operators.
    pub fn node_schemas(&self) -> Vec<SourceSet> {
        let nodes = self.nodes();
        let mut schemas: Vec<SourceSet> = Vec::with_capacity(nodes.len());
        for node in &nodes {
            let left = input_schema(node.left, &schemas);
            let right = input_schema(node.right, &schemas);
            schemas.push(left.union(right));
        }
        schemas
    }

    /// The schema of a given plan input, given the schemas of earlier nodes.
    pub fn input_schema(&self, input: PlanInput) -> SourceSet {
        input_schema(input, &self.node_schemas())
    }

    /// A short label like `"bushy-6"` for reports.
    pub fn label(&self) -> String {
        match self.shape {
            TreeShape::Bushy => format!("bushy-{}", self.num_sources),
            TreeShape::LeftDeep => format!("leftdeep-{}", self.num_sources),
        }
    }
}

fn input_schema(input: PlanInput, node_schemas: &[SourceSet]) -> SourceSet {
    match input {
        PlanInput::Source(i) => SourceSet::single(SourceId(i as u16)),
        PlanInput::Node(i) => node_schemas[i],
    }
}

fn left_deep_nodes(n: usize) -> Vec<JoinNode> {
    assert!(n >= 2, "a join plan needs at least two sources");
    let mut nodes = vec![JoinNode {
        left: PlanInput::Source(0),
        right: PlanInput::Source(1),
    }];
    for s in 2..n {
        nodes.push(JoinNode {
            left: PlanInput::Node(nodes.len() - 1),
            right: PlanInput::Source(s),
        });
    }
    nodes
}

fn bushy_nodes(n: usize) -> Vec<JoinNode> {
    assert!(
        (3..=8).contains(&n),
        "Table II defines bushy plans for 3 to 8 sources (got {n})"
    );
    use PlanInput::{Node, Source};
    let j = |left, right| JoinNode { left, right };
    match n {
        // (A⋈B)⋈C — with three sources the bushy and left-deep plans coincide.
        3 => vec![j(Source(0), Source(1)), j(Node(0), Source(2))],
        // (A⋈B)⋈(C⋈D)
        4 => vec![
            j(Source(0), Source(1)),
            j(Source(2), Source(3)),
            j(Node(0), Node(1)),
        ],
        // ((A⋈B)⋈(C⋈D))⋈E
        5 => vec![
            j(Source(0), Source(1)),
            j(Source(2), Source(3)),
            j(Node(0), Node(1)),
            j(Node(2), Source(4)),
        ],
        // ((A⋈B)⋈(C⋈D))⋈(E⋈F)
        6 => vec![
            j(Source(0), Source(1)),
            j(Source(2), Source(3)),
            j(Node(0), Node(1)),
            j(Source(4), Source(5)),
            j(Node(2), Node(3)),
        ],
        // ((A⋈B)⋈(C⋈D))⋈((E⋈F)⋈G)
        7 => vec![
            j(Source(0), Source(1)),
            j(Source(2), Source(3)),
            j(Node(0), Node(1)),
            j(Source(4), Source(5)),
            j(Node(3), Source(6)),
            j(Node(2), Node(4)),
        ],
        // ((A⋈B)⋈(C⋈D))⋈((E⋈F)⋈(G⋈H))
        8 => vec![
            j(Source(0), Source(1)),
            j(Source(2), Source(3)),
            j(Node(0), Node(1)),
            j(Source(4), Source(5)),
            j(Source(6), Source(7)),
            j(Node(3), Node(4)),
            j(Node(2), Node(5)),
        ],
        #[expect(
            clippy::unreachable,
            reason = "INVARIANT: the assert above restricts n to 3..=8, all matched."
        )]
        _ => unreachable!(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn left_deep_has_linear_structure() {
        for n in 2..=8 {
            let shape = PlanShape::left_deep(n);
            let nodes = shape.nodes();
            assert_eq!(nodes.len(), n - 1);
            assert_eq!(shape.num_joins(), n - 1);
            // Every node beyond the first consumes the previous node.
            for (i, node) in nodes.iter().enumerate().skip(1) {
                assert_eq!(node.left, PlanInput::Node(i - 1));
            }
            // The root covers every source.
            assert_eq!(*shape.node_schemas().last().unwrap(), SourceSet::first_n(n));
        }
    }

    #[test]
    fn bushy_plans_match_table_ii() {
        for n in 3..=8 {
            let shape = PlanShape::bushy(n);
            let nodes = shape.nodes();
            assert_eq!(nodes.len(), n - 1, "N={n}");
            let schemas = shape.node_schemas();
            assert_eq!(*schemas.last().unwrap(), SourceSet::first_n(n), "N={n}");
            // Every source is consumed exactly once and every non-root node
            // is consumed exactly once.
            let mut source_uses = vec![0usize; n];
            let mut node_uses = vec![0usize; nodes.len()];
            for node in &nodes {
                for input in [node.left, node.right] {
                    match input {
                        PlanInput::Source(s) => source_uses[s] += 1,
                        PlanInput::Node(i) => node_uses[i] += 1,
                    }
                }
            }
            assert!(source_uses.iter().all(|&c| c == 1), "N={n}");
            assert!(
                node_uses[..nodes.len() - 1].iter().all(|&c| c == 1),
                "N={n}"
            );
            assert_eq!(node_uses[nodes.len() - 1], 0, "root is not consumed");
        }
    }

    #[test]
    fn bushy_6_pairs_sources_first() {
        // ((A⋈B)⋈(C⋈D))⋈(E⋈F): the first, second and fourth nodes join raw
        // sources.
        let nodes = PlanShape::bushy(6).nodes();
        assert_eq!(nodes[0].left, PlanInput::Source(0));
        assert_eq!(nodes[1].right, PlanInput::Source(3));
        assert_eq!(nodes[3].left, PlanInput::Source(4));
        assert_eq!(nodes[4].left, PlanInput::Node(2));
        assert_eq!(nodes[4].right, PlanInput::Node(3));
    }

    #[test]
    fn input_schema_resolves_sources_and_nodes() {
        let shape = PlanShape::bushy(4);
        assert_eq!(
            shape.input_schema(PlanInput::Source(2)),
            SourceSet::single(SourceId(2))
        );
        assert_eq!(
            shape.input_schema(PlanInput::Node(0)),
            SourceSet::first_n(2)
        );
    }

    #[test]
    fn labels() {
        assert_eq!(PlanShape::bushy(6).label(), "bushy-6");
        assert_eq!(PlanShape::left_deep(4).label(), "leftdeep-4");
    }

    #[test]
    #[should_panic(expected = "Table II")]
    fn bushy_out_of_range_panics() {
        PlanShape::bushy(9).nodes();
    }
}
