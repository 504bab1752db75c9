//! Query specification and resolution.

use crate::error::EngineError;
use jit_plan::parse_cql;
use jit_plan::shapes::{PlanShape, TreeShape};
use jit_types::{Duration, FilterPredicate, PredicateSet, Window};

/// How the caller described the continuous query.
#[derive(Debug, Clone)]
pub(crate) enum QuerySpec {
    /// A CQL-subset string (see [`jit_plan::cql`]); the plan defaults to the
    /// left-deep tree over the declared sources.
    Cql(String),
    /// An explicit plan shape with its predicates and window — the form the
    /// synthetic workloads and the experiment harness use.
    Shape {
        /// Join-tree shape (Table II).
        shape: PlanShape,
        /// Equi-join predicates over the sources.
        predicates: PredicateSet,
        /// The sliding window applied at every operator.
        window: Window,
    },
}

/// A query validated and reduced to what the plan builder needs.
#[derive(Debug, Clone)]
pub struct ResolvedQuery {
    /// Join-tree shape.
    pub shape: PlanShape,
    /// Equi-join predicates.
    pub(crate) predicates: PredicateSet,
    /// Sliding window.
    pub(crate) window: Window,
    /// Constant filters (`A.x > 200`); each filtered source is routed
    /// through a selection operator before its join port.
    pub(crate) filters: Vec<FilterPredicate>,
}

impl QuerySpec {
    /// Validate the specification and resolve it to a [`ResolvedQuery`],
    /// reporting structural problems as typed errors instead of letting the
    /// plan layer panic on them.
    pub(crate) fn resolve(&self) -> Result<ResolvedQuery, EngineError> {
        match self {
            QuerySpec::Cql(text) => {
                let query = parse_cql(text)?;
                let n = query.sources.len();
                if n < 2 {
                    return Err(EngineError::InvalidQuery(format!(
                        "a join plan needs at least two sources (FROM lists {n})"
                    )));
                }
                let window = query.window();
                validate_window(window)?;
                let predicates = query.predicates()?;
                let filters = query.filter_predicates()?;
                Ok(ResolvedQuery {
                    shape: PlanShape::left_deep(n),
                    predicates,
                    window,
                    filters,
                })
            }
            QuerySpec::Shape {
                shape,
                predicates,
                window,
            } => {
                validate_shape(shape)?;
                validate_window(*window)?;
                Ok(ResolvedQuery {
                    shape: *shape,
                    predicates: predicates.clone(),
                    window: *window,
                    filters: Vec::new(),
                })
            }
        }
    }
}

/// Reject shapes the plan builder would panic on (its `nodes()` asserts).
fn validate_shape(shape: &PlanShape) -> Result<(), EngineError> {
    match shape.shape {
        TreeShape::LeftDeep if shape.num_sources < 2 => Err(EngineError::InvalidQuery(format!(
            "a left-deep plan needs at least two sources (got {})",
            shape.num_sources
        ))),
        TreeShape::Bushy if !(3..=8).contains(&shape.num_sources) => {
            Err(EngineError::InvalidQuery(format!(
                "Table II defines bushy plans for 3 to 8 sources (got {})",
                shape.num_sources
            )))
        }
        _ => Ok(()),
    }
}

/// Reject a zero-length window: CQL without a `RANGE` clause (or with
/// `RANGE 0`) declares one, and such a window never expires, so the engine
/// cannot bound its state.
fn validate_window(window: Window) -> Result<(), EngineError> {
    if window.length == Duration::ZERO {
        Err(EngineError::InvalidQuery(
            "no RANGE window declared: an unbounded window never expires \
             and the engine cannot bound its state"
                .into(),
        ))
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cql_resolves_to_left_deep_plan() {
        let q = QuerySpec::Cql(
            "SELECT * FROM A [RANGE 5 minutes], B [RANGE 5 minutes] WHERE A.x = B.x".into(),
        );
        let resolved = q.resolve().unwrap();
        assert_eq!(resolved.shape, PlanShape::left_deep(2));
        assert_eq!(resolved.predicates.len(), 1);
        assert_eq!(resolved.window.length, Duration::from_mins(5));
        assert!(resolved.filters.is_empty());
    }

    #[test]
    fn cql_filters_resolve_to_filter_predicates() {
        let q = QuerySpec::Cql(
            "SELECT * FROM A [RANGE 1 minutes], B [RANGE 1 minutes] \
             WHERE A.x = B.x AND A.x > 7"
                .into(),
        );
        let resolved = q.resolve().unwrap();
        assert_eq!(resolved.filters.len(), 1);
        assert_eq!(resolved.predicates.len(), 1);
    }

    #[test]
    fn cql_structural_errors_are_typed() {
        let parse = QuerySpec::Cql("nonsense".into()).resolve();
        assert!(matches!(parse, Err(EngineError::Cql(_))));
        let single = QuerySpec::Cql("SELECT * FROM A [RANGE 1 minutes]".into()).resolve();
        assert!(matches!(single, Err(EngineError::InvalidQuery(_))));
        let windowless = QuerySpec::Cql("SELECT * FROM A, B WHERE A.x = B.x".into()).resolve();
        assert!(matches!(windowless, Err(EngineError::InvalidQuery(_))));
        let unresolved = QuerySpec::Cql(
            "SELECT * FROM A [RANGE 1 minutes], B [RANGE 1 minutes] WHERE A.x = Z.x".into(),
        )
        .resolve();
        assert!(matches!(unresolved, Err(EngineError::Cql(_))));
    }

    #[test]
    fn shape_bounds_are_enforced() {
        let too_small = QuerySpec::Shape {
            shape: PlanShape::left_deep(1),
            predicates: PredicateSet::new(),
            window: Window::minutes(1.0),
        };
        assert!(matches!(
            too_small.resolve(),
            Err(EngineError::InvalidQuery(_))
        ));
        let too_bushy = QuerySpec::Shape {
            shape: PlanShape::bushy(9),
            predicates: PredicateSet::new(),
            window: Window::minutes(1.0),
        };
        assert!(matches!(
            too_bushy.resolve(),
            Err(EngineError::InvalidQuery(_))
        ));
    }
}
