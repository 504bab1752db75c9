//! Columnar arrival batches — the transport unit of the batch data plane.
//!
//! # Layout
//!
//! A [`Batch`] is a run of arrivals from *one* source: the row tuples
//! (shared `Arc<BaseTuple>`s, still the unit of state storage) and an
//! optional column-major projection of their values ([`ArrayImpl`] per
//! column). A [`Block`] packages the batches of one flush window across
//! sources.
//!
//! # Building
//!
//! [`BlockBuilder`] accumulates pushed arrivals (grouping consecutive rows
//! by source) until its owner calls [`BlockBuilder::finish`]. Column
//! building is optional — when the consumer has no columnar kernels the
//! builder skips the column pass entirely.

use crate::array::{ArrayBuilder, ArrayImpl};
use crate::schema::SourceId;
use crate::tuple::BaseTuple;
use std::sync::Arc;

/// How many arrivals the engine groups before handing them on.
///
/// Operators process one arrival at a time whatever the policy; its one
/// effect is the width of the sharded runtime's channel chunks (see
/// `EngineBuilder::batch_policy`). The default is one row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Rows per group (≥ 1).
    pub max_rows: usize,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy { max_rows: 1 }
    }
}

impl BatchPolicy {
    /// A policy that groups `max_rows` rows.
    pub fn rows(max_rows: usize) -> Self {
        BatchPolicy {
            max_rows: max_rows.max(1),
        }
    }
}

/// A run of arrivals from one source, with optional columnar projection.
#[derive(Debug, Clone)]
pub struct Batch {
    rows: Vec<Arc<BaseTuple>>,
    /// Column-major projection of the row values; empty when column
    /// building was disabled or the rows disagree on arity.
    columns: Vec<ArrayImpl>,
}

impl Batch {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Is the batch empty?
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The row tuples, in arrival order.
    pub(crate) fn rows(&self) -> &[Arc<BaseTuple>] {
        &self.rows
    }

    /// One column of the projection, if built.
    pub fn column(&self, index: usize) -> Option<&ArrayImpl> {
        self.columns.get(index)
    }
}

/// A batch of one source being accumulated by a [`BlockBuilder`].
#[derive(Debug)]
struct BatchInProgress {
    source: SourceId,
    rows: Vec<Arc<BaseTuple>>,
    /// Per-column builders; `None` when column building is off or the rows
    /// disagreed on arity (the projection is then abandoned for the batch).
    columns: Option<Vec<ArrayBuilder>>,
}

impl BatchInProgress {
    fn new(source: SourceId, with_columns: bool) -> Self {
        BatchInProgress {
            source,
            rows: Vec::new(),
            columns: with_columns.then(Vec::new),
        }
    }

    fn push(&mut self, tuple: Arc<BaseTuple>) {
        if let Some(builders) = &mut self.columns {
            if self.rows.is_empty() {
                *builders = (0..tuple.arity()).map(|_| ArrayBuilder::new()).collect();
            }
            if builders.len() == tuple.arity() {
                for (builder, value) in builders.iter_mut().zip(tuple.values.iter()) {
                    builder.push(value);
                }
            } else {
                // Arity drift within one source: abandon the projection for
                // this batch; kernels fall back to the row tuples.
                self.columns = None;
            }
        }
        self.rows.push(tuple);
    }

    fn finish(self) -> Batch {
        Batch {
            columns: self
                .columns
                .map(|builders| builders.into_iter().map(ArrayBuilder::finish).collect())
                .unwrap_or_default(),
            rows: self.rows,
        }
    }
}

/// The batches of one flush window, one per source.
#[derive(Debug, Clone, Default)]
pub struct Block {
    batches: Vec<Batch>,
}

impl Block {
    /// The per-source batches.
    pub fn batches(&self) -> &[Batch] {
        &self.batches
    }
}

/// Accumulates pushed arrivals into a [`Block`].
///
/// Consecutive rows from the same source extend that source's current
/// batch; a row from a different source opens (or extends) another batch.
#[derive(Debug)]
pub struct BlockBuilder {
    with_columns: bool,
    batches: Vec<BatchInProgress>,
    len: usize,
}

impl Default for BlockBuilder {
    fn default() -> Self {
        BlockBuilder::new()
    }
}

impl BlockBuilder {
    /// An empty builder with column building enabled.
    pub fn new() -> Self {
        BlockBuilder {
            with_columns: true,
            batches: Vec::new(),
            len: 0,
        }
    }

    /// Enable or disable the columnar projection (on by default). Disable
    /// it when no consumer runs columnar kernels to skip the column pass.
    pub fn with_columns(mut self, with_columns: bool) -> Self {
        self.with_columns = with_columns;
        self
    }

    /// Number of buffered rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Is the builder empty?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append one arrival.
    pub fn push(&mut self, source: SourceId, tuple: Arc<BaseTuple>) {
        // Few sources per query: a linear scan beats a map.
        let batch_idx = match self.batches.iter().position(|b| b.source == source) {
            Some(idx) => idx,
            None => {
                self.batches
                    .push(BatchInProgress::new(source, self.with_columns));
                self.batches.len() - 1
            }
        };
        self.len += 1;
        self.batches[batch_idx].push(tuple);
    }

    /// Drain the buffered rows into a [`Block`], leaving the builder empty.
    pub fn finish(&mut self) -> Block {
        self.len = 0;
        Block {
            batches: self
                .batches
                .drain(..)
                .map(BatchInProgress::finish)
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timestamp::Timestamp;
    use crate::value::Value;

    fn base(source: u16, seq: u64, ts: u64, key: i64) -> Arc<BaseTuple> {
        Arc::new(BaseTuple::new(
            SourceId(source),
            seq,
            Timestamp::from_millis(ts),
            vec![Value::int(key), Value::int(seq as i64)],
        ))
    }

    #[test]
    fn builder_groups_by_source() {
        let mut b = BlockBuilder::new();
        b.push(SourceId(0), base(0, 0, 10, 7));
        b.push(SourceId(1), base(1, 0, 20, 8));
        b.push(SourceId(0), base(0, 1, 30, 9));
        assert_eq!(b.len(), 3);
        let block = b.finish();
        assert_eq!(b.len(), 0);
        assert_eq!(block.batches().len(), 2);
        assert_eq!(block.batches()[0].len(), 2);
    }

    #[test]
    fn batch_carries_columns() {
        let mut b = BlockBuilder::new();
        for i in 0..4u64 {
            b.push(SourceId(0), base(0, i, 100 + i, i as i64 % 2));
        }
        let block = b.finish();
        let batch = &block.batches()[0];
        assert_eq!(batch.len(), 4);
        assert_eq!(batch.column(0), Some(&ArrayImpl::Int64(vec![0, 1, 0, 1])));
        assert!(batch.column(2).is_none());
    }

    #[test]
    fn columns_can_be_disabled() {
        let mut b = BlockBuilder::new().with_columns(false);
        b.push(SourceId(0), base(0, 0, 1, 1));
        let block = b.finish();
        assert!(block.batches()[0].column(0).is_none());
        assert_eq!(block.batches()[0].len(), 1);
    }

    #[test]
    fn policy_row_counts() {
        assert_eq!(BatchPolicy::rows(3).max_rows, 3);
        assert_eq!(BatchPolicy::default().max_rows, 1);
        assert_eq!(BatchPolicy::rows(0), BatchPolicy::default());
    }
}
