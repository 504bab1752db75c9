//! Columnar arrival batches — the transport unit of the batch data plane.
//!
//! # Layout
//!
//! A [`Batch`] is a run of arrivals from *one* source: the row tuples
//! (shared `Arc<BaseTuple>`s, still the unit of state storage), an optional
//! column-major projection of their values ([`ArrayImpl`] per column), and
//! the per-row timestamps with cached min/max — the batch *frontier* that
//! the sharded sink merges instead of individual tuples.
//!
//! A [`Block`] packages the batches of one flush window across sources,
//! plus the exact global arrival order as `(batch, row)` index pairs, so a
//! consumer can replay the rows in the interleaving they arrived in.
//!
//! # Building
//!
//! [`BlockBuilder`] accumulates pushed arrivals (grouping consecutive rows
//! by source) until its owner calls [`BlockBuilder::finish`]. Column
//! building is optional — when the consumer has no columnar kernels the
//! builder skips the column pass entirely.

use crate::array::{ArrayBuilder, ArrayImpl};
use crate::schema::SourceId;
use crate::timestamp::Timestamp;
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
    source: SourceId,
    rows: Vec<Arc<BaseTuple>>,
    /// Column-major projection of the row values; empty when column
    /// building was disabled or the rows disagree on arity.
    columns: Vec<ArrayImpl>,
    timestamps: Vec<Timestamp>,
    min_ts: Timestamp,
    max_ts: Timestamp,
}

impl Batch {
    /// The source every row arrived on.
    pub fn source(&self) -> SourceId {
        self.source
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Is the batch empty?
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The row tuples, in arrival order.
    pub fn rows(&self) -> &[Arc<BaseTuple>] {
        &self.rows
    }

    /// The row at `index`, if in bounds.
    pub fn row(&self, index: usize) -> Option<&Arc<BaseTuple>> {
        self.rows.get(index)
    }

    /// The columnar projection (empty when columns were not built).
    pub fn columns(&self) -> &[ArrayImpl] {
        &self.columns
    }

    /// One column of the projection, if built.
    pub fn column(&self, index: usize) -> Option<&ArrayImpl> {
        self.columns.get(index)
    }

    /// Per-row arrival timestamps (parallel to [`Batch::rows`]).
    pub fn timestamps(&self) -> &[Timestamp] {
        &self.timestamps
    }

    /// The batch frontier's lower bound: the earliest row timestamp.
    pub fn min_ts(&self) -> Timestamp {
        self.min_ts
    }

    /// The batch frontier's upper bound: the latest row timestamp.
    pub fn max_ts(&self) -> Timestamp {
        self.max_ts
    }
}

/// A batch of one source being accumulated by a [`BlockBuilder`].
#[derive(Debug)]
struct BatchInProgress {
    source: SourceId,
    rows: Vec<Arc<BaseTuple>>,
    timestamps: Vec<Timestamp>,
    /// Per-column builders; `None` when column building is off or the rows
    /// disagreed on arity (the projection is then abandoned for the batch).
    columns: Option<Vec<ArrayBuilder>>,
    min_ts: Timestamp,
    max_ts: Timestamp,
}

impl BatchInProgress {
    fn new(source: SourceId, with_columns: bool) -> Self {
        BatchInProgress {
            source,
            rows: Vec::new(),
            timestamps: Vec::new(),
            columns: with_columns.then(Vec::new),
            min_ts: Timestamp::MAX,
            max_ts: Timestamp::ZERO,
        }
    }

    fn push(&mut self, tuple: Arc<BaseTuple>) {
        let ts = tuple.ts;
        self.min_ts = self.min_ts.min(ts);
        self.max_ts = self.max_ts.max(ts);
        self.timestamps.push(ts);
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
            source: self.source,
            columns: self
                .columns
                .map(|builders| builders.into_iter().map(ArrayBuilder::finish).collect())
                .unwrap_or_default(),
            rows: self.rows,
            timestamps: self.timestamps,
            min_ts: self.min_ts,
            max_ts: self.max_ts,
        }
    }
}

/// A flush window of batches plus the exact global arrival order.
#[derive(Debug, Clone, Default)]
pub struct Block {
    batches: Vec<Batch>,
    /// `(batch index, row index)` per arrival, in global push order.
    order: Vec<(u32, u32)>,
}

impl Block {
    /// The per-source batches.
    pub fn batches(&self) -> &[Batch] {
        &self.batches
    }

    /// Total number of rows across all batches.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Is the block empty?
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// The earliest row timestamp across all batches ([`Timestamp::MAX`]
    /// when empty).
    pub fn min_ts(&self) -> Timestamp {
        self.batches
            .iter()
            .map(Batch::min_ts)
            .min()
            .unwrap_or(Timestamp::MAX)
    }

    /// The latest row timestamp across all batches ([`Timestamp::ZERO`]
    /// when empty).
    pub fn max_ts(&self) -> Timestamp {
        self.batches
            .iter()
            .map(Batch::max_ts)
            .max()
            .unwrap_or(Timestamp::ZERO)
    }

    /// Iterate the rows in global arrival order as `(source, tuple)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (SourceId, &Arc<BaseTuple>)> {
        self.order.iter().map(move |&(b, r)| {
            let batch = &self.batches[b as usize];
            (batch.source(), &batch.rows()[r as usize])
        })
    }
}

/// Accumulates pushed arrivals into a [`Block`].
///
/// Consecutive rows from the same source extend that source's current
/// batch; a row from a different source opens (or extends) another batch.
/// The global push order is recorded exactly, so consumers can replay the
/// block as if the rows had arrived one at a time.
#[derive(Debug)]
pub struct BlockBuilder {
    with_columns: bool,
    batches: Vec<BatchInProgress>,
    order: Vec<(u32, u32)>,
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
            order: Vec::new(),
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
        self.order.len()
    }

    /// Is the builder empty?
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
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
        let row_idx = self.batches[batch_idx].rows.len();
        self.order.push((batch_idx as u32, row_idx as u32));
        self.batches[batch_idx].push(tuple);
    }

    /// Drain the buffered rows into a [`Block`], leaving the builder empty.
    pub fn finish(&mut self) -> Block {
        Block {
            batches: self
                .batches
                .drain(..)
                .map(BatchInProgress::finish)
                .collect(),
            order: std::mem::take(&mut self.order),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn builder_groups_by_source_and_preserves_order() {
        let mut b = BlockBuilder::new();
        b.push(SourceId(0), base(0, 0, 10, 7));
        b.push(SourceId(1), base(1, 0, 20, 8));
        b.push(SourceId(0), base(0, 1, 30, 9));
        assert_eq!(b.len(), 3);
        let block = b.finish();
        assert!(b.is_empty());
        assert_eq!(block.len(), 3);
        assert_eq!(block.batches().len(), 2);
        // Global order is exactly the push order.
        let replay: Vec<(u16, u64)> = block.iter().map(|(s, t)| (s.0, t.seq)).collect();
        assert_eq!(replay, vec![(0, 0), (1, 0), (0, 1)]);
        assert_eq!(block.min_ts(), Timestamp::from_millis(10));
        assert_eq!(block.max_ts(), Timestamp::from_millis(30));
    }

    #[test]
    fn batch_carries_columns_and_frontier() {
        let mut b = BlockBuilder::new();
        for i in 0..4u64 {
            b.push(SourceId(0), base(0, i, 100 + i, i as i64 % 2));
        }
        let block = b.finish();
        let batch = &block.batches()[0];
        assert_eq!(batch.len(), 4);
        assert_eq!(batch.source(), SourceId(0));
        assert_eq!(batch.min_ts(), Timestamp::from_millis(100));
        assert_eq!(batch.max_ts(), Timestamp::from_millis(103));
        assert_eq!(batch.timestamps().len(), 4);
        assert_eq!(batch.columns().len(), 2);
        assert_eq!(
            batch.column(0).and_then(ArrayImpl::as_i64),
            Some(&[0i64, 1, 0, 1][..])
        );
        assert!(batch.column(2).is_none());
        assert_eq!(batch.row(3).map(|t| t.seq), Some(3));
    }

    #[test]
    fn columns_can_be_disabled() {
        let mut b = BlockBuilder::new().with_columns(false);
        b.push(SourceId(0), base(0, 0, 1, 1));
        let block = b.finish();
        assert!(block.batches()[0].columns().is_empty());
        assert_eq!(block.batches()[0].len(), 1);
    }

    #[test]
    fn policy_row_counts() {
        assert_eq!(BatchPolicy::rows(3).max_rows, 3);
        assert_eq!(BatchPolicy::default().max_rows, 1);
        assert_eq!(BatchPolicy::rows(0), BatchPolicy::default());
    }

    #[test]
    fn empty_block_frontiers() {
        let block = Block::default();
        assert!(block.is_empty());
        assert_eq!(block.min_ts(), Timestamp::MAX);
        assert_eq!(block.max_ts(), Timestamp::ZERO);
    }
}
