//! The query registry: many standing queries, one pushed stream.

use crate::selection::{ClassId, SelectionIndex};
use jit_core::ExecutionMode;
use jit_engine::{CheckpointError, DisorderPolicy, Engine, EngineError, EngineOutcome, Session};
use jit_exec::StateIndexMode;
use jit_metrics::MetricsSnapshot;
use jit_plan::{CanonicalKey, CanonicalQuery, CqlError, FilterTerm};
use jit_runtime::RuntimeConfig;
use jit_types::{BaseTuple, BatchPolicy, Catalog, ColumnRef, FastMap, SourceId, Timestamp, Tuple};
use serde::{Content, Serialize};
use std::sync::Arc;

/// Handle to one registered query, unique for the registry's lifetime
/// (handles are never reused, even after [`QueryRegistry::deregister`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(pub(crate) u64);

impl std::fmt::Display for QueryId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Q{}", self.0)
    }
}

/// Errors surfaced by the serving tier.
#[derive(Debug)]
pub enum ServeError {
    /// The query text failed to parse or canonicalize against the catalog.
    Cql(CqlError),
    /// Building or driving the underlying engine failed.
    Engine(EngineError),
    /// The query id is not (or no longer) registered.
    UnknownQuery(QueryId),
    /// The source id is not in the registry's catalog, or the query does
    /// not reference it.
    UnknownSource(SourceId),
    /// An arrival was pushed with a timestamp earlier than its predecessor.
    OutOfOrder {
        /// Timestamp of the offending arrival.
        pushed: Timestamp,
        /// Timestamp of the previous arrival.
        last: Timestamp,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Cql(e) => write!(f, "query error: {e}"),
            ServeError::Engine(e) => write!(f, "engine error: {e}"),
            ServeError::UnknownQuery(q) => write!(f, "unknown query {q}"),
            ServeError::UnknownSource(s) => write!(f, "unknown source {s}"),
            ServeError::OutOfOrder { pushed, last } => {
                write!(f, "out-of-order arrival: ts {pushed} after {last}")
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<CqlError> for ServeError {
    fn from(e: CqlError) -> Self {
        ServeError::Cql(e)
    }
}

impl From<EngineError> for ServeError {
    fn from(e: EngineError) -> Self {
        ServeError::Engine(e)
    }
}

/// Execution configuration shared by every pipeline the registry builds.
///
/// One registry runs all its pipelines under one mode / backend / state
/// index, so the canonical key alone decides pipeline sharing.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Execution mode (REF / DOE / JIT). Default REF.
    pub mode: ExecutionMode,
    /// How operator states answer probes. Default hashed.
    pub state_index: StateIndexMode,
    /// `Some` runs every pipeline on the sharded multi-core backend.
    pub runtime: Option<RuntimeConfig>,
    /// Partition key column for the sharded backend. Default 0.
    pub key_column: usize,
    /// Assert data-level key-partitionability (see
    /// [`jit_engine::EngineBuilder::assume_key_partitionable`]).
    pub assume_partitionable: bool,
    /// How the tier treats out-of-order arrivals. Default
    /// [`DisorderPolicy::Strict`] (a regression is a typed
    /// [`ServeError::OutOfOrder`]); bounded tolerance gives every pipeline
    /// a watermark-driven reorder stage and turns too-late arrivals into
    /// counted drops (surfaced through each pipeline's metrics).
    pub disorder: DisorderPolicy,
    /// Batching policy of every pipeline's engine: widens the shard-channel
    /// chunks when `runtime` is set, inert otherwise (see
    /// [`jit_engine::EngineBuilder::batch_policy`]).
    pub batch: BatchPolicy,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            mode: ExecutionMode::Ref,
            state_index: StateIndexMode::default(),
            runtime: None,
            key_column: 0,
            assume_partitionable: false,
            disorder: DisorderPolicy::Strict,
            batch: BatchPolicy::default(),
        }
    }
}

/// One executing pipeline: a session plus the queries subscribed to it.
struct Pipeline {
    canonical: CanonicalQuery,
    session: Session,
    subscribers: Vec<QueryId>,
    /// Per local source: the selection class gating arrivals (None =
    /// unfiltered source, everything passes).
    class_of_local: Vec<Option<ClassId>>,
}

/// Sharing counters accumulated by one registry.
#[derive(Debug, Default, Clone)]
struct SharingStats {
    arrivals: u64,
    routed: u64,
    classifications_saved: u64,
}

/// A point-in-time account of how much work the serving tier is sharing.
#[derive(Debug, Clone)]
pub struct SharingReport {
    /// Registered queries.
    pub queries: usize,
    /// Executing pipelines (≤ queries; the gap is pipeline sharing).
    pub pipelines: usize,
    /// Distinct live filter classes.
    pub filter_classes: usize,
    /// Arrivals pushed into the registry.
    pub arrivals: u64,
    /// Tuples actually delivered into pipelines (post-selection routing).
    pub routed: u64,
    /// Filter-class evaluations performed (once per distinct class).
    pub classifications: u64,
    /// Evaluations avoided versus classifying once per holder of a class.
    pub classifications_saved: u64,
    /// Analytical bytes the live pipelines hold (each session's
    /// [`Session::state_bytes`], summed). Two pipelines over the same
    /// source and window each keep their own copy, and both are counted.
    pub shared_state_bytes: usize,
    /// Bytes one dedicated engine per query would hold: each pipeline's
    /// bytes times its subscribers — the isolated-serving baseline.
    pub isolated_state_bytes: usize,
}

/// A registry of standing continuous queries over one shared stream.
///
/// See the crate docs for the sharing model. The registry enforces the same
/// arrival contract as [`Session`]: tuples are pushed in non-decreasing
/// timestamp order, with the *global* source id of the registry's catalog;
/// each pipeline sees the arrival in its own dense local id space (`FROM`
/// position), so results come back with local source ids — source 0 is the
/// query's first `FROM` entry.
pub struct QueryRegistry {
    catalog: Catalog,
    options: ServeOptions,
    /// Creation-ordered pipeline slots, tombstoned on removal so routing
    /// order (and therefore result interleaving) is deterministic.
    pipelines: Vec<Option<Pipeline>>,
    by_key: FastMap<CanonicalKey, usize>,
    /// Global source id → subscribed pipeline slots, ascending.
    routes: FastMap<SourceId, Vec<usize>>,
    queries: FastMap<QueryId, usize>,
    /// Per query: its undelivered result batches, oldest first. A batch is
    /// one poll of the query's pipeline, shared by every subscriber.
    mailboxes: FastMap<QueryId, Vec<Arc<[Tuple]>>>,
    selection: SelectionIndex,
    stats: SharingStats,
    next_query: u64,
    last_push_ts: Timestamp,
}

impl std::fmt::Debug for QueryRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryRegistry")
            .field("queries", &self.queries.len())
            .field("pipelines", &self.num_pipelines())
            .field("arrivals", &self.stats.arrivals)
            .finish()
    }
}

impl QueryRegistry {
    /// A registry over `catalog` with default (single-threaded REF)
    /// execution.
    pub fn new(catalog: Catalog) -> Self {
        QueryRegistry::with_options(catalog, ServeOptions::default())
    }

    /// A registry with explicit execution options.
    pub fn with_options(catalog: Catalog, options: ServeOptions) -> Self {
        QueryRegistry {
            catalog,
            options,
            pipelines: Vec::new(),
            by_key: FastMap::default(),
            routes: FastMap::default(),
            queries: FastMap::default(),
            mailboxes: FastMap::default(),
            selection: SelectionIndex::new(),
            stats: SharingStats::default(),
            next_query: 0,
            last_push_ts: Timestamp::ZERO,
        }
    }

    /// Register a CQL query; it sees every arrival pushed from now on.
    ///
    /// If an already-registered query canonicalizes to the same
    /// [`CanonicalKey`], the new query joins its pipeline instead of
    /// getting a fresh one. The two paths differ in what the new query
    /// observes first:
    ///
    /// * **cold** (fresh pipeline) — the query sees only arrivals pushed
    ///   after registration, exactly like a dedicated engine started now;
    /// * **warm** (shared pipeline) — the query subscribes to a pipeline
    ///   whose window state already holds the recent past, so its results
    ///   may join post-registration arrivals with pre-registration tuples —
    ///   exactly like a dedicated engine fed the full history, counting
    ///   deliveries from registration onward. Results emitted *before*
    ///   registration are drained to the existing subscribers first and
    ///   never reach the new query. On the sharded backend "emitted" means
    ///   released by the cross-shard watermark: a result of
    ///   pre-registration arrivals that was still behind it reaches the
    ///   new query too. Whatever the timing, the new query's stream is a
    ///   suffix of the full-history stream that holds every result
    ///   completed by a post-registration arrival.
    pub fn register(&mut self, cql: &str) -> Result<QueryId, ServeError> {
        let canonical = CanonicalQuery::from_cql(cql, &self.catalog)?;
        let qid = QueryId(self.next_query);

        let idx = match self.by_key.get(canonical.key()) {
            Some(&idx) => {
                self.fan_out(idx);
                idx
            }
            None => {
                let idx = self.start_pipeline(canonical.clone())?;
                self.by_key.insert(canonical.key().clone(), idx);
                for &global in canonical.sources() {
                    self.routes.entry(global).or_default().push(idx);
                }
                idx
            }
        };

        // Per-query references on the shared selection classes: the
        // refcounts price the classifications isolated serving would run.
        let (sources, local_classes, is_fresh) = {
            #[expect(
                clippy::expect_used,
                reason = "INVARIANT: the queries map only holds indices of live pipeline slots (entries are removed together in unregister)."
            )]
            let pipeline = self.pipelines[idx].as_ref().expect("live pipeline");
            let sources = pipeline.canonical.sources().to_vec();
            let local_classes: Vec<Vec<FilterTerm>> = (0..sources.len())
                .map(|l| pipeline.canonical.filter_class(SourceId(l as u16)))
                .collect();
            (sources, local_classes, pipeline.subscribers.is_empty())
        };
        let mut class_of_local = Vec::with_capacity(sources.len());
        for (local, &global) in sources.iter().enumerate() {
            let terms = rebase_terms(&local_classes[local], global);
            class_of_local.push(self.selection.acquire(global, &terms));
        }
        #[expect(
            clippy::expect_used,
            reason = "INVARIANT: the queries map only holds indices of live pipeline slots (entries are removed together in unregister)."
        )]
        let pipeline = self.pipelines[idx].as_mut().expect("live pipeline");
        if is_fresh {
            pipeline.class_of_local = class_of_local;
        } else {
            debug_assert_eq!(pipeline.class_of_local, class_of_local);
        }
        pipeline.subscribers.push(qid);

        self.next_query += 1;
        self.queries.insert(qid, idx);
        self.mailboxes.insert(qid, Vec::new());
        Ok(qid)
    }

    /// Build and start a pipeline for `canonical`. Filters are *not*
    /// compiled into the plan — the registry applies them through the
    /// shared selection index before routing, so pipelines only ever see
    /// passing tuples.
    fn start_pipeline(&mut self, canonical: CanonicalQuery) -> Result<usize, ServeError> {
        let session = self.engine_for(&canonical)?.session()?;
        let idx = self.pipelines.len();
        self.pipelines.push(Some(Pipeline {
            canonical,
            session,
            subscribers: Vec::new(),
            class_of_local: Vec::new(),
        }));
        Ok(idx)
    }

    /// The engine configuration for one canonical query — the same recipe
    /// whether the pipeline starts fresh ([`Self::start_pipeline`]) or is
    /// rebuilt from a checkpoint ([`Self::restore`]).
    fn engine_for(&self, canonical: &CanonicalQuery) -> Result<Engine, ServeError> {
        let mut builder = Engine::builder()
            .query_shape(
                canonical.shape(),
                canonical.predicates(),
                canonical.window(),
            )
            .mode(self.options.mode)
            .state_index(self.options.state_index)
            .partition_key_column(self.options.key_column)
            .disorder(self.options.disorder)
            .batch_policy(self.options.batch);
        if self.options.assume_partitionable {
            builder = builder.assume_key_partitionable();
        }
        if let Some(config) = &self.options.runtime {
            builder = builder.sharded(config.clone());
        }
        Ok(builder.build()?)
    }

    /// Remove a query. Its share of the pipeline's ready results is
    /// delivered into its mailbox first, and the mailbox remainder is
    /// returned; results not yet emitted are *not* flushed (the query asked
    /// to stop listening). When the last subscriber leaves, the pipeline is
    /// shut down and its window state freed with it.
    pub fn deregister(&mut self, qid: QueryId) -> Result<Vec<Tuple>, ServeError> {
        let idx = *self
            .queries
            .get(&qid)
            .ok_or(ServeError::UnknownQuery(qid))?;
        self.fan_out(idx);
        self.queries.remove(&qid);

        #[expect(
            clippy::expect_used,
            reason = "INVARIANT: the queries map only holds indices of live pipeline slots; qid was just resolved through it."
        )]
        let pipeline = self.pipelines[idx].as_mut().expect("live pipeline");
        pipeline.subscribers.retain(|&q| q != qid);
        let empty = pipeline.subscribers.is_empty();
        let classes = pipeline.class_of_local.clone();
        for class in classes.into_iter().flatten() {
            self.selection.release(class);
        }

        if empty {
            #[expect(
                clippy::expect_used,
                reason = "INVARIANT: the slot was live two statements up and nothing in between can clear it."
            )]
            let pipeline = self.pipelines[idx].take().expect("live pipeline");
            self.by_key.remove(pipeline.canonical.key());
            for &global in pipeline.canonical.sources() {
                if let Some(ids) = self.routes.get_mut(&global) {
                    ids.retain(|&i| i != idx);
                }
            }
            // Join workers / drain cleanly; the orphaned flush output has
            // no subscriber and is discarded.
            pipeline.session.finish()?;
        }
        Ok(self.mailboxes.remove(&qid).unwrap_or_default().concat())
    }

    /// Push one arrival, carrying the *global* source id in
    /// [`BaseTuple::source`]. The arrival is classified once per distinct
    /// filter class and routed to every pipeline whose class passed, once
    /// per pipeline (not per query).
    ///
    /// The arrival's values are not copied per pipeline. A pipeline that
    /// reads the source under its global id — one whose `FROM` position of
    /// the source equals the catalog's — is handed `tuple` itself. A pipeline
    /// whose `FROM` order gives the source another local id gets its own
    /// remapped base tuple over the same value vector.
    pub fn push(&mut self, tuple: Arc<BaseTuple>) -> Result<(), ServeError> {
        let source = tuple.source;
        if self.catalog.source(source).is_none() {
            return Err(ServeError::UnknownSource(source));
        }
        if tuple.ts < self.last_push_ts {
            // A timestamp regression is only an error under the strict
            // policy; under bounded disorder each pipeline's reorder stage
            // re-sequences (or drops and counts) the arrival itself.
            if matches!(self.options.disorder, DisorderPolicy::Strict) {
                return Err(ServeError::OutOfOrder {
                    pushed: tuple.ts,
                    last: self.last_push_ts,
                });
            }
        }
        self.last_push_ts = self.last_push_ts.max(tuple.ts);
        self.stats.arrivals += 1;

        // Shared selection: one evaluation per distinct class on this
        // source, reused by every holder.
        let verdicts = self
            .selection
            .classify(source, &Tuple::from_base(Arc::clone(&tuple)));
        for &(class, _) in &verdicts {
            self.stats.classifications_saved += (self.selection.refcount(class) as u64).max(1) - 1;
        }

        // Route once per subscribed pipeline (not per query), in creation
        // order, in the pipeline's local id space.
        let mut routed = 0u64;
        for &idx in self.routes.get(&source).map_or(&[][..], Vec::as_slice) {
            let Some(pipeline) = self.pipelines[idx].as_mut() else {
                continue;
            };
            #[expect(
                clippy::expect_used,
                reason = "INVARIANT: routes entries only name pipelines whose canonical query covers the routed source."
            )]
            let local = pipeline
                .canonical
                .local_id(source)
                .expect("routed pipeline references source");
            // The class is on this source, so `verdicts` holds its verdict;
            // the few classes a source has are scanned, not hashed.
            let passes = pipeline.class_of_local[local.0 as usize]
                .is_none_or(|class| verdicts.iter().any(|&(c, ok)| c == class && ok));
            if !passes {
                continue;
            }
            let base = if local == source {
                Arc::clone(&tuple)
            } else {
                Arc::new(BaseTuple {
                    source: local,
                    seq: tuple.seq,
                    ts: tuple.ts,
                    values: Arc::clone(&tuple.values),
                })
            };
            // Under bounded disorder a too-late arrival comes back as a
            // counted LateDrop in the pipeline's metrics, not an error.
            let _ = pipeline.session.push(local, base)?;
            routed += 1;
        }
        self.stats.routed += routed;
        Ok(())
    }

    /// Drain the results ready for `qid`: the query's pipeline is polled,
    /// its new results become one batch shared by *all* its subscribers'
    /// mailboxes, and `qid`'s batches are returned as one stream, oldest
    /// first. Result tuples are in the query's local id space (source `i` =
    /// `i`-th `FROM` entry).
    pub fn poll_results(&mut self, qid: QueryId) -> Result<Vec<Tuple>, ServeError> {
        let idx = *self
            .queries
            .get(&qid)
            .ok_or(ServeError::UnknownQuery(qid))?;
        self.fan_out(idx);
        #[expect(
            clippy::expect_used,
            reason = "INVARIANT: every registered query gets a mailbox at register time; both are removed together."
        )]
        let mailbox = self.mailboxes.get_mut(&qid).expect("mailbox");
        let results = mailbox.concat();
        // Cleared, not taken: the mailbox keeps its room for the next batch.
        mailbox.clear();
        Ok(results)
    }

    /// Poll pipeline `idx` and hand the fresh results, as one batch, to
    /// every subscriber's mailbox.
    fn fan_out(&mut self, idx: usize) {
        let Some(pipeline) = self.pipelines[idx].as_mut() else {
            return;
        };
        let fresh = pipeline.session.poll_results();
        if fresh.is_empty() {
            return;
        }
        let batch: Arc<[Tuple]> = fresh.into();
        for &qid in &pipeline.subscribers {
            #[expect(
                clippy::expect_used,
                reason = "INVARIANT: subscribers are registered queries, each with a mailbox created at register time."
            )]
            self.mailboxes
                .get_mut(&qid)
                .expect("mailbox")
                .push(Arc::clone(&batch));
        }
    }

    /// Live metrics of the pipeline serving `qid`. Shared subscribers see
    /// the same snapshot — the cost was paid once for all of them.
    pub fn metrics_snapshot(&mut self, qid: QueryId) -> Result<MetricsSnapshot, ServeError> {
        let idx = *self
            .queries
            .get(&qid)
            .ok_or(ServeError::UnknownQuery(qid))?;
        #[expect(
            clippy::expect_used,
            reason = "INVARIANT: the queries map only holds indices of live pipeline slots (entries are removed together in unregister)."
        )]
        let pipeline = self.pipelines[idx].as_mut().expect("live pipeline");
        Ok(pipeline.session.metrics_snapshot())
    }

    /// Serialise the registry's full resumable state: every pipeline's
    /// session (operator state, reorder stage, progress), undelivered
    /// mailboxes, per-source sequence counters, the push frontier and the
    /// sharing statistics.
    ///
    /// What is *not* serialised — and deliberately so — is the query text
    /// and registration structure: a checkpoint is restored by creating a
    /// fresh registry with the same options, re-registering the identical
    /// queries in the identical order (queries are configuration, not
    /// state), and then calling [`QueryRegistry::restore`], which validates
    /// the structure against the blob and rehydrates the state. On sharded
    /// backends this call blocks until every shard reaches its checkpoint
    /// barrier.
    pub fn checkpoint(&mut self) -> Result<Content, ServeError> {
        let mut pipelines = Vec::with_capacity(self.pipelines.len());
        for slot in self.pipelines.iter_mut() {
            match slot {
                None => pipelines.push(Content::Null),
                Some(pipeline) => pipelines.push(pipeline.session.checkpoint()?),
            }
        }
        let mut mailboxes: Vec<(u64, Vec<Tuple>)> = self
            .mailboxes
            .iter()
            .map(|(qid, batches)| (qid.0, batches.concat()))
            .collect();
        mailboxes.sort_by_key(|(qid, _)| *qid);
        Ok(Content::Map(vec![
            ("next_query".to_string(), Content::U64(self.next_query)),
            ("last_push_ts".to_string(), self.last_push_ts.to_content()),
            ("pipelines".to_string(), Content::Seq(pipelines)),
            ("mailboxes".to_string(), mailboxes.to_content()),
            (
                "stats".to_string(),
                Content::Map(vec![
                    ("arrivals".to_string(), Content::U64(self.stats.arrivals)),
                    ("routed".to_string(), Content::U64(self.stats.routed)),
                    (
                        "classifications_saved".to_string(),
                        Content::U64(self.stats.classifications_saved),
                    ),
                ]),
            ),
        ]))
    }

    /// Rehydrate a registry from a [`QueryRegistry::checkpoint`] blob.
    ///
    /// Call on a registry whose queries have been re-registered identically
    /// (same texts, same order, same options) but which has seen no
    /// arrivals. Structural mismatches — different query count or pipeline
    /// layout, a mailbox for a query this registry does not have — are typed
    /// errors ([`jit_engine::CheckpointError::Mismatch`] under
    /// [`ServeError::Engine`]). The whole blob is parsed and validated
    /// before the registry is touched: on any error nothing is applied.
    /// Keys this build does not write (earlier builds added a `stems`
    /// section, per-source `seqs` counters and one more `stats` counter)
    /// are not read.
    pub fn restore(&mut self, checkpoint: &Content) -> Result<(), ServeError> {
        const TY: &str = "QueryRegistry checkpoint";
        let mismatch = |detail: String| {
            ServeError::Engine(EngineError::Checkpoint(CheckpointError::Mismatch(detail)))
        };
        let corrupt = |e: serde::Error| {
            ServeError::Engine(EngineError::Checkpoint(CheckpointError::Serde(e)))
        };
        let map = checkpoint
            .as_map()
            .ok_or_else(|| mismatch("checkpoint body is not an object".to_string()))?;
        let next_query: u64 = serde::field(map, "next_query", TY).map_err(corrupt)?;
        if next_query != self.next_query {
            return Err(mismatch(format!(
                "checkpoint covers {next_query} registrations, this registry has {}; \
                 re-register the identical queries in the identical order first",
                self.next_query
            )));
        }
        let blobs = serde::field::<Content>(map, "pipelines", TY).map_err(corrupt)?;
        let blobs = match &blobs {
            Content::Seq(items) if items.len() == self.pipelines.len() => items.clone(),
            Content::Seq(items) => {
                return Err(mismatch(format!(
                    "checkpoint holds {} pipeline slots, registry has {}",
                    items.len(),
                    self.pipelines.len()
                )))
            }
            _ => return Err(mismatch("pipelines is not a sequence".to_string())),
        };
        let mailboxes: Vec<(u64, Vec<Tuple>)> =
            serde::field(map, "mailboxes", TY).map_err(corrupt)?;
        if let Some((qid, _)) = mailboxes
            .iter()
            .find(|(qid, _)| !self.mailboxes.contains_key(&QueryId(*qid)))
        {
            return Err(mismatch(format!(
                "checkpoint mailbox for unknown query Q{qid}"
            )));
        }
        let last_push_ts: Timestamp = serde::field(map, "last_push_ts", TY).map_err(corrupt)?;
        let stats = serde::field::<Content>(map, "stats", TY).map_err(corrupt)?;
        let stats_map = stats
            .as_map()
            .ok_or_else(|| mismatch("stats is not an object".to_string()))?;
        let stats = SharingStats {
            arrivals: serde::field(stats_map, "arrivals", TY).map_err(corrupt)?,
            routed: serde::field(stats_map, "routed", TY).map_err(corrupt)?,
            classifications_saved: serde::field(stats_map, "classifications_saved", TY)
                .map_err(corrupt)?,
        };
        // Rebuild every live pipeline's session last of the fallible steps,
        // so a refused blob starts no worker threads it then has to drop.
        let mut sessions: Vec<Option<Session>> = Vec::with_capacity(blobs.len());
        for (idx, (slot, blob)) in self.pipelines.iter().zip(&blobs).enumerate() {
            match (slot, blob) {
                (None, Content::Null) => sessions.push(None),
                (Some(pipeline), blob) if !matches!(blob, Content::Null) => {
                    let session = self.engine_for(&pipeline.canonical)?.restore(blob)?;
                    sessions.push(Some(session));
                }
                _ => {
                    return Err(mismatch(format!(
                        "pipeline slot {idx} is live on one side of the restore only"
                    )))
                }
            }
        }
        // Everything parsed and validated: apply. Nothing below can fail.
        for (slot, session) in self.pipelines.iter_mut().zip(sessions) {
            if let (Some(pipeline), Some(session)) = (slot.as_mut(), session) {
                pipeline.session = session;
            }
        }
        for (qid, tuples) in mailboxes {
            // A restored mailbox is one batch, or none if it was empty.
            let batches = if tuples.is_empty() {
                Vec::new()
            } else {
                vec![Arc::from(tuples)]
            };
            self.mailboxes.insert(QueryId(qid), batches);
        }
        self.last_push_ts = last_push_ts;
        self.stats = stats;
        Ok(())
    }

    /// How much work the tier is currently sharing.
    pub fn sharing_report(&self) -> SharingReport {
        let (mut shared_state_bytes, mut isolated_state_bytes) = (0, 0);
        for pipeline in self.pipelines.iter().flatten() {
            let bytes = pipeline.session.state_bytes();
            shared_state_bytes += bytes;
            isolated_state_bytes += pipeline.subscribers.len() * bytes;
        }
        SharingReport {
            queries: self.queries.len(),
            pipelines: self.num_pipelines(),
            filter_classes: self.selection.num_classes(),
            arrivals: self.stats.arrivals,
            routed: self.stats.routed,
            classifications: self.selection.evaluations(),
            classifications_saved: self.stats.classifications_saved,
            shared_state_bytes,
            isolated_state_bytes,
        }
    }

    /// Number of registered queries.
    pub fn num_queries(&self) -> usize {
        self.queries.len()
    }

    /// Number of executing pipelines.
    pub fn num_pipelines(&self) -> usize {
        self.pipelines.iter().flatten().count()
    }

    /// Arrivals pushed so far.
    pub fn arrivals(&self) -> u64 {
        self.stats.arrivals
    }

    /// End the stream for every query: each pipeline is finished once
    /// (end-of-stream flush, workers joined) and its outcome duplicated to
    /// all subscribers, with each subscriber's undelivered mailbox content
    /// prepended to the outcome's results. Sorted by query id.
    ///
    /// Pipeline-level figures (`results_count`, metrics) appear once per
    /// subscriber — they describe the shared pipeline, paid for once.
    pub fn finish(mut self) -> Result<Vec<(QueryId, EngineOutcome)>, ServeError> {
        let mut finished = Vec::with_capacity(self.queries.len());
        for slot in self.pipelines.into_iter() {
            let Some(pipeline) = slot else { continue };
            let EngineOutcome {
                mode_label,
                results: flushed,
                results_count,
                order_violations,
                snapshot,
                per_shard,
            } = pipeline.session.finish()?;
            for qid in pipeline.subscribers {
                let mut results = self.mailboxes.remove(&qid).unwrap_or_default().concat();
                results.extend_from_slice(&flushed);
                finished.push((
                    qid,
                    EngineOutcome {
                        mode_label,
                        results,
                        results_count,
                        order_violations,
                        snapshot: snapshot.clone(),
                        per_shard: per_shard.clone(),
                    },
                ));
            }
        }
        finished.sort_by_key(|(qid, _)| *qid);
        Ok(finished)
    }
}

/// Rebase a local-space filter class (local source id, global columns) to
/// the fully global column space of the registry-wide selection index.
fn rebase_terms(terms: &[FilterTerm], global: SourceId) -> Vec<FilterTerm> {
    terms
        .iter()
        .map(|t| FilterTerm {
            column: ColumnRef::new(global, t.column.column),
            op: t.op,
            constant: t.constant.clone(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use jit_types::Value;

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.add_source("A", vec!["k".into(), "v".into()]);
        cat.add_source("B", vec!["k".into(), "v".into()]);
        cat.add_source("C", vec!["k".into()]);
        cat
    }

    const JOIN_AB: &str = "SELECT * FROM A [RANGE 1 minutes], B [RANGE 1 minutes] WHERE A.k = B.k";

    /// An arrival numbered by its timestamp: no test pushes two arrivals
    /// of one source at the same instant.
    fn arrival(source: u16, ts: u64, values: Vec<i64>) -> Arc<BaseTuple> {
        let values = values.into_iter().map(Value::int).collect();
        Arc::new(BaseTuple::new(SourceId(source), ts, Timestamp(ts), values))
    }

    fn push(reg: &mut QueryRegistry, source: u16, ts: u64, values: Vec<i64>) {
        reg.push(arrival(source, ts, values)).unwrap();
    }

    #[test]
    fn equivalent_texts_share_one_pipeline() {
        let mut reg = QueryRegistry::new(catalog());
        let q1 = reg.register(JOIN_AB).unwrap();
        let q2 = reg
            .register("select * from a [range 1 minutes], b [range 1 minutes] where B.k = A.k")
            .unwrap();
        assert_ne!(q1, q2);
        assert_eq!(reg.num_queries(), 2);
        assert_eq!(reg.num_pipelines(), 1);
        // A genuinely different query gets its own pipeline.
        let q3 = reg
            .register("SELECT * FROM A [RANGE 2 minutes], B [RANGE 2 minutes] WHERE A.k = B.k")
            .unwrap();
        assert_eq!(reg.num_pipelines(), 2);

        push(&mut reg, 0, 0, vec![7, 1]);
        push(&mut reg, 1, 10, vec![7, 2]);
        let r1 = reg.poll_results(q1).unwrap();
        let r2 = reg.poll_results(q2).unwrap();
        let r3 = reg.poll_results(q3).unwrap();
        assert_eq!(r1.len(), 1);
        assert_eq!(r1, r2, "subscribers of one pipeline see identical results");
        assert_eq!(r1, r3, "same join, wider window, same single result");
        // Nothing is delivered twice.
        assert!(reg.poll_results(q1).unwrap().is_empty());
        // Two pipelines saw the arrivals; each was pushed once per pipeline.
        assert_eq!(reg.sharing_report().routed, 4);
    }

    #[test]
    fn shared_filters_classify_once_and_gate_routing() {
        let mut reg = QueryRegistry::new(catalog());
        let filtered = "SELECT * FROM A [RANGE 1 minutes], B [RANGE 1 minutes] \
                        WHERE A.k = B.k AND A.v > 10";
        let q1 = reg.register(filtered).unwrap();
        // Same filter, different window: new pipeline, same filter class.
        let q2 = reg
            .register(
                "SELECT * FROM A [RANGE 2 minutes], B [RANGE 2 minutes] \
                 WHERE A.k = B.k AND A.v > 10",
            )
            .unwrap();
        let report = reg.sharing_report();
        assert_eq!(report.pipelines, 2);
        assert_eq!(report.filter_classes, 1);

        push(&mut reg, 0, 0, vec![7, 5]); // fails A.v > 10 for both pipelines
        push(&mut reg, 0, 1, vec![7, 20]); // passes
        push(&mut reg, 1, 2, vec![7, 0]);
        let report = reg.sharing_report();
        // The two A-arrivals were each classified once (one shared class),
        // not once per query.
        assert_eq!(report.classifications, 2);
        assert_eq!(report.classifications_saved, 2);
        // The failing arrival never reached any pipeline: 1 passing A + 1
        // unfiltered B, each into 2 pipelines.
        assert_eq!(report.routed, 4);
        assert_eq!(reg.poll_results(q1).unwrap().len(), 1);
        assert_eq!(reg.poll_results(q2).unwrap().len(), 1);
    }

    const JOIN_ABC: &str = "SELECT * FROM A [RANGE 1 minutes], B [RANGE 1 minutes], \
                            C [RANGE 1 minutes] WHERE A.k = B.k AND B.k = C.k";

    /// Register `queries` and push a fixed stream. On the sharded backend
    /// the bytes are those of each shard's last acknowledged chunk:
    /// `checkpoint` is the barrier that gets every chunk acknowledged (a
    /// poll alone sends them and returns), so the figures are exact.
    fn priced(options: &ServeOptions, queries: &[&str]) -> (QueryRegistry, Vec<QueryId>) {
        let mut reg = QueryRegistry::with_options(catalog(), options.clone());
        let ids: Vec<QueryId> = queries.iter().map(|q| reg.register(q).unwrap()).collect();
        for i in 0..20u64 {
            push(&mut reg, (i % 3) as u16, i, vec![(i % 4) as i64, i as i64]);
        }
        reg.checkpoint().unwrap();
        reg.poll_results(ids[0]).unwrap();
        (reg, ids)
    }

    fn state_bytes_are_priced_from_the_pipelines(options: &ServeOptions) {
        let bytes = |reg: &QueryRegistry| {
            let report = reg.sharing_report();
            (report.shared_state_bytes, report.isolated_state_bytes)
        };
        let (ab, _) = priced(options, &[JOIN_AB]);
        let (abc, _) = priced(options, &[JOIN_ABC]);
        let (ab_bytes, abc_bytes) = (bytes(&ab).0, bytes(&abc).0);
        assert!(ab_bytes > 0 && abc_bytes > ab_bytes);
        assert_eq!(bytes(&ab), (ab_bytes, ab_bytes));

        // Two subscribers of one pipeline: one copy held, two priced.
        let (twice, _) = priced(options, &[JOIN_AB, JOIN_AB]);
        assert_eq!(bytes(&twice), (ab_bytes, 2 * ab_bytes));

        // Two pipelines over the same A and B windows (same source, window
        // and filter class) each hold their own copy: no fictional sharing.
        let (mut both, ids) = priced(options, &[JOIN_AB, JOIN_ABC, JOIN_AB]);
        assert_eq!(both.num_pipelines(), 2);
        assert_eq!(
            bytes(&both),
            (ab_bytes + abc_bytes, 2 * ab_bytes + abc_bytes)
        );
        // A subscriber leaving changes the price, the last one the holding.
        both.deregister(ids[0]).unwrap();
        assert_eq!(bytes(&both), (ab_bytes + abc_bytes, ab_bytes + abc_bytes));
        both.deregister(ids[2]).unwrap();
        assert_eq!(bytes(&both), (abc_bytes, abc_bytes));
        both.deregister(ids[1]).unwrap();
        assert_eq!(bytes(&both), (0, 0));
    }

    #[test]
    fn state_bytes_are_priced_from_the_pipelines_single_threaded() {
        state_bytes_are_priced_from_the_pipelines(&ServeOptions::default());
    }

    #[test]
    fn state_bytes_are_priced_from_the_pipelines_on_two_shards() {
        state_bytes_are_priced_from_the_pipelines(&ServeOptions {
            runtime: Some(RuntimeConfig::with_shards(2)),
            ..ServeOptions::default()
        });
    }

    #[test]
    fn deregister_mid_stream_keeps_siblings_and_reclaims_orphans() {
        let mut reg = QueryRegistry::new(catalog());
        let q1 = reg.register(JOIN_AB).unwrap();
        let q2 = reg.register(JOIN_AB).unwrap();
        push(&mut reg, 0, 0, vec![7, 1]);
        push(&mut reg, 1, 1, vec![7, 2]);
        // q1 leaves: it collects the ready result on the way out…
        let remainder = reg.deregister(q1).unwrap();
        assert_eq!(remainder.len(), 1);
        // …and the shared pipeline keeps serving q2.
        assert_eq!(reg.num_pipelines(), 1);
        push(&mut reg, 0, 2, vec![7, 3]);
        assert_eq!(reg.poll_results(q2).unwrap().len(), 2);
        // The id is dead for every per-query entry point.
        assert!(matches!(
            reg.poll_results(q1),
            Err(ServeError::UnknownQuery(_))
        ));
        assert!(matches!(
            reg.metrics_snapshot(q1),
            Err(ServeError::UnknownQuery(_))
        ));
        assert!(matches!(
            reg.deregister(q1),
            Err(ServeError::UnknownQuery(_))
        ));
        // Last subscriber out shuts the pipeline and empties the caches.
        reg.deregister(q2).unwrap();
        assert_eq!(reg.num_pipelines(), 0);
        let report = reg.sharing_report();
        assert_eq!(report.filter_classes, 0);
        assert_eq!(report.shared_state_bytes, 0);
        // The stream keeps flowing with zero queries registered.
        push(&mut reg, 0, 3, vec![1, 1]);
        assert_eq!(reg.sharing_report().routed, 3);
    }

    /// The registry refuses a window the engine refuses: a query without a
    /// `RANGE` clause or with a zero one fails typed, and leaves nothing
    /// registered behind.
    #[test]
    fn zero_windows_are_refused_and_leave_the_registry_unchanged() {
        let mut reg = QueryRegistry::new(catalog());
        for text in [
            "SELECT * FROM A, B WHERE A.k = B.k",
            "SELECT * FROM A [RANGE 0 seconds], B [RANGE 0 seconds] WHERE A.k = B.k",
        ] {
            assert!(
                matches!(
                    reg.register(text),
                    Err(ServeError::Engine(EngineError::InvalidQuery(_)))
                ),
                "{text}"
            );
            assert_eq!((reg.num_queries(), reg.num_pipelines()), (0, 0), "{text}");
        }
        assert_eq!(reg.register(JOIN_AB).unwrap(), QueryId(0));
    }

    #[test]
    fn push_contract_is_enforced() {
        let mut reg = QueryRegistry::new(catalog());
        reg.register(JOIN_AB).unwrap();
        push(&mut reg, 0, 10, vec![1, 1]);
        assert!(matches!(
            reg.push(arrival(0, 5, vec![1])),
            Err(ServeError::OutOfOrder { .. })
        ));
        assert!(matches!(
            reg.push(arrival(9, 10, vec![])),
            Err(ServeError::UnknownSource(SourceId(9)))
        ));
        assert!(matches!(
            reg.register("SELECT nonsense"),
            Err(ServeError::Cql(_))
        ));
    }

    /// The registry keeps no per-arrival arithmetic on `seq`: the last
    /// sequence number is an arrival like any other.
    #[test]
    fn push_accepts_the_largest_sequence_number() {
        let mut reg = QueryRegistry::new(catalog());
        reg.register(JOIN_AB).unwrap();
        let values = vec![Value::int(1), Value::int(1)];
        let last = BaseTuple::new(SourceId(0), u64::MAX, Timestamp(1), values);
        assert!(reg.push(Arc::new(last)).is_ok());
    }

    #[test]
    fn finish_delivers_every_query_exactly_once() {
        let mut reg = QueryRegistry::new(catalog());
        let q1 = reg.register(JOIN_AB).unwrap();
        let q2 = reg.register(JOIN_AB).unwrap();
        push(&mut reg, 0, 0, vec![7, 1]);
        push(&mut reg, 1, 1, vec![7, 2]);
        // q1 polls early; q2 never polls. Both must end with the same
        // complete result stream.
        let early = reg.poll_results(q1).unwrap();
        assert_eq!(early.len(), 1);
        push(&mut reg, 0, 2, vec![7, 3]);
        push(&mut reg, 1, 3, vec![7, 4]);
        let finished = reg.finish().unwrap();
        assert_eq!(finished.len(), 2);
        assert_eq!(finished[0].0, q1);
        assert_eq!(finished[1].0, q2);
        // Four join results total: B@1×A@0, A@2×B@1, B@3×{A@0, A@2}.
        let q1_total = early.len() + finished[0].1.results.len();
        assert_eq!(q1_total, finished[1].1.results.len());
        assert_eq!(finished[1].1.results.len(), 4);
    }

    const JOIN_AB_WIDE: &str =
        "SELECT * FROM A [RANGE 2 minutes], B [RANGE 2 minutes] WHERE A.k = B.k";

    /// A live registry cut after two arrivals (q1 polled, q2 not), its
    /// checkpoint, and a fresh twin with the same queries re-registered.
    fn cut_pair() -> (QueryRegistry, Content, QueryRegistry) {
        let mut reg = QueryRegistry::new(catalog());
        let q1 = reg.register(JOIN_AB).unwrap();
        reg.register(JOIN_AB_WIDE).unwrap();
        push(&mut reg, 0, 0, vec![7, 1]);
        push(&mut reg, 1, 10, vec![7, 2]);
        assert_eq!(reg.poll_results(q1).unwrap().len(), 1);
        let blob = reg.checkpoint().unwrap();
        let mut twin = QueryRegistry::new(catalog());
        twin.register(JOIN_AB).unwrap();
        twin.register(JOIN_AB_WIDE).unwrap();
        (reg, blob, twin)
    }

    #[test]
    fn checkpoint_restore_resumes_every_query_mid_stream() {
        // q1 has polled, q2 has not: the checkpoint must preserve both the
        // delivered-already cursor and the undelivered mailbox. "Crash":
        // rebuild from configuration + blob.
        let (mut reg, blob, mut restored) = cut_pair();
        let ids = |r: &QueryRegistry| {
            let mut ids: Vec<QueryId> = r.queries.keys().copied().collect();
            ids.sort();
            ids
        };
        assert_eq!(ids(&restored), ids(&reg), "identical registration order");
        restored.restore(&blob).unwrap();

        // The window state came back…
        assert_eq!(
            restored.sharing_report().shared_state_bytes,
            reg.sharing_report().shared_state_bytes
        );
        // …and both streams continue identically from the cut.
        push(&mut reg, 0, 20, vec![7, 3]);
        push(&mut restored, 0, 20, vec![7, 3]);
        let live = reg.finish().unwrap();
        let resumed = restored.finish().unwrap();
        assert_eq!(live.len(), resumed.len());
        for ((lq, lo), (rq, ro)) in live.iter().zip(resumed.iter()) {
            assert_eq!(lq, rq);
            assert_eq!(lo.results, ro.results);
        }
        // q2 never polled: its full stream (A@0×B@10 and A@20×B@10)
        // survives intact.
        assert_eq!(resumed[1].1.results.len(), 2);
        // q1's early poll happened before the cut, so the restored side owes
        // it only the post-poll remainder.
        assert_eq!(resumed[0].1.results.len(), 1);
    }

    #[test]
    fn a_mailbox_of_several_batches_checkpoints_and_restores_as_one() {
        // q1 polls after each of two fan-outs, q2 never: q2's mailbox holds
        // both batches, shared with what q1 already took.
        let mut reg = QueryRegistry::new(catalog());
        let q1 = reg.register(JOIN_AB).unwrap();
        let q2 = reg.register(JOIN_AB).unwrap();
        push(&mut reg, 0, 0, vec![7, 1]);
        push(&mut reg, 1, 1, vec![7, 2]);
        assert_eq!(reg.poll_results(q1).unwrap().len(), 1);
        push(&mut reg, 0, 2, vec![7, 3]);
        assert_eq!(reg.poll_results(q1).unwrap().len(), 1);
        assert_eq!(reg.mailboxes[&q2].len(), 2);

        let blob = reg.checkpoint().unwrap();
        let mut restored = QueryRegistry::new(catalog());
        restored.register(JOIN_AB).unwrap();
        restored.register(JOIN_AB).unwrap();
        restored.restore(&blob).unwrap();
        assert_eq!(restored.mailboxes[&q2].len(), 1);
        assert_eq!(restored.checkpoint().unwrap(), blob, "same cut, same body");

        for r in [&mut reg, &mut restored] {
            push(r, 1, 3, vec![7, 4]);
        }
        // B@3 joins A@0 and A@2: q2 gets its two held results, then those.
        let live = reg.poll_results(q2).unwrap();
        assert_eq!(live.len(), 4);
        assert_eq!(live, restored.poll_results(q2).unwrap());
        for r in [&mut reg, &mut restored] {
            push(r, 0, 4, vec![7, 5]);
        }
        let (live, resumed) = (reg.finish().unwrap(), restored.finish().unwrap());
        for ((lq, lo), (rq, ro)) in live.iter().zip(&resumed) {
            assert_eq!((lq, &lo.results), (rq, &ro.results));
        }
        // q1 is owed B@3's two results and A@4's two; q2 only A@4's.
        assert_eq!(live[0].1.results.len(), 4);
        assert_eq!(live[1].1.results.len(), 2);
    }

    #[test]
    fn restore_rejects_a_structurally_different_registry() {
        let mut reg = QueryRegistry::new(catalog());
        reg.register(JOIN_AB).unwrap();
        let blob = reg.checkpoint().unwrap();
        // No queries re-registered: the structure cannot match.
        let mut empty = QueryRegistry::new(catalog());
        assert!(matches!(
            empty.restore(&blob),
            Err(ServeError::Engine(jit_engine::EngineError::Checkpoint(
                CheckpointError::Mismatch(_)
            )))
        ));
    }

    /// Push the same tail into both and compare everything a caller sees.
    fn assert_same_tail(mut a: QueryRegistry, mut b: QueryRegistry) {
        for reg in [&mut a, &mut b] {
            push(reg, 0, 20, vec![7, 3]);
            push(reg, 1, 21, vec![7, 4]);
        }
        let (ra, rb) = (a.sharing_report(), b.sharing_report());
        assert_eq!(
            (ra.arrivals, ra.routed, ra.shared_state_bytes),
            (rb.arrivals, rb.routed, rb.shared_state_bytes)
        );
        let (fa, fb) = (a.finish().unwrap(), b.finish().unwrap());
        assert_eq!(fa.len(), fb.len());
        for ((qa, oa), (qb, ob)) in fa.iter().zip(&fb) {
            assert_eq!((qa, &oa.results), (qb, &ob.results));
            assert!(!oa.results.is_empty());
        }
    }

    fn entry<'a>(map: &'a mut Content, key: &str) -> &'a mut Content {
        let Content::Map(entries) = map else {
            panic!("not a map")
        };
        &mut entries.iter_mut().find(|(k, _)| k == key).unwrap().1
    }

    #[test]
    fn a_refused_blob_leaves_the_registry_untouched() {
        let (_, mut blob, mut twin) = cut_pair();
        // One mailbox names a query the registry never registered.
        let Content::Seq(mailboxes) = entry(&mut blob, "mailboxes") else {
            panic!("mailboxes is a sequence")
        };
        let Content::Seq(pair) = &mut mailboxes[1] else {
            panic!("a mailbox is a (query, tuples) pair")
        };
        pair[0] = Content::U64(99);
        assert!(matches!(
            twin.restore(&blob),
            Err(ServeError::Engine(EngineError::Checkpoint(
                CheckpointError::Mismatch(_)
            )))
        ));
        // The refusal applied nothing: the twin is still a fresh registry.
        let mut fresh = QueryRegistry::new(catalog());
        fresh.register(JOIN_AB).unwrap();
        fresh.register(JOIN_AB_WIDE).unwrap();
        assert_same_tail(twin, fresh);
    }

    #[test]
    fn blobs_written_before_the_shadow_state_was_removed_still_restore() {
        let (reg, mut blob, mut twin) = cut_pair();
        // What an earlier build wrote on top of today's keys.
        let Content::Map(entries) = &mut blob else {
            panic!("not a map")
        };
        entries.push((
            "stems".to_string(),
            Content::Seq(vec![Content::Null, Content::U64(3)]),
        ));
        entries.push((
            "seqs".to_string(),
            vec![(SourceId(0), 3u64), (SourceId(1), 2)].to_content(),
        ));
        let Content::Map(stats) = entry(&mut blob, "stats") else {
            panic!("stats is a map")
        };
        stats.push(("cross_pollination_hits".to_string(), Content::U64(5)));
        twin.restore(&blob).unwrap();
        assert_same_tail(reg, twin);
    }
}
