//! The system under test behind one seam: an engine session or a serving
//! registry, driven the same way by every phase of the protocol.

use jit_durable::PushOutcome;
use jit_engine::{Engine, EngineBuilder, Session};
use jit_metrics::MetricsSnapshot;
use jit_plan::CanonicalQuery;
use jit_serve::{QueryId, QueryRegistry, ServeOptions, SharingReport};
use jit_stream::ArrivalEvent;
use jit_types::{BaseTuple, Catalog, Tuple};
use serde::Content;
use std::sync::Arc;

/// A delivered result and the query it was delivered to (0 on a
/// single-query engine).
pub type Tagged = (u32, Tuple);

/// What happened to one pushed arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pushed {
    /// Taken for processing.
    Accepted,
    /// Dropped as too late by a bounded-disorder session.
    Dropped,
    /// Refused with an error.
    Refused,
}

/// Final figures of one finished run.
pub struct Finished {
    /// Engine metrics, aggregated over every pipeline that ran.
    pub snapshot: MetricsSnapshot,
    /// Largest shard's share of the arrivals (0 when not sharded).
    pub max_shard_load: f64,
    /// The serving tier's sharing counters, when there is one.
    pub sharing: Option<SharingReport>,
}

/// A configured, not yet running system.
pub trait Target {
    /// Everything a user does before the first push; timed as `setup_s`.
    fn open(&self) -> Box<dyn Live>;
    /// Come back from a checkpoint body after a crash: rebuild everything
    /// `open` builds, then rehydrate it.
    fn restore(&self, body: &Content) -> Box<dyn Live>;
}

/// A running system.
pub trait Live {
    /// Push one arrival.
    fn push(&mut self, event: &ArrivalEvent) -> Pushed;
    /// Drain every ready result into `out` (checked queries only on the
    /// serving tier) and return how many results were delivered in all.
    fn poll(&mut self, out: &mut Vec<Tagged>) -> usize;
    /// The replay cursor into the input stream.
    fn pushed(&self) -> u64;
    /// Serialise the full resumable state (what `checkpoint_to` writes).
    fn checkpoint(&mut self) -> Content;
    /// Live engine metrics (the first pipeline's on the serving tier).
    fn snapshot(&mut self) -> MetricsSnapshot;
    /// Close the stream, drain the remaining results like [`Live::poll`].
    fn finish(self: Box<Self>, out: &mut Vec<Tagged>) -> (usize, Finished);
}

/// One engine, one query.
pub struct EngineTarget {
    /// The full configuration; `open` builds it from scratch every time.
    pub builder: EngineBuilder,
}

impl EngineTarget {
    fn engine(&self) -> Engine {
        self.builder.clone().build().expect("bench engine builds")
    }
}

impl Target for EngineTarget {
    fn open(&self) -> Box<dyn Live> {
        Box::new(EngineLive(
            self.engine().session().expect("bench session opens"),
        ))
    }

    fn restore(&self, body: &Content) -> Box<dyn Live> {
        Box::new(EngineLive(
            self.engine()
                .restore(body)
                .expect("bench checkpoint restores"),
        ))
    }
}

struct EngineLive(Session);

impl Live for EngineLive {
    fn push(&mut self, event: &ArrivalEvent) -> Pushed {
        match self.0.push_event(event.clone()) {
            Ok(PushOutcome::LateDrop) => Pushed::Dropped,
            Ok(_) => Pushed::Accepted,
            Err(_) => Pushed::Refused,
        }
    }

    fn poll(&mut self, out: &mut Vec<Tagged>) -> usize {
        let fresh = self.0.poll_results();
        let n = fresh.len();
        out.extend(fresh.into_iter().map(|t| (0, t)));
        n
    }

    fn pushed(&self) -> u64 {
        self.0.pushed()
    }

    fn checkpoint(&mut self) -> Content {
        self.0.checkpoint().expect("bench session checkpoints")
    }

    fn snapshot(&mut self) -> MetricsSnapshot {
        self.0.metrics_snapshot()
    }

    fn finish(self: Box<Self>, out: &mut Vec<Tagged>) -> (usize, Finished) {
        let outcome = self.0.finish().expect("bench session finishes");
        let finished = Finished {
            max_shard_load: outcome.max_shard_load(),
            snapshot: outcome.snapshot,
            sharing: None,
        };
        let n = outcome.results.len();
        out.extend(outcome.results.into_iter().map(|t| (0, t)));
        (n, finished)
    }
}

/// One serving registry, many queries.
pub struct ServeTarget {
    /// Global source catalog.
    pub catalog: Catalog,
    /// Every registered query, in registration order.
    pub queries: Vec<String>,
    /// Indices into `queries` whose results are checked and timed.
    pub sentinels: Vec<usize>,
    /// Indices into `queries` covering each distinct pipeline once.
    pub distinct: Vec<usize>,
}

impl ServeTarget {
    fn live(&self) -> ServeLive {
        let mut registry =
            QueryRegistry::with_options(self.catalog.clone(), ServeOptions::default());
        let ids: Vec<QueryId> = self
            .queries
            .iter()
            .map(|q| registry.register(q).expect("bench query registers"))
            .collect();
        let mut tag_of = vec![None; ids.len()];
        for &s in &self.sentinels {
            tag_of[s] = Some(s as u32);
        }
        ServeLive {
            registry,
            ids,
            tag_of,
            distinct: self.distinct.clone(),
        }
    }
}

impl Target for ServeTarget {
    fn open(&self) -> Box<dyn Live> {
        Box::new(self.live())
    }

    fn restore(&self, body: &Content) -> Box<dyn Live> {
        // Queries are configuration: register them again, then rehydrate.
        let mut live = self.live();
        live.registry
            .restore(body)
            .expect("bench registry restores");
        Box::new(live)
    }
}

struct ServeLive {
    registry: QueryRegistry,
    ids: Vec<QueryId>,
    /// Per query index: the tag its results are kept under, if checked.
    tag_of: Vec<Option<u32>>,
    distinct: Vec<usize>,
}

impl Live for ServeLive {
    fn push(&mut self, event: &ArrivalEvent) -> Pushed {
        match self.registry.push(Arc::clone(&event.tuple)) {
            Ok(()) => Pushed::Accepted,
            Err(_) => Pushed::Refused,
        }
    }

    fn poll(&mut self, out: &mut Vec<Tagged>) -> usize {
        let mut delivered = 0;
        for (id, tag) in self.ids.iter().zip(&self.tag_of) {
            let fresh = self.registry.poll_results(*id).expect("registered query");
            delivered += fresh.len();
            if let Some(tag) = *tag {
                out.extend(fresh.into_iter().map(|t| (tag, t)));
            }
        }
        delivered
    }

    fn pushed(&self) -> u64 {
        self.registry.arrivals()
    }

    fn checkpoint(&mut self) -> Content {
        self.registry
            .checkpoint()
            .expect("bench registry checkpoints")
    }

    fn snapshot(&mut self) -> MetricsSnapshot {
        self.registry
            .metrics_snapshot(self.ids[0])
            .expect("registered query")
    }

    fn finish(self: Box<Self>, out: &mut Vec<Tagged>) -> (usize, Finished) {
        let sharing = self.registry.sharing_report();
        let outcomes = self.registry.finish().expect("bench registry finishes");
        let mut delivered = 0;
        let mut snapshot = MetricsSnapshot::zero();
        // `finish` returns outcomes sorted by query id, i.e. in registration
        // order, one per query.
        for (index, (_, outcome)) in outcomes.into_iter().enumerate() {
            delivered += outcome.results.len();
            if self.distinct.contains(&index) {
                snapshot.absorb_parallel(&outcome.snapshot);
            }
            if let Some(tag) = self.tag_of[index] {
                out.extend(outcome.results.into_iter().map(|t| (tag, t)));
            }
        }
        let finished = Finished {
            snapshot,
            max_shard_load: 0.0,
            sharing: Some(sharing),
        };
        (delivered, finished)
    }
}

/// What the registry does for one query, done by hand: a dedicated engine
/// fed the query's own sources, remapped to its local id space, with its
/// constant filters applied before the push. The reference for one sentinel.
pub fn dedicated_results(cql: &str, catalog: &Catalog, arrivals: &[ArrivalEvent]) -> Vec<Tuple> {
    let canonical = CanonicalQuery::from_cql(cql, catalog).expect("bench query parses");
    let mut session = Engine::builder()
        .query_shape(
            canonical.shape(),
            canonical.predicates(),
            canonical.window(),
        )
        .build()
        .expect("dedicated engine builds")
        .session()
        .expect("dedicated session opens");
    for arrival in arrivals {
        let Some(local) = canonical.local_id(arrival.source) else {
            continue;
        };
        let remapped = Arc::new(BaseTuple {
            source: local,
            seq: arrival.tuple.seq,
            ts: arrival.tuple.ts,
            values: arrival.tuple.values.clone(),
        });
        let as_tuple = Tuple::from_base(Arc::clone(&remapped));
        let passes = canonical
            .filter_class(local)
            .iter()
            .all(|t| t.predicate().holds_on(&as_tuple).unwrap_or(false));
        if passes {
            let _ = session
                .push(local, remapped)
                .expect("dedicated engine accepts an in-order push");
        }
    }
    session.finish().expect("dedicated engine finishes").results
}
