#![warn(missing_docs)]
//! Multi-query serving tier over the JIT engine.
//!
//! The single-query [`jit_engine::Engine`] answers "run *this* query over
//! *this* stream". A data-stream *service* faces the plural problem: many
//! standing queries, registered and cancelled at runtime, all fed by one
//! arrival stream — and most of them overlapping heavily in sources,
//! windows, predicates and filters. Processing each query in isolation
//! multiplies every per-arrival cost by the number of registered queries.
//!
//! [`QueryRegistry`] is the shared-serving answer. Queries enter as CQL text
//! ([`QueryRegistry::register`]) and leave at any time
//! ([`QueryRegistry::deregister`]); every arrival is pushed **once**
//! ([`QueryRegistry::push`]) and the registry routes it to exactly the work
//! that needs it:
//!
//! * **Pipeline sharing** — queries are canonicalized
//!   ([`jit_plan::CanonicalQuery`]) and queries with equal canonical keys
//!   share one executing pipeline (one [`jit_engine::Session`]), however
//!   their texts differ superficially. Results fan out to per-query
//!   mailboxes ([`QueryRegistry::poll_results`]), so every subscriber still
//!   observes its own complete result stream.
//! * **Shared selection pushdown** — the constant-filter conjunction each
//!   query applies to a source is deduplicated into a registry-wide class
//!   index; an arrival is classified once per *distinct* class, not once per
//!   query, and only pipelines whose class passed see the tuple.
//!
//! Routing and delivery pass references, not copies. An arrival's
//! [`jit_types::BaseTuple`] is not copied per pipeline: every pipeline that
//! reads its source under the catalog's id holds the pushed `Arc` itself,
//! and a pipeline whose `FROM` order renumbers the source gets a remapped
//! base tuple over the same value vector. A pipeline poll's fresh
//! results become one shared batch that every subscriber's mailbox points
//! at; a query's poll flattens its batches into its own result stream.
//!
//! That is all the tier shares. Every pipeline's joins keep their own
//! windows inside its session: two pipelines over the same source
//! and window hold two copies, and [`SharingReport::shared_state_bytes`]
//! counts both. [`SharingReport::isolated_state_bytes`] prices the same
//! state at one dedicated engine per query (each pipeline's bytes times its
//! subscribers), so the ratio of the two is what pipeline sharing saves and
//! nothing more.
//!
//! The tier's contract: for every registered query, the result stream
//! equals what an independent [`jit_engine::Engine`] would produce for the
//! same query over the same arrivals (the `serving_equivalence` integration
//! tests pin this on both backends).

mod registry;
pub mod selection;

pub use registry::{QueryId, QueryRegistry, ServeError, ServeOptions, SharingReport};
