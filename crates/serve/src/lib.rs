//! Planning as a service: a TCP daemon with warm field state and
//! incremental replans.
//!
//! Cold SHDG planning on a large field costs seconds; the mutations a
//! deployed network actually experiences — a handful of sensors dying, a
//! batch being added, a transmission-power change — invalidate only a
//! sliver of the plan. This crate keeps the expensive state warm in
//! per-field [`session::FieldSession`]s (deployment, unit-disk graph and
//! spatial grid, coverage instance, alive mask, current tour) behind a
//! small TCP daemon, so a `delta` request runs `mdg-runtime`'s
//! adopt/splice/cheapest-insertion repair in milliseconds instead of
//! replanning cold.
//!
//! The moving parts:
//!
//! * [`protocol`] — the wire format: line-delimited JSON requests and
//!   responses (protocol v2: `SessionInfo` reports each session's
//!   `kind` — flat or hier — and `approx_bytes`), the bounded line
//!   reader, stable error codes.
//! * [`session`] — warm per-field state and the repair-vs-replan
//!   decision. Sessions come in two flavors behind one API: flat
//!   (better tours; field-wide graphs and coverage lists, O(pairs)
//!   bytes) and hierarchical (tiled `HierPlan` with dirty-tile deltas,
//!   O(n) footprint) —
//!   [`session::FieldSession::plan_cold_auto`] picks by field size
//!   against [`server::ServeConfig::hier_threshold`].
//! * [`server`] — the daemon: accept loop, session table bounded by
//!   count *and* bytes (byte-aware LRU), per-request panic isolation,
//!   metrics, graceful drain.
//! * [`client`] — a small blocking client used by the CLI, the CI smoke
//!   driver, the churn bench, and the tests.
//!
//! ```no_run
//! use mdg_serve::client::Client;
//! use mdg_serve::server::{ServeConfig, Server};
//!
//! let server = Server::start(ServeConfig::default()).unwrap();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! let cold = client.plan_uniform("field-a", 5_000, 1_000.0, 42, 60.0)
//!     .unwrap().unwrap();
//! let patched = client.delta("field-a", vec![7, 19, 23], vec![], None)
//!     .unwrap().unwrap();
//! assert!(patched.elapsed_ms < cold.elapsed_ms);
//! client.shutdown().unwrap().unwrap();
//! server.join();
//! ```

pub mod client;
pub mod protocol;
pub mod server;
pub mod session;

pub use client::Client;
pub use protocol::{ErrorBody, MetricsResponse, PlanSummary, Request, PROTOCOL_VERSION};
pub use server::{ServeConfig, Server};
pub use session::{DeltaError, DeltaMode, FieldSession};
