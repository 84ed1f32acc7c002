//! # seldon-propgraph
//!
//! Propagation graphs for the Seldon reproduction (§3 and §5 of the paper):
//! events (calls, object reads, formal parameters), representation backoff
//! chains, an Andersen-style points-to analysis, the per-file graph builder,
//! graph union for big-code learning, and vertex contraction for the Merlin
//! baseline.
//!
//! ## Example
//!
//! ```
//! use seldon_propgraph::{build_source, FileId};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let graph = build_source(
//!     "from flask import request\nname = request.args.get('n')\n",
//!     FileId(0),
//! )?;
//! assert!(graph.event_count() >= 2);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod andersen;
pub mod budget;
pub mod builder;
pub mod dot;
pub mod event;
pub mod graph;
pub mod irbuild;
pub mod lower;
pub mod repr;
pub mod stats;

pub use budget::{Budget, BudgetExceeded, BudgetMeter};
pub use builder::{
    build_module, build_module_budgeted, build_source, build_source_lenient,
    build_source_lenient_timed, build_source_timed, BuildError, BuildTimings,
};
pub use dot::to_dot;
pub use event::{Event, EventId, EventKind, FileId};
pub use graph::{ArgPos, EdgeKind, PropagationGraph};
pub use irbuild::build_ir;
pub use lower::{lower_module, lower_module_budgeted, lower_source};
pub use repr::{describe_expr, describe_syms, finish_reps, interned_dot_suffixes, ReprCtx};
pub use seldon_intern::{intern, Symbol};
pub use stats::{graph_stats, GraphStats};
