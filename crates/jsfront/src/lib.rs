//! # seldon-jsfront
//!
//! A JS-like subset frontend for the Seldon reproduction, proving the
//! language-neutral IR split: this crate lexes, parses, and lowers
//! JavaScript-flavored source (functions, calls, member chains,
//! assignments, `var`/`let`/`const`, ES and CommonJS imports) into the
//! same [`seldon_ir::IrProgram`] stream the Python frontend emits. Graph
//! construction, representations backoff, constraints, the solver, and
//! the taint pipeline are all reused unchanged from `seldon-propgraph`
//! onward — no per-language branches exist past the IR boundary.
//!
//! ## Example
//!
//! ```
//! use seldon_jsfront::build_js_source;
//! use seldon_propgraph::FileId;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let graph = build_js_source(
//!     "const express = require('express');\nconst app = express();\n",
//!     FileId(0),
//! )?;
//! assert!(graph.event_count() >= 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod lexer;
pub mod lower;
pub mod parser;

pub use lower::{lower_js_program, lower_js_program_budgeted, lower_js_source};
pub use parser::{parse, parse_lenient};

use seldon_ir::FrontendError;
use seldon_propgraph::{
    build_ir, Budget, BudgetExceeded, BuildError, BuildTimings, FileId, PropagationGraph,
};
use std::time::Instant;

/// Checks the source-size budget shared by the budgeted entry points
/// (mirrors the Python frontend's pre-parse gate).
fn check_source_size(source: &str, budget: &Budget) -> Result<(), BudgetExceeded> {
    if source.len() > budget.max_source_bytes {
        return Err(BudgetExceeded::SourceBytes {
            limit: budget.max_source_bytes,
            actual: source.len(),
        });
    }
    Ok(())
}

/// Parses JS-like `source` and builds its propagation graph.
///
/// # Errors
///
/// Returns a [`FrontendError`] if the source fails to lex or parse.
pub fn build_js_source(source: &str, file: FileId) -> Result<PropagationGraph, FrontendError> {
    let program = parse(source)?;
    Ok(build_ir(&lower_js_program(&program), file))
}

/// Like [`build_js_source`] but recovers from statement-level parse
/// errors: malformed statements are skipped and reported, the rest of the
/// file is analyzed.
pub fn build_js_source_lenient(
    source: &str,
    file: FileId,
) -> (PropagationGraph, Vec<FrontendError>) {
    let (program, errors) = parse_lenient(source);
    (build_ir(&lower_js_program(&program), file), errors)
}

/// Strict build under an optional resource [`Budget`], reporting the
/// parse/build phase split. The budget-optional superset of
/// [`build_js_source`].
///
/// # Errors
///
/// Returns [`BuildError::Frontend`] on a lex/parse failure and
/// [`BuildError::OverBudget`] when a budget limit trips (never with
/// `budget: None`).
pub fn build_js_source_timed(
    source: &str,
    file: FileId,
    budget: Option<&Budget>,
) -> Result<(PropagationGraph, BuildTimings), BuildError> {
    if let Some(b) = budget {
        check_source_size(source, b)?;
    }
    let parse_started = Instant::now();
    let program = parse(source)?;
    let parse_time = parse_started.elapsed();
    let build_started = Instant::now();
    let ir = match budget {
        Some(b) => lower_js_program_budgeted(&program, b)?,
        None => lower_js_program(&program),
    };
    let graph = build_ir(&ir, file);
    let timings = BuildTimings { parse: parse_time, build: build_started.elapsed() };
    Ok((graph, timings))
}

/// Lenient build under an optional resource [`Budget`], reporting the
/// parse/build phase split; only a budget trip fails the whole file. The
/// budget-optional superset of [`build_js_source_lenient`].
///
/// # Errors
///
/// Returns [`BudgetExceeded`] when a budget limit trips (never with
/// `budget: None`).
pub fn build_js_source_lenient_timed(
    source: &str,
    file: FileId,
    budget: Option<&Budget>,
) -> Result<(PropagationGraph, Vec<FrontendError>, BuildTimings), BudgetExceeded> {
    if let Some(b) = budget {
        check_source_size(source, b)?;
    }
    let parse_started = Instant::now();
    let (program, errors) = parse_lenient(source);
    let parse_time = parse_started.elapsed();
    let build_started = Instant::now();
    let ir = match budget {
        Some(b) => lower_js_program_budgeted(&program, b)?,
        None => lower_js_program(&program),
    };
    let graph = build_ir(&ir, file);
    let timings = BuildTimings { parse: parse_time, build: build_started.elapsed() };
    Ok((graph, errors, timings))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_flow_reaches_sink() {
        let src = "import { query } from './db';\n\
                   function route(req) {\n\
                     const name = req.body.name;\n\
                     query(name);\n\
                     return name;\n\
                   }\n";
        let g = build_js_source(src, FileId(3)).expect("builds");
        let param = g
            .events()
            .find(|(_, e)| e.has_rep("route(param req)"))
            .map(|(id, _)| id)
            .expect("param event");
        let sink = g
            .events()
            .find(|(_, e)| e.has_rep("db.query()"))
            .map(|(id, _)| id)
            .expect("sink event");
        // param → req.body → req.body.name → query(name)
        let mut frontier = vec![param];
        let mut reached = false;
        let mut seen = std::collections::HashSet::new();
        while let Some(ev) = frontier.pop() {
            if ev == sink {
                reached = true;
                break;
            }
            for &s in g.successors(ev) {
                if seen.insert(s) {
                    frontier.push(s);
                }
            }
        }
        assert!(reached, "taint must flow from the parameter to the sink call");
        // Events carry the stamped file id.
        assert!(g.events().all(|(_, e)| e.file == FileId(3)));
    }

    #[test]
    fn lenient_build_reports_errors_and_keeps_going() {
        let src = "const a = f(;\nconst fs = require('fs');\nfs.readFile(p);\n";
        let (g, errors) = build_js_source_lenient(src, FileId(0));
        assert_eq!(errors.len(), 1);
        assert!(g.events().any(|(_, e)| e.has_rep("fs.readFile()")));
    }

    #[test]
    fn budgeted_build_trips_on_source_size() {
        let tight = Budget { max_source_bytes: 4, ..Budget::unlimited() };
        let err = build_js_source_timed("const a = b;", FileId(0), Some(&tight)).unwrap_err();
        assert!(matches!(
            err,
            BuildError::OverBudget(BudgetExceeded::SourceBytes { .. })
        ));
    }
}
