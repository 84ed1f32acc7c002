//! Builds propagation graphs from source (§5).
//!
//! Events are function calls, object reads, and formal parameters; flow
//! edges follow the paper's rules: calls propagate arguments (and receiver
//! chains) to their results, collections propagate entries to the whole
//! collection, `locals()` receives every local variable, loops run a single
//! iteration, locally-defined functions are linked through their parameters
//! and returns (the paper's method inlining), and an Andersen points-to
//! analysis adds field-aliasing flow the environment threading misses.
//!
//! The per-language walk lives in each frontend's lowering (Python:
//! [`crate::lower`], pyast → `IrProgram`), the graph construction in
//! [`crate::irbuild`] (`IrProgram` → graph). [`build_frontend`] is the one
//! language-blind step between them: source-size gate, timed strict or
//! lenient parse, metered lowering, [`build_ir`]. Each frontend's entry
//! ([`build_source`] here, `seldon_jsfront::build_js_source`) only names
//! its parse pair and its lowering.

use crate::budget::{Budget, BudgetExceeded};
use crate::event::FileId;
use crate::graph::PropagationGraph;
use crate::irbuild::build_ir;
use crate::lower::lower_module_budgeted;
use seldon_ir::IrProgram;
use seldon_pyast::{parse, parse_lenient, FrontendError};
use std::fmt;
use std::time::{Duration, Instant};

/// The two choices a caller makes per build.
#[derive(Debug, Clone, Default)]
pub struct BuildOptions {
    /// Recover from statement-level parse errors: malformed statements are
    /// skipped and reported in [`Built::errors`], the rest of the file is
    /// analyzed. The right mode for arbitrary repository code.
    pub lenient: bool,
    /// Per-file resource budget: the source size is checked before parsing
    /// and the lowering is metered cooperatively. `None` never trips.
    pub budget: Option<Budget>,
}

/// A successful build.
#[derive(Debug)]
pub struct Built {
    /// The file's propagation graph.
    pub graph: PropagationGraph,
    /// Parse errors recovered from (always empty for a strict build).
    pub errors: Vec<FrontendError>,
    /// Parse/build phase split of this build.
    pub timings: BuildTimings,
}

/// Failure of a build: either the front end rejected the source, or a
/// resource budget was exceeded.
#[derive(Debug, Clone, PartialEq)]
pub enum BuildError {
    /// The source failed to lex or parse (strict builds only).
    Frontend(FrontendError),
    /// A [`Budget`] limit was exceeded.
    OverBudget(BudgetExceeded),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Frontend(e) => e.fmt(f),
            BuildError::OverBudget(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for BuildError {}

impl From<FrontendError> for BuildError {
    fn from(e: FrontendError) -> Self {
        BuildError::Frontend(e)
    }
}

impl From<BudgetExceeded> for BuildError {
    fn from(e: BudgetExceeded) -> Self {
        BuildError::OverBudget(e)
    }
}

/// Wall-clock split of one file's front-end work. The telemetry layer
/// sums these per-file durations across worker threads into the `parse`
/// and `propgraph` aggregate stage spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BuildTimings {
    /// Time spent lexing and parsing the source into an AST.
    pub parse: Duration,
    /// Time spent lowering the AST and building the propagation graph
    /// (including the points-to solve and call linking).
    pub build: Duration,
}

impl BuildTimings {
    /// Component-wise sum, for folding per-file timings into totals.
    pub fn add(&mut self, other: BuildTimings) {
        self.parse += other.parse;
        self.build += other.build;
    }
}

/// Parses Python `source` and builds its propagation graph.
///
/// # Errors
///
/// Returns [`BuildError::Frontend`] when a strict build fails to lex or
/// parse, and [`BuildError::OverBudget`] when a budget limit trips (never
/// with `budget: None`).
pub fn build_source(source: &str, file: FileId, opts: &BuildOptions) -> Result<Built, BuildError> {
    build_frontend(source, file, opts, parse, parse_lenient, lower_module_budgeted)
}

/// The language-blind build shared by every frontend: source-size gate,
/// timed strict or lenient parse, metered lowering, [`build_ir`]. A
/// frontend supplies its strict/lenient parse pair and its lowering.
///
/// # Errors
///
/// As [`build_source`].
pub fn build_frontend<A>(
    source: &str,
    file: FileId,
    opts: &BuildOptions,
    parse: fn(&str) -> Result<A, FrontendError>,
    parse_lenient: fn(&str) -> (A, Vec<FrontendError>),
    lower: fn(&A, Option<&Budget>) -> Result<IrProgram, BudgetExceeded>,
) -> Result<Built, BuildError> {
    let budget = opts.budget.as_ref();
    if let Some(b) = budget.filter(|b| source.len() > b.max_source_bytes) {
        let limit = b.max_source_bytes;
        return Err(BudgetExceeded::SourceBytes { limit, actual: source.len() }.into());
    }
    let parse_started = Instant::now();
    let (ast, errors) =
        if opts.lenient { parse_lenient(source) } else { (parse(source)?, Vec::new()) };
    let parse_time = parse_started.elapsed();
    let build_started = Instant::now();
    let graph = build_ir(&lower(&ast, budget)?, file);
    let timings = BuildTimings { parse: parse_time, build: build_started.elapsed() };
    Ok(Built { graph, errors, timings })
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::event::{EventId, EventKind};
    use seldon_specs::Role;

    /// Strict, unbudgeted build of a test snippet.
    pub(crate) fn build(src: &str) -> PropagationGraph {
        build_source(src, FileId(0), &BuildOptions::default()).expect("source builds").graph
    }

    fn find(g: &PropagationGraph, rep: &str) -> EventId {
        g.events()
            .find(|(_, e)| e.has_rep(rep))
            .map(|(id, _)| id)
            .unwrap_or_else(|| {
                let all: Vec<&str> = g.events().map(|(_, e)| e.rep()).collect();
                panic!("no event with rep {rep}; have {all:?}")
            })
    }

    #[test]
    fn paper_fig2_graph() {
        let src = r#"
from yak.web import app
from flask import request
from werkzeug import secure_filename
import os

blog_dir = app.config['PATH']

@app.route('/media/', methods=['POST'])
def media():
    filename = request.files['f'].filename
    filename = secure_filename(filename)
    path = os.path.join(blog_dir, filename)
    if not os.path.exists(path):
        request.files['f'].save(path)
"#;
        let g = build(src);
        let a = find(&g, "flask.request.files['f'].filename");
        let b = find(&g, "werkzeug.secure_filename()");
        let c = find(&g, "os.path.join()");
        let d = find(&g, "flask.request.files['f'].save()");
        let e = find(&g, "yak.web.app.config['PATH']");
        let f = find(&g, "os.path.exists()");
        // Fig. 2b edges.
        assert!(g.is_reachable(a, b), "filename -> secure_filename");
        assert!(g.is_reachable(b, c), "secure_filename -> join");
        assert!(g.is_reachable(e, c), "config -> join");
        assert!(g.is_reachable(c, d), "join -> save");
        assert!(g.is_reachable(c, f), "join -> exists");
        assert!(!g.is_reachable(d, a), "no backwards flow");
        // The receiver read `request.files['f']` flows into save.
        let recv = find(&g, "flask.request.files['f']");
        assert!(g.is_reachable(recv, d));
    }

    #[test]
    fn call_args_flow_to_result() {
        let g = build("from m import f, g\nx = f(1)\ny = g(x)\n");
        let f = find(&g, "m.f()");
        let gg = find(&g, "m.g()");
        assert!(g.is_reachable(f, gg));
    }

    #[test]
    fn param_events_are_sources_only() {
        let g = build("def handler(req):\n    return req\n");
        let p = find(&g, "handler(param req)");
        let ev = g.event(p);
        assert_eq!(ev.kind, EventKind::ParamRead);
        assert!(ev.candidates.contains(Role::Source));
        assert!(!ev.candidates.contains(Role::Sink));
    }

    /// True if any event carrying `from_rep` reaches any event carrying
    /// `to_rep` (inlining duplicates body events per call site).
    fn any_reaches(g: &PropagationGraph, from_rep: &str, to_rep: &str) -> bool {
        let froms: Vec<EventId> = g
            .events()
            .filter(|(_, e)| e.has_rep(from_rep))
            .map(|(id, _)| id)
            .collect();
        let tos: Vec<EventId> = g
            .events()
            .filter(|(_, e)| e.has_rep(to_rep))
            .map(|(id, _)| id)
            .collect();
        froms.iter().any(|&f| tos.iter().any(|&t| g.is_reachable(f, t)))
    }

    #[test]
    fn local_function_linking() {
        let src = "
from m import src, sink

def helper(v):
    return v

x = src()
y = helper(x)
sink(y)
";
        let g = build(src);
        assert!(any_reaches(&g, "m.src()", "m.sink()"), "flow through local function");
        // The formal parameter is still a source-candidate event.
        let p = find(&g, "helper(param v)");
        assert_eq!(g.event(p).kind, EventKind::ParamRead);
    }

    #[test]
    fn method_call_on_self_links() {
        let src = "
from m import src, sink

class C:
    def get(self):
        return src()
    def run(self):
        sink(self.get())
";
        let g = build(src);
        assert!(any_reaches(&g, "m.src()", "m.sink()"));
    }

    #[test]
    fn inlining_is_context_sensitive() {
        // Two call sites of the same helper: taint entering at one site
        // must not leak into the other (the summary-linking approach would
        // smear it through the shared parameter event).
        let src = "
from m import src, sink_a, sink_b

def ident(v):
    return v

tainted = ident(src())
clean = ident('constant')
sink_a(tainted)
sink_b(clean)
";
        let g = build(src);
        assert!(any_reaches(&g, "m.src()", "m.sink_a()"), "taint reaches its own sink");
        assert!(
            !any_reaches(&g, "m.src()", "m.sink_b()"),
            "taint must not leak across call sites"
        );
    }

    #[test]
    fn inlining_bounds_recursion() {
        let src = "
from m import src, sink

def loop(v):
    return loop(v)

sink(loop(src()))
";
        // Must terminate (recursion guard) and keep the flow.
        let g = build(src);
        assert!(any_reaches(&g, "m.src()", "m.sink()"));
    }

    #[test]
    fn branches_merge() {
        let src = "
from m import a, b, sink
if c:
    x = a()
else:
    x = b()
sink(x)
";
        let g = build(src);
        let sa = find(&g, "m.a()");
        let sb = find(&g, "m.b()");
        let k = find(&g, "m.sink()");
        assert!(g.is_reachable(sa, k));
        assert!(g.is_reachable(sb, k));
    }

    #[test]
    fn collections_propagate_entries() {
        let src = "from m import src, sink\nxs = [1, src(), 3]\nsink(xs)\n";
        let g = build(src);
        assert!(g.is_reachable(find(&g, "m.src()"), find(&g, "m.sink()")));
        let src2 = "from m import src, sink\nd = {'k': src()}\nsink(d)\n";
        let g2 = build(src2);
        assert!(g2.is_reachable(find(&g2, "m.src()"), find(&g2, "m.sink()")));
    }

    #[test]
    fn locals_receives_all_variables() {
        let src = "from m import src, sink\nx = src()\nsink(locals())\n";
        let g = build(src);
        assert!(g.is_reachable(find(&g, "m.src()"), find(&g, "m.sink()")));
    }

    #[test]
    fn field_aliasing_flow() {
        // Store through one alias, load through another.
        let src = "
from m import mk, src, sink
o = mk()
p = o
p.data = src()
sink(o.data)
";
        let g = build(src);
        assert!(g.is_reachable(find(&g, "m.src()"), find(&g, "m.sink()")));
    }

    #[test]
    fn subscript_store_flow() {
        let src = "
from m import mk, src, sink
d = mk()
d['k'] = src()
sink(d['k'])
";
        let g = build(src);
        assert!(g.is_reachable(find(&g, "m.src()"), find(&g, "m.sink()")));
    }

    #[test]
    fn fstring_propagates_parts() {
        let src = "from m import src, sink\nv = src()\nsink(f'<div>{v}</div>')\n";
        let g = build(src);
        assert!(g.is_reachable(find(&g, "m.src()"), find(&g, "m.sink()")));
    }

    #[test]
    fn comprehension_flow() {
        let src = "from m import src, sink\nxs = src()\nsink([x for x in xs])\n";
        let g = build(src);
        assert!(g.is_reachable(find(&g, "m.src()"), find(&g, "m.sink()")));
    }

    #[test]
    fn with_statement_binds_target() {
        let src = "from m import ctx, sink\nwith ctx() as f:\n    sink(f)\n";
        let g = build(src);
        assert!(g.is_reachable(find(&g, "m.ctx()"), find(&g, "m.sink()")));
    }

    #[test]
    fn tuple_unpacking() {
        let src = "from m import src, sink\na, b = src(), 1\nsink(a)\n";
        let g = build(src);
        assert!(g.is_reachable(find(&g, "m.src()"), find(&g, "m.sink()")));
    }

    #[test]
    fn keyword_arguments_flow() {
        let src = "from m import src, sink\nsink(data=src())\n";
        let g = build(src);
        assert!(g.is_reachable(find(&g, "m.src()"), find(&g, "m.sink()")));
    }

    #[test]
    fn no_flow_between_unrelated() {
        let src = "from m import a, b\nx = a()\ny = b()\n";
        let g = build(src);
        assert!(!g.is_reachable(find(&g, "m.a()"), find(&g, "m.b()")));
    }

    #[test]
    fn strong_update_cuts_stale_flow() {
        let src = "from m import a, b, sink\nx = a()\nx = b()\nsink(x)\n";
        let g = build(src);
        assert!(!g.is_reachable(find(&g, "m.a()"), find(&g, "m.sink()")));
        assert!(g.is_reachable(find(&g, "m.b()"), find(&g, "m.sink()")));
    }

    #[test]
    fn chained_local_representation() {
        let src = "from forms import LoginForm\nform = LoginForm()\nu = form.username.data\n";
        let g = build(src);
        let _ = find(&g, "forms.LoginForm().username.data");
    }

    #[test]
    fn graph_is_acyclic_on_typical_code() {
        let src = "
from m import f, g
x = f()
for i in range(3):
    x = g(x)
";
        let g = build(src);
        // Single-iteration loops keep the graph a DAG (§5.2).
        for (id, _) in g.events() {
            assert!(
                !g.reachable_from(id).contains(&id),
                "cycle through {:?}",
                g.event(id).rep()
            );
        }
    }

    #[test]
    fn lenient_build_skips_broken_statements() {
        // The malformed line must not open a bracket (implicit joining
        // would swallow the rest of the file into one logical line).
        let src = "from m import src, sink\nx = src()\nbroken = = 3\nsink(x)\n";
        let lenient = BuildOptions { lenient: true, budget: None };
        let built = build_source(src, FileId(0), &lenient).expect("lenient builds");
        assert_eq!(built.errors.len(), 1);
        let g = built.graph;
        assert!(g.is_reachable(find(&g, "m.src()"), find(&g, "m.sink()")));
    }

    #[test]
    fn every_mode_builds_the_same_graph() {
        let src = "from m import src, sink\nx = src()\nsink(x)\n";
        let plain = build(src);
        for lenient in [false, true] {
            for budget in [None, Some(Budget::default())] {
                let built = build_source(src, FileId(0), &BuildOptions { lenient, budget })
                    .expect("builds");
                assert!(built.errors.is_empty());
                assert_eq!(built.graph.event_count(), plain.event_count());
                assert_eq!(built.graph.edge_count(), plain.edge_count());
                // Durations are reported (possibly zero on coarse clocks).
                let mut total = BuildTimings::default();
                total.add(built.timings);
                assert_eq!(total, built.timings);
            }
        }
    }

    #[test]
    fn build_honors_budget() {
        let tight = Budget { max_source_bytes: 4, ..Budget::unlimited() };
        for lenient in [false, true] {
            let opts = BuildOptions { lenient, budget: Some(tight.clone()) };
            let err = build_source("x = 1\n", FileId(0), &opts).unwrap_err();
            assert!(matches!(err, BuildError::OverBudget(BudgetExceeded::SourceBytes { .. })));
        }
    }

    #[test]
    fn events_count_paper_example_kinds() {
        let src = "from flask import request\nname = request.args.get('n')\n";
        let g = build(src);
        let kinds: Vec<EventKind> = g.events().map(|(_, e)| e.kind).collect();
        assert!(kinds.contains(&EventKind::Call));
        assert!(kinds.contains(&EventKind::ObjectRead));
    }
}
