//! Structural statistics of propagation graphs, backing Tab. 1-style
//! reporting and sanity checks on corpus shape.

use crate::event::EventKind;
use crate::graph::PropagationGraph;
use seldon_intern::Symbol;
use std::collections::HashSet;

/// Summary statistics of a propagation graph.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    /// Total events.
    pub events: usize,
    /// Total flow edges.
    pub edges: usize,
    /// Events per kind: calls, object reads, parameter reads.
    pub calls: usize,
    /// Object-read events.
    pub reads: usize,
    /// Parameter-read events.
    pub params: usize,
    /// Receiver (same-chain) edges.
    pub receiver_edges: usize,
    /// Number of distinct most-specific representations.
    pub distinct_reps: usize,
    /// Average backoff options per event.
    pub avg_backoff: f64,
    /// Maximum out-degree.
    pub max_out_degree: usize,
    /// Maximum in-degree.
    pub max_in_degree: usize,
    /// Events with neither predecessors nor successors.
    pub isolated: usize,
}

/// Computes [`GraphStats`] for a graph.
pub fn graph_stats(graph: &PropagationGraph) -> GraphStats {
    let mut calls = 0;
    let mut reads = 0;
    let mut params = 0;
    let mut reps: HashSet<Symbol> = HashSet::new();
    let mut total_backoff = 0usize;
    let mut max_out = 0usize;
    let mut max_in = 0usize;
    let mut isolated = 0usize;
    let mut receiver_edges = 0usize;
    for (id, e) in graph.events() {
        match e.kind {
            EventKind::Call => calls += 1,
            EventKind::ObjectRead => reads += 1,
            EventKind::ParamRead => params += 1,
        }
        reps.insert(e.rep_sym());
        total_backoff += e.reps.len();
        let out = graph.successors(id).len();
        let inn = graph.predecessors(id).len();
        max_out = max_out.max(out);
        max_in = max_in.max(inn);
        if out == 0 && inn == 0 {
            isolated += 1;
        }
        for &s in graph.successors(id) {
            if graph.edge_kind(id, s) == Some(crate::graph::EdgeKind::Receiver) {
                receiver_edges += 1;
            }
        }
    }
    let events = graph.event_count();
    GraphStats {
        events,
        edges: graph.edge_count(),
        calls,
        reads,
        params,
        receiver_edges,
        distinct_reps: reps.len(),
        avg_backoff: if events == 0 { 0.0 } else { total_backoff as f64 / events as f64 },
        max_out_degree: max_out,
        max_in_degree: max_in,
        isolated,
    }
}

impl std::fmt::Display for GraphStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} events ({} calls, {} reads, {} params), {} edges ({} receiver)",
            self.events, self.calls, self.reads, self.params, self.edges, self.receiver_edges
        )?;
        write!(
            f,
            "{} distinct representations, {:.2} avg backoff, degrees ≤ {}/{} (out/in), {} isolated",
            self.distinct_reps,
            self.avg_backoff,
            self.max_out_degree,
            self.max_in_degree,
            self.isolated
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::tests::build;

    #[test]
    fn stats_on_small_graph() {
        let g = build("from flask import request\nimport os\nos.system(request.args.get('c'))\n");
        let s = graph_stats(&g);
        assert_eq!(s.events, g.event_count());
        assert_eq!(s.edges, g.edge_count());
        assert!(s.calls >= 2);
        assert!(s.reads >= 1);
        assert_eq!(s.params, 0);
        assert!(s.receiver_edges >= 1, "request.args chain has receiver edges");
        assert!(s.avg_backoff >= 1.0);
        assert!(s.distinct_reps <= s.events);
        let text = s.to_string();
        assert!(text.contains("events"));
        assert!(text.contains("distinct representations"));
    }

    #[test]
    fn stats_on_empty_graph() {
        let s = graph_stats(&PropagationGraph::new());
        assert_eq!(s.events, 0);
        assert_eq!(s.avg_backoff, 0.0);
        assert_eq!(s.isolated, 0);
    }

    #[test]
    fn isolated_events_counted() {
        let g = build("from m import f\nx = f()\ny = f()\n");
        let s = graph_stats(&g);
        // Both calls have no flow in or out.
        assert_eq!(s.isolated, 2);
    }

    #[test]
    fn params_counted() {
        let g = build("def f(a, b):\n    return a\n");
        let s = graph_stats(&g);
        assert_eq!(s.params, 2);
    }
}
