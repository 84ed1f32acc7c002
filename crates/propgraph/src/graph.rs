//! The propagation graph (§3) and operations on it.
//!
//! Nodes are [`Event`]s, edges are information flow. Per-program graphs are
//! built independently and unioned into a *global* graph for learning (§4);
//! Merlin additionally uses a *collapsed* graph obtained by vertex
//! contraction of same-representation events (§6.4).

use crate::event::{Event, EventId, FileId};
use seldon_intern::Symbol;
use std::collections::{HashMap, HashSet, VecDeque};

/// The position through which flow enters a call event.
///
/// Recorded for every edge into a call so that parameter-sensitive clients
/// (the paper's §3.3 future work) can distinguish taint reaching a
/// dangerous argument from taint reaching a harmless one.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ArgPos {
    /// The receiver/base chain of the call.
    Receiver,
    /// The `i`-th positional argument.
    Positional(u8),
    /// A keyword argument.
    Keyword(String),
}

/// How information flows along an edge.
///
/// The distinction matters for constraint generation: a *receiver* edge
/// connects events of the same object-access chain (`request.args` →
/// `request.args.get()`), while an *argument* edge carries independent data
/// into a call (`secure_filename(filename)`). Sanitizers transform their
/// arguments, so same-chain events are not sanitizer candidates "between" a
/// source and a sink.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// Ordinary data flow (arguments, assignments, field aliasing).
    Argument,
    /// Same-object-chain flow (receiver of a method call, base of a read).
    Receiver,
}

/// A directed graph of information-flow events.
#[derive(Debug, Clone, Default)]
pub struct PropagationGraph {
    events: Vec<Event>,
    /// Forward adjacency: `succs[v]` = events receiving flow from `v`.
    succs: Vec<Vec<EventId>>,
    /// Backward adjacency: `preds[v]` = events flowing into `v`.
    preds: Vec<Vec<EventId>>,
    /// Edges that are receiver (same-chain) flow.
    receiver_edges: HashSet<(EventId, EventId)>,
    /// Argument positions for edges into call events (first position wins
    /// when the same value reaches several parameters).
    arg_positions: HashMap<(EventId, EventId), ArgPos>,
    edge_count: usize,
}

impl PropagationGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        PropagationGraph::default()
    }

    /// Adds an event, returning its id.
    pub fn add_event(&mut self, event: Event) -> EventId {
        let id = EventId(self.events.len() as u32);
        self.events.push(event);
        self.succs.push(Vec::new());
        self.preds.push(Vec::new());
        id
    }

    /// Adds an argument-flow edge `from → to`. Duplicate and self edges are
    /// ignored.
    pub fn add_edge(&mut self, from: EventId, to: EventId) {
        self.add_edge_kind(from, to, EdgeKind::Argument);
    }

    /// Adds a flow edge with an explicit [`EdgeKind`]. If the edge already
    /// exists, an argument kind upgrades a receiver kind (argument flow is
    /// the stronger claim).
    pub fn add_edge_kind(&mut self, from: EventId, to: EventId, kind: EdgeKind) {
        if from == to {
            return;
        }
        let s = &mut self.succs[from.index()];
        if s.contains(&to) {
            if kind == EdgeKind::Argument {
                self.receiver_edges.remove(&(from, to));
            }
            return;
        }
        s.push(to);
        self.preds[to.index()].push(from);
        if kind == EdgeKind::Receiver {
            self.receiver_edges.insert((from, to));
        }
        self.edge_count += 1;
    }

    /// Rewrites the [`FileId`] stamp of every event. Per-file graphs are
    /// parsed once but their file's *index* in the corpus shifts when
    /// files are added or removed before it; restamping a stored graph is
    /// how an incremental caller keeps event identity equal to what a
    /// from-scratch run over the current corpus would produce.
    pub fn restamp_file(&mut self, file: FileId) {
        for event in &mut self.events {
            event.file = file;
        }
    }

    /// Records the argument position of an edge into a call event.
    pub fn set_arg_position(&mut self, from: EventId, to: EventId, pos: ArgPos) {
        self.arg_positions.entry((from, to)).or_insert(pos);
    }

    /// The argument position of an edge, if recorded.
    pub fn arg_position(&self, from: EventId, to: EventId) -> Option<&ArgPos> {
        self.arg_positions.get(&(from, to))
    }

    /// The kind of an existing edge (`None` if the edge does not exist).
    pub fn edge_kind(&self, from: EventId, to: EventId) -> Option<EdgeKind> {
        if !self.succs[from.index()].contains(&to) {
            return None;
        }
        Some(if self.receiver_edges.contains(&(from, to)) {
            EdgeKind::Receiver
        } else {
            EdgeKind::Argument
        })
    }

    /// Events connected to `id` backwards through receiver edges only: the
    /// object-access chain that produces `id`'s receiver (including
    /// transitive bases), excluding `id` itself.
    pub fn receiver_ancestors(&self, id: EventId) -> Vec<EventId> {
        let mut seen = HashSet::new();
        let mut queue = VecDeque::new();
        let mut out = Vec::new();
        seen.insert(id);
        queue.push_back(id);
        while let Some(v) = queue.pop_front() {
            for &p in self.predecessors(v) {
                if self.receiver_edges.contains(&(p, v)) && seen.insert(p) {
                    out.push(p);
                    queue.push_back(p);
                }
            }
        }
        out
    }

    /// Number of events.
    pub fn event_count(&self) -> usize {
        self.events.len()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// The event with id `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of bounds.
    pub fn event(&self, id: EventId) -> &Event {
        &self.events[id.index()]
    }

    /// Iterates all `(id, event)` pairs.
    pub fn events(&self) -> impl Iterator<Item = (EventId, &Event)> {
        self.events
            .iter()
            .enumerate()
            .map(|(i, e)| (EventId(i as u32), e))
    }

    /// Successors of `id` (events that receive flow from it).
    pub fn successors(&self, id: EventId) -> &[EventId] {
        &self.succs[id.index()]
    }

    /// Predecessors of `id` (events that flow into it).
    pub fn predecessors(&self, id: EventId) -> &[EventId] {
        &self.preds[id.index()]
    }

    /// All edges as `(from, to)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (EventId, EventId)> + '_ {
        self.succs.iter().enumerate().flat_map(|(i, outs)| {
            outs.iter().map(move |t| (EventId(i as u32), *t))
        })
    }

    /// Unions `other` into `self`, remapping its event ids. Returns the id
    /// offset applied to `other`'s events.
    ///
    /// Event sets of different programs stay disjoint, exactly as in the
    /// paper's global propagation graph (§4): no cross-program edges are
    /// introduced, but events may share representations.
    pub fn union(&mut self, other: &PropagationGraph) -> u32 {
        let offset = self.events.len() as u32;
        let shift = |id: EventId| EventId(id.0 + offset);
        // `other` already upholds the graph invariants (no duplicate or
        // self edges, symmetric succs/preds), so its adjacency is copied
        // wholesale with shifted ids instead of re-validated edge by edge.
        self.events.extend_from_slice(&other.events);
        self.succs
            .extend(other.succs.iter().map(|outs| outs.iter().map(|&t| shift(t)).collect()));
        self.preds
            .extend(other.preds.iter().map(|ins| ins.iter().map(|&f| shift(f)).collect()));
        self.receiver_edges
            .extend(other.receiver_edges.iter().map(|&(f, t)| (shift(f), shift(t))));
        self.arg_positions.extend(
            other.arg_positions.iter().map(|(&(f, t), pos)| ((shift(f), shift(t)), pos.clone())),
        );
        self.edge_count += other.edge_count;
        offset
    }

    /// [`union`](Self::union) that consumes `other`, moving its adjacency
    /// lists instead of copying them.
    pub fn append(&mut self, mut other: PropagationGraph) -> u32 {
        let offset = self.events.len() as u32;
        for list in other.succs.iter_mut().chain(other.preds.iter_mut()) {
            for id in list.iter_mut() {
                id.0 += offset;
            }
        }
        let shift = |id: EventId| EventId(id.0 + offset);
        self.events.append(&mut other.events);
        self.succs.append(&mut other.succs);
        self.preds.append(&mut other.preds);
        self.receiver_edges
            .extend(other.receiver_edges.iter().map(|&(f, t)| (shift(f), shift(t))));
        self.arg_positions.extend(
            other.arg_positions.into_iter().map(|((f, t), pos)| ((shift(f), shift(t)), pos)),
        );
        self.edge_count += other.edge_count;
        offset
    }

    /// Pre-allocates room for `events` additional events, for bulk unions.
    pub fn reserve_events(&mut self, events: usize) {
        self.events.reserve(events);
        self.succs.reserve(events);
        self.preds.reserve(events);
    }

    /// Events reachable from `start` by forward BFS (excluding `start`).
    pub fn reachable_from(&self, start: EventId) -> Vec<EventId> {
        self.bfs(start, true)
    }

    /// Events that reach `start` by backward BFS (excluding `start`).
    pub fn reaching(&self, start: EventId) -> Vec<EventId> {
        self.bfs(start, false)
    }

    fn bfs(&self, start: EventId, forward: bool) -> Vec<EventId> {
        let mut seen = HashSet::new();
        let mut queue = VecDeque::new();
        let mut out = Vec::new();
        seen.insert(start);
        queue.push_back(start);
        while let Some(v) = queue.pop_front() {
            let next = if forward { self.successors(v) } else { self.predecessors(v) };
            for &n in next {
                if seen.insert(n) {
                    out.push(n);
                    queue.push_back(n);
                }
            }
        }
        out
    }

    /// Whether `to` is reachable from `from` (forward).
    pub fn is_reachable(&self, from: EventId, to: EventId) -> bool {
        if from == to {
            return true;
        }
        let mut seen = HashSet::new();
        let mut queue = VecDeque::new();
        seen.insert(from);
        queue.push_back(from);
        while let Some(v) = queue.pop_front() {
            for &n in self.successors(v) {
                if n == to {
                    return true;
                }
                if seen.insert(n) {
                    queue.push_back(n);
                }
            }
        }
        false
    }

    /// Ids of events belonging to `file`.
    pub fn events_in_file(&self, file: FileId) -> Vec<EventId> {
        self.events()
            .filter(|(_, e)| e.file == file)
            .map(|(id, _)| id)
            .collect()
    }

    /// Vertex contraction (§6.4, Fig. 7): merges all events sharing the same
    /// most-specific representation into one node. Returns the collapsed
    /// graph and the mapping original id → collapsed id.
    ///
    /// The collapsed graph is what Merlin's original formulation assumes; it
    /// is *not* suitable for taint analysis (Fig. 8) but can be used for
    /// specification learning.
    pub fn contract(&self) -> (PropagationGraph, Vec<EventId>) {
        let mut rep_to_new: HashMap<Symbol, EventId> = HashMap::new();
        let mut mapping = vec![EventId(0); self.events.len()];
        let mut out = PropagationGraph::new();
        for (id, e) in self.events() {
            let key = e.rep_sym();
            let new_id = match rep_to_new.get(&key) {
                Some(&n) => {
                    // Merge candidate roles; keep the first event's metadata.
                    let merged = out.events[n.index()].candidates.union(e.candidates);
                    out.events[n.index()].candidates = merged;
                    n
                }
                None => {
                    let n = out.add_event(e.clone());
                    rep_to_new.insert(key, n);
                    n
                }
            };
            mapping[id.index()] = new_id;
        }
        for (from, to) in self.edges() {
            let kind = self.edge_kind(from, to).unwrap_or(EdgeKind::Argument);
            let (f, t) = (mapping[from.index()], mapping[to.index()]);
            out.add_edge_kind(f, t, kind);
            if let Some(pos) = self.arg_position(from, to) {
                out.set_arg_position(f, t, pos.clone());
            }
        }
        (out, mapping)
    }

    /// Counts how often each representation occurs across all backoff
    /// options of all events, as a [`Symbol`]-indexed vector (index
    /// [`Symbol::index`], zero for symbols absent from this graph). Used
    /// for the backoff cutoff (§4.3); lookups are array indexing instead
    /// of string hashing.
    pub fn rep_frequency_counts(&self) -> Vec<usize> {
        let max_index = self
            .events
            .iter()
            .flat_map(|e| &e.reps)
            .map(|r| r.index())
            .max();
        let mut counts = vec![0usize; max_index.map_or(0, |m| m + 1)];
        for e in &self.events {
            for r in &e.reps {
                counts[r.index()] += 1;
            }
        }
        counts
    }

    /// String-keyed convenience wrapper around [`rep_frequency_counts`]
    /// for the CLI/stats path.
    ///
    /// [`rep_frequency_counts`]: PropagationGraph::rep_frequency_counts
    pub fn representation_frequencies(&self) -> HashMap<String, usize> {
        self.rep_frequency_counts()
            .into_iter()
            .enumerate()
            .filter(|&(_, n)| n > 0)
            .map(|(i, n)| (Symbol(i as u32).as_str().to_string(), n))
            .collect()
    }

    /// Average number of representations (backoff options) per event.
    pub fn avg_backoff_options(&self) -> f64 {
        if self.events.is_empty() {
            return 0.0;
        }
        let total: usize = self.events.iter().map(|e| e.reps.len()).sum();
        total as f64 / self.events.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use seldon_pyast::Span;

    fn ev(rep: &str) -> Event {
        Event::from_reps(EventKind::Call, &[rep], FileId(0), Span::dummy())
    }

    fn chain(graph: &mut PropagationGraph, reps: &[&str]) -> Vec<EventId> {
        let ids: Vec<EventId> = reps.iter().map(|r| graph.add_event(ev(r))).collect();
        for w in ids.windows(2) {
            graph.add_edge(w[0], w[1]);
        }
        ids
    }

    #[test]
    fn add_and_query() {
        let mut g = PropagationGraph::new();
        let ids = chain(&mut g, &["a()", "b()", "c()"]);
        assert_eq!(g.event_count(), 3);
        assert_eq!(g.edge_count(), 2);
        assert_eq!(g.successors(ids[0]), &[ids[1]]);
        assert_eq!(g.predecessors(ids[2]), &[ids[1]]);
        assert!(g.is_reachable(ids[0], ids[2]));
        assert!(!g.is_reachable(ids[2], ids[0]));
    }

    #[test]
    fn duplicate_and_self_edges_ignored() {
        let mut g = PropagationGraph::new();
        let a = g.add_event(ev("a()"));
        let b = g.add_event(ev("b()"));
        g.add_edge(a, b);
        g.add_edge(a, b);
        g.add_edge(a, a);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn bfs_reachability() {
        let mut g = PropagationGraph::new();
        let ids = chain(&mut g, &["a()", "b()", "c()", "d()"]);
        let x = g.add_event(ev("x()"));
        g.add_edge(x, ids[2]);
        let fwd = g.reachable_from(ids[0]);
        assert_eq!(fwd.len(), 3);
        let back = g.reaching(ids[3]);
        assert_eq!(back.len(), 4); // a, b, c, x
    }

    #[test]
    fn union_keeps_programs_disjoint() {
        let mut g1 = PropagationGraph::new();
        chain(&mut g1, &["a()", "b()"]);
        let mut g2 = PropagationGraph::new();
        chain(&mut g2, &["a()", "c()"]);
        let offset = g1.union(&g2);
        assert_eq!(offset, 2);
        assert_eq!(g1.event_count(), 4);
        assert_eq!(g1.edge_count(), 2);
        // No cross-program edges: the two `a()` events are distinct nodes.
        assert!(!g1.is_reachable(EventId(0), EventId(3)));
    }

    #[test]
    fn union_preserves_edge_kinds_and_arg_positions() {
        let mut g2 = PropagationGraph::new();
        let a = g2.add_event(ev("a()"));
        let b = g2.add_event(ev("b()"));
        let c = g2.add_event(ev("c()"));
        g2.add_edge_kind(a, b, EdgeKind::Receiver);
        g2.add_edge_kind(a, c, EdgeKind::Argument);
        g2.set_arg_position(a, c, ArgPos::Positional(1));
        let mut g1 = PropagationGraph::new();
        chain(&mut g1, &["x()"]);
        let offset = g1.union(&g2);
        let (a, b, c) = (EventId(a.0 + offset), EventId(b.0 + offset), EventId(c.0 + offset));
        assert_eq!(g1.edge_kind(a, b), Some(EdgeKind::Receiver));
        assert_eq!(g1.edge_kind(a, c), Some(EdgeKind::Argument));
        assert_eq!(g1.arg_position(a, c), Some(&ArgPos::Positional(1)));
        assert_eq!(g1.edge_count(), 2);
        assert_eq!(g1.predecessors(b), &[a]);
    }

    #[test]
    fn append_equals_union() {
        let mut g2 = PropagationGraph::new();
        let a = g2.add_event(ev("a()"));
        let b = g2.add_event(ev("b()"));
        let c = g2.add_event(ev("c()"));
        g2.add_edge_kind(a, b, EdgeKind::Receiver);
        g2.add_edge_kind(a, c, EdgeKind::Argument);
        g2.set_arg_position(a, c, ArgPos::Keyword("data".into()));
        let mut by_copy = PropagationGraph::new();
        chain(&mut by_copy, &["x()", "y()"]);
        let mut by_move = by_copy.clone();
        assert_eq!(by_copy.union(&g2), by_move.append(g2));
        assert_eq!(by_move.event_count(), by_copy.event_count());
        assert_eq!(by_move.edge_count(), by_copy.edge_count());
        assert!(by_move.edges().eq(by_copy.edges()));
        for (from, to) in by_copy.edges() {
            assert_eq!(by_move.edge_kind(from, to), by_copy.edge_kind(from, to));
            assert_eq!(by_move.arg_position(from, to), by_copy.arg_position(from, to));
            assert_eq!(by_move.predecessors(to), by_copy.predecessors(to));
        }
        for ((_, m), (_, c)) in by_move.events().zip(by_copy.events()) {
            assert_eq!(m.reps, c.reps);
        }
    }

    #[test]
    fn contraction_merges_same_rep() {
        // Fig. 8: two `san()` calls in different functions.
        let mut g = PropagationGraph::new();
        let src = g.add_event(ev("src()"));
        let san1 = g.add_event(ev("san()"));
        let san2 = g.add_event(ev("san()"));
        let sink = g.add_event(ev("sink()"));
        g.add_edge(src, san1);
        g.add_edge(san2, sink);
        let (c, mapping) = g.contract();
        assert_eq!(c.event_count(), 3);
        assert_eq!(mapping[san1.index()], mapping[san2.index()]);
        // After contraction, src reaches sink (the Fig. 8 spurious flow).
        let csrc = mapping[src.index()];
        let csink = mapping[sink.index()];
        assert!(c.is_reachable(csrc, csink));
        // ... while in the original graph it does not.
        assert!(!g.is_reachable(src, sink));
    }

    #[test]
    fn representation_frequencies_count_backoffs() {
        let mut g = PropagationGraph::new();
        g.add_event(Event::from_reps(
            EventKind::Call,
            &["a.b()", "b()"],
            FileId(0),
            Span::dummy(),
        ));
        g.add_event(Event::from_reps(
            EventKind::Call,
            &["c.b()", "b()"],
            FileId(0),
            Span::dummy(),
        ));
        let f = g.representation_frequencies();
        assert_eq!(f["b()"], 2);
        assert_eq!(f["a.b()"], 1);
        let counts = g.rep_frequency_counts();
        assert_eq!(counts[seldon_intern::intern("b()").index()], 2);
        assert_eq!(counts[seldon_intern::intern("c.b()").index()], 1);
        assert!((g.avg_backoff_options() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn events_in_file_filters() {
        let mut g = PropagationGraph::new();
        g.add_event(ev("a()"));
        g.add_event(Event::from_reps(EventKind::Call, &["b()"], FileId(1), Span::dummy()));
        assert_eq!(g.events_in_file(FileId(0)).len(), 1);
        assert_eq!(g.events_in_file(FileId(1)).len(), 1);
    }

    #[test]
    fn empty_graph_stats() {
        let g = PropagationGraph::new();
        assert_eq!(g.avg_backoff_options(), 0.0);
        assert_eq!(g.event_count(), 0);
    }
}
