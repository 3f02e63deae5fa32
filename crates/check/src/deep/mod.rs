//! Transitive fixpoint rules over the workspace call graph.
//!
//! Four rules run over the graph built by [`crate::graph`] and resolved
//! by [`crate::resolve`], all instances of one reachability engine:
//!
//! * [`purity`] — **hot-path purity**: everything reachable from the
//!   `// gaurast-check: hot-path` roots must be transitively free of
//!   heap allocation, locking, and I/O.
//! * [`taint`] — **determinism taint**: no path from a pipeline entry
//!   point to a clock, env read, default hasher, or thread-count query.
//! * [`panics`] — **serving panic-freedom**: no `unwrap`/`expect`/
//!   `panic!`-family construct (and, inside the service crate's own
//!   sources, no unguarded indexing) reachable from the serving entry
//!   points.
//! * [`races`] — **unsafe-instrumentation-coverage**: every raw-pointer
//!   write reachable from the hot roots must lexically sit inside a
//!   `race_region!` block, so the shadow race detector actually sees the
//!   access ranges it claims to check.
//!
//! Every violation carries a *witness path* — the call chain from a root
//! to the offending token; a `Vec` built per splat in Stage 2's tile walk
//! would read, e.g.,
//! `render::tile::bin_splats_pooled → render::tile::covered_runs → Vec::with_capacity (crates/render/src/tile.rs:101)`
//! — so a failure is a readable story, not a bare line number. The
//! `// gaurast-check: allow(…): reason` escape hatches are honored at any
//! depth (the graph records suppressed events separately and the report
//! counts them), and calls the resolver could not map are listed in the
//! report rather than silently dropped.
//!
//! [`analyze`] runs everything and returns a [`DeepReport`], which
//! renders both human-readable ([`DeepReport::human`]) and as the
//! machine-readable `CHECK_report.json` ([`DeepReport::json`]).

pub mod panics;
pub mod purity;
pub mod races;
pub mod taint;

use crate::graph::{CallGraph, Event, EventKind, FnNode};
use crate::resolve::{resolve, CrateDeps, Resolution};
use std::collections::VecDeque;
use std::path::Path;

/// Identifier of the report schema emitted by [`DeepReport::json`].
/// `v2` added the `unsafe-instrumentation-coverage` rule block and the
/// per-rule `advisory_top` function tallies.
pub const REPORT_SCHEMA: &str = "gaurast-check/deep/v2";

/// One transitive rule violation with its witness path.
#[derive(Clone, Debug)]
pub struct Violation {
    /// Node ids from a rule root (first) to the offending function
    /// (last); length 1 when the root itself offends.
    pub witness: Vec<String>,
    /// The matched effect token (`Vec::new`, `Instant::now`, `.expect(`).
    pub token: String,
    /// Repo-relative file of the offending token.
    pub file: String,
    /// 1-based line of the offending token.
    pub line: usize,
}

impl Violation {
    /// Renders `a → b → c → token (file:line)`.
    pub fn render(&self) -> String {
        format!(
            "{} → {} ({}:{})",
            self.witness.join(" → "),
            self.token,
            self.file,
            self.line
        )
    }
}

/// The outcome of one rule over the whole graph.
#[derive(Clone, Debug)]
pub struct RuleOutcome {
    /// Stable rule name (`hot-path-purity`, `determinism-taint`,
    /// `serving-panic-freedom`).
    pub rule: &'static str,
    /// Node ids of the rule's roots, in graph order.
    pub roots: Vec<String>,
    /// Violations found, in graph order.
    pub violations: Vec<Violation>,
    /// Events of the rule's kinds inside reachable functions that an
    /// `allow(…)` annotation suppressed — counted so escapes stay
    /// visible in the report.
    pub suppressed: usize,
    /// Reachable indexing sites outside the rule's enforced file set
    /// (only the panic-freedom rule populates this): advisory, not
    /// failing — full-pipeline indexing enforcement would demand
    /// hundreds of annotations for no proof value.
    pub advisory_index_sites: usize,
    /// The functions contributing the most advisory sites, as
    /// `(node id, count)` sorted descending — the worklist a future
    /// tightening of the enforced set would start from.
    pub advisory_top: Vec<(String, usize)>,
}

/// One call site the resolver could not map, with the caller's identity
/// attached for the report.
#[derive(Clone, Debug)]
pub struct UnresolvedReport {
    /// Node id of the calling function.
    pub caller: String,
    /// Callee name as written.
    pub name: String,
    /// Repo-relative file of the call site.
    pub file: String,
    /// 1-based line of the call site.
    pub line: usize,
}

/// Full deep-analysis result: graph statistics plus every rule outcome.
#[derive(Clone, Debug)]
pub struct DeepReport {
    /// Files parsed into the graph.
    pub files: usize,
    /// Functions in the graph.
    pub nodes: usize,
    /// Resolved call edges.
    pub edges: usize,
    /// Call sites mapped to the known-external vocabulary.
    pub external_calls: usize,
    /// Call sites the resolver could not map (conservatively reported).
    pub unresolved: Vec<UnresolvedReport>,
    /// Per-rule outcomes.
    pub rules: Vec<RuleOutcome>,
}

impl DeepReport {
    /// Total violation count across all rules.
    pub fn total_violations(&self) -> usize {
        self.rules.iter().map(|r| r.violations.len()).sum()
    }

    /// Human-readable report, one witness path per violation.
    pub fn human(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "deep: {} files, {} functions, {} edges ({} external calls, {} unresolved)\n",
            self.files,
            self.nodes,
            self.edges,
            self.external_calls,
            self.unresolved.len(),
        ));
        for rule in &self.rules {
            out.push_str(&format!(
                "rule {}: {} roots, {} violations, {} suppressed by allow(…)",
                rule.rule,
                rule.roots.len(),
                rule.violations.len(),
                rule.suppressed,
            ));
            if rule.advisory_index_sites > 0 {
                out.push_str(&format!(
                    ", {} advisory indexing sites",
                    rule.advisory_index_sites
                ));
            }
            out.push('\n');
            if !rule.advisory_top.is_empty() {
                out.push_str("  top advisory-site functions:\n");
                for (id, count) in &rule.advisory_top {
                    out.push_str(&format!("    {count:4}  {id}\n"));
                }
            }
            for v in &rule.violations {
                out.push_str(&format!("  {}\n", v.render()));
            }
        }
        if !self.unresolved.is_empty() {
            // The JSON report carries the full list; the console shows a
            // digest (closures and fn pointers dominate it).
            const SHOWN: usize = 20;
            out.push_str(&format!(
                "unresolved calls (counted conservatively, not dropped): {}\n",
                self.unresolved.len()
            ));
            for u in self.unresolved.iter().take(SHOWN) {
                out.push_str(&format!(
                    "  {} calls `{}` ({}:{})\n",
                    u.caller, u.name, u.file, u.line
                ));
            }
            if self.unresolved.len() > SHOWN {
                out.push_str(&format!(
                    "  … and {} more (see CHECK_report.json)\n",
                    self.unresolved.len() - SHOWN
                ));
            }
        }
        out
    }

    /// Machine-readable `CHECK_report.json` body (hand-rolled — the
    /// workspace builds dependency-free, same approach as
    /// `BENCH_sort.json`).
    pub fn json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": {},\n", json_str(REPORT_SCHEMA)));
        out.push_str(&format!(
            "  \"graph\": {{ \"files\": {}, \"nodes\": {}, \"edges\": {}, \
             \"external_calls\": {}, \"unresolved_calls\": {} }},\n",
            self.files,
            self.nodes,
            self.edges,
            self.external_calls,
            self.unresolved.len(),
        ));
        out.push_str(&format!(
            "  \"total_violations\": {},\n",
            self.total_violations()
        ));
        out.push_str("  \"rules\": [\n");
        for (ri, rule) in self.rules.iter().enumerate() {
            out.push_str("    {\n");
            out.push_str(&format!("      \"rule\": {},\n", json_str(rule.rule)));
            out.push_str(&format!(
                "      \"roots\": [{}],\n",
                rule.roots
                    .iter()
                    .map(|r| json_str(r))
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
            out.push_str(&format!("      \"suppressed\": {},\n", rule.suppressed));
            out.push_str(&format!(
                "      \"advisory_index_sites\": {},\n",
                rule.advisory_index_sites
            ));
            out.push_str(&format!(
                "      \"advisory_top\": [{}],\n",
                rule.advisory_top
                    .iter()
                    .map(|(id, c)| format!("{{ \"fn\": {}, \"sites\": {} }}", json_str(id), c))
                    .collect::<Vec<_>>()
                    .join(", ")
            ));
            out.push_str("      \"violations\": [\n");
            for (vi, v) in rule.violations.iter().enumerate() {
                out.push_str(&format!(
                    "        {{ \"witness\": [{}], \"token\": {}, \"file\": {}, \"line\": {} }}{}\n",
                    v.witness
                        .iter()
                        .map(|w| json_str(w))
                        .collect::<Vec<_>>()
                        .join(", "),
                    json_str(&v.token),
                    json_str(&v.file),
                    v.line,
                    if vi + 1 == rule.violations.len() { "" } else { "," },
                ));
            }
            out.push_str("      ]\n");
            out.push_str(&format!(
                "    }}{}\n",
                if ri + 1 == self.rules.len() { "" } else { "," }
            ));
        }
        out.push_str("  ],\n");
        out.push_str("  \"unresolved\": [\n");
        for (ui, u) in self.unresolved.iter().enumerate() {
            out.push_str(&format!(
                "    {{ \"caller\": {}, \"name\": {}, \"file\": {}, \"line\": {} }}{}\n",
                json_str(&u.caller),
                json_str(&u.name),
                json_str(&u.file),
                u.line,
                if ui + 1 == self.unresolved.len() {
                    ""
                } else {
                    ","
                },
            ));
        }
        out.push_str("  ]\n");
        out.push_str("}\n");
        out
    }
}

/// Minimal JSON string escaping (paths and identifiers only).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Builds the graph under `root`, resolves it, and runs all three rules.
///
/// # Errors
/// Propagates I/O errors from the tree walk.
pub fn analyze(root: &Path) -> std::io::Result<DeepReport> {
    let graph = CallGraph::build(root)?;
    let deps = CrateDeps::discover(root);
    let res = resolve(&graph, &deps);
    Ok(analyze_graph(&graph, &res))
}

/// Runs the rules over an already-built graph (tests run this directly
/// on fixture trees).
pub fn analyze_graph(graph: &CallGraph, res: &Resolution) -> DeepReport {
    let rules = vec![
        purity::run(graph, res),
        taint::run(graph, res),
        panics::run(graph, res),
        races::run(graph, res),
    ];
    let unresolved = res
        .unresolved
        .iter()
        .map(|u| {
            let n = &graph.nodes[u.caller];
            UnresolvedReport {
                caller: n.id(),
                name: u.name.clone(),
                file: n.file.clone(),
                line: u.line,
            }
        })
        .collect();
    DeepReport {
        files: graph.files,
        nodes: graph.nodes.len(),
        edges: res.edge_count(),
        external_calls: res.external_calls,
        unresolved,
        rules,
    }
}

/// Reachability engine shared by the three rules: BFS from `roots` over
/// the resolved edges, recording a parent pointer per first discovery,
/// then one violation per matching event inside a reachable node, with
/// the witness path reconstructed from the parent chain.
pub(crate) fn run_reachability(
    graph: &CallGraph,
    res: &Resolution,
    rule: &'static str,
    roots: &[usize],
    matches: impl Fn(&FnNode, &Event) -> EventMatch,
    kinds: &[EventKind],
) -> RuleOutcome {
    let n = graph.nodes.len();
    let mut parent: Vec<Option<usize>> = vec![None; n];
    let mut seen = vec![false; n];
    let mut queue = VecDeque::new();
    for &r in roots {
        if !seen[r] {
            seen[r] = true;
            queue.push_back(r);
        }
    }
    let mut order = Vec::new();
    while let Some(u) = queue.pop_front() {
        order.push(u);
        for &(v, _) in &res.edges[u] {
            if !seen[v] {
                seen[v] = true;
                parent[v] = Some(u);
                queue.push_back(v);
            }
        }
    }

    let witness_to = |node: usize| {
        let mut path = vec![graph.nodes[node].id()];
        let mut cur = node;
        while let Some(p) = parent[cur] {
            path.push(graph.nodes[p].id());
            cur = p;
        }
        path.reverse();
        path
    };

    let mut violations = Vec::new();
    let mut suppressed = 0;
    let mut advisory = 0;
    let mut advisory_by_fn: Vec<(usize, usize)> = Vec::new(); // (node, count)
    for &u in &order {
        let node = &graph.nodes[u];
        let mut node_advisory = 0;
        for ev in &node.events {
            match matches(node, ev) {
                EventMatch::Violation => violations.push(Violation {
                    witness: witness_to(u),
                    token: ev.token.clone(),
                    file: node.file.clone(),
                    line: ev.line,
                }),
                EventMatch::Advisory => {
                    advisory += 1;
                    node_advisory += 1;
                }
                EventMatch::Ignore => {}
            }
        }
        if node_advisory > 0 {
            advisory_by_fn.push((u, node_advisory));
        }
        suppressed += node
            .suppressed
            .iter()
            .filter(|e| kinds.contains(&e.kind))
            .count();
    }
    // Largest offenders first; node order breaks ties deterministically.
    advisory_by_fn.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    advisory_by_fn.truncate(ADVISORY_TOP);

    RuleOutcome {
        rule,
        roots: roots.iter().map(|&r| graph.nodes[r].id()).collect(),
        violations,
        suppressed,
        advisory_index_sites: advisory,
        advisory_top: advisory_by_fn
            .into_iter()
            .map(|(u, c)| (graph.nodes[u].id(), c))
            .collect(),
    }
}

/// How many top advisory-site functions a rule outcome retains.
const ADVISORY_TOP: usize = 8;

/// What a rule's event predicate decides about one event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum EventMatch {
    /// A failing finding with a witness path.
    Violation,
    /// Counted in [`RuleOutcome::advisory_index_sites`], not failing.
    Advisory,
    /// Not this rule's concern.
    Ignore,
}
