//! Call-site resolution: from textual [`Call`]s to graph edges.
//!
//! The parser in [`crate::graph`] records *what a call site says*; this
//! module decides *which workspace functions it can mean*. Resolution is
//! deliberately conservative in both directions:
//!
//! * **Over-approximate where cheap** — a method call `.run(…)` with an
//!   unknown receiver type edges to *every visible* method named `run`,
//!   so a transitive analysis never misses a path because type inference
//!   was too hard for a dependency-free checker.
//! * **Count what it cannot see** — a plain call whose name matches no
//!   visible function (a function pointer, a re-exported std item, a
//!   macro-generated shim) becomes an [`Unresolved`] record. The deep
//!   rules report the count; nothing is silently dropped.
//!
//! Visibility follows the crate graph: each `crates/*/Cargo.toml` is
//! scanned for `gaurast-*` dependencies, and a call in crate `render` can
//! only resolve into `render` itself and the crates it depends on. That
//! keeps name collisions across unrelated crates (every crate has a
//! `new`) from wiring the graph into one blob.
//!
//! Method and qualified names that belong to `std`'s ubiquitous
//! vocabulary (`push`, `clone`, `len`, `lock`, …) resolve **external**:
//! their effects are already captured as line-level events at the call
//! site (`.lock(` is a lock event, `.clone(` an alloc token), so edging
//! them into same-named workspace methods would only manufacture false
//! paths. They are tallied in [`Resolution::external_calls`].

use crate::graph::{Call, CallGraph, CallKind};
use std::collections::HashMap;
use std::path::Path;

/// Qualifiers that always denote non-workspace items: `Vec::new`,
/// `f32::max`, `Ordering::Relaxed`-style constructor/method paths whose
/// effects (if any) are caught token-wise at the call site.
const STD_QUALIFIERS: &[&str] = &[
    "Vec",
    "String",
    "Box",
    "Arc",
    "Rc",
    "Cell",
    "RefCell",
    "Option",
    "Result",
    "Some",
    "None",
    "Ok",
    "Err",
    "Ordering",
    "HashMap",
    "HashSet",
    "BTreeMap",
    "BTreeSet",
    "VecDeque",
    "Instant",
    "Duration",
    "SystemTime",
    "Mutex",
    "RwLock",
    "Condvar",
    "AtomicUsize",
    "AtomicU32",
    "AtomicU64",
    "AtomicBool",
    "AtomicPtr",
    "PhantomData",
    "Iterator",
    "IntoIterator",
    "Default",
    "Clone",
    "Copy",
    "Debug",
    "Display",
    "From",
    "Into",
    "TryFrom",
    "TryInto",
    "PartialOrd",
    "PartialEq",
    "Hash",
    "Drop",
    "f32",
    "f64",
    "u8",
    "u16",
    "u32",
    "u64",
    "usize",
    "i8",
    "i16",
    "i32",
    "i64",
    "isize",
    "bool",
    "char",
    "str",
    "mem",
    "ptr",
    "slice",
    "array",
    "iter",
    "fmt",
    "env",
    "fs",
    "io",
    "thread",
    "time",
    "cmp",
    "num",
    "ops",
    "process",
    "File",
    "Path",
    "PathBuf",
    "OsStr",
    "OsString",
    "NonZeroUsize",
    "NonZeroU32",
    "Write",
    "Read",
    "BufWriter",
    "BufReader",
    "Error",
    "Poll",
    "Wrapping",
    "Range",
    "Rev",
    "Reverse",
];

/// Method names so ubiquitous across `std` and the workspace that an
/// unknown-receiver edge to every same-named method would be noise, not
/// analysis. Their effects are line-level events at the call site.
const UBIQUITOUS_METHODS: &[&str] = &[
    "clone",
    "len",
    "is_empty",
    "push",
    "pop",
    "insert",
    "remove",
    "get",
    "get_mut",
    "contains",
    "contains_key",
    "iter",
    "iter_mut",
    "into_iter",
    "next",
    "map",
    "and_then",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "ok_or",
    "ok_or_else",
    "filter",
    "fold",
    "sum",
    "min",
    "max",
    "count",
    "collect",
    "extend",
    "clear",
    "resize",
    "truncate",
    "reserve",
    "capacity",
    "as_ref",
    "as_mut",
    "as_slice",
    "as_str",
    "as_bytes",
    "to_vec",
    "to_string",
    "to_owned",
    "into",
    "try_into",
    "from",
    "eq",
    "ne",
    "cmp",
    "partial_cmp",
    "hash",
    "fmt",
    "display",
    "drain",
    "split_at",
    "split_at_mut",
    "chunks",
    "chunks_mut",
    "chunks_exact",
    "chunks_exact_mut",
    "get_or_init",
    "windows",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "binary_search",
    "binary_search_by",
    "swap",
    "fill",
    "copy_from_slice",
    "clone_from_slice",
    "first",
    "last",
    "take",
    "replace",
    "zip",
    "enumerate",
    "rev",
    "skip",
    "chain",
    "flat_map",
    "flatten",
    "any",
    "all",
    "find",
    "position",
    "retain",
    "entry",
    "or_insert",
    "or_insert_with",
    "keys",
    "values",
    "join",
    "spawn",
    "lock",
    "read",
    "write",
    "load",
    "store",
    "fetch_add",
    "fetch_sub",
    "fetch_or",
    "compare_exchange",
    "compare_exchange_weak",
    "wait",
    "notify_all",
    "notify_one",
    "abs",
    "sqrt",
    "floor",
    "ceil",
    "round",
    "exp",
    "ln",
    "powi",
    "powf",
    "min_by",
    "max_by",
    "min_by_key",
    "max_by_key",
    "to_bits",
    "from_bits",
    "is_finite",
    "is_nan",
    "clamp",
    "saturating_sub",
    "saturating_add",
    "wrapping_add",
    "wrapping_sub",
    "checked_add",
    "checked_sub",
    "checked_mul",
    "unwrap",
    "expect",
    "is_some",
    "is_none",
    "is_ok",
    "is_err",
    "ok",
    "err",
    "starts_with",
    "ends_with",
    "trim",
    "split",
    "splitn",
    "split_once",
    "lines",
    "chars",
    "bytes",
    "parse",
    "push_str",
    "repeat",
    "finish",
    "write_all",
    "flush",
    "read_to_string",
    "read_to_end",
    "elapsed",
    "duration_since",
    "as_secs",
    "as_millis",
    "as_micros",
    "as_nanos",
    "as_secs_f64",
    "step_by",
    "take_while",
    "skip_while",
    "peekable",
    "peek",
    "cloned",
    "copied",
    "inspect",
    "then",
    "then_some",
    "map_or",
    "map_or_else",
    "is_some_and",
    "is_none_or",
    "exp2",
    "log2",
    "mul_add",
    "rem_euclid",
    "div_euclid",
    "to_le_bytes",
    "from_le_bytes",
    "leading_zeros",
    "trailing_zeros",
    "count_ones",
    "rotate_left",
    "rotate_right",
    "next_power_of_two",
    "map_err",
    "map_while",
    "and",
    "or",
    "xor",
    "rposition",
    "rfind",
    "rsplit",
    "trim_end",
    "trim_start",
    "write_str",
    "write_fmt",
    "div_ceil",
    "pow",
    "signum",
    "copysign",
    "fract",
    "trunc",
    "recip",
    "hypot",
    "atan2",
    "sin",
    "cos",
    "tan",
    "asin",
    "acos",
    "atan",
    "to_degrees",
    "to_radians",
    "get_or_insert_with",
    "push_back",
    "push_front",
    "pop_front",
    "pop_back",
    "front",
    "back",
    "find_map",
    "filter_map",
    "char_indices",
    "nth",
    "next_back",
    "last_mut",
    "first_mut",
    "strip_prefix",
    "strip_suffix",
    "as_deref",
    "as_mut_slice",
    "to_ascii_lowercase",
    "to_ascii_uppercase",
    "swap_remove",
    "dedup",
    "concat",
    "rsplitn",
    "scan",
    "by_ref",
    "fuse",
    "cycle",
    "product",
    "try_fold",
    "for_each",
    "partition",
    "unzip",
    "resize_with",
    "into_inner",
    "total_cmp",
    "unsigned_abs",
    "saturating_mul",
    "wrapping_mul",
    "log10",
    "cbrt",
    "extend_from_slice",
    "as_ptr",
    "as_mut_ptr",
    "as_deref_mut",
    "read_line",
    "read_exact",
    "canonicalize",
    "unpark",
    "park",
    "append",
    "into_bytes",
    "partition_point",
    "copy_within",
    "shrink_to_fit",
    "thread",
    "debug_struct",
    "debug_tuple",
    "field",
    "finish_non_exhaustive",
    // Vendored-rand vocabulary: the RNG is a workspace-vendored external
    // whose sources sit outside the graph's `src/` trees.
    "gen_range",
    "fill_bytes",
    "next_u32",
    "next_u64",
    "seed_from_u64",
];

/// Workspace methods and constructors defined *inside* `macro_rules!`
/// bodies (`impl_vec_common!` in `crates/math/src/vec.rs`): the parser
/// skips macro bodies (they are token soup), so these never become graph
/// nodes, and a call through them cannot edge anywhere. They are pure
/// value math — the math crate is `#![forbid(unsafe_code)]` and under the
/// full line-lint — so resolving them external loses no effects.
const MACRO_IMPL_METHODS: &[&str] = &[
    "splat",
    "zero",
    "one",
    "dot",
    "hadamard",
    "length",
    "length_squared",
    "lerp",
    "normalized",
    "try_normalized",
    "max_component",
    "min_component",
];

/// Free-function names resolved external when no workspace match exists
/// in the caller's visibility set (std preludes and well-known paths).
const STD_FREE_FNS: &[&str] = &[
    "drop",
    "min",
    "max",
    "swap",
    "take",
    "replace",
    "size_of",
    "align_of",
    "transmute",
    "from_fn",
    "once",
    "repeat",
    "empty",
    "available_parallelism",
    "var",
    "vars",
    "scope",
    "sleep",
    "yield_now",
    "current",
    "channel",
    "sync_channel",
    "black_box",
    "identity",
    "abs",
    "sqrt",
    // `#[cfg(not(...))]` predicates parse as plain calls; `not` is also
    // `std::ops::Not` — either way, no workspace body to edge to.
    "not",
];

/// Workspace kernels defined *inside* `macro_rules!` bodies
/// (`stage1_kernel!` in `crates/render/src/simd/stage1.rs`): like
/// [`MACRO_IMPL_METHODS`], the parser skips macro bodies, so these never
/// become graph nodes. Their bodies are straight-line per-lane register
/// math over `core::arch` intrinsics — no allocation, no panic path, no
/// ambient input — and the file sits in the line lint's `HOT_FILES` set,
/// which polices macro-body text too (the line rules are textual).
const MACRO_KERNEL_FNS: &[&str] = &["group_sse", "group_avx2"];

/// `core::arch::x86_64` vector intrinsics (`_mm_add_ps`,
/// `_mm256_blendv_ps`, …): per-lane register value math with no effects
/// the deep rules track — no allocation, no panics, deterministic. The
/// `unsafe` / `#[target_feature]` discipline around them is the line
/// lint's SAFETY-comment rule, not a call-graph property.
fn is_vector_intrinsic(name: &str) -> bool {
    name.starts_with("_mm_") || name.starts_with("_mm256_")
}

/// One call site the resolver could not map to any workspace function or
/// known-external vocabulary. Counted and reported, never dropped.
#[derive(Clone, Debug)]
pub struct Unresolved {
    /// Index of the calling node in the graph.
    pub caller: usize,
    /// Callee name as written at the site.
    pub name: String,
    /// 1-based source line of the site.
    pub line: usize,
}

/// The resolved call graph: adjacency over [`CallGraph`] node indices
/// plus the conservative remainder.
#[derive(Clone, Debug, Default)]
pub struct Resolution {
    /// `edges[i]` = indices of nodes that node `i` may call, deduplicated,
    /// paired with the source line of (one of) the call site(s).
    pub edges: Vec<Vec<(usize, usize)>>,
    /// Call sites mapped to the known-external vocabulary (std methods,
    /// std qualifiers, prelude free functions).
    pub external_calls: usize,
    /// Call sites that matched nothing — reported by every deep rule.
    pub unresolved: Vec<Unresolved>,
}

impl Resolution {
    /// Total number of graph edges.
    pub fn edge_count(&self) -> usize {
        self.edges.iter().map(Vec::len).sum()
    }
}

/// Per-crate visibility: which crate keys a caller crate can see.
#[derive(Clone, Debug, Default)]
pub struct CrateDeps {
    deps: HashMap<String, Vec<String>>,
}

impl CrateDeps {
    /// Scans `crates/*/Cargo.toml` (and the workspace-root manifest)
    /// under `root`. Dependency lines are matched against the *package
    /// names* the manifests declare (`gaurast`, `gaurast-render`, …) and
    /// mapped back to directory keys (`core`, `render`, …) — the
    /// directory name and the package name differ for the facade crate.
    /// The relation is then closed transitively: the facade re-exports
    /// its dependencies wholesale, so depending on it effectively makes
    /// everything it sees visible. When no manifest is found at all —
    /// fixture trees in tests — every crate sees every other, which is
    /// the conservative direction.
    pub fn discover(root: &Path) -> Self {
        // Pass 1: (package name, directory key) for every crate.
        let mut manifests: Vec<(String, String)> = Vec::new(); // (key, manifest text)
        let crates_dir = root.join("crates");
        if let Ok(entries) = std::fs::read_dir(&crates_dir) {
            for entry in entries.flatten() {
                let key = entry.file_name().to_string_lossy().into_owned();
                if let Ok(manifest) = std::fs::read_to_string(entry.path().join("Cargo.toml")) {
                    manifests.push((key, manifest));
                }
            }
        }
        if let Ok(manifest) = std::fs::read_to_string(root.join("Cargo.toml")) {
            manifests.push((".".to_string(), manifest));
        }
        let names: Vec<(String, String)> = manifests
            .iter()
            .filter_map(|(key, manifest)| package_name(manifest).map(|pkg| (pkg, key.clone())))
            .collect();

        // Pass 2: dependency lines → directory keys.
        let mut deps: HashMap<String, Vec<String>> = HashMap::new();
        for (key, manifest) in &manifests {
            deps.insert(key.clone(), parse_workspace_deps(manifest, &names, key));
        }
        // Transitive closure (the graph is tiny; iterate to fixpoint).
        loop {
            let mut grew = false;
            let keys: Vec<String> = deps.keys().cloned().collect();
            for k in &keys {
                let reachable: Vec<String> = deps[k]
                    .iter()
                    .flat_map(|d| deps.get(d).cloned().unwrap_or_default())
                    .collect();
                let entry = deps.get_mut(k).expect("key enumerated above");
                for r in reachable {
                    if r != *k && !entry.contains(&r) {
                        entry.push(r);
                        grew = true;
                    }
                }
            }
            if !grew {
                break;
            }
        }
        CrateDeps { deps }
    }

    /// `true` when code in `from` may call into `to` (same crate, a
    /// declared dependency, or no manifest information at all).
    pub fn visible(&self, from: &str, to: &str) -> bool {
        if from == to || self.deps.is_empty() {
            return true;
        }
        self.deps
            .get(from)
            .is_some_and(|ds| ds.iter().any(|d| d == to))
    }
}

/// First `name = "…"` value in a manifest (the `[package]` name; every
/// workspace manifest puts `[package]` before any dependency tables).
fn package_name(manifest: &str) -> Option<String> {
    for line in manifest.lines() {
        let line = line.trim();
        if let Some(rest) = line.strip_prefix("name") {
            let rest = rest.trim_start().strip_prefix('=')?.trim_start();
            let rest = rest.strip_prefix('"')?;
            return rest.split('"').next().map(str::to_string);
        }
    }
    None
}

/// Extracts workspace-internal dependency keys from a manifest: every
/// line whose key (the token before `=`, `.`, or whitespace) equals a
/// known package name maps to that package's directory key. Covers both
/// `gaurast-math = { path = … }` and `gaurast-math.workspace = true`
/// spellings. A line scan is enough — the manifests are machine-regular.
fn parse_workspace_deps(manifest: &str, names: &[(String, String)], own_key: &str) -> Vec<String> {
    let mut out = Vec::new();
    for line in manifest.lines() {
        let line = line.trim();
        let dep: String = line
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_' || *c == '-')
            .collect();
        if dep.is_empty() {
            continue;
        }
        if let Some((_, key)) = names.iter().find(|(pkg, _)| *pkg == dep) {
            if key != own_key && !out.contains(key) {
                out.push(key.clone());
            }
        }
    }
    out
}

/// Resolves every call site in `graph` against the crate-visibility map.
pub fn resolve(graph: &CallGraph, deps: &CrateDeps) -> Resolution {
    // Indexes: free functions by name, methods by name, methods by
    // (owner, name), and the set of owner type names per crate.
    let mut free_by_name: HashMap<&str, Vec<usize>> = HashMap::new();
    let mut methods_by_name: HashMap<&str, Vec<usize>> = HashMap::new();
    let mut by_owner: HashMap<(&str, &str), Vec<usize>> = HashMap::new();
    let mut modules: HashMap<&str, Vec<usize>> = HashMap::new();
    for (i, n) in graph.nodes.iter().enumerate() {
        match &n.owner {
            Some(owner) => {
                methods_by_name.entry(&n.name).or_default().push(i);
                by_owner.entry((owner, &n.name)).or_default().push(i);
            }
            None => {
                free_by_name.entry(&n.name).or_default().push(i);
                if let Some(last) = n.module.rsplit("::").next() {
                    modules.entry(last).or_default().push(i);
                }
            }
        }
    }

    let mut res = Resolution {
        edges: vec![Vec::new(); graph.nodes.len()],
        ..Resolution::default()
    };

    for (caller, node) in graph.nodes.iter().enumerate() {
        for call in &node.calls {
            let targets = resolve_one(
                graph,
                deps,
                caller,
                call,
                &free_by_name,
                &methods_by_name,
                &by_owner,
                &modules,
            );
            match targets {
                Targets::Workspace(ts) => {
                    for t in ts {
                        if !res.edges[caller].iter().any(|&(e, _)| e == t) {
                            res.edges[caller].push((t, call.line));
                        }
                    }
                }
                Targets::External => res.external_calls += 1,
                Targets::Unresolved => res.unresolved.push(Unresolved {
                    caller,
                    name: call.name.clone(),
                    line: call.line,
                }),
            }
        }
    }
    res
}

/// Workspace functions are snake_case throughout; an uppercase-initial
/// callee is a tuple-struct/variant constructor or trait-bound sugar.
fn is_constructor(name: &str) -> bool {
    name.chars().next().is_some_and(char::is_uppercase)
}

enum Targets {
    Workspace(Vec<usize>),
    External,
    Unresolved,
}

#[allow(clippy::too_many_arguments)]
fn resolve_one(
    graph: &CallGraph,
    deps: &CrateDeps,
    caller: usize,
    call: &Call,
    free_by_name: &HashMap<&str, Vec<usize>>,
    methods_by_name: &HashMap<&str, Vec<usize>>,
    by_owner: &HashMap<(&str, &str), Vec<usize>>,
    modules: &HashMap<&str, Vec<usize>>,
) -> Targets {
    let node = &graph.nodes[caller];
    let vis = |i: &usize| deps.visible(&node.krate, &graph.nodes[*i].krate);
    match &call.kind {
        CallKind::Plain => {
            // Same file first (the overwhelmingly common shape), then any
            // visible free function of that name.
            if let Some(cands) = free_by_name.get(call.name.as_str()) {
                let same_file: Vec<usize> = cands
                    .iter()
                    .filter(|&&i| graph.nodes[i].file == node.file)
                    .copied()
                    .collect();
                if !same_file.is_empty() {
                    return Targets::Workspace(same_file);
                }
                let visible: Vec<usize> = cands.iter().filter(|i| vis(i)).copied().collect();
                if !visible.is_empty() {
                    return Targets::Workspace(visible);
                }
            }
            if node.locals.iter().any(|l| l == &call.name) {
                // A parameter or `let`-bound closure: the invocation runs
                // a body the graph attributes elsewhere (closure bodies
                // belong to the function that *defines* them), so the
                // call site itself adds no edge.
                return Targets::External;
            }
            if STD_FREE_FNS.contains(&call.name.as_str())
                || MACRO_KERNEL_FNS.contains(&call.name.as_str())
                || is_vector_intrinsic(&call.name)
                || is_constructor(&call.name)
            {
                // Uppercase-initial callees are tuple-struct or enum
                // variant constructors (`InvalidConfig(msg)`, `Cuda(id)`)
                // or trait-bound sugar (`Fn(…)`): data construction, not
                // calls into function bodies.
                Targets::External
            } else {
                Targets::Unresolved
            }
        }
        CallKind::Qualified(q) => {
            // `Self::name` → the caller's own impl block.
            let owner_key = if q == "Self" {
                node.owner.as_deref()
            } else {
                Some(q.as_str())
            };
            if let Some(owner) = owner_key {
                if let Some(cands) = by_owner.get(&(owner, call.name.as_str())) {
                    let visible: Vec<usize> = cands.iter().filter(|i| vis(i)).copied().collect();
                    if !visible.is_empty() {
                        return Targets::Workspace(visible);
                    }
                }
            }
            // `module::free_fn(…)` — qualifier is a module's last segment.
            if let Some(cands) = modules.get(q.as_str()) {
                let visible: Vec<usize> = cands
                    .iter()
                    .filter(|&&i| graph.nodes[i].name == call.name && vis(&i))
                    .copied()
                    .collect();
                if !visible.is_empty() {
                    return Targets::Workspace(visible);
                }
            }
            if STD_QUALIFIERS.contains(&q.as_str())
                || q.chars().next().is_some_and(char::is_lowercase)
            {
                // Unknown lowercase qualifiers are external modules
                // (`std`, `cmp`, `arch`); their effects are token events.
                Targets::External
            } else if UBIQUITOUS_METHODS.contains(&call.name.as_str())
                || MACRO_IMPL_METHODS.contains(&call.name.as_str())
                || call.name == "new"
                || call.name == "default"
                || call.name == "with_capacity"
                || is_constructor(&call.name)
            {
                // `SomeExternalType::new(…)` — constructor vocabulary on a
                // type the workspace does not define — or an enum variant
                // path (`ServiceError::InvalidConfig(…)`).
                Targets::External
            } else {
                Targets::Unresolved
            }
        }
        CallKind::Method => {
            if UBIQUITOUS_METHODS.contains(&call.name.as_str())
                || MACRO_IMPL_METHODS.contains(&call.name.as_str())
            {
                return Targets::External;
            }
            if let Some(cands) = methods_by_name.get(call.name.as_str()) {
                let visible: Vec<usize> = cands.iter().filter(|i| vis(i)).copied().collect();
                if !visible.is_empty() {
                    // Receiver type unknown: edge to every visible method
                    // of this name (conservative fan-out).
                    return Targets::Workspace(visible);
                }
            }
            Targets::Unresolved
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::CallGraph;

    fn graph_of(files: &[(&str, &str)]) -> CallGraph {
        let mut g = CallGraph::default();
        for (rel, content) in files {
            g.files += 1;
            crate::graph::parse_file(rel, content, &mut g.nodes);
        }
        g
    }

    #[test]
    fn plain_calls_prefer_same_file_then_visible() {
        let g = graph_of(&[
            (
                "crates/render/src/tile.rs",
                "fn caller() { helper(); }\nfn helper() {}\n",
            ),
            ("crates/math/src/vec.rs", "pub fn helper() {}\n"),
        ]);
        let res = resolve(&g, &CrateDeps::default());
        let caller = g.nodes.iter().position(|n| n.name == "caller").unwrap();
        assert_eq!(res.edges[caller].len(), 1);
        let (t, _) = res.edges[caller][0];
        assert_eq!(g.nodes[t].file, "crates/render/src/tile.rs");
    }

    #[test]
    fn qualified_calls_resolve_by_owner_and_module() {
        let g = graph_of(&[
            (
                "crates/render/src/tile.rs",
                "fn caller() { sort::depth_key(1.0); RadixSorter::new(); }\n",
            ),
            (
                "crates/render/src/sort.rs",
                "pub fn depth_key(_d: f32) {}\nimpl RadixSorter { pub fn new() {} }\n",
            ),
        ]);
        let res = resolve(&g, &CrateDeps::default());
        let caller = g.nodes.iter().position(|n| n.name == "caller").unwrap();
        assert_eq!(res.edges[caller].len(), 2, "{:?}", res.edges[caller]);
    }

    #[test]
    fn self_calls_resolve_into_own_impl() {
        let g = graph_of(&[(
            "crates/render/src/pool.rs",
            "impl WorkerPool { fn a(&self) { Self::b(); } fn b() {} }\n",
        )]);
        let res = resolve(&g, &CrateDeps::default());
        let a = g.nodes.iter().position(|n| n.name == "a").unwrap();
        let b = g.nodes.iter().position(|n| n.name == "b").unwrap();
        assert_eq!(res.edges[a], vec![(b, 1)]);
    }

    #[test]
    fn ubiquitous_methods_are_external_not_edges() {
        let g = graph_of(&[(
            "crates/render/src/tile.rs",
            "fn caller(v: &mut Vec<u32>) { v.push(1); v.clone(); }\nimpl Thing { fn push(&self) {} }\n",
        )]);
        let res = resolve(&g, &CrateDeps::default());
        let caller = g.nodes.iter().position(|n| n.name == "caller").unwrap();
        assert!(res.edges[caller].is_empty());
        assert_eq!(res.external_calls, 2);
    }

    #[test]
    fn unknown_calls_are_counted_not_dropped() {
        let g = graph_of(&[(
            "crates/render/src/tile.rs",
            "fn caller() { mystery_fn(); thing.mystery_method(); }\n",
        )]);
        let res = resolve(&g, &CrateDeps::default());
        assert_eq!(res.unresolved.len(), 2, "{:?}", res.unresolved);
        assert!(res.unresolved.iter().any(|u| u.name == "mystery_fn"));
        assert!(res.unresolved.iter().any(|u| u.name == "mystery_method"));
    }

    #[test]
    fn crate_visibility_gates_cross_crate_edges() {
        let g = graph_of(&[
            ("crates/render/src/tile.rs", "fn caller() { shared(); }\n"),
            ("crates/math/src/vec.rs", "pub fn shared() {}\n"),
            ("crates/hw/src/unit.rs", "pub fn shared() {}\n"),
        ]);
        let mut deps = CrateDeps::default();
        deps.deps
            .insert("render".to_string(), vec!["math".to_string()]);
        deps.deps.insert("math".to_string(), Vec::new());
        deps.deps.insert("hw".to_string(), Vec::new());
        let res = resolve(&g, &deps);
        let caller = g.nodes.iter().position(|n| n.name == "caller").unwrap();
        assert_eq!(res.edges[caller].len(), 1);
        let (t, _) = res.edges[caller][0];
        assert_eq!(g.nodes[t].krate, "math");
    }

    #[test]
    fn manifest_dep_parsing_handles_both_spellings_and_facade_names() {
        let names = vec![
            ("gaurast-math".to_string(), "math".to_string()),
            ("gaurast-scene".to_string(), "scene".to_string()),
            ("gaurast".to_string(), "core".to_string()),
        ];
        let manifest = "\
[package]
name = \"gaurast-bench\"

[dependencies]
gaurast-math = { path = \"../math\" }
gaurast-scene.workspace = true
gaurast.workspace = true
serde = \"1\"
";
        let deps = parse_workspace_deps(manifest, &names, "bench");
        assert_eq!(deps, ["math", "scene", "core"]);
        assert_eq!(package_name(manifest).as_deref(), Some("gaurast-bench"));
    }
}
