//! `analyze --mut-map` — the shared-mutability map of the lookup hot path.
//!
//! The ROADMAP's concurrent-read-path refactor needs a work list: which
//! functions reachable from `FuzzyMatcher::lookup` / `lookup_batch` mutate
//! state, and how. This pass walks the call graph from the configured
//! roots and classifies every reachable function by the way it touches
//! shared state:
//!
//! * `mut-self` / `mut-param` — exclusive borrows in the signature;
//! * `lock` / `rwlock-write` — `Mutex::lock` / `RwLock::write` receivers;
//! * `atomic-store` — atomic RMW or store calls (`store`, `swap`,
//!   `fetch_*`, `compare_exchange*`);
//! * `refcell` — `borrow_mut` on a `RefCell`;
//! * `rwlock-read` / `atomic-load` / `refcell-read` — shared-side interior
//!   accesses, listed for completeness but not counted as mutations.
//!
//! The report is a *map*, not a gate with a baseline: `--json` emits it
//! machine-readably and `cargo xtask ci` asserts the mutation-site count
//! against the committed budget in `xtask-mutmap.budget`, so the hot read
//! path's mutation count can only go down without an explicit decision.
//!
//! Like every analyze pass this is name-and-shape based: a `.lock()` on a
//! non-lock receiver would be misclassified, and unresolved calls make the
//! map under-approximate. Both are acceptable for a work list; the flow
//! rules (`lock-across-io`, `atomics-ordering`) carry the hard guarantees.

use std::collections::{BTreeSet, VecDeque};

use super::graph::{CallGraph, FnId};
use super::items::FileIndex;
use super::Config;

/// Atomic calls that publish (RMW or store side).
const ATOMIC_STORES: &[&str] = &[
    "store",
    "swap",
    "fetch_add",
    "fetch_sub",
    "fetch_max",
    "fetch_min",
    "fetch_and",
    "fetch_or",
    "fetch_xor",
    "compare_exchange",
    "compare_exchange_weak",
];

/// Kinds that count toward the gated mutation-site budget.
const MUTATING_KINDS: &[&str] = &[
    "mut-self",
    "mut-param",
    "lock",
    "rwlock-write",
    "atomic-store",
    "refcell",
];

/// One reachable function that touches shared or exclusive state.
#[derive(Debug, Clone)]
pub struct MutSite {
    /// `Type::name` (or bare name) of the function.
    pub qual: String,
    pub path: String,
    pub line: u32,
    /// Sorted, deduplicated kind labels (see module docs).
    pub kinds: Vec<&'static str>,
    /// Shortest call chain from a root, as qualified names (root first).
    pub chain: Vec<String>,
}

impl MutSite {
    /// Does any kind count as a mutation (vs a shared-side access)?
    pub fn mutates(&self) -> bool {
        self.kinds.iter().any(|k| MUTATING_KINDS.contains(k))
    }
}

/// The whole map: roots, reachability census, and the classified sites.
#[derive(Debug)]
pub struct Report {
    /// Roots that actually resolved to functions (missing ones are a
    /// config error surfaced by the caller).
    pub roots: Vec<String>,
    pub missing_roots: Vec<String>,
    /// Functions reachable from any root (including clean ones).
    pub reachable: usize,
    pub sites: Vec<MutSite>,
}

impl Report {
    /// Sites with at least one mutating kind — the gated count.
    pub fn mutation_sites(&self) -> usize {
        self.sites.iter().filter(|s| s.mutates()).count()
    }
}

/// Compute the map over an analyzed file set.
pub fn compute(files: &[FileIndex], graph: &CallGraph, cfg: &Config) -> Report {
    // Resolve roots by qualified name.
    let mut root_ids: Vec<FnId> = Vec::new();
    let mut roots = Vec::new();
    let mut missing_roots = Vec::new();
    for root in &cfg.mutmap_roots {
        let mut found = false;
        for (fi, file) in files.iter().enumerate() {
            for (ki, f) in file.functions.iter().enumerate() {
                if !f.is_test && &f.qual == root {
                    root_ids.push((fi, ki));
                    found = true;
                }
            }
        }
        if found {
            roots.push(root.clone());
        } else {
            missing_roots.push(root.clone());
        }
    }

    // BFS reachability over resolved edges.
    let mut reachable: BTreeSet<FnId> = BTreeSet::new();
    let mut queue: VecDeque<FnId> = root_ids.iter().copied().collect();
    reachable.extend(root_ids.iter().copied());
    while let Some(cur) = queue.pop_front() {
        for (next, _) in graph.callees.get(&cur).into_iter().flatten() {
            if reachable.insert(*next) {
                queue.push_back(*next);
            }
        }
    }

    // Classify every reachable function; chain from the first root that
    // reaches it (roots are tried in declaration order).
    let mut sites = Vec::new();
    for &id in &reachable {
        let kinds = classify(files, id);
        if kinds.is_empty() {
            continue;
        }
        let chain = root_ids
            .iter()
            .find_map(|&r| graph.chain_to(r, |t| t == id))
            .map(|ids| {
                ids.iter()
                    .map(|&(fi, ki)| files[fi].functions[ki].qual.clone())
                    .collect()
            })
            .unwrap_or_default();
        let f = &files[id.0].functions[id.1];
        sites.push(MutSite {
            qual: f.qual.clone(),
            path: files[id.0].path.clone(),
            line: f.line,
            kinds,
            chain,
        });
    }
    sites.sort_by(|a, b| (&a.path, a.line).cmp(&(&b.path, b.line)));
    Report {
        roots,
        missing_roots,
        reachable: reachable.len(),
        sites,
    }
}

/// Kind labels for one function: signature `&mut` borrows plus interior
/// mutability touched in the body.
fn classify(files: &[FileIndex], id: FnId) -> Vec<&'static str> {
    let file = &files[id.0];
    let f = &file.functions[id.1];
    let mut kinds: BTreeSet<&'static str> = BTreeSet::new();

    // Parameter list: `& mut self` / `& mut <other>` between the `fn`
    // token and the body brace.
    let sig_end = f.body.start.saturating_sub(1);
    for k in f.sig_start..sig_end {
        if file.sig_text(k) == "&" && k + 2 < sig_end && file.sig_text(k + 1) == "mut" {
            if file.sig_text(k + 2) == "self" {
                kinds.insert("mut-self");
            } else {
                kinds.insert("mut-param");
            }
        }
    }

    // Body: interior-mutability method calls (`recv . name (` shapes).
    for k in f.body.clone() {
        if k + 1 >= file.sig.len() || k < 1 {
            continue;
        }
        if file.sig_text(k + 1) != "(" || file.sig_text(k - 1) != "." {
            continue;
        }
        match file.sig_text(k) {
            "lock" => {
                kinds.insert("lock");
            }
            "write" => {
                kinds.insert("rwlock-write");
            }
            "read" => {
                kinds.insert("rwlock-read");
            }
            "load" => {
                kinds.insert("atomic-load");
            }
            "borrow_mut" => {
                kinds.insert("refcell");
            }
            "borrow" => {
                kinds.insert("refcell-read");
            }
            m if ATOMIC_STORES.contains(&m) => {
                kinds.insert("atomic-store");
            }
            _ => {}
        }
    }
    kinds.into_iter().collect()
}

/// Human-readable report.
pub fn render(report: &Report) -> Vec<String> {
    let mut out = Vec::new();
    out.push(format!(
        "mut-map: roots [{}], {} reachable function(s), {} touching shared state, \
         {} mutation site(s)",
        report.roots.join(", "),
        report.reachable,
        report.sites.len(),
        report.mutation_sites(),
    ));
    for root in &report.missing_roots {
        out.push(format!("mut-map: WARNING root `{root}` not found"));
    }
    for site in &report.sites {
        let marker = if site.mutates() { "MUT" } else { "   " };
        out.push(format!(
            "  {marker} {}:{} {} [{}]",
            site.path,
            site.line,
            site.qual,
            site.kinds.join(", ")
        ));
        if site.chain.len() > 1 {
            out.push(format!("        via {}", site.chain.join(" -> ")));
        }
    }
    out
}

/// Machine-readable report (std-only, hence by hand — same dialect the
/// findings array uses; `fm_server::json` parses it back in CI).
pub fn to_json(report: &Report) -> String {
    use super::json_str;
    let mut out = String::from("{");
    out.push_str(&format!(
        "\n  \"roots\": [{}],",
        report
            .roots
            .iter()
            .map(|r| json_str(r))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.push_str(&format!(
        "\n  \"missing_roots\": [{}],",
        report
            .missing_roots
            .iter()
            .map(|r| json_str(r))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    out.push_str(&format!("\n  \"reachable\": {},", report.reachable));
    out.push_str(&format!(
        "\n  \"mutation_sites\": {},",
        report.mutation_sites()
    ));
    out.push_str("\n  \"sites\": [");
    for (i, site) in report.sites.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"fn\":{},\"path\":{},\"line\":{},\"mutates\":{},\"kinds\":[{}],\"chain\":[{}]}}",
            json_str(&site.qual),
            json_str(&site.path),
            site.line,
            site.mutates(),
            site.kinds
                .iter()
                .map(|k| json_str(k))
                .collect::<Vec<_>>()
                .join(","),
            site.chain
                .iter()
                .map(|c| json_str(c))
                .collect::<Vec<_>>()
                .join(","),
        ));
    }
    out.push_str("\n  ]\n}");
    out
}
