//! Call-graph resolution unit tests: the qualified call shapes every flow
//! rule depends on must produce edges. `Self::m(…)`, `Type::m(…)` across
//! files, module-qualified free-function calls (`util::f(…)` — the
//! shape the lookup hot path uses for the keycode and hashing helpers),
//! and handle-bound locals (`let h = self.field.clone_handle(); h.m(…)` —
//! the shared-handle boundary the transitive rules walk through) each
//! get a positive test, and the deliberate under-approximations (unknown
//! `Type::m`, ambiguous module fallbacks, non-handle bindings) get
//! negative ones.

use xtask::analyze::graph::{CallGraph, FnId};
use xtask::analyze::items::FileIndex;

fn build(sources: &[(&str, &str)]) -> Vec<FileIndex> {
    sources
        .iter()
        .map(|(path, src)| FileIndex::build(path.to_string(), src.to_string()))
        .collect()
}

fn id_of(files: &[FileIndex], qual: &str) -> FnId {
    for (fi, file) in files.iter().enumerate() {
        for (ki, f) in file.functions.iter().enumerate() {
            if f.qual == qual {
                return (fi, ki);
            }
        }
    }
    panic!("no function `{qual}` in the fixture");
}

fn edges(graph: &CallGraph, from: FnId) -> Vec<FnId> {
    graph
        .callees
        .get(&from)
        .into_iter()
        .flatten()
        .map(|&(id, _)| id)
        .collect()
}

#[test]
fn self_qualified_calls_resolve_within_the_impl() {
    let files = build(&[(
        "a/src/engine.rs",
        "pub struct Engine;\n\
         impl Engine {\n\
             pub fn outer(&self) {\n\
                 Self::inner(self);\n\
             }\n\
             fn inner(&self) {}\n\
         }\n",
    )]);
    let graph = CallGraph::build(&files);
    assert_eq!(
        edges(&graph, id_of(&files, "Engine::outer")),
        vec![id_of(&files, "Engine::inner")],
        "Self::inner(..) must link to the enclosing impl's method"
    );
}

#[test]
fn type_qualified_calls_resolve_across_files() {
    let files = build(&[
        (
            "a/src/codec.rs",
            "pub struct Codec;\n\
             impl Codec {\n\
                 pub fn encode(v: u32) -> u32 {\n\
                     v + 1\n\
                 }\n\
             }\n",
        ),
        (
            "a/src/caller.rs",
            "pub fn call_it() -> u32 {\n\
                 Codec::encode(7)\n\
             }\n",
        ),
    ]);
    let graph = CallGraph::build(&files);
    assert_eq!(
        edges(&graph, id_of(&files, "call_it")),
        vec![id_of(&files, "Codec::encode")],
        "Type::method(..) must link across files"
    );
}

#[test]
fn module_qualified_free_fn_resolves_by_file_path() {
    let files = build(&[
        (
            "a/src/util.rs",
            "pub fn bump(n: &mut u64) {\n\
                 *n += 1;\n\
             }\n",
        ),
        (
            "a/src/hot.rs",
            "pub fn lookup(key: u64) -> u64 {\n\
                 let mut acc = key;\n\
                 util::bump(&mut acc);\n\
                 acc\n\
             }\n",
        ),
    ]);
    let graph = CallGraph::build(&files);
    assert_eq!(
        edges(&graph, id_of(&files, "lookup")),
        vec![id_of(&files, "bump")],
        "util::bump(..) must link to the free fn declared in …/util.rs"
    );
}

#[test]
fn module_qualified_free_fn_resolves_mod_rs_layout() {
    let files = build(&[
        (
            "a/src/keycode/mod.rs",
            "pub fn decode(input: &[u8]) -> u32 {\n\
                 input.len() as u32\n\
             }\n",
        ),
        (
            "a/src/reader.rs",
            "pub fn read(input: &[u8]) -> u32 {\n\
                 keycode::decode(input)\n\
             }\n",
        ),
    ]);
    let graph = CallGraph::build(&files);
    assert_eq!(
        edges(&graph, id_of(&files, "read")),
        vec![id_of(&files, "decode")],
        "keycode::decode(..) must link through the …/keycode/mod.rs layout"
    );
}

#[test]
fn module_qualified_fallback_requires_uniqueness() {
    // `helpers::tally` with no helpers.rs file: a lowercase module path
    // still resolves when exactly one free `tally` exists…
    let files = build(&[
        (
            "a/src/support.rs",
            "pub fn tally(n: u64) -> u64 {\n\
                 n + 1\n\
             }\n",
        ),
        (
            "a/src/caller.rs",
            "pub fn call_it() -> u64 {\n\
                 helpers::tally(7)\n\
             }\n",
        ),
    ]);
    let graph = CallGraph::build(&files);
    assert_eq!(
        edges(&graph, id_of(&files, "call_it")),
        vec![id_of(&files, "tally")],
        "a unique free fn must still resolve without a matching file"
    );

    // …but two candidate frees make the same call ambiguous: no edge,
    // rather than wiring the graph to both.
    let files = build(&[
        (
            "a/src/support.rs",
            "pub fn tally(n: u64) -> u64 {\n\
                 n + 1\n\
             }\n",
        ),
        (
            "a/src/other.rs",
            "pub fn tally(n: u64) -> u64 {\n\
                 n + 2\n\
             }\n",
        ),
        (
            "a/src/caller.rs",
            "pub fn call_it() -> u64 {\n\
                 helpers::tally(7)\n\
             }\n",
        ),
    ]);
    let graph = CallGraph::build(&files);
    assert!(
        edges(&graph, id_of(&files, "call_it")).is_empty(),
        "an ambiguous module-qualified call must stay unresolved"
    );
}

#[test]
fn handle_bound_locals_resolve_through_the_field_type() {
    // `let h = self.field.clone_handle(); h.m(…)` — the PR 7 shared-handle
    // boundary. The alias must dispatch on the field's base type or the
    // transitive rules dead-end at every reader clone. The field carries a
    // visibility: the struct parser must see `pub(crate) name: Type` too.
    let files = build(&[
        (
            "a/src/owner.rs",
            "pub struct Owner {\n\
                 pub(crate) registry: Arc<Registry>,\n\
             }\n\
             impl Owner {\n\
                 pub fn run(&self) {\n\
                     let h = self.registry.clone_handle();\n\
                     h.snapshot();\n\
                 }\n\
             }\n",
        ),
        (
            "a/src/registry.rs",
            "pub struct Registry;\n\
             impl Registry {\n\
                 pub fn clone_handle(&self) -> Arc<Registry> {\n\
                     todo!()\n\
                 }\n\
                 pub fn snapshot(&self) -> u64 {\n\
                     7\n\
                 }\n\
             }\n",
        ),
    ]);
    let graph = CallGraph::build(&files);
    let run_edges = edges(&graph, id_of(&files, "Owner::run"));
    assert!(
        run_edges.contains(&id_of(&files, "Registry::snapshot")),
        "a clone_handle-bound local must dispatch on the field's base type"
    );
}

#[test]
fn self_handle_bound_locals_resolve_within_the_impl() {
    // `let view = self.replicate(); view.m(…)` — same aliasing, receiver
    // is the enclosing impl type itself.
    let files = build(&[(
        "a/src/registry.rs",
        "pub struct Registry;\n\
         impl Registry {\n\
             pub fn reader(&self) {\n\
                 let view = self.replicate();\n\
                 view.snapshot();\n\
             }\n\
             pub fn replicate(&self) -> Registry {\n\
                 todo!()\n\
             }\n\
             pub fn snapshot(&self) -> u64 {\n\
                 7\n\
             }\n\
         }\n",
    )]);
    let graph = CallGraph::build(&files);
    let reader_edges = edges(&graph, id_of(&files, "Registry::reader"));
    assert!(
        reader_edges.contains(&id_of(&files, "Registry::snapshot")),
        "a replicate-bound local must dispatch on the enclosing impl type"
    );
}

#[test]
fn non_handle_bound_locals_stay_ambiguous() {
    // The same `h.m(…)` shape bound from a *non*-handle call falls back to
    // bare-name resolution, and with two impls of `probe` in scope that is
    // ambiguous: no edge, rather than guessing the field's type.
    let files = build(&[
        (
            "a/src/owner.rs",
            "pub struct Owner {\n\
                 registry: Arc<Registry>,\n\
             }\n\
             impl Owner {\n\
                 pub fn run(&self) {\n\
                     let h = self.registry.fresh_view();\n\
                     h.probe();\n\
                 }\n\
             }\n",
        ),
        (
            "a/src/registry.rs",
            "pub struct Registry;\n\
             impl Registry {\n\
                 pub fn fresh_view(&self) -> Registry {\n\
                     todo!()\n\
                 }\n\
                 pub fn probe(&self) -> u64 {\n\
                     7\n\
                 }\n\
             }\n",
        ),
        (
            "a/src/gauge.rs",
            "pub struct Gauge;\n\
             impl Gauge {\n\
                 pub fn probe(&self) -> u64 {\n\
                     9\n\
                 }\n\
             }\n",
        ),
    ]);
    let graph = CallGraph::build(&files);
    let run_edges = edges(&graph, id_of(&files, "Owner::run"));
    assert!(
        !run_edges.contains(&id_of(&files, "Registry::probe"))
            && !run_edges.contains(&id_of(&files, "Gauge::probe")),
        "only HANDLE_FNS bindings may alias the receiver type"
    );
}

#[test]
fn unknown_uppercase_qualified_call_produces_no_edge() {
    // `Mystery::poke(…)` with no `impl Mystery` anywhere: an uppercase
    // path segment is a type, and guessing a free fn would wire rules to
    // unrelated code. Under-approximation is the contract.
    let files = build(&[
        (
            "a/src/free.rs",
            "pub fn poke(n: u64) -> u64 {\n\
                 n\n\
             }\n",
        ),
        (
            "a/src/caller.rs",
            "pub fn call_it() -> u64 {\n\
                 Mystery::poke(7)\n\
             }\n",
        ),
    ]);
    let graph = CallGraph::build(&files);
    assert!(
        edges(&graph, id_of(&files, "call_it")).is_empty(),
        "Type::m with no impl must not fall back to unrelated free fns"
    );
}
