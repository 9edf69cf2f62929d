//! Item and call extraction over the token stream.
//!
//! [`FileIndex`] turns one lexed file into the facts the flow rules need:
//!
//! * **functions** — name, `impl` context (so `Pager::write_page` and
//!   `BTree::get` are distinct), body span, whether the
//!   function lives under `#[cfg(test)]` or `#[test]`;
//! * **struct field types** — `pool: Arc<BufferPool>` records
//!   `(Struct, pool) → BufferPool` after stripping smart-pointer/lock
//!   wrappers, which lets `self.pool.get(…)` resolve to `BufferPool::get`;
//! * **calls** — every `…(`-shaped call site inside a body, classified by
//!   receiver shape ([`CalleeRef`]) for the resolver in `graph`.
//!
//! This is deliberately not a parser: brace matching plus a handful of
//! token patterns covers the project's idioms, and every approximation is
//! written down where it is made.

use std::collections::HashMap;
use std::ops::Range;

use super::lexer::{lex, Token};

/// How a call site names its callee (before resolution).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CalleeRef {
    /// `self.m(…)`
    SelfMethod(String),
    /// `self.field.m(…)` — resolvable through the field's declared type.
    FieldMethod { field: String, method: String },
    /// `Type::m(…)` (the last two path segments).
    Qualified { ty: String, method: String },
    /// `m(…)` — a free function.
    Bare(String),
    /// `h.m(…)` where `h` was bound from a handle-preserving call:
    /// `let h = self.field.clone_handle()` (field `Some`) or
    /// `let h = self.clone_handle()` / `self.replicate()` (field `None`,
    /// receiver type = the enclosing impl type). Resolves like
    /// `FieldMethod` / `SelfMethod` — the handle shares the same object.
    HandleMethod {
        field: Option<String>,
        method: String,
    },
    /// `expr.m(…)` with an unknown receiver.
    Method(String),
}

/// Methods that return a shared handle to their receiver (`Arc`-clone
/// constructors introduced by the concurrent read path). A local bound from
/// one of these aliases the receiver, so calls through it must not
/// dead-end in the call graph.
pub const HANDLE_FNS: &[&str] = &["clone_handle", "replicate"];

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct Call {
    pub callee: CalleeRef,
    /// Index into the file's significant-token list (for ordering checks).
    pub sig_idx: usize,
    pub line: u32,
}

/// One function (or method) defined in a file.
#[derive(Debug, Clone)]
pub struct Function {
    /// Bare name, e.g. `write_page`.
    pub name: String,
    /// `Type::name` for methods, `name` for free functions.
    pub qual: String,
    /// The `impl` target type, if inside an `impl` block.
    pub impl_type: Option<String>,
    /// The trait being implemented, for `impl Trait for Type` blocks.
    pub trait_name: Option<String>,
    /// Under `#[cfg(test)]` or carrying `#[test]`.
    pub is_test: bool,
    pub line: u32,
    /// Body span as a range of significant-token indices (excl. braces).
    pub body: Range<usize>,
    pub calls: Vec<Call>,
}

/// A lexed file plus the item facts extracted from it.
pub struct FileIndex {
    /// Workspace-relative path.
    pub path: String,
    pub src: String,
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of code tokens (no whitespace/comments).
    pub sig: Vec<usize>,
    pub functions: Vec<Function>,
    /// `(struct name, field name) → base type` (wrappers stripped).
    pub field_types: HashMap<(String, String), String>,
}

impl FileIndex {
    pub fn build(path: String, src: String) -> FileIndex {
        let tokens = lex(&src);
        let sig: Vec<usize> = (0..tokens.len()).filter(|&i| tokens[i].is_code()).collect();
        let mut index = FileIndex {
            path,
            src,
            tokens,
            sig,
            functions: Vec::new(),
            field_types: HashMap::new(),
        };
        index.scan_items();
        index
    }

    /// Text of the `i`-th significant token.
    pub fn sig_text(&self, i: usize) -> &str {
        self.tokens[self.sig[i]].text(&self.src)
    }

    /// Line of the `i`-th significant token.
    pub fn sig_line(&self, i: usize) -> u32 {
        self.tokens[self.sig[i]].line
    }

    /// The raw source line (1-based), for `lint:allow` suppression lookups.
    pub fn src_line(&self, line: u32) -> &str {
        self.src.lines().nth(line as usize - 1).unwrap_or("")
    }

    /// Does `line` (or the line above it) carry `lint:allow(rule)`?
    pub fn allowed(&self, line: u32, rule: &str) -> bool {
        crate::lint::allows(self.src_line(line), rule)
            || (line > 1 && crate::lint::allows(self.src_line(line - 1), rule))
    }

    /// Find the significant-token index of the matching close brace, given
    /// the index of an open brace.
    fn matching_brace(&self, open: usize) -> usize {
        let mut depth = 0usize;
        for i in open..self.sig.len() {
            match self.sig_text(i) {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        return i;
                    }
                }
                _ => {}
            }
        }
        self.sig.len() // unbalanced: treat the rest of the file as the body
    }

    /// Find the significant-token index of the matching close paren, given
    /// the index of an open paren (for scanning call-argument spans, e.g.
    /// the closure handed to `thread::spawn`).
    pub fn matching_paren(&self, open: usize) -> usize {
        let mut depth = 0usize;
        for i in open..self.sig.len() {
            match self.sig_text(i) {
                "(" => depth += 1,
                ")" => {
                    depth -= 1;
                    if depth == 0 {
                        return i;
                    }
                }
                _ => {}
            }
        }
        self.sig.len()
    }

    // ------------------------------------------------------------- scanning

    fn scan_items(&mut self) {
        let mut impl_stack: Vec<(usize, String, Option<String>)> = Vec::new(); // (close idx, type, trait)
        let mut test_until = 0usize; // significant-token index bounding a #[cfg(test)] mod
        let mut i = 0usize;
        while i < self.sig.len() {
            while let Some(&(close, _, _)) = impl_stack.last() {
                if i > close {
                    impl_stack.pop();
                } else {
                    break;
                }
            }
            match self.sig_text(i) {
                "impl" => {
                    if let Some((close, ty, tr, body_open)) = self.parse_impl_header(i) {
                        impl_stack.push((close, ty, tr));
                        i = body_open + 1;
                        continue;
                    }
                }
                "struct" => {
                    self.scan_struct_fields(i);
                }
                "mod" if self.attr_before(i, "cfg") && self.cfg_test_before(i) => {
                    // `#[cfg(test)] mod …` — everything inside is test code.
                    if let Some(open) = self.find_ahead(i, "{", 4) {
                        test_until = test_until.max(self.matching_brace(open));
                    }
                }
                "fn" => {
                    let in_test = i < test_until || self.attr_before(i, "test");
                    let (ty, tr) = impl_stack
                        .last()
                        .map(|(_, t, tr)| (Some(t.clone()), tr.clone()))
                        .unwrap_or((None, None));
                    if let Some(f) = self.parse_fn(i, ty, tr, in_test) {
                        let next = f.body.end.max(i + 1);
                        self.functions.push(f);
                        i = next;
                        continue;
                    }
                }
                _ => {}
            }
            i += 1;
        }
        self.extract_calls();
    }

    /// Is there an `#[attr…]` (by leading ident) directly before token `i`,
    /// scanning back over at most a few attribute tokens?
    fn attr_before(&self, i: usize, attr: &str) -> bool {
        // Look back over contiguous `]`-terminated attribute groups and
        // visibility/async/unsafe markers for `# [ attr` shapes.
        let mut j = i;
        let mut budget = 24usize;
        while j > 0 && budget > 0 {
            j -= 1;
            budget -= 1;
            let t = self.sig_text(j);
            if t == ";" || t == "{" || t == "}" {
                return false;
            }
            if t == attr && j >= 2 && self.sig_text(j - 1) == "[" && self.sig_text(j - 2) == "#" {
                return true;
            }
        }
        false
    }

    /// Does the attribute group before `i` contain `cfg ( test )`?
    fn cfg_test_before(&self, i: usize) -> bool {
        let mut j = i;
        let mut budget = 24usize;
        while j > 3 && budget > 0 {
            j -= 1;
            budget -= 1;
            let t = self.sig_text(j);
            if t == ";" || t == "{" || t == "}" {
                return false;
            }
            if t == "test" && self.sig_text(j - 1) == "(" && self.sig_text(j - 2) == "cfg" {
                return true;
            }
        }
        false
    }

    /// Find `needle` within the next `span` significant tokens after `i`.
    fn find_ahead(&self, i: usize, needle: &str, span: usize) -> Option<usize> {
        (i + 1..(i + 1 + span).min(self.sig.len())).find(|&j| self.sig_text(j) == needle)
    }

    /// Parse `impl [<…>] Path [for Path] {`, returning
    /// `(close brace idx, impl type, trait name, open brace idx)`.
    fn parse_impl_header(&self, i: usize) -> Option<(usize, String, Option<String>, usize)> {
        let mut j = i + 1;
        let mut first_path_last_ident = None;
        let mut second_path_last_ident = None;
        let mut saw_for = false;
        let mut angle = 0usize;
        while j < self.sig.len() {
            let t = self.sig_text(j);
            match t {
                "<" => angle += 1,
                ">" => angle = angle.saturating_sub(1),
                "{" if angle == 0 => {
                    let ty = if saw_for {
                        second_path_last_ident
                    } else {
                        first_path_last_ident.clone()
                    }?;
                    let tr = if saw_for { first_path_last_ident } else { None };
                    return Some((self.matching_brace(j), ty, tr, j));
                }
                ";" => return None, // e.g. stray; not an impl block
                "for" if angle == 0 => saw_for = true,
                "where" if angle == 0 => {} // keep scanning to the brace
                _ => {
                    if angle == 0 && is_ident(t) && !is_keyword(t) {
                        if saw_for {
                            second_path_last_ident = Some(t.to_string());
                        } else {
                            first_path_last_ident = Some(t.to_string());
                        }
                    }
                }
            }
            j += 1;
        }
        None
    }

    /// Record `(struct, field) → base type` for a `struct Name { … }`.
    fn scan_struct_fields(&mut self, i: usize) {
        let Some(name) = self
            .sig
            .get(i + 1)
            .map(|_| self.sig_text(i + 1).to_string())
        else {
            return;
        };
        if !is_ident(&name) {
            return;
        }
        // Find the field-block brace (tuple structs and unit structs have
        // none before the `;`).
        let mut j = i + 2;
        let mut angle = 0usize;
        loop {
            if j >= self.sig.len() {
                return;
            }
            match self.sig_text(j) {
                "<" => angle += 1,
                ">" => angle = angle.saturating_sub(1),
                "{" if angle == 0 => break,
                "(" | ";" if angle == 0 => return,
                _ => {}
            }
            j += 1;
        }
        let close = self.matching_brace(j);
        // Fields: `ident :` at depth 1, then type tokens until `,` at depth 1.
        let mut depth = 1usize;
        let mut k = j + 1;
        while k < close {
            let t = self.sig_text(k);
            match t {
                "{" | "(" | "[" => depth += 1,
                "}" | ")" | "]" => depth = depth.saturating_sub(1),
                _ => {
                    if depth == 1
                        && is_ident(t)
                        && k + 1 < close
                        && self.sig_text(k + 1) == ":"
                        && (k == j + 1
                            || matches!(self.sig_text(k - 1), "," | "{" | "]" | "pub" | ")"))
                    {
                        let field = t.to_string();
                        // Collect type idents until `,` at depth 1.
                        let mut ty_idents = Vec::new();
                        let mut m = k + 2;
                        let mut d2 = depth;
                        while m < close {
                            let tt = self.sig_text(m);
                            match tt {
                                "{" | "(" | "[" => d2 += 1,
                                "}" | ")" | "]" => d2 -= 1,
                                "," if d2 == 1 => break,
                                _ => {
                                    if is_ident(tt) && !is_keyword(tt) || tt == "dyn" {
                                        ty_idents.push(tt.to_string());
                                    }
                                }
                            }
                            m += 1;
                        }
                        if let Some(base) = base_type(&ty_idents) {
                            self.field_types.insert((name.clone(), field), base);
                        }
                        k = m;
                        continue;
                    }
                }
            }
            k += 1;
        }
    }

    /// Parse a `fn` item starting at significant index `i` (the `fn` token).
    fn parse_fn(
        &self,
        i: usize,
        impl_type: Option<String>,
        trait_name: Option<String>,
        is_test: bool,
    ) -> Option<Function> {
        let name = self.sig_text(i + 1).to_string();
        if !is_ident(&name) {
            return None;
        }
        let line = self.sig_line(i);
        // Scan forward for the body `{` or a trailing `;` (trait decl).
        let mut j = i + 2;
        let mut angle = 0usize;
        let mut paren = 0usize;
        let body_open = loop {
            if j >= self.sig.len() {
                return None;
            }
            match self.sig_text(j) {
                "<" => angle += 1,
                ">" => angle = angle.saturating_sub(1),
                "(" => paren += 1,
                ")" => paren = paren.saturating_sub(1),
                "{" if angle == 0 && paren == 0 => break j,
                ";" if angle == 0 && paren == 0 => return None, // no body
                _ => {}
            }
            j += 1;
        };
        let body_close = self.matching_brace(body_open);
        let qual = match &impl_type {
            Some(t) => format!("{t}::{name}"),
            None => name.clone(),
        };
        Some(Function {
            name,
            qual,
            impl_type,
            trait_name,
            is_test,
            line,
            body: body_open + 1..body_close,
            calls: Vec::new(),
        })
    }

    // ---------------------------------------------------------------- calls

    /// Populate `calls` for every function from the `ident (` sites in its
    /// body. Macro invocations (`ident ! (`) never match because the `!`
    /// sits between the identifier and the paren.
    fn extract_calls(&mut self) {
        let mut functions = std::mem::take(&mut self.functions);
        for f in &mut functions {
            for k in f.body.clone() {
                if k + 1 >= self.sig.len() || k >= f.body.end {
                    break;
                }
                if self.sig_text(k + 1) != "(" || !is_ident(self.sig_text(k)) {
                    continue;
                }
                let name = self.sig_text(k);
                if is_keyword(name) {
                    continue;
                }
                let callee = self.classify_call(k, f.body.start);
                if let Some(callee) = callee {
                    f.calls.push(Call {
                        callee,
                        sig_idx: k,
                        line: self.sig_line(k),
                    });
                }
            }
        }
        self.functions = functions;
    }

    /// Classify the call whose name token sits at significant index `k`.
    fn classify_call(&self, k: usize, body_start: usize) -> Option<CalleeRef> {
        let name = self.sig_text(k).to_string();
        if k == 0 || k <= body_start {
            return Some(CalleeRef::Bare(name));
        }
        let prev = self.sig_text(k - 1);
        if prev == "." {
            // Receiver shapes: `self . m`, `self . field . m`, `expr . m`.
            if k >= 2 && self.sig_text(k - 2) == "self" {
                return Some(CalleeRef::SelfMethod(name));
            }
            if k >= 4
                && self.sig_text(k - 3) == "."
                && self.sig_text(k - 4) == "self"
                && is_ident(self.sig_text(k - 2))
            {
                return Some(CalleeRef::FieldMethod {
                    field: self.sig_text(k - 2).to_string(),
                    method: name,
                });
            }
            // `h.m(…)` where `h` is a plain local: if `h` was bound from a
            // handle-preserving call (`let h = self.field.clone_handle()`),
            // the receiver type is known and the call need not fall into
            // the ambiguous-receiver bucket.
            if k >= 2 && is_ident(self.sig_text(k - 2)) && (k < 3 || self.sig_text(k - 3) != ".") {
                let recv = self.sig_text(k - 2).to_string();
                if let Some(field) = self.handle_binding(body_start, k, &recv) {
                    return Some(CalleeRef::HandleMethod {
                        field,
                        method: name,
                    });
                }
            }
            return Some(CalleeRef::Method(name));
        }
        if prev == ":" && k >= 3 && self.sig_text(k - 2) == ":" {
            // `Path :: m (` — take the segment before the `::`.
            let ty = self.sig_text(k - 3);
            if is_ident(ty) {
                return Some(CalleeRef::Qualified {
                    ty: ty.to_string(),
                    method: name,
                });
            }
            return None;
        }
        if prev == "fn" {
            return None; // a definition, not a call
        }
        Some(CalleeRef::Bare(name))
    }

    /// Was local `recv` bound (earlier in this body, before token `before`)
    /// from a handle-preserving call? Recognized shapes:
    ///
    /// * `let [mut] recv = self . field . clone_handle (` → `Some(Some(field))`
    /// * `let [mut] recv = self . clone_handle (` (or `replicate`) → `Some(None)`
    ///
    /// Linear back-scan; bodies are small and rebinding is rare, so the
    /// *last* matching binding before the call wins.
    fn handle_binding(
        &self,
        body_start: usize,
        before: usize,
        recv: &str,
    ) -> Option<Option<String>> {
        let mut j = before;
        while j > body_start + 2 {
            j -= 1;
            if self.sig_text(j) != "let" {
                continue;
            }
            let mut k = j + 1;
            if self.sig_text(k) == "mut" {
                k += 1;
            }
            if self.sig_text(k) != recv || k + 3 >= before || self.sig_text(k + 1) != "=" {
                continue;
            }
            // `self . <a> [. <b>] (` with the last segment a handle fn.
            if self.sig_text(k + 2) != "self" || self.sig_text(k + 3) != "." {
                continue;
            }
            let a = self.sig_text(k + 4);
            if !is_ident(a) {
                continue;
            }
            if HANDLE_FNS.contains(&a) && k + 5 < self.sig.len() && self.sig_text(k + 5) == "(" {
                return Some(None);
            }
            if k + 7 < self.sig.len()
                && self.sig_text(k + 5) == "."
                && HANDLE_FNS.contains(&self.sig_text(k + 6))
                && self.sig_text(k + 7) == "("
            {
                return Some(Some(a.to_string()));
            }
        }
        None
    }
}

/// The "interesting" base type of a field: strip smart-pointer and lock
/// wrappers, then take the first remaining type identifier.
/// `Arc<BufferPool>` → `BufferPool`; `Box<dyn Pager>` → `Pager`;
/// `Mutex<WalState>` → `WalState`.
fn base_type(idents: &[String]) -> Option<String> {
    const WRAPPERS: &[&str] = &[
        "Arc", "Box", "Rc", "RefCell", "Cell", "Mutex", "RwLock", "Option", "dyn",
    ];
    idents
        .iter()
        .find(|t| !WRAPPERS.contains(&t.as_str()))
        .or(idents.first())
        .cloned()
}

pub fn is_ident(t: &str) -> bool {
    t.chars()
        .next()
        .is_some_and(|c| c == '_' || c.is_ascii_alphabetic())
}

pub fn is_keyword(t: &str) -> bool {
    matches!(
        t,
        "if" | "else"
            | "match"
            | "while"
            | "for"
            | "loop"
            | "return"
            | "break"
            | "continue"
            | "let"
            | "mut"
            | "ref"
            | "move"
            | "fn"
            | "pub"
            | "use"
            | "mod"
            | "impl"
            | "trait"
            | "struct"
            | "enum"
            | "type"
            | "const"
            | "static"
            | "where"
            | "as"
            | "in"
            | "self"
            | "Self"
            | "super"
            | "crate"
            | "dyn"
            | "unsafe"
            | "async"
            | "await"
    )
}
