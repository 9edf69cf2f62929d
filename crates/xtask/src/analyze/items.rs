//! Item extraction over the token stream.
//!
//! [`FileIndex`] turns one lexed file into the facts the flow rules need:
//!
//! * **functions** — qualified name (`Type::name` inside an `impl`), body
//!   span, whether the function lives under `#[cfg(test)]` or `#[test]`;
//! * **struct field types** — `pool: Arc<BufferPool>` records
//!   `(Struct, pool) → BufferPool` after stripping smart-pointer/lock
//!   wrappers (`atomics-ordering` finds its `AtomicBool` flags this way);
//! * **guard bindings** — [`binding_for`], the `let`-scope of a lock
//!   guard, shared by the guard-scope rules.
//!
//! This is deliberately not a parser: brace matching plus a handful of
//! token patterns covers the project's idioms, and every approximation is
//! written down where it is made.

use std::collections::HashMap;
use std::ops::Range;

use super::lexer::{lex, Token};

/// One function (or method) defined in a file.
#[derive(Debug, Clone)]
pub struct Function {
    /// `Type::name` for methods, `name` for free functions.
    pub qual: String,
    /// Under `#[cfg(test)]` or carrying `#[test]`.
    pub is_test: bool,
    /// Body span as a range of significant-token indices (excl. braces).
    pub body: Range<usize>,
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

    // ------------------------------------------------------------- scanning

    fn scan_items(&mut self) {
        let mut impl_stack: Vec<(usize, String)> = Vec::new(); // (close idx, type)
        let mut test_until = 0usize; // significant-token index bounding a #[cfg(test)] mod
        let mut i = 0usize;
        while i < self.sig.len() {
            while let Some(&(close, _)) = impl_stack.last() {
                if i > close {
                    impl_stack.pop();
                } else {
                    break;
                }
            }
            match self.sig_text(i) {
                "impl" => {
                    if let Some((close, ty, body_open)) = self.parse_impl_header(i) {
                        impl_stack.push((close, ty));
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
                    let ty = impl_stack.last().map(|(_, t)| t.as_str());
                    if let Some(f) = self.parse_fn(i, ty, in_test) {
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
    /// `(close brace idx, impl type, open brace idx)`.
    fn parse_impl_header(&self, i: usize) -> Option<(usize, String, usize)> {
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
                        first_path_last_ident
                    }?;
                    return Some((self.matching_brace(j), ty, j));
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
    fn parse_fn(&self, i: usize, impl_type: Option<&str>, is_test: bool) -> Option<Function> {
        let name = self.sig_text(i + 1);
        if !is_ident(name) {
            return None;
        }
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
        let qual = match impl_type {
            Some(t) => format!("{t}::{name}"),
            None => name.to_string(),
        };
        Some(Function {
            qual,
            is_test,
            body: body_open + 1..self.matching_brace(body_open),
        })
    }
}

/// The binding of the guard acquired by the expression whose receiver
/// token sits at significant index `recv`: scan back to the statement
/// start for a `let [mut] <ident> =` prefix. Returns `(binding, temporary)`
/// — an unbound guard (or `let _ =`) lives to the end of its statement.
pub fn binding_for(file: &FileIndex, recv: usize, body_start: usize) -> (Option<String>, bool) {
    let mut j = recv;
    while j > body_start && recv - j < 24 {
        j -= 1;
        match file.sig_text(j) {
            ";" | "{" | "}" => break,
            "let" => {
                let mut k = j + 1;
                if file.sig_text(k) == "mut" {
                    k += 1;
                }
                let ident = file.sig_text(k);
                if ident != "_" && is_ident(ident) {
                    return (Some(ident.to_string()), false);
                }
                return (None, true); // `let _ =` (or a pattern): treat as temp
            }
            _ => {}
        }
    }
    (None, true) // temporary: statement-scoped
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
