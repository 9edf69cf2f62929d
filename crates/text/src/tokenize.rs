//! Tokenization (paper §3, "Tokenization").
//!
//! `tok` splits a string into a **set** of tokens based on a set of delimiter
//! characters (whitespace by default), ignoring case. Duplicate tokens within
//! one attribute value collapse (the paper defines `tok(s)` as a set); copies
//! of the same token in *different* columns are kept apart by the column
//! property, which is handled one level up in `fm-core`.

use crate::fingerprint::TokenPrint;

/// Maximum bytes per token. Real attribute values tokenize far below this;
/// the cap bounds index key sizes against pathological kilobyte "tokens"
/// (unbroken junk strings), which are truncated at a character boundary.
pub const MAX_TOKEN_BYTES: usize = 200;

/// A configurable tokenizer.
///
/// The default configuration matches the paper: split on ASCII whitespace,
/// fold to lowercase, drop empty tokens, set semantics. Tokens are capped
/// at [`MAX_TOKEN_BYTES`].
#[derive(Debug, Clone)]
pub struct Tokenizer {
    delimiters: Vec<char>,
    /// When `false`, duplicate tokens within a single string are kept
    /// (multiset semantics). The paper uses set semantics; multiset is
    /// offered for experimentation.
    dedup: bool,
}

impl Default for Tokenizer {
    fn default() -> Self {
        Tokenizer {
            delimiters: Vec::new(), // empty == "any whitespace"
            dedup: true,
        }
    }
}

impl Tokenizer {
    /// Tokenizer splitting on ASCII whitespace with set semantics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add extra delimiter characters (e.g. `,`, `;`, `/`) on top of
    /// whitespace.
    pub fn with_delimiters(mut self, delimiters: &[char]) -> Self {
        self.delimiters = delimiters.to_vec();
        self
    }

    /// Keep duplicate tokens within one string (multiset semantics).
    pub fn keep_duplicates(mut self) -> Self {
        self.dedup = false;
        self
    }

    #[inline]
    fn is_delimiter(&self, c: char) -> bool {
        c.is_whitespace() || self.delimiters.contains(&c)
    }

    /// The one definition of a token: fold `push` over the lowercased
    /// characters of each maximal delimiter-free run of `s`, capped at
    /// [`MAX_TOKEN_BYTES`], starting from `current`, and hand every
    /// non-empty result to `emit`, which returns what the next token starts
    /// from; the last of those is returned. Whatever is accumulated — the
    /// token itself or only its [`TokenPrint`] — sees exactly the
    /// characters [`Tokenizer::tokenize`] keeps.
    fn scan<A>(
        &self,
        s: &str,
        mut current: A,
        push: impl Fn(A, char) -> A,
        mut emit: impl FnMut(A) -> A,
    ) -> A {
        let mut bytes = 0;
        for c in s.chars() {
            if self.is_delimiter(c) {
                if bytes > 0 {
                    current = emit(current);
                    bytes = 0;
                }
            } else if bytes < MAX_TOKEN_BYTES {
                if c.is_ascii() {
                    // What `to_lowercase` yields for ASCII, minus its iterator.
                    current = push(current, c.to_ascii_lowercase());
                    bytes += 1;
                } else {
                    for folded in c.to_lowercase() {
                        current = push(current, folded);
                        bytes += folded.len_utf8();
                    }
                }
            }
        }
        if bytes > 0 {
            current = emit(current);
        }
        current
    }

    /// Call `f` with the [`TokenPrint`] of every token of `s`, in order,
    /// without building the tokens. Duplicates are not collapsed: a bound
    /// that minimizes over the prints is unaffected by them.
    pub fn for_each_print(&self, s: &str, mut f: impl FnMut(TokenPrint)) {
        let emit = |print| {
            f(print);
            TokenPrint::default()
        };
        self.scan(s, TokenPrint::default(), TokenPrint::with, emit);
    }

    /// Call `f` with each token of `s`, in order, a repeat dropped unless
    /// the tokenizer keeps duplicates (a scan of the earlier ones: token
    /// counts per value are tiny, paper §2). The tokens are built in `buf`,
    /// space-separated (a space is a delimiter), not allocated: once `buf`
    /// has grown, a caller that counts tokens allocates only for the ones
    /// it keeps.
    pub fn for_each_token(&self, s: &str, buf: &mut String, mut f: impl FnMut(&str)) {
        buf.clear();
        let mut start = 0;
        let push = |mut text: String, c| {
            text.push(c);
            text
        };
        let emit = |mut text: String| {
            let (seen, token) = text.as_bytes().split_at(start);
            if self.dedup && seen.split(|&b| b == b' ').any(|t| t == token) {
                text.truncate(start);
            } else {
                f(&text[start..]);
                text.push(' ');
                start = text.len();
            }
            text
        };
        *buf = self.scan(s, std::mem::take(buf), push, emit);
    }

    /// Tokenize `s`, appending lowercase tokens to `out`.
    ///
    /// Reuses `out`'s allocation; callers in hot loops should keep a
    /// workhorse vector around.
    pub fn tokenize_into(&self, s: &str, out: &mut Vec<String>) {
        let start = out.len();
        let push = |mut token: String, c| {
            token.push(c);
            token
        };
        self.scan(s, String::new(), push, |token| {
            out.push(token);
            String::new()
        });
        if self.dedup {
            // Set semantics while preserving first-occurrence order; token
            // counts per attribute value are tiny (typically < 10, paper §2),
            // so the quadratic scan beats hashing.
            let mut i = start;
            while i < out.len() {
                let dup = out[start..i].iter().any(|t| *t == out[i]);
                if dup {
                    out.remove(i);
                } else {
                    i += 1;
                }
            }
        }
    }

    /// Tokenize `s` into a fresh vector.
    pub fn tokenize(&self, s: &str) -> Vec<String> {
        let mut out = Vec::new();
        self.tokenize_into(s, &mut out);
        out
    }
}

/// Tokenize with the default (paper) configuration.
///
/// ```
/// let toks = fm_text::tokenize("Boeing Company");
/// assert_eq!(toks, vec!["boeing", "company"]);
/// ```
pub fn tokenize(s: &str) -> Vec<String> {
    Tokenizer::new().tokenize(s)
}

/// Tokenize with the default configuration into a caller-provided buffer.
pub fn tokenize_into(s: &str, out: &mut Vec<String>) {
    Tokenizer::new().tokenize_into(s, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_whitespace_split() {
        assert_eq!(tokenize("Boeing Company"), vec!["boeing", "company"]);
    }

    #[test]
    fn case_folding() {
        assert_eq!(tokenize("SEATTLE"), vec!["seattle"]);
        assert_eq!(tokenize("SeAtTlE wa"), vec!["seattle", "wa"]);
    }

    #[test]
    fn collapses_runs_of_whitespace() {
        assert_eq!(tokenize("  a \t b \n c  "), vec!["a", "b", "c"]);
    }

    #[test]
    fn empty_and_blank() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("   \t\n ").is_empty());
    }

    #[test]
    fn set_semantics_within_a_string() {
        // Paper §3: tok(s) is a set.
        assert_eq!(tokenize("new new york"), vec!["new", "york"]);
        assert_eq!(tokenize("A a"), vec!["a"]);
    }

    #[test]
    fn multiset_option_keeps_duplicates() {
        let t = Tokenizer::new().keep_duplicates();
        assert_eq!(t.tokenize("new new york"), vec!["new", "new", "york"]);
    }

    #[test]
    fn extra_delimiters() {
        let t = Tokenizer::new().with_delimiters(&[',', '.']);
        assert_eq!(t.tokenize("Boeing, Co."), vec!["boeing", "co"]);
    }

    #[test]
    fn unicode_lowercasing() {
        assert_eq!(tokenize("MÜNCHEN Straße"), vec!["münchen", "straße"]);
    }

    #[test]
    fn tokenize_into_reuses_buffer() {
        let mut buf = Vec::with_capacity(8);
        tokenize_into("boeing company", &mut buf);
        assert_eq!(buf.len(), 2);
        buf.clear();
        tokenize_into("bon corporation", &mut buf);
        assert_eq!(buf, vec!["bon", "corporation"]);
    }

    #[test]
    fn tokenize_into_appends_and_dedups_only_new_segment() {
        let mut buf = vec!["boeing".to_string()];
        tokenize_into("boeing boeing co", &mut buf);
        // Pre-existing contents are untouched; dedup applies to the new span.
        assert_eq!(buf, vec!["boeing", "boeing", "co"]);
    }

    #[test]
    fn for_each_token_yields_what_tokenize_returns() {
        let mut buf = String::new();
        for t in [Tokenizer::new(), Tokenizer::new().keep_duplicates()] {
            for s in ["new new YORK  new", "", " MÜNCHEN Straße münchen ", "a A b"] {
                let mut seen = Vec::new();
                t.for_each_token(s, &mut buf, |token| seen.push(token.to_string()));
                assert_eq!(seen, t.tokenize(s), "{s:?}");
            }
        }
    }

    #[test]
    fn digits_and_punctuation_are_token_chars_by_default() {
        assert_eq!(tokenize("98004 wa-98004"), vec!["98004", "wa-98004"]);
    }

    #[test]
    fn pathological_tokens_are_capped() {
        let junk = "x".repeat(5000);
        let toks = tokenize(&junk);
        assert_eq!(toks.len(), 1);
        assert!(
            toks[0].len() <= MAX_TOKEN_BYTES + 4,
            "len {}",
            toks[0].len()
        );
        // Multibyte characters stay intact at the cap.
        let junk = "ü".repeat(5000);
        let toks = tokenize(&junk);
        assert!(toks[0].len() <= MAX_TOKEN_BYTES + 4);
        assert!(toks[0].chars().all(|c| c == 'ü'));
        // The cap applies per token, not per string.
        let two = format!("{} {}", "a".repeat(300), "b".repeat(300));
        let toks = tokenize(&two);
        assert_eq!(toks.len(), 2);
        assert!(toks.iter().all(|t| t.len() <= MAX_TOKEN_BYTES + 4));
    }
}
