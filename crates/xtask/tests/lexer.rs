//! Lexer unit tests (the tricky token shapes), the lossless round-trip
//! property, and multi-rule `lint:allow(…)` parsing.

use proptest::prelude::*;

use xtask::analyze::lexer::{lex, Token, TokenKind};
use xtask::lint::allows;

fn texts(src: &str) -> Vec<(TokenKind, &str)> {
    lex(src)
        .iter()
        .map(|t: &Token| (t.kind, &src[t.start..t.end]))
        .collect()
}

/// Code tokens only (no whitespace/comments), as text.
fn code(src: &str) -> Vec<&str> {
    texts(src)
        .into_iter()
        .filter(|(k, _)| {
            !matches!(
                k,
                TokenKind::Whitespace | TokenKind::LineComment | TokenKind::BlockComment
            )
        })
        .map(|(_, s)| s)
        .collect()
}

fn roundtrip(src: &str) -> String {
    lex(src).iter().map(|t| &src[t.start..t.end]).collect()
}

#[test]
fn raw_strings_lex_as_single_tokens() {
    let src = r####"let s = r#"quote " inside"#; let t = r##"nested "# inside"##;"####;
    let toks = texts(src);
    let strs: Vec<&str> = toks
        .iter()
        .filter(|(k, _)| *k == TokenKind::Str)
        .map(|&(_, s)| s)
        .collect();
    assert_eq!(
        strs,
        [r##"r#"quote " inside"#"##, r###"r##"nested "# inside"##"###]
    );
    assert_eq!(roundtrip(src), src);
}

#[test]
fn byte_and_raw_byte_strings() {
    let src = r###"let a = b"bytes"; let b = br#"raw "bytes""#;"###;
    let strs: Vec<&str> = texts(src)
        .into_iter()
        .filter(|(k, _)| *k == TokenKind::Str)
        .map(|(_, s)| s)
        .collect();
    assert_eq!(strs, [r#"b"bytes""#, r##"br#"raw "bytes""#"##]);
    assert_eq!(roundtrip(src), src);
}

#[test]
fn nested_block_comments_close_at_matching_depth() {
    let src = "a /* outer /* inner */ still comment */ b";
    let toks = texts(src);
    let comments: Vec<&str> = toks
        .iter()
        .filter(|(k, _)| *k == TokenKind::BlockComment)
        .map(|&(_, s)| s)
        .collect();
    assert_eq!(comments, ["/* outer /* inner */ still comment */"]);
    assert_eq!(code(src), ["a", "b"]);
}

#[test]
fn lifetimes_are_not_char_literals() {
    let src = "fn f<'a>(x: &'a str) -> char { 'a' }";
    let toks = texts(src);
    let lifetimes: Vec<&str> = toks
        .iter()
        .filter(|(k, _)| *k == TokenKind::Lifetime)
        .map(|&(_, s)| s)
        .collect();
    let chars: Vec<&str> = toks
        .iter()
        .filter(|(k, _)| *k == TokenKind::Char)
        .map(|&(_, s)| s)
        .collect();
    assert_eq!(lifetimes, ["'a", "'a"]);
    assert_eq!(chars, ["'a'"]);
}

#[test]
fn tricky_char_literals() {
    let src = r"let a = '\''; let b = '\u{1F600}'; let c = b'x'; let s = 'static;";
    let toks = texts(src);
    let chars: Vec<&str> = toks
        .iter()
        .filter(|(k, _)| *k == TokenKind::Char)
        .map(|&(_, s)| s)
        .collect();
    assert_eq!(chars, [r"'\''", r"'\u{1F600}'", "b'x'"]);
    assert!(toks
        .iter()
        .any(|&(k, s)| k == TokenKind::Lifetime && s == "'static"));
}

#[test]
fn numbers_with_suffixes_and_exponents() {
    let src = "let x = 0xFFu8 + 1.5e-3 + 1_000_000 + 0b1010i64;";
    let nums: Vec<&str> = texts(src)
        .into_iter()
        .filter(|(k, _)| *k == TokenKind::Num)
        .map(|(_, s)| s)
        .collect();
    assert_eq!(nums, ["0xFFu8", "1.5e-3", "1_000_000", "0b1010i64"]);
}

#[test]
fn doc_comments_are_comments() {
    let src = "/// outer doc\n//! inner doc\n/** block doc */ fn f() {}";
    assert_eq!(code(src), ["fn", "f", "(", ")", "{", "}"]);
    assert_eq!(roundtrip(src), src);
}

#[test]
fn roundtrip_of_unterminated_forms_is_still_lossless() {
    // The lexer must be total: broken input lexes to something, losslessly.
    for src in [
        "let s = \"unterminated",
        "let s = r#\"unterminated",
        "/* unterminated",
        "let c = '",
        "let c = '\\",
    ] {
        assert_eq!(roundtrip(src), src, "lossy lex of {src:?}");
    }
}

proptest! {
    /// Concatenating every token's text reproduces the input byte-for-byte,
    /// for arbitrary (including non-Rust) input.
    #[test]
    fn lex_is_lossless(src in "\\PC*") {
        prop_assert_eq!(roundtrip(&src), src);
    }

    /// Same property over input shaped like the token soup the lexer
    /// actually has to disambiguate (quotes, slashes, braces, lifetimes).
    #[test]
    fn lex_is_lossless_on_token_soup(parts in proptest::collection::vec(
        prop_oneof![
            Just("r#\"x\"#".to_string()),
            Just("'a".to_string()),
            Just("'a'".to_string()),
            Just("/*".to_string()),
            Just("*/".to_string()),
            Just("//".to_string()),
            Just("\n".to_string()),
            Just("\"".to_string()),
            Just("b'".to_string()),
            Just("1e5".to_string()),
            Just("r#match".to_string()),
            "[a-z{}();.]{0,4}".prop_map(|s| s),
        ],
        0..16,
    )) {
        let src: String = parts.concat();
        prop_assert_eq!(roundtrip(&src), src.clone());
        // Token spans must also tile the input: contiguous, in order.
        let mut pos = 0;
        for t in lex(&src) {
            prop_assert_eq!(t.start, pos);
            prop_assert!(t.end > t.start);
            pos = t.end;
        }
        prop_assert_eq!(pos, src.len());
    }
}

#[test]
fn allows_parses_multiple_rules_and_cr() {
    let line = "let x = v[0]; // lint:allow(float-det, must-use-bool): fixture\r";
    assert!(allows(line, "float-det"));
    assert!(allows(line, "must-use-bool"));
    assert!(!allows(line, "wal-write"));

    // Whitespace-heavy variant.
    let line = "foo(); // lint:allow( lock-order ,  wal-write ): vetted";
    assert!(allows(line, "lock-order"));
    assert!(allows(line, "wal-write"));
    assert!(!allows(line, "lock"));

    // Two allow markers on one line.
    let line = "x(); // lint:allow(a): one // lint:allow(b): two";
    assert!(allows(line, "a"));
    assert!(allows(line, "b"));

    // Unclosed paren must not panic and must still match the listed rule.
    let line = "y(); // lint:allow(float-det";
    assert!(allows(line, "float-det"));
    assert!(!allows("no marker here", "float-det"));
}
