//! Property-based tests for the string kernels.

use fm_text::{
    jaccard, levenshtein, normalized_edit_distance, qgram_set, tokenize, MinHasher, TokenPrint,
    Tokenizer,
};
use proptest::prelude::*;

/// Short lowercase-ish token strategy resembling the data domain.
fn token() -> impl Strategy<Value = String> {
    "[a-z0-9]{0,12}"
}

/// A raw attribute value: words over a small alphabet (so pairs land close
/// together and repeat within a value) with upper case, `İ` (whose
/// lowercase is two characters), `ß`, digits and multi-byte letters, split
/// by runs of spaces, tabs and commas — plus, now and then, an unbroken run
/// long enough to hit the tokenizer's `MAX_TOKEN_BYTES` cap.
fn raw_value() -> impl Strategy<Value = String> {
    prop_oneof![
        8 => "[ ,\t]{0,2}([abcABİß9é]{1,6}[ ,\t]{1,3}){0,5}",
        1 => "[abİ]{95,230}( [abİ]{95,230})?",
    ]
}

proptest! {
    #[test]
    fn print_bounds_hold_for_every_token_pair_of_two_raw_values(
        a in raw_value(),
        b in raw_value(),
        comma_delimits in any::<bool>(),
    ) {
        let tokenizer = if comma_delimits {
            Tokenizer::new().with_delimiters(&[','])
        } else {
            Tokenizer::new()
        };
        // The raw scan sees exactly the tokens the tokenizer builds
        // (duplicates included), however folding and the cap reshape them.
        let prints_of = |s: &str| {
            let mut prints = Vec::new();
            tokenizer.for_each_print(s, |p| prints.push(p));
            let tokens = tokenizer.clone().keep_duplicates().tokenize(s);
            let want: Vec<TokenPrint> = tokens.iter().map(|t| TokenPrint::of(t)).collect();
            assert_eq!(prints, want, "prints of {s:?}");
            (tokens, prints)
        };
        let (ta, pa) = prints_of(&a);
        let (tb, pb) = prints_of(&b);
        for (x, px) in ta.iter().zip(&pa).chain([(&String::new(), &TokenPrint::default())]) {
            prop_assert_eq!(px.chars() as usize, x.chars().count());
            for (y, py) in tb.iter().zip(&pb) {
                let lb = px.lev_lower_bound(py);
                prop_assert!(lb <= levenshtein(x, y), "lb {} for {:?} vs {:?}", lb, x, y);
                prop_assert_eq!(lb, py.lev_lower_bound(px));
                prop_assert!(px.ed_lower_bound(py) <= normalized_edit_distance(x, y));
            }
        }
    }

    #[test]
    fn ed_is_symmetric(a in token(), b in token()) {
        prop_assert_eq!(levenshtein(&a, &b), levenshtein(&b, &a));
    }

    #[test]
    fn ed_identity(a in token()) {
        prop_assert_eq!(levenshtein(&a, &a), 0);
        prop_assert_eq!(normalized_edit_distance(&a, &a), 0.0);
    }

    #[test]
    fn ed_normalized_in_unit_interval(a in token(), b in token()) {
        let d = normalized_edit_distance(&a, &b);
        prop_assert!((0.0..=1.0).contains(&d));
    }

    #[test]
    fn ed_triangle(a in token(), b in token(), c in token()) {
        prop_assert!(levenshtein(&a, &c) <= levenshtein(&a, &b) + levenshtein(&b, &c));
    }

    #[test]
    fn ed_bounded_by_longer_length(a in token(), b in token()) {
        let bound = a.chars().count().max(b.chars().count()) as u32;
        prop_assert!(levenshtein(&a, &b) <= bound);
    }

    #[test]
    fn ed_at_least_length_difference(a in token(), b in token()) {
        let diff = (a.chars().count() as i64 - b.chars().count() as i64).unsigned_abs() as u32;
        prop_assert!(levenshtein(&a, &b) >= diff);
    }

    #[test]
    fn single_substitution_costs_one(a in "[a-z]{1,10}", idx in 0usize..10) {
        let chars: Vec<char> = a.chars().collect();
        let idx = idx % chars.len();
        if chars[idx] != 'z' {
            let mut mutated = chars.clone();
            mutated[idx] = 'z';
            let b: String = mutated.into_iter().collect();
            if b != a {
                prop_assert_eq!(levenshtein(&a, &b), 1);
            }
        }
    }

    #[test]
    fn qgrams_are_substrings(s in token(), q in 1usize..5) {
        for g in qgram_set(&s, q) {
            prop_assert_eq!(g.chars().count(), q);
            prop_assert!(s.contains(&g));
        }
    }

    #[test]
    fn qgram_count_bound(s in token(), q in 1usize..5) {
        let n = s.chars().count();
        let grams = qgram_set(&s, q);
        if n < q {
            prop_assert!(grams.is_empty());
        } else {
            prop_assert!(grams.len() <= n - q + 1);
            prop_assert!(!grams.is_empty());
        }
    }

    #[test]
    fn lemma_4_2_upper_bound(a in "[a-z]{1,10}", b in "[a-z]{1,10}", q in 2usize..5) {
        // 1 - ed(a,b) <= |QG(a) ∩ QG(b)|/(m·q) + (1-1/q)(1-1/m)
        let lhs = 1.0 - normalized_edit_distance(&a, &b);
        let rhs = fm_text::qgram_similarity_upper_bound(&a, &b, q);
        prop_assert!(lhs <= rhs + 1e-9, "lemma 4.2 violated: {} vs {}", lhs, rhs);
    }

    #[test]
    fn jaccard_symmetric_bounded(a in prop::collection::vec(token(), 0..6),
                                 b in prop::collection::vec(token(), 0..6)) {
        let j1 = jaccard(&a, &b);
        let j2 = jaccard(&b, &a);
        prop_assert_eq!(j1, j2);
        prop_assert!((0.0..=1.0).contains(&j1));
    }

    #[test]
    fn jaccard_identity(a in prop::collection::vec(token(), 0..6)) {
        prop_assert_eq!(jaccard(&a, &a), 1.0);
    }

    #[test]
    fn tokenize_produces_lowercase_nonempty(s in "[ A-Za-z0-9]{0,40}") {
        for t in tokenize(&s) {
            prop_assert!(!t.is_empty());
            prop_assert_eq!(t.clone(), t.to_lowercase());
            prop_assert!(!t.contains(' '));
        }
    }

    #[test]
    fn tokenize_is_idempotent_on_joined_output(s in "[ a-z0-9]{0,40}") {
        let once = tokenize(&s);
        let joined = once.join(" ");
        let twice = tokenize(&joined);
        prop_assert_eq!(once, twice);
    }

    #[test]
    fn minhash_similarity_bounds(a in "[a-z]{0,10}", b in "[a-z]{0,10}",
                                 h in 1usize..6, seed in 0u64..1000) {
        let mh = MinHasher::new(h, 3, seed);
        let s = mh.similarity(&a, &b);
        prop_assert!((0.0..=1.0).contains(&s));
        prop_assert_eq!(mh.similarity(&a, &a), 1.0);
    }

    #[test]
    fn minhash_signature_length(t in "[a-z]{0,10}", h in 1usize..6, seed in 0u64..100) {
        let q = 3;
        let mh = MinHasher::new(h, q, seed);
        let sig = mh.signature(&t);
        if t.chars().count() < q {
            prop_assert_eq!(sig, vec![t]);
        } else {
            prop_assert_eq!(sig.len(), h);
        }
    }
}
