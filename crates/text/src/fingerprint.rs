//! Token fingerprints: a few machine words per token that bound its edit
//! distance to any other token from below, without looking at either
//! string again.
//!
//! A fingerprint holds the token's length in characters and a saturating
//! character *bag*: characters hash into 64 buckets, and two bit masks
//! record which buckets hold at least one and at least two of them. For
//! tokens `a`, `b` with character multisets `A`, `B`, every edit removes at
//! most one character from `A − B` and at most one from `B − A`, so
//! `lev(a, b) ≥ max(|A − B|, |B − A|)` (the *bag distance*), and since
//! `|A − B| − |B − A| = |a| − |b|` the longer side's difference is at least
//! the shorter side's plus the length gap. Merging characters into buckets
//! and saturating the counts at two only ever shrinks a multiset
//! difference, so the masks give lower bounds on `|A − B|` and `|B − A|`,
//! and [`TokenPrint::lev_lower_bound`] is a lower bound on `lev`.
//!
//! This is the character-level filter ahead of the quadratic comparison of
//! "Faster Algorithm of String Comparison" (PAPERS.md), reduced to what fits
//! in three words.

/// Length and saturating character bag of one token. Build with
/// [`TokenPrint::of`] from a finished token, or one character at a time
/// with [`TokenPrint::with`] (what
/// [`Tokenizer::for_each_print`](crate::Tokenizer::for_each_print) does
/// over a raw attribute value).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TokenPrint {
    chars: u32,
    /// Buckets holding at least one character.
    once: u64,
    /// Buckets holding at least two.
    twice: u64,
}

/// Letters and digits — what attribute values are mostly made of — get a
/// bucket each; everything else shares the remaining 28.
fn bucket(c: char) -> u32 {
    match c {
        'a'..='z' => c as u32 - 'a' as u32,
        '0'..='9' => 26 + (c as u32 - '0' as u32),
        _ => 36 + c as u32 % 28,
    }
}

impl TokenPrint {
    /// The fingerprint of `token`, taken as is (no case folding).
    pub fn of(token: &str) -> TokenPrint {
        token.chars().fold(TokenPrint::default(), TokenPrint::with)
    }

    /// The print of the token extended by `c`.
    #[must_use]
    pub fn with(self, c: char) -> TokenPrint {
        let bit = 1u64 << bucket(c);
        TokenPrint {
            chars: self.chars + 1,
            once: self.once | bit,
            twice: self.twice | (self.once & bit),
        }
    }

    /// Token length in characters.
    pub fn chars(&self) -> u32 {
        self.chars
    }

    /// Characters of `self` that nothing in `other` can pair with: a lower
    /// bound on the multiset difference of the two tokens' characters.
    fn unmatched(&self, other: &TokenPrint) -> u32 {
        (self.once & !other.once).count_ones() + (self.twice & !other.twice).count_ones()
    }

    /// A lower bound on `levenshtein(a, b)` for the tokens `a`, `b` the two
    /// prints were taken from (see the module docs for why).
    pub fn lev_lower_bound(&self, other: &TokenPrint) -> u32 {
        let (long, short) = if self.chars >= other.chars {
            (self, other)
        } else {
            (other, self)
        };
        long.unmatched(short)
            .max(short.unmatched(long) + (long.chars - short.chars))
    }

    /// A lower bound on `normalized_edit_distance(a, b)`: the same division
    /// by the longer length [`crate::EditBuffer::normalized`] performs, on
    /// an integer that is no larger, so the bound also holds between the
    /// two rounded results.
    pub fn ed_lower_bound(&self, other: &TokenPrint) -> f64 {
        match self.chars.max(other.chars) {
            0 => 0.0,
            longer => f64::from(self.lev_lower_bound(other)) / f64::from(longer),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::levenshtein;

    #[test]
    fn identical_tokens_bound_to_zero() {
        let p = TokenPrint::of("boeing");
        assert_eq!(p.chars(), 6);
        assert_eq!(p.lev_lower_bound(&p), 0);
        assert_eq!(p.ed_lower_bound(&p), 0.0);
        assert_eq!(
            TokenPrint::default().ed_lower_bound(&TokenPrint::default()),
            0.0
        );
    }

    #[test]
    fn bound_sees_length_set_and_repeat_differences() {
        let lb = |a: &str, b: &str| TokenPrint::of(a).lev_lower_bound(&TokenPrint::of(b));
        // Anagrams are invisible to a bag.
        assert_eq!(lb("beoing", "boeing"), 0);
        // Pure length gap.
        assert_eq!(lb("corp", "corporation"), 7);
        assert_eq!(lb("", "abc"), 3);
        // Disjoint alphabets: every character of the longer side.
        assert_eq!(lb("seattle", "98004"), 7);
        assert_eq!(lb("abc", "xyz"), 3);
        // The second copy of a character counts: "aab" vs "abb".
        assert_eq!(lb("aab", "abb"), 1);
        // Unmatched characters on the short side add to the length gap.
        assert_eq!(lb("xy", "abcd"), 4);
        for (a, b) in [
            ("beoing", "boeing"),
            ("corp", "corporation"),
            ("xy", "abcd"),
        ] {
            assert!(lb(a, b) <= levenshtein(a, b));
            assert_eq!(lb(a, b), lb(b, a));
        }
    }
}
