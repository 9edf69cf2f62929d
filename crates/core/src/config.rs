//! Matcher configuration.
//!
//! Defaults follow the paper's experimental settings (§6.1): `q = 4`,
//! signature scheme `Q+T` with `H = 3` q-grams (the paper's best-performing
//! strategy), token insertion factor `c_ins = 0.5`, stop q-gram threshold
//! 10 000.

use crate::error::{CoreError, Result};

/// Column numbers are one index key byte each.
const MAX_COLUMNS: usize = 256;

/// How token signatures are formed (paper §6.2: `Q_H` vs `Q+T_H`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SignatureScheme {
    /// `Q_H`: H min-hash q-grams per token (§4.1/§4.2).
    QGrams,
    /// `Q+T_H`: the token itself as coordinate 0 plus H min-hash q-grams
    /// (§5.1). `Q+T_0` is the tokens-only strategy.
    QGramsPlusToken,
}

impl SignatureScheme {
    /// The paper's display name for this scheme with `h` q-grams,
    /// e.g. `Q_2` or `Q+T_3`.
    pub fn label(self, h: usize) -> String {
        match self {
            SignatureScheme::QGrams => format!("Q_{h}"),
            SignatureScheme::QGramsPlusToken => format!("Q+T_{h}"),
        }
    }
}

/// Cost function for the optional token transposition operation (§5.3):
/// transposing adjacent tokens `(t1, t2)` costs `g(w(t1), w(t2))`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TranspositionCost {
    /// `g = (w1 + w2) / 2`.
    Average,
    /// `g = min(w1, w2)`.
    Min,
    /// `g = max(w1, w2)`.
    Max,
    /// A flat cost independent of the weights.
    Constant(f64),
}

impl TranspositionCost {
    /// Evaluate `g(w1, w2)`.
    pub fn cost(self, w1: f64, w2: f64) -> f64 {
        match self {
            TranspositionCost::Average => (w1 + w2) / 2.0,
            TranspositionCost::Min => w1.min(w2),
            TranspositionCost::Max => w1.max(w2),
            TranspositionCost::Constant(c) => c,
        }
    }

    fn code(self) -> (u8, f64) {
        match self {
            TranspositionCost::Average => (1, 0.0),
            TranspositionCost::Min => (2, 0.0),
            TranspositionCost::Max => (3, 0.0),
            TranspositionCost::Constant(c) => (4, c),
        }
    }

    fn from_code(code: u8, arg: f64) -> Result<Option<TranspositionCost>> {
        Ok(match code {
            0 => None,
            1 => Some(TranspositionCost::Average),
            2 => Some(TranspositionCost::Min),
            3 => Some(TranspositionCost::Max),
            4 => Some(TranspositionCost::Constant(arg)),
            other => {
                return Err(CoreError::BadState(format!(
                    "bad transposition code {other}"
                )))
            }
        })
    }
}

/// Which upper bound the OSC stopping test (paper §4.3.2) compares the
/// verified `fms` values against. The paper is internally inconsistent
/// here: its formal test adds the full adjustment term (under which the
/// test can never pass — the bound exceeds 1 until the sweep is nearly
/// done), while its worked example uses the raw score bound
/// ("if `fms(u, R1) ≥ 3.5/4.5`, stop"). See EXPERIMENTS.md for the
/// measured trade-off.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OscStopping {
    /// `fms_j ≥ (d_q·w(u) + (2/q)(s_{K+1} + remaining))/w(u)` — the sound
    /// score→fms bound. Preserves accuracy (OSC answers equal the basic
    /// algorithm's w.h.p.) but rarely fires on dirty data. The default.
    #[default]
    Sound,
    /// `fms_j ≥ (s_{K+1} + remaining)/w(u)` — the paper's worked-example
    /// bound. Fires for 50–75%+ of inputs (reproducing Figures 8/10) at
    /// an accuracy cost on heavily corrupted inputs (see the ablation in
    /// EXPERIMENTS.md), because aggregate min-hash scores can rank a
    /// confuser above the true target until `fms` re-ranks them.
    PaperExample,
}

/// Full matcher configuration. Construct with [`Config::default`] and the
/// `with_*` builders; validated by [`Config::validate`] (called by the
/// matcher build).
///
/// ```
/// use fm_core::{Config, SignatureScheme};
///
/// let config = Config::default()
///     .with_columns(&["name", "city", "state", "zip"])
///     .with_signature(SignatureScheme::QGramsPlusToken, 2)
///     .with_q(4)
///     .with_cins(0.5);
/// assert_eq!(config.strategy_label(), "Q+T_2");
/// assert!(config.validate().is_ok());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    /// Q-gram size (paper default 4).
    pub q: usize,
    /// Min-hash signature size H (number of q-gram coordinates).
    pub h: usize,
    /// Signature scheme: `Q_H` or `Q+T_H`.
    pub scheme: SignatureScheme,
    /// Token insertion factor `c_ins ∈ (0, 1]` (paper default 0.5).
    pub cins: f64,
    /// Q-grams whose tid-list exceeds this become stop q-grams with NULL
    /// tid-lists (paper default 10 000). Set `>= |R|` to disable (required
    /// for the exactness guarantees of Theorems 1–2).
    pub stop_qgram_threshold: usize,
    /// Master seed for the min-hash functions.
    pub seed: u64,
    /// Column names (fixes arity; cosmetic beyond that).
    pub column_names: Vec<String>,
    /// Optional per-column importance weights `W_i` (§5.2). Must be
    /// positive; they are normalized to mean 1 so that uniform weights
    /// coincide with the unweighted matcher.
    pub column_weights: Option<Vec<f64>>,
    /// Optional token transposition operation in `fms` (§5.3).
    pub transposition: Option<TranspositionCost>,
    /// Apply the "insert new tids only while enough weight remains"
    /// optimization (§4.3.1). On by default; off is an ablation knob.
    pub insert_pruning: bool,
    /// Upper bound on reference tuples fetched and verified per query
    /// (0 = unlimited). The score→fms upper bound carries an irreducible
    /// `d_q = 1 − 1/q` slack (see `query`), so on very dirty inputs the
    /// sound early-stop may never trigger; the cap bounds worst-case work
    /// exactly like the candidate limits of production fuzzy-lookup
    /// systems. 64 comfortably covers the paper's measured candidate sets
    /// (~1–60).
    pub max_candidates: usize,
    /// Bound used by the OSC stopping test (see [`OscStopping`]).
    pub osc_stopping: OscStopping,
    /// A band count `b` for `fm_text::Bander`. Kept only for the
    /// benchmark's `text.band_keys_ns` probe; removed when ROADMAP 7a
    /// folds the benchmark into the workspace. No matcher path reads it.
    pub lsh_bands: usize,
    /// Rows per band `r` for `fm_text::Bander`. Kept only for the
    /// benchmark's `text.band_keys_ns` probe; removed when ROADMAP 7a
    /// folds the benchmark into the workspace. No matcher path reads it.
    pub lsh_rows: usize,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            q: 4,
            h: 3,
            scheme: SignatureScheme::QGramsPlusToken,
            cins: 0.5,
            stop_qgram_threshold: 10_000,
            seed: 0x5EED_F00D,
            column_names: Vec::new(),
            column_weights: None,
            transposition: None,
            insert_pruning: true,
            max_candidates: 64,
            osc_stopping: OscStopping::default(),
            lsh_bands: 3,
            lsh_rows: 3,
        }
    }
}

impl Config {
    pub fn with_columns(mut self, names: &[&str]) -> Config {
        self.column_names = names.iter().map(|s| s.to_string()).collect();
        self
    }

    pub fn with_q(mut self, q: usize) -> Config {
        self.q = q;
        self
    }

    pub fn with_signature(mut self, scheme: SignatureScheme, h: usize) -> Config {
        self.scheme = scheme;
        self.h = h;
        self
    }

    pub fn with_cins(mut self, cins: f64) -> Config {
        self.cins = cins;
        self
    }

    pub fn with_seed(mut self, seed: u64) -> Config {
        self.seed = seed;
        self
    }

    pub fn with_stop_threshold(mut self, t: usize) -> Config {
        self.stop_qgram_threshold = t;
        self
    }

    pub fn with_column_weights(mut self, weights: &[f64]) -> Config {
        self.column_weights = Some(weights.to_vec());
        self
    }

    pub fn with_transposition(mut self, cost: TranspositionCost) -> Config {
        self.transposition = Some(cost);
        self
    }

    pub fn without_insert_pruning(mut self) -> Config {
        self.insert_pruning = false;
        self
    }

    /// Cap on verified candidates per query (0 = unlimited).
    pub fn with_max_candidates(mut self, n: usize) -> Config {
        self.max_candidates = n;
        self
    }

    /// Choose the OSC stopping-test bound.
    pub fn with_osc_stopping(mut self, s: OscStopping) -> Config {
        self.osc_stopping = s;
        self
    }

    /// The paper's display label, e.g. `Q+T_3`.
    pub fn strategy_label(&self) -> String {
        self.scheme.label(self.h)
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.column_names.len()
    }

    /// Effective multiplier for column `col` (§5.2): the normalized column
    /// weight, or 1.0 when no weights are configured.
    pub fn column_factor(&self, col: usize) -> f64 {
        match &self.column_weights {
            None => 1.0,
            Some(w) => {
                let mean = w.iter().sum::<f64>() / w.len() as f64;
                w[col] / mean
            }
        }
    }

    /// Check internal consistency.
    pub fn validate(&self) -> Result<()> {
        if self.q == 0 {
            return Err(CoreError::Config("q must be positive".into()));
        }
        if self.h == 0 && self.scheme == SignatureScheme::QGrams {
            return Err(CoreError::Config(
                "Q_0 has no signature at all; use Q+T_0 for a tokens-only index".into(),
            ));
        }
        // Coordinates and column numbers are one key byte each (coordinate
        // 0 is the whole token, DESIGN.md §4.5).
        for (what, value, max) in [
            ("h", self.h, 255),
            (
                "the number of columns",
                self.column_names.len(),
                MAX_COLUMNS,
            ),
        ] {
            if value > max {
                return Err(CoreError::Config(format!(
                    "{what} must be at most {max} to fit its index key byte, got {value}"
                )));
            }
        }
        if !(self.cins > 0.0 && self.cins <= 1.0) {
            return Err(CoreError::Config(format!(
                "cins must be in (0, 1], got {}",
                self.cins
            )));
        }
        if self.column_names.is_empty() {
            return Err(CoreError::Config("column_names must not be empty".into()));
        }
        if let Some(w) = &self.column_weights {
            if w.len() != self.column_names.len() {
                return Err(CoreError::Config(format!(
                    "{} column weights for {} columns",
                    w.len(),
                    self.column_names.len()
                )));
            }
            if w.iter().any(|&x| x <= 0.0 || !x.is_finite()) {
                return Err(CoreError::Config("column weights must be positive".into()));
            }
        }
        if let Some(TranspositionCost::Constant(g)) = self.transposition {
            // The verification bounds (DESIGN §4.2) rely on every
            // transformation step costing at least nothing.
            if !(g >= 0.0 && g.is_finite()) {
                return Err(CoreError::Config(format!(
                    "transposition cost must be finite and non-negative, got {g}"
                )));
            }
        }
        if self.stop_qgram_threshold == 0 {
            return Err(CoreError::Config("stop threshold must be positive".into()));
        }
        Ok(())
    }

    /// Serialize for the database catalog (so a matcher reopens with the
    /// exact seeds and scheme it was built with).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(self.q as u32).to_le_bytes());
        out.extend_from_slice(&(self.h as u32).to_le_bytes());
        out.push(match self.scheme {
            SignatureScheme::QGrams => 0,
            SignatureScheme::QGramsPlusToken => 1,
        });
        out.extend_from_slice(&self.cins.to_le_bytes());
        out.extend_from_slice(&(self.stop_qgram_threshold as u64).to_le_bytes());
        out.extend_from_slice(&self.seed.to_le_bytes());
        out.push(u8::from(self.insert_pruning));
        out.extend_from_slice(&(self.max_candidates as u64).to_le_bytes());
        out.push(match self.osc_stopping {
            OscStopping::Sound => 0,
            OscStopping::PaperExample => 1,
        });
        let (tcode, targ) = match self.transposition {
            None => (0u8, 0.0),
            Some(t) => t.code(),
        };
        out.push(tcode);
        out.extend_from_slice(&targ.to_le_bytes());
        out.extend_from_slice(&(self.column_names.len() as u32).to_le_bytes());
        for name in &self.column_names {
            out.extend_from_slice(&(name.len() as u32).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
        }
        match &self.column_weights {
            None => out.push(0),
            Some(w) => {
                out.push(1);
                for &x in w {
                    out.extend_from_slice(&x.to_le_bytes());
                }
            }
        }
        out
    }

    /// Deserialize from [`Config::encode`] bytes.
    pub fn decode(bytes: &[u8]) -> Result<Config> {
        // Exact-`N` slice → array as a decode error rather than a panic;
        // cannot fire after a successful `take(N)`.
        fn arr<const N: usize>(bytes: &[u8]) -> Result<[u8; N]> {
            bytes
                .try_into()
                .map_err(|_| CoreError::BadState("truncated config".into()))
        }
        let mut input = bytes;
        let mut take = |n: usize| -> Result<&[u8]> {
            if input.len() < n {
                return Err(CoreError::BadState("truncated config".into()));
            }
            let (head, rest) = input.split_at(n);
            input = rest;
            Ok(head)
        };
        let q = u32::from_le_bytes(arr(take(4)?)?) as usize;
        let h = u32::from_le_bytes(arr(take(4)?)?) as usize;
        let scheme = match take(1)?[0] {
            0 => SignatureScheme::QGrams,
            1 => SignatureScheme::QGramsPlusToken,
            other => return Err(CoreError::BadState(format!("bad scheme code {other}"))),
        };
        let cins = f64::from_le_bytes(arr(take(8)?)?);
        let stop = u64::from_le_bytes(arr(take(8)?)?) as usize;
        let seed = u64::from_le_bytes(arr(take(8)?)?);
        let insert_pruning = take(1)?[0] != 0;
        let max_candidates = u64::from_le_bytes(arr(take(8)?)?) as usize;
        let osc_stopping = match take(1)?[0] {
            0 => OscStopping::Sound,
            1 => OscStopping::PaperExample,
            other => {
                return Err(CoreError::BadState(format!(
                    "bad osc stopping code {other}"
                )))
            }
        };
        let tcode = take(1)?[0];
        let targ = f64::from_le_bytes(arr(take(8)?)?);
        let transposition = TranspositionCost::from_code(tcode, targ)?;
        let ncols = u32::from_le_bytes(arr(take(4)?)?) as usize;
        // Bounded before it sizes any allocation: a corrupt count would
        // otherwise abort the process instead of failing the decode.
        if ncols > MAX_COLUMNS {
            return Err(CoreError::BadState(format!(
                "config claims {ncols} columns (at most {MAX_COLUMNS})"
            )));
        }
        let mut column_names = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            let len = u32::from_le_bytes(arr(take(4)?)?) as usize;
            let name = String::from_utf8(take(len)?.to_vec())
                .map_err(|_| CoreError::BadState("config name not utf-8".into()))?;
            column_names.push(name);
        }
        let column_weights = match take(1)?[0] {
            0 => None,
            _ => {
                let mut w = Vec::with_capacity(ncols);
                for _ in 0..ncols {
                    w.push(f64::from_le_bytes(arr(take(8)?)?));
                }
                Some(w)
            }
        };
        // Catalogs written while the LSH candidate tier existed end in a
        // 9-byte tail: a tier code (0 eti, 1 lsh, 2 auto) and the band
        // shape. The tier is gone and every lookup runs on the ETI, so a
        // well-formed tail is skipped; a partial tail or an unknown code
        // is still corruption. `take` is not used past this point, which
        // releases its mutable borrow of `input`.
        if !input.is_empty() {
            if input.len() < 9 {
                return Err(CoreError::BadState("truncated config".into()));
            }
            if input[0] > 2 {
                return Err(CoreError::BadState(format!(
                    "bad candidate tier code {}",
                    input[0]
                )));
            }
        }
        Ok(Config {
            q,
            h,
            scheme,
            cins,
            stop_qgram_threshold: stop,
            seed,
            column_names,
            column_weights,
            transposition,
            insert_pruning,
            max_candidates,
            osc_stopping,
            // The band shape is not persisted.
            ..Config::default()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Config {
        Config::default().with_columns(&["name", "city", "state", "zip"])
    }

    #[test]
    fn defaults_match_paper_settings() {
        let c = Config::default();
        assert_eq!(c.q, 4);
        assert_eq!(c.cins, 0.5);
        assert_eq!(c.stop_qgram_threshold, 10_000);
        assert_eq!(c.scheme, SignatureScheme::QGramsPlusToken);
    }

    #[test]
    fn labels() {
        assert_eq!(SignatureScheme::QGrams.label(2), "Q_2");
        assert_eq!(SignatureScheme::QGramsPlusToken.label(0), "Q+T_0");
        assert_eq!(base().strategy_label(), "Q+T_3");
    }

    #[test]
    fn validation_catches_bad_configs() {
        assert!(base().validate().is_ok());
        assert!(base().with_q(0).validate().is_err());
        assert!(base().with_cins(0.0).validate().is_err());
        assert!(base()
            .with_transposition(TranspositionCost::Constant(-0.1))
            .validate()
            .is_err());
        assert!(base().with_cins(1.5).validate().is_err());
        assert!(base()
            .with_signature(SignatureScheme::QGrams, 0)
            .validate()
            .is_err());
        assert!(base()
            .with_signature(SignatureScheme::QGramsPlusToken, 0)
            .validate()
            .is_ok());
        assert!(Config::default().validate().is_err()); // no columns
        assert!(base().with_column_weights(&[1.0]).validate().is_err());
        assert!(base()
            .with_column_weights(&[1.0, 1.0, -2.0, 1.0])
            .validate()
            .is_err());
        assert!(base()
            .with_column_weights(&[2.0, 1.0, 1.0, 4.0])
            .validate()
            .is_ok());
        assert!(base().with_stop_threshold(0).validate().is_err());
    }

    #[test]
    fn column_factor_normalized_to_mean_one() {
        let c = base().with_column_weights(&[2.0, 1.0, 1.0, 4.0]);
        let mean: f64 = (0..4).map(|i| c.column_factor(i)).sum::<f64>() / 4.0;
        assert!((mean - 1.0).abs() < 1e-12);
        assert!(c.column_factor(3) > c.column_factor(1));
        // No weights: factor 1 everywhere.
        assert_eq!(base().column_factor(2), 1.0);
    }

    #[test]
    fn transposition_costs() {
        assert_eq!(TranspositionCost::Average.cost(1.0, 3.0), 2.0);
        assert_eq!(TranspositionCost::Min.cost(1.0, 3.0), 1.0);
        assert_eq!(TranspositionCost::Max.cost(1.0, 3.0), 3.0);
        assert_eq!(TranspositionCost::Constant(0.25).cost(1.0, 3.0), 0.25);
    }

    #[test]
    fn encode_decode_round_trip() {
        let configs = [
            base(),
            base()
                .with_q(3)
                .with_signature(SignatureScheme::QGrams, 2)
                .with_cins(0.7)
                .with_seed(99)
                .with_stop_threshold(500)
                .without_insert_pruning(),
            base()
                .with_column_weights(&[2.0, 1.0, 0.5, 3.0])
                .with_transposition(TranspositionCost::Constant(0.3)),
            base().with_transposition(TranspositionCost::Average),
        ];
        for c in configs {
            let enc = c.encode();
            let dec = Config::decode(&enc).unwrap();
            assert_eq!(dec, c);
        }
    }

    #[test]
    fn decode_rejects_truncation() {
        let enc = base().encode();
        for cut in [0, 5, 30, enc.len() - 10, enc.len() - 4, enc.len() - 1] {
            assert!(Config::decode(&enc[..cut]).is_err(), "cut {cut}");
        }
    }

    /// `base()` as a catalog written while the LSH tier existed stored it:
    /// followed by the tier code and a band shape.
    fn with_tier_tail(tier: u8) -> Vec<u8> {
        let mut enc = base().encode();
        enc.push(tier);
        enc.extend_from_slice(&8u32.to_le_bytes());
        enc.extend_from_slice(&2u32.to_le_bytes());
        enc
    }

    #[test]
    fn decode_skips_the_retired_tier_tail() {
        for tier in [0, 1, 2] {
            assert_eq!(Config::decode(&with_tier_tail(tier)).unwrap(), base());
        }
        // A partial tail is corruption, as it always was.
        let enc = with_tier_tail(1);
        assert!(Config::decode(&enc[..enc.len() - 4]).is_err());
    }

    #[test]
    fn decode_rejects_bad_tier_code() {
        for tier in [3, 7] {
            let err = Config::decode(&with_tier_tail(tier))
                .unwrap_err()
                .to_string();
            assert!(err.contains("candidate tier"), "got: {err}");
        }
    }

    #[test]
    fn decode_rejects_a_corrupt_column_count_without_allocating() {
        let mut enc = Config::default().with_columns(&["a"]).encode();
        assert_eq!(&enc[52..56], &1u32.to_le_bytes());
        enc[52..56].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(Config::decode(&enc), Err(CoreError::BadState(_))));
    }

    #[test]
    fn values_that_overflow_their_key_byte_are_rejected() {
        let wide = |n: usize| {
            let names: Vec<String> = (0..n).map(|i| format!("c{i}")).collect();
            base().with_columns(&names.iter().map(String::as_str).collect::<Vec<_>>())
        };
        for ok in [
            base().with_signature(SignatureScheme::QGrams, 255),
            wide(256),
        ] {
            assert!(ok.validate().is_ok());
        }
        for (config, fragment) in [
            (
                base().with_signature(SignatureScheme::QGrams, 256),
                "h must be at most 255",
            ),
            (
                base().with_signature(SignatureScheme::QGramsPlusToken, 300),
                "h must be at most 255",
            ),
            (wide(257), "number of columns must be at most 256"),
        ] {
            let err = config.validate().unwrap_err().to_string();
            assert!(err.contains(fragment), "got: {err}");
        }
    }
}
