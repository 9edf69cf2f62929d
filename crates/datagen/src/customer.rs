//! Synthetic `Customer[name, city, state, zipcode]` generation.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use fm_core::Record;

use crate::pools::{
    tail_surname, Zipf, BUSINESS_SUFFIXES, CITIES, FIRST_NAMES, INDUSTRY_WORDS, NAME_SUFFIXES,
    SUFFIX_ABBREVIATIONS, SURNAMES,
};

/// Column names of the generated relation (matches the paper's Customer
/// schema).
pub const CUSTOMER_COLUMNS: [&str; 4] = ["name", "city", "state", "zip"];

/// Generator parameters.
#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    /// Number of tuples to generate.
    pub size: usize,
    /// Master seed; everything is a pure function of it.
    pub seed: u64,
    /// Extra synthesized surnames appended to the core pool. More tail →
    /// more distinct tokens → higher average IDF, like a real customer
    /// base. Scaled so the paper's ratio (~0.2 distinct tokens per tuple)
    /// is approached at large sizes.
    pub surname_tail: usize,
    /// Fraction of business-style customers (two content tokens plus a
    /// frequent suffix token like 'corporation').
    pub business_fraction: f64,
    /// Probability that a generated tuple spawns a *confuser sibling* — a
    /// distinct real-world entity sharing most tokens (same name in another
    /// city, same distinctive token with another suffix, a neighboring
    /// surname, another first name in the same family). Real warehouse
    /// data is full of these near-misses; they are what make the matching
    /// problem non-trivial and what separates `fms` from `ed`.
    pub sibling_probability: f64,
}

impl GeneratorConfig {
    /// Defaults scaled to `size`. The business fraction mirrors an
    /// enterprise customer warehouse (the paper's relation belongs to one):
    /// a large share of organization names full of frequent low-IDF tokens
    /// like 'corporation' — the regime the paper's similarity argument is
    /// about.
    pub fn new(size: usize, seed: u64) -> GeneratorConfig {
        GeneratorConfig {
            size,
            seed,
            surname_tail: (size / 8).clamp(1000, 150_000),
            business_fraction: 0.45,
            sibling_probability: 0.35,
        }
    }
}

/// Generate the reference relation.
pub fn generate_customers(config: &GeneratorConfig) -> Vec<Record> {
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0xC057_0AE0_D47A_6E4Eu64);
    let surname_count = SURNAMES.len() + config.surname_tail;
    let surname_zipf = Zipf::new(surname_count, 1.05);
    let first_zipf = Zipf::new(FIRST_NAMES.len(), 0.9);
    let city_zipf = Zipf::new(CITIES.len(), 1.0);
    let suffix_zipf = Zipf::new(BUSINESS_SUFFIXES.len(), 0.8);

    let surname_at = |rank: usize| -> String {
        if rank < SURNAMES.len() {
            SURNAMES[rank].to_string()
        } else {
            tail_surname(rank - SURNAMES.len())
        }
    };
    // Real reference data is internally inconsistent about conventions:
    // a quarter of business suffixes appear in an abbreviated spelling.
    let pick_suffix = {
        let suffix_zipf = suffix_zipf.clone();
        move |rng: &mut StdRng| -> &'static str {
            let canonical = BUSINESS_SUFFIXES[suffix_zipf.sample(rng)];
            if rng.gen_bool(0.25) {
                if let Some((_, abbrs)) = SUFFIX_ABBREVIATIONS
                    .iter()
                    .find(|(full, _)| *full == canonical)
                {
                    return abbrs[rng.gen_range(0..abbrs.len())];
                }
            }
            canonical
        }
    };

    let mut rows: Vec<Record> = Vec::with_capacity(config.size);
    while rows.len() < config.size {
        // The fields of the row last pushed: each sibling derives from it.
        let mut base = {
            let name = if rng.gen_bool(config.business_fraction) {
                // Business customer: "[industry] <surname> <suffix>". The
                // industry words are mid-frequency and the suffixes very
                // frequent, reproducing the paper's 'boeing company' vs
                // 'bon corporation' confusability.
                let a = surname_at(surname_zipf.sample(&mut rng));
                let suffix = pick_suffix(&mut rng);
                if rng.gen_bool(0.5) {
                    let industry = INDUSTRY_WORDS[rng.gen_range(0..INDUSTRY_WORDS.len())];
                    format!("{industry} {a} {suffix}")
                } else if rng.gen_bool(0.3) {
                    let b = surname_at(surname_zipf.sample(&mut rng));
                    format!("{a} {b} {suffix}")
                } else {
                    format!("{a} {suffix}")
                }
            } else {
                // Individual: "first [m] last [suffix]".
                let first = FIRST_NAMES[first_zipf.sample(&mut rng)];
                let last = surname_at(surname_zipf.sample(&mut rng));
                let mut name = first.to_string();
                if rng.gen_bool(0.15) {
                    let initial = (b'a' + rng.gen_range(0..26u8)) as char;
                    name.push(' ');
                    name.push(initial);
                }
                name.push(' ');
                name.push_str(&last);
                if rng.gen_bool(0.03) {
                    name.push(' ');
                    name.push_str(NAME_SUFFIXES[rng.gen_range(0..NAME_SUFFIXES.len())]);
                }
                name
            };
            let (city, state, zip_base) = CITIES[city_zipf.sample(&mut rng)];
            let zip = format!("{:03}{:02}", zip_base, rng.gen_range(0..100u32));
            [name, city.to_string(), state.to_string(), zip]
        };
        rows.push(Record::new(&[&base[0], &base[1], &base[2], &base[3]]));

        // Optionally spawn confuser siblings of the tuple just pushed.
        while rows.len() < config.size && rng.gen_bool(config.sibling_probability) {
            let [name, base_city, base_state, base_zip] = &base;
            let mut tokens: Vec<String> = name.split(' ').map(str::to_string).collect();
            let variant = rng.gen_range(0..4u8);
            let (new_name, relocate) = match variant {
                // (a) same name, different city (a branch office).
                0 => (name.to_string(), true),
                // (b) swap the trailing suffix-like token for another
                //     frequent one ("barker company" vs "barker corporation").
                1 => {
                    let last = tokens.len() - 1;
                    let current = tokens[last].clone();
                    let mut replacement = pick_suffix(&mut rng).to_string();
                    if replacement == current {
                        replacement = BUSINESS_SUFFIXES
                            [(suffix_zipf.sample(&mut rng) + 1) % BUSINESS_SUFFIXES.len()]
                        .to_string();
                    }
                    tokens[last] = replacement;
                    (tokens.join(" "), rng.gen_bool(0.5))
                }
                // (c) swap the leading token (another first name / industry
                //     word) while keeping the rest.
                2 => {
                    tokens[0] = if rng.gen_bool(0.5) {
                        FIRST_NAMES[first_zipf.sample(&mut rng)].to_string()
                    } else {
                        INDUSTRY_WORDS[rng.gen_range(0..INDUSTRY_WORDS.len())].to_string()
                    };
                    (tokens.join(" "), false)
                }
                // (d) replace the most distinctive token with a neighboring
                //     synthesized surname (small edit distance).
                _ => {
                    let i = if tokens.len() >= 2 { 1 } else { 0 };
                    tokens[i] = tail_surname(rng.gen_range(0..1000));
                    (tokens.join(" "), rng.gen_bool(0.5))
                }
            };
            let (city, state, zip) = if relocate {
                let (c, s, z) = CITIES[city_zipf.sample(&mut rng)];
                (
                    c.to_string(),
                    s.to_string(),
                    format!("{:03}{:02}", z, rng.gen_range(0..100u32)),
                )
            } else {
                // Same city; usually a nearby zip.
                let zip = format!("{}{:02}", &base_zip[..3], rng.gen_range(0..100u32));
                (base_city.clone(), base_state.clone(), zip)
            };
            if new_name == *name && !relocate {
                break; // would be an exact duplicate; skip
            }
            base = [new_name, city, state, zip];
            rows.push(Record::new(&[&base[0], &base[1], &base[2], &base[3]]));
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use fm_core::record::TokenizedRecord;
    use fm_text::Tokenizer;
    use std::collections::{HashMap, HashSet};

    fn tokenize_all(rows: &[Record]) -> Vec<TokenizedRecord> {
        let t = Tokenizer::new();
        rows.iter().map(|r| r.tokenize(&t)).collect()
    }

    #[test]
    fn deterministic_for_a_seed() {
        let cfg = GeneratorConfig::new(500, 42);
        assert_eq!(generate_customers(&cfg), generate_customers(&cfg));
        let other = GeneratorConfig::new(500, 43);
        assert_ne!(generate_customers(&cfg), generate_customers(&other));
    }

    #[test]
    fn shape_and_columns() {
        let rows = generate_customers(&GeneratorConfig::new(200, 7));
        assert_eq!(rows.len(), 200);
        for r in &rows {
            assert_eq!(r.arity(), 4);
            let name = r.get(0).unwrap();
            assert!(name.split(' ').count() >= 2, "name {name} too short");
            let state = r.get(2).unwrap();
            assert_eq!(state.len(), 2);
            let zip = r.get(3).unwrap();
            assert_eq!(zip.len(), 5);
            assert!(zip.chars().all(|c| c.is_ascii_digit()));
        }
    }

    #[test]
    fn city_state_zip_are_correlated() {
        let rows = generate_customers(&GeneratorConfig::new(2000, 11));
        // Every city maps to exactly one state and one zip prefix.
        let mut city_state: HashMap<&str, &str> = HashMap::new();
        let mut city_zip3: HashMap<&str, &str> = HashMap::new();
        for r in &rows {
            let city = r.get(1).unwrap();
            let state = r.get(2).unwrap();
            let zip3 = &r.get(3).unwrap()[..3];
            if let Some(prev) = city_state.insert(city, state) {
                assert_eq!(prev, state, "city {city} maps to two states");
            }
            if let Some(prev) = city_zip3.insert(city, zip3) {
                assert_eq!(prev, zip3, "city {city} maps to two zip prefixes");
            }
        }
    }

    #[test]
    fn token_frequencies_are_skewed() {
        let rows = generate_customers(&GeneratorConfig::new(5000, 3));
        let tokenized = tokenize_all(&rows);
        let mut name_counts: HashMap<&str, usize> = HashMap::new();
        for t in &tokenized {
            for tok in t.column(0) {
                *name_counts.entry(tok).or_insert(0) += 1;
            }
        }
        let mut counts: Vec<usize> = name_counts.values().copied().collect();
        counts.sort_unstable_by(|a, b| b.cmp(a));
        // Heavy head...
        assert!(counts[0] > 100, "head token too rare: {}", counts[0]);
        // ...and a long tail of rare tokens.
        let singletons = counts.iter().filter(|&&c| c <= 2).count();
        assert!(
            singletons > counts.len() / 3,
            "tail too thin: {singletons}/{}",
            counts.len()
        );
    }

    #[test]
    fn distinct_token_growth() {
        // Distinct tokens should grow with relation size (the paper's 1.7M
        // relation has ~367k distinct tokens; at small scale we just check
        // monotone growth and a sane ratio).
        let count_distinct = |n: usize| -> usize {
            let rows = generate_customers(&GeneratorConfig::new(n, 5));
            let tokenized = tokenize_all(&rows);
            let mut set: HashSet<(usize, String)> = HashSet::new();
            for t in &tokenized {
                for (col, tok) in t.iter_tokens() {
                    set.insert((col, tok.to_string()));
                }
            }
            set.len()
        };
        let d1 = count_distinct(1000);
        let d2 = count_distinct(8000);
        assert!(d2 > d1);
        assert!(d2 > 800, "too few distinct tokens: {d2}");
    }

    #[test]
    fn business_fraction_respected() {
        let rows = generate_customers(&GeneratorConfig {
            size: 4000,
            seed: 9,
            surname_tail: 2000,
            business_fraction: 0.5,
            sibling_probability: 0.0,
        });
        let mut suffixes: HashSet<&str> = BUSINESS_SUFFIXES.iter().copied().collect();
        for (_, abbrs) in SUFFIX_ABBREVIATIONS {
            suffixes.extend(abbrs.iter().copied());
        }
        let businesses = rows
            .iter()
            .filter(|r| {
                r.get(0)
                    .unwrap()
                    .split(' ')
                    .next_back()
                    .map(|t| suffixes.contains(t))
                    .unwrap_or(false)
            })
            .count();
        let frac = businesses as f64 / rows.len() as f64;
        assert!((0.4..0.6).contains(&frac), "business fraction {frac}");
    }
}
