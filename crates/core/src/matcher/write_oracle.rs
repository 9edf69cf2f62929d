//! The oracle for reference writes: random `insert_reference`,
//! `delete_reference`, lookup, flush and close-and-open steps on a
//! file-backed matcher, each followed by a comparison with a matcher
//! bulk-built from the tuples that survive.
//!
//! The rebuild numbers the survivors densely, in tid order, so its tid
//! `i + 1` is the `i`-th surviving tid: the mapping is monotone, and tid
//! lists and top-K answers compare after it. After every step:
//! `check_invariants`, every posting row's tid set, and the frequencies
//! and |R| the weights come from. After every reopen, also the column
//! averages (bitwise) and top-K on a fixed probe set. A live handle's
//! running `Σ ln freq` drifts by ulps, and an ulp can flip a fetch, so
//! the answers wait for a reopen, which recounts from the heap.
//!
//! A stop row never converts back (DESIGN §4.5): a live row may stay a
//! stop row that the rebuild, which sees only the survivors, keeps as a
//! list. Such a row's tids are unknowable, and top-K is compared only
//! while the two agree on which rows are stop rows.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;
use proptest::test_runner::TestRng;

use super::tests::synthetic_reference;
use super::*;
use crate::postings::{decode_value, TIDS_PER_CHUNK};

/// Above one chunk, so rows split; the rows every tuple touches (state
/// "wa") pass it, and so become stop rows, once |R| does.
const STOP: usize = TIDS_PER_CHUNK + 50;
/// Tuples the matcher is built from; later inserts come from the rest
/// of the pool, round and round.
const INITIAL: usize = TIDS_PER_CHUNK + 20;
const POOL: usize = 1_000;
const CASES: u32 = 4;
/// The first case's first steps: drain the rows every tuple touches down
/// to their second chunk, refill it until a third splits off, empty the
/// second, which leaves a gap in the chunk numbers, and fill the third
/// until a fourth splits off past the gap.
const THROUGH_A_MIDDLE_CHUNK: [Op; 4] = [
    Op::Delete(0, TIDS_PER_CHUNK),
    Op::Insert(TIDS_PER_CHUNK - (INITIAL - TIDS_PER_CHUNK) + 1),
    Op::EmptyChunk(1),
    Op::Insert(TIDS_PER_CHUNK),
];

#[derive(Debug, Clone)]
enum Op {
    /// `insert_reference` of this many tuples.
    Insert(usize),
    /// `delete_reference` of a run of this many survivors, starting this
    /// far (‰) into the tid order; at 0 it drains the first chunks.
    Delete(usize, usize),
    /// `delete_reference` of every tuple in the n-th chunk of the row
    /// with the most chunks.
    EmptyChunk(usize),
    /// A lookup of the n-th probe on the live handle.
    Lookup(usize),
    Flush,
    Reopen,
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (1usize..160).prop_map(Op::Insert),
        2 => (prop_oneof![Just(0usize), 0usize..1000], 1usize..160)
            .prop_map(|(at, n)| Op::Delete(at, n)),
        1 => (0usize..3).prop_map(Op::EmptyChunk),
        1 => (0usize..8).prop_map(Op::Lookup),
        1 => Just(Op::Flush),
        2 => Just(Op::Reopen),
    ]
}

/// One posting row: whether it is a stop row, its chunk numbers and its
/// tids.
#[derive(Debug, Default)]
struct Row {
    stop: bool,
    chunks: Vec<u32>,
    tids: BTreeSet<u32>,
}

/// Every posting row of `m`, by prefix, its tids passed through `map`.
fn rows(m: &FuzzyMatcher, map: impl Fn(u32) -> u32) -> BTreeMap<Vec<u8>, Row> {
    let mut rows: BTreeMap<Vec<u8>, Row> = BTreeMap::new();
    for (key, value) in m.eti.postings.entries() {
        let (prefix, chunk) = key.split_at(key.len() - 4);
        let (_, stop, tids) = decode_value(&value).unwrap();
        let row = rows.entry(prefix.to_vec()).or_default();
        row.stop |= stop;
        row.chunks
            .push(u32::from_be_bytes(chunk.try_into().unwrap()));
        row.tids.extend(tids.into_iter().map(&map));
    }
    rows
}

/// |R| and every `(column, token)` frequency the weights come from.
fn frequencies(m: &FuzzyMatcher) -> (u64, BTreeMap<(usize, String), u32>) {
    let weights = m.weights.read();
    let freqs = weights.frequencies();
    let each = freqs.iter().map(|(col, t, f)| ((col, t.to_string()), f));
    (freqs.relation_size(), each.collect())
}

/// The top 3 for `probe` under both algorithms, as (tid, similarity bits).
fn top_k(m: &FuzzyMatcher, probe: &Record, map: impl Fn(u32) -> u32) -> Vec<Vec<(u32, u64)>> {
    [QueryMode::Basic, QueryMode::Osc]
        .map(|mode| {
            let matches = m.lookup_with(probe, 3, 0.0, mode).unwrap().matches;
            matches
                .iter()
                .map(|x| (map(x.tid), x.similarity.to_bits()))
                .collect()
        })
        .to_vec()
}

/// The customer-like pool, with a name token repeated in upper case in
/// every 7th tuple and a NULL city in every 11th: a tuple counts a token
/// once per column, and a NULL not at all.
fn pool() -> Vec<Record> {
    let pool = synthetic_reference(POOL).into_iter().enumerate();
    pool.map(|(i, r)| {
        let mut values = r.values().to_vec();
        if let Some(name) = values[0].as_mut().filter(|_| i % 7 == 0) {
            let first = name.split(' ').next().unwrap_or("").to_uppercase();
            *name = format!("{name} {first}");
        }
        if i % 11 == 0 {
            values[1] = None;
        }
        Record::from_options(values)
    })
    .collect()
}

/// Pool tuples with D2-style errors: the name in four of five probes,
/// each other column in about half.
fn probes(pool: &[Record]) -> Vec<Record> {
    (0..8)
        .map(|i| {
            let mut values = pool[i * 97 % POOL].values().to_vec();
            if i % 5 != 4 {
                let mut name = values[0].take().unwrap().into_bytes();
                name.swap(1, 2);
                values[0] = Some(String::from_utf8(name).unwrap());
            }
            if i % 2 == 0 {
                values[1] = values[1].take().map(|c| c.chars().skip(1).collect());
            }
            if i % 3 == 0 {
                values[2] = None;
            }
            if i % 2 == 1 {
                values[3] = Some("98999".into());
            }
            Record::from_options(values)
        })
        .collect()
}

/// What the cases got to, summed: the edge cases must all happen.
#[derive(Debug, Default)]
struct Seen {
    stop_rows: usize,
    splits: usize,
    middle_gaps: usize,
    answers_compared: usize,
}

fn config() -> Config {
    Config::default()
        .with_columns(&["name", "city", "state", "zip"])
        .with_stop_threshold(STOP)
}

/// Compare `m` with a rebuild of `survivors`, the rows `m` had `before`
/// this step telling which chunks split; `reopened` adds the weights and
/// the answers. Returns `m`'s rows.
fn check(
    m: &FuzzyMatcher,
    survivors: &BTreeMap<u32, Record>,
    before: &BTreeMap<Vec<u8>, Row>,
    reopened: bool,
    pool: &[Record],
    seen: &mut Seen,
) -> BTreeMap<Vec<u8>, Row> {
    assert_eq!(
        m.check_invariants().unwrap().reference_tuples,
        survivors.len()
    );
    let db = Database::in_memory().unwrap();
    let rebuilt = FuzzyMatcher::build(&db, "w", survivors.values().cloned(), config()).unwrap();
    let dense: BTreeMap<u32, u32> = survivors.keys().copied().zip(1..).collect();
    let to_dense = |tid| {
        *dense
            .get(&tid)
            .unwrap_or_else(|| panic!("deleted tid {tid} posted"))
    };

    let (ours, theirs) = (rows(m, to_dense), rows(&rebuilt, |tid| tid));
    let mut stops_agree = true;
    for prefix in ours.keys().chain(theirs.keys()).collect::<BTreeSet<_>>() {
        let (ours, theirs) = (ours.get(prefix), theirs.get(prefix));
        let stop = |row: Option<&Row>| row.is_some_and(|r| r.stop);
        assert!(
            stop(ours) || !stop(theirs),
            "{prefix:?} is a stop row only in the rebuild"
        );
        if stop(ours) {
            stops_agree &= stop(theirs);
        } else {
            let tids = |row: Option<&Row>| row.map(|r| r.tids.clone()).unwrap_or_default();
            assert_eq!(tids(ours), tids(theirs), "row {prefix:?}");
        }
    }
    assert_eq!(frequencies(m), frequencies(&rebuilt));

    for (prefix, row) in &ours {
        let last = row.chunks.last().copied().unwrap_or(0);
        let was = before.get(prefix).and_then(|r| r.chunks.last().copied());
        seen.stop_rows += usize::from(row.stop);
        seen.middle_gaps += usize::from(last as usize + 1 > row.chunks.len());
        seen.splits += usize::from(!row.stop && was.is_some_and(|was| last > was));
    }
    if reopened {
        let averages = |m: &FuzzyMatcher| {
            let weights = m.weights.read();
            (0..4)
                .map(|col| weights.column_average(col).to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(averages(m), averages(&rebuilt));
        for probe in probes(pool).iter().filter(|_| stops_agree) {
            let answers = top_k(&rebuilt, probe, |tid| tid);
            assert_eq!(top_k(m, probe, to_dense), answers, "{probe}");
            seen.answers_compared += 1;
        }
    }
    ours
}

/// Run `ops` on a fresh file-backed matcher, checking after every step.
fn run(ops: &[Op], pool: &[Record], seen: &mut Seen) {
    let name = format!("fm-core-write-oracle-{}.db", std::process::id());
    let path = std::env::temp_dir().join(name);
    let _ = std::fs::remove_file(&path);
    let mut db = Database::open_file(&path, 64).unwrap();
    let initial = pool[..INITIAL].iter().cloned();
    let mut m = FuzzyMatcher::build(&db, "w", initial.clone(), config()).unwrap();
    let mut survivors: BTreeMap<u32, Record> = (1..).zip(initial).collect();
    let mut next_tid = INITIAL as u32 + 1;
    let mut before = check(&m, &survivors, &BTreeMap::new(), true, pool, seen);
    for op in ops {
        let doomed: Vec<u32> = match *op {
            Op::Delete(at, n) => {
                let at = at * survivors.len() / 1000;
                survivors.keys().skip(at).take(n).copied().collect()
            }
            Op::EmptyChunk(nth) => {
                let longest = before.iter().max_by_key(|(_, row)| row.chunks.len());
                let key = longest.map(|(prefix, row)| {
                    let chunk = row.chunks[nth % row.chunks.len()];
                    [prefix, &chunk.to_be_bytes()[..]].concat()
                });
                let chunk = m
                    .eti
                    .postings
                    .entries()
                    .into_iter()
                    .find(|e| Some(&e.0) == key.as_ref());
                chunk.map_or(Vec::new(), |(_, value)| decode_value(&value).unwrap().2)
            }
            _ => Vec::new(),
        };
        for tid in doomed {
            let record = survivors.remove(&tid).unwrap();
            assert_eq!(m.delete_reference(tid).unwrap(), record);
        }
        match *op {
            Op::Insert(n) => {
                for _ in 0..n {
                    let record = &pool[next_tid as usize % POOL];
                    assert_eq!(m.insert_reference(record).unwrap(), next_tid);
                    survivors.insert(next_tid, record.clone());
                    next_tid += 1;
                }
            }
            Op::Lookup(i) => {
                let matches = m.lookup(&probes(pool)[i], 3, 0.0).unwrap().matches;
                assert!(matches.iter().all(|x| survivors.contains_key(&x.tid)));
            }
            Op::Flush => db.flush().unwrap(),
            Op::Reopen => {
                db.flush().unwrap();
                drop((m, db));
                db = Database::open_file(&path, 64).unwrap();
                m = FuzzyMatcher::open(&db, "w").unwrap();
            }
            Op::Delete(..) | Op::EmptyChunk(_) => {}
        }
        let reopened = matches!(op, Op::Reopen);
        before = check(&m, &survivors, &before, reopened, pool, seen);
    }
    drop((m, db));
    std::fs::remove_file(&path).unwrap();
}

/// `FM_WRITE_ORACLE_CASES` raises the case count.
#[test]
fn reference_writes_match_a_rebuild_of_the_survivors() {
    let cases = std::env::var("FM_WRITE_ORACLE_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(CASES);
    let pool = pool();
    let mut rng = TestRng::for_test("reference_writes_match_a_rebuild_of_the_survivors");
    let mut seen = Seen::default();
    for case in 0..cases {
        let mut ops = proptest::collection::vec(op(), 4..12).generate(&mut rng);
        if case == 0 {
            ops.splice(..0, THROUGH_A_MIDDLE_CHUNK);
        }
        let described = format!("{ops:?}");
        proptest::runner::run_case(case, cases, &described, || run(&ops, &pool, &mut seen));
    }
    assert!(seen.stop_rows > 0, "{seen:?}");
    assert!(seen.splits > 1, "{seen:?}");
    assert!(seen.middle_gaps > 0, "{seen:?}");
    assert!(seen.answers_compared > 0, "{seen:?}");
}
