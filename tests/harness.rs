//! Shared helpers for the integration tests.

use fm_core::{Config, FuzzyMatcher, LookupTrace, MetricsRegistry, MetricsSnapshot, Record};
use fm_datagen::{generate_customers, GeneratorConfig, CUSTOMER_COLUMNS};
use fm_store::Database;

/// The paper's Table 1 Organization reference relation.
pub fn table1() -> Vec<Record> {
    vec![
        Record::new(&["Boeing Company", "Seattle", "WA", "98004"]),
        Record::new(&["Bon Corporation", "Seattle", "WA", "98014"]),
        Record::new(&["Companions", "Seattle", "WA", "98024"]),
    ]
}

/// The paper's Table 2 erroneous inputs (I1–I4).
pub fn table2() -> Vec<Record> {
    vec![
        Record::new(&["Beoing Company", "Seattle", "WA", "98004"]),
        Record::new(&["Beoing Co.", "Seattle", "WA", "98004"]),
        Record::new(&["Boeing Corporation", "Seattle", "WA", "98004"]),
        Record::from_options(vec![
            Some("Company Beoing".into()),
            Some("Seattle".into()),
            None,
            Some("98014".into()),
        ]),
    ]
}

/// Config for the organization schema with paper defaults.
pub fn org_config() -> Config {
    Config::default().with_columns(&["name", "city", "state", "zip"])
}

/// Config for the synthetic customer schema.
pub fn customer_config() -> Config {
    Config::default().with_columns(&CUSTOMER_COLUMNS)
}

/// A small synthetic customer relation.
pub fn customers(n: usize, seed: u64) -> Vec<Record> {
    generate_customers(&GeneratorConfig::new(n, seed))
}

/// Build an in-memory matcher over `reference`.
pub fn build(reference: &[Record], config: Config) -> (Database, FuzzyMatcher) {
    let db = Database::in_memory().expect("database");
    let matcher =
        FuzzyMatcher::build(&db, "test", reference.iter().cloned(), config).expect("matcher build");
    (db, matcher)
}

/// The registry moved from `before` to `after` by exactly `traces`: fold
/// them one by one through a fresh registry and compare every counter by
/// name, and the latency histograms bucket by bucket.
pub fn assert_registry_moved_by(
    before: &MetricsSnapshot,
    after: &MetricsSnapshot,
    traces: &[LookupTrace],
) {
    let expected = MetricsRegistry::new();
    for t in traces {
        t.check_consistent().expect("trace invariants");
        expected.record(t);
    }
    let expected = expected.snapshot();
    let moved: Vec<(&str, u64)> = after
        .named()
        .zip(before.named())
        .map(|((name, a), (_, b))| (name, a - b))
        .collect();
    assert_eq!(moved, expected.named().collect::<Vec<_>>());
    assert_eq!(
        fm_core::telemetry::histogram_delta(&after.latency, &before.latency),
        expected.latency
    );
}
