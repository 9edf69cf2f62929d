//! The candidate-source seam: where candidate tids come from.
//!
//! The query algorithms in [`super::basic`] and [`super::osc`] implement
//! the paper's probabilistic scoring math — admission thresholds, stop
//! credit, score bounds, OSC gates — over a stream of *weighted probe
//! units*. Which index answers a probe is a separate concern: the exact
//! **ETI** tier probes one signature coordinate per unit (§4.2), the
//! **LSH** tier probes one min-hash band key per unit (DESIGN §12).
//!
//! [`CandidateSource`] is that seam. A source expands the token-level
//! [`QueryPlan`] into its own units (each carrying an absolute weight
//! share of `w(u)`) and answers a probe by streaming the posting list,
//! chunk by chunk off the pinned index leaf, into the caller's sink, then
//! reporting a [`Probed`] outcome; the algorithms never see which tier
//! produced a tid-list, and no tier ever materializes one. Tier-specific
//! trace counters (`qgrams_probed` vs `lsh_probes`) are folded in by the
//! source itself, while the shared counters — posting-list lengths, score
//! table traffic — keep identical semantics across tiers so
//! [`LookupTrace::check_consistent`] holds for both.

use crate::error::Result;
use crate::eti::Eti;
use crate::lsh::LshIndex;
use crate::metrics::LookupTrace;
use crate::postings::Chunk;
use crate::query::QueryPlan;

pub(crate) use crate::postings::Probed;

/// One probe scheduled against a candidate tier, carrying the absolute
/// weight it contributes toward `w(u)`. Unit weights of a plan sum to
/// `w(Q_p)` regardless of tier, so the admission and bound math is
/// tier-agnostic. `what` is the tier's own address of the row to probe.
#[derive(Debug, Clone)]
pub(crate) struct SourceUnit<U> {
    /// Absolute weight: `w(t) × share` of the token this unit came from.
    pub weight: f64,
    pub what: U,
}

/// A tier that turns a query plan into candidate tids.
pub(crate) trait CandidateSource {
    /// What one unit physically probes (may borrow from the plan it was
    /// expanded from). Its order is the deterministic tiebreak between
    /// units of equal weight: the OSC ordering must be reproducible across
    /// runs and replicas.
    type Unit<'p>: Ord;

    /// Expand the token-level plan into weighted probe units.
    fn plan_units<'p>(&self, plan: &'p QueryPlan<'_>) -> Vec<SourceUnit<Self::Unit<'p>>>;

    /// Probe one unit: stream its posting list into `sink` and fold the
    /// tier's counters into the trace. `key` is the query's reusable key
    /// buffer. `sink` runs under the index leaf's read pin and must not
    /// touch the store.
    fn probe(
        &self,
        unit: &Self::Unit<'_>,
        key: &mut Vec<u8>,
        trace: &mut LookupTrace,
        sink: impl FnMut(Chunk<'_>),
    ) -> Result<Probed>;
}

/// The exact tier: every signature coordinate of every token, answered by
/// the Error Tolerant Index.
pub(crate) struct EtiSource<'a> {
    pub eti: &'a Eti,
}

/// An ETI probe: one signature coordinate of one token.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct GramUnit<'p> {
    pub column: u8,
    pub coordinate: u8,
    pub gram: &'p str,
}

impl CandidateSource for EtiSource<'_> {
    type Unit<'p> = GramUnit<'p>;

    fn plan_units<'p>(&self, plan: &'p QueryPlan<'_>) -> Vec<SourceUnit<GramUnit<'p>>> {
        plan.grams
            .iter()
            .map(|g| SourceUnit {
                weight: g.weight,
                what: GramUnit {
                    column: g.column,
                    coordinate: g.coordinate,
                    gram: &g.gram,
                },
            })
            .collect()
    }

    fn probe(
        &self,
        unit: &GramUnit<'_>,
        key: &mut Vec<u8>,
        trace: &mut LookupTrace,
        sink: impl FnMut(Chunk<'_>),
    ) -> Result<Probed> {
        trace.qgrams_probed += 1;
        let (probed, rows) = self
            .eti
            .probe(unit.gram, unit.coordinate, unit.column, key, sink)?;
        trace.eti_rows += rows;
        match probed {
            Probed::Missing => {}
            Probed::Stop => trace.stop_qgrams += 1,
            Probed::List { len } => {
                trace.tid_list_entries += len;
                trace.tid_list_max = trace.tid_list_max.max(len);
            }
        }
        Ok(probed)
    }
}

/// The approximate tier: one probe per min-hash band per token, answered
/// by the [`LshIndex`]. A token's weight is split evenly over its `b`
/// bands, so unit weights still sum to `w(u)` and the admission threshold
/// keeps its meaning; recall is governed by the banding curve
/// `1-(1-s^r)^b` instead of per-coordinate agreement.
pub(crate) struct LshSource<'a> {
    pub lsh: &'a LshIndex,
}

/// An LSH probe: one band key of one token.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct BandUnit {
    pub column: u8,
    pub band: u8,
    pub key: u64,
}

impl CandidateSource for LshSource<'_> {
    type Unit<'p> = BandUnit;

    fn plan_units(&self, plan: &QueryPlan<'_>) -> Vec<SourceUnit<BandUnit>> {
        let bands = self.lsh.bands() as f64;
        let mut units = Vec::new();
        for t in &plan.tokens {
            let share = t.weight / bands;
            for (band, key) in self.lsh.band_keys(t.token).into_iter().enumerate() {
                units.push(SourceUnit {
                    weight: share,
                    what: BandUnit {
                        column: t.column,
                        band: band as u8,
                        key,
                    },
                });
            }
        }
        units
    }

    fn probe(
        &self,
        unit: &BandUnit,
        key: &mut Vec<u8>,
        trace: &mut LookupTrace,
        sink: impl FnMut(Chunk<'_>),
    ) -> Result<Probed> {
        trace.lsh_probes += 1;
        let (probed, _rows) = self
            .lsh
            .probe(unit.column, unit.band, unit.key, key, sink)?;
        // Stop bands elide their tid-list just like stop q-grams, but they
        // are not q-grams: only the weight credit is shared, the
        // `stop_qgrams` counter stays an ETI quantity.
        if let Probed::List { len } = probed {
            trace.lsh_collisions += 1;
            trace.tid_list_entries += len;
            trace.tid_list_max = trace.tid_list_max.max(len);
        }
        Ok(probed)
    }
}
