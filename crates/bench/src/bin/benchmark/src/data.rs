//! Inputs, all derived from `--seed`: the reference relation, the dirty
//! inputs with their ground truth, and `mixed_rw`'s inserts and delete
//! picks. The program sees only what is generated here.

use std::collections::HashSet;
use std::time::Instant;

use fm_core::Record;
use fm_datagen::{
    generate_customers, make_inputs, ErrorModel, ErrorSpec, GeneratorConfig, D2_PROBS,
};
use fm_text::hash::{mix64, splitmix64};

use crate::spec::{Kind, Workload};

/// Fresh customers and delete picks generated for `mixed_rw`; the write
/// schedule wraps around the inserts and stops deleting when picks run out.
const WRITE_POOL: usize = 4096;

pub struct Data {
    pub reference: Vec<Record>,
    /// D2 Type-I dirty copies of seeded reference tuples.
    pub inputs: Vec<Record>,
    /// `targets[i]` indexes the reference tuple `inputs[i]` was made from.
    pub targets: Vec<usize>,
    /// Bytes of the reference values: the user data `space_amp` divides by.
    pub raw_bytes: u64,
    /// Customers to insert (`mixed_rw` only).
    pub fresh: Vec<Record>,
    /// Tids to delete, none of them any input's target (`mixed_rw` only).
    pub delete_picks: Vec<u32>,
    pub datagen_s: f64,
}

pub fn value_bytes(record: &Record) -> u64 {
    record
        .values()
        .iter()
        .map(|v| v.as_ref().map_or(0, |s| s.len() as u64))
        .sum()
}

fn derive(seed: u64, stream: u64) -> u64 {
    mix64(seed ^ mix64(stream))
}

pub fn generate(workload: &Workload, seed: u64) -> Data {
    let started = Instant::now();
    let reference = generate_customers(&GeneratorConfig::new(workload.tuples, derive(seed, 1)));
    let dataset = make_inputs(
        &reference,
        workload.inputs,
        &ErrorSpec::new(&D2_PROBS, ErrorModel::TypeI, derive(seed, 2)),
    );
    let (fresh, delete_picks) = if workload.kind == Kind::Mixed {
        let fresh = generate_customers(&GeneratorConfig::new(WRITE_POOL, derive(seed, 3)));
        let targeted: HashSet<usize> = dataset.targets.iter().copied().collect();
        let mut state = derive(seed, 4);
        let mut seen = HashSet::new();
        let mut picks = Vec::new();
        // Bounded: a relation whose every tuple is targeted yields no picks.
        for _ in 0..WRITE_POOL * 8 {
            if picks.len() == WRITE_POOL.min(reference.len() / 4) {
                break;
            }
            let index = (splitmix64(&mut state) % reference.len() as u64) as usize;
            if !targeted.contains(&index) && seen.insert(index) {
                picks.push(index as u32 + 1); // build assigns tids 1..=n in order
            }
        }
        (fresh, picks)
    } else {
        (Vec::new(), Vec::new())
    };
    Data {
        raw_bytes: reference.iter().map(value_bytes).sum(),
        reference,
        inputs: dataset.inputs,
        targets: dataset.targets,
        fresh,
        delete_picks,
        datagen_s: started.elapsed().as_secs_f64(),
    }
}

impl Data {
    /// The paper's accuracy rule: input `i` is answered correctly when the
    /// top-1 is its seed tuple, or a tuple identical to it in content.
    pub fn top1_correct(&self, i: usize, tid: u32, values: &[Option<String>]) -> bool {
        let target = self.targets[i];
        tid as usize == target + 1 || values == self.reference[target].values()
    }
}
