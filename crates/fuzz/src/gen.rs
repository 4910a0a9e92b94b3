//! Seeded random SUF formula generation.
//!
//! The generator grows two pools — integer-sorted and Boolean-sorted
//! terms — by repeatedly applying random constructors, mirroring the shape
//! of the paper's workloads: separation predicates with small constant
//! offsets, uninterpreted function/predicate applications, ITE cascades
//! from symbolic simulation, and an arbitrary propositional skeleton on
//! top. Everything is driven by the in-tree [`Prng`], so a `(seed, config)`
//! pair reproduces the exact formula on any machine.

use sufsat_prng::Prng;
use sufsat_suf::{TermId, TermManager};

/// Shape parameters for one generated formula.
#[derive(Debug, Clone, PartialEq)]
pub struct GenConfig {
    /// Integer symbolic constants available to the formula.
    pub int_vars: usize,
    /// Boolean symbolic constants available to the formula.
    pub bool_vars: usize,
    /// Arities of the uninterpreted functions declared for the formula.
    pub fun_arities: Vec<usize>,
    /// Arities of the uninterpreted predicates declared for the formula.
    pub pred_arities: Vec<usize>,
    /// Construction steps: each step pushes one new term into a pool.
    pub ops: usize,
    /// Succ/pred chains are drawn from `[-max_offset, max_offset]`.
    pub max_offset: i64,
    /// Probability that a step builds an `ite` (when a condition exists).
    pub ite_density: f64,
    /// Probability that a step builds a function/predicate application.
    pub app_density: f64,
}

impl Default for GenConfig {
    fn default() -> GenConfig {
        GenConfig {
            int_vars: 3,
            bool_vars: 1,
            fun_arities: vec![1, 2],
            pred_arities: vec![1],
            ops: 18,
            max_offset: 2,
            ite_density: 0.15,
            app_density: 0.2,
        }
    }
}

impl GenConfig {
    /// A configuration without uninterpreted symbols: pure separation
    /// logic, where the exhaustive small-model oracle can be consulted.
    pub fn separation_only() -> GenConfig {
        GenConfig {
            fun_arities: Vec::new(),
            pred_arities: Vec::new(),
            ..GenConfig::default()
        }
    }
}

/// Generates one random formula into `tm`.
///
/// The result is always Boolean-sorted; degenerate draws collapse to a
/// single separation atom rather than a constant.
pub fn generate(tm: &mut TermManager, rng: &mut Prng, cfg: &GenConfig) -> TermId {
    let int_vars: Vec<TermId> = (0..cfg.int_vars.max(2))
        .map(|i| tm.int_var(&format!("v{i}")))
        .collect();
    let mut bools: Vec<TermId> = (0..cfg.bool_vars)
        .map(|i| tm.bool_var(&format!("b{i}")))
        .collect();
    let funs: Vec<_> = cfg
        .fun_arities
        .iter()
        .enumerate()
        .map(|(i, &a)| tm.declare_fun(&format!("f{i}"), a.max(1)))
        .collect();
    let preds: Vec<_> = cfg
        .pred_arities
        .iter()
        .enumerate()
        .map(|(i, &a)| tm.declare_pred(&format!("p{i}"), a.max(1)))
        .collect();
    let mut ints: Vec<TermId> = int_vars;

    for _ in 0..cfg.ops {
        let pick_int = |rng: &mut Prng, ints: &[TermId]| ints[rng.random_range(0..ints.len())];
        if rng.random_bool(cfg.app_density) && !(funs.is_empty() && preds.is_empty()) {
            // Application step.
            let n_choices = funs.len() + preds.len();
            let k = rng.random_range(0..n_choices);
            if k < funs.len() {
                let f = funs[k];
                let arity = tm.fun_arity(f);
                let args: Vec<TermId> = (0..arity).map(|_| pick_int(rng, &ints)).collect();
                let t = tm.mk_app(f, args);
                ints.push(t);
            } else {
                let p = preds[k - funs.len()];
                let arity = tm.pred_arity(p);
                let args: Vec<TermId> = (0..arity).map(|_| pick_int(rng, &ints)).collect();
                let t = tm.mk_papp(p, args);
                bools.push(t);
            }
        } else if rng.random_bool(cfg.ite_density) && !bools.is_empty() {
            // ITE step, either sort.
            let c = bools[rng.random_range(0..bools.len())];
            if rng.random_bool(0.5) && bools.len() >= 2 {
                let t = bools[rng.random_range(0..bools.len())];
                let e = bools[rng.random_range(0..bools.len())];
                let ite = tm.mk_ite_bool(c, t, e);
                bools.push(ite);
            } else {
                let t = pick_int(rng, &ints);
                let e = pick_int(rng, &ints);
                let ite = tm.mk_ite_int(c, t, e);
                ints.push(ite);
            }
        } else {
            match rng.random_range(0u8..8) {
                // Separation atoms: comparisons with a constant offset.
                0 | 1 => {
                    let a = pick_int(rng, &ints);
                    let b = pick_int(rng, &ints);
                    let off = rng.random_range(-cfg.max_offset..cfg.max_offset + 1);
                    let b = tm.mk_offset(b, off);
                    let t = match rng.random_range(0u8..4) {
                        0 => tm.mk_eq(a, b),
                        1 => tm.mk_lt(a, b),
                        2 => tm.mk_le(a, b),
                        _ => tm.mk_ne(a, b),
                    };
                    bools.push(t);
                }
                // Offset chains.
                2 => {
                    let a = pick_int(rng, &ints);
                    let off = rng.random_range(-cfg.max_offset..cfg.max_offset + 1);
                    let t = tm.mk_offset(a, off.max(1));
                    ints.push(t);
                }
                // Propositional skeleton.
                3 if !bools.is_empty() => {
                    let a = bools[rng.random_range(0..bools.len())];
                    let t = tm.mk_not(a);
                    bools.push(t);
                }
                4 | 5 if bools.len() >= 2 => {
                    let a = bools[rng.random_range(0..bools.len())];
                    let b = bools[rng.random_range(0..bools.len())];
                    let t = match rng.random_range(0u8..4) {
                        0 => tm.mk_and(a, b),
                        1 => tm.mk_or(a, b),
                        2 => tm.mk_implies(a, b),
                        _ => tm.mk_iff(a, b),
                    };
                    bools.push(t);
                }
                _ => {
                    let a = pick_int(rng, &ints);
                    let b = pick_int(rng, &ints);
                    let t = tm.mk_lt(a, b);
                    bools.push(t);
                }
            }
        }
    }

    // Root: a small random combination of the most recently built Boolean
    // terms, falling back to a plain atom if the pools collapsed.
    let tail: Vec<TermId> = bools.iter().rev().take(3).copied().collect();
    match tail.len() {
        0 => {
            let a = ints[0];
            let b = ints[1 % ints.len()];
            tm.mk_lt(a, b)
        }
        1 => tail[0],
        _ => {
            if rng.random_bool(0.5) {
                tm.mk_or_many(&tail)
            } else {
                tm.mk_implies(tail[1], tail[0])
            }
        }
    }
}

/// Derives the per-case seed from the campaign seed — SplitMix-style so
/// neighbouring case indices get uncorrelated streams.
pub fn case_seed(campaign_seed: u64, case_index: usize) -> u64 {
    let mut z = campaign_seed
        .wrapping_add((case_index as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sufsat_suf::print_problem;

    #[test]
    fn generation_is_deterministic() {
        for seed in [0u64, 1, 0xdead_beef] {
            let cfg = GenConfig::default();
            let mut tm1 = TermManager::new();
            let mut rng1 = Prng::seed_from_u64(seed);
            let a = generate(&mut tm1, &mut rng1, &cfg);
            let mut tm2 = TermManager::new();
            let mut rng2 = Prng::seed_from_u64(seed);
            let b = generate(&mut tm2, &mut rng2, &cfg);
            assert_eq!(print_problem(&tm1, a), print_problem(&tm2, b), "seed {seed}");
        }
    }

    #[test]
    fn generated_formulas_are_bool_sorted_and_parse_back() {
        let cfg = GenConfig::default();
        for seed in 0..40 {
            let mut tm = TermManager::new();
            let mut rng = Prng::seed_from_u64(seed);
            let phi = generate(&mut tm, &mut rng, &cfg);
            assert_eq!(tm.sort(phi), sufsat_suf::Sort::Bool, "seed {seed}");
            let text = print_problem(&tm, phi);
            let mut tm2 = TermManager::new();
            let phi2 = sufsat_suf::parse_problem(&mut tm2, &text).expect("round-trips");
            assert_eq!(tm.dag_size(phi), tm2.dag_size(phi2), "seed {seed}");
        }
    }

    #[test]
    fn separation_only_config_generates_no_applications() {
        let cfg = GenConfig::separation_only();
        for seed in 0..20 {
            let mut tm = TermManager::new();
            let mut rng = Prng::seed_from_u64(seed);
            let phi = generate(&mut tm, &mut rng, &cfg);
            assert!(!sufsat_suf::contains_applications(&tm, phi), "seed {seed}");
        }
    }

    #[test]
    fn case_seeds_are_spread() {
        let s: Vec<u64> = (0..100).map(|i| case_seed(42, i)).collect();
        let mut dedup = s.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), s.len());
    }
}
