//! Seeded inputs of every workload. The program under test sees only the
//! texts and systems built here; each carries the answer its construction
//! plants.

use std::collections::BTreeMap;

use sufsat_prng::Prng;
use sufsat_suf::print_problem;
use sufsat_workloads::{
    counter_system, load_store_unit, ring_system, suite, toggle_system, uf_datapath_system,
    Benchmark, SystemBenchmark,
};

/// One formula to decide, as the text a user would submit.
#[derive(Clone)]
pub struct Item {
    /// Suite name, with a `!` suffix for a negation.
    pub name: String,
    pub text: String,
    /// Planted validity: suite formulas are valid by construction and
    /// their negations are false under every interpretation.
    pub valid: bool,
}

/// Suite formulas that stop at HYBRID(700)'s translation budget, so they
/// have no answer to check and are left out of every workload.
const OVER_BUDGET: [&str; 4] = ["ooo-11d1", "ooo-12d1", "ooo-13d1", "ooo-14d1"];

/// Valid suite formulas whose certified decision takes 50–500 ms on the
/// reference host: heavy enough that DRAT replay dominates, light enough
/// for several rounds per run. Lighter ones certify as fast as the
/// negations and would put the median between the two modes.
pub const CERTIFY_SET: [&str; 8] = [
    "dlx-6x3",
    "driver-28",
    "driver-44",
    "driver-64",
    "lsu-12",
    "lsu-15",
    "lsu-19",
    "ooo-6d2",
];

/// The text of `b`'s formula and of its negation.
fn texts_of(b: &Benchmark) -> (String, String) {
    let mut tm = b.tm.clone();
    let negated = tm.mk_not(b.formula);
    (print_problem(&b.tm, b.formula), print_problem(&tm, negated))
}

/// The formula and its negation as two items, with symbols renamed by
/// `rng`.
fn pair(name: &str, b: &Benchmark, rng: &mut Prng) -> [Item; 2] {
    let (text, negated) = texts_of(b);
    [
        Item {
            name: name.to_owned(),
            text: rename(&text, rng),
            valid: true,
        },
        Item {
            name: format!("{name}!"),
            text: rename(&negated, rng),
            valid: false,
        },
    ]
}

/// `oneshot`: the 45 suite formulas that HYBRID(700) finishes, and their
/// negations.
pub fn oneshot(seed: u64) -> Vec<Item> {
    let mut rng = Prng::seed_from_u64(seed);
    suite()
        .iter()
        .filter(|b| !OVER_BUDGET.contains(&b.name.as_str()))
        .flat_map(|b| pair(&b.name, b, &mut rng))
        .collect()
}

/// `certify`: [`CERTIFY_SET`] and its negations. Each valid formula comes
/// twice, so two thirds of the operations replay a DRAT proof and the
/// median operation is one of them.
pub fn certify(seed: u64) -> Vec<Item> {
    let mut rng = Prng::seed_from_u64(seed);
    let mut out = Vec::new();
    for b in suite()
        .iter()
        .filter(|b| CERTIFY_SET.contains(&b.name.as_str()))
    {
        let [valid, negated] = pair(&b.name, b, &mut rng);
        out.push(Item {
            text: rename(&valid.text, &mut rng),
            ..valid.clone()
        });
        out.push(valid);
        out.push(negated);
    }
    out
}

/// `bmc`: one system per `sufsat-workloads` transition-system family,
/// scaled up so each check takes a few hundred milliseconds and checked to
/// a fixed depth. The session reuses toggle encodings, spends ring time in
/// encoding (no conflicts), re-encodes the UF datapath at most depths, and
/// finds the counter's planted counterexample at step 128.
pub fn bmc_systems() -> Vec<SystemBenchmark> {
    let mut toggle = toggle_system(128);
    toggle.bound = 8;
    let mut ring = ring_system(64);
    ring.bound = 64;
    let mut ufdp = uf_datapath_system(3);
    ufdp.bound = 6;
    vec![toggle, ring, ufdp, counter_system(128)]
}

/// One `serve` request.
pub struct Request {
    /// Index of the distinct formula, unique across the rounds of a run.
    pub formula: usize,
    pub text: String,
    pub valid: bool,
    /// First occurrence of its formula in the stream.
    pub first: bool,
    /// A repeat whose symbols were renamed.
    pub renamed: bool,
}

/// Requests in one `serve` round.
pub const SERVE_ROUND: usize = 100;
/// Distinct formulas each `serve` round introduces; the other requests of
/// the round repeat them.
pub const SERVE_FRESH: usize = 10;

/// Round `round` of the `serve` request stream: [`SERVE_ROUND`] requests,
/// [`SERVE_FRESH`] of which introduce a formula no earlier round had,
/// the first request among them. The rest repeat a formula of the round
/// introduced before them, drawn with a Zipf(1) popularity skew, and a
/// third of those repeats carry renamed symbols. Every round has the same
/// make-up, so the share of cache misses does not depend on how many
/// rounds a run gets through.
pub fn serve_round(seed: u64, round: u32) -> Vec<Request> {
    let mut rng = Prng::seed_from_u64(seed.rotate_left(32) ^ u64::from(round));

    // Which positions introduce a new formula: exactly SERVE_FRESH of
    // them, the first request among them.
    let mut is_new: Vec<bool> = (0..SERVE_ROUND).map(|i| i < SERVE_FRESH).collect();
    shuffle(&mut is_new, &mut rng);
    if let Some(first_new) = is_new.iter().position(|&n| n) {
        is_new.swap(0, first_new);
    }

    // The distinct formulas and their popularity weights.
    let pool: Vec<(String, bool)> = (0..SERVE_FRESH)
        .map(|i| serve_formula(i, &mut rng))
        .collect();
    let mut ranks: Vec<usize> = (0..SERVE_FRESH).collect();
    shuffle(&mut ranks, &mut rng);
    let weight: Vec<f64> = ranks.iter().map(|&r| 1.0 / (r + 1) as f64).collect();

    let base = round as usize * SERVE_FRESH;
    let mut out = Vec::with_capacity(SERVE_ROUND);
    let mut introduced = 0usize;
    let mut introduced_weight = 0.0;
    for &new in &is_new {
        let (local, renamed) = if new {
            introduced += 1;
            introduced_weight += weight[introduced - 1];
            (introduced - 1, false)
        } else {
            let mut x =
                rng.random_range(0u64..1 << 53) as f64 / (1u64 << 53) as f64 * introduced_weight;
            let mut pick = introduced - 1;
            for (k, w) in weight[..introduced].iter().enumerate() {
                if x < *w {
                    pick = k;
                    break;
                }
                x -= w;
            }
            (pick, rng.random_bool(1.0 / 3.0))
        };
        let (text, valid) = &pool[local];
        out.push(Request {
            formula: base + local,
            text: if renamed {
                rename(text, &mut rng)
            } else {
                text.clone()
            },
            valid: *valid,
            first: new,
            renamed,
        });
    }
    out
}

/// The `i`-th distinct formula of the serve pool: a seeded
/// `load_store_unit(32)` formula, or its negation for odd `i`. Its 20 KB
/// text takes about 2 ms to parse and canonicalize, so a cache hit is
/// mostly work rather than thread wake-ups, and it decides in 30–70 ms on
/// a miss whatever the generator seed. Pipeline, translation-validation
/// and driver formulas with texts that long decide in 0.1 s to seconds,
/// and the last two vary widely with the generator seed.
fn serve_formula(i: usize, rng: &mut Prng) -> (String, bool) {
    let b = load_store_unit(32, rng.next_u64());
    let (text, negated) = texts_of(&b);
    if i.is_multiple_of(2) {
        (rename(&text, rng), true)
    } else {
        (rename(&negated, rng), false)
    }
}

fn shuffle<T>(v: &mut [T], rng: &mut Prng) {
    for i in (1..v.len()).rev() {
        let j = rng.random_range(0..i + 1);
        v.swap(i, j);
    }
}

/// Shuffles `items` in place with `rng` (Fisher–Yates).
pub fn shuffled<T: Clone>(items: &[T], rng: &mut Prng) -> Vec<T> {
    let mut v = items.to_vec();
    shuffle(&mut v, rng);
    v
}

/// Renames every declared symbol of a printed problem to a fresh seeded
/// name. Validity is unchanged, and the result canonicalizes to the same
/// cache key.
pub fn rename(text: &str, rng: &mut Prng) -> String {
    let mut declared = Vec::new();
    for line in text.lines() {
        let Some((head, rest)) = line.split_once(' ') else {
            continue;
        };
        let rest = rest.strip_suffix(')').unwrap_or(rest);
        match head {
            "(vars" | "(bvars" => declared.extend(rest.split_whitespace()),
            "(funs" | "(preds" => {
                declared.extend(rest.split_whitespace().filter_map(|t| t.strip_prefix('(')))
            }
            _ => {}
        }
    }
    let tag = rng.random_range(0u32..1 << 20);
    let mut ids: Vec<usize> = (0..declared.len()).collect();
    shuffle(&mut ids, rng);
    let map: BTreeMap<&str, String> = declared
        .iter()
        .zip(ids)
        .map(|(name, id)| (*name, format!("r{tag:x}_{id}")))
        .collect();

    let mut out = String::with_capacity(text.len() + text.len() / 4);
    let mut token = String::new();
    let flush = |token: &mut String, out: &mut String| {
        out.push_str(
            map.get(token.as_str())
                .map_or(token.as_str(), String::as_str),
        );
        token.clear();
    };
    for c in text.chars() {
        if c == '(' || c == ')' || c.is_whitespace() {
            flush(&mut token, &mut out);
            out.push(c);
        } else {
            token.push(c);
        }
    }
    flush(&mut token, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sufsat_suf::{parse_problem, TermManager};

    #[test]
    fn renaming_keeps_the_cache_key() {
        let b = sufsat_workloads::pipeline(3, 2, 7);
        let text = print_problem(&b.tm, b.formula);
        let renamed = rename(&text, &mut Prng::seed_from_u64(1));
        assert_ne!(text, renamed);
        let key = |t: &str| {
            let mut tm = TermManager::new();
            let phi = parse_problem(&mut tm, t).expect("printed problems parse");
            sufsat_cache::canonicalize(&tm, phi).bytes
        };
        assert_eq!(key(&text), key(&renamed));
    }

    #[test]
    fn inputs_depend_only_on_the_seed() {
        let a = serve_round(3, 1);
        let b = serve_round(3, 1);
        assert_eq!(a.len(), SERVE_ROUND);
        assert_eq!(a.iter().filter(|r| r.first).count(), SERVE_FRESH);
        assert!(a[0].first);
        assert!(a
            .iter()
            .all(|r| (SERVE_FRESH..2 * SERVE_FRESH).contains(&r.formula)));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!((x.formula, &x.text), (y.formula, &y.text));
        }
        assert_ne!(a[0].text, serve_round(3, 2)[0].text);
        assert_eq!(oneshot(5).len(), 90);
        assert_eq!(oneshot(5)[0].text, oneshot(5)[0].text);
        assert_eq!(certify(5).len(), 24);
    }
}
