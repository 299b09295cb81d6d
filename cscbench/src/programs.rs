//! Seeded inputs: the suite programs a workload analyses, the analyses of
//! the paper's tables, and the committed rows seed 0 must reproduce.

use std::collections::BTreeMap;

use csc_workloads::Benchmark;

use crate::json::{parse_reply, Fields};

/// SplitMix64 finalizer: a cheap, well-mixed 64-bit hash.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Mixes the benchmark seed into a base seed. Seed 0 keeps the base, so
/// seed 0 reproduces the suite exactly.
pub fn mix(base: u64, seed: u64) -> u64 {
    if seed == 0 {
        base
    } else {
        splitmix64(base ^ splitmix64(seed))
    }
}

/// A small deterministic generator for picking query variables.
pub struct Rng(u64);

impl Rng {
    /// A generator seeded from `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(splitmix64(seed ^ 0x5eed))
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        self.0 = splitmix64(self.0);
        (self.0 % n as u64) as usize
    }
}

/// The suite program `name` with the benchmark seed mixed into its
/// generator seed.
pub fn program(name: &str, seed: u64) -> Benchmark {
    let mut b = csc_workloads::by_name(name).expect("a suite program");
    b.config.seed = mix(b.config.seed, seed);
    b
}

/// The metric key of a Tables 1–2 analysis label (`row_s.<key>`).
pub fn metric_key(label: &str) -> &'static str {
    match label {
        "CI" => "ci",
        "2obj" => "2obj",
        "2type" => "2type",
        "Zipper-e" => "zipper",
        "CSC" => "csc",
        other => panic!("no metric key for analysis `{other}`"),
    }
}

/// What a row must reproduce: its four precision metrics and the
/// sequential engine's exact propagation and PFG-edge counts.
pub type RowFacts = ([usize; 4], (u64, u64));

/// The sequential (`"engine": "seq"`, one thread) rows of the committed
/// `BENCH_main.json`, keyed by `(program, analysis label)`. Each row is a
/// flat object on a line of its own.
pub fn committed_rows() -> Result<BTreeMap<(String, String), RowFacts>, String> {
    let mut rows = BTreeMap::new();
    for line in include_str!("../../BENCH_main.json").lines() {
        let line = line.trim().trim_end_matches(',');
        if !line.starts_with("{\"program\"") {
            continue;
        }
        let r = parse_reply(line)?;
        if r.str("engine") != Some("seq") || r.u64("threads") != Some(1) {
            continue;
        }
        let field = |k: &str| r.u64(k).ok_or_else(|| format!("row without `{k}`: {line}"));
        let metrics = [
            field("fail_casts")? as usize,
            field("reach_methods")? as usize,
            field("poly_calls")? as usize,
            field("call_edges")? as usize,
        ];
        let counts = (field("propagations")?, field("pfg_edges")?);
        let key = (
            r.str("program").unwrap_or_default().to_owned(),
            r.str("analysis").unwrap_or_default().to_owned(),
        );
        rows.insert(key, (metrics, counts));
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_zero_keeps_the_suite() {
        let suite = csc_workloads::by_name("jedit").unwrap();
        assert_eq!(program("jedit", 0).config.seed, suite.config.seed);
        assert_ne!(program("jedit", 1).config.seed, suite.config.seed);
        assert_ne!(
            program("jedit", 1).config.seed,
            program("jedit", 2).config.seed
        );
    }

    #[test]
    fn committed_rows_cover_every_table_row() {
        let rows = committed_rows().expect("BENCH_main.json parses");
        for p in ["hsqldb", "findbugs", "jython", "jedit"] {
            for a in csc_bench::analyses() {
                let key = (p.to_owned(), a.label().to_owned());
                assert!(rows.contains_key(&key), "{p}/{}", a.label());
                metric_key(a.label());
            }
        }
        let csc = rows[&("hsqldb".to_owned(), "CSC".to_owned())];
        assert_eq!(csc.0, [100, 348, 102, 2304]);
    }
}
