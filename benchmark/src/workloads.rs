//! The four workloads. Each is a fixed multiset of jobs; `--seed` only
//! chooses their order (and, for `gather_wake`, the order of the probes in
//! the source text), so counts such as simulated time and allocations per
//! job read the same under every seed and two seeds differ only in timing.
//!
//! The piece sizes below are part of the benchmark's definition: they are
//! constants so that every commit measures pieces of the same length.

use crate::stats::Rng;
use pods::{ClientId, Value};

/// `(name, why)` of every workload, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "simple_solo",
        "The paper's SIMPLE at n=32 on a pinned prepared program, one job in flight: sp exec, \
         the native engine and I-structure write-then-read hits do the work; service and compile cost ~0.",
    ),
    (
        "gather_wake",
        "128 split-phase probes parked on one producer: spawn, park, deferred-read registration, \
         wake-up delivery and return routing dominate - the same layers as simple_solo, read before write.",
    ),
    (
        "tiny_burst",
        "Rounds of 16 tiny FILL jobs under two client ids, submitted together: admission, fair dispatch, \
         completion hooks and waiter wake-up are most of a job; the only workload with many jobs in flight.",
    ),
    (
        "cold_mix",
        "Source text in, result out: every job compiles one of eight small programs and runs it, so the \
         front end and the prepared-cache miss path dominate; includes the carried-recurrence shape.",
    ),
];

/// One job of a piece.
#[derive(Debug, Clone, Copy)]
pub struct Job {
    /// Index into [`Workload::distinct`].
    pub distinct: usize,
    /// The client the job is submitted under.
    pub client: ClientId,
}

/// One distinct `(program, arguments)` pair; the oracle runs each once.
#[derive(Debug, Clone)]
pub struct Distinct {
    /// Index into [`Workload::sources`].
    pub program: usize,
    /// Arguments of `main`.
    pub args: Vec<Value>,
}

/// The inputs of one workload under one seed.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Workload name.
    pub name: &'static str,
    /// Program sources.
    pub sources: Vec<String>,
    /// Distinct jobs.
    pub distinct: Vec<Distinct>,
    /// The jobs of the longest piece, in submission order.
    pub jobs: Vec<Job>,
    /// How many of `jobs` a piece runs on each lane (`seq`, `native1`,
    /// `nativeW`, `asyncW`, `traced`). A lane may run a shorter prefix only
    /// where every job is the same job, so all lanes run one multiset.
    pub lane_jobs: [usize; 5],
    /// Jobs submitted together before any is awaited.
    pub round: usize,
    /// Whether a job starts from source text (compile, prepare, run) on the
    /// pooled runtimes; the sequential reference always runs warm.
    pub cold: bool,
}

/// Jobs per piece of `simple_solo` (each is one round). A job takes 10 to
/// 25 ms, so only `nativeW`, whose p90 is taken over the twenty jobs of a
/// pair of pieces, runs ten. A block then lasts 0.12 s (0.19 s traced) and a
/// 30-second run has 200 (140), which keeps the floor of 60 within reach
/// when the host is at its slowest, 1.7 times slower.
const SIMPLE_JOBS: [usize; 5] = [1, 1, 10, 2, 2];
/// Mesh size of `simple_solo`, the paper's middle size.
const SIMPLE_N: i64 = 32;
/// Probes of `gather_wake`.
const GATHER_PROBES: usize = 128;
/// Jobs per piece of `gather_wake` (each is one round); the sequential
/// interpreter needs a third of the pooled engines' time for one.
const GATHER_JOBS: [usize; 5] = [300, 120, 120, 120, 120];
/// Rounds per piece and jobs per round of `tiny_burst`.
const BURST_ROUNDS: usize = 40;
const BURST_ROUND: usize = 16;
/// The mesh sizes of one `tiny_burst` round: 6..=10 three times, and an 8.
const BURST_SIZES: [i64; BURST_ROUND] = [6, 7, 8, 9, 10, 6, 7, 8, 9, 10, 6, 7, 8, 9, 10, 8];
/// How many times a piece of `cold_mix` goes through its eight programs.
const COLD_PASSES: usize = 6;

/// A gather with `probes.len()` split-phase `probe` calls in the given
/// order: every probe instance parks on an unwritten element, then the
/// producer loop's writes wake them. The sum is right-nested so no add
/// needs a return value until every probe is in flight. (The shape of
/// `gather_source` in `crates/bench/benches/engines.rs`.)
pub fn gather_source(probes: &[usize]) -> String {
    let (last, rest) = probes.split_last().expect("at least one probe");
    let mut expr = format!("probe(a, {last})");
    for i in rest.iter().rev() {
        expr = format!("probe(a, {i}) + ({expr})");
    }
    format!(
        "def main(n) {{\n    a = array(n);\n    for i = 0 to n - 1 {{ a[i] = i * 3; }}\n    \
         return {expr};\n}}\ndef probe(a, i) {{ return a[i] + 1; }}\n"
    )
}

/// A compute-dense fill (degree-6 Horner polynomial per element): the shape
/// prepare-time specialization fuses into super-ops.
const POLY: &str = "def main(n) {
    a = array(n);
    for i = 0 to n - 1 {
        a[i] = (((((i * 3 + 1) * i + 7) * i + 11) * i + 13) * i + 17) * i + 19;
    }
    return a;
}";

fn int_args(n: i64) -> Vec<Value> {
    vec![Value::Int(n)]
}

/// The inputs of workload `name` under `seed`; `None` for an unknown name.
pub fn build(name: &str, seed: u64) -> Option<Workload> {
    let mut rng = Rng::new(seed);
    let anonymous = ClientId::ANONYMOUS;
    let workload = match name {
        "simple_solo" => Workload {
            name: "simple_solo",
            sources: vec![pods_workloads::simple::SIMPLE.to_string()],
            distinct: vec![Distinct {
                program: 0,
                args: int_args(SIMPLE_N),
            }],
            jobs: vec![
                Job {
                    distinct: 0,
                    client: anonymous
                };
                SIMPLE_JOBS[2]
            ],
            lane_jobs: SIMPLE_JOBS,
            round: 1,
            cold: false,
        },
        "gather_wake" => {
            let mut probes: Vec<usize> = (0..GATHER_PROBES).collect();
            rng.shuffle(&mut probes);
            Workload {
                name: "gather_wake",
                sources: vec![gather_source(&probes)],
                distinct: vec![Distinct {
                    program: 0,
                    args: int_args(GATHER_PROBES as i64),
                }],
                jobs: vec![
                    Job {
                        distinct: 0,
                        client: anonymous
                    };
                    GATHER_JOBS[0]
                ],
                lane_jobs: GATHER_JOBS,
                round: 1,
                cold: false,
            }
        }
        "tiny_burst" => {
            let sizes: Vec<i64> = (6..=10).collect();
            let mut jobs = Vec::with_capacity(BURST_ROUNDS * BURST_ROUND);
            for _ in 0..BURST_ROUNDS {
                let mut round = BURST_SIZES;
                rng.shuffle(&mut round);
                for (i, n) in round.iter().enumerate() {
                    jobs.push(Job {
                        distinct: sizes.iter().position(|s| s == n).expect("size in 6..=10"),
                        client: ClientId(1 + (i % 2) as u64),
                    });
                }
            }
            Workload {
                name: "tiny_burst",
                sources: vec![pods_workloads::FILL.to_string()],
                distinct: sizes
                    .iter()
                    .map(|&n| Distinct {
                        program: 0,
                        args: int_args(n),
                    })
                    .collect(),
                lane_jobs: [jobs.len(); 5],
                jobs,
                round: BURST_ROUND,
                cold: false,
            }
        }
        "cold_mix" => {
            let gather16: Vec<usize> = (0..16).collect();
            let programs: [(String, Vec<Value>); 8] = [
                (pods_workloads::FILL.to_string(), int_args(8)),
                (pods_workloads::MATMUL.to_string(), int_args(4)),
                (pods_workloads::STENCIL.to_string(), int_args(8)),
                (pods_workloads::RECURRENCE.to_string(), int_args(48)),
                (gather_source(&gather16), int_args(16)),
                (pods_workloads::simple::SIMPLE.to_string(), int_args(8)),
                (pods_workloads::PAPER_EXAMPLE.to_string(), vec![]),
                (POLY.to_string(), int_args(32)),
            ];
            let mut jobs = Vec::with_capacity(COLD_PASSES * programs.len());
            for _ in 0..COLD_PASSES {
                let mut pass: Vec<usize> = (0..programs.len()).collect();
                rng.shuffle(&mut pass);
                jobs.extend(pass.into_iter().map(|distinct| Job {
                    distinct,
                    client: anonymous,
                }));
            }
            Workload {
                name: "cold_mix",
                distinct: (0..programs.len())
                    .map(|program| Distinct {
                        program,
                        args: programs[program].1.clone(),
                    })
                    .collect(),
                sources: programs.into_iter().map(|(source, _)| source).collect(),
                lane_jobs: [jobs.len(); 5],
                jobs,
                round: 1,
                cold: true,
            }
        }
        _ => return None,
    };
    Some(workload)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// How often each distinct job occurs in a piece.
    fn multiset(w: &Workload) -> Vec<usize> {
        let mut counts = vec![0; w.distinct.len()];
        for job in &w.jobs {
            counts[job.distinct] += 1;
        }
        counts
    }

    #[test]
    fn the_seed_permutes_a_fixed_multiset() {
        for (name, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'), "{name}");
            let a = build(name, 1).unwrap();
            let b = build(name, 2).unwrap();
            let again = build(name, 1).unwrap();
            assert_eq!(a.sources, again.sources, "{name}: same seed, same inputs");
            let order = |w: &Workload| w.jobs.iter().map(|j| j.distinct).collect::<Vec<_>>();
            assert_eq!(order(&a), order(&again), "{name}");
            assert_eq!(
                multiset(&a),
                multiset(&b),
                "{name}: seeds share the multiset"
            );
            assert!(
                2 * a.lane_jobs[2] >= 20,
                "{name}: p90 needs 20 jobs a pair of pieces"
            );
            for jobs in a.lane_jobs {
                assert!(jobs > 0 && jobs <= a.jobs.len(), "{name}");
                assert_eq!(jobs % a.round, 0, "{name}: whole rounds");
                assert!(
                    jobs == a.jobs.len() || a.distinct.len() == 1,
                    "{name}: a shorter piece would run another multiset"
                );
            }
        }
        assert!(build("nonesuch", 1).is_none());
        let (a, b) = (
            build("tiny_burst", 1).unwrap(),
            build("tiny_burst", 2).unwrap(),
        );
        assert_ne!(
            a.jobs.iter().map(|j| j.distinct).collect::<Vec<_>>(),
            b.jobs.iter().map(|j| j.distinct).collect::<Vec<_>>()
        );
        assert_ne!(
            build("gather_wake", 1).unwrap().sources,
            build("gather_wake", 2).unwrap().sources
        );
    }

    #[test]
    fn every_source_compiles() {
        for (name, _) in WORKLOADS {
            for source in build(name, 3).unwrap().sources {
                pods::compile(&source).unwrap_or_else(|e| panic!("{name}: {e}"));
            }
        }
    }
}
