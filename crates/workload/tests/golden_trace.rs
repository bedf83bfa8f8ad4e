//! Golden-trace fence: the generator's output pinned across commits.
//!
//! DESIGN.md's "Determinism" invariant says a configuration and a seed
//! fix the trace. `deterministic_generation` checks that within one
//! build; this file checks it *across* builds. Each configuration's
//! catalog sizes and every field of every event, in order, are folded
//! into one FNV-1a digest, and the digest is compared with the value
//! recorded when the fence was written. A change that moves one object
//! id in one query, or one bit of one density, fails here.
//!
//! The default tests cover small configurations (≈ 1 s in debug). The
//! `#[ignore]`d test covers the four benchmark scenarios at full length
//! (≈ 5 s in release):
//!
//! ```sh
//! cargo test -q --release -p delta_workload --test golden_trace -- --ignored
//! ```

use delta_workload::{Event, QueryKind, SyntheticSurvey, WorkloadConfig};

/// 64-bit FNV-1a over little-endian words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

fn kind_tag(k: QueryKind) -> u64 {
    match k {
        QueryKind::Cone => 0,
        QueryKind::Range => 1,
        QueryKind::SelfJoin => 2,
        QueryKind::Aggregate => 3,
        QueryKind::Scan => 4,
        QueryKind::Selection => 5,
    }
}

/// Digest of a generated survey: catalog sizes and densities, then every
/// event field in trace order.
fn digest(config: &WorkloadConfig) -> u64 {
    let survey = SyntheticSurvey::generate(config);
    let mut h = Fnv::new();
    h.u64(survey.catalog.len() as u64);
    h.u64(survey.catalog.total_bytes());
    for o in survey.catalog.iter() {
        h.u64(u64::from(o.id.0));
        h.u64(o.size_bytes);
        h.u64(o.density.to_bits());
    }
    h.u64(survey.trace.len() as u64);
    for e in survey.trace.iter() {
        match e {
            Event::Query(q) => {
                h.u64(0);
                h.u64(q.seq);
                h.u64(q.objects.len() as u64);
                for o in &q.objects {
                    h.u64(u64::from(o.0));
                }
                h.u64(q.result_bytes);
                h.u64(q.tolerance);
                h.u64(kind_tag(q.kind));
            }
            Event::Update(u) => {
                h.u64(1);
                h.u64(u.seq);
                h.u64(u64::from(u.object.0));
                h.u64(u.bytes);
            }
        }
    }
    h.0
}

fn sized(base: WorkloadConfig, n_queries: usize, n_updates: usize, seed: u64) -> WorkloadConfig {
    WorkloadConfig {
        n_queries,
        n_updates,
        seed,
        ..base
    }
}

fn check(cases: &[(&str, WorkloadConfig, u64)]) {
    let mut wrong = Vec::new();
    for (name, config, want) in cases {
        let got = digest(config);
        if got != *want {
            wrong.push(format!("{name}: digest {got:#018x}, pinned {want:#018x}"));
        }
    }
    assert!(
        wrong.is_empty(),
        "generated traces moved:\n{}",
        wrong.join("\n")
    );
}

#[test]
fn small_configurations_match_their_pinned_digests() {
    check(&[
        ("small()", WorkloadConfig::small(), 0x4d06_e028_ff9e_7680),
        (
            "sdss_like 20k+20k seed 13",
            sized(WorkloadConfig::sdss_like(), 20_000, 20_000, 13),
            0x9200_827e_57bf_c892,
        ),
        (
            "sdss_like 5k+20k seed 7",
            sized(WorkloadConfig::sdss_like(), 5_000, 20_000, 7),
            0x0ff0_9a18_54a2_84fd,
        ),
        (
            "small 40k+40k seed 8",
            sized(WorkloadConfig::small(), 40_000, 40_000, 8),
            0x6310_fe1c_ddaa_fcf4,
        ),
    ]);
}

/// The four benchmark scenarios at their full generated length (before
/// the benchmark's per-seed byte jitter).
#[test]
#[ignore = "benchmark scale: run in release with --ignored"]
fn benchmark_scenarios_match_their_pinned_digests() {
    check(&[
        (
            "sdss_mixed: sdss_like 300k+300k scenario 13",
            sized(WorkloadConfig::sdss_like(), 300_000, 300_000, 13),
            0xa840_98e0_636e_8360,
        ),
        (
            "update_surge: sdss_like 70k+280k scenario 7",
            sized(WorkloadConfig::sdss_like(), 70_000, 280_000, 7),
            0x747e_350e_aa5d_c6b0,
        ),
        (
            "small_frames: small 800k+800k seed 20100607",
            sized(WorkloadConfig::small(), 800_000, 800_000, 20_100_607),
            0x2513_97f0_0793_1a2e,
        ),
        (
            "routed_replicated: small 1.1M+1.1M scenario 8",
            sized(WorkloadConfig::small(), 1_100_000, 1_100_000, 8),
            0xbf0e_2023_e20a_3c46,
        ),
    ]);
}
