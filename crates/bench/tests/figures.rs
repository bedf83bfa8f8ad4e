//! Figure fence: every §6 experiment's small-scale artifact pinned across
//! commits, plus the orderings between policies that hold at that scale.
//!
//! Each experiment's pretty JSON — byte for byte what `figures --scale
//! small` writes — is folded into one FNV-1a digest and compared with the
//! value recorded from the per-figure binaries this runner replaced. A
//! change that moves one byte of one figure fails here; a deliberate one
//! re-records the digest and says why.
//!
//! The orderings are the paper's shapes that the small configuration
//! reproduces. Fig. 8(b)'s "minimum near 91 objects" and the headline's
//! "VCover ≈ ½ NoCache" do not hold at this scale (the minimum is at 533
//! objects, VCover is 0.94× NoCache) and are deliberately not asserted.

use delta_bench::figures::{Run, EXPERIMENTS};
use delta_bench::Scale;
use delta_core::CostLedger;
use serde_json::{FromJson, Value};
use std::sync::OnceLock;

/// The small-scale run, its base survey generated once for every test.
fn run() -> &'static Run {
    static RUN: OnceLock<Run> = OnceLock::new();
    RUN.get_or_init(|| Run::new(Scale::Small))
}

/// 64-bit FNV-1a over the artifact's pretty JSON bytes.
fn digest(artifact: &Value) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in artifact.to_json_string_pretty().bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Runs `name` and checks its artifact against the pinned digest.
fn fenced(name: &str, pinned: u64) -> Value {
    let (_, experiment) = EXPERIMENTS
        .into_iter()
        .find(|(n, _)| *n == name)
        .expect("known experiment");
    let artifact = experiment(run());
    let got = digest(&artifact);
    assert_eq!(got, pinned, "{name}_small.json moved: digest {got:#018x}");
    artifact
}

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.get(key).unwrap_or_else(|| panic!("no {key:?} member"))
}

fn total(report: &Value) -> u64 {
    let ledger = CostLedger::from_json(field(report, "ledger")).expect("ledger");
    ledger.total().bytes()
}

/// `SimReport::cost_after(warmup)` read back from the artifact.
fn post_warmup(report: &Value, warmup: u64) -> u64 {
    let series = field(report, "series").as_array().expect("series");
    let at = series
        .iter()
        .find(|p| field(p, "seq").as_u64().unwrap() >= warmup)
        .map_or(total(report), |p| {
            field(p, "cumulative_bytes").as_u64().unwrap()
        });
    total(report).saturating_sub(at)
}

fn report<'a>(reports: &'a Value, policy: &str) -> &'a Value {
    let reports = reports.as_array().expect("reports");
    reports
        .iter()
        .find(|r| field(r, "policy").as_str() == Some(policy))
        .unwrap_or_else(|| panic!("no {policy} report"))
}

#[test]
fn headline() {
    fenced("headline", 0x3b0d_0245_90b6_138e);
}

#[test]
fn fig7a() {
    fenced("fig7a", 0x6f35_124e_7406_0a15);
}

#[test]
fn fig7b() {
    let reports = fenced("fig7b", 0x5c1d_1319_940b_a4b9);
    let post = |policy| post_warmup(report(&reports, policy), run().warmup);
    let (soptimal, replica, nocache) = (post("SOptimal"), post("Replica"), post("NoCache"));
    assert!(
        soptimal <= replica && replica < nocache,
        "post-warm-up SOptimal {soptimal} <= Replica {replica} < NoCache {nocache}"
    );
}

#[test]
fn fig8a() {
    let sweep = fenced("fig8a", 0xc8d3_3070_13c8_b2f2);
    let points = sweep.as_array().expect("sweep");
    let series = |policy| -> Vec<u64> {
        points
            .iter()
            .map(|p| total(report(field(p, "reports"), policy)))
            .collect()
    };
    let (nocache, replica) = (series("NoCache"), series("Replica"));
    assert!(
        nocache.windows(2).all(|w| w[0] == w[1]),
        "NoCache not flat: {nocache:?}"
    );
    assert!(
        replica.windows(2).all(|w| w[0] < w[1]),
        "Replica not rising: {replica:?}"
    );
}

#[test]
fn fig8b() {
    fenced("fig8b", 0x2346_dbe9_9df5_d7b4);
}

#[test]
fn hindsight() {
    let totals = fenced("hindsight", 0x5655_784f_d2ea_4a13);
    let get = |key| field(&totals, key).as_u64().unwrap();
    let (hind, sopt) = (get("hindsight_total"), get("soptimal_total"));
    assert!(hind <= sopt, "hindsight {hind} > SOptimal {sopt}");
}

#[test]
fn preship() {
    fenced("preship", 0xa387_81bd_165b_ff0a);
}

#[test]
fn ablation() {
    fenced("ablation", 0xcbc0_603a_e2ea_2fd9);
}
