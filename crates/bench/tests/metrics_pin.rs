//! Pins of the run-level figures that `RunMetrics` aggregates.
//!
//! * `fig3` stdout (cold-start breakdown per suite and the warm
//!   Observation-1 share) matches a checked-in golden rendering
//!   (re-bless with `BLESS_GOLDEN=1`),
//! * `baseline_single_ms` — the unloaded mean response that sizes every
//!   closed-loop client pool — keeps its exact bits on one app per suite.

use std::process::Command;

use specfaas_bench::runner::baseline_single_ms;

#[test]
fn fig3_output_matches_golden_file() {
    let bin = env!("CARGO_BIN_EXE_fig3");
    let out = Command::new(bin)
        .output()
        .unwrap_or_else(|e| panic!("failed to run {bin}: {e}"));
    assert!(out.status.success(), "fig3 failed: {}", out.status);
    let got = String::from_utf8(out.stdout).expect("fig3 prints UTF-8");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/fig3.txt");
    if std::env::var_os("BLESS_GOLDEN").is_some() {
        std::fs::write(path, &got).expect("failed to bless golden file");
        return;
    }
    let want = std::fs::read_to_string(path)
        .expect("golden file missing; run with BLESS_GOLDEN=1 to create it");
    assert_eq!(
        got, want,
        "fig3 drifted from the golden file; \
         re-bless with BLESS_GOLDEN=1 if the change is intentional"
    );
}

/// `(suite, n, baseline_single_ms(first app, SEED, n).to_bits())`.
const SINGLE_MS_PINS: [(&str, u64, u64); 8] = [
    ("FaaSChain", 3, 4629502727678226771),
    ("FaaSChain", 100, 4629561162821641828),
    ("TrainTicket", 3, 4639407046324364772),
    ("TrainTicket", 100, 4639433761818091824),
    ("Alibaba", 3, 4641901512752346693),
    ("Alibaba", 100, 4641433605639561505),
    ("DAG", 3, 4636359153179673581),
    ("DAG", 100, 4636415694934745297),
];

const SEED: u64 = 0xFAA5;

#[test]
fn baseline_single_ms_bits_are_pinned() {
    let got: Vec<(&str, u64, u64)> = SINGLE_MS_PINS
        .iter()
        .map(|&(suite, n, _)| {
            let bundle = &specfaas_apps::suite_named(suite).apps[0];
            (suite, n, baseline_single_ms(bundle, SEED, n).to_bits())
        })
        .collect();
    assert_eq!(got, SINGLE_MS_PINS, "baseline_single_ms drifted");
}
