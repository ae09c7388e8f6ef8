//! End-to-end tests for the speculation-health scoreboard and the
//! windowed snapshot stream (DESIGN.md, "Streaming observability").
//!
//! These assert the scoreboard's acceptance properties on real engine
//! runs: arming the scoreboard instruments leaves run metrics
//! bit-identical to a plain run, the streaming percentiles track exact
//! sorted-sample quantiles within the histogram's documented error
//! bound, the windowed JSONL snapshots advance monotonically, and the
//! rendered table / JSONL rows cover every app that ran.

use specfaas_bench::runner::{prepared_baseline, prepared_spec, scoreboard_closed};
use specfaas_core::SpecConfig;
use specfaas_platform::scoreboard::render_table;
use specfaas_platform::RunMetrics;
use specfaas_sim::{LogHistogram, SimDuration};

const SEED: u64 = 0x5c0e;
const TRAIN: u64 = 120;
const REQUESTS: u64 = 60;

fn window() -> SimDuration {
    SimDuration::from_millis(250)
}

fn assert_metrics_eq(a: &RunMetrics, b: &RunMetrics, label: &str) {
    assert_eq!(a.completed, b.completed, "{label}: completed diverged");
    assert_eq!(a.failed, b.failed, "{label}: failed diverged");
    assert_eq!(
        a.useful_core_time, b.useful_core_time,
        "{label}: useful core-time diverged"
    );
    assert_eq!(
        a.squashed_core_time, b.squashed_core_time,
        "{label}: squashed core-time diverged"
    );
    assert_eq!(
        a.mean_response_ms(),
        b.mean_response_ms(),
        "{label}: latency diverged"
    );
}

#[test]
fn scoreboard_instruments_are_invisible_to_run_metrics() {
    for suite in specfaas_apps::all_suites() {
        let bundle = &suite.apps[0];
        let label = format!("{}/{}", suite.name, bundle.app.name);

        let gen = bundle.make_input.clone();
        let mut plain_engine = prepared_spec(bundle, SpecConfig::full(), SEED, TRAIN);
        let plain = plain_engine.run_closed(REQUESTS, move |r| gen(r));

        let gen = bundle.make_input.clone();
        let mut armed_engine = prepared_spec(bundle, SpecConfig::full(), SEED, TRAIN);
        let (_, _, armed) =
            scoreboard_closed(&mut armed_engine, "spec", REQUESTS, window(), move |r| {
                gen(r)
            });

        assert_metrics_eq(&plain, &armed, &label);
    }
}

#[test]
fn scoreboard_row_is_consistent_on_both_engines() {
    let bundle = specfaas_apps::faaschain::hotel_booking();
    for engine in ["spec", "baseline"] {
        let gen = bundle.make_input.clone();
        let (row, _, m) = if engine == "spec" {
            let mut e = prepared_spec(&bundle, SpecConfig::full(), SEED, TRAIN);
            scoreboard_closed(&mut e, "spec", REQUESTS, window(), move |r| gen(r))
        } else {
            let mut e = prepared_baseline(&bundle, SEED);
            scoreboard_closed(&mut e, "baseline", REQUESTS, window(), move |r| gen(r))
        };

        assert_eq!(row.engine, engine);
        assert_eq!(row.completed, m.completed, "{engine}: completed mismatch");
        assert_eq!(row.failed, m.failed, "{engine}: failed mismatch");
        assert!(
            row.p50_ms <= row.p99_ms && row.p99_ms <= row.p999_ms,
            "{engine}: percentiles not monotone: {} {} {}",
            row.p50_ms,
            row.p99_ms,
            row.p999_ms
        );
        // The squash-depth histogram counts one entry per measured
        // completion (depth 0 for clean requests).
        assert_eq!(
            row.squash_depth.count(),
            m.records.len() as u64,
            "{engine}: squash-depth histogram misses completions"
        );
        assert!(
            (0.0..=1.0).contains(&row.wasted_fraction()),
            "{engine}: wasted fraction out of range"
        );
        let line = row.jsonl();
        assert!(
            line.starts_with("{\"app\": ") && line.ends_with('}'),
            "{engine}: malformed JSONL row: {line}"
        );
        if engine == "baseline" {
            assert_eq!(row.branch_total, 0, "baseline cannot predict branches");
            assert!(row.wasted_topk.is_empty(), "baseline cannot squash");
        }
    }
}

#[test]
fn streaming_percentiles_track_exact_recorder() {
    let bundle = specfaas_apps::faaschain::hotel_booking();
    let gen = bundle.make_input.clone();
    let mut e = prepared_spec(&bundle, SpecConfig::full(), SEED, TRAIN);
    let (row, _, m) = scoreboard_closed(&mut e, "spec", 200, window(), move |r| gen(r));
    // Exact quantiles under the histogram's own rank convention
    // (rank = ceil(q·n), 1-based), so the comparison isolates bucketing
    // error from rank-interpolation differences.
    let mut lat_us: Vec<u64> = m
        .records
        .iter()
        .map(|r| r.response_time().as_micros())
        .collect();
    lat_us.sort_unstable();
    assert!(!lat_us.is_empty());
    for (q, streamed_ms) in [(0.50, row.p50_ms), (0.99, row.p99_ms)] {
        let rank = ((q * lat_us.len() as f64).ceil() as u64).clamp(1, lat_us.len() as u64);
        let exact_us = lat_us[(rank - 1) as usize] as f64;
        let streamed_us = streamed_ms * 1_000.0;
        let bound = exact_us * LogHistogram::RELATIVE_ERROR + 1.0;
        assert!(
            (streamed_us - exact_us).abs() <= bound,
            "p{q}: streamed {streamed_us} us vs exact {exact_us} us (bound {bound})"
        );
    }
}

#[test]
fn snapshots_advance_monotonically_and_end_with_finish() {
    let bundle = specfaas_apps::faaschain::hotel_booking();
    let gen = bundle.make_input.clone();
    let mut e = prepared_spec(&bundle, SpecConfig::full(), SEED, TRAIN);
    let (_, log, _) = scoreboard_closed(&mut e, "spec", REQUESTS, window(), move |r| gen(r));
    let lines = log.lines();
    assert!(
        lines.len() >= 2,
        "expected boundary snapshots plus the finish line, got {}",
        lines.len()
    );
    let stamps: Vec<u64> = lines
        .iter()
        .map(|l| {
            let rest = l
                .strip_prefix("{\"t_us\": ")
                .unwrap_or_else(|| panic!("snapshot line missing t_us: {l}"));
            rest[..rest.find(',').expect("t_us terminator")]
                .parse()
                .expect("t_us number")
        })
        .collect();
    for pair in stamps.windows(2) {
        assert!(pair[0] <= pair[1], "snapshot stamps regressed: {stamps:?}");
    }
    let jsonl = log.to_jsonl();
    assert_eq!(jsonl.lines().count(), lines.len());
}

#[test]
fn rendered_table_and_rows_cover_every_app() {
    let suite = specfaas_apps::suite_named("FaaSChain");
    let mut rows = Vec::new();
    for bundle in &suite.apps {
        let gen = bundle.make_input.clone();
        let mut e = prepared_spec(bundle, SpecConfig::full(), SEED, TRAIN);
        let (row, _, _) = scoreboard_closed(&mut e, "spec", 20, window(), move |r| gen(r));
        rows.push(row);
    }
    let table = render_table(&rows);
    for bundle in &suite.apps {
        assert!(
            table.contains(bundle.app.name.as_str()),
            "table missing app {}",
            bundle.app.name
        );
    }
    assert_eq!(rows.len(), suite.apps.len(), "one row per app");
    for row in &rows {
        assert!(
            row.jsonl().contains(&format!("\"app\": \"{}\"", row.app)),
            "JSONL row does not name its app: {}",
            row.app
        );
    }
}
