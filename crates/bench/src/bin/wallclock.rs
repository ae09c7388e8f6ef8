//! Wall-clock benchmark harness — measures the *simulator's* speed, not
//! the simulated systems. Three sections:
//!
//! 1. **Event queue**: schedule/step and schedule/cancel churn throughput
//!    at 1k and 100k pending events. The calendar-bucket queue keeps both
//!    ops amortized O(1) at any backlog (cancel via slot/generation
//!    tombstones, delivery via bucket scan), so throughput must stay
//!    near-flat as the backlog grows 100x.
//! 2. **fig11 row**: wall time to produce one warm speedup row (one app at
//!    Low/Medium/High load) — the unit of work the experiment grid fans
//!    out. Client-pool sizing is hoisted out of the timed region, exactly
//!    as the fig11 binary hoists it out of its cells.
//! 3. **jobs sweep**: wall time for a fixed 8-cell grid under the parallel
//!    executor at `--jobs` 1/2/4, with per-seed sizing precomputed outside
//!    the timed region so the sweep measures executor overhead + cell
//!    work, not redundant setup.
//! 4. **instrumented overhead**: the same closed loop on a trained
//!    SpecFaaS engine with and without the streaming-observability
//!    instruments (metrics registry + windowed snapshots) armed. The
//!    ratio bounds how much the constant-memory observability layer may
//!    cost; the guard's clause 4 enforces the documented ceiling. This
//!    section runs at full size (1000 requests, median of 3) under
//!    `--quick` too, so the quick guard's ratio does not rest on a
//!    few-millisecond sample.
//!
//! Every number is a median of K repeats. Results are printed as a table
//! and written machine-readably to `BENCH_wallclock.json` (override with
//! `--out PATH`; `--quick` skips the file unless `--out` is given). The
//! artifact records both `host_parallelism` (what the OS advertises) and
//! `measured_parallelism` (what a CPU-bound probe actually achieved at 2
//! workers), so a jobs sweep is interpretable on throttled containers.
//!
//! `--guard PATH` compares this run against the committed artifact at
//! PATH and exits non-zero if any regression clause fires (see
//! [`specfaas_bench::wallclock_guard`]). CI runs
//! `wallclock --quick --out wallclock.json --guard BENCH_wallclock.json`.

use std::time::Instant;

use specfaas_bench::executor::{self, ExperimentCell};
use specfaas_bench::report::{f1, Table};
use specfaas_bench::runner::{
    baseline_single_ms, measure_baseline_concurrent_sized, measure_spec_concurrent_sized,
    prepared_spec, ExperimentParams,
};
use specfaas_bench::wallclock_guard;
use specfaas_core::SpecConfig;
use specfaas_sim::{MetricsRegistry, SimDuration, SimRng, Simulator, SnapshotLog};

/// Median of the samples (in place).
fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Times `body` K times and returns the median wall time in seconds.
fn timed<K: FnMut()>(repeats: usize, mut body: K) -> f64 {
    let mut samples: Vec<f64> = (0..repeats.max(1))
        .map(|_| {
            let t0 = Instant::now();
            body();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&mut samples)
}

struct QueueBench {
    name: &'static str,
    pending: usize,
    ops: usize,
    median_ns_per_op: f64,
}

impl QueueBench {
    fn ops_per_sec(&self) -> f64 {
        1e9 / self.median_ns_per_op
    }
}

/// Prefills a simulator with `pending` events spread over the next second.
fn prefill(pending: usize, rng: &mut SimRng) -> Simulator<u64> {
    let mut sim = Simulator::new();
    for i in 0..pending {
        sim.schedule_in(
            SimDuration::from_micros(rng.uniform_range(1, 1_000_000)),
            i as u64,
        );
    }
    sim
}

/// schedule+step churn: queue size stays at `pending`, every op is one
/// queue insert and one pop at that size.
///
/// The prefill (arena + bucket growth) happens *outside* the timed region:
/// ns/op measures steady-state churn at the given backlog, not one-time
/// allocation. Repeats continue on the same simulator — the queue is in
/// steady state throughout, so every repeat measures the same regime.
fn bench_schedule_step(pending: usize, ops: usize, repeats: usize) -> QueueBench {
    let mut rng = SimRng::seed(0x5EED_0001);
    let mut sim = prefill(pending, &mut rng);
    let mut item = 0u64;
    let secs = timed(repeats, || {
        for _ in 0..ops {
            sim.schedule_in(
                SimDuration::from_micros(rng.uniform_range(1, 1_000_000)),
                item,
            );
            item += 1;
            std::hint::black_box(sim.step());
        }
        assert_eq!(sim.pending(), pending);
    });
    QueueBench {
        name: "schedule_step",
        pending,
        ops,
        median_ns_per_op: secs * 1e9 / ops as f64,
    }
}

/// schedule+cancel churn: every op schedules a fresh event and cancels the
/// oldest outstanding one (almost never the head), then steps once per 8
/// ops so tombstones also get reaped at pop. With an O(n) cancel this
/// bench blows up ~100x between 1k and 100k pending; with tombstones that
/// are never compacted it still degrades as buckets silt up.
fn bench_schedule_cancel(pending: usize, ops: usize, repeats: usize) -> QueueBench {
    let mut rng = SimRng::seed(0x5EED_0002);
    let mut sim = Simulator::new();
    let mut ids = std::collections::VecDeque::with_capacity(pending);
    for i in 0..pending {
        ids.push_back(sim.schedule_in(
            SimDuration::from_micros(rng.uniform_range(1, 1_000_000)),
            i as u64,
        ));
    }
    let mut item = 0u64;
    let mut step_gate = 0u64;
    let secs = timed(repeats, || {
        for _ in 0..ops {
            ids.push_back(sim.schedule_in(
                SimDuration::from_micros(rng.uniform_range(1, 1_000_000)),
                item,
            ));
            item += 1;
            let victim = ids.pop_front().expect("queue nonempty");
            std::hint::black_box(sim.cancel(victim));
            if step_gate.is_multiple_of(8) {
                if let Some(popped) = sim.step() {
                    std::hint::black_box(popped);
                }
            }
            step_gate += 1;
        }
    });
    QueueBench {
        name: "schedule_cancel",
        pending,
        ops,
        median_ns_per_op: secs * 1e9 / ops as f64,
    }
}

/// One warm fig11 row: baseline + SpecFaaS at Low/Medium/High for one app.
/// Pool sizing is computed once, outside the timed region, mirroring the
/// fig11 binary's hoisted sizing stage.
fn fig11_row_secs(quick: bool, repeats: usize) -> f64 {
    let bundle = specfaas_apps::faaschain::apps().remove(0); // Login
    let single = baseline_single_ms(&bundle, ExperimentParams::default().seed, 3);
    timed(repeats, || {
        for rps in [100.0, 250.0, 500.0] {
            let mut p = ExperimentParams::default().at_rps(rps);
            if quick {
                p.duration = SimDuration::from_millis(800);
                p.warmup = SimDuration::from_millis(100);
                p.train_requests = 60;
            }
            let base = measure_baseline_concurrent_sized(&bundle, p, single);
            let spec = measure_spec_concurrent_sized(&bundle, SpecConfig::full(), p, single);
            std::hint::black_box(base.mean_response_ms() / spec.mean_response_ms());
        }
    })
}

/// Times a fixed 8-cell grid under the executor at the given job count.
/// `singles[i]` is the precomputed pool-sizing value for cell `i` — sizing
/// is identical per (bundle, seed), so measuring it inside every cell at
/// every job count would only add constant per-cell setup noise.
fn sweep_secs(jobs: usize, quick: bool, repeats: usize, singles: &[f64]) -> f64 {
    let bundle = specfaas_apps::faaschain::apps().remove(0);
    timed(repeats, || {
        let cells: Vec<ExperimentCell<f64>> = (0..8u64)
            .map(|i| {
                let bundle = &bundle;
                let single = singles[i as usize];
                ExperimentCell::new(format!("sweep/{i}"), move || {
                    let mut p = ExperimentParams::default().at_rps(100.0 + 50.0 * i as f64);
                    p.seed ^= i;
                    p.duration = SimDuration::from_millis(if quick { 400 } else { 1_500 });
                    p.warmup = SimDuration::from_millis(100);
                    p.train_requests = if quick { 40 } else { 100 };
                    measure_spec_concurrent_sized(bundle, SpecConfig::full(), p, single)
                        .mean_response_ms()
                })
            })
            .collect();
        std::hint::black_box(executor::run_cells(jobs, cells));
    })
}

/// Closed-loop requests per timed repeat of the instrumented-overhead
/// section, in quick and full mode alike: on a sample of a few
/// milliseconds one scheduler hiccup on a loaded host pushes the ratio
/// past the guard.
const OVERHEAD_REQUESTS: u64 = 1_000;
/// Timed repeats (median) per arm of the instrumented-overhead section.
const OVERHEAD_REPEATS: usize = 3;

/// Instrumented-run overhead: times [`OVERHEAD_REQUESTS`] closed-loop
/// requests on a trained SpecFaaS engine twice — once plain, once with the streaming
/// observability instruments armed (recording [`MetricsRegistry`] +
/// 250 ms windowed [`SnapshotLog`]). Engine prep (prewarm + training) is
/// hoisted outside both timed regions; repeats continue the same closed
/// loop, so both arms measure steady-state request processing and the
/// ratio isolates what the instruments add per event. Returns
/// `(plain_secs, instrumented_secs)`.
fn instrumented_overhead() -> (f64, f64) {
    let bundle = specfaas_apps::faaschain::apps().remove(0); // Login
    let (requests, repeats) = (OVERHEAD_REQUESTS, OVERHEAD_REPEATS);
    let seed = ExperimentParams::default().seed;

    let mut plain = prepared_spec(&bundle, SpecConfig::full(), seed, 120);
    let gen = bundle.make_input.clone();
    let plain_secs = timed(repeats, || {
        let gen = gen.clone();
        std::hint::black_box(plain.run_closed(requests, move |r| gen(r)));
    });

    let mut inst = prepared_spec(&bundle, SpecConfig::full(), seed, 120);
    inst.set_registry(MetricsRegistry::recording());
    inst.set_snapshots(SnapshotLog::new(SimDuration::from_millis(250)));
    let gen = bundle.make_input.clone();
    let inst_secs = timed(repeats, || {
        let gen = gen.clone();
        std::hint::black_box(inst.run_closed(requests, move |r| gen(r)));
    });

    (plain_secs, inst_secs)
}

/// Minimal JSON string escape (labels here are plain ASCII anyway).
fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn main() {
    let quick = executor::has_flag("--quick");
    // Event-queue section only — for iterating on the queue itself.
    let queue_only = executor::has_flag("--queue-only");
    let out = executor::arg_value("out");
    let guard = executor::arg_value("guard");
    // The event-queue microbench is single-threaded by nature; --jobs is
    // accepted (run_all forwards it) and applies to the sweep section.
    let _ = executor::jobs_from_args();

    let repeats = if quick { 3 } else { 5 };
    let (small_ops, big_ops) = if quick {
        (50_000, 50_000)
    } else {
        (400_000, 400_000)
    };

    // Probe the host before any timed section so the measurement noise of
    // the probe itself cannot land inside a benchmark window.
    let host_par = executor::host_parallelism();
    let measured_par = executor::measured_parallelism(2);

    println!("== Wall-clock: event-queue throughput ==\n");
    let queue_benches = vec![
        bench_schedule_step(1_000, small_ops, repeats),
        bench_schedule_step(100_000, big_ops, repeats),
        bench_schedule_cancel(1_000, small_ops, repeats),
        bench_schedule_cancel(100_000, big_ops, repeats),
    ];
    let mut t = Table::new(["Bench", "Pending", "ns/op", "Mops/s"]);
    for b in &queue_benches {
        t.row([
            b.name.to_string(),
            b.pending.to_string(),
            f1(b.median_ns_per_op),
            format!("{:.2}", b.ops_per_sec() / 1e6),
        ]);
    }
    println!("{}", t.render());
    let step_ratio = queue_benches[1].median_ns_per_op / queue_benches[0].median_ns_per_op;
    let cancel_ratio = queue_benches[3].median_ns_per_op / queue_benches[2].median_ns_per_op;
    println!(
        "schedule_step ns/op ratio 100k/1k pending: {:.2}x (guard limit {}x)",
        step_ratio,
        wallclock_guard::FLATNESS_LIMIT
    );
    println!(
        "cancel ns/op ratio 100k/1k pending: {:.2}x (O(n) cancel would be ~100x)\n",
        cancel_ratio
    );
    if queue_only {
        return;
    }

    println!("== Wall-clock: one fig11 warm row (Login, 3 loads) ==\n");
    let row_repeats = if quick { 1 } else { 3 };
    let row_secs = fig11_row_secs(quick, row_repeats);
    println!("median of {row_repeats}: {:.2} s\n", row_secs);

    println!("== Wall-clock: executor sweep (8 cells) ==\n");
    // Sizing for the 8 sweep cells, hoisted out of all timed regions.
    let base_seed = ExperimentParams::default().seed;
    let sweep_bundle = specfaas_apps::faaschain::apps().remove(0);
    let singles: Vec<f64> = (0..8u64)
        .map(|i| baseline_single_ms(&sweep_bundle, base_seed ^ i, 3))
        .collect();
    let sweep_jobs = [1usize, 2, 4];
    let sweep: Vec<(usize, f64)> = sweep_jobs
        .iter()
        .map(|&j| (j, sweep_secs(j, quick, row_repeats, &singles)))
        .collect();
    let mut t = Table::new(["Jobs", "Median(s)", "Speedup"]);
    for (j, s) in &sweep {
        t.row([
            j.to_string(),
            format!("{s:.2}"),
            format!("{:.2}x", sweep[0].1 / s),
        ]);
    }
    println!("{}", t.render());
    println!("(host parallelism: {host_par}, measured 2-worker speedup: {measured_par:.2}x)");

    println!("\n== Wall-clock: instrumented-run overhead (Login) ==\n");
    let (ov_plain, ov_inst) = instrumented_overhead();
    let overhead_ratio = ov_inst / ov_plain;
    println!(
        "{OVERHEAD_REQUESTS} requests, median of {OVERHEAD_REPEATS}: plain {:.3} s, instrumented {:.3} s, ratio {:.3}x (guard limit {}x)",
        ov_plain,
        ov_inst,
        overhead_ratio,
        wallclock_guard::INSTRUMENTED_OVERHEAD_LIMIT
    );

    // Machine-readable artifact.
    let mut j = String::new();
    j.push_str("{\n");
    j.push_str("  \"schema\": \"specfaas-bench/wallclock/v2\",\n");
    j.push_str(&format!("  \"quick\": {quick},\n"));
    j.push_str(&format!("  \"host_parallelism\": {host_par},\n"));
    j.push_str(&format!("  \"measured_parallelism\": {measured_par:.3},\n"));
    j.push_str(&format!("  \"repeats\": {repeats},\n"));
    j.push_str("  \"event_queue\": [\n");
    for (i, b) in queue_benches.iter().enumerate() {
        j.push_str(&format!(
            "    {{\"bench\": \"{}\", \"pending\": {}, \"ops\": {}, \"median_ns_per_op\": {:.2}, \"ops_per_sec\": {:.0}}}{}\n",
            esc(b.name),
            b.pending,
            b.ops,
            b.median_ns_per_op,
            b.ops_per_sec(),
            if i + 1 < queue_benches.len() { "," } else { "" }
        ));
    }
    j.push_str("  ],\n");
    j.push_str(&format!(
        "  \"step_ns_ratio_100k_over_1k\": {:.3},\n",
        step_ratio
    ));
    j.push_str(&format!(
        "  \"cancel_ns_ratio_100k_over_1k\": {:.3},\n",
        cancel_ratio
    ));
    j.push_str(&format!(
        "  \"fig11_row\": {{\"app\": \"Login\", \"loads_rps\": [100, 250, 500], \"repeats\": {row_repeats}, \"median_secs\": {:.3}}},\n",
        row_secs
    ));
    j.push_str("  \"jobs_sweep\": [\n");
    for (i, (jobs, secs)) in sweep.iter().enumerate() {
        j.push_str(&format!(
            "    {{\"jobs\": {jobs}, \"cells\": 8, \"median_secs\": {:.3}, \"speedup\": {:.3}}}{}\n",
            secs,
            sweep[0].1 / secs,
            if i + 1 < sweep.len() { "," } else { "" }
        ));
    }
    j.push_str("  ],\n");
    j.push_str(&format!(
        "  \"instrumented_overhead\": {{\"app\": \"Login\", \"requests\": {OVERHEAD_REQUESTS}, \
         \"repeats\": {OVERHEAD_REPEATS}, \"plain_secs\": {:.4}, \"instrumented_secs\": {:.4}, \
         \"overhead_ratio\": {:.4}}}\n",
        ov_plain, ov_inst, overhead_ratio
    ));
    j.push_str("}\n");

    match (out, quick) {
        (Some(path), _) => {
            std::fs::write(&path, &j).expect("write wallclock json");
            println!("\nwrote {path}");
        }
        (None, false) => {
            std::fs::write("BENCH_wallclock.json", &j).expect("write wallclock json");
            println!("\nwrote BENCH_wallclock.json");
        }
        (None, true) => {}
    }

    // Regression guard: compare this run against the committed blessing.
    if let Some(path) = guard {
        let committed_json = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read committed artifact {path}: {e}"));
        let committed = wallclock_guard::parse_artifact(&committed_json)
            .unwrap_or_else(|e| panic!("parse committed artifact {path}: {e}"));
        let current = wallclock_guard::parse_artifact(&j).expect("parse current artifact");
        let violations = wallclock_guard::check(&current, &committed);
        if violations.is_empty() {
            println!("\nguard vs {path}: PASS");
        } else {
            eprintln!("\nguard vs {path}: FAIL");
            for v in &violations {
                eprintln!("  - {v}");
            }
            std::process::exit(1);
        }
    }
}
