//! Property-based tests over the core speculation data structures and
//! the simulation kernel.
//!
//! Randomized inputs are drawn from the repo's own seeded `SimRng` (the
//! offline build environment cannot fetch `proptest`), so every case is
//! reproducible from the loop seed embedded in the assertion message.

use specfaas::core::databuffer::{DataBuffer, ReadResult};
use specfaas::core::pipeline::SlotId;
use specfaas::core::{MemoTable, PathHistory};
use specfaas::sim::stats::{Cdf, LatencyRecorder, OnlineStats};
use specfaas::sim::{SimDuration, SimRng, Simulator};
use specfaas::storage::Value;

const CASES: u64 = 100;

fn vec_u64(rng: &mut SimRng, lo: u64, hi: u64, min_len: u64, max_len: u64) -> Vec<u64> {
    let n = rng.uniform_range(min_len, max_len);
    (0..n).map(|_| rng.uniform_range(lo, hi)).collect()
}

fn vec_f64(rng: &mut SimRng, lo: f64, hi: f64, min_len: u64, max_len: u64) -> Vec<f64> {
    let n = rng.uniform_range(min_len, max_len);
    (0..n).map(|_| lo + rng.uniform_f64() * (hi - lo)).collect()
}

/// The simulator delivers events in non-decreasing time order,
/// regardless of scheduling order.
#[test]
fn simulator_is_time_ordered() {
    for case in 0..CASES {
        let mut rng = SimRng::seed(0x10 + case);
        let delays = vec_u64(&mut rng, 0, 9_999, 1, 99);
        let mut sim = Simulator::new();
        for (i, d) in delays.iter().enumerate() {
            sim.schedule_in(SimDuration::from_micros(*d), i);
        }
        let mut last = 0;
        let mut count = 0;
        while let Some((t, _)) = sim.step() {
            assert!(t.as_micros() >= last, "case {case}: time went backwards");
            last = t.as_micros();
            count += 1;
        }
        assert_eq!(count, delays.len(), "case {case}");
    }
}

/// Events scheduled at the same instant keep FIFO order.
#[test]
fn simulator_fifo_at_equal_times() {
    for case in 0..CASES {
        let mut rng = SimRng::seed(0x20 + case);
        let n = rng.uniform_range(1, 49) as usize;
        let mut sim = Simulator::new();
        for i in 0..n {
            sim.schedule_in(SimDuration::from_millis(5), i);
        }
        let order: Vec<usize> = std::iter::from_fn(|| sim.step()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..n).collect::<Vec<_>>(), "case {case}");
    }
}

/// A memoization table never exceeds its capacity and always returns
/// exactly what was last inserted for a key.
#[test]
fn memo_table_capacity_and_fidelity() {
    for case in 0..CASES {
        let mut rng = SimRng::seed(0x30 + case);
        let cap = rng.uniform_range(1, 19) as usize;
        let n_ops = rng.uniform_range(1, 299);
        let mut table = MemoTable::new(cap);
        let mut last = std::collections::HashMap::new();
        for _ in 0..n_ops {
            let k = rng.uniform_u64(40) as i64;
            let v = rng.uniform_u64(1000) as i64;
            table.insert(Value::Int(k), Value::Int(v), vec![]);
            last.insert(k, v);
            assert!(table.len() <= cap, "case {case}: capacity exceeded");
        }
        // Whatever is still resident must be the latest value.
        for (k, v) in &last {
            if let Some(e) = table.peek(&Value::Int(*k)) {
                assert_eq!(&e.output, &Value::Int(*v), "case {case}: stale entry");
            }
        }
    }
}

/// Data Buffer: an in-order write→read pair always forwards the written
/// value, never global state.
#[test]
fn data_buffer_forwards_in_order_raw() {
    for case in 0..CASES {
        let mut rng = SimRng::seed(0x40 + case);
        let writer = rng.uniform_u64(5);
        let gap = rng.uniform_range(1, 4);
        let val = rng.uniform_range(0, 1 << 40) as i64 - (1 << 39);
        let reader = writer + gap;
        let order: Vec<SlotId> = (0..10).map(SlotId).collect();
        let mut db = DataBuffer::new();
        let victims = db.write(SlotId(writer), "k", Value::Int(val), &order);
        assert!(victims.is_empty(), "case {case}");
        match db.read(SlotId(reader), "k", &order) {
            ReadResult::Forwarded(v) => assert_eq!(v, Value::Int(val), "case {case}"),
            other => panic!("case {case}: expected forward, got {other:?}"),
        }
    }
}

/// Data Buffer: an out-of-order read→write pair always squashes the
/// premature reader (and commit never flushes squashed data).
#[test]
fn data_buffer_squashes_out_of_order_raw() {
    for case in 0..CASES {
        let mut rng = SimRng::seed(0x50 + case);
        let writer = rng.uniform_u64(5);
        let gap = rng.uniform_range(1, 4);
        let reader = writer + gap;
        let order: Vec<SlotId> = (0..10).map(SlotId).collect();
        let mut db = DataBuffer::new();
        db.read(SlotId(reader), "k", &order);
        let victims = db.write(SlotId(writer), "k", Value::Int(1), &order);
        assert_eq!(victims, vec![SlotId(reader)], "case {case}");
        db.squash(SlotId(reader));
        assert!(db.commit(SlotId(reader)).is_empty(), "case {case}");
    }
}

/// Commit flushes exactly the keys the slot wrote, each with its latest
/// value.
#[test]
fn data_buffer_commit_flushes_last_writes() {
    for case in 0..CASES {
        let mut rng = SimRng::seed(0x60 + case);
        let n_writes = rng.uniform_range(1, 39);
        let order = vec![SlotId(0)];
        let mut db = DataBuffer::new();
        let mut last = std::collections::BTreeMap::new();
        for _ in 0..n_writes {
            let key = format!("k{}", rng.uniform_u64(6));
            let v = rng.uniform_range(0, 1 << 40) as i64 - (1 << 39);
            db.write(SlotId(0), &key, Value::Int(v), &order);
            last.insert(key, v);
        }
        let flushed: std::collections::BTreeMap<String, i64> = db
            .commit(SlotId(0))
            .into_iter()
            .map(|(k, v)| (k, v.as_int().unwrap()))
            .collect();
        assert_eq!(flushed, last, "case {case}");
    }
}

/// Path history is deterministic and order-sensitive.
#[test]
fn path_history_properties() {
    for case in 0..CASES {
        let mut rng = SimRng::seed(0x70 + case);
        let path: Vec<u32> = vec_u64(&mut rng, 0, 99, 1, 19)
            .into_iter()
            .map(|x| x as u32)
            .collect();
        let fold = |xs: &[u32]| xs.iter().fold(PathHistory::start(), |h, f| h.extend(*f));
        assert_eq!(fold(&path), fold(&path), "case {case}");
        if path.len() >= 2 && path[0] != path[1] {
            let mut swapped = path.clone();
            swapped.swap(0, 1);
            assert_ne!(fold(&path), fold(&swapped), "case {case}");
        }
    }
}

/// Latency percentiles are monotone in p and bounded by min/max.
#[test]
fn percentiles_monotone() {
    for case in 0..CASES {
        let mut rng = SimRng::seed(0x80 + case);
        let samples = vec_f64(&mut rng, 0.0, 10_000.0, 2, 199);
        let mut r = LatencyRecorder::new();
        for s in &samples {
            r.record_ms(*s);
        }
        let p50 = r.percentile_ms(50.0);
        let p90 = r.percentile_ms(90.0);
        let p99 = r.percentile_ms(99.0);
        assert!(p50 <= p90 && p90 <= p99, "case {case}: not monotone");
        let max = samples.iter().cloned().fold(f64::MIN, f64::max);
        let min = samples.iter().cloned().fold(f64::MAX, f64::min);
        assert!(
            p99 <= max + 1e-9 && p50 >= min - 1e-9,
            "case {case}: out of bounds"
        );
    }
}

/// Welford merge equals sequential accumulation.
#[test]
fn online_stats_merge_associative() {
    for case in 0..CASES {
        let mut rng = SimRng::seed(0x90 + case);
        let a = vec_f64(&mut rng, -1e6, 1e6, 1, 49);
        let b = vec_f64(&mut rng, -1e6, 1e6, 1, 49);
        let mut all = OnlineStats::new();
        for x in a.iter().chain(&b) {
            all.record(*x);
        }
        let mut sa = OnlineStats::new();
        let mut sb = OnlineStats::new();
        for x in &a {
            sa.record(*x);
        }
        for x in &b {
            sb.record(*x);
        }
        sa.merge(&sb);
        assert!((sa.mean() - all.mean()).abs() < 1e-6, "case {case}: mean");
        assert!(
            (sa.variance() - all.variance()).abs() / all.variance().max(1.0) < 1e-6,
            "case {case}: variance"
        );
    }
}

// ---------------------------------------------------------------------
// Fault-injection determinism
// ---------------------------------------------------------------------

use std::collections::BTreeMap;
use std::sync::Arc;

use specfaas::platform::{BaselineCore, BaselineEngine, FaultStats, RunMetrics};
use specfaas::prelude::{EngineCore, FaultPlan, RetryPolicy, SpecConfig, SpecCore, SpecEngine};
use specfaas::storage::KvStore;

fn kv_map(kv: &KvStore) -> BTreeMap<String, Value> {
    kv.iter().map(|(k, v)| (k.to_string(), v.clone())).collect()
}

/// Everything about a faulted run that must replay identically.
fn fingerprint(
    m: &RunMetrics,
    kv: &KvStore,
) -> (u64, u64, FaultStats, u64, BTreeMap<String, Value>) {
    (
        m.completed,
        m.failed,
        m.faults,
        m.latency.mean_ms().to_bits(),
        kv_map(kv),
    )
}

/// Draws a random-but-survivable fault plan from the case RNG.
fn random_plan(rng: &mut SimRng) -> FaultPlan {
    let p = |rng: &mut SimRng| [0.0, 0.01, 0.02, 0.05, 0.1][rng.uniform_u64(5) as usize];
    FaultPlan::none()
        .with_container_crash(p(rng))
        .with_kv_get(p(rng))
        .with_kv_set(p(rng))
        .with_slot_drop(p(rng))
        .with_hang(p(rng) / 10.0)
}

/// Same engine seed + same fault plan ⇒ the same faults are injected at
/// the same sites, every retry lands the same way, and the final global
/// store is identical — for randomly drawn plans, seeds and apps, in
/// both engines.
#[test]
fn fault_injection_replays_identically_per_seed() {
    let suites = specfaas::apps::all_suites();
    let bundles: Vec<_> = suites.iter().flat_map(|s| s.apps.iter()).collect();
    for case in 0..12u64 {
        let mut rng = SimRng::seed(0xB0 + case);
        let plan = random_plan(&mut rng);
        let seed = rng.uniform_u64(1 << 32);
        let policy = RetryPolicy::default()
            .with_max_attempts(8)
            .with_timeout(SimDuration::from_secs(2));
        let bundle = bundles[case as usize % bundles.len()];

        let run_spec = || {
            let mut e = SpecEngine::new(SpecCore::new(
                Arc::clone(&bundle.app),
                SpecConfig::full(),
                seed,
            ));
            e.enable_faults(plan.clone(), policy.clone());
            e.prewarm();
            let mut srng = SimRng::seed(seed ^ 1);
            (bundle.seed)(&mut e.rt_mut().kv, &mut srng);
            let gen = bundle.make_input.clone();
            let m = e.run_closed(15, move |r| gen(r));
            fingerprint(&m, &e.rt().kv)
        };
        let run_base = || {
            let mut e = BaselineEngine::new(BaselineCore::new(Arc::clone(&bundle.app), seed));
            e.enable_faults(plan.clone(), policy.clone());
            e.prewarm();
            let mut srng = SimRng::seed(seed ^ 1);
            (bundle.seed)(&mut e.rt_mut().kv, &mut srng);
            let gen = bundle.make_input.clone();
            let m = e.run_closed(15, move |r| gen(r));
            fingerprint(&m, &e.rt().kv)
        };
        assert_eq!(
            run_spec(),
            run_spec(),
            "case {case} ({}): spec run not reproducible",
            bundle.name()
        );
        assert_eq!(
            run_base(),
            run_base(),
            "case {case} ({}): baseline run not reproducible",
            bundle.name()
        );
    }
}

/// Enabling an all-zero fault plan must not perturb anything: the fault
/// RNG stream is separate from workload randomness, and no site ever
/// fires — across random engine seeds and apps, in both engines.
#[test]
fn empty_fault_plan_never_perturbs_execution() {
    let suites = specfaas::apps::all_suites();
    let bundles: Vec<_> = suites.iter().flat_map(|s| s.apps.iter()).collect();
    for case in 0..8u64 {
        let mut rng = SimRng::seed(0xC0 + case);
        let seed = rng.uniform_u64(1 << 32);
        let bundle = bundles[case as usize % bundles.len()];
        let run = |faults: bool| {
            let mut e = SpecEngine::new(SpecCore::new(
                Arc::clone(&bundle.app),
                SpecConfig::full(),
                seed,
            ));
            if faults {
                e.enable_faults(FaultPlan::none(), RetryPolicy::default());
            }
            e.prewarm();
            let gen = bundle.make_input.clone();
            let m = e.run_closed(10, move |r| gen(r));
            fingerprint(&m, &e.rt().kv)
        };
        assert_eq!(
            run(false),
            run(true),
            "case {case} ({}): FaultPlan::none() changed execution",
            bundle.name()
        );
    }
}

/// Exponential backoff is non-decreasing in the retry index and capped.
#[test]
fn retry_backoff_monotone_and_capped() {
    let policy = RetryPolicy::default();
    let mut prev = SimDuration::ZERO;
    for retry in 1..=24 {
        let b = policy.backoff(retry);
        assert!(b >= prev, "backoff decreased at retry {retry}");
        assert!(b <= SimDuration::from_secs(1), "backoff exceeded its cap");
        prev = b;
    }
}

/// CDF fraction_at is monotone and hits 0/1 at the extremes.
#[test]
fn cdf_is_monotone() {
    for case in 0..CASES {
        let mut rng = SimRng::seed(0xA0 + case);
        let samples = vec_f64(&mut rng, 0.0, 1.0, 1, 199);
        let cdf = Cdf::from_samples(samples.clone());
        let mut prev = 0.0;
        for i in 0..=20 {
            let x = i as f64 / 20.0;
            let f = cdf.fraction_at(x);
            assert!(f >= prev, "case {case}: cdf decreased");
            prev = f;
        }
        assert_eq!(cdf.fraction_at(1.0), 1.0, "case {case}");
    }
}
