//! Direct probes of the layers under the detailed engines, in host
//! nanoseconds per call, on inputs drawn from the workload's own
//! generators: request documents from each app's `make_input` and storage
//! records from each app's KV seeder (the same seeds the engines use).
//!
//! Every probe runs a fixed number of calls per app, so the work is the
//! same on every run of a seed; only the time varies.

use specfaas_apps::suite_named;
use specfaas_core::pipeline::SlotId;
use specfaas_core::{DataBuffer, MemoTable, SpecConfig};
use specfaas_sim::{FxHashMap, SimRng};
use specfaas_storage::{KvStore, Value};
use specfaas_workflow::Interp;

use crate::spans::SpanLog;

/// Request documents drawn per app.
const INPUTS_PER_APP: usize = 256;
/// Passes over the inputs per probe (clone, memo, KV, Data Buffer).
const PASSES: usize = 8;
/// Request documents per app run through every function program.
const INTERP_INPUTS_PER_APP: usize = 32;
/// Writes per probed Data Buffer commit (as `data_buffer/commit_4_writes`).
const COMMIT_WRITES: usize = 4;

/// Accumulated host time (span-log ticks) and call count of one probe.
#[derive(Default)]
struct Acc {
    ticks: u64,
    calls: u64,
}

impl Acc {
    fn mean_ns(&self, ns_per_tick: f64) -> f64 {
        self.ticks as f64 * ns_per_tick / self.calls.max(1) as f64
    }
}

/// Times `calls` operations performed by `f`, recording one span.
fn timed<T>(
    log: &mut SpanLog,
    root: u32,
    name: &'static str,
    acc: &mut Acc,
    calls: usize,
    f: impl FnOnce() -> T,
) -> T {
    let t0 = log.now();
    let out = f();
    let t1 = log.now();
    log.child(root, name, t0, t1, None);
    acc.ticks += t1 - t0;
    acc.calls += calls as u64;
    out
}

/// Runs every probe over the apps of `suites` and returns each probe's
/// metric name with its mean host nanoseconds per call.
pub fn run(suites: &[&str], seed: u64, log: &mut SpanLog) -> Vec<(&'static str, f64)> {
    let mut clone = Acc::default();
    let mut lookup = Acc::default();
    let mut insert = Acc::default();
    let mut db_read = Acc::default();
    let mut db_commit = Acc::default();
    let mut kv_get = Acc::default();
    let mut kv_set = Acc::default();
    let mut interp = Acc::default();
    let memo_capacity = SpecConfig::full().memo_capacity;
    let order: Vec<SlotId> = (0..4).map(SlotId).collect();
    for suite in suites {
        for bundle in suite_named(suite).apps {
            let root = log.open_root(format!("probes {}", bundle.name()));
            let mut rng = SimRng::seed(seed);
            let inputs: Vec<Value> = (0..INPUTS_PER_APP)
                .map(|_| (bundle.make_input)(&mut rng))
                .collect();
            let mut kv = KvStore::new();
            (bundle.seed)(&mut kv, &mut SimRng::seed(seed ^ 0x5eed));
            let records: Vec<(String, Value)> =
                kv.iter().map(|(k, v)| (k.to_owned(), v.clone())).collect();
            assert!(!records.is_empty(), "{} seeds no records", bundle.name());

            // value: deep copies of request documents (dropped untimed).
            for _ in 0..PASSES {
                let copies: Vec<Value> =
                    timed(log, root, "Value::clone", &mut clone, inputs.len(), || {
                        inputs.to_vec()
                    });
                drop(std::hint::black_box(copies));
            }

            // memo: insert every document (LRU-bounded as in the engine),
            // then look every one up; repeated documents hit.
            let mut table = MemoTable::new(memo_capacity);
            for _ in 0..PASSES {
                let rows: Vec<(Value, Value)> =
                    inputs.iter().map(|v| (v.clone(), v.clone())).collect();
                timed(
                    log,
                    root,
                    "MemoTable::insert",
                    &mut insert,
                    rows.len(),
                    || {
                        for (i, o) in rows {
                            table.insert(i, o, Vec::new());
                        }
                    },
                );
                timed(
                    log,
                    root,
                    "MemoTable::lookup",
                    &mut lookup,
                    inputs.len(),
                    || {
                        for v in &inputs {
                            std::hint::black_box(table.lookup(v));
                        }
                    },
                );
            }

            // kv: read every seeded record, then overwrite it.
            for _ in 0..PASSES {
                timed(
                    log,
                    root,
                    "KvStore::get",
                    &mut kv_get,
                    records.len(),
                    || {
                        for (k, _) in &records {
                            std::hint::black_box(kv.get(k));
                        }
                    },
                );
                let writes = records.clone();
                timed(log, root, "KvStore::set", &mut kv_set, writes.len(), || {
                    for (k, v) in writes {
                        std::hint::black_box(kv.set(k, v));
                    }
                });
            }

            // databuffer: slot 0 buffers writes of every other record,
            // slot 2 reads every record (forwarded or global); then slot 1
            // buffers COMMIT_WRITES records at a time and commits them.
            for _ in 0..PASSES {
                let mut db = DataBuffer::new();
                for (k, v) in records.iter().step_by(2) {
                    db.write(order[0], k, v.clone(), &order);
                }
                timed(
                    log,
                    root,
                    "DataBuffer::read",
                    &mut db_read,
                    records.len(),
                    || {
                        for (k, _) in &records {
                            std::hint::black_box(db.read(order[2], k, &order));
                        }
                    },
                );
                for chunk in records.chunks(COMMIT_WRITES) {
                    let mut db = DataBuffer::new();
                    for (k, v) in chunk {
                        db.write(order[1], k, v.clone(), &order);
                    }
                    let flushed = timed(log, root, "DataBuffer::commit", &mut db_commit, 1, || {
                        db.commit(order[1])
                    });
                    assert_eq!(flushed.len(), chunk.len(), "commit flushes every write");
                }
            }

            // interp: every function program on request documents, against
            // the seeded records; nested calls resolve to null, as in the
            // engine's functional oracle.
            let storage: FxHashMap<String, Value> = records.iter().cloned().collect();
            let mut prog_rng = SimRng::seed(seed ^ 0x1f);
            for input in inputs.iter().take(INTERP_INPUTS_PER_APP) {
                for (_, spec) in bundle.app.registry.iter() {
                    let mut storage = storage.clone();
                    let arg = input.clone();
                    timed(log, root, "Interp::run_functional", &mut interp, 1, || {
                        std::hint::black_box(Interp::run_functional(
                            &spec.program,
                            arg,
                            &mut storage,
                            &mut |_, _, _, _| Ok(Value::Null),
                            &mut prog_rng,
                        ))
                        .is_ok()
                    });
                }
            }
            log.close(root);
        }
    }
    let k = log.ns_per_tick();
    vec![
        ("value.clone_ns", clone.mean_ns(k)),
        ("memo.lookup_ns", lookup.mean_ns(k)),
        ("memo.insert_ns", insert.mean_ns(k)),
        ("databuffer.read_ns", db_read.mean_ns(k)),
        ("databuffer.commit_ns", db_commit.mean_ns(k)),
        ("kv.get_ns", kv_get.mean_ns(k)),
        ("kv.set_ns", kv_set.mean_ns(k)),
        ("interp.run_ns", interp.mean_ns(k)),
    ]
}
