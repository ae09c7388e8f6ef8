//! The Data Buffer (paper §V-C, Fig. 9; call-return merging from §V-D).
//!
//! One Data Buffer exists per application invocation, on the controller
//! node. It buffers the global-storage writes of all in-progress
//! (uncommitted) functions, detects data-dependence violations between
//! concurrently-executing functions, forwards values along in-order RAW
//! dependences, and handles WAR/WAW dependences without squashes.
//!
//! Layout: a row per accessed record (storage key); within a row, a cell
//! per in-progress function with Read / Write bits and the buffered value.
//! Cells are ordered by the functions' *program order*, supplied by the
//! pipeline via the [`ProgramOrder`] trait.
//!
//! * **Write by function i** — scan the R bits of successors of `i`, up to
//!   and including the first successor with its W bit set. Any successor
//!   with R set read stale data (out-of-order RAW): it and everything
//!   after it must be squashed. The value is buffered in `i`'s cell.
//! * **Read by function i** — scan predecessors of `i` in reverse program
//!   order for a set W bit; the first hit forwards its buffered value
//!   (in-order RAW). Otherwise the read falls through to global storage.
//!   `i`'s R bit is set either way.
//! * **Commit of function i** — its buffered writes flush to global
//!   storage and its cells clear.
//! * **Squash of function i** — its cells invalidate.
//! * **Merge (call return)** — the callee's cells fold into the caller's
//!   (§V-D): callee writes become caller writes.

use std::hash::BuildHasher;

use specfaas_sim::hash::FxHashMap;

use specfaas_storage::Value;

use crate::pipeline::{Pipeline, SlotId};

/// Supplies the program order of in-progress functions to the buffer.
pub trait ProgramOrder {
    /// Position of `slot` in program order, `None` if not in progress.
    fn order_of(&self, slot: SlotId) -> Option<usize>;
}

impl ProgramOrder for Pipeline {
    fn order_of(&self, slot: SlotId) -> Option<usize> {
        self.position(slot)
    }
}

/// Program order backed by an explicit list (handy in tests).
impl ProgramOrder for Vec<SlotId> {
    fn order_of(&self, slot: SlotId) -> Option<usize> {
        self.iter().position(|s| *s == slot)
    }
}

#[derive(Debug, Clone, Default, PartialEq)]
struct Cell {
    read: bool,
    written: bool,
    value: Option<Value>,
}

/// One record's row: a cell per in-progress function that accessed it.
#[derive(Debug, Clone, PartialEq)]
struct Row {
    key: String,
    cells: FxHashMap<SlotId, Cell>,
}

/// Rows bucketed by the hash of their record key, so that an access
/// finds or creates its row with one probe and builds a key `String`
/// only for a new record. Keys whose hashes collide share a bucket. A
/// row stays after its cells clear: the buffer lives for one invocation,
/// so its rows are bounded by the records the invocation touched, and
/// commit and squash free nothing.
type Rows = FxHashMap<u64, Vec<Row>>;

/// The cells of `key`'s row, created empty if the record is new.
fn row_mut<'a>(rows: &'a mut Rows, key: &str) -> &'a mut FxHashMap<SlotId, Cell> {
    let bucket = rows
        .entry(rows.hasher().hash_one(key))
        .or_insert_with(|| Vec::with_capacity(1));
    let i = match bucket.iter().position(|r| r.key == key) {
        Some(i) => i,
        None => {
            bucket.push(Row {
                key: key.to_owned(),
                cells: FxHashMap::default(),
            });
            bucket.len() - 1
        }
    };
    &mut bucket[i].cells
}

/// Result of a buffered read.
#[derive(Debug, Clone, PartialEq)]
pub enum ReadResult {
    /// An in-order RAW dependence: the value was forwarded from an
    /// earlier in-progress function's buffered write.
    Forwarded(Value),
    /// No buffered write by a predecessor: serve the read from global
    /// storage.
    Global,
}

/// The per-invocation Data Buffer.
///
/// # Example
///
/// ```
/// use specfaas_core::DataBuffer;
/// use specfaas_core::pipeline::SlotId;
/// use specfaas_storage::Value;
///
/// let order = vec![SlotId(0), SlotId(1)];
/// let mut db = DataBuffer::new();
/// // Function 0 writes, function 1 then reads: in-order RAW, forwarded.
/// let squashes = db.write(SlotId(0), "rec", Value::Int(7), &order);
/// assert!(squashes.is_empty());
/// match db.read(SlotId(1), "rec", &order) {
///     specfaas_core::databuffer::ReadResult::Forwarded(v) => assert_eq!(v, Value::Int(7)),
///     other => panic!("{other:?}"),
/// }
/// ```
#[derive(Debug, Clone, Default)]
pub struct DataBuffer {
    rows: Rows,
    forwards: u64,
    violations: u64,
}

impl DataBuffer {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        DataBuffer::default()
    }

    /// Records a write of `key` by `slot` and returns the slots that must
    /// be squashed (out-of-order RAW victims), oldest first. The caller
    /// is responsible for also squashing each victim's successors
    /// (the engine squashes from the oldest victim onward).
    pub fn write(
        &mut self,
        slot: SlotId,
        key: &str,
        value: Value,
        order: &impl ProgramOrder,
    ) -> Vec<SlotId> {
        let my_pos = order
            .order_of(slot)
            .expect("writer must be an in-progress function");
        let row = row_mut(&mut self.rows, key);

        // One pass over the successors: the scan ends at (and includes)
        // the first column with W set, since a later write re-defines the
        // record and insulates everything after it (WAW handled without
        // squash). Readers up to there read stale data.
        let mut stop = usize::MAX;
        let mut readers: Vec<(usize, SlotId)> = Vec::new();
        for (&s, cell) in row.iter() {
            let Some(p) = order.order_of(s).filter(|&p| p > my_pos) else {
                continue;
            };
            if cell.written {
                stop = stop.min(p);
            }
            if cell.read {
                readers.push((p, s));
            }
        }
        readers.retain(|&(p, _)| p <= stop);
        readers.sort_unstable();
        self.violations += readers.len() as u64;

        let cell = row.entry(slot).or_default();
        cell.written = true;
        cell.value = Some(value);
        readers.into_iter().map(|(_, s)| s).collect()
    }

    /// Performs the buffered part of a read of `key` by `slot`.
    pub fn read(&mut self, slot: SlotId, key: &str, order: &impl ProgramOrder) -> ReadResult {
        let my_pos = order
            .order_of(slot)
            .expect("reader must be an in-progress function");
        let row = row_mut(&mut self.rows, key);

        // One pass: the nearest predecessor with W set forwards its value.
        let mut nearest: Option<(usize, &Value)> = None;
        for (&s, cell) in row.iter() {
            let Some(value) = cell.value.as_ref().filter(|_| cell.written) else {
                continue;
            };
            match order.order_of(s) {
                Some(p) if p < my_pos && nearest.is_none_or(|(q, _)| p > q) => {
                    nearest = Some((p, value));
                }
                _ => {}
            }
        }
        let result = match nearest {
            Some((_, value)) => {
                self.forwards += 1;
                ReadResult::Forwarded(value.clone())
            }
            None => ReadResult::Global,
        };
        row.entry(slot).or_default().read = true;
        result
    }

    /// True if `slot` has a buffered write of `key` (used by the stall
    /// list to see whether a producer has produced yet).
    pub fn has_write(&self, slot: SlotId, key: &str) -> bool {
        self.rows
            .get(&self.rows.hasher().hash_one(key))
            .and_then(|bucket| bucket.iter().find(|r| r.key == key))
            .and_then(|row| row.cells.get(&slot))
            .is_some_and(|c| c.written)
    }

    /// Commits `slot`: clears its cells and returns its buffered writes
    /// (key, value) for flushing to global storage.
    pub fn commit(&mut self, slot: SlotId) -> Vec<(String, Value)> {
        let mut flush = Vec::new();
        for row in self.rows.values_mut().flatten() {
            if let Some(cell) = row.cells.remove(&slot) {
                if cell.written {
                    let value = cell.value.expect("written cell has a value");
                    flush.push((row.key.clone(), value));
                }
            }
        }
        flush.sort_by(|a, b| a.0.cmp(&b.0)); // deterministic flush order
        flush
    }

    /// Squashes `slot`: invalidates all its cells.
    pub fn squash(&mut self, slot: SlotId) {
        for row in self.rows.values_mut().flatten() {
            row.cells.remove(&slot);
        }
    }

    /// Merges the callee's cells into the caller's on a call return
    /// (§V-D). Callee writes supersede caller writes (the callee is the
    /// more recent definition); read bits are OR-ed.
    pub fn merge(&mut self, callee: SlotId, caller: SlotId) {
        for row in self.rows.values_mut().flatten() {
            if let Some(child) = row.cells.remove(&callee) {
                let parent = row.cells.entry(caller).or_default();
                parent.read |= child.read;
                if child.written {
                    parent.written = true;
                    parent.value = child.value;
                }
            }
        }
    }

    /// Number of records with live cells.
    pub fn rows(&self) -> usize {
        self.rows
            .values()
            .flatten()
            .filter(|r| !r.cells.is_empty())
            .count()
    }

    /// Values forwarded along in-order RAW dependences.
    pub fn forwards(&self) -> u64 {
        self.forwards
    }

    /// Out-of-order RAW violations detected.
    pub fn violations(&self) -> u64 {
        self.violations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specfaas_sim::SimRng;

    fn s(i: u64) -> SlotId {
        SlotId(i)
    }

    /// Reference model of [`DataBuffer::write`]: the sort-based scan the
    /// single pass replaced.
    fn reference_write(
        db: &mut DataBuffer,
        slot: SlotId,
        key: &str,
        value: Value,
        order: &impl ProgramOrder,
    ) -> Vec<SlotId> {
        let my_pos = order.order_of(slot).expect("writer in progress");
        let row = row_mut(&mut db.rows, key);
        let mut successors: Vec<(usize, SlotId)> = row
            .keys()
            .filter_map(|s| order.order_of(*s).map(|p| (p, *s)))
            .filter(|(p, _)| *p > my_pos)
            .collect();
        successors.sort_unstable();
        let mut victims = Vec::new();
        for (_, s) in &successors {
            let cell = &row[s];
            if cell.read {
                victims.push(*s);
            }
            if cell.written {
                break;
            }
        }
        db.violations += victims.len() as u64;
        let cell = row.entry(slot).or_default();
        cell.written = true;
        cell.value = Some(value);
        victims
    }

    /// Reference model of [`DataBuffer::read`]: the sort-based scan the
    /// single pass replaced.
    fn reference_read(
        db: &mut DataBuffer,
        slot: SlotId,
        key: &str,
        order: &impl ProgramOrder,
    ) -> ReadResult {
        let my_pos = order.order_of(slot).expect("reader in progress");
        let row = row_mut(&mut db.rows, key);
        let mut preds: Vec<(usize, SlotId)> = row
            .keys()
            .filter_map(|s| order.order_of(*s).map(|p| (p, *s)))
            .filter(|(p, _)| *p < my_pos)
            .collect();
        preds.sort_unstable_by(|a, b| b.cmp(a));
        let mut result = ReadResult::Global;
        for (_, s) in preds {
            let cell = &row[&s];
            if cell.written {
                result = ReadResult::Forwarded(cell.value.clone().expect("written"));
                db.forwards += 1;
                break;
            }
        }
        row.entry(slot).or_default().read = true;
        result
    }

    /// Two keys whose hashes collide share a bucket but keep their own
    /// rows (the collision is planted by filing a foreign row under
    /// `a`'s hash).
    #[test]
    fn colliding_keys_keep_separate_rows() {
        let order = vec![s(0), s(1)];
        let mut db = DataBuffer::new();
        let foreign = Row {
            key: "b".into(),
            cells: FxHashMap::from_iter([(s(5), Cell::default())]),
        };
        let hash = db.rows.hasher().hash_one("a");
        db.rows.insert(hash, vec![foreign.clone()]);

        assert_eq!(db.read(s(1), "a", &order), ReadResult::Global);
        assert_eq!(db.write(s(0), "a", Value::Int(1), &order), vec![s(1)]);
        assert!(db.has_write(s(0), "a"));
        assert_eq!(db.rows(), 2);
        assert_eq!(
            db.rows[&hash][0], foreign,
            "the other key's row is untouched"
        );
        assert_eq!(db.commit(s(0)), vec![("a".into(), Value::Int(1))]);
        db.squash(s(1));
        assert_eq!(db.rows(), 1);
        assert_eq!(db.rows[&hash][0], foreign);
    }

    /// The single-pass read/write agree with the reference model on
    /// forwarded values, victims (in order), and the forward and
    /// violation counts, over random program orders and interleavings
    /// of reads, writes, squashes, merges and commits.
    #[test]
    fn single_pass_matches_sort_based_reference() {
        const KEYS: [&str; 4] = ["a", "b", "c", "d"];
        let (mut forwards, mut violations) = (0, 0);
        for seed in 0..200 {
            let mut rng = SimRng::seed(seed);
            let mut order: Vec<SlotId> = (0..8).map(s).collect();
            rng.shuffle(&mut order);
            let mut next = 8;
            let (mut fast, mut reference) = (DataBuffer::new(), DataBuffer::new());
            for step in 0..300 {
                let slot = order[rng.uniform_u64(order.len() as u64) as usize];
                let key = KEYS[rng.uniform_u64(KEYS.len() as u64) as usize];
                match rng.uniform_u64(20) {
                    0..=8 => assert_eq!(
                        fast.read(slot, key, &order),
                        reference_read(&mut reference, slot, key, &order),
                        "seed {seed} step {step}: read {slot} {key}"
                    ),
                    9..=16 => {
                        let v = Value::Int(step);
                        assert_eq!(
                            fast.write(slot, key, v.clone(), &order),
                            reference_write(&mut reference, slot, key, v, &order),
                            "seed {seed} step {step}: write {slot} {key}"
                        );
                    }
                    // A slot leaves the pipeline (commit, squash or
                    // callee merge) and a fresh one enters at a random
                    // position, so program order keeps changing.
                    17 => {
                        assert_eq!(fast.commit(slot), reference.commit(slot));
                        order.retain(|x| *x != slot);
                    }
                    18 => {
                        fast.squash(slot);
                        reference.squash(slot);
                        order.retain(|x| *x != slot);
                    }
                    _ => {
                        let into = order[rng.uniform_u64(order.len() as u64) as usize];
                        if into != slot {
                            fast.merge(slot, into);
                            reference.merge(slot, into);
                            order.retain(|x| *x != slot);
                        }
                    }
                }
                if order.len() < 8 {
                    let at = rng.uniform_u64(order.len() as u64 + 1) as usize;
                    order.insert(at, s(next));
                    next += 1;
                }
                assert_eq!(fast.forwards(), reference.forwards(), "seed {seed}");
                assert_eq!(fast.violations(), reference.violations(), "seed {seed}");
            }
            assert_eq!(fast.rows, reference.rows, "seed {seed}: final cells");
            forwards += fast.forwards();
            violations += fast.violations();
        }
        assert!(
            forwards > 1_000 && violations > 1_000,
            "{forwards} {violations}"
        );
    }

    #[test]
    fn in_order_raw_forwards() {
        let order = vec![s(0), s(1), s(2)];
        let mut db = DataBuffer::new();
        assert!(db.write(s(0), "k", Value::Int(1), &order).is_empty());
        assert_eq!(
            db.read(s(2), "k", &order),
            ReadResult::Forwarded(Value::Int(1))
        );
        assert_eq!(db.forwards(), 1);
    }

    #[test]
    fn read_forwards_from_nearest_predecessor() {
        let order = vec![s(0), s(1), s(2)];
        let mut db = DataBuffer::new();
        db.write(s(0), "k", Value::Int(1), &order);
        db.write(s(1), "k", Value::Int(2), &order);
        assert_eq!(
            db.read(s(2), "k", &order),
            ReadResult::Forwarded(Value::Int(2))
        );
    }

    #[test]
    fn out_of_order_raw_squashes_reader() {
        let order = vec![s(0), s(1)];
        let mut db = DataBuffer::new();
        // Successor reads first (gets global state), predecessor then
        // writes: violation.
        assert_eq!(db.read(s(1), "k", &order), ReadResult::Global);
        let victims = db.write(s(0), "k", Value::Int(5), &order);
        assert_eq!(victims, vec![s(1)]);
        assert_eq!(db.violations(), 1);
    }

    #[test]
    fn write_scan_stops_at_first_writer() {
        // Fig. 9's Record-1 example inverted: a successor that WROTE the
        // record insulates readers beyond it (WAW / redefinition).
        let order = vec![s(0), s(1), s(2)];
        let mut db = DataBuffer::new();
        db.write(s(1), "k", Value::Int(9), &order);
        db.read(s(2), "k", &order); // reads s(1)'s value — fine
        let victims = db.write(s(0), "k", Value::Int(1), &order);
        assert!(
            victims.is_empty(),
            "s(2) read s(1)'s definition, not s(0)'s: no squash"
        );
    }

    #[test]
    fn write_squashes_reader_that_also_wrote_later() {
        // Successor both read (stale) and wrote: it is the first W column,
        // scanning ends there but it IS included — it read stale data.
        let order = vec![s(0), s(1)];
        let mut db = DataBuffer::new();
        db.read(s(1), "k", &order);
        db.write(s(1), "k", Value::Int(3), &order);
        let victims = db.write(s(0), "k", Value::Int(1), &order);
        assert_eq!(victims, vec![s(1)]);
    }

    #[test]
    fn war_handled_without_squash() {
        // R1 → W2 in order: the later write does not disturb the earlier
        // read.
        let order = vec![s(0), s(1)];
        let mut db = DataBuffer::new();
        db.read(s(0), "k", &order);
        let victims = db.write(s(1), "k", Value::Int(2), &order);
        assert!(victims.is_empty());
        // Out of order (W2 first, then R1 by the predecessor): predecessor
        // read must not see the successor's write.
        let mut db = DataBuffer::new();
        db.write(s(1), "k", Value::Int(2), &order);
        assert_eq!(db.read(s(0), "k", &order), ReadResult::Global);
    }

    #[test]
    fn waw_handled_without_squash() {
        let order = vec![s(0), s(1)];
        let mut db = DataBuffer::new();
        db.write(s(1), "k", Value::Int(2), &order);
        let victims = db.write(s(0), "k", Value::Int(1), &order);
        assert!(victims.is_empty());
        // Reads by an even later function see the younger definition.
        let order3 = vec![s(0), s(1), s(2)];
        assert_eq!(
            db.read(s(2), "k", &order3),
            ReadResult::Forwarded(Value::Int(2))
        );
    }

    #[test]
    fn commit_flushes_writes_and_clears() {
        let order = vec![s(0), s(1)];
        let mut db = DataBuffer::new();
        db.write(s(0), "a", Value::Int(1), &order);
        db.write(s(0), "b", Value::Int(2), &order);
        db.read(s(0), "c", &order);
        let flush = db.commit(s(0));
        assert_eq!(
            flush,
            vec![("a".into(), Value::Int(1)), ("b".into(), Value::Int(2))]
        );
        assert_eq!(db.rows(), 0);
    }

    #[test]
    fn squash_invalidates_cells() {
        let order = vec![s(0), s(1)];
        let mut db = DataBuffer::new();
        db.write(s(1), "k", Value::Int(9), &order);
        db.squash(s(1));
        let order3 = vec![s(0), s(1), s(2)];
        assert_eq!(db.read(s(2), "k", &order3), ReadResult::Global);
        assert!(db.commit(s(1)).is_empty());
    }

    #[test]
    fn merge_folds_callee_into_caller() {
        // Caller s(0), callee s(1): callee writes k, then merges into
        // caller; a later function forwards from the caller's column.
        let order = vec![s(0), s(1), s(2)];
        let mut db = DataBuffer::new();
        db.write(s(1), "k", Value::Int(42), &order);
        db.merge(s(1), s(0));
        assert!(db.has_write(s(0), "k"));
        assert!(!db.has_write(s(1), "k"));
        assert_eq!(
            db.read(s(2), "k", &order),
            ReadResult::Forwarded(Value::Int(42))
        );
        // Caller's commit flushes the merged write.
        let flush = db.commit(s(0));
        assert_eq!(flush, vec![("k".into(), Value::Int(42))]);
    }

    #[test]
    fn merge_preserves_caller_write_when_callee_only_read() {
        let order = vec![s(0), s(1)];
        let mut db = DataBuffer::new();
        db.write(s(0), "k", Value::Int(1), &order);
        db.read(s(1), "k", &order);
        db.merge(s(1), s(0));
        assert!(db.has_write(s(0), "k"));
        let flush = db.commit(s(0));
        assert_eq!(flush, vec![("k".into(), Value::Int(1))]);
    }

    #[test]
    fn fig9_record2_example() {
        // Fig. 9: Function i+1 has R set on Record 2; Function i then
        // writes Record 2 → out-of-order RAW, squash i+1.
        let order = vec![s(0), s(1), s(2)];
        let mut db = DataBuffer::new();
        db.read(s(2), "record2", &order);
        let victims = db.write(s(1), "record2", Value::Int(1), &order);
        assert_eq!(victims, vec![s(2)]);
    }

    #[test]
    fn repeated_read_by_same_function_not_exposed() {
        // The paper: the Data Buffer is only accessed on *exposed* reads.
        // The engine consults the local cache first; here we just check
        // re-reading after own write forwards nothing new.
        let order = vec![s(0)];
        let mut db = DataBuffer::new();
        db.write(s(0), "k", Value::Int(1), &order);
        // Own write is not a predecessor; read falls through to global.
        assert_eq!(db.read(s(0), "k", &order), ReadResult::Global);
    }
}
