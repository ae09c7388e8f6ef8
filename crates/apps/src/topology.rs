//! Seeded random DAG-topology generator.
//!
//! [`random_bundle`] builds a complete, runnable [`AppBundle`] from a
//! seed: a workflow drawn from the full explicit DSL (sequences,
//! data-dependent branches, bounded-width `parallel` fan-outs with join
//! tasks) over freshly synthesized functions that genuinely compute —
//! hash-mixing their inputs, reading seeded storage, writing
//! function-private keys, and reading values produced earlier on the
//! same path (including across join boundaries, which exercises the
//! Data Buffer's forwarding and violation logic).
//!
//! The generator only emits programs whose committed semantics are
//! engine-independent, so every generated app is a valid subject for
//! the cross-engine equivalence harness:
//!
//! * parallel siblings write disjoint, function-private keys and never
//!   read keys written by a sibling;
//! * a function only reads `out:*` keys written *unconditionally* by
//!   functions that precede it in program order on every path — forks
//!   execute all branches, so branch-level writes become readable after
//!   the join, while writes inside `when` arms stay arm-local;
//! * every `parallel` is preceded by a plain task (the compiler's
//!   single-simple-tail rule) and followed by a join task, so no fork
//!   is left dangling inside a larger composition.
//!
//! Topology bounds: depth ≤ [`MAX_DEPTH`] nested compositions, fan-outs
//! of 2..=[`MAX_WIDTH`] branches, at most [`max_functions_bound`]
//! functions (a [`MAX_FUNCTIONS`] budget plus the segment in flight
//! when the budget trips).
//! Generation consumes randomness only at *build* time from its own
//! seeded [`specfaas_sim::SimRng`]; the produced programs are deterministic in their
//! inputs and storage, and the same seed always yields the same app.

use specfaas_storage::Value;
use specfaas_workflow::expr::*;
use specfaas_workflow::{AppSpec, FunctionRegistry, FunctionSpec, Program, Workflow};

use crate::suite::AppBundle;

/// Maximum nesting depth of compositions (branch arms, fork branches).
pub const MAX_DEPTH: usize = 3;
/// Maximum fan-out width of a generated `parallel`.
pub const MAX_WIDTH: usize = 6;
/// Function budget per app: once reached, no new segments open (the
/// segment being emitted still completes, so a few extra functions may
/// be registered — see [`max_functions_bound`]).
pub const MAX_FUNCTIONS: usize = 48;

/// Hard upper bound on registered functions: the budget plus the worst
/// in-flight segment (a full-width fork with its anchor and join, or a
/// branch with two single-task arms at every nesting level).
pub const fn max_functions_bound() -> usize {
    MAX_FUNCTIONS + 2 * MAX_WIDTH + 3 * MAX_DEPTH
}
/// Seeded `g:{i}` storage keys every generated app may read.
const SEED_KEYS: u64 = 16;

struct Gen {
    rng: specfaas_sim::SimRng,
    reg: FunctionRegistry,
    next_fn: usize,
}

impl Gen {
    /// True while the function budget allows another synthesized function.
    fn has_budget(&self) -> bool {
        self.next_fn < MAX_FUNCTIONS
    }

    /// Synthesizes and registers one function.
    ///
    /// The function hashes its input, optionally folds in a seeded
    /// `g:{i}` read and a read of one prior unconditional producer, and
    /// (with probability 1/2) writes its private `out:F{n}` key. Every
    /// function returns `{v: int, b: bool}` — `b` is a biased,
    /// input-dependent bit any enclosing `when` can branch on. A
    /// non-empty `join_reads` (used for join functions) folds in a read
    /// of one branch-written key across the join boundary.
    fn make_fn(&mut self, producers: &[String], join_reads: &[String]) -> (String, bool) {
        let n = self.next_fn;
        self.next_fn += 1;
        let name = format!("F{n}");

        let mut b = Program::builder().compute_ms(2 + self.rng.uniform_u64(5));
        // Mix: structural hash of the input document plus a per-function salt.
        let mut v = add(hash_of(input()), lit((n as i64) * 2_654_435_761));
        if self.rng.chance(0.4) {
            let k = self.rng.uniform_u64(SEED_KEYS);
            b = b.get(lit(format!("g:{k}")), "g");
            v = add(v, var("g"));
        }
        if !producers.is_empty() && self.rng.chance(0.4) {
            let p = &producers[self.rng.uniform_u64(producers.len() as u64) as usize];
            b = b.get(lit(format!("out:{p}")), "p");
            v = add(v, field(var("p"), "v"));
        }
        if !join_reads.is_empty() {
            // Read one sibling-branch product back across the join — an
            // in-order RAW dependence the Data Buffer must forward.
            let p = &join_reads[self.rng.uniform_u64(join_reads.len() as u64) as usize];
            b = b.get(lit(format!("out:{p}")), "j");
            v = add(v, field(var("j"), "v"));
        }
        let v = modulo(v, lit(1_000_000i64));
        // Branch bit: biased towards taken, but genuinely data-dependent.
        let bias = 70 + (self.rng.uniform_u64(28) as i64);
        let bit = lt(
            modulo(add(v.clone(), lit(n as i64)), lit(100i64)),
            lit(bias),
        );

        let writes = self.rng.chance(0.5);
        if writes {
            b = b.set(
                lit(format!("out:{name}")),
                make_map([("v", v.clone()), ("from", lit(n as i64))]),
            );
        }
        self.reg.register(FunctionSpec::new(
            &name,
            b.ret(make_map([("v", v), ("b", bit)])),
        ));
        (name, writes)
    }

    /// Emits one plain task, extending `producers` with its write (if any).
    fn task(&mut self, producers: &mut Vec<String>) -> Workflow {
        let (name, writes) = self.make_fn(producers, &[]);
        if writes {
            producers.push(name.clone());
        }
        Workflow::task(name)
    }

    /// A fork/join segment: anchor task, `parallel` fan-out, join task.
    /// Returns the three-element tail of the enclosing sequence.
    fn fork_join(&mut self, depth: usize, producers: &mut Vec<String>) -> Vec<Workflow> {
        let anchor = self.task(producers);
        let width = 2 + self.rng.uniform_u64((MAX_WIDTH - 2) as u64 + 1) as usize;
        let mut branches = Vec::with_capacity(width);
        // Branch-level (unconditional) writes: readable after the join,
        // since a fork executes every branch.
        let mut branch_writes: Vec<String> = Vec::new();
        for _ in 0..width {
            // Siblings see only pre-fork producers — never each other.
            let mut local = producers.clone();
            let before = local.len();
            let branch = if depth < MAX_DEPTH && self.rng.chance(0.3) && self.has_budget() {
                // A deeper composition inside the branch (chain or when).
                self.sequence(depth + 1, &mut local, false)
            } else {
                self.task(&mut local)
            };
            branch_writes.extend(local.drain(before..));
            branches.push(branch);
        }
        // The join function may read any branch's unconditional product.
        let (join, join_writes) = self.make_fn(producers, &branch_writes);
        producers.extend(branch_writes);
        if join_writes {
            producers.push(join.clone());
        }
        vec![anchor, Workflow::parallel(branches), Workflow::task(join)]
    }

    /// A data-dependent branch over two sub-compositions.
    fn when(&mut self, depth: usize, producers: &mut Vec<String>) -> Workflow {
        let (cond, writes) = self.make_fn(producers, &[]);
        if writes {
            producers.push(cond.clone());
        }
        // Writes inside an arm are conditional: visible to later parts of
        // the same arm only, so each arm gets a discarded clone.
        let then = self.sequence(depth + 1, &mut producers.clone(), false);
        let els = if self.rng.chance(0.7) {
            Some(self.sequence(depth + 1, &mut producers.clone(), false))
        } else {
            None
        };
        Workflow::when_field(cond, "b", then, els)
    }

    /// A sequence of 1–4 segments. `allow_fork` admits fork/join
    /// segments (disabled inside fork branches to keep every branch a
    /// single dynamic arrival without relying on nested-join corner
    /// cases at depth).
    fn sequence(
        &mut self,
        depth: usize,
        producers: &mut Vec<String>,
        allow_fork: bool,
    ) -> Workflow {
        let len = 1 + self.rng.uniform_u64(3) as usize;
        let mut parts = Vec::new();
        for i in 0..len {
            if !self.has_budget() {
                break;
            }
            let roll = self.rng.uniform_f64();
            if allow_fork && roll < 0.35 && self.has_budget() {
                parts.extend(self.fork_join(depth, producers));
            } else if depth < MAX_DEPTH && roll < 0.6 && i > 0 {
                parts.push(self.when(depth, producers));
            } else {
                parts.push(self.task(producers));
            }
        }
        if parts.is_empty() {
            parts.push(self.task(producers));
        }
        Workflow::sequence(parts)
    }
}

/// Builds a complete random application from `seed`. The same seed
/// always produces the same application.
pub fn random_bundle(seed: u64) -> AppBundle {
    let mut g = Gen {
        rng: specfaas_sim::SimRng::seed(seed ^ 0xD46_7090),
        reg: FunctionRegistry::new(),
        next_fn: 0,
    };
    let mut producers = Vec::new();
    // Top-level: always at least one fork/join plus random structure.
    let mut parts = Vec::new();
    parts.extend(g.fork_join(1, &mut producers));
    if let Workflow::Sequence(more) = g.sequence(1, &mut producers, true) {
        parts.extend(more);
    }
    let wf = Workflow::sequence(parts);
    let app = AppSpec::new(format!("RandomDag{seed:x}"), "RandomDAG", g.reg, wf);
    AppBundle::new(
        app,
        move |rng| {
            Value::map([
                ("k", Value::Int(rng.uniform_u64(50) as i64)),
                ("u", Value::str(format!("u:{}", rng.zipf(40, 1.2)))),
            ])
        },
        move |kv, rng| {
            for i in 0..SEED_KEYS {
                kv.set(
                    format!("g:{i}"),
                    Value::Int(rng.uniform_u64(100_000) as i64),
                );
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use specfaas_platform::EngineCore;
    use specfaas_sim::SimRng;
    use specfaas_workflow::EntryKind;

    #[test]
    fn generation_is_deterministic() {
        for seed in [0u64, 1, 42, 0xDA6] {
            let a = random_bundle(seed);
            let b = random_bundle(seed);
            assert_eq!(
                a.app.workflow.function_names(),
                b.app.workflow.function_names(),
                "seed {seed} generated two different workflows"
            );
        }
    }

    #[test]
    fn topologies_compile_and_respect_bounds() {
        for seed in 0..200u64 {
            let bundle = random_bundle(seed);
            let c = &bundle.app.compiled;
            assert!(
                bundle.app.registry.len() <= max_functions_bound(),
                "seed {seed}: {} functions exceeds the bound {}",
                bundle.app.registry.len(),
                max_functions_bound()
            );
            let mut has_fork = false;
            for e in &c.entries {
                if let EntryKind::Fork { branches, join } = &e.kind {
                    has_fork = true;
                    assert!(
                        (2..=MAX_WIDTH).contains(&branches.len()),
                        "seed {seed}: fork width {} out of bounds",
                        branches.len()
                    );
                    let j = join.expect("generated forks always have a join");
                    assert_eq!(
                        c.entries[j].join_arity,
                        branches.len() as u32,
                        "seed {seed}: join arity mismatch"
                    );
                }
            }
            assert!(has_fork, "seed {seed}: no fork generated");
        }
    }

    #[test]
    fn generated_apps_run_on_both_engines() {
        use specfaas_core::{SpecConfig, SpecCore, SpecEngine};
        use specfaas_platform::{BaselineCore, BaselineEngine};
        for seed in 0..10u64 {
            let bundle = random_bundle(seed);
            let mut base = BaselineEngine::new(BaselineCore::new(bundle.app.clone(), 7));
            base.prewarm();
            let mut rng = SimRng::seed(1);
            (bundle.seed)(&mut base.rt_mut().kv, &mut rng);
            base.run_single((bundle.make_input)(&mut rng));

            let mut spec =
                SpecEngine::new(SpecCore::new(bundle.app.clone(), SpecConfig::full(), 7));
            spec.prewarm();
            let mut rng = SimRng::seed(1);
            (bundle.seed)(&mut spec.rt_mut().kv, &mut rng);
            for _ in 0..5 {
                spec.run_single((bundle.make_input)(&mut rng));
            }
            let m = spec.run_closed(0, |_| Value::Null);
            assert_eq!(m.completed, 5, "seed {seed}: spec engine lost requests");
        }
    }
}
