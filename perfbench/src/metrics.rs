//! The benchmark's metric names and units, in the order they are
//! printed. `BENCHMARK.json` lists the same names (a test checks it).

/// End-to-end metrics, printed by every untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("spec_req_per_s", "1/s"),
    ("baseline_req_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("spec_p50_ms", "ms"),
    ("spec_p99_ms", "ms"),
    ("baseline_p50_ms", "ms"),
    ("baseline_p99_ms", "ms"),
    ("speedup", "x"),
    ("spec_useful_core_frac", "frac"),
];

/// Engine labels, as metric-name prefixes.
pub const ENGINES: [&str; 2] = ["spec", "baseline"];

/// Event kinds an engine delivers with faults off, whose `dispatch`
/// self time the traced run reports.
fn dispatch_kinds(engine: &str) -> Vec<&'static str> {
    let (names, fault_only) = crate::detailed::event_kinds(engine);
    names
        .iter()
        .filter(|k| !fault_only.contains(k))
        .copied()
        .collect()
}

/// Per-layer metrics, printed by every traced run: `(name, unit)`. A
/// layer the workload never exercises reports 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit: &'static str| out.push((name, unit));
    for e in ENGINES {
        add(format!("{e}.event.step_ns"), "ns");
        add(format!("{e}.event.per_req"), "count/req");
        for k in dispatch_kinds(e) {
            add(format!("{e}.dispatch.{k}.ns_per_req"), "ns/req");
            add(format!("{e}.dispatch.{k}.per_req"), "count/req");
        }
        add(format!("{e}.host.residual_frac"), "frac");
        add(format!("{e}.trace.overhead"), "x");
        add(format!("{e}.latency.samples"), "count");
        add(format!("{e}.container.cold_starts"), "count");
        add(format!("{e}.container.warm_rate"), "frac");
        add(format!("{e}.container.evictions"), "count");
        add(format!("{e}.cluster.cpu_util"), "frac");
        add(format!("{e}.kv.reads_per_req"), "count/req");
        add(format!("{e}.kv.writes_per_req"), "count/req");
    }
    for (name, unit) in [
        ("spec.functions.started_per_req", "count/req"),
        ("spec.functions.squashed_frac", "frac"),
        ("spec.branch.predictions_per_req", "count/req"),
        ("spec.branch.accuracy", "frac"),
        ("spec.memo.lookups_per_req", "count/req"),
        ("spec.memo.hit_rate", "frac"),
        ("spec.wasted_core_frac", "frac"),
        ("value.clone_ns", "ns"),
        ("memo.lookup_ns", "ns"),
        ("memo.insert_ns", "ns"),
        ("databuffer.read_ns", "ns"),
        ("databuffer.commit_ns", "ns"),
        ("kv.get_ns", "ns"),
        ("kv.set_ns", "ns"),
        ("interp.run_ns", "ns"),
        ("fleet.run_ns_per_req", "ns/req"),
        ("tracegen.ns_per_arrival", "ns"),
        ("warm_pool.op_ns", "ns"),
    ] {
        add(name.to_string(), unit);
    }
    for e in ENGINES {
        add(format!("{e}.fleet.cold_rate"), "frac");
        add(format!("{e}.fleet.evictions"), "count");
        add(format!("{e}.fleet.peak_live"), "count");
        add(format!("{e}.fleet.model_mem_bytes"), "B");
        add(format!("{e}.fleet.prewarm_issued"), "count");
    }
    add("failed_frac".to_string(), "frac");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` pairs of one section of `BENCHMARK.json`, read with
    /// plain string scanning (the workspace has no JSON parser).
    fn section(json: &str, key: &str) -> Vec<(String, String)> {
        let start = json
            .find(&format!("\"{key}\""))
            .unwrap_or_else(|| panic!("no {key}"));
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section ends")];
        let field = |obj: &str, f: &str| {
            let at = obj.find(&format!("\"{f}\"")).expect("field") + f.len() + 2;
            let rest = &obj[at..];
            let open = rest.find('"').expect("value") + 1;
            rest[open..open + rest[open..].find('"').expect("closing quote")].to_string()
        };
        body.split('{')
            .skip(1)
            .map(|obj| (field(obj, "name"), field(obj, "unit")))
            .collect()
    }

    fn owned(v: &[(&str, &str)]) -> Vec<(String, String)> {
        v.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn names_match_benchmark_json() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        specfaas_sim::trace::validate_json(&json).expect("valid JSON");
        assert_eq!(section(&json, "end_to_end"), owned(END_TO_END));
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(section(&json, "per_layer"), layers);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        names.extend(per_layer().into_iter().map(|(n, _)| n));
        assert!(names.len() <= 16 + 128);
        for n in &names {
            assert!(n.len() <= 64, "{n}");
            assert!(
                n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric()),
                "{n}"
            );
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
        }
        let mut sorted = names.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate metric name");
    }
}
