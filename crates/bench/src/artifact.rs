//! Number extraction from the bench binaries' own JSON artifacts
//! (`BENCH_wallclock.json`, `BENCH_scale.json`), shared by
//! [`crate::wallclock_guard`] and [`crate::scale_guard`].
//!
//! This is a deliberately minimal extractor for those artifacts' fixed
//! emitters, not a general JSON parser, so the bench crate stays
//! dependency-free. The objects it reads are emitted flat (no nested
//! objects), so naive `{`/`}` delimiting is sound.

/// Extracts the first number following `"key":` in `chunk`.
pub fn num_after(chunk: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let rest = &chunk[chunk.find(&needle)? + needle.len()..];
    let rest = rest.trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The body of every `{…}` object in `json`, in order, delimited at the
/// first `}` after each `{`. Stops at an unclosed brace.
pub fn flat_objects(json: &str) -> impl Iterator<Item = &str> {
    let mut rest = json;
    std::iter::from_fn(move || {
        let body_start = rest.find('{')? + 1;
        let close = body_start + rest[body_start..].find('}')?;
        let body = &rest[body_start..close];
        rest = &rest[close + 1..];
        Some(body)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_numbers_after_keys() {
        let json = r#"{"a": 1.5, "b":-2e3, "c": "x"}"#;
        assert_eq!(num_after(json, "a"), Some(1.5));
        assert_eq!(num_after(json, "b"), Some(-2000.0));
        assert_eq!(num_after(json, "c"), None);
        assert_eq!(num_after(json, "d"), None);
    }

    #[test]
    fn walks_flat_objects_and_stops_at_an_unclosed_brace() {
        let json = r#"{"top": 1, "rows": [{"n": 2}, {"n": 3}, {"n": 4"#;
        let bodies: Vec<&str> = flat_objects(json).collect();
        assert_eq!(bodies, [r#""top": 1, "rows": [{"n": 2"#, r#""n": 3"#]);
    }
}
