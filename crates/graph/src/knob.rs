//! Fail-fast parsing of `KDOM_*` environment knobs.
//!
//! A few knobs are read from the environment: the oracles' worker count
//! (`KDOM_ORACLE_THREADS`), the trace file (`KDOM_TRACE`) and the test
//! and bench harness settings (`KDOM_CHAOS_*`, `KDOM_BENCH_*`). The
//! historical pattern
//! `var(k).ok().and_then(|v| v.parse().ok()).unwrap_or(default)`
//! silently swallowed malformed values: a thread count of `abc` fell
//! back to the single-threaded default without a word, so a typo'd CI
//! matrix or shell export quietly benchmarked the wrong configuration.
//! These helpers are the one place knob strings are parsed now, and a value
//! that is set but unusable **aborts with a message naming the variable
//! and the offending value** — a misconfigured run must not masquerade
//! as a configured one.
//!
//! Unset (or empty) variables still mean "use the default": failing fast
//! is about rejecting *malformed* input, not about making every knob
//! mandatory.

use std::fmt::Display;
use std::str::FromStr;

/// Reads the environment variable `name`, returning `default` when it is
/// unset or empty, and the parsed value otherwise.
///
/// # Panics
///
/// Panics with a message naming `name` and the offending value when the
/// variable is set but does not parse as `T`.
#[must_use]
pub fn knob<T>(name: &str, default: T) -> T
where
    T: FromStr,
    T::Err: Display,
{
    match raw(name) {
        None => default,
        Some(v) => v.parse().unwrap_or_else(|e| {
            panic!("{name}={v:?} is malformed: {e} (unset the variable for the default)")
        }),
    }
}

/// Like [`knob`], but additionally validates the parsed value with
/// `check`, which returns a description of the constraint when the value
/// is out of range.
///
/// # Panics
///
/// Panics, naming `name` and the offending value, when the variable is
/// set but malformed or when `check` rejects the parsed value.
#[must_use]
pub fn knob_checked<T>(name: &str, default: T, check: impl Fn(&T) -> Result<(), String>) -> T
where
    T: FromStr,
    T::Err: Display,
{
    let set = raw(name).is_some();
    let value = knob(name, default);
    if set {
        if let Err(constraint) = check(&value) {
            let v = std::env::var(name).unwrap_or_default();
            panic!("{name}={v:?} is out of range: {constraint}");
        }
    }
    value
}

/// Reads an enumerated string knob: returns `default` when unset or
/// empty, otherwise the mapping of the first `(aliases, value)` row whose
/// alias list contains the variable's value.
///
/// # Panics
///
/// Panics, naming `name`, the offending value, and the accepted aliases,
/// when the variable is set to a string matching no row.
#[must_use]
pub fn knob_enum<T: Copy>(name: &str, default: T, table: &[(&[&str], T)]) -> T {
    match raw(name) {
        None => default,
        Some(v) => table
            .iter()
            .find(|(aliases, _)| aliases.contains(&v.as_str()))
            .map(|&(_, value)| value)
            .unwrap_or_else(|| {
                let accepted: Vec<&str> =
                    table.iter().flat_map(|(a, _)| a.iter().copied()).collect();
                panic!(
                    "{name}={v:?} is not a recognized value (accepted: {})",
                    accepted.join(", ")
                )
            }),
    }
}

/// Reads a boolean knob through the workspace's one alias table:
/// `1`/`on`/`true`/`yes` enable, `0`/`off`/`false`/`no` disable, unset or
/// empty means `default`.
///
/// # Panics
///
/// Panics, naming the variable, the offending value, and the accepted
/// aliases, on any other string — `KDOM_BENCH_GATE=yes please` must not
/// silently run ungated.
#[must_use]
pub fn knob_flag(name: &str, default: bool) -> bool {
    knob_enum(
        name,
        default,
        &[
            (&["0", "off", "false", "no"], false),
            (&["1", "on", "true", "yes"], true),
        ],
    )
}

/// The variable's value when set and non-empty, unparsed — for knobs that
/// are strings by nature (file paths, socket endpoints) where every
/// non-empty value is well-formed. Empty strings count as unset:
/// `KDOM_FOO= cmd` is how shells express "default, explicitly".
///
/// # Panics
///
/// Panics if the variable is set to non-unicode bytes: a knob the
/// process cannot even read as text must not be silently ignored.
#[must_use]
pub fn raw(name: &str) -> Option<String> {
    match std::env::var(name) {
        Err(std::env::VarError::NotPresent) => None,
        Err(e) => panic!("{name} is not valid unicode: {e}"),
        Ok(v) if v.is_empty() => None,
        Ok(v) => Some(v),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Env-var tests share one process; each test uses its own variable
    // name so they cannot race under the parallel test runner.

    #[test]
    fn unset_yields_default() {
        assert_eq!(knob("KDOM_KNOB_TEST_UNSET", 7usize), 7);
    }

    #[test]
    fn empty_yields_default() {
        std::env::set_var("KDOM_KNOB_TEST_EMPTY", "");
        assert_eq!(knob("KDOM_KNOB_TEST_EMPTY", 7usize), 7);
    }

    #[test]
    fn set_parses() {
        std::env::set_var("KDOM_KNOB_TEST_SET", "42");
        assert_eq!(knob("KDOM_KNOB_TEST_SET", 7usize), 42);
    }

    #[test]
    #[should_panic(expected = "KDOM_KNOB_TEST_BAD=\"abc\" is malformed")]
    fn malformed_panics_naming_var_and_value() {
        std::env::set_var("KDOM_KNOB_TEST_BAD", "abc");
        let _ = knob("KDOM_KNOB_TEST_BAD", 7usize);
    }

    #[test]
    #[should_panic(expected = "KDOM_KNOB_TEST_RANGE=\"0\" is out of range")]
    fn out_of_range_panics() {
        std::env::set_var("KDOM_KNOB_TEST_RANGE", "0");
        let _ = knob_checked("KDOM_KNOB_TEST_RANGE", 4usize, |&v| {
            if v >= 1 {
                Ok(())
            } else {
                Err("must be at least 1".into())
            }
        });
    }

    #[test]
    fn enum_maps_aliases() {
        std::env::set_var("KDOM_KNOB_TEST_ENUM", "full-scan");
        let v = knob_enum(
            "KDOM_KNOB_TEST_ENUM",
            0,
            &[(&["active"], 1), (&["full", "full-scan"], 2)],
        );
        assert_eq!(v, 2);
    }

    #[test]
    #[should_panic(expected = "KDOM_KNOB_TEST_ENUM_BAD=\"sideways\" is not a recognized value")]
    fn enum_rejects_unknown() {
        std::env::set_var("KDOM_KNOB_TEST_ENUM_BAD", "sideways");
        let _ = knob_enum("KDOM_KNOB_TEST_ENUM_BAD", 0, &[(&["active"], 1)]);
    }

    #[test]
    fn flag_maps_aliases_and_defaults() {
        assert!(knob_flag("KDOM_KNOB_TEST_FLAG_UNSET", true));
        assert!(!knob_flag("KDOM_KNOB_TEST_FLAG_UNSET", false));
        std::env::set_var("KDOM_KNOB_TEST_FLAG_ON", "yes");
        assert!(knob_flag("KDOM_KNOB_TEST_FLAG_ON", false));
        std::env::set_var("KDOM_KNOB_TEST_FLAG_OFF", "0");
        assert!(!knob_flag("KDOM_KNOB_TEST_FLAG_OFF", true));
    }

    #[test]
    #[should_panic(expected = "KDOM_KNOB_TEST_FLAG_BAD=\"maybe\" is not a recognized value")]
    fn flag_rejects_unknown() {
        std::env::set_var("KDOM_KNOB_TEST_FLAG_BAD", "maybe");
        let _ = knob_flag("KDOM_KNOB_TEST_FLAG_BAD", false);
    }

    #[test]
    fn raw_passes_strings_through() {
        assert_eq!(raw("KDOM_KNOB_TEST_RAW_UNSET"), None);
        std::env::set_var("KDOM_KNOB_TEST_RAW_EMPTY", "");
        assert_eq!(raw("KDOM_KNOB_TEST_RAW_EMPTY"), None);
        std::env::set_var("KDOM_KNOB_TEST_RAW_SET", "/tmp/trace.jsonl");
        assert_eq!(
            raw("KDOM_KNOB_TEST_RAW_SET").as_deref(),
            Some("/tmp/trace.jsonl")
        );
    }
}
