//! One documented parsing rule for every `NDSEARCH_*` environment
//! override.
//!
//! The workspace's runtime switches (`NDSEARCH_NO_SIMD`,
//! `NDSEARCH_NO_QUANT`, ...) historically grew
//! ad-hoc parsers with diverging whitespace and `"0"` semantics. Every
//! switch now goes through the two helpers here:
//!
//! - **Flags** ([`env_flag`]): set iff the variable exists and its
//!   *trimmed* value is non-empty and not `"0"`. `export FLAG=""`,
//!   `FLAG="  "` and `FLAG=0` all mean *unset* — so shell scripts can
//!   pass a disabling value instead of having to `unset`.
//! - **Counts** ([`env_usize`]): a trimmed base-10 integer `>= 1`
//!   overrides; anything else (absent, empty, garbage, `0`) falls back
//!   to the caller's default. `0` is rejected rather than clamped so
//!   "explicitly disabled" can never masquerade as "one worker".

/// Whether the boolean override `name` is set.
///
/// Returns `true` iff the variable exists and its trimmed value is
/// non-empty and not `"0"`.
pub fn env_flag(name: &str) -> bool {
    matches!(std::env::var(name), Ok(v) if {
        let v = v.trim();
        !v.is_empty() && v != "0"
    })
}

/// The numeric override `name`, if it parses to a trimmed base-10
/// integer `>= 1`; `None` (caller's default applies) otherwise.
pub fn env_usize(name: &str) -> Option<usize> {
    parse_usize(std::env::var(name).ok().as_deref())
}

/// Pure core of [`env_usize`], split out so tests can cover the parsing
/// rule without mutating process environment.
pub fn parse_usize(value: Option<&str>) -> Option<usize> {
    value
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n >= 1)
}

/// Pure core of [`env_flag`]; see [`parse_usize`] for the rationale.
pub fn parse_flag(value: Option<&str>) -> bool {
    matches!(value, Some(v) if {
        let v = v.trim();
        !v.is_empty() && v != "0"
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_semantics() {
        assert!(!parse_flag(None));
        assert!(!parse_flag(Some("")));
        assert!(!parse_flag(Some("  ")));
        assert!(!parse_flag(Some("0")));
        assert!(!parse_flag(Some(" 0 ")), "trimmed zero is still unset");
        assert!(parse_flag(Some("1")));
        assert!(parse_flag(Some(" 1 ")), "whitespace must not flip a flag");
        assert!(parse_flag(Some("yes")));
        assert!(parse_flag(Some("00")), "only the literal 0 disables");
    }

    #[test]
    fn usize_semantics() {
        assert_eq!(parse_usize(None), None);
        assert_eq!(parse_usize(Some("")), None);
        assert_eq!(parse_usize(Some("  ")), None);
        assert_eq!(parse_usize(Some("0")), None, "0 is disabled, not clamped");
        assert_eq!(parse_usize(Some("-3")), None);
        for junk in ["4x", "abc", "4.5", "1e3", "0x10"] {
            assert_eq!(parse_usize(Some(junk)), None, "input {junk:?}");
        }
        assert_eq!(parse_usize(Some("1")), Some(1));
        assert_eq!(parse_usize(Some("4")), Some(4));
        assert_eq!(parse_usize(Some(" 8 ")), Some(8), "trimmed integer parses");
    }

    #[test]
    fn env_round_trip() {
        // Process-global state: use a name no other test touches.
        std::env::set_var("NDSEARCH_ENV_HELPER_TEST", " 6 ");
        assert!(env_flag("NDSEARCH_ENV_HELPER_TEST"));
        assert_eq!(env_usize("NDSEARCH_ENV_HELPER_TEST"), Some(6));
        std::env::set_var("NDSEARCH_ENV_HELPER_TEST", " 0 ");
        assert!(!env_flag("NDSEARCH_ENV_HELPER_TEST"));
        assert_eq!(env_usize("NDSEARCH_ENV_HELPER_TEST"), None);
        std::env::remove_var("NDSEARCH_ENV_HELPER_TEST");
        assert!(!env_flag("NDSEARCH_ENV_HELPER_TEST"));
        assert_eq!(env_usize("NDSEARCH_ENV_HELPER_TEST"), None);
    }
}
