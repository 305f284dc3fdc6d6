//! The metric-name registry the `metric-registry` rule resolves against.
//!
//! Built from `ape_proto::names::{REGISTRY, DYNAMIC_PREFIXES}` for workspace
//! scans; fixture tests construct synthetic registries with
//! [`Registry::from_entries`]. Keeping this a plain value (rather than
//! having rules call into `ape_proto` directly) keeps `scan_source` a pure
//! function of its inputs.

use std::collections::{BTreeMap, BTreeSet};

/// Known metric names: full static keys, dynamic prefixes, and the const
/// idents interned ids must use.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    /// Full key → const ident (`"ap.cache_hits"` → `"AP_CACHE_HITS"`).
    by_value: BTreeMap<String, String>,
    /// Registered dynamic prefixes (each ends with `.`).
    prefixes: Vec<String>,
    /// Const idents valid as `*_id` arguments (`AP_CACHE_HITS`…).
    idents: BTreeSet<String>,
}

impl Registry {
    /// The live workspace registry from `ape_proto::names`.
    pub fn workspace() -> Registry {
        Registry::from_entries(
            ape_proto::names::REGISTRY,
            ape_proto::names::DYNAMIC_PREFIXES,
        )
    }

    /// Builds a registry from `(ident, value)` static entries and
    /// `(ident, prefix)` dynamic-prefix entries.
    pub fn from_entries(entries: &[(&str, &str)], prefixes: &[(&str, &str)]) -> Registry {
        let mut reg = Registry::default();
        for (ident, value) in entries {
            reg.by_value
                .insert((*value).to_owned(), (*ident).to_owned());
            reg.idents.insert((*ident).to_owned());
        }
        for (ident, prefix) in prefixes {
            reg.prefixes.push((*prefix).to_owned());
            reg.idents.insert((*ident).to_owned());
        }
        reg
    }

    /// An empty registry (every name unresolvable) — fixture use only.
    pub fn empty() -> Registry {
        Registry::default()
    }

    /// Whether a full metric-name string resolves: an exact registered key,
    /// or a registered dynamic prefix with a non-empty suffix.
    pub fn resolves(&self, name: &str) -> bool {
        if self.by_value.contains_key(name) {
            return true;
        }
        self.prefixes
            .iter()
            .any(|p| name.len() > p.len() && name.starts_with(p.as_str()))
    }

    /// The const ident for an exactly-registered key, named in the
    /// violation so the literal can be replaced by `ape_proto::names::<IDENT>`.
    pub fn const_for(&self, name: &str) -> Option<&str> {
        self.by_value.get(name).map(String::as_str)
    }

    /// Whether `ident` is a registered const ident (valid `*_id` argument).
    pub fn knows_ident(&self, ident: &str) -> bool {
        self.idents.contains(ident)
    }

    /// True when the registry has no entries at all.
    pub fn is_empty(&self) -> bool {
        self.by_value.is_empty() && self.prefixes.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Registry {
        Registry::from_entries(
            &[("AP_CACHE_HITS", "ap.cache_hits")],
            &[("CLIENT_APP_LATENCY_MS_PREFIX", "client.app_latency_ms.")],
        )
    }

    #[test]
    fn exact_and_prefix_resolution() {
        let reg = sample();
        assert!(reg.resolves("ap.cache_hits"));
        assert!(reg.resolves("client.app_latency_ms.maps"));
        assert!(!reg.resolves("client.app_latency_ms.")); // empty suffix
        assert!(!reg.resolves("ap.cache_hitss"));
        assert!(!reg.resolves("ap.typo"));
    }

    #[test]
    fn const_lookup_and_idents() {
        let reg = sample();
        assert_eq!(reg.const_for("ap.cache_hits"), Some("AP_CACHE_HITS"));
        assert_eq!(reg.const_for("ap.typo"), None);
        assert!(reg.knows_ident("AP_CACHE_HITS"));
        assert!(reg.knows_ident("CLIENT_APP_LATENCY_MS_PREFIX"));
        assert!(!reg.knows_ident("AP_STALE"));
    }

    #[test]
    fn workspace_registry_is_populated() {
        let reg = Registry::workspace();
        assert!(reg.resolves("net.messages"));
        assert!(reg.resolves("ap.cache_hits"));
        assert!(reg.knows_ident("CLIENT_FETCHES"));
        assert!(!reg.is_empty());
    }
}
