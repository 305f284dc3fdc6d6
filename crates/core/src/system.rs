//! The four caching systems the evaluation compares (§V-A).

use std::fmt;

use ape_nodes::{ApPolicy, Strategy};

/// One of the paper's evaluated systems.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum System {
    /// APE-CACHE: DNS-piggybacked AP cache with PACM eviction.
    ApeCache,
    /// APE-CACHE-LRU: the APE-CACHE workflow with LRU eviction (ablation).
    ApeCacheLru,
    /// Wi-Cache: controller-mediated AP cache with LRU eviction.
    WiCache,
    /// Edge Cache: conventional DNS-located edge cache server.
    EdgeCache,
}

impl System {
    /// All systems in the paper's presentation order.
    pub const ALL: [System; 4] = [
        System::ApeCache,
        System::ApeCacheLru,
        System::WiCache,
        System::EdgeCache,
    ];

    /// Display label matching the paper.
    pub fn label(self) -> &'static str {
        match self {
            System::ApeCache => "APE-CACHE",
            System::ApeCacheLru => "APE-CACHE-LRU",
            System::WiCache => "Wi-Cache",
            System::EdgeCache => "Edge Cache",
        }
    }

    /// Whether the system caches on the AP at all. If it does, its clients
    /// resolve through their AP (the LAN's DNS); the Edge Cache baseline
    /// queries the LDNS directly.
    pub fn caches_on_ap(self) -> bool {
        !matches!(self, System::EdgeCache)
    }

    /// The eviction policy the system's APs run. APE-CACHE honours the
    /// configured policy so PACM ablations (e.g. fairness off) can run
    /// under the normal workflow; the rest are LRU — unused for Edge
    /// Cache, whose AP stays present for fair resource comparisons.
    pub(crate) fn ap_policy(self, configured: ApPolicy) -> ApPolicy {
        match self {
            System::ApeCache => configured,
            System::ApeCacheLru | System::WiCache | System::EdgeCache => ApPolicy::Lru,
        }
    }

    /// The retrieval workflow the system's clients run.
    pub(crate) fn strategy(self) -> Strategy {
        match self {
            System::ApeCache | System::ApeCacheLru => Strategy::ApeCache,
            System::WiCache => Strategy::WiCache,
            System::EdgeCache => Strategy::EdgeCache,
        }
    }
}

impl fmt::Display for System {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_names() {
        assert_eq!(System::ApeCache.to_string(), "APE-CACHE");
        assert_eq!(System::WiCache.to_string(), "Wi-Cache");
        assert_eq!(System::EdgeCache.label(), "Edge Cache");
        assert_eq!(System::ALL.len(), 4);
    }

    #[test]
    fn ap_caching_classification() {
        assert!(System::ApeCache.caches_on_ap());
        assert!(System::ApeCacheLru.caches_on_ap());
        assert!(System::WiCache.caches_on_ap());
        assert!(!System::EdgeCache.caches_on_ap());
    }
}
