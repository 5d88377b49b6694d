//! The enforcement-rule cache: a MAC-keyed hash table (paper §V).
//!
//! "In order to minimize the latency experienced during traffic
//! filtering (i.e., time required to find matching enforcement rule
//! for a given flow), enforcement rules are stored in a hash table
//! structure to minimize the lookup time as the enforcement rule cache
//! grows."

use std::collections::HashMap;

use sentinel_net::MacAddr;

use crate::rule::EnforcementRule;

/// Hash-table rule store with hit/miss accounting.
#[derive(Debug, Clone, Default)]
pub struct RuleCache {
    rules: HashMap<MacAddr, EnforcementRule>,
    hits: u64,
    misses: u64,
}

impl RuleCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        RuleCache::default()
    }

    /// Installs (or replaces) the rule for a device, returning the
    /// previous rule if any.
    pub fn install(&mut self, rule: EnforcementRule) -> Option<EnforcementRule> {
        self.rules.insert(rule.mac(), rule)
    }

    /// Looks up the rule for `mac`, counting hit/miss statistics.
    pub fn lookup(&mut self, mac: MacAddr) -> Option<&EnforcementRule> {
        match self.rules.get(&mac) {
            Some(rule) => {
                self.hits += 1;
                Some(rule)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Read-only lookup without statistics (for inspection).
    pub fn peek(&self, mac: MacAddr) -> Option<&EnforcementRule> {
        self.rules.get(&mac)
    }

    /// Removes the rule of a disconnected device (§V: "removing unused
    /// enforcement rules … from the cache").
    pub fn evict(&mut self, mac: MacAddr) -> Option<EnforcementRule> {
        self.rules.remove(&mac)
    }

    /// Number of installed rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Lookup hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookup misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Iterates over installed rules.
    pub fn iter(&self) -> impl Iterator<Item = &EnforcementRule> {
        self.rules.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sentinel_core::IsolationLevel;

    fn mac(last: u8) -> MacAddr {
        MacAddr::new([2, 0, 0, 0, 0, last])
    }

    #[test]
    fn install_lookup_evict_cycle() {
        let mut cache = RuleCache::new();
        assert!(cache.is_empty());
        cache.install(EnforcementRule::new(mac(1), IsolationLevel::Strict));
        cache.install(EnforcementRule::new(mac(2), IsolationLevel::Trusted));
        assert_eq!(cache.len(), 2);
        assert!(cache.lookup(mac(1)).is_some());
        assert!(cache.lookup(mac(3)).is_none());
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert!(cache.evict(mac(1)).is_some());
        assert_eq!(cache.len(), 1);
        assert!(cache.peek(mac(1)).is_none());
    }

    #[test]
    fn reinstall_replaces_rule() {
        let mut cache = RuleCache::new();
        cache.install(EnforcementRule::new(mac(1), IsolationLevel::Strict));
        let old = cache.install(EnforcementRule::new(mac(1), IsolationLevel::Trusted));
        assert_eq!(old.unwrap().isolation(), &IsolationLevel::Strict);
        assert_eq!(cache.len(), 1);
        assert_eq!(
            cache.peek(mac(1)).unwrap().isolation(),
            &IsolationLevel::Trusted
        );
    }

    #[test]
    fn iterate_rules() {
        let mut cache = RuleCache::new();
        cache.install(EnforcementRule::new(mac(1), IsolationLevel::Strict));
        cache.install(EnforcementRule::new(mac(2), IsolationLevel::Strict));
        assert_eq!(cache.iter().count(), 2);
    }
}
