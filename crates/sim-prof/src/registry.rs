//! The symbol table of modelled kernel functions.

use std::collections::HashMap;
use std::fmt;

/// Handle to a registered function.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FuncId(u32);

impl FuncId {
    /// Raw index into the registry.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for FuncId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fn{}", self.0)
    }
}

pub(crate) fn funcid_from_index(i: usize) -> FuncId {
    FuncId(i as u32)
}

/// Metadata for one registered function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionMeta {
    /// Symbol name as it would appear in an Oprofile report
    /// (`tcp_sendmsg`, `IRQ0x19_interrupt`, …).
    pub name: String,
    /// Functional group — the paper's bin (`Engine`, `Copies`, …).
    pub group: String,
}

/// Registry mapping function names to ids and functional groups.
///
/// Registration is idempotent per name: registering an existing name
/// returns the existing id (the group must match).
#[derive(Debug, Clone, Default)]
pub struct FunctionRegistry {
    entries: Vec<FunctionMeta>,
    by_name: HashMap<String, FuncId>,
}

impl FunctionRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        FunctionRegistry::default()
    }

    /// Registers `name` under `group`, or returns the existing id.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered under a *different* group —
    /// a function cannot belong to two bins.
    pub fn register(&mut self, name: impl Into<String>, group: impl Into<String>) -> FuncId {
        let name = name.into();
        let group = group.into();
        if let Some(&id) = self.by_name.get(&name) {
            assert_eq!(
                self.entries[id.index()].group,
                group,
                "function {name} re-registered under a different group"
            );
            return id;
        }
        let id = FuncId(self.entries.len() as u32);
        self.by_name.insert(name.clone(), id);
        self.entries.push(FunctionMeta { name, group });
        id
    }

    /// Looks up a function by name.
    #[must_use]
    pub fn lookup(&self, name: &str) -> Option<FuncId> {
        self.by_name.get(name).copied()
    }

    /// Metadata for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this registry.
    #[must_use]
    pub fn meta(&self, id: FuncId) -> &FunctionMeta {
        &self.entries[id.index()]
    }

    /// Symbol name for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this registry.
    #[must_use]
    pub fn name(&self, id: FuncId) -> &str {
        &self.entries[id.index()].name
    }

    /// Group (bin) for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` did not come from this registry.
    #[must_use]
    pub fn group(&self, id: FuncId) -> &str {
        &self.entries[id.index()].group
    }

    /// Number of registered functions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing has been registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over `(id, meta)` in registration order.
    pub fn iter(&self) -> impl Iterator<Item = (FuncId, &FunctionMeta)> {
        self.entries
            .iter()
            .enumerate()
            .map(|(i, m)| (FuncId(i as u32), m))
    }

    /// The distinct group names, in first-seen order.
    #[must_use]
    pub fn groups(&self) -> Vec<&str> {
        let mut seen = Vec::new();
        for m in &self.entries {
            if !seen.contains(&m.group.as_str()) {
                seen.push(m.group.as_str());
            }
        }
        seen
    }

    /// Ids of every function in `group`.
    #[must_use]
    pub fn functions_in(&self, group: &str) -> Vec<FuncId> {
        self.iter()
            .filter(|(_, m)| m.group == group)
            .map(|(id, _)| id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_lookup() {
        let mut r = FunctionRegistry::new();
        let a = r.register("tcp_sendmsg", "Engine");
        let b = r.register("__copy_user", "Copies");
        assert_ne!(a, b);
        assert_eq!(r.lookup("tcp_sendmsg"), Some(a));
        assert_eq!(r.lookup("nope"), None);
        assert_eq!(r.name(a), "tcp_sendmsg");
        assert_eq!(r.group(b), "Copies");
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
    }

    #[test]
    fn idempotent_registration() {
        let mut r = FunctionRegistry::new();
        let a = r.register("f", "G");
        let b = r.register("f", "G");
        assert_eq!(a, b);
        assert_eq!(r.len(), 1);
    }

    #[test]
    #[should_panic(expected = "different group")]
    fn conflicting_group_rejected() {
        let mut r = FunctionRegistry::new();
        r.register("f", "G1");
        r.register("f", "G2");
    }

    #[test]
    fn groups_in_first_seen_order() {
        let mut r = FunctionRegistry::new();
        r.register("a", "Engine");
        r.register("b", "Copies");
        r.register("c", "Engine");
        assert_eq!(r.groups(), ["Engine", "Copies"]);
        assert_eq!(r.functions_in("Engine").len(), 2);
        assert_eq!(r.functions_in("Timers").len(), 0);
    }
}
