//! The shared instance catalog: named incomplete databases as immutable
//! [`Snapshot`]s — each instance behind an `Arc`, together with the state
//! derived from it (its interned form and its core bit), which is built lazily
//! by the first evaluation that needs it and then shared by every later one.
//!
//! The catalog is the service's only mutable shared state besides the plan cache,
//! and it is mutated **copy-on-write**: the whole name → instance map lives behind
//! one `Arc`, readers clone that `Arc` under a momentary read lock (no allocation,
//! no contention with evaluation work), and writers build a *new* map and swap it
//! in. An `EVAL` that raced a concurrent `LOAD` simply keeps evaluating against the
//! snapshot it took — exactly the isolation a certain-answer computation needs,
//! since an instance must not change mid-enumeration.
//!
//! Every `LOAD` registers a **fresh** [`Snapshot`] with empty derived state,
//! even when it re-loads equal data: derived state belongs to one version and
//! is dropped with it, once the last reader holding that version lets go.

use std::collections::BTreeMap;
use std::sync::{Arc, RwLock};

use nev_core::Snapshot;
use nev_incomplete::Instance;

/// A snapshot of the whole catalog: an immutable name → instance map.
pub type CatalogSnapshot = Arc<BTreeMap<String, Arc<Snapshot>>>;

/// A concurrent registry of named incomplete instances.
///
/// ```
/// use nev_serve::catalog::Catalog;
/// use nev_incomplete::inst;
/// use nev_incomplete::builder::{c, x};
///
/// let catalog = Catalog::new();
/// assert!(catalog.register("intro", inst! { "R" => [[c(1), x(1)]] }).is_none());
/// let snap = catalog.snapshot();
/// // A later replacement does not disturb the snapshot already taken.
/// catalog.register("intro", inst! { "R" => [[c(2), x(1)]] });
/// assert_eq!(snap["intro"].instance().fact_count(), 1);
/// assert_ne!(catalog.get("intro").unwrap(), *snap["intro"].shared_instance());
/// ```
#[derive(Debug, Default)]
pub struct Catalog {
    map: RwLock<CatalogSnapshot>,
    /// Serialises writers so the copy-on-write clone can happen *outside* the map
    /// lock without lost updates.
    writer: std::sync::Mutex<()>,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Catalog::default()
    }

    /// The current snapshot. Readers hold the lock only long enough to clone one
    /// `Arc`; every lookup made through the snapshot afterwards is lock-free.
    pub fn snapshot(&self) -> CatalogSnapshot {
        self.map.read().expect("catalog lock poisoned").clone()
    }

    /// Looks up one named instance in the current snapshot.
    pub fn get(&self, name: &str) -> Option<Arc<Instance>> {
        self.entry(name)
            .map(|entry| Arc::clone(entry.shared_instance()))
    }

    /// Looks up one named instance together with its derived state.
    pub fn entry(&self, name: &str) -> Option<Arc<Snapshot>> {
        self.snapshot().get(name).cloned()
    }

    /// Registers (or replaces) a named instance, returning the previous entry
    /// if the name was already bound. The new entry derives nothing yet. The
    /// replacement is copy-on-write: the new map is built outside the write
    /// lock, so readers are blocked only for the pointer swap.
    pub fn register(&self, name: impl Into<String>, instance: Instance) -> Option<Arc<Snapshot>> {
        let entry = Arc::new(Snapshot::new(Arc::new(instance)));
        self.update(|map| map.insert(name.into(), entry))
    }

    /// Removes a named instance, returning its entry if it was present.
    pub fn remove(&self, name: &str) -> Option<Arc<Snapshot>> {
        self.update(|map| map.remove(name))
    }

    /// The registered names, in sorted order.
    pub fn names(&self) -> Vec<String> {
        self.snapshot().keys().cloned().collect()
    }

    /// Number of registered instances.
    pub fn len(&self) -> usize {
        self.snapshot().len()
    }

    /// Returns `true` iff no instance is registered.
    pub fn is_empty(&self) -> bool {
        self.snapshot().is_empty()
    }

    /// The copy-on-write primitive: clone the current map, let `f` edit the clone,
    /// swap it in. Writers serialise on the dedicated writer mutex — under it the
    /// snapshot cannot change, so the O(n) clone and `f` run with **no** map lock
    /// held, and the map's write lock is taken only for the pointer swap. Readers
    /// are therefore never blocked behind a clone, no matter how large the catalog.
    fn update<T>(&self, f: impl FnOnce(&mut BTreeMap<String, Arc<Snapshot>>) -> T) -> T {
        let _writing = self.writer.lock().expect("catalog writer lock poisoned");
        let mut next = (*self.snapshot()).clone();
        let out = f(&mut next);
        *self.map.write().expect("catalog lock poisoned") = Arc::new(next);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nev_incomplete::builder::{c, x};
    use nev_incomplete::inst;

    #[test]
    fn register_get_replace_remove() {
        let catalog = Catalog::new();
        assert!(catalog.is_empty());
        let d = inst! { "R" => [[c(1), x(1)]] };
        assert!(catalog.register("d", d.clone()).is_none());
        assert_eq!(catalog.len(), 1);
        assert_eq!(*catalog.get("d").unwrap(), d);
        assert!(catalog.get("missing").is_none());

        let replacement = inst! { "R" => [[c(2), c(3)]] };
        let old = catalog.register("d", replacement.clone()).unwrap();
        assert_eq!(*old.instance(), d);
        assert_eq!(*catalog.get("d").unwrap(), replacement);

        assert_eq!(catalog.names(), vec!["d".to_string()]);
        assert!(catalog.remove("d").is_some());
        assert!(catalog.remove("d").is_none());
        assert!(catalog.is_empty());
    }

    #[test]
    fn a_replacing_register_leaves_the_held_entry_and_its_derived_state_alone() {
        let catalog = Catalog::new();
        let d = inst! { "R" => [[c(1), x(1)], [c(1), x(2)]] };
        catalog.register("d", d.clone());
        let held = catalog.entry("d").unwrap();
        let interned: *const _ = held.interned();
        assert!(!held.is_core());

        // Re-registering equal data still makes a fresh entry with nothing
        // derived: derived state belongs to one version.
        let old = catalog.register("d", d.clone()).unwrap();
        assert!(Arc::ptr_eq(&old, &held));
        let fresh = catalog.entry("d").unwrap();
        assert!(!Arc::ptr_eq(&fresh, &held));
        assert!(!fresh.is_interned() && !fresh.is_core_known());

        // The reader still holding the old version keeps its state as built.
        assert!(held.is_interned() && held.is_core_known());
        assert!(std::ptr::eq(interned, held.interned()));
        assert_eq!(*held.instance(), d);
        assert!(!fresh.is_core());
        assert!(!fresh.is_interned(), "the core check does not intern");
    }

    #[test]
    fn snapshots_are_immutable_under_concurrent_writes() {
        let catalog = Arc::new(Catalog::new());
        catalog.register("a", inst! { "R" => [[c(1)]] });
        let before = catalog.snapshot();
        let writers: Vec<_> = (0..4)
            .map(|i| {
                let catalog = Arc::clone(&catalog);
                std::thread::spawn(move || {
                    for j in 0..50i64 {
                        catalog.register(format!("w{i}"), inst! { "R" => [[c(j)]] });
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        // The old snapshot still sees exactly the pre-write world.
        assert_eq!(before.len(), 1);
        assert_eq!(before["a"].instance().fact_count(), 1);
        // The new snapshot sees every writer's last value.
        assert_eq!(catalog.len(), 5);
    }
}
