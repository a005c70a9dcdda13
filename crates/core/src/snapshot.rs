//! [`Snapshot`] — an immutable instance together with the state derived from it.
//!
//! Two things every evaluation of an instance may need depend on the instance
//! alone: its interned, columnar form (the input of every compiled naïve pass)
//! and whether it is a core (the side condition of the `WorksOverCores` cells
//! of Figure 1 and of the minimal-semantics sandwich). A snapshot computes each
//! lazily, on first use, and **at most once**: every later evaluation of the
//! same snapshot — on any thread — reuses it. Nothing is computed up front, so
//! building a snapshot costs no more than owning the instance.
//!
//! A snapshot never changes: replacing an instance means building a new
//! snapshot (with empty cells), and readers that still hold the old one keep
//! its instance and its derived state together.
//!
//! ```
//! use nev_core::Snapshot;
//! use nev_incomplete::builder::x;
//! use nev_incomplete::inst;
//!
//! let d = inst! { "D" => [[x(1), x(2)], [x(2), x(1)]] };
//! // A snapshot over a borrowed instance, e.g. for one call.
//! let snapshot = Snapshot::new(&d);
//! assert!(!snapshot.is_core_known());
//! assert!(snapshot.is_core());
//! assert!(snapshot.is_core_known());
//! assert_eq!(snapshot.interned().relation_count(), 1);
//! ```

use std::borrow::Borrow;
use std::sync::{Arc, OnceLock};

use nev_exec::InternedInstance;
use nev_hom::is_core;
use nev_incomplete::Instance;
use nev_obs::{Stage, TraceRecorder};

/// An instance plus its lazily derived, shared state (see the module docs).
///
/// `D` is how the snapshot holds its instance: an `Arc<Instance>` for a
/// long-lived catalog entry (the default), a plain `&Instance` for a snapshot
/// that lives for one call.
#[derive(Debug)]
pub struct Snapshot<D = Arc<Instance>> {
    instance: D,
    interned: OnceLock<InternedInstance>,
    core: OnceLock<bool>,
}

impl<D: Borrow<Instance>> Snapshot<D> {
    /// A snapshot of `instance` with nothing derived yet.
    pub fn new(instance: D) -> Self {
        Snapshot {
            instance,
            interned: OnceLock::new(),
            core: OnceLock::new(),
        }
    }

    /// The instance.
    pub fn instance(&self) -> &Instance {
        self.instance.borrow()
    }

    /// The interned form of the instance, built on first use.
    pub fn interned(&self) -> &InternedInstance {
        self.interned
            .get_or_init(|| InternedInstance::new(self.instance()))
    }

    /// Whether the instance is a core, decided on first use.
    pub fn is_core(&self) -> bool {
        *self.core.get_or_init(|| is_core(self.instance()))
    }

    /// [`Snapshot::interned`], recording a [`Stage::Intern`] span on
    /// `recorder` when this call builds the form.
    pub(crate) fn interned_traced(&self, recorder: &TraceRecorder) -> &InternedInstance {
        if !self.is_interned() {
            let _span = recorder.span(Stage::Intern);
            self.interned();
        }
        self.interned()
    }

    /// [`Snapshot::is_core`], recording a [`Stage::CoreCheck`] span on
    /// `recorder` when this call decides the bit.
    pub(crate) fn is_core_traced(&self, recorder: &TraceRecorder) -> bool {
        if !self.is_core_known() {
            let _span = recorder.span(Stage::CoreCheck);
            self.is_core();
        }
        self.is_core()
    }

    /// Returns `true` iff the interned form has been built.
    pub fn is_interned(&self) -> bool {
        self.interned.get().is_some()
    }

    /// Returns `true` iff the core check has run.
    pub fn is_core_known(&self) -> bool {
        self.core.get().is_some()
    }
}

impl Snapshot {
    /// The shared instance of a catalog snapshot.
    pub fn shared_instance(&self) -> &Arc<Instance> {
        &self.instance
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nev_incomplete::builder::{c, x};
    use nev_incomplete::inst;

    #[test]
    fn each_cell_fills_on_first_use_only() {
        let snapshot = Snapshot::new(Arc::new(inst! {
            "D" => [[x(1), x(1)], [x(1), x(2)]],
        }));
        assert!(!snapshot.is_interned() && !snapshot.is_core_known());

        let interned: *const InternedInstance = snapshot.interned();
        assert!(snapshot.is_interned());
        assert!(
            !snapshot.is_core_known(),
            "interning leaves the core cell alone"
        );
        assert!(std::ptr::eq(interned, snapshot.interned()), "built once");
        assert_eq!(
            *snapshot.interned(),
            InternedInstance::new(snapshot.instance())
        );

        assert!(!snapshot.is_core(), "⊥2 folds onto ⊥1");
        assert!(snapshot.is_core_known());
        assert!(!snapshot.is_core());
        assert!(std::ptr::eq(interned, snapshot.interned()));
    }

    #[test]
    fn snapshots_of_one_instance_derive_independently() {
        let d = inst! { "R" => [[c(1), x(1)]] };
        let a = Snapshot::new(&d);
        let b = Snapshot::new(&d);
        assert!(a.is_core());
        a.interned();
        assert!(!b.is_interned() && !b.is_core_known());
        assert_eq!(a.interned(), b.interned());
    }
}
