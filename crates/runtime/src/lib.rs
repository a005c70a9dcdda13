//! `nev-runtime` — an empty crate of the `naive-eval` workspace.
//!
//! It held the work-stealing worker pool that the `figure1` harness fanned its
//! Figure 1 cells out on. That harness now runs its cells on
//! `std::thread::scope`, and nothing else used the pool, so the pool is gone.
//! The crate stays, with its manifest and every dependency edge on it, because
//! the separately built `nevbench` package's `Cargo.lock` records it; the next
//! change to the benchmark deletes it together with that lock entry.
