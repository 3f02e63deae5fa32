//! The concurrency facade of the renderer: one import point for the
//! atomics and thread primitives its parallel protocols are built on.
//!
//! # Why a facade
//!
//! The persistent worker pool's park/wake generation handoff and claim
//! cursor ([`crate::pool::WorkerPool::run`]) and the radix sorter's
//! histogram→prefix→scatter protocol ([`crate::sort::RadixSorter`]) are
//! lock-free by construction; their correctness arguments (exactly-once
//! claims, no lost wakeups, disjoint scatter ranges) are stated in
//! comments, not checked by the compiler. Routing every atomic operation,
//! thread spawn, and park/unpark through this module makes those
//! protocols *model-checkable*: the `gaurast-check` crate can substitute
//! instrumented shadow primitives and exhaustively interleave them.
//!
//! # The two builds
//!
//! * **Default** (any ordinary `cargo build`/`test`): pure re-exports of
//!   `std::sync::atomic` and `std::thread`. Zero-cost — release
//!   codegen is byte-for-byte what it would be importing `std` directly.
//! * **`--cfg gaurast_model_check`** (set via `RUSTFLAGS`, never a cargo
//!   feature, so feature unification can't turn it on by accident): the
//!   same names resolve to [`gaurast_check::shadow`] types. Every atomic
//!   operation becomes a yield point of a virtual scheduler and
//!   `thread::spawn`/`thread::scope` register shadow threads, letting
//!   `cargo test -p gaurast-check` (with the cfg) drive the *real*
//!   `WorkerPool` and `RadixSorter` code through every small interleaving
//!   — see `crates/check/tests/model.rs`.
//!
//! Outside a model run the shadow primitives fall through to plain `std`
//! behavior, so a model-check build still passes the ordinary suites.
//!
//! `Ordering` is always the real `std` enum. The shadow checker executes
//! sequentially consistently, but the ordering each call site requests is
//! **machine-checked**, not hand-audited: it decides which happens-before
//! edges the operation contributes to the race detector's vector clocks
//! (`Relaxed` contributes none), so a protocol that under-orders a
//! publication shows up as a data race on the instrumented ranges below.
//!
//! # Race instrumentation
//!
//! The renderer's `unsafe` disjoint-write sites (radix scatter ranges,
//! pool job-slot publication, Stage-2 (chunk, tile) scatter slots,
//! framebuffer tile rows) are annotated with three macros:
//!
//! * [`race_region!`](crate::race_region) — a purely lexical marker
//!   wrapping the unsafe block; the static
//!   `unsafe-instrumentation-coverage` rule of `gaurast-check deep`
//!   requires every hot-path-reachable unsafe write to sit inside one (or
//!   carry `// gaurast-check: allow(race): reason`). Expands to its body
//!   in every build.
//! * [`race_write!`](crate::race_write) / [`race_read!`](crate::race_read)
//!   — register the accessed address range with the happens-before race
//!   detector ([`gaurast_check::races`]). In ordinary builds they expand
//!   to `()` — zero codegen. Under `--cfg gaurast_model_check` they
//!   record `[ptr, ptr + len·size_of::<T>())` for the calling shadow
//!   thread, and an overlapping access unordered by happens-before fails
//!   the model run with both sites and the reproduction schedule.

/// Pointer-range registration helpers behind the instrumentation macros.
/// Model-check builds forward to [`gaurast_check::races`]; ordinary builds
/// compile them to empty `#[inline(always)]` bodies, so `race_read!` /
/// `race_write!` cost nothing while still type-checking their arguments.
pub mod races {
    /// Registers `len` elements starting at `ptr` as written by the
    /// calling shadow thread (no-op outside a model run).
    #[cfg(gaurast_model_check)]
    pub fn write_range<T>(ptr: *const T, len: usize, site: &'static str) {
        gaurast_check::races::write_range(ptr as usize, len * core::mem::size_of::<T>(), site);
    }

    /// Registers `len` elements starting at `ptr` as read by the calling
    /// shadow thread (no-op outside a model run).
    #[cfg(gaurast_model_check)]
    pub fn read_range<T>(ptr: *const T, len: usize, site: &'static str) {
        gaurast_check::races::read_range(ptr as usize, len * core::mem::size_of::<T>(), site);
    }

    /// Ordinary build: compiles to nothing.
    #[cfg(not(gaurast_model_check))]
    #[inline(always)]
    pub fn write_range<T>(_ptr: *const T, _len: usize, _site: &'static str) {}

    /// Ordinary build: compiles to nothing.
    #[cfg(not(gaurast_model_check))]
    #[inline(always)]
    pub fn read_range<T>(_ptr: *const T, _len: usize, _site: &'static str) {}
}

/// Lexically marks a region of unsafe shared-memory access for the static
/// `unsafe-instrumentation-coverage` rule (`gaurast-check deep`): every
/// unsafe write reachable from a hot root must sit inside a `race_region!`
/// (or carry an explicit `allow(race)` justification). Expands to its body
/// unchanged in **every** build — the label is documentation, the macro is
/// the machine-visible marker.
#[macro_export]
macro_rules! race_region {
    ($label:expr, $body:block) => {
        $body
    };
}

/// Registers a write of `$len` elements starting at pointer `$ptr` with
/// the shadow race detector, stamped with the call site's `file:line`. In
/// ordinary builds the helper it calls is an empty `#[inline(always)]`
/// function — zero codegen; under `--cfg gaurast_model_check` the byte
/// range is recorded on the shadow memory map and checked for
/// happens-before ordering against every conflicting access (see
/// [`sync`](crate::sync) module docs).
#[macro_export]
macro_rules! race_write {
    ($ptr:expr, $len:expr) => {
        $crate::sync::races::write_range($ptr, $len, concat!(file!(), ":", line!()))
    };
}

/// Registers a read of `$len` elements starting at pointer `$ptr` with
/// the shadow race detector — the read side of
/// [`race_write!`](crate::race_write), with the same zero-cost ordinary
/// build.
#[macro_export]
macro_rules! race_read {
    ($ptr:expr, $len:expr) => {
        $crate::sync::races::read_range($ptr, $len, concat!(file!(), ":", line!()))
    };
}

/// Atomic types used by the renderer's lock-free protocols.
pub mod atomic {
    pub use std::sync::atomic::Ordering;

    #[cfg(not(gaurast_model_check))]
    pub use std::sync::atomic::AtomicUsize;

    #[cfg(gaurast_model_check)]
    pub use gaurast_check::shadow::AtomicUsize;
}

/// One-time initialization primitives used for process-wide caches that
/// must be resolved **outside** the per-frame hot path (CPU-feature
/// detection, environment-variable overrides). `OnceLock` is plain `std`
/// in every build — its `get_or_init` is not a yield point of the shadow
/// scheduler because the values cached behind it are set once before any
/// frame work and then only read, so no interleaving can observe an
/// intermediate state the real `std` implementation would not produce.
pub mod lazy {
    pub use std::sync::OnceLock;
}

/// Thread spawning, parking and handles used by the worker pool: the
/// scoped primitives (legacy protocols) plus the non-scoped
/// `spawn`/`park`/`unpark` set the persistent [`crate::pool::WorkerPool`]
/// is built on.
pub mod thread {
    #[cfg(not(gaurast_model_check))]
    pub use std::thread::{current, park, scope, spawn, JoinHandle, Scope, Thread};

    #[cfg(gaurast_model_check)]
    pub use gaurast_check::shadow::{current, park, scope, spawn, JoinHandle, Scope, Thread};

    /// `true` when the calling thread is inside a poisoned model-check
    /// execution. Shutdown paths (the pool's `Drop`) consult this to skip
    /// the orderly park/unpark shutdown when the checker is already
    /// unwinding every shadow thread. Always `false` in ordinary builds.
    #[cfg(not(gaurast_model_check))]
    pub fn poisoned() -> bool {
        false
    }

    #[cfg(gaurast_model_check)]
    pub use gaurast_check::shadow::poisoned;
}
