//! Heap allocations of `LoadApp`'s values, counted.
//!
//! A counting global allocator attributes every allocation to the thread
//! that makes it, and each test counts only its own thread while a
//! measured call runs. What is pinned is the application's side of a
//! checkpoint period: each value it hands the store is one allocation,
//! built straight into the shared buffer rather than built and copied.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use comsim::buf::Bytes;
use oftt::checkpoint::{VarSet, VarStore};
use oftt::ftim::FtApplication;
use oftt_wire::app::{LoadApp, LoadConfig, LoadView};
use parking_lot::Mutex;

thread_local! {
    /// Whether this thread is inside a measured call.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// Allocations this thread made while counting.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

struct Counting;

// SAFETY: every call forwards to `System` unchanged; counting touches only
// this thread's own cells.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        // SAFETY: the caller's contract is passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        // SAFETY: the caller's contract is passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        // SAFETY: the caller's contract is passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract is passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made on this
/// thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    ALLOCS.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, ALLOCS.with(Cell::get))
}

/// The `ckpt_dense` shape: 2,000 × 256 B variables and a tick counter.
fn dense_app() -> LoadApp {
    let config = LoadConfig { vars: 2_000, var_bytes: 256, ..Default::default() };
    LoadApp::new(config, Arc::new(Mutex::new(LoadView::default())))
}

/// A full snapshot allocates one buffer per value on top of what the same
/// map costs with its values already built: the name copies, the B-tree's
/// nodes and the collect's scratch.
#[test]
fn a_snapshot_allocates_one_buffer_per_value() {
    let app = dense_app();
    let names: Vec<String> = app.snapshot().into_keys().filter(|name| name != "ticks").collect();
    let value = Bytes::from(vec![0u8; 256]);
    let ticks = Bytes::from([0u8; 8]);
    let (same_shape, map_allocs) = counted(|| {
        let mut image: VarSet = names.iter().map(|name| (name.clone(), value.clone())).collect();
        image.insert("ticks".into(), ticks.clone());
        image
    });
    let (image, allocs) = counted(|| app.snapshot());
    assert_eq!(image.len(), same_shape.len());
    let values = image.len() as u64;
    println!("snapshot(): {allocs} allocations, {map_allocs} of them the map's, {values} values");
    assert_eq!(allocs - map_allocs, values, "one allocation per value");
}

/// The incremental walkthrough hands the store freshly built values and
/// borrowed names; with nothing touched since the last one, that is the
/// tick counter alone, in one allocation.
#[test]
fn a_dirty_walkthrough_allocates_one_buffer_per_value_written() {
    let mut app = dense_app();
    let mut store = VarStore::new();
    for (name, bytes) in app.snapshot() {
        store.set(name, bytes);
    }
    store.clear_dirty();
    let ((), allocs) = counted(|| app.snapshot_dirty(&mut store));
    assert_eq!(allocs, 1, "the tick counter's value");
}
