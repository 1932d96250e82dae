//! Heap allocations of the primary's shipping store, counted.
//!
//! A counting global allocator attributes every allocation to the thread
//! that makes it, and each test counts only its own thread while a
//! measured call runs. The values written are built before counting
//! starts: what is pinned is the store's own cost, not the application's
//! buffer.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use comsim::buf::Bytes;
use oftt::checkpoint::VarStore;

/// Ceiling on allocations per variable for one full [`VarStore::image`]:
/// the name's copy into the `VarSet` key (one per variable), plus the
/// B-tree's nodes (one per eleven entries) and the collect's scratch
/// vectors (a handful for the whole image). Measured at 1.10 per variable
/// for 2,001 variables; the values themselves are shared buffers, so
/// cloning one allocates nothing.
const IMAGE_ALLOCS_PER_VAR: f64 = 1.15;

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
fn names() -> Vec<String> {
    let mut names: Vec<String> = (0..2_000).map(|i| format!("v{i:05}")).collect();
    names.push("ticks".into());
    names
}

fn values(version: u8, count: usize) -> Vec<Bytes> {
    (0..count).map(|i| Bytes::from(vec![version ^ (i as u8); 256])).collect()
}

/// Writes every value by borrowed name, counting only the writes.
fn write_all(store: &mut VarStore, names: &[String], values: Vec<Bytes>) -> (usize, u64) {
    counted(move || {
        names
            .iter()
            .zip(values)
            .filter(|(name, bytes)| store.set(name.as_str(), bytes.clone()))
            .count()
    })
}

#[test]
fn a_write_to_a_held_name_and_clear_dirty_allocate_nothing() {
    let names = names();
    let mut store = VarStore::new();
    for (name, bytes) in names.iter().zip(values(0, names.len())) {
        store.set(name.clone(), bytes);
    }
    store.clear_dirty();
    for version in 1..=3u8 {
        // Every write changes content, so every slot turns dirty.
        let (changed, allocs) = write_all(&mut store, &names, values(version, names.len()));
        assert_eq!(changed, names.len());
        assert_eq!(allocs, 0, "period {version}: {allocs} allocations for {changed} writes");
        // Writing the same content again is gated by the digest.
        let (changed, allocs) = write_all(&mut store, &names, values(version, names.len()));
        assert_eq!((changed, allocs), (0, 0), "period {version}: clean rewrites");
        let ((), allocs) = counted(|| store.clear_dirty());
        assert_eq!(allocs, 0, "clear_dirty allocated {allocs} times");
        assert_eq!(store.dirty_len(), 0);
    }
}

/// The pending list has room for every slot however the store was filled:
/// here no period ever held more than one pending name before the first
/// period that dirties them all.
#[test]
fn a_store_filled_one_name_per_period_still_writes_without_allocating() {
    let names = names();
    let mut store = VarStore::new();
    for (name, bytes) in names.iter().zip(values(0, names.len())).rev() {
        store.set(name.as_str(), bytes);
        store.take_dirty(None);
    }
    let (changed, allocs) = write_all(&mut store, &names, values(1, names.len()));
    assert_eq!((changed, allocs), (names.len(), 0));
    assert_eq!(store.dirty_len(), names.len());
}

#[test]
fn a_full_image_allocates_about_one_name_per_variable() {
    let names = names();
    let mut store = VarStore::new();
    for (name, bytes) in names.iter().zip(values(0, names.len())) {
        store.set(name.as_str(), bytes);
    }
    let (image, allocs) = counted(|| store.image(None));
    assert_eq!(image.len(), names.len());
    let per_var = allocs as f64 / names.len() as f64;
    println!("image(): {allocs} allocations for {} variables ({per_var:.3} each)", names.len());
    assert!(
        per_var <= IMAGE_ALLOCS_PER_VAR,
        "image() made {per_var:.3} allocations per variable, ceiling {IMAGE_ALLOCS_PER_VAR}"
    );
}
