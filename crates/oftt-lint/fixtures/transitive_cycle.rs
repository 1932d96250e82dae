//! Seeded defect for the transitive lock-order rule: each half of the
//! inversion spans a call boundary — the caller holds one lock while a
//! callee acquires the other — so no single function ever nests the
//! pair and the cycle exists only in the call-derived acquisition
//! graph. Not compiled — scanned by `tests/fixtures.rs`.

fn forward(s: &Shared) {
    let a = s.outer.lock();
    take_inner(s);
    drop(a);
}

fn take_inner(s: &Shared) {
    let b = s.inner.lock();
    drop(b);
}

fn backward(s: &Shared) {
    let b = s.inner.lock();
    take_outer(s);
    drop(b);
}

fn take_outer(s: &Shared) {
    let a = s.outer.lock();
    drop(a);
}
