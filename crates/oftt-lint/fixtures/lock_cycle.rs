//! Seeded defect for the lock-order rule: two functions acquire the
//! same pair of locks in opposite orders, so the static acquisition
//! graph has the cycle `alpha -> beta -> alpha`. Not compiled — scanned
//! by `tests/fixtures.rs`.

fn forward(s: &Shared) {
    let a = s.alpha.lock();
    let b = s.beta.lock();
    drop(b);
    drop(a);
}

fn backward(s: &Shared) {
    let b = s.beta.lock();
    let a = s.alpha.lock();
    drop(a);
    drop(b);
}
