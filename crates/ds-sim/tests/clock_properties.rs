//! Property-based tests for the vector-clock partial order: the laws the
//! `ckpt-causality` invariant leans on (strict order, join monotonicity) hold for
//! arbitrary clocks, not just the handful exercised by unit tests.

use ds_sim::clock::VectorClock;
use proptest::prelude::*;

/// Builds a clock from generated (actor, component) pairs.
fn clock_from(pairs: &std::collections::BTreeMap<u32, u64>) -> VectorClock {
    let mut c = VectorClock::new();
    for (&actor, &v) in pairs {
        for _ in 0..v {
            c.tick(actor);
        }
    }
    c
}

/// Generator: sparse clocks over a small actor space with small components,
/// so distinct generated clocks are frequently comparable *and* frequently
/// concurrent.
fn arb_clock() -> impl Strategy<Value = VectorClock> {
    prop::collection::btree_map(0u32..6, 0u64..5, 0..6).prop_map(|m| clock_from(&m))
}

proptest! {
    /// Strict happens-before is irreflexive: no clock precedes itself.
    #[test]
    fn lt_is_irreflexive(a in arb_clock()) {
        prop_assert!(!a.lt(&a));
        prop_assert!(a.le(&a));
    }

    /// Strict happens-before is transitive.
    #[test]
    fn lt_is_transitive(a in arb_clock(), b in arb_clock(), c in arb_clock()) {
        if a.lt(&b) && b.lt(&c) {
            prop_assert!(a.lt(&c));
        }
    }

    /// Antisymmetry: mutual ≤ forces equality.
    #[test]
    fn le_is_antisymmetric(a in arb_clock(), b in arb_clock()) {
        if a.le(&b) && b.le(&a) {
            prop_assert_eq!(a, b);
        }
    }

    /// Exactly one of {a ≤ b, b < a, concurrent} holds for any pair.
    #[test]
    fn order_trichotomy(a in arb_clock(), b in arb_clock()) {
        let states = [a.le(&b), b.lt(&a), a.concurrent(&b)];
        prop_assert_eq!(states.iter().filter(|&&s| s).count(), 1);
    }

    /// Join is monotone: both operands precede-or-equal the join, and the
    /// join is the least such clock (any common upper bound dominates it).
    #[test]
    fn join_is_least_upper_bound(a in arb_clock(), b in arb_clock(), u in arb_clock()) {
        let mut j = a.clone();
        j.join(&b);
        prop_assert!(a.le(&j));
        prop_assert!(b.le(&j));
        if a.le(&u) && b.le(&u) {
            prop_assert!(j.le(&u));
        }
    }

    /// Ticking after a join strictly advances the clock past both inputs —
    /// the receive rule always orders a delivery after its send.
    #[test]
    fn tick_after_join_orders_receive_after_send(a in arb_clock(), b in arb_clock()) {
        let mut r = a.clone();
        r.join(&b);
        r.tick(0);
        prop_assert!(a.lt(&r));
        prop_assert!(b.lt(&r));
    }
}
