//! Roles and the precedence rule that keeps at most one primary.

#![cfg_attr(not(test), deny(clippy::disallowed_methods))]
#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::indexing_slicing,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

use std::fmt;

use ds_net::endpoint::NodeId;
use serde::{Deserialize, Serialize};

/// A node's role within the pair (paper §2.2.1, "role management").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Role {
    /// Startup: negotiating with the peer.
    Negotiating,
    /// Executing the application and shipping checkpoints.
    Primary,
    /// Holding checkpoints, ready to take over.
    Backup,
}

impl Role {
    /// `true` for [`Role::Primary`].
    pub fn is_primary(self) -> bool {
        matches!(self, Role::Primary)
    }
}

impl fmt::Display for Role {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Role::Negotiating => "negotiating",
            Role::Primary => "primary",
            Role::Backup => "backup",
        };
        f.write_str(s)
    }
}

/// A node's role and promotion term, as one value with private fields.
///
/// The engine holds one and the FTIM holds its copy. Outside this module
/// the pair is read through [`RoleTerm::role`] and [`RoleTerm::term`], and
/// written only by the transition apply path: the engine applying a
/// [`crate::transition::RoleOutcome`], and the FTIM adopting the engine's
/// announcement of one. A store that bypasses it does not compile:
///
/// ```compile_fail,E0616
/// use oftt::role::{Role, RoleTerm};
///
/// let mut standing = RoleTerm::default();
/// standing.role = Role::Primary;
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoleTerm {
    role: Role,
    term: u64,
}

impl Default for RoleTerm {
    /// Negotiating, term 0: where every engine and FTIM starts.
    fn default() -> Self {
        RoleTerm { role: Role::Negotiating, term: 0 }
    }
}

impl RoleTerm {
    /// The current role.
    pub fn role(&self) -> Role {
        self.role
    }

    /// The current promotion term.
    pub fn term(&self) -> u64 {
        self.term
    }

    /// Takes an announced role and term; `false` if both were already
    /// current.
    pub(crate) fn apply(&mut self, role: Role, term: u64) -> bool {
        let changed = (role, term) != (self.role, self.term);
        self.role = role;
        self.term = term;
        changed
    }

    /// Takes a peer's higher term without changing role.
    pub(crate) fn adopt_term(&mut self, term: u64) {
        self.term = term;
    }
}

/// A claim to primaryship: the promotion epoch plus the claimant, totally
/// ordered so any two engines resolve a dual-primary identically.
///
/// Higher term wins (a later promotion supersedes); ties break toward the
/// lower node id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Claim {
    /// Promotion epoch.
    pub term: u64,
    /// Claimant node.
    pub node: NodeId,
}

impl Claim {
    /// Creates a claim.
    pub fn new(term: u64, node: NodeId) -> Self {
        Claim { term, node }
    }

    /// `true` if this claim beats `other`.
    pub fn beats(&self, other: &Claim) -> bool {
        self.term > other.term || (self.term == other.term && self.node < other.node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn role_predicates_and_display() {
        assert!(Role::Primary.is_primary());
        assert!(!Role::Backup.is_primary());
        assert_eq!(Role::Negotiating.to_string(), "negotiating");
    }

    #[test]
    fn higher_term_beats_lower() {
        let newer = Claim::new(3, NodeId(9));
        let older = Claim::new(2, NodeId(1));
        assert!(newer.beats(&older));
        assert!(!older.beats(&newer));
    }

    #[test]
    fn equal_terms_break_toward_lower_node() {
        let low = Claim::new(5, NodeId(1));
        let high = Claim::new(5, NodeId(2));
        assert!(low.beats(&high));
        assert!(!high.beats(&low));
    }

    #[test]
    fn precedence_is_total_and_antisymmetric() {
        let claims = [
            Claim::new(0, NodeId(0)),
            Claim::new(0, NodeId(1)),
            Claim::new(1, NodeId(0)),
            Claim::new(1, NodeId(1)),
        ];
        for x in &claims {
            assert!(!x.beats(x), "a claim never beats itself");
            for y in &claims {
                if x != y {
                    assert_ne!(x.beats(y), y.beats(x), "exactly one of {x:?},{y:?} wins");
                }
            }
        }
    }
}

#[cfg(test)]
mod properties {
    use super::*;
    use proptest::prelude::*;

    /// Small domains so term ties and node ties are hit constantly.
    fn claim_strategy() -> impl Strategy<Value = Claim> {
        (0u64..6, 0u16..5).prop_map(|(term, node)| Claim::new(term, NodeId(node)))
    }

    proptest! {
        /// Irreflexivity: no claim beats itself.
        #[test]
        fn beats_is_irreflexive(a in claim_strategy()) {
            prop_assert!(!a.beats(&a));
        }

        /// Totality + asymmetry: of two distinct claims, exactly one wins.
        /// This is what guarantees two engines facing a dual primary pick
        /// the same survivor.
        #[test]
        fn beats_is_total_and_asymmetric(a in claim_strategy(), b in claim_strategy()) {
            if a == b {
                prop_assert!(!a.beats(&b) && !b.beats(&a));
            } else {
                prop_assert!(a.beats(&b) ^ b.beats(&a));
            }
        }

        /// Transitivity: precedence chains never cycle.
        #[test]
        fn beats_is_transitive(
            a in claim_strategy(),
            b in claim_strategy(),
            c in claim_strategy(),
        ) {
            if a.beats(&b) && b.beats(&c) {
                prop_assert!(a.beats(&c));
            }
        }

        /// `beats` agrees with the lexicographic order on
        /// (term descending, node ascending) — the closed form of the
        /// strict total order.
        #[test]
        fn beats_matches_lexicographic_closed_form(
            a in claim_strategy(),
            b in claim_strategy(),
        ) {
            let expected = (b.term, std::cmp::Reverse(b.node.0)) < (a.term, std::cmp::Reverse(a.node.0));
            prop_assert_eq!(a.beats(&b), expected);
        }
    }
}
