//! Edge and node identifier types.

use std::fmt;

/// A BDD variable, identified by its *index* — a stable identity that
/// names the same input regardless of where the variable currently sits
/// in the decision order.
///
/// The variable's position (its *level*) is a separate notion kept in the
/// manager's `var2level` map: indices and levels coincide only until the
/// first reordering (`Manager::swap_levels`). Callers always bind
/// semantics (assignments, signal maps) to indices; levels are an
/// internal matter of the order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Var(pub u32);

impl Var {
    /// Index of this variable as a `usize`, for table lookups.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// Index of a stored node inside a [`crate::Manager`] arena.
///
/// `NodeId(0)` is always the constant-one terminal.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The terminal node (constant one, up to edge complementation).
    pub const TERMINAL: NodeId = NodeId(0);

    /// Index of this node as a `usize`, for table lookups.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Whether this is the terminal node.
    pub fn is_terminal(self) -> bool {
        self == Self::TERMINAL
    }
}

/// A (possibly complemented) edge to a BDD node: the packed pair of a
/// [`NodeId`] and a complement attribute.
///
/// Because the manager hash-conses nodes and keeps 1-edges regular, a `Ref`
/// canonically identifies a Boolean function: two functions are equal if and
/// only if their `Ref`s are equal. Negation ([`std::ops::Not`]) is free.
///
/// # Validity under garbage collection
///
/// A `Ref` is plain data, not an owning handle. It stays valid across
/// `Manager::collect` only while its node is reachable from a root the
/// caller declared with `Manager::protect`; otherwise the slot may be
/// reclaimed and later reused for a *different* function, silently aliasing
/// the stale `Ref`. Collection never happens implicitly inside manager
/// operations, so intermediates within one call chain are always safe —
/// protection is only needed for `Ref`s held across explicit
/// `collect`/`maybe_collect` points.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Ref(u32);

impl Ref {
    /// The constant true function.
    pub const ONE: Ref = Ref(0);
    /// The constant false function.
    pub const ZERO: Ref = Ref(1);

    /// Builds a reference from a node id and a complement flag.
    pub fn new(node: NodeId, complemented: bool) -> Ref {
        Ref(node.0 << 1 | complemented as u32)
    }

    /// The node this edge points to.
    pub fn node(self) -> NodeId {
        NodeId(self.0 >> 1)
    }

    /// Whether the edge carries the complement attribute.
    pub fn is_complemented(self) -> bool {
        self.0 & 1 == 1
    }

    /// The same edge with the complement attribute cleared.
    pub fn regular(self) -> Ref {
        Ref(self.0 & !1)
    }

    /// Whether this reference denotes a constant function.
    pub fn is_const(self) -> bool {
        self.node().is_terminal()
    }

    /// Whether this reference is the constant true function.
    pub fn is_one(self) -> bool {
        self == Self::ONE
    }

    /// Whether this reference is the constant false function.
    pub fn is_zero(self) -> bool {
        self == Self::ZERO
    }

    /// Applies a complement flag: returns `!self` when `c` is true.
    pub fn xor_complement(self, c: bool) -> Ref {
        Ref(self.0 ^ c as u32)
    }

    /// Raw packed value, useful as a compact hash key.
    pub fn raw(self) -> u32 {
        self.0
    }

    /// Rebuilds a reference from [`Ref::raw`] (computed-cache decoding).
    pub(crate) fn from_raw(raw: u32) -> Ref {
        Ref(raw)
    }
}

impl std::ops::Not for Ref {
    type Output = Ref;

    fn not(self) -> Ref {
        Ref(self.0 ^ 1)
    }
}

impl fmt::Debug for Ref {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_one() {
            write!(f, "⊤")
        } else if self.is_zero() {
            write!(f, "⊥")
        } else {
            write!(
                f,
                "{}n{}",
                if self.is_complemented() { "!" } else { "" },
                self.node().0
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_are_complements() {
        assert_eq!(!Ref::ONE, Ref::ZERO);
        assert_eq!(!Ref::ZERO, Ref::ONE);
        assert!(Ref::ONE.is_const() && Ref::ZERO.is_const());
        assert!(Ref::ONE.is_one() && Ref::ZERO.is_zero());
    }

    #[test]
    fn double_negation_is_identity() {
        let r = Ref::new(NodeId(42), true);
        assert_eq!(!!r, r);
        assert_eq!(r.node(), NodeId(42));
        assert!(r.is_complemented());
        assert!(!r.regular().is_complemented());
    }

    #[test]
    fn xor_complement_matches_not() {
        let r = Ref::new(NodeId(7), false);
        assert_eq!(r.xor_complement(true), !r);
        assert_eq!(r.xor_complement(false), r);
    }

    #[test]
    fn debug_formats_are_nonempty() {
        assert_eq!(format!("{:?}", Ref::ONE), "⊤");
        assert_eq!(format!("{:?}", Ref::ZERO), "⊥");
        let r = Ref::new(NodeId(3), true);
        assert_eq!(format!("{r:?}"), "!n3");
    }
}
