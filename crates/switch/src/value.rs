//! Logic values and drive strengths of the switch-level algebra.
//!
//! The simulator uses a three-valued logic {0, 1, X} with three drive
//! strengths, a simplified form of Bryant's MOSSIM algebra that is
//! sufficient for the full-swing CP cells of the paper:
//!
//! * [`Strength::Supply`] — the Vdd/GND rails;
//! * [`Strength::Driven`] — primary inputs and signals passed through
//!   conducting transistors from driven nets;
//! * [`Strength::Charged`] — the retained charge of an undriven net, which
//!   is what makes two-pattern stuck-open tests meaningful (Section V-C).

/// A three-valued logic level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Logic {
    /// Logic low.
    Zero,
    /// Logic high.
    One,
    /// Unknown (uninitialised, conflicting, or floating through a defect).
    X,
}

impl std::ops::Not for Logic {
    type Output = Logic;

    /// Logical complement; `X` stays `X`.
    fn not(self) -> Logic {
        match self {
            Logic::Zero => Logic::One,
            Logic::One => Logic::Zero,
            Logic::X => Logic::X,
        }
    }
}

impl Logic {
    /// Merge two values seen at the same strength: equal values survive,
    /// different ones conflict to `X`.
    #[must_use]
    pub fn merge(self, other: Logic) -> Logic {
        if self == other {
            self
        } else {
            Logic::X
        }
    }

    /// Whether the value is a known boolean.
    #[must_use]
    pub fn is_known(self) -> bool {
        self != Logic::X
    }

    /// Convert from a boolean.
    #[must_use]
    pub fn from_bool(b: bool) -> Logic {
        if b {
            Logic::One
        } else {
            Logic::Zero
        }
    }

    /// Convert to a boolean when known.
    #[must_use]
    pub fn to_bool(self) -> Option<bool> {
        match self {
            Logic::Zero => Some(false),
            Logic::One => Some(true),
            Logic::X => None,
        }
    }
}

impl std::fmt::Display for Logic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Logic::Zero => write!(f, "0"),
            Logic::One => write!(f, "1"),
            Logic::X => write!(f, "X"),
        }
    }
}

impl From<bool> for Logic {
    fn from(b: bool) -> Self {
        Logic::from_bool(b)
    }
}

/// Drive strength of a value, ordered weakest-first so that `max` picks the
/// dominating driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Strength {
    /// Retained charge on an undriven net.
    Charged,
    /// A driven signal (primary input or a value passed from one).
    Driven,
    /// A supply rail.
    Supply,
}

impl Strength {
    /// All strengths, strongest first (the flood order of the simulator).
    pub const DESCENDING: [Strength; 3] = [Strength::Supply, Strength::Driven, Strength::Charged];
}

/// A (logic, strength) pair — the full state of a net.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signal {
    /// The logic level.
    pub logic: Logic,
    /// How strongly it is held.
    pub strength: Strength,
}

impl Signal {
    /// A supply-strength signal.
    #[must_use]
    pub fn supply(logic: Logic) -> Self {
        Signal {
            logic,
            strength: Strength::Supply,
        }
    }

    /// A driven-strength signal.
    #[must_use]
    pub fn driven(logic: Logic) -> Self {
        Signal {
            logic,
            strength: Strength::Driven,
        }
    }

    /// A charged-strength signal.
    #[must_use]
    pub fn charged(logic: Logic) -> Self {
        Signal {
            logic,
            strength: Strength::Charged,
        }
    }
}

impl std::fmt::Display for Signal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self.strength {
            Strength::Supply => "S",
            Strength::Driven => "D",
            Strength::Charged => "c",
        };
        write!(f, "{}{}", self.logic, s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn not_is_involutive_on_known_values() {
        assert_eq!(!!Logic::Zero, Logic::Zero);
        assert_eq!(!!Logic::One, Logic::One);
        assert_eq!(!Logic::X, Logic::X);
    }

    #[test]
    fn merge_is_commutative_and_conflicts_to_x() {
        for a in [Logic::Zero, Logic::One, Logic::X] {
            for b in [Logic::Zero, Logic::One, Logic::X] {
                assert_eq!(a.merge(b), b.merge(a));
            }
        }
        assert_eq!(Logic::Zero.merge(Logic::One), Logic::X);
        assert_eq!(Logic::One.merge(Logic::One), Logic::One);
    }

    #[test]
    fn strength_ordering_is_weakest_first() {
        assert!(Strength::Charged < Strength::Driven);
        assert!(Strength::Driven < Strength::Supply);
    }

    #[test]
    fn bool_round_trip() {
        assert_eq!(Logic::from_bool(true).to_bool(), Some(true));
        assert_eq!(Logic::from_bool(false).to_bool(), Some(false));
        assert_eq!(Logic::X.to_bool(), None);
    }
}
