//! Shortcutting heuristics (paper §4.2, "Shortcutting heuristics" and the
//! Fig. 6 table).
//!
//! The compact-routing route `s ; w ; ℓ_t ; t` is a worst-case bound;
//! in practice nodes along the way often know much shorter paths. The paper
//! evaluates six progressively more aggressive heuristics; the core
//! protocol (and all headline results) uses **No Path Knowledge**, which
//! needs no extra information in the packet. The modes are applied by
//! [`crate::routing`]; this module only defines them.

use std::fmt;
use std::str::FromStr;

/// A shortcutting heuristic, ordered roughly by aggressiveness. The names
/// match the rows of the paper's Fig. 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShortcutMode {
    /// No shortcutting: always use the full `s ; w ; ℓ_t ; t` route.
    None,
    /// "To-Destination": if any node along the route knows a direct
    /// (vicinity) path to the destination, follow it from there. This is
    /// the heuristic S4 uses.
    ToDestination,
    /// "Shorter{ReversePath, ForwardPath}": compute both the forward route
    /// `s → t` and the reverse route `t → s`, use whichever is shorter.
    ShorterForwardReverse,
    /// "No Path Knowledge": To-Destination applied to both the forward and
    /// the reverse route, taking the shorter — the paper's default.
    NoPathKnowledge,
    /// "Up-Down Stream": every node along the route checks whether it has a
    /// vicinity route to any *later* node of the route that is shorter than
    /// the route segment between them, splicing it in if so. Requires the
    /// route's node list in the (first) packet.
    UpDownStream,
    /// "Using Path Knowledge": Up-Down Stream applied to both the forward
    /// and the reverse route, taking the shorter — the most aggressive mode.
    PathKnowledge,
}

impl ShortcutMode {
    /// All modes in the order of the paper's Fig. 6 table.
    pub const ALL: [ShortcutMode; 6] = [
        ShortcutMode::None,
        ShortcutMode::ToDestination,
        ShortcutMode::ShorterForwardReverse,
        ShortcutMode::NoPathKnowledge,
        ShortcutMode::UpDownStream,
        ShortcutMode::PathKnowledge,
    ];

    /// Whether the mode also evaluates the reverse route `t → s`.
    pub fn uses_reverse(self) -> bool {
        matches!(
            self,
            ShortcutMode::ShorterForwardReverse
                | ShortcutMode::NoPathKnowledge
                | ShortcutMode::PathKnowledge
        )
    }

    /// Whether intermediate nodes shortcut toward the destination.
    pub fn uses_to_destination(self) -> bool {
        matches!(
            self,
            ShortcutMode::ToDestination
                | ShortcutMode::NoPathKnowledge
                | ShortcutMode::UpDownStream
                | ShortcutMode::PathKnowledge
        )
    }

    /// Whether intermediate nodes shortcut toward *any* downstream node
    /// (requires listing the route in the packet).
    pub fn uses_up_down_stream(self) -> bool {
        matches!(
            self,
            ShortcutMode::UpDownStream | ShortcutMode::PathKnowledge
        )
    }

    /// The paper's row label for this mode (Fig. 6).
    pub fn paper_label(self) -> &'static str {
        match self {
            ShortcutMode::None => "No Shortcutting",
            ShortcutMode::ToDestination => "To-Destination Shortcuts",
            ShortcutMode::ShorterForwardReverse => "Shorter{ReversePath, ForwardPath}",
            ShortcutMode::NoPathKnowledge => "No Path Knowledge",
            ShortcutMode::UpDownStream => "Up-Down Stream",
            ShortcutMode::PathKnowledge => "Using Path Knowledge",
        }
    }
}

impl fmt::Display for ShortcutMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.paper_label())
    }
}

impl FromStr for ShortcutMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let norm: String = s
            .chars()
            .filter(|c| c.is_ascii_alphanumeric())
            .collect::<String>()
            .to_ascii_lowercase();
        match norm.as_str() {
            "none" | "noshortcutting" => Ok(ShortcutMode::None),
            "todestination" | "todestinationshortcuts" => Ok(ShortcutMode::ToDestination),
            "shorterforwardreverse" | "shorterreversepathforwardpath" => {
                Ok(ShortcutMode::ShorterForwardReverse)
            }
            "nopathknowledge" => Ok(ShortcutMode::NoPathKnowledge),
            "updownstream" => Ok(ShortcutMode::UpDownStream),
            "pathknowledge" | "usingpathknowledge" => Ok(ShortcutMode::PathKnowledge),
            _ => Err(format!("unknown shortcut mode: {s}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_lists_six_modes_in_paper_order() {
        assert_eq!(ShortcutMode::ALL.len(), 6);
        assert_eq!(ShortcutMode::ALL[0], ShortcutMode::None);
        assert_eq!(ShortcutMode::ALL[3], ShortcutMode::NoPathKnowledge);
        assert_eq!(ShortcutMode::ALL[5], ShortcutMode::PathKnowledge);
    }

    #[test]
    fn capability_flags() {
        assert!(!ShortcutMode::None.uses_reverse());
        assert!(!ShortcutMode::None.uses_to_destination());
        assert!(ShortcutMode::ToDestination.uses_to_destination());
        assert!(!ShortcutMode::ToDestination.uses_reverse());
        assert!(ShortcutMode::ShorterForwardReverse.uses_reverse());
        assert!(!ShortcutMode::ShorterForwardReverse.uses_to_destination());
        assert!(ShortcutMode::NoPathKnowledge.uses_reverse());
        assert!(ShortcutMode::NoPathKnowledge.uses_to_destination());
        assert!(!ShortcutMode::NoPathKnowledge.uses_up_down_stream());
        assert!(ShortcutMode::UpDownStream.uses_up_down_stream());
        assert!(!ShortcutMode::UpDownStream.uses_reverse());
        assert!(ShortcutMode::PathKnowledge.uses_up_down_stream());
        assert!(ShortcutMode::PathKnowledge.uses_reverse());
    }

    #[test]
    fn parse_round_trips_labels() {
        for &m in &ShortcutMode::ALL {
            let parsed: ShortcutMode = m.paper_label().parse().unwrap();
            assert_eq!(parsed, m);
        }
        assert!("bogus".parse::<ShortcutMode>().is_err());
        assert_eq!(
            "no-path-knowledge".parse::<ShortcutMode>().unwrap(),
            ShortcutMode::NoPathKnowledge
        );
    }
}
