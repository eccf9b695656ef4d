//! [`MetaPolicy`]: when (and to which candidate) the live policy flips.
//!
//! Decisions are evaluated **only at bin-close boundaries** — the one
//! moment a policy hand-over cannot invalidate a placed item, because
//! the closing bin is gone and the incoming policy adopts the surviving
//! open set verbatim ([`dvbp_core::Policy::on_adopt`]). Every decision
//! is a pure integer function of the shadow scoreboard and the close
//! counters, so a WAL replay of the journaled operations makes exactly
//! the switches, and lands in exactly the state, the original process
//! did.
//!
//! Because all shadows share one [`StreamingLowerBound`] anchor (see
//! [`crate::ShadowSet`]), comparing running CRs reduces to comparing
//! raw shadow costs — no ratios, no floats, no rounding.
//!
//! [`StreamingLowerBound`]: dvbp_core::StreamingLowerBound

use dvbp_sim::Cost;

/// Bin closes a `switch:T` meta-policy waits after a switch before it
/// considers another — the hysteresis guard that keeps two nearly-tied
/// candidates from thrashing the live policy back and forth.
pub const SWITCH_COOLDOWN_CLOSES: u64 = 4;

/// Default improvement threshold (percent) for bare `switch`.
pub const DEFAULT_SWITCH_THRESHOLD_PCT: u64 = 10;

/// Default evaluation window (bin closes) for bare `best-of`.
pub const DEFAULT_BEST_OF_WINDOW: u64 = 8;

/// The adaptive layer deciding which portfolio candidate drives the
/// live engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetaPolicy {
    /// Never switch: the portfolio runs pure shadow telemetry and the
    /// live engine is byte-identical to the single-policy path
    /// (conformance layer 11 checks exactly that).
    Static,
    /// Every `window` bin closes, adopt the candidate with the lowest
    /// shadow cost (ties to the earliest declared candidate).
    BestOf {
        /// Evaluation period, in bin closes (≥ 1).
        window: u64,
    },
    /// At any bin close — once [`SWITCH_COOLDOWN_CLOSES`] have passed
    /// since the last switch — adopt the best candidate if the current
    /// one's shadow cost exceeds it by more than `threshold_pct`
    /// percent.
    SwitchThreshold {
        /// Required relative cost excess, in percent (≥ 1).
        threshold_pct: u64,
    },
}

impl MetaPolicy {
    /// Stable display name (`static`, `best-of:8`, `switch:10`) —
    /// parseable by [`FromStr`](std::str::FromStr).
    #[must_use]
    pub fn name(&self) -> String {
        match self {
            MetaPolicy::Static => "static".into(),
            MetaPolicy::BestOf { window } => format!("best-of:{window}"),
            MetaPolicy::SwitchThreshold { threshold_pct } => format!("switch:{threshold_pct}"),
        }
    }

    /// Decides whether to switch, given the candidates' shadow costs
    /// (`costs[current]` is the live policy's), the total bin closes so
    /// far, and the closes since the last switch. Returns the candidate
    /// index to adopt, or `None` to stay.
    ///
    /// Pure and integer-only: the same inputs always produce the same
    /// verdict, on every platform.
    #[must_use]
    pub fn decide(
        &self,
        current: usize,
        costs: &[Cost],
        closes: u64,
        closes_since_switch: u64,
    ) -> Option<usize> {
        let best = costs
            .iter()
            .enumerate()
            .min_by_key(|&(idx, cost)| (*cost, idx))
            .map(|(idx, _)| idx)?;
        if best == current {
            return None;
        }
        match *self {
            MetaPolicy::Static => None,
            MetaPolicy::BestOf { window } => closes.is_multiple_of(window.max(1)).then_some(best),
            MetaPolicy::SwitchThreshold { threshold_pct } => {
                if closes_since_switch < SWITCH_COOLDOWN_CLOSES {
                    return None;
                }
                // Shared lower-bound anchor ⇒ CR comparison ≡ cost
                // comparison: switch iff cur ≥ best · (100 + T) / 100.
                let cur = costs[current];
                let gate = costs[best].saturating_mul(Cost::from(100 + threshold_pct)) / 100;
                (cur > gate).then_some(best)
            }
        }
    }
}

/// Error parsing a [`MetaPolicy`] from its display name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseMetaError(String);

impl std::fmt::Display for ParseMetaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "unknown meta-policy '{}'; expected static, best-of[:WINDOW], or switch[:THRESHOLD_PCT]",
            self.0
        )
    }
}

impl std::error::Error for ParseMetaError {}

impl std::str::FromStr for MetaPolicy {
    type Err = ParseMetaError;

    /// Parses `static`, `best-of[:WINDOW]`, `switch[:THRESHOLD_PCT]`
    /// (CLI spelling; bare forms take the documented defaults).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "static" => return Ok(MetaPolicy::Static),
            "best-of" => {
                return Ok(MetaPolicy::BestOf {
                    window: DEFAULT_BEST_OF_WINDOW,
                })
            }
            "switch" => {
                return Ok(MetaPolicy::SwitchThreshold {
                    threshold_pct: DEFAULT_SWITCH_THRESHOLD_PCT,
                })
            }
            _ => {}
        }
        if let Some(w) = s.strip_prefix("best-of:") {
            if let Ok(window) = w.parse::<u64>() {
                if window >= 1 {
                    return Ok(MetaPolicy::BestOf { window });
                }
            }
        }
        if let Some(t) = s.strip_prefix("switch:") {
            if let Ok(threshold_pct) = t.parse::<u64>() {
                if threshold_pct >= 1 {
                    return Ok(MetaPolicy::SwitchThreshold { threshold_pct });
                }
            }
        }
        Err(ParseMetaError(s.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::str::FromStr;

    #[test]
    fn parse_round_trips_and_defaults() {
        for spec in ["static", "best-of:8", "switch:10", "best-of:1", "switch:25"] {
            let meta = MetaPolicy::from_str(spec).unwrap();
            assert_eq!(meta.name(), spec);
        }
        assert_eq!(
            MetaPolicy::from_str("best-of").unwrap(),
            MetaPolicy::BestOf {
                window: DEFAULT_BEST_OF_WINDOW
            }
        );
        assert_eq!(
            MetaPolicy::from_str("switch").unwrap(),
            MetaPolicy::SwitchThreshold {
                threshold_pct: DEFAULT_SWITCH_THRESHOLD_PCT
            }
        );
        for bad in [
            "",
            "beans",
            "best-of:0",
            "switch:0",
            "switch:-3",
            "best-of:x",
        ] {
            assert!(MetaPolicy::from_str(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn static_never_switches() {
        let meta = MetaPolicy::Static;
        assert_eq!(meta.decide(1, &[1, 100], 8, 8), None);
    }

    #[test]
    fn best_of_switches_on_window_boundaries_only() {
        let meta = MetaPolicy::BestOf { window: 4 };
        let costs: [Cost; 2] = [10, 30];
        assert_eq!(meta.decide(1, &costs, 3, 3), None, "mid-window");
        assert_eq!(meta.decide(1, &costs, 4, 4), Some(0), "window boundary");
        assert_eq!(meta.decide(0, &costs, 4, 4), None, "already on best");
    }

    #[test]
    fn switch_threshold_respects_hysteresis() {
        let meta = MetaPolicy::SwitchThreshold { threshold_pct: 10 };
        // 12 > 10 * 1.10? No (11); 12 > 11 holds -> switch. But within
        // the cooldown nothing moves.
        let costs: [Cost; 2] = [12, 10];
        assert_eq!(meta.decide(0, &costs, 9, SWITCH_COOLDOWN_CLOSES - 1), None);
        assert_eq!(
            meta.decide(0, &costs, 9, SWITCH_COOLDOWN_CLOSES),
            Some(1),
            "12 exceeds 10 by more than 10%"
        );
        // Exactly at the threshold: stay (strict inequality).
        let tied: [Cost; 2] = [11, 10];
        assert_eq!(meta.decide(0, &tied, 9, SWITCH_COOLDOWN_CLOSES), None);
    }

    #[test]
    fn ties_break_to_the_earliest_candidate() {
        let meta = MetaPolicy::BestOf { window: 1 };
        let costs: [Cost; 3] = [5, 5, 5];
        assert_eq!(meta.decide(2, &costs, 1, 1), Some(0));
        assert_eq!(meta.decide(0, &costs, 1, 1), None);
    }
}
