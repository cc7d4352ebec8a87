//! The routing policies evaluated in the paper (§VI-B) plus the
//! lifetime-aware extensions, as config-deserializable names.
//!
//! [`Policy`] is a thin identifier: it serializes, parses and displays,
//! and [`resolve`](Policy::resolve)s to a boxed
//! [`SelectionPolicy`](crate::routing::SelectionPolicy) implementation
//! that the router actually consults. Custom policies skip the enum
//! entirely and hand the router an implementation directly.

use crate::routing::vitals::{
    CorrelatedSubset, CrowdioResched, DelayRatio, DelaySelection, EnergyWeightedLrs, RoundRobin,
    SelectionPolicy,
};
use std::fmt;
use std::str::FromStr;

/// Which delay estimate drives the routing weights.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Metric {
    /// Total end-to-end latency `L` (network + queuing + processing).
    Latency,
    /// Processing delay `W` only, ignoring network location.
    Processing,
}

/// A data-routing policy for upstream function units.
///
/// | Policy    | Weights             | Worker selection        |
/// |-----------|---------------------|-------------------------|
/// | `Rr`      | equal (turns)       | no                      |
/// | `Pr`      | `1/W_i`             | no                      |
/// | `Lr`      | `1/L_i`             | no                      |
/// | `Prs`     | `1/W_i`             | yes                     |
/// | `Lrs`     | `1/L_i`             | yes                     |
/// | `EnergyLrs` | `1/L_i` × lifetime | yes (lifetime-scaled)  |
/// | `Rss`     | `1/L_i`             | yes (battery-ranked)    |
/// | `Crowdio` | `1/L_i` (tapered)   | yes (drains dying)      |
///
/// `Lrs` is Swing's contribution; `Rr` is the default of data-center
/// stream processors (Storm, SEEP, IBM Streams) and of prior mobile
/// stream processors, making it the paper's headline baseline. The last
/// three go beyond the paper: they read the per-worker
/// [`WorkerVitals`](crate::routing::WorkerVitals) energy fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Policy {
    /// Round-robin: each tuple to the next downstream in turn.
    Rr,
    /// Processing-delay-based routing, no worker selection.
    Pr,
    /// Latency-based routing, no worker selection.
    Lr,
    /// Processing-delay-based routing with worker selection.
    Prs,
    /// Latency-based routing with worker selection (the Swing policy).
    Lrs,
    /// LRS with weights scaled by projected battery lifetime.
    EnergyLrs,
    /// Correlated-source subset selection: cover demand with the
    /// healthiest-battery subset (Robot Subset Selection).
    Rss,
    /// CROWDio-style rescheduling: proactively drain dying workers.
    Crowdio,
}

impl Policy {
    /// The five paper policies, in the order the paper's figures list
    /// them. Pinned to five entries — figure-reproduction sweeps index
    /// into this array.
    pub const ALL: [Policy; 5] = [Policy::Rr, Policy::Pr, Policy::Lr, Policy::Prs, Policy::Lrs];

    /// The three lifetime-aware policies added on top of the paper.
    pub const ENERGY_AWARE: [Policy; 3] = [Policy::EnergyLrs, Policy::Rss, Policy::Crowdio];

    /// Every built-in policy: the paper's five followed by the
    /// energy-aware three.
    pub const EXTENDED: [Policy; 8] = [
        Policy::Rr,
        Policy::Pr,
        Policy::Lr,
        Policy::Prs,
        Policy::Lrs,
        Policy::EnergyLrs,
        Policy::Rss,
        Policy::Crowdio,
    ];

    /// Resolve the name to its built-in [`SelectionPolicy`]
    /// implementation — the object the [`Router`](crate::routing::Router)
    /// consults every control period.
    #[must_use]
    pub fn resolve(self) -> Box<dyn SelectionPolicy> {
        match self {
            Policy::Rr => Box::new(RoundRobin),
            Policy::Pr => Box::new(DelayRatio::new(Metric::Processing)),
            Policy::Lr => Box::new(DelayRatio::new(Metric::Latency)),
            Policy::Prs => Box::new(DelaySelection::new(Metric::Processing)),
            Policy::Lrs => Box::new(DelaySelection::new(Metric::Latency)),
            Policy::EnergyLrs => Box::new(EnergyWeightedLrs),
            Policy::Rss => Box::new(CorrelatedSubset),
            Policy::Crowdio => Box::new(CrowdioResched),
        }
    }

    /// Upper-case display name used in figures ("RR", "LRS", ...).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Policy::Rr => "RR",
            Policy::Pr => "PR",
            Policy::Lr => "LR",
            Policy::Prs => "PRS",
            Policy::Lrs => "LRS",
            Policy::EnergyLrs => "ELRS",
            Policy::Rss => "RSS",
            Policy::Crowdio => "CROWDIO",
        }
    }
}

impl fmt::Display for Policy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Policy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "rr" => Ok(Policy::Rr),
            "pr" => Ok(Policy::Pr),
            "lr" => Ok(Policy::Lr),
            "prs" => Ok(Policy::Prs),
            "lrs" => Ok(Policy::Lrs),
            "elrs" | "energy-lrs" => Ok(Policy::EnergyLrs),
            "rss" => Ok(Policy::Rss),
            "crowdio" => Ok(Policy::Crowdio),
            other => Err(format!(
                "unknown policy `{other}` (expected one of rr, pr, lr, prs, lrs, \
                 elrs, rss, crowdio)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolved_metrics_match_table() {
        assert!(Policy::Rr.resolve().round_robin());
        for (p, metric) in [
            (Policy::Pr, Metric::Processing),
            (Policy::Prs, Metric::Processing),
            (Policy::Lr, Metric::Latency),
            (Policy::Lrs, Metric::Latency),
            (Policy::EnergyLrs, Metric::Latency),
        ] {
            assert!(!p.resolve().round_robin(), "{p}");
            assert_eq!(p.resolve().metric(), metric, "{p}");
        }
    }

    #[test]
    fn parse_roundtrips_display() {
        for p in Policy::EXTENDED {
            let parsed: Policy = p.name().parse().unwrap();
            assert_eq!(parsed, p);
            let parsed: Policy = p.name().to_lowercase().parse().unwrap();
            assert_eq!(parsed, p);
        }
        assert!("bogus".parse::<Policy>().is_err());
    }

    #[test]
    fn all_lists_five_policies_in_figure_order() {
        assert_eq!(Policy::ALL.len(), 5);
        assert_eq!(Policy::ALL[0], Policy::Rr);
        assert_eq!(Policy::ALL[4], Policy::Lrs);
    }

    #[test]
    fn extended_starts_with_the_paper_five() {
        assert_eq!(Policy::EXTENDED.len(), 8);
        assert_eq!(&Policy::EXTENDED[..5], &Policy::ALL[..]);
        assert_eq!(Policy::ENERGY_AWARE.len(), 3);
    }

    #[test]
    fn resolve_names_match_enum_names() {
        for p in Policy::EXTENDED {
            assert_eq!(p.resolve().name(), p.name());
        }
    }

    #[test]
    fn new_variants_parse_their_aliases() {
        assert_eq!("energy-lrs".parse::<Policy>().unwrap(), Policy::EnergyLrs);
        assert_eq!("Elrs".parse::<Policy>().unwrap(), Policy::EnergyLrs);
        let err = "bogus".parse::<Policy>().unwrap_err();
        assert!(
            err.contains("crowdio"),
            "error should list new names: {err}"
        );
    }
}
