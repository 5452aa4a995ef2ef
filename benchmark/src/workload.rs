//! The five benchmark workloads. `BENCHMARK.json` carries each one's name
//! and, in its `why`, the profile, system and `N` used here; a test keeps
//! the two in step.

use sim::System;
use workloads::{mimalloc_bench, spec2006, Profile};

/// One workload: a generated op stream replayed under one system.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name as `BENCHMARK.json` and the command line spell it.
    pub name: &'static str,
    /// Suite and benchmark the op stream is generated from.
    pub suite: &'static str,
    /// Benchmark name within `suite`.
    pub bench: &'static str,
    /// System-under-test constructor name, as `sim::System` spells it.
    pub system_name: &'static str,
    system: fn() -> System,
    /// Timed rounds in a `run` (`N`); a round is one rep of every stream.
    pub rounds: usize,
}

impl Workload {
    /// The workload's allocation profile.
    pub fn profile(&self) -> Profile {
        let found = match self.suite {
            "spec2006" => spec2006::by_name(self.bench),
            _ => mimalloc_bench::by_name(self.bench),
        };
        found.expect("workload table names an existing profile")
    }

    /// The system under test.
    pub fn system(&self) -> System {
        (self.system)()
    }

    /// Whether the system runs the MineSweeper layer, so the layer's trace
    /// events (and the `layer.*` spans) exist.
    pub fn layered(&self) -> bool {
        matches!(self.system(), System::MineSweeper(_))
    }
}

/// Every workload, in run order.
pub const ALL: [Workload; 5] = [
    Workload {
        name: "omnetpp-ms",
        suite: "spec2006",
        bench: "omnetpp",
        system_name: "minesweeper_default",
        system: System::minesweeper_default,
        rounds: 3,
    },
    Workload {
        name: "glibc-ms",
        suite: "mimalloc",
        bench: "glibc-simple",
        system_name: "minesweeper_default",
        system: System::minesweeper_default,
        rounds: 3,
    },
    Workload {
        name: "gcc-mostly",
        suite: "spec2006",
        bench: "gcc",
        system_name: "minesweeper_mostly",
        system: System::minesweeper_mostly,
        rounds: 6,
    },
    Workload {
        name: "perlbench-base",
        suite: "spec2006",
        bench: "perlbench",
        system_name: "baseline",
        system: || System::Baseline,
        rounds: 4,
    },
    Workload {
        name: "omnetpp-markus",
        suite: "spec2006",
        bench: "omnetpp",
        system_name: "markus_default",
        system: System::markus_default,
        rounds: 4,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    ALL.iter().copied().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_resolves_and_layering_matches_the_system() {
        for w in ALL {
            assert_eq!(w.profile().name, w.bench);
            assert_eq!(
                w.layered(),
                w.name.ends_with("-ms") || w.name.ends_with("-mostly")
            );
        }
        assert!(by_name("omnetpp-ms").is_some());
        assert!(by_name("nope").is_none());
    }
}
