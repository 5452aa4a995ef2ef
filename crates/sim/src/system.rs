//! The systems under test.

use minesweeper::MsConfig;
use baselines::MarkUsConfig;

/// Which mitigation (if any) a run uses.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum System {
    /// Unmodified JeMalloc-style allocator — the paper's baseline
    /// ("the version with unmodified JeMalloc loaded", §5.1).
    Baseline,
    /// MineSweeper with the given configuration.
    MineSweeper(MsConfig),
    /// MarkUs with the given configuration.
    MarkUs(MarkUsConfig),
    /// FFmalloc (one-time allocator).
    FfMalloc,
    /// Unmodified Scudo-style hardened allocator (baseline for the §7
    /// portability experiment).
    ScudoBaseline,
    /// MineSweeper layered over Scudo (§7: "we have also built a Scudo
    /// implementation at 4.4% overhead").
    MineSweeperScudo(MsConfig),
    /// CRCount-style reference counting (§6.4): per-pointer-store upkeep,
    /// deferred frees, no sweeps.
    CrCount,
    /// Oscar-style page-permission revocation with shadow virtual pages
    /// (§6.3): a syscall per allocation and free, growing page tables.
    Oscar,
    /// pSweeper-style concurrent pointer nullification (§6.4): live
    /// pointer table swept periodically by a background thread.
    PSweeper,
    /// DangSan-style per-object pointer logs, walked and nullified at
    /// `free()` (§6.4).
    DangSan,
}

impl System {
    /// MineSweeper in its paper-default fully concurrent configuration.
    pub fn minesweeper_default() -> Self {
        System::MineSweeper(MsConfig::fully_concurrent())
    }

    /// MineSweeper in mostly concurrent (stop-the-world) mode.
    pub fn minesweeper_mostly() -> Self {
        System::MineSweeper(MsConfig::mostly_concurrent())
    }

    /// MarkUs with published defaults.
    pub fn markus_default() -> Self {
        System::MarkUs(MarkUsConfig::standard())
    }

    /// MineSweeper-on-Scudo with the paper-default configuration.
    pub fn minesweeper_scudo() -> Self {
        System::MineSweeperScudo(MsConfig::fully_concurrent())
    }

    /// The MineSweeper layer configuration, for the systems that carry
    /// one.
    pub fn ms_config(&self) -> Option<MsConfig> {
        match self {
            System::MineSweeper(cfg) | System::MineSweeperScudo(cfg) => Some(*cfg),
            _ => None,
        }
    }

    /// The same system with its MineSweeper layer configuration rewritten
    /// by `f`, for the systems that carry one.
    pub fn map_ms_config(&self, f: impl FnOnce(MsConfig) -> MsConfig) -> Option<System> {
        match *self {
            System::MineSweeper(cfg) => Some(System::MineSweeper(f(cfg))),
            System::MineSweeperScudo(cfg) => Some(System::MineSweeperScudo(f(cfg))),
            _ => None,
        }
    }

    /// Short label used in tables and metric records.
    pub fn label(&self) -> &'static str {
        match self {
            System::Baseline => "baseline",
            System::MineSweeper(cfg) => {
                if cfg.mode == minesweeper::SweepMode::MostlyConcurrent {
                    "minesweeper-mostly"
                } else {
                    "minesweeper"
                }
            }
            System::MarkUs(_) => "markus",
            System::FfMalloc => "ffmalloc",
            System::ScudoBaseline => "scudo",
            System::MineSweeperScudo(_) => "minesweeper-scudo",
            System::CrCount => "crcount",
            System::Oscar => "oscar",
            System::PSweeper => "psweeper",
            System::DangSan => "dangsan",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels() {
        assert_eq!(System::Baseline.label(), "baseline");
        assert_eq!(System::minesweeper_default().label(), "minesweeper");
        assert_eq!(System::minesweeper_mostly().label(), "minesweeper-mostly");
        assert_eq!(System::markus_default().label(), "markus");
        assert_eq!(System::FfMalloc.label(), "ffmalloc");
        assert_eq!(System::ScudoBaseline.label(), "scudo");
        assert_eq!(System::minesweeper_scudo().label(), "minesweeper-scudo");
        assert_eq!(System::CrCount.label(), "crcount");
        assert_eq!(System::Oscar.label(), "oscar");
        assert_eq!(System::PSweeper.label(), "psweeper");
        assert_eq!(System::DangSan.label(), "dangsan");
    }
}
