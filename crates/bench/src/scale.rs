//! Experiment scale presets.
//!
//! The paper's evaluation uses 20,130 taxis over one month; that is a
//! `--scale full` run here (hours of CPU). The presets keep the per-taxi
//! demand ratio constant so the *shape* of every result is preserved.

use fairmove_sim::SimConfig;

/// How big an experiment to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Smoke test: 60 taxis, 1 day, 1 training episode.
    Test,
    /// Quick results: 300 taxis, 1 day, 2 training episodes (default).
    Small,
    /// The DESIGN.md evaluation scale: 600 taxis, 3 days, 4 episodes.
    Default,
    /// Paper scale: 20,130 taxis, 491 regions, 123 stations, 31 days.
    Full,
    /// Paper-scale single day for the sharded engine: the full deployment
    /// (20,130 taxis, 491 regions, 123 stations) over one simulated day,
    /// driven by [`fairmove_sim::ShardedEnv`] instead of the minute-stepped
    /// [`fairmove_sim::Environment`].
    Paper,
}

impl Scale {
    /// The simulation config for this scale.
    pub fn sim(self) -> SimConfig {
        match self {
            Scale::Test => SimConfig::test_scale(),
            Scale::Small => {
                let mut sim = SimConfig {
                    fleet_size: 300,
                    days: 2,
                    ..SimConfig::default()
                };
                // Keep Shenzhen's ~4:1 fleet-to-charging-point ratio.
                sim.city.total_charging_points = 75;
                sim
            }
            Scale::Default => SimConfig::default(),
            Scale::Full => SimConfig::shenzhen_scale(),
            Scale::Paper => SimConfig {
                days: 1,
                ..SimConfig::shenzhen_scale()
            },
        }
    }

    /// Training episodes for learning methods at this scale.
    pub fn train_episodes(self) -> u32 {
        match self {
            Scale::Test => 1,
            Scale::Small => 10,
            Scale::Default => 10,
            Scale::Full => 10,
            Scale::Paper => 1,
        }
    }

    /// Independent evaluation seeds to average over.
    pub fn eval_seeds(self) -> u32 {
        match self {
            Scale::Test => 1,
            Scale::Small => 3,
            Scale::Default => 3,
            Scale::Full => 1,
            Scale::Paper => 1,
        }
    }

    /// Name for report headers.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Test => "test",
            Scale::Small => "small",
            Scale::Default => "default",
            Scale::Full => "full",
            Scale::Paper => "paper",
        }
    }
}

/// Parses `--scale <name>` from CLI args; defaults to [`Scale::Small`] when
/// the flag is absent. An unknown or missing value is an error, so a typo
/// cannot silently start a different (and possibly much longer) run.
pub fn parse_scale(args: &[String]) -> Result<Scale, String> {
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        if a == "--scale" {
            return match iter.next().map(String::as_str) {
                Some("test") => Ok(Scale::Test),
                Some("small") => Ok(Scale::Small),
                Some("default") => Ok(Scale::Default),
                Some("full") => Ok(Scale::Full),
                Some("paper") => Ok(Scale::Paper),
                Some(other) => Err(format!(
                    "unknown --scale {other:?} (expected test|small|default|full|paper)"
                )),
                None => Err("--scale requires a value".into()),
            };
        }
    }
    Ok(Scale::Small)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_each_scale() {
        assert_eq!(parse_scale(&args(&["--scale", "test"])), Ok(Scale::Test));
        assert_eq!(
            parse_scale(&args(&["--scale", "default"])),
            Ok(Scale::Default)
        );
        assert_eq!(parse_scale(&args(&["--scale", "full"])), Ok(Scale::Full));
        assert_eq!(parse_scale(&args(&["--scale", "paper"])), Ok(Scale::Paper));
    }

    #[test]
    fn defaults_to_small() {
        assert_eq!(parse_scale(&args(&[])), Ok(Scale::Small));
        assert_eq!(parse_scale(&args(&["fig3"])), Ok(Scale::Small));
        // A bad value is rejected, never mapped to the default.
        assert!(parse_scale(&args(&["--scale", "bogus"])).is_err());
        assert!(parse_scale(&args(&["--scale"])).is_err());
    }

    #[test]
    fn scales_map_to_configs() {
        assert_eq!(Scale::Test.sim().fleet_size, 60);
        assert_eq!(Scale::Full.sim().fleet_size, 20_130);
        let paper = Scale::Paper.sim();
        assert_eq!(paper.fleet_size, 20_130);
        assert_eq!(paper.city.n_regions, 491);
        assert_eq!(paper.city.n_stations, 123);
        assert_eq!(paper.days, 1, "paper preset is a single full day");
        assert!(Scale::Full.train_episodes() > Scale::Test.train_episodes());
    }
}
