//! Protocol scales.
//!
//! The paper's full protocol (480×480 cells, 25,000 steps, 10 repeats,
//! populations to 102,400) is hours-to-days of compute on a host-parallel
//! substrate. Every harness therefore supports three scales:
//!
//! * `Paper` — the full protocol, parameter-for-parameter;
//! * `Default` — a shape-preserving reduction (same *fill fractions* and
//!   steps-per-row budget on a smaller grid, fewer repeats) that runs in
//!   minutes; EXPERIMENTS.md records which scale produced each number;
//! * `Smoke` — seconds; CI/sanity only.

/// Experiment scale selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scale {
    /// The paper's full protocol.
    Paper,
    /// Shape-preserving reduced protocol (the default).
    #[default]
    Default,
    /// Tiny sanity scale.
    Smoke,
}

/// Conflicting scale flags on one command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScaleConflict;

impl std::fmt::Display for ScaleConflict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "--paper and --smoke are mutually exclusive; pass at most one scale flag"
        )
    }
}

impl std::error::Error for ScaleConflict {}

impl Scale {
    /// Parse from CLI args (`--paper`, `--smoke`; default otherwise).
    /// Passing both flags is an error — silently preferring `--paper`
    /// used to launch an hours-long run when the caller asked for a
    /// seconds-long one.
    pub fn from_args(args: &[String]) -> Result<Self, ScaleConflict> {
        let paper = args.iter().any(|a| a == "--paper");
        let smoke = args.iter().any(|a| a == "--smoke");
        match (paper, smoke) {
            (true, true) => Err(ScaleConflict),
            (true, false) => Ok(Scale::Paper),
            (false, true) => Ok(Scale::Smoke),
            (false, false) => Ok(Scale::Default),
        }
    }

    /// [`Scale::from_args`] for binaries: exits with a usage message on
    /// conflicting flags instead of panicking.
    pub fn from_args_or_exit(args: &[String]) -> Self {
        Self::from_args(args).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })
    }

    /// Short label for file names and table captions.
    pub fn label(self) -> &'static str {
        match self {
            Scale::Paper => "paper",
            Scale::Default => "default",
            Scale::Smoke => "smoke",
        }
    }
}

/// Parse `--flag value` style options.
pub fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// The largest value `--workers` and `--threads` accept. Both count OS
/// threads started at once (`--workers N` becomes `Batch::new(N)`,
/// `--threads N` a worker pool of N), so a typo such as
/// `--workers 100000` must be rejected before any thread starts; 256 is
/// far above the core count of any host these benches run on.
pub const MAX_THREADS: usize = 256;

/// The cap on `flag`'s value: [`MAX_THREADS`] for the thread-count flags,
/// none for other counts (`--last`).
fn count_cap(flag: &str) -> Option<usize> {
    matches!(flag, "--workers" | "--threads").then_some(MAX_THREADS)
}

/// A count flag (`--workers`, `--threads`, `--last`) given without a
/// positive integer value, or above its cap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BadCount {
    /// The flag as written on the command line.
    pub flag: String,
    /// The value that followed it (empty when none did).
    pub value: String,
    /// The largest value the flag accepts, when it has a cap.
    pub cap: Option<usize>,
}

impl std::fmt::Display for BadCount {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.cap {
            Some(cap) => write!(
                f,
                "{} expects a positive integer of at most {cap}, got {:?}",
                self.flag, self.value
            ),
            None => write!(
                f,
                "{} expects a positive integer, got {:?}",
                self.flag, self.value
            ),
        }
    }
}

impl std::error::Error for BadCount {}

/// Parse the positive count after `flag`: `Ok(None)` when the flag is
/// absent, a typed error when its value is missing, unparsable, zero or
/// above the flag's cap ([`MAX_THREADS`] for `--workers`/`--threads`) —
/// silently falling back to a default used to run `--threads four` as
/// one thread and record it as such.
pub fn count_arg(args: &[String], flag: &str) -> Result<Option<usize>, BadCount> {
    if !args.iter().any(|a| a == flag) {
        return Ok(None);
    }
    let value = arg_value(args, flag).unwrap_or_default();
    let cap = count_cap(flag);
    match value.parse() {
        Ok(n) if n > 0 && cap.is_none_or(|cap| n <= cap) => Ok(Some(n)),
        _ => Err(BadCount {
            flag: flag.to_string(),
            value,
            cap,
        }),
    }
}

/// [`count_arg`] for binaries: `default` when the flag is absent; exits
/// with status 2 and the flag named on a bad value, like
/// [`Scale::from_args_or_exit`].
pub fn count_arg_or_exit(args: &[String], flag: &str, default: usize) -> usize {
    count_arg(args, flag)
        .unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2);
        })
        .unwrap_or(default)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(items: &[&str]) -> Vec<String> {
        items.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_scales() {
        assert_eq!(Scale::from_args(&v(&["--paper"])), Ok(Scale::Paper));
        assert_eq!(Scale::from_args(&v(&["--smoke"])), Ok(Scale::Smoke));
        assert_eq!(Scale::from_args(&v(&["--part", "a"])), Ok(Scale::Default));
    }

    #[test]
    fn conflicting_scale_flags_are_rejected() {
        // Both orders: the old code silently picked --paper.
        let err = Scale::from_args(&v(&["--paper", "--smoke"])).unwrap_err();
        assert!(err.to_string().contains("mutually exclusive"));
        assert!(Scale::from_args(&v(&["--smoke", "--x", "--paper"])).is_err());
    }

    #[test]
    fn parses_values() {
        let args = v(&["--part", "b", "--paper"]);
        assert_eq!(arg_value(&args, "--part").as_deref(), Some("b"));
        assert_eq!(arg_value(&args, "--missing"), None);
        // Counts: absent, valid, and every way a value can be bad.
        let count = |flag: &str, items: &[&str]| count_arg(&v(items), flag);
        assert_eq!(count("--threads", &["--paper"]), Ok(None));
        assert_eq!(count("--threads", &["--threads", "4"]), Ok(Some(4)));
        let cap = MAX_THREADS.to_string();
        let over = (MAX_THREADS + 1).to_string();
        assert_eq!(
            count("--workers", &["--workers", &cap]),
            Ok(Some(MAX_THREADS))
        );
        for bad in [
            &["--threads", "four"][..],
            &["--threads", "0"],
            &["--threads", "-2"],
            &["--threads", "2.5"],
            &["--threads", "18446744073709551616"],
            &["--threads"],
            &["--threads", &over],
            &["--workers", "100000"],
            &["--workers", &over],
        ] {
            let flag = bad[0];
            let err = count(flag, bad).unwrap_err();
            assert_eq!(err.flag, flag);
            assert_eq!(err.cap, Some(MAX_THREADS));
            assert!(err.to_string().contains(flag), "{err}");
            assert!(err.to_string().contains(&cap), "{err}");
        }
        // `--last` counts registry rows, not threads: no cap.
        assert_eq!(count("--last", &["--last", "100000"]), Ok(Some(100_000)));
        assert_eq!(count("--last", &["--last", "0"]).unwrap_err().cap, None);
    }
}
