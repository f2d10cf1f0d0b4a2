//! Command-line plumbing shared by the bench binaries: one `--flag
//! value` parser, the exit-on-error helpers and the debug-build guard
//! for wall-clock timings.
//!
//! Exit codes are uniform: 2 for a usage error, 1 for a failed run.

use std::fmt::Display;
use std::str::FromStr;

/// The arguments of one invocation, consumed flag by flag.
///
/// A flag's value is the token after it and may not itself start with
/// `--`, so `--export-json --smoke` is a missing path rather than a file
/// named `--smoke`. Each flag may be given once; [`finish`](Self::finish)
/// rejects repeats and anything no query consumed.
#[derive(Debug)]
pub struct Args {
    /// The raw tokens; `None` once consumed.
    tokens: Vec<Option<String>>,
    /// Every flag queried so far, to tell a repeat from an unknown flag.
    queried: Vec<String>,
}

impl Args {
    /// The process arguments, without the program name.
    pub fn from_env() -> Args {
        Args::new(std::env::args().skip(1))
    }

    /// Arguments from an explicit list (the testable core of
    /// [`from_env`](Self::from_env)).
    pub fn new<I: IntoIterator<Item = String>>(args: I) -> Args {
        Args {
            tokens: args.into_iter().map(Some).collect(),
            queried: Vec::new(),
        }
    }

    /// Consumes the leading token if it is not a flag: a subcommand or
    /// name that must come first.
    pub fn positional(&mut self) -> Option<String> {
        let first = self.tokens.first_mut()?;
        if first.as_deref()?.starts_with("--") {
            return None;
        }
        first.take()
    }

    /// Consumes the first occurrence of `name`, returning its index.
    fn take(&mut self, name: &str) -> Option<usize> {
        self.queried.push(name.to_string());
        let i = self
            .tokens
            .iter()
            .position(|t| t.as_deref() == Some(name))?;
        self.tokens[i] = None;
        Some(i)
    }

    /// Whether the switch `name` was given.
    pub fn flag(&mut self, name: &str) -> bool {
        self.take(name).is_some()
    }

    /// The value of `name`, parsed as `T`; `None` when the flag is absent.
    ///
    /// # Errors
    ///
    /// Returns a message naming the flag when its value is missing or
    /// does not parse.
    pub fn value<T>(&mut self, name: &str) -> Result<Option<T>, String>
    where
        T: FromStr,
        T::Err: Display,
    {
        let Some(i) = self.take(name) else {
            return Ok(None);
        };
        let raw = self
            .tokens
            .get_mut(i + 1)
            .filter(|t| t.as_deref().is_some_and(|t| !t.starts_with("--")))
            .and_then(Option::take)
            .ok_or_else(|| format!("{name} needs a value"))?;
        raw.parse().map(Some).map_err(|e| format!("{name}: {e}"))
    }

    /// Checks that every argument was consumed.
    ///
    /// # Errors
    ///
    /// Names the first leftover argument: a repeated flag or one no
    /// query asked for.
    pub fn finish(self) -> Result<(), String> {
        let Args { tokens, queried } = self;
        match tokens.into_iter().flatten().next() {
            None => Ok(()),
            Some(t) if queried.contains(&t) => Err(format!("{t} given more than once")),
            Some(t) => Err(format!("unknown argument {t:?}")),
        }
    }
}

/// Parses the process arguments with `parse` and checks that nothing is
/// left over; on a usage error prints `bin: error` and exits 2.
pub fn parse_or_exit<T>(bin: &str, parse: impl FnOnce(&mut Args) -> Result<T, String>) -> T {
    let mut args = Args::from_env();
    let parsed = parse(&mut args).and_then(|t| args.finish().map(|()| t));
    or_exit(bin, 2, parsed)
}

/// Unwraps `result`, or prints `bin: error` and exits with `code`.
pub fn or_exit<T, E: Display>(bin: &str, code: i32, result: Result<T, E>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("{bin}: {e}");
        std::process::exit(code)
    })
}

/// Exits 2 from an unoptimised build: its wall-clock figures would
/// poison the committed baselines. `deterministic_escape` says the
/// binary also takes `--deterministic`, which records no timing.
pub fn refuse_debug_timing(bin: &str, deterministic_escape: bool) {
    if cfg!(debug_assertions) {
        let escape = if deterministic_escape {
            " (or pass --deterministic for a timing-free export)"
        } else {
            ""
        };
        eprintln!(
            "{bin}: refusing to record wall-clock timings from a debug build; \
             run with `cargo run --release -p autoplat-bench --bin {bin}`{escape}"
        );
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(items: &[&str]) -> Args {
        Args::new(items.iter().map(|i| i.to_string()))
    }

    #[test]
    fn flags_and_typed_values_in_any_order() {
        let mut a = args(&["--seed", "9", "--smoke", "--ratio", "-0.5"]);
        assert!(a.flag("--smoke"));
        assert!(!a.flag("--resume"));
        assert_eq!(a.value::<f64>("--ratio"), Ok(Some(-0.5)));
        assert_eq!(a.value::<u64>("--seed"), Ok(Some(9)));
        assert_eq!(a.value::<u64>("--points"), Ok(None));
        a.finish().expect("all consumed");
    }

    #[test]
    fn typed_parse_errors_name_the_flag() {
        let err = args(&["--points", "many"])
            .value::<u64>("--points")
            .expect_err("not a number");
        assert!(err.starts_with("--points: "), "{err}");
        let err = args(&["--workers", "-1"])
            .value::<usize>("--workers")
            .expect_err("negative");
        assert!(err.starts_with("--workers: "), "{err}");
    }

    #[test]
    fn missing_values_are_errors() {
        let mut a = args(&["--export-json"]);
        assert_eq!(
            a.value::<String>("--export-json"),
            Err("--export-json needs a value".into())
        );
        // A following flag is never taken as the value.
        let mut a = args(&["--export-json", "--smoke"]);
        assert!(a.value::<String>("--export-json").is_err());
        assert!(a.flag("--smoke"));
    }

    #[test]
    fn finish_rejects_leftovers() {
        let mut a = args(&["--smoke", "--bogus"]);
        assert!(a.flag("--smoke"));
        assert_eq!(a.finish(), Err("unknown argument \"--bogus\"".into()));

        let mut a = args(&["--seed", "1", "--seed", "2"]);
        assert_eq!(a.value::<u64>("--seed"), Ok(Some(1)));
        assert_eq!(a.finish(), Err("--seed given more than once".into()));

        let mut a = args(&["--smoke", "--smoke"]);
        assert!(a.flag("--smoke"));
        assert_eq!(a.finish(), Err("--smoke given more than once".into()));

        let a = args(&["stray"]);
        assert_eq!(a.finish(), Err("unknown argument \"stray\"".into()));
    }

    #[test]
    fn positional_only_takes_a_leading_name() {
        let mut a = args(&["fig5", "--smoke"]);
        assert_eq!(a.positional(), Some("fig5".into()));
        assert!(a.flag("--smoke"));
        a.finish().expect("all consumed");

        let mut a = args(&["--smoke", "fig5"]);
        assert_eq!(a.positional(), None);
        assert_eq!(args(&[]).positional(), None);
    }
}
