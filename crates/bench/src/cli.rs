//! The `exp` command line: which experiments, and the one switch they
//! share.
//!
//! `--quick` (or `-q`) on the command line, or `MPDASH_QUICK=1` in the
//! environment, asks for the reduced-size run: experiments that iterate a
//! corpus shrink it, everything else ignores the flag. The environment
//! form exists so CI wrappers can set it once for a whole pipeline.

use crate::experiments::{select, Experiment};

/// A parsed `exp` command line.
pub struct Args {
    /// The experiments to run, in order.
    pub experiments: Vec<&'static Experiment>,
    /// Whether the reduced quick-mode run was asked for.
    pub quick: bool,
}

/// Parse `exp`'s arguments (without the program name): positional
/// experiment names (or `all`) plus `--quick` / `-q`.
pub fn parse(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut quick = quick_env();
    let mut names = Vec::new();
    for arg in args {
        match arg.as_str() {
            "--quick" | "-q" => quick = true,
            flag if flag.starts_with('-') => return Err(format!("unknown flag '{flag}'")),
            _ => names.push(arg),
        }
    }
    if names.is_empty() {
        return Err("name an experiment, or `all`".into());
    }
    Ok(Args {
        experiments: select(&names)?,
        quick,
    })
}

/// The environment half of the quick switch (`MPDASH_QUICK`).
fn quick_env() -> bool {
    match std::env::var("MPDASH_QUICK") {
        Ok(v) => {
            let v = v.trim();
            !(v.is_empty() || v == "0" || v.eq_ignore_ascii_case("false"))
        }
        Err(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_strs(args: &[&str]) -> Result<Args, String> {
        parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn names_and_the_quick_flag_parse_in_any_order() {
        // Test processes never set MPDASH_QUICK, so only the flag counts.
        let args = parse_strs(&["tab2", "--quick", "fig5"]).unwrap();
        assert!(args.quick);
        let names: Vec<_> = args.experiments.iter().map(|e| e.name).collect();
        assert_eq!(names, ["tab2", "fig5"]);
        assert!(!parse_strs(&["all"]).unwrap().quick);
        assert!(parse_strs(&["-q", "all"]).unwrap().quick);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(parse_strs(&[]).is_err());
        assert!(parse_strs(&["--quick"]).is_err());
        assert_eq!(
            parse_strs(&["tab2", "--fast"]).err().unwrap(),
            "unknown flag '--fast'"
        );
        assert_eq!(
            parse_strs(&["tab9"]).err().unwrap(),
            "unknown experiment 'tab9'"
        );
    }
}
