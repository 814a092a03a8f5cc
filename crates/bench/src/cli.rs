//! The `exp` command line: which experiments, and the one switch they
//! share.
//!
//! `--quick` (or `-q`) asks for the reduced-size run: experiments that
//! iterate a corpus shrink it, everything else ignores the flag.

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
    let mut quick = false;
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

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_strs(args: &[&str]) -> Result<Args, String> {
        parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn names_and_the_quick_flag_parse_in_any_order() {
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
