//! Flag parsing for the `smc` subcommands.
//!
//! Each subcommand declares its flags once, as a table in synopsis form:
//! `"--model NAME --stats"` declares `--model` as taking a value (a word
//! after a flag that is not itself a flag is its metavariable) and
//! `--stats` as a switch. [`Args::parse`] splits the arguments against
//! that table in one pass, so an unknown flag, a `--flag=value` or a
//! value flag with no value is an error naming the flag, and a switch
//! never swallows the word after it.

use std::str::FromStr;

/// One subcommand's arguments, split against its flag table.
#[derive(Debug)]
pub struct Args<'a> {
    /// Declared flags, each with whether it takes a value.
    declared: Vec<(&'static str, bool)>,
    /// Flags in the order given, with their values.
    given: Vec<(&'a str, Option<&'a str>)>,
    /// The words that are neither flags nor flag values, in order.
    operands: Vec<&'a str>,
}

impl<'a> Args<'a> {
    /// Split `args` against the flags `table` declares (its strings read
    /// as one synopsis).
    pub fn parse(args: &'a [String], table: &[&'static str]) -> Result<Args<'a>, String> {
        let words: Vec<&'static str> = table.iter().flat_map(|s| s.split_whitespace()).collect();
        let declared: Vec<(&'static str, bool)> = (0..words.len())
            .filter(|&i| words[i].starts_with("--"))
            .map(|i| {
                (
                    words[i],
                    words.get(i + 1).is_some_and(|w| !w.starts_with("--")),
                )
            })
            .collect();
        let mut given = Vec::new();
        let mut operands = Vec::new();
        let mut rest = args.iter();
        while let Some(arg) = rest.next() {
            if !arg.starts_with("--") {
                operands.push(arg.as_str());
                continue;
            }
            let &(_, takes_value) = declared
                .iter()
                .find(|(name, _)| name == arg)
                .ok_or_else(|| format!("unknown flag `{arg}`"))?;
            let value = if takes_value {
                match rest.next() {
                    Some(v) if !v.starts_with("--") => Some(v.as_str()),
                    _ => return Err(format!("{arg} requires a value")),
                }
            } else {
                None
            };
            given.push((arg.as_str(), value));
        }
        Ok(Args {
            declared,
            given,
            operands,
        })
    }

    /// The words that are neither flags nor flag values, in order.
    pub fn operands(&self) -> &[&'a str] {
        &self.operands
    }

    /// Whether switch `name` was given.
    pub fn switch(&self, name: &str) -> bool {
        self.find(name, false).is_some()
    }

    /// The value of flag `name`; when repeated, the first one wins.
    pub fn value(&self, name: &str) -> Option<&'a str> {
        self.find(name, true).and_then(|&(_, v)| v)
    }

    /// The value of `name` as a number, or `default` when absent.
    pub fn num<T: FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        self.value(name).map_or(Ok(default), |v| {
            v.parse()
                .map_err(|_| format!("{name}: `{v}` is not a valid number"))
        })
    }

    /// The value of `name` as a positive integer, if given.
    pub fn positive<T: FromStr + PartialOrd + Default>(
        &self,
        name: &str,
    ) -> Result<Option<T>, String> {
        self.value(name)
            .map(|v| {
                v.parse()
                    .ok()
                    .filter(|n| *n > T::default())
                    .ok_or_else(|| format!("{name}: `{v}` is not a positive integer"))
            })
            .transpose()
    }

    fn find(&self, name: &str, takes_value: bool) -> Option<&(&'a str, Option<&'a str>)> {
        debug_assert!(
            self.declared.contains(&(name, takes_value)),
            "`{name}` is read but not declared in the flag table"
        );
        self.given.iter().find(|&&(given, _)| given == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TABLE: &[&str] = &["--model NAME --runs R --stats", "--nope X --jobs N"];

    fn words(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn flag_parsing() {
        let words = words("x.litmus --model TSO --runs 5");
        let args = Args::parse(&words, TABLE).unwrap();
        assert_eq!(args.value("--model"), Some("TSO"));
        assert_eq!(args.value("--runs"), Some("5"));
        assert_eq!(args.value("--nope"), None);
        assert_eq!(args.operands(), ["x.litmus"]);
    }

    #[test]
    fn switches_never_take_the_next_word() {
        let words = words("--stats f.litmus --model sc g");
        let args = Args::parse(&words, TABLE).unwrap();
        assert!(args.switch("--stats"));
        assert_eq!(args.operands(), ["f.litmus", "g"]);
        assert_eq!(args.value("--model"), Some("sc"));
    }

    #[test]
    fn first_occurrence_wins() {
        let words = words("--model a --stats --model b --stats");
        let args = Args::parse(&words, TABLE).unwrap();
        assert_eq!(args.value("--model"), Some("a"));
        assert!(args.switch("--stats"));
    }

    #[test]
    fn bad_flags_are_named() {
        let err = |line| Args::parse(&words(line), TABLE).unwrap_err();
        assert_eq!(err("--modle sc"), "unknown flag `--modle`");
        assert_eq!(err("--runs=5"), "unknown flag `--runs=5`");
        assert_eq!(err("--model"), "--model requires a value");
        assert_eq!(err("--model --stats"), "--model requires a value");
    }

    #[test]
    fn numbers_parse_with_defaults() {
        let words = words("--runs 5 --jobs 0 --nope x");
        let args = Args::parse(&words, TABLE).unwrap();
        assert_eq!(args.num("--runs", 9u64), Ok(5));
        assert_eq!(args.positive::<u64>("--runs"), Ok(Some(5)));
        assert_eq!(args.num("--model", 9u64), Ok(9));
        assert_eq!(args.positive::<u64>("--model"), Ok(None));
        assert!(args
            .positive::<usize>("--jobs")
            .unwrap_err()
            .contains("positive"));
        assert!(args.num::<u64>("--nope", 0).unwrap_err().contains("`x`"));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "not declared")]
    fn reading_an_undeclared_flag_is_a_bug() {
        Args::parse(&[], TABLE).unwrap().switch("--verbose");
    }
}
