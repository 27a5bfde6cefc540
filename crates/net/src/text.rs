//! The one line grammar behind every text format of the workspace: `.scn`
//! scenario files, [`TopologySchedule`](crate::TopologySchedule) scripts
//! and the `nectar-node-report v1` blocks a socket fleet prints.
//!
//! A document is a sequence of lines. `#` starts a comment that runs to
//! the end of its line, and a line that is blank once its comment is gone
//! is skipped. Every other line is a keyword followed by
//! whitespace-separated words. [`lines`] does that tokenizing once for
//! every format; each reader keeps only its vocabulary, and checks arity
//! and numbers through [`Line`], so a bad line reads the same in every
//! format: a [`TextError`] anchored at its 1-based line number.

use std::fmt;
use std::str::FromStr;

/// A malformed line: where it is and what is wrong with it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TextError {
    /// 1-based line number; 0 when the error is about the document as a
    /// whole (a missing header, an early end).
    pub line: usize,
    /// What went wrong.
    pub reason: String,
}

impl fmt::Display for TextError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.line {
            0 => f.write_str(&self.reason),
            line => write!(f, "line {line}: {}", self.reason),
        }
    }
}

impl std::error::Error for TextError {}

/// One non-blank line with its comment stripped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Line<'a> {
    /// 1-based line number in the document.
    pub number: usize,
    /// The first word.
    pub keyword: &'a str,
    /// The words after the keyword.
    pub args: Vec<&'a str>,
}

impl<'a> Line<'a> {
    /// The arguments, which must number exactly `K`.
    ///
    /// # Errors
    ///
    /// `<keyword> takes K argument(s), got n` at this line.
    pub fn args<const K: usize>(&self) -> Result<[&'a str; K], TextError> {
        <[&str; K]>::try_from(self.args.as_slice()).map_err(|_| {
            self.error(format!("{} takes {K} argument(s), got {}", self.keyword, self.args.len()))
        })
    }

    /// Parses `word` as a number (or any other [`FromStr`] value); `what`
    /// names it in the error.
    ///
    /// # Errors
    ///
    /// `bad <what> <word>` at this line.
    pub fn num<T: FromStr>(&self, word: &str, what: &str) -> Result<T, TextError> {
        word.parse().map_err(|_| self.error(format!("bad {what} {word}")))
    }

    /// An error anchored at this line.
    pub fn error(&self, reason: impl Into<String>) -> TextError {
        TextError { line: self.number, reason: reason.into() }
    }
}

/// Every non-blank line of `text`, `#` comments stripped, numbered from 1
/// as the document counts them (skipped lines keep their numbers).
pub fn lines(text: &str) -> impl Iterator<Item = Line<'_>> {
    text.lines().enumerate().filter_map(|(idx, raw)| {
        let mut words = raw.split('#').next().unwrap_or("").split_whitespace();
        let keyword = words.next()?;
        Some(Line { number: idx + 1, keyword, args: words.collect() })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_blank_lines_are_skipped_and_numbers_kept() {
        let doc = "# header\n\n  drop 2 0 1   # trailing note\n   \t\n#only\nprofile\n";
        let got: Vec<Line> = lines(doc).collect();
        assert_eq!(
            got,
            vec![
                Line { number: 3, keyword: "drop", args: vec!["2", "0", "1"] },
                Line { number: 6, keyword: "profile", args: vec![] },
            ]
        );
        assert_eq!(lines("#\n # \n\n").count(), 0);
    }

    #[test]
    fn arity_errors_carry_the_line() {
        let line = lines("\n\ndrop one zero\n").next().unwrap();
        assert_eq!(line.args::<2>().unwrap(), ["one", "zero"]);
        let err = line.args::<3>().unwrap_err();
        assert_eq!(err, TextError { line: 3, reason: "drop takes 3 argument(s), got 2".into() });
        assert_eq!(err.to_string(), "line 3: drop takes 3 argument(s), got 2");
    }

    #[test]
    fn number_errors_carry_the_line() {
        let line = lines("seed 1\nloss 0 1 1..4 x\n").nth(1).unwrap();
        assert_eq!(line.num::<u64>(line.args[0], "node"), Ok(0));
        assert_eq!(line.num::<f64>("0.25", "probability"), Ok(0.25));
        let err = line.num::<f64>(line.args[3], "probability").unwrap_err();
        assert_eq!(err, TextError { line: 2, reason: "bad probability x".into() });
        assert_eq!(line.num::<u16>("70000", "port").unwrap_err().reason, "bad port 70000");
        assert_eq!(line.error("boom").to_string(), "line 2: boom");
        assert_eq!(TextError { line: 0, reason: "boom".into() }.to_string(), "boom");
    }
}
