//! The one tokenizer behind every spec string.
//!
//! Scheme specs, `mu=`/`zfilter=` values, schedules, paths, `ecn=`, cross
//! traffic, fleets and whole cells all share one shape — `head(k=v,…)` calls,
//! top-level separators, numbers with unit suffixes — so they share this
//! module: the paren-aware splitter, the `head(inner)` and `key=value`
//! splitters, the unit-number parsers with their exact printers, and the one
//! error type.  Option lists are written once as tables ([`Opt`] for
//! `key=value` options, `(name, value)` slices for closed choices) that
//! `Display`, `FromStr`, `label()` and the "expected …" error text all read,
//! so they cannot drift apart.

use nimbus_transport::parse_rate_bps;
use std::fmt;

/// A spec parse failure, with an actionable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid spec: {}", self.0)
    }
}

impl std::error::Error for ParseError {}

/// Split on `sep` at parenthesis depth zero only, so values like
/// `learned(probe=3,gain=2)` survive an option split intact.
pub fn split_top_level(s: &str, sep: char) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut depth = 0usize;
    let mut start = 0;
    for (i, c) in s.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => depth = depth.saturating_sub(1),
            c if c == sep && depth == 0 => {
                parts.push(&s[start..i]);
                start = i + c.len_utf8();
            }
            _ => {}
        }
    }
    parts.push(&s[start..]);
    parts
}

/// Split a whole spec into its whitespace-separated top-level tokens,
/// rejecting unbalanced parentheses first (an unclosed one would swallow
/// every token after it).
pub fn tokens(s: &str) -> Result<Vec<&str>, ParseError> {
    let mut depth = 0usize;
    for c in s.chars() {
        match c {
            '(' => depth += 1,
            ')' if depth == 0 => return Err(ParseError(format!("unmatched `)` in `{s}`"))),
            ')' => depth -= 1,
            _ => {}
        }
    }
    if depth > 0 {
        return Err(ParseError(format!("`{s}` is missing the closing `)`")));
    }
    let tokens = split_top_level(s, ' ').into_iter();
    Ok(tokens.filter(|t| !t.is_empty()).collect())
}

/// Split a `head(inner)` call form; a bare `head` has no inner args.
/// Errors if the closing parenthesis is missing.
pub fn split_call(value: &str) -> Result<(&str, Option<&str>), ParseError> {
    let value = value.trim();
    match value.split_once('(') {
        None => Ok((value, None)),
        Some((head, rest)) => {
            let inner = rest
                .strip_suffix(')')
                .ok_or_else(|| ParseError(format!("`{value}` is missing the closing `)`")))?;
            Ok((head.trim(), Some(inner.trim())))
        }
    }
}

/// Split `key=value` at the first top-level `=` (so `hop(rate=1)` is not a
/// pair but `mu=learned(probe=3)` is); both halves trimmed.
pub fn key_value(pair: &str) -> Option<(&str, &str)> {
    let key = split_top_level(pair, '=')[0];
    let value = pair.get(key.len() + 1..)?;
    Some((key.trim(), value.trim()))
}

// ---- numbers with units ---------------------------------------------------

/// The one number parser: a finite number, scaled by the first matching
/// unit suffix, strictly positive unless `zero_ok`.
fn number(
    what: &str,
    value: &str,
    units: &[(&str, f64)],
    zero_ok: bool,
) -> Result<f64, ParseError> {
    let v = value.trim();
    let (digits, scale) = units
        .iter()
        .find_map(|&(suffix, scale)| Some((v.strip_suffix(suffix)?, scale)))
        .unwrap_or((v, 1.0));
    let n: f64 = digits
        .trim()
        .parse()
        .ok()
        .filter(|n: &f64| n.is_finite())
        .ok_or_else(|| ParseError(format!("invalid {what} `{value}`: not a number")))?;
    if n < 0.0 || (n == 0.0 && !zero_ok) {
        return Err(ParseError(format!(
            "invalid {what} `{value}`: must be a positive number"
        )));
    }
    Ok(n * scale)
}

/// A strictly positive plain number.
pub fn positive(what: &str, value: &str) -> Result<f64, ParseError> {
    number(what, value, &[], false)
}

/// A probability in `[0, 1)`: one would drop every packet.
pub fn probability(what: &str, value: &str) -> Result<f64, ParseError> {
    let p = number(what, value, &[], true)?;
    if p >= 1.0 {
        return Err(ParseError(format!(
            "invalid {what} `{value}`: must be a probability below 1"
        )));
    }
    Ok(p)
}

/// A bit rate with an optional `k`/`M`/`G` suffix (`48M`); the parser is
/// [`parse_rate_bps`], shared with `constant(<rate>)`.
pub fn rate(value: &str) -> Result<f64, ParseError> {
    parse_rate_bps(value).map_err(ParseError)
}

/// A byte count with an optional `k`/`M` suffix (`50k` = 50 000).
pub fn size(what: &str, value: &str) -> Result<f64, ParseError> {
    number(what, value, &[("k", 1e3), ("K", 1e3), ("M", 1e6)], false)
}

const TIME_UNITS: &[(&str, f64)] = &[("ms", 1e-3), ("s", 1.0)];

/// A strictly positive duration in seconds, with an optional `ms`/`s`
/// suffix (`5ms`, `0.005s`, `10`).
pub fn duration(what: &str, value: &str) -> Result<f64, ParseError> {
    number(what, value, TIME_UNITS, false)
}

/// A point in time (seconds from the start of the run; zero allowed).
pub fn instant(what: &str, value: &str) -> Result<f64, ParseError> {
    number(what, value, TIME_UNITS, true)
}

/// Print `v` with the first of `units` (largest first) that reproduces it
/// exactly when parsed back — the guard re-applies the parser's own
/// multiplication — falling back to the bare number plus `base`.
fn with_unit(v: f64, units: &[(&str, f64)], base: &str) -> String {
    for &(suffix, scale) in units {
        let scaled = v / scale;
        if scaled >= 1.0 && scaled * scale == v {
            return format!("{scaled}{suffix}");
        }
    }
    format!("{v}{base}")
}

/// The canonical form [`duration`]/[`instant`] read back exactly: `40s`,
/// `5ms` (by reference: it is an [`Opt`] table's `$fmt`).
pub fn fmt_duration(seconds: &f64) -> String {
    with_unit(*seconds, &[("s", 1.0), ("ms", 1e-3)], "s")
}

/// The canonical form [`size`] reads back exactly: `50k`, `2M`, `1234`.
pub fn fmt_size(bytes: &f64) -> String {
    with_unit(*bytes, &[("M", 1e6), ("k", 1e3)], "")
}

// ---- option tables --------------------------------------------------------

/// One `key=value` option of a spec type `T`.  A table of these is the only
/// place an option list is written down.
pub struct Opt<T> {
    /// The key as typed.
    pub key: &'static str,
    /// What the value looks like, for error text and `--help`.
    pub hint: fn() -> String,
    /// Prefix of the value in a `label()` slug (`g` in `-estmu-probe1g4`).
    pub slug: &'static str,
    /// The canonical value, or `None` when it is the default and omitted.
    pub show: fn(&T) -> Option<String>,
    /// Parse a value into the target.
    pub set: fn(&mut T, &str) -> Result<(), ParseError>,
}

/// `key=<hint>, key=<hint>, …` — the "expected …" text of a table.
pub fn expected<T>(table: &[Opt<T>]) -> String {
    let keys: Vec<String> = table
        .iter()
        .map(|o| format!("{}={}", o.key, (o.hint)()))
        .collect();
    keys.join(", ")
}

/// The non-default options of `value` as `key=value`, joined by `sep`.
pub fn show_opts<'a, T: 'a>(
    opts: impl IntoIterator<Item = &'a Opt<T>>,
    value: &T,
    sep: &str,
) -> String {
    let shown: Vec<String> = opts
        .into_iter()
        .filter_map(|o| Some(format!("{}={}", o.key, (o.show)(value)?)))
        .collect();
    shown.join(sep)
}

/// The non-default options of `value` as concatenated `<slug><value>` label
/// fragments.
pub fn slugs<'a, T: 'a>(opts: impl IntoIterator<Item = &'a Opt<T>>, value: &T) -> String {
    opts.into_iter()
        .filter_map(|o| Some(format!("{}{}", o.slug, (o.show)(value)?)))
        .collect()
}

/// Parse comma-separated `key=value` options into `target`; returns the keys
/// seen.  `what` names the option family in error text (`nimbus`,
/// `mu=learned`, …).
pub fn set_opts<T>(
    what: &str,
    table: &[Opt<T>],
    target: &mut T,
    args: &str,
) -> Result<Vec<&'static str>, ParseError> {
    let mut seen = Vec::new();
    for pair in split_top_level(args, ',') {
        let pair = pair.trim();
        if pair.is_empty() {
            continue;
        }
        let (key, value) = key_value(pair).ok_or_else(|| {
            ParseError(format!(
                "{what} option `{pair}` is not of the form key=value (expected {})",
                expected(table)
            ))
        })?;
        let opt = table.iter().find(|o| o.key == key).ok_or_else(|| {
            ParseError(format!(
                "unknown {what} option `{key}` (expected {})",
                expected(table)
            ))
        })?;
        (opt.set)(target, value)?;
        seen.push(opt.key);
    }
    Ok(seen)
}

/// `a|b|c` — the names of a closed-choice table, aliases included.
pub fn choices<T>(table: &[(&'static str, T)]) -> String {
    let names: Vec<&str> = table.iter().map(|&(name, _)| name).collect();
    names.join("|")
}

/// Look `s` up in a closed-choice table.
pub fn choice<T: Copy>(what: &str, table: &[(&'static str, T)], s: &str) -> Result<T, ParseError> {
    table
        .iter()
        .find(|&&(name, _)| name == s)
        .map(|&(_, v)| v)
        .ok_or_else(|| {
            ParseError(format!(
                "unknown {what} `{s}` (expected {})",
                choices(table)
            ))
        })
}

/// The canonical (first-listed) name of `value`, or `None` when it is the
/// table's first entry — by convention the default.
pub fn non_default<T: PartialEq>(table: &[(&'static str, T)], value: &T) -> Option<String> {
    let (name, _) = table.iter().find(|(_, v)| v == value)?;
    (*name != table[0].0).then(|| name.to_string())
}

/// `v.parse()` in the `(what, value)` shape `field_opt!` calls, for fields
/// whose type has its own `FromStr`.
pub fn parsed<T: std::str::FromStr<Err = ParseError>>(
    _what: &str,
    value: &str,
) -> Result<T, ParseError> {
    value.parse()
}

/// An [`Opt`] for a field holding one of a closed-choice table's values.
macro_rules! choice_opt {
    ($key:literal, $what:literal, $table:ident, $field:ident) => {
        $crate::grammar::Opt {
            key: $key,
            hint: || $crate::grammar::choices($table),
            slug: "",
            show: |t| $crate::grammar::non_default($table, &t.$field),
            set: |t, v| {
                t.$field = $crate::grammar::choice($what, $table, v)?;
                Ok(())
            },
        }
    };
}

/// `T::default()`, with `T` named by a value — for `field_opt!`'s closures.
pub fn default_of<T: Default>(_: &T) -> T {
    T::default()
}

/// An [`Opt`] for a plain field: parsed by `$parse(key, value)`, printed by
/// `$fmt(&field)`.  The canonical form omits the option when the field
/// equals `$default` — or, with no `$default`, the same field of
/// `T::default()`; `required` options are always shown.
macro_rules! field_opt {
    ($key:literal, $slug:literal, $hint:expr, $parse:path, $fmt:path, $field:ident, required) => {
        $crate::grammar::field_opt!(@opt $key, $slug, $hint, $parse, $field, |t| Some($fmt(&t.$field)))
    };
    ($key:literal, $slug:literal, $hint:expr, $parse:path, $fmt:path, $field:ident) => {
        $crate::grammar::field_opt!(@opt $key, $slug, $hint, $parse, $field, |t| {
            (t.$field != $crate::grammar::default_of(t).$field).then(|| $fmt(&t.$field))
        })
    };
    ($key:literal, $slug:literal, $hint:expr, $parse:path, $fmt:path, $field:ident, $default:expr) => {
        $crate::grammar::field_opt!(@opt $key, $slug, $hint, $parse, $field, |t| {
            (t.$field != $default).then(|| $fmt(&t.$field))
        })
    };
    (@opt $key:literal, $slug:literal, $hint:expr, $parse:path, $field:ident, $show:expr) => {
        $crate::grammar::Opt {
            key: $key,
            hint: || $hint.to_string(),
            slug: $slug,
            show: $show,
            set: |t, v| {
                t.$field = $parse($key, v)?;
                Ok(())
            },
        }
    };
}

/// A [`field_opt`] holding a strictly positive plain number.
macro_rules! num_opt {
    ($key:literal, $slug:literal, $hint:literal, $field:ident $(, $default:tt)?) => {
        $crate::grammar::field_opt!(
            $key,
            $slug,
            $hint,
            $crate::grammar::positive,
            f64::to_string,
            $field
            $(, $default)?
        )
    };
}

pub(crate) use {choice_opt, field_opt, num_opt};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitting_respects_parentheses() {
        assert_eq!(split_top_level("a=f(x,y),b", ','), vec!["a=f(x,y)", "b"]);
        assert_eq!(split_top_level("", ','), vec![""]);
        assert_eq!(
            key_value("mu=learned(probe=3)"),
            Some(("mu", "learned(probe=3)"))
        );
        assert_eq!(key_value("hop(rate=1)"), None);
        assert_eq!(split_call("f(x)").unwrap(), ("f", Some("x")));
        assert!(split_call("f(x").is_err());
    }

    #[test]
    fn unit_numbers_print_what_they_parse() {
        for (s, v) in [(0.005, "5ms"), (40.0, "40s"), (6.75, "6.75s"), (0.0, "0s")] {
            assert_eq!(fmt_duration(&s), v);
            assert_eq!(instant("t", v).unwrap(), s);
        }
        for awkward in [0.0007, 1.0 / 3.0, 0.1 + 0.2] {
            assert_eq!(duration("t", &fmt_duration(&awkward)).unwrap(), awkward);
        }
        assert_eq!(fmt_size(&50_000.0), "50k");
        assert_eq!(size("mean", "2M").unwrap(), 2e6);
        assert!(duration("t", "0").is_err());
        assert!(positive("k", "nan").is_err());
    }
}
