//! The `nevd` line protocol: request parsing and canonical rendering.
//!
//! Every request and every response is **one line** of UTF-8 text. The grammar:
//!
//! ```text
//! request   = "LOAD" name facts
//!           | "PREPARE" query-text
//!           | "EVAL" name semantics query-text
//!           | "EXPLAIN" name semantics query-text
//!           | "ANALYZE" name semantics query-text
//!           | "TRACE" name semantics query-text
//!           | "PROFILE" name semantics query-text
//!           | "STATS"
//!           | "METRICS"
//!           | "METRICS RESET"
//!           | "TOP"
//!           | "QUIT"
//! facts     = "-"                      (the empty instance)
//!           | fact (";" fact)*
//! fact      = relname "(" values ")"   (values may be empty: a 0-ary fact)
//! values    = value ("," value)*
//! value     = integer                  (a constant, e.g. 42 or -7)
//!           | "?" positive-integer     (a labelled null, e.g. ?1)
//!           | symbol                   (a string constant, e.g. paris)
//!           | "'" chars "'"            (a quoted string constant; a literal
//!                                       quote is written doubled: '')
//! semantics = "owa" | "cwa" | "wcwa" | "powerset-cwa" | "minimal-cwa" | …
//!             (every spelling `Semantics::from_str` accepts)
//! response  = "OK" payload | "ERR" message
//! ```
//!
//! Every response is one line — with a single exception: `METRICS` answers
//! `OK metrics` followed by a Prometheus-style exposition whose last line is
//! `# EOF` (see [`nev_obs::validate_exposition`] for the exposition grammar),
//! so line-oriented clients know exactly where the multi-line payload stops.
//! `TRACE` evaluates like `EVAL` but answers with the request's stage
//! timeline (`trace plan=… total_us=… spans=…`) instead of the answer set.
//! `ANALYZE` runs the static analyser without executing anything: it answers
//! with the raw and normalized fragments, the rewrite-trace length, the
//! dispatch the engine would pick, the replay-checked certificate status,
//! per-answer-column null-safety, and the analyser's diagnostics.
//! `PROFILE` evaluates like `EVAL` but answers with the per-operator annotated
//! plan (wall time, output rows, estimated rows per node). `EVAL`, `TRACE` and
//! `PROFILE` share one traced request path, so each feeds the same `METRICS`
//! stage histograms and slow-query log. `TOP` is the
//! one-line windowed throughput/latency summary behind the `nevtop` dashboard,
//! and `METRICS RESET` zeroes the slow-query log and the windowed series
//! while leaving every lifetime counter intact.
//!
//! The `;` and `,` separators of the facts grammar are recognised **outside
//! quotes only**, so quoted strings may contain any character (newlines aside —
//! the transport is line-based).
//!
//! Rendering is **canonical**: instances and answer sets serialise from `BTreeMap`/
//! `BTreeSet` iteration order, so equal values always render to identical bytes.
//! That is what makes "server round-trip answers are byte-identical to an
//! in-process [`nev_core::engine::CertainEngine::evaluate`]" a checkable property —
//! the load-generator client asserts it on every response.

use std::collections::BTreeSet;
use std::fmt;

use nev_incomplete::{Instance, Tuple, Value};

/// A parsed protocol request.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Command {
    /// `LOAD name facts` — register (or replace) a named instance.
    Load {
        /// Catalog name to bind.
        name: String,
        /// The parsed instance.
        instance: Instance,
    },
    /// `PREPARE query` — parse, classify and compile a query into the plan cache.
    Prepare {
        /// The raw query text.
        query: String,
    },
    /// `EVAL name semantics query` — certain answers of `query` on the named
    /// instance under the given semantics.
    Eval {
        /// Catalog name to evaluate on.
        name: String,
        /// The semantics spelling (validated by the state layer).
        semantics: String,
        /// The raw query text.
        query: String,
    },
    /// `EXPLAIN name semantics query` — the dispatch decision and the `nev-opt`
    /// optimised plan for `query` on the named instance, without executing it.
    Explain {
        /// Catalog name the dispatch would run on (core checks need it).
        name: String,
        /// The semantics spelling (validated by the state layer).
        semantics: String,
        /// The raw query text.
        query: String,
    },
    /// `ANALYZE name semantics query` — the static analyser's verdict for
    /// `query` on the named instance, without executing it: raw vs normalized
    /// fragment, rewrite-trace length, the dispatch the engine would pick,
    /// certificate status, per-column null-safety, and diagnostics.
    Analyze {
        /// Catalog name the dispatch would run on (core checks need it).
        name: String,
        /// The semantics spelling (validated by the state layer).
        semantics: String,
        /// The raw query text.
        query: String,
    },
    /// `TRACE name semantics query` — evaluate like `EVAL`, but answer with the
    /// request's stage timeline instead of the answer set.
    Trace {
        /// Catalog name to evaluate on.
        name: String,
        /// The semantics spelling (validated by the state layer).
        semantics: String,
        /// The raw query text.
        query: String,
    },
    /// `PROFILE name semantics query` — evaluate like `EVAL`, but answer with
    /// the per-operator annotated plan (inclusive wall time, output rows and
    /// the cost model's estimated rows per executed operator).
    Profile {
        /// Catalog name to evaluate on.
        name: String,
        /// The semantics spelling (validated by the state layer).
        semantics: String,
        /// The raw query text.
        query: String,
    },
    /// `STATS` — service counters.
    Stats,
    /// `METRICS` — the full telemetry exposition (the sole multi-line response,
    /// terminated by a `# EOF` line).
    Metrics,
    /// `METRICS RESET` — zero the slow-query log and the windowed time series,
    /// leaving every lifetime counter (and histogram) untouched so the
    /// windowed-vs-lifetime reconciliation invariants survive.
    MetricsReset,
    /// `TOP` — the one-line windowed throughput/latency summary (QPS, error
    /// rate and latency quantiles over the trailing 1 s / 10 s / 60 s windows).
    Top,
    /// `QUIT` — close the connection.
    Quit,
}

/// A protocol-level parse failure (rendered as an `ERR` response).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WireError(pub String);

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for WireError {}

fn err(msg: impl Into<String>) -> WireError {
    WireError(msg.into())
}

/// Parses one request line.
pub fn parse_command(line: &str) -> Result<Command, WireError> {
    let line = line.trim();
    let (verb, rest) = match line.split_once(char::is_whitespace) {
        Some((verb, rest)) => (verb, rest.trim()),
        None => (line, ""),
    };
    match verb.to_ascii_uppercase().as_str() {
        "LOAD" => {
            let (name, facts) = rest
                .split_once(char::is_whitespace)
                .ok_or_else(|| err("usage: LOAD <name> <facts>"))?;
            Ok(Command::Load {
                name: valid_name(name)?,
                instance: parse_instance(facts.trim())?,
            })
        }
        "PREPARE" => {
            if rest.is_empty() {
                return Err(err("usage: PREPARE <query>"));
            }
            Ok(Command::Prepare {
                query: rest.to_string(),
            })
        }
        "EVAL" => {
            let (name, semantics, query) = parse_eval_shape(rest, "EVAL")?;
            Ok(Command::Eval {
                name,
                semantics,
                query,
            })
        }
        "EXPLAIN" => {
            let (name, semantics, query) = parse_eval_shape(rest, "EXPLAIN")?;
            Ok(Command::Explain {
                name,
                semantics,
                query,
            })
        }
        "ANALYZE" => {
            let (name, semantics, query) = parse_eval_shape(rest, "ANALYZE")?;
            Ok(Command::Analyze {
                name,
                semantics,
                query,
            })
        }
        "TRACE" => {
            let (name, semantics, query) = parse_eval_shape(rest, "TRACE")?;
            Ok(Command::Trace {
                name,
                semantics,
                query,
            })
        }
        "PROFILE" => {
            let (name, semantics, query) = parse_eval_shape(rest, "PROFILE")?;
            Ok(Command::Profile {
                name,
                semantics,
                query,
            })
        }
        "STATS" => {
            if rest.is_empty() {
                Ok(Command::Stats)
            } else {
                Err(err("STATS takes no arguments"))
            }
        }
        "METRICS" => {
            if rest.is_empty() {
                Ok(Command::Metrics)
            } else if rest.eq_ignore_ascii_case("RESET") {
                Ok(Command::MetricsReset)
            } else {
                Err(err(
                    "METRICS takes no arguments (except the RESET subcommand)",
                ))
            }
        }
        "TOP" => {
            if rest.is_empty() {
                Ok(Command::Top)
            } else {
                Err(err("TOP takes no arguments"))
            }
        }
        "QUIT" => Ok(Command::Quit),
        other => Err(err(format!(
            "unknown command `{other}` (expected LOAD, PREPARE, EVAL, EXPLAIN, ANALYZE, TRACE, \
             PROFILE, STATS, METRICS, TOP or QUIT)"
        ))),
    }
}

/// Parses the shared `<name> <semantics> <query>` tail of `EVAL`/`EXPLAIN`.
fn parse_eval_shape(rest: &str, verb: &str) -> Result<(String, String, String), WireError> {
    let usage = || err(format!("usage: {verb} <name> <semantics> <query>"));
    let (name, tail) = rest.split_once(char::is_whitespace).ok_or_else(usage)?;
    let (semantics, query) = tail
        .trim()
        .split_once(char::is_whitespace)
        .ok_or_else(usage)?;
    Ok((
        valid_name(name)?,
        semantics.to_string(),
        query.trim().to_string(),
    ))
}

fn valid_name(name: &str) -> Result<String, WireError> {
    if !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
    {
        Ok(name.to_string())
    } else {
        Err(err(format!(
            "invalid instance name `{name}` (alphanumeric, `_` and `-` only)"
        )))
    }
}

/// Splits `text` at every `sep` occurring **outside** single-quoted runs, so
/// quoted string constants may contain the grammar's own separators. Quote
/// doubling (`''`) toggles out and straight back in, which is exactly what a
/// literal quote needs.
fn split_outside_quotes(text: &str, sep: char) -> Vec<&str> {
    let mut parts = Vec::new();
    let mut start = 0;
    let mut in_quotes = false;
    for (i, ch) in text.char_indices() {
        if ch == '\'' {
            in_quotes = !in_quotes;
        } else if ch == sep && !in_quotes {
            parts.push(&text[start..i]);
            start = i + sep.len_utf8();
        }
    }
    parts.push(&text[start..]);
    parts
}

/// Parses the `facts` payload of a `LOAD` command.
pub fn parse_instance(text: &str) -> Result<Instance, WireError> {
    let mut instance = Instance::new();
    if text == "-" || text.is_empty() {
        return Ok(instance);
    }
    for fact in split_outside_quotes(text, ';') {
        let fact = fact.trim();
        if fact.is_empty() {
            continue;
        }
        let open = fact
            .find('(')
            .ok_or_else(|| err(format!("fact `{fact}` is missing `(`")))?;
        let close = fact
            .rfind(')')
            .filter(|&i| i == fact.len() - 1 && i > open)
            .ok_or_else(|| err(format!("fact `{fact}` must end with `)`")))?;
        let relation = fact[..open].trim();
        if relation.is_empty()
            || !relation
                .chars()
                .all(|ch| ch.is_ascii_alphanumeric() || ch == '_')
        {
            return Err(err(format!(
                "fact `{fact}` needs an alphanumeric relation name"
            )));
        }
        let body = fact[open + 1..close].trim();
        let values = if body.is_empty() {
            Vec::new()
        } else {
            split_outside_quotes(body, ',')
                .into_iter()
                .map(|v| parse_value(v.trim()))
                .collect::<Result<Vec<_>, _>>()?
        };
        instance
            .add_tuple(relation, Tuple::new(values))
            .map_err(|e| err(format!("fact `{fact}`: {e}")))?;
    }
    Ok(instance)
}

/// Parses one wire value: `?N` is a null, an integer literal is an `Int`
/// constant, a bare symbol is a `Str` constant, and a single-quoted string
/// (`'…'`, a literal quote written doubled as `''`) is a `Str` constant
/// verbatim — the quoted form covers strings that would otherwise be ambiguous
/// (`'7'` is the *string* 7) or unparseable as bare symbols (`'a b'`, `'a;b'`).
pub fn parse_value(text: &str) -> Result<Value, WireError> {
    if let Some(null) = text.strip_prefix('?') {
        let id: u32 = null
            .parse()
            .map_err(|_| err(format!("invalid null `{text}` (expected ?N)")))?;
        return Ok(Value::null(id));
    }
    if let Some(quoted) = text.strip_prefix('\'') {
        let mut inner = String::with_capacity(quoted.len());
        let mut chars = quoted.chars().peekable();
        let mut closed = false;
        while let Some(c) = chars.next() {
            if c != '\'' {
                inner.push(c);
            } else if chars.peek() == Some(&'\'') {
                chars.next();
                inner.push('\'');
            } else {
                closed = true;
                break;
            }
        }
        if !closed {
            return Err(err(format!("unterminated quoted value `{text}`")));
        }
        if chars.next().is_some() {
            return Err(err(format!(
                "quoted value `{text}` has trailing characters after the closing quote"
            )));
        }
        return Ok(Value::str(inner));
    }
    if let Ok(i) = text.parse::<i64>() {
        return Ok(Value::int(i));
    }
    if is_bare_symbol(text) {
        return Ok(Value::str(text));
    }
    Err(err(format!(
        "invalid value `{text}` (integer, ?N null, bare symbol, or 'quoted string')"
    )))
}

/// A string that parses back as the same `Str` constant when rendered bare: made
/// of symbol characters and not mistakable for an integer or a null.
fn is_bare_symbol(text: &str) -> bool {
    !text.is_empty()
        && text
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-')
        && text.parse::<i64>().is_err()
        && !text.starts_with('?')
}

/// Renders an instance in the `facts` wire syntax; canonical (sorted relations,
/// sorted tuples) and round-trips through [`parse_instance`].
pub fn render_instance(instance: &Instance) -> String {
    let mut facts = Vec::new();
    for relation in instance.relations() {
        for tuple in relation.tuples() {
            facts.push(format!("{}({})", relation.name(), render_values(tuple)));
        }
    }
    if facts.is_empty() {
        "-".to_string()
    } else {
        facts.join(";")
    }
}

fn render_values(tuple: &Tuple) -> String {
    tuple
        .values()
        .iter()
        .map(render_value)
        .collect::<Vec<_>>()
        .join(",")
}

fn render_value(value: &Value) -> String {
    match value {
        Value::Null(n) => format!("?{}", n.index()),
        Value::Const(c) => {
            let rendered = c.to_string();
            // Quote any Str constant the bare syntax would misread — one that
            // looks like an integer (`"7"`), a null, or contains non-symbol
            // characters (separators and quotes included) — doubling embedded
            // quotes, so rendering always round-trips through `parse_value`
            // and the quote-aware fact splitting. Int constants render bare.
            if c.as_str().is_some() && !is_bare_symbol(&rendered) {
                format!("'{}'", rendered.replace('\'', "''"))
            } else {
                rendered
            }
        }
    }
}

/// Renders an answer set canonically: `{}`, `{()}`, or `{(1,4),(2,paris)}` — the
/// `BTreeSet` order makes equal sets byte-identical.
pub fn render_answers(answers: &BTreeSet<Tuple>) -> String {
    let tuples: Vec<String> = answers
        .iter()
        .map(|t| format!("({})", render_values(t)))
        .collect();
    format!("{{{}}}", tuples.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nev_incomplete::builder::{c, x};
    use nev_incomplete::inst;
    use proptest::prelude::*;

    #[test]
    fn commands_parse() {
        assert_eq!(
            parse_command("LOAD d0 D(?1,?2);D(?2,?1)"),
            Ok(Command::Load {
                name: "d0".into(),
                instance: inst! { "D" => [[x(1), x(2)], [x(2), x(1)]] },
            })
        );
        assert_eq!(
            parse_command("EVAL d0 owa forall u . exists v . D(u, v)"),
            Ok(Command::Eval {
                name: "d0".into(),
                semantics: "owa".into(),
                query: "forall u . exists v . D(u, v)".into(),
            })
        );
        assert_eq!(
            parse_command("  prepare exists u . R(u)"),
            Ok(Command::Prepare {
                query: "exists u . R(u)".into(),
            })
        );
        assert_eq!(parse_command("STATS"), Ok(Command::Stats));
        assert_eq!(parse_command("METRICS"), Ok(Command::Metrics));
        assert_eq!(parse_command("METRICS RESET"), Ok(Command::MetricsReset));
        assert_eq!(parse_command("metrics reset"), Ok(Command::MetricsReset));
        assert_eq!(parse_command("TOP"), Ok(Command::Top));
        assert_eq!(parse_command("quit"), Ok(Command::Quit));
        assert_eq!(
            parse_command("PROFILE d0 owa exists u . R(u)"),
            Ok(Command::Profile {
                name: "d0".into(),
                semantics: "owa".into(),
                query: "exists u . R(u)".into(),
            })
        );
        assert_eq!(
            parse_command("TRACE d0 owa exists u . R(u)"),
            Ok(Command::Trace {
                name: "d0".into(),
                semantics: "owa".into(),
                query: "exists u . R(u)".into(),
            })
        );
        assert_eq!(
            parse_command("EXPLAIN d0 cwa exists u . R(u)"),
            Ok(Command::Explain {
                name: "d0".into(),
                semantics: "cwa".into(),
                query: "exists u . R(u)".into(),
            })
        );
        assert_eq!(
            parse_command("ANALYZE d0 cwa !(!(exists u . R(u)))"),
            Ok(Command::Analyze {
                name: "d0".into(),
                semantics: "cwa".into(),
                query: "!(!(exists u . R(u)))".into(),
            })
        );
    }

    #[test]
    fn malformed_commands_are_rejected_with_usage_hints() {
        for (line, needle) in [
            ("LOAD onlyname", "usage: LOAD"),
            ("EVAL d0 owa", "usage: EVAL"),
            ("EXPLAIN d0 owa", "usage: EXPLAIN"),
            ("ANALYZE d0 owa", "usage: ANALYZE"),
            ("PREPARE", "usage: PREPARE"),
            ("TRACE d0 owa", "usage: TRACE"),
            ("PROFILE d0 owa", "usage: PROFILE"),
            ("STATS now", "no arguments"),
            ("METRICS please", "no arguments"),
            ("METRICS RESET now", "no arguments"),
            ("TOP of the morning", "no arguments"),
            ("FROBNICATE", "unknown command"),
            ("LOAD bad!name R(1)", "invalid instance name"),
        ] {
            let e = parse_command(line).unwrap_err();
            assert!(e.to_string().contains(needle), "{line}: {e}");
        }
    }

    #[test]
    fn instances_round_trip() {
        let d = inst! {
            "R" => [[c(1), x(1)], [x(2), x(3)]],
            "S" => [[x(1), c(4)], [x(3), c(5)]],
        };
        let wire = render_instance(&d);
        assert_eq!(parse_instance(&wire), Ok(d));
        // The empty instance renders as `-`.
        assert_eq!(render_instance(&Instance::new()), "-");
        assert_eq!(parse_instance("-"), Ok(Instance::new()));
    }

    #[test]
    fn string_constants_and_negative_integers_parse() {
        assert_eq!(parse_value("paris"), Ok(Value::str("paris")));
        assert_eq!(parse_value("-7"), Ok(Value::int(-7)));
        assert_eq!(parse_value("?12"), Ok(Value::null(12)));
        assert!(parse_value("a b").is_err());
        assert!(parse_value("?x").is_err());
        assert!(parse_value("").is_err());
        // The quoted form keeps string-typed values distinct from their lookalikes.
        assert_eq!(parse_value("'7'"), Ok(Value::str("7")));
        assert_eq!(parse_value("'a b'"), Ok(Value::str("a b")));
        assert_eq!(parse_value("'?1'"), Ok(Value::str("?1")));
        assert!(parse_value("'oops").is_err());
        assert!(parse_value("'a'b'").is_err());
        // Doubled quotes decode to literal quotes; stray ones stay errors.
        assert_eq!(parse_value("''"), Ok(Value::str("")));
        assert_eq!(parse_value("''''"), Ok(Value::str("'")));
        assert_eq!(parse_value("'it''s'"), Ok(Value::str("it's")));
        assert!(parse_value("'''").is_err());
    }

    #[test]
    fn separators_and_quotes_inside_strings_round_trip() {
        // `;` and `,` are the facts grammar's own separators, `)` closes facts,
        // and `'` is the quote itself: all of them previously broke the
        // byte-identical round trip when they appeared inside a string constant.
        let mut d = Instance::new();
        for (i, s) in ["a;b", "a,b", "it's", "a)b", "(", "';'", "R(1)", ""]
            .into_iter()
            .enumerate()
        {
            d.add_tuple("R", Tuple::new(vec![Value::int(i as i64), Value::str(s)]))
                .unwrap();
        }
        let wire = render_instance(&d);
        assert_eq!(parse_instance(&wire), Ok(d));
    }

    #[test]
    fn ambiguous_string_constants_round_trip_quoted() {
        use nev_incomplete::Tuple;
        // Str("7") ≠ Int(7); the wire form must preserve the distinction, and
        // whitespace-bearing strings must render to something parseable.
        let mut d = Instance::new();
        d.add_tuple(
            "R",
            Tuple::new(vec![Value::str("7"), Value::int(7), Value::str("a b")]),
        )
        .unwrap();
        let wire = render_instance(&d);
        assert_eq!(wire, "R('7',7,'a b')");
        assert_eq!(parse_instance(&wire), Ok(d));
    }

    /// A deterministic splitmix64 step (no dev-dependency on `rand` here).
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A seeded instance over adversarial values: string constants drawn from
    /// the grammar's own separator/quote/lookalike characters, integer
    /// constants (negative and zero included) and labelled nulls.
    fn adversarial_instance(seed: u64) -> Instance {
        const ALPHABET: &[char] = &[
            '\'', ';', ',', '(', ')', '?', '-', '0', '7', 'a', 'B', '_', ' ', '.', '!', '=',
        ];
        let mut state = seed;
        let mut d = Instance::new();
        let relations = [("R", 1usize), ("S", 2), ("T_0", 3)];
        let facts = 1 + (splitmix(&mut state) % 6) as usize;
        for _ in 0..facts {
            let (name, arity) = relations[(splitmix(&mut state) % 3) as usize];
            let values: Vec<Value> = (0..arity)
                .map(|_| match splitmix(&mut state) % 4 {
                    0 => Value::null((splitmix(&mut state) % 5) as u32 + 1),
                    1 => Value::int(splitmix(&mut state) as i64 % 100),
                    _ => {
                        let len = (splitmix(&mut state) % 6) as usize;
                        let s: String = (0..len)
                            .map(|_| ALPHABET[(splitmix(&mut state) % 16) as usize])
                            .collect();
                        Value::str(s)
                    }
                })
                .collect();
            d.add_tuple(name, Tuple::new(values)).unwrap();
        }
        d
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, .. ProptestConfig::default() })]

        /// The canonical-rendering round trip the self-check relies on:
        /// `parse_instance(render_instance(d)) == d`, byte-exactly in value
        /// structure, over adversarial symbols (separators, quotes, integer
        /// and null lookalikes, whitespace, empty strings).
        #[test]
        fn rendering_round_trips_adversarial_instances(seed in 0u64..1_000_000) {
            let d = adversarial_instance(seed);
            let wire = render_instance(&d);
            prop_assert_eq!(parse_instance(&wire), Ok(d));
        }
    }

    /// Characters the request and facts grammars give meaning to, so sampled
    /// lines reach past the verb into the fact, value and quote parsers.
    const GRAMMAR_BYTES: &[u8] = b"LOADEVR() ;,'?-_19az\t\xc3\xa9";

    /// Both parsers answer `Ok` or a typed `WireError` on `line`: a panic
    /// fails the calling test.
    fn parses_without_panicking(line: &str) {
        let _: Result<Command, WireError> = parse_command(line);
        let _: Result<Instance, WireError> = parse_instance(line);
        for verb in ["LOAD d ", "EVAL d owa ", "METRICS "] {
            let _: Result<Command, WireError> = parse_command(&format!("{verb}{line}"));
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 512, .. ProptestConfig::default() })]

        /// Hostile input gets a typed error, never a panic: arbitrary bytes,
        /// decoded lossily the way a connection's line would be.
        #[test]
        fn arbitrary_bytes_never_panic_the_parsers(
            bytes in proptest::collection::vec(0u8..=255, 0..256)
        ) {
            parses_without_panicking(&String::from_utf8_lossy(&bytes));
        }

        /// The same over lines drawn from the grammar's own characters, which
        /// arbitrary bytes reach only rarely.
        #[test]
        fn grammar_shaped_bytes_never_panic_the_parsers(
            picks in proptest::collection::vec(0usize..GRAMMAR_BYTES.len(), 0..64)
        ) {
            let bytes: Vec<u8> = picks.iter().map(|&i| GRAMMAR_BYTES[i]).collect();
            parses_without_panicking(&String::from_utf8_lossy(&bytes));
        }
    }

    #[test]
    fn arity_mismatches_are_wire_errors() {
        let e = parse_instance("R(1,2);R(3)").unwrap_err();
        assert!(e.to_string().contains("R(3)"), "{e}");
    }

    #[test]
    fn answers_render_canonically() {
        let mut answers = BTreeSet::new();
        assert_eq!(render_answers(&answers), "{}");
        answers.insert(Tuple::new(vec![]));
        assert_eq!(render_answers(&answers), "{()}");
        let mut kary = BTreeSet::new();
        kary.insert(Tuple::new(vec![c(2), Value::str("paris")]));
        kary.insert(Tuple::new(vec![c(1), c(4)]));
        assert_eq!(render_answers(&kary), "{(1,4),(2,paris)}");
    }
}
