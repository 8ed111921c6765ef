//! Minimal `--flag value` argument parsing (the allowed dependency set has
//! no CLI crate, and the surface is small enough not to need one).

use std::collections::HashMap;
use std::str::FromStr;

/// Parsed arguments: `--key value` pairs plus positional arguments.
#[derive(Debug, Default)]
pub struct Args {
    flags: HashMap<String, String>,
    /// Non-flag arguments in order (trace paths).
    pub positional: Vec<String>,
}

impl Args {
    /// Parses `argv` (without the command word).
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut args = Args::default();
        let mut i = 0;
        while i < argv.len() {
            let token = &argv[i];
            if let Some(key) = token.strip_prefix("--") {
                let value = argv
                    .get(i + 1)
                    .ok_or_else(|| format!("--{key} expects a value"))?;
                if value.starts_with("--") {
                    return Err(format!("--{key} expects a value, got `{value}`"));
                }
                args.flags.insert(key.to_string(), value.clone());
                i += 2;
            } else {
                args.positional.push(token.clone());
                i += 1;
            }
        }
        Ok(args)
    }

    /// Refuses any flag outside the `known` lists: a misspelt or
    /// inapplicable flag is an error of `command`, not a setting it silently
    /// runs without. With several, the alphabetically first is named.
    pub fn expect_flags(&self, command: &str, known: &[&[&str]]) -> Result<(), String> {
        let unknown = self
            .flags
            .keys()
            .filter(|flag| !known.iter().any(|list| list.contains(&flag.as_str())))
            .min();
        match unknown {
            Some(flag) => Err(format!("unknown flag --{flag} for {command}")),
            None => Ok(()),
        }
    }

    /// Raw flag value.
    pub fn get(&self, key: &str) -> Option<&String> {
        self.flags.get(key)
    }

    /// Parsed flag value, `Ok(None)` when absent.
    pub fn get_parse<T: FromStr>(&self, key: &str) -> Result<Option<T>, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.flags.get(key) {
            None => Ok(None),
            Some(raw) => raw
                .parse()
                .map(Some)
                .map_err(|e| format!("--{key} {raw}: {e}")),
        }
    }
}

/// Parses a byte size: raw integer or `KB`/`MB`/`GB`/`TB` suffix (powers of
/// 10, case-insensitive, optional fractional part like `1.5GB`).
pub fn parse_size(raw: &str) -> Result<u64, String> {
    // A plain integer is read as written: all 64 bits of a byte count,
    // where an f64 holds 53.
    if let Ok(bytes @ 1..) = raw.trim().parse::<u64>() {
        return Ok(bytes);
    }
    let lower = raw.trim().to_ascii_lowercase();
    let (digits, multiplier) = if let Some(d) = lower.strip_suffix("tb") {
        (d, 1e12)
    } else if let Some(d) = lower.strip_suffix("gb") {
        (d, 1e9)
    } else if let Some(d) = lower.strip_suffix("mb") {
        (d, 1e6)
    } else if let Some(d) = lower.strip_suffix("kb") {
        (d, 1e3)
    } else {
        (lower.as_str(), 1.0)
    };
    let value: f64 = digits
        .trim()
        .parse()
        .map_err(|_| format!("bad size `{raw}`"))?;
    // NaN must be rejected alongside non-positive values.
    if value.is_nan() || value <= 0.0 {
        return Err(format!("size must be positive: `{raw}`"));
    }
    // `as u64` saturates: `inf` and `1e30TB` would both run as u64::MAX
    // bytes. (`u64::MAX as f64` rounds up to 2^64, the first value out.)
    let bytes = value * multiplier;
    if bytes >= u64::MAX as f64 {
        return Err(format!("size does not fit a byte count: `{raw}`"));
    }
    // The cast truncates: `0.5` or `0.0001KB` would be a 0-byte cache.
    if bytes < 1.0 {
        return Err(format!("size is under one byte: `{raw}`"));
    }
    Ok(bytes as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_flags_and_positionals() {
        let a = Args::parse(&argv(&["--capacity", "1GB", "trace.csv", "--seed", "7"])).unwrap();
        assert_eq!(a.get("capacity").unwrap(), "1GB");
        assert_eq!(a.get_parse::<u64>("seed").unwrap(), Some(7));
        assert_eq!(a.positional, vec!["trace.csv"]);
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(Args::parse(&argv(&["--seed"])).is_err());
        assert!(Args::parse(&argv(&["--seed", "--out"])).is_err());
    }

    #[test]
    fn absent_flag_parses_to_none() {
        let a = Args::parse(&argv(&[])).unwrap();
        assert_eq!(a.get_parse::<u64>("seed").unwrap(), None);
    }

    #[test]
    fn sizes() {
        assert_eq!(parse_size("1024").unwrap(), 1024);
        assert_eq!(parse_size("1KB").unwrap(), 1_000);
        assert_eq!(parse_size("512mb").unwrap(), 512_000_000);
        assert_eq!(parse_size("1.5GB").unwrap(), 1_500_000_000);
        assert_eq!(parse_size("2TB").unwrap(), 2_000_000_000_000);
        assert!(parse_size("abc").is_err());
        assert!(parse_size("-1GB").is_err());
        assert!(parse_size("0").is_err());
        for raw in ["0.5", "0.999", "0.0001KB", "1e-7MB"] {
            let err = parse_size(raw).expect_err(raw);
            assert!(err.contains("under one byte") && err.contains(raw), "{err}");
        }
        assert_eq!(parse_size("1.5").unwrap(), 1);
        assert_eq!(parse_size("0.001KB").unwrap(), 1);
    }

    #[test]
    fn sizes_that_do_not_fit_a_byte_count_are_refused_not_saturated() {
        for raw in ["inf", "infTB", "1e30TB", "1e400", "18446744073709551616"] {
            let err = parse_size(raw).expect_err(raw);
            assert!(err.contains("does not fit") && err.contains(raw), "{err}");
        }
        assert!(parse_size("-inf").is_err());
        assert!(parse_size("nan").is_err());
        // The largest f64 below 2^64 still converts exactly.
        assert_eq!(
            parse_size("18446744073709549568").unwrap(),
            18_446_744_073_709_549_568
        );
        assert_eq!(
            parse_size("16000000TB").unwrap(),
            16_000_000_000_000_000_000
        );
        // A plain integer converts exactly, past 2^53 and up to u64::MAX.
        assert_eq!(parse_size("9007199254740993").unwrap(), (1 << 53) + 1);
        assert_eq!(parse_size("18446744073709551614").unwrap(), u64::MAX - 1);
        assert_eq!(parse_size("18446744073709551615").unwrap(), u64::MAX);
    }

    #[test]
    fn flags_outside_the_known_lists_are_refused_by_name() {
        let a = Args::parse(&argv(&["--warmpu", "5", "--capacity", "1GB", "t.csv"])).unwrap();
        assert!(a
            .expect_flags("simulate", &[&["capacity"], &["warmpu"]])
            .is_ok());
        assert_eq!(
            a.expect_flags("simulate", &[&["capacity", "warmup"]]),
            Err("unknown flag --warmpu for simulate".to_string())
        );
        // Several unknown flags: the alphabetically first, whatever the
        // map's iteration order.
        assert_eq!(
            a.expect_flags("stats", &[]),
            Err("unknown flag --capacity for stats".to_string())
        );
    }
}
