//! The `ROLE --flag value …` command line shared by the `kdom-serve` and
//! `kdom-shard` binaries. Each binary includes this file as a module
//! (`#[path]`), so it is no part of the library and no binary of its own.

/// A parsed command line: the role word, then `--name value` pairs.
pub struct Args {
    pub role: String,
    flags: Vec<(String, String)>,
}

impl Args {
    /// Parses the process arguments; `roles` lists the accepted role
    /// words for the error when none is given.
    pub fn parse(roles: &str) -> Result<Self, String> {
        let mut it = std::env::args().skip(1);
        let role = it.next().ok_or_else(|| format!("missing role: {roles}"))?;
        let mut flags = Vec::new();
        while let Some(flag) = it.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got {flag:?}"))?;
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            flags.push((name.to_string(), value));
        }
        Ok(Args { role, flags })
    }

    /// The value of `--name`, if given.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The value of `--name`, or an error naming the missing flag.
    pub fn require(&self, name: &str) -> Result<&str, String> {
        self.get(name)
            .ok_or_else(|| format!("--{name} is required"))
    }

    /// The parsed value of `--name`, or `default` when it is not given.
    pub fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|e| format!("--{name} {v:?} did not parse: {e}")),
        }
    }
}
