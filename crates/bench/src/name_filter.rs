//! The `--filter` selector of `all_figures` and `bless`: `|`-separated
//! literal names, each optionally anchored with a leading `^` and/or a
//! trailing `$`. `'^fig10$|^table1$'` selects exactly those two names.

/// Per alternative: `(anchored at start, literal, anchored at end)`.
#[derive(Debug, Clone)]
pub struct NameFilter(Vec<(bool, String, bool)>);

impl NameFilter {
    /// Parses `pattern`.
    ///
    /// # Errors
    ///
    /// A one-line usage message when an alternative is empty or holds a
    /// regex metacharacter other than its own anchors.
    pub fn new(pattern: &str) -> Result<Self, String> {
        let alt = |a: &str| {
            let (start, a) = a.strip_prefix('^').map_or((false, a), |r| (true, r));
            let (lit, end) = a.strip_suffix('$').map_or((a, false), |l| (l, true));
            if lit.is_empty() || lit.contains(|c| "()[]{}.*+?\\^$".contains(c)) {
                return Err(format!(
                    "bad --filter `{pattern}`: each `|` alternative must be a literal name, \
                     optionally anchored as `^name`, `name$` or `^name$`"
                ));
            }
            Ok((start, lit.to_string(), end))
        };
        Ok(Self(pattern.split('|').map(alt).collect::<Result<_, _>>()?))
    }

    /// Whether any alternative matches `name`.
    pub fn is_match(&self, name: &str) -> bool {
        self.0.iter().any(|(start, lit, end)| match (start, end) {
            (true, true) => name == lit,
            (true, false) => name.starts_with(lit.as_str()),
            (false, true) => name.ends_with(lit.as_str()),
            (false, false) => name.contains(lit.as_str()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::NameFilter;

    fn select<'a>(pattern: &str, names: &[&'a str]) -> Vec<&'a str> {
        let f = NameFilter::new(pattern).unwrap();
        names.iter().copied().filter(|n| f.is_match(n)).collect()
    }

    // The sets are what the regex engine this selector replaced picked
    // for every pattern the repo's CI, docs and devtools use.
    #[test]
    fn selects_what_the_repo_patterns_selected() {
        let reg: Vec<&str> = crate::figures::registry().iter().map(|f| f.name).collect();
        let ci = ["fig10", "table1", "table2", "features"];
        let six = ["fig10", "fig11", "fig12", "fig13", "fig14", "fig15"];
        let cases: [(&str, &[&str]); 3] = [
            ("fig10|^table|features", &ci),
            ("^fig10$|^table1$", &["fig10", "table1"]),
            ("fig10|fig11|fig12|fig13|fig14|fig15", &six),
        ];
        for (pattern, want) in cases {
            assert_eq!(select(pattern, &reg), want, "{pattern}");
        }
        let fixtures = ["golden_sweep", "golden_evict_train", "golden_multicore"];
        assert_eq!(select("evict", &fixtures), ["golden_evict_train"]);
        assert_eq!(select("_sweep$", &fixtures), ["golden_sweep"]);
        assert!(select("^golden$|^evict|evict$", &fixtures).is_empty());
        for name in &reg {
            assert_eq!(select(&format!("^{name}$"), &reg), [*name]);
        }
    }

    #[test]
    fn regex_syntax_is_a_usage_error() {
        for bad in ["(open", "fig1[0-5]", r"fig\d+", "a*", "fig10|", "^$", "a^b"] {
            assert!(NameFilter::new(bad).is_err(), "{bad} accepted");
        }
        for c in "()[]{}.*+?\\".chars() {
            assert!(NameFilter::new(&format!("fig{c}")).is_err(), "{c} accepted");
        }
    }
}
