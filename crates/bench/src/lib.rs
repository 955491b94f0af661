//! Experiment harnesses reproducing every table/figure-level result the
//! survey reports (DESIGN.md §3 index). Each experiment lives in
//! [`experiments`] as a function returning a [`report::Report`] and is
//! listed once, in [`experiments::all`]. The `experiment` binary prints
//! the reports of the experiments named on its command line
//! (`cargo run -p bench --release --bin experiment -- e06`), and
//! `run_all` regenerates EXPERIMENTS.md.

pub mod report;
pub mod toolkits;

/// The experiment harnesses, one module per DESIGN.md §3 experiment.
pub mod experiments {
    use crate::report::Report;

    /// One experiment: its module name and its harness.
    #[derive(Debug, Clone, Copy)]
    pub struct Experiment {
        /// Module name, e.g. `e06_lin`; its id prefix (`e06`) is the
        /// report's id.
        pub name: &'static str,
        /// Runs the experiment and returns its report.
        pub run: fn() -> Report,
    }

    /// Declares each experiment's module and lists it, in the given
    /// order, in [`all`].
    macro_rules! experiments {
        ($($name:ident),+ $(,)?) => {
            $(pub mod $name;)+

            /// Every experiment in DESIGN.md §3 order, the order
            /// `run_all` writes EXPERIMENTS.md in.
            pub fn all() -> &'static [Experiment] {
                &[$(Experiment { name: stringify!($name), run: $name::run }),+]
            }
        };
    }

    experiments! {
        e01_aitzai,
        e02_somani,
        e03_mui,
        e04_akhshabi,
        e05_tamaki,
        e06_lin,
        e07_huang,
        e08_zajicek,
        e09_park,
        e10_asadzadeh,
        e11_gu,
        e12_spanos,
        e13_bozejko,
        e14_kokosinski,
        e15_harmanani,
        e16_defersha_lots,
        e17_defersha_sdst,
        e18_belkadi,
        e19_rashidi,
        f01_matrix,
        g01_generated,
        d01_decoder,
        a01_migration,
        a02_decoders,
        a03_regimes,
        x01_energy,
        x02_dynamic,
        x03_session,
        o01_overhead,
    }

    /// Resolves command-line names to experiments, in the given order.
    /// A name selects the one experiment whose module name starts with
    /// it, so both `e06_lin` and its id prefix `e06` pick E06. No name,
    /// an unknown name or an ambiguous one (`e1`) is an error that lists
    /// every experiment's name.
    pub fn select<S: AsRef<str>>(names: &[S]) -> Result<Vec<Experiment>, String> {
        let listing = || {
            let names: Vec<&str> = all().iter().map(|e| e.name).collect();
            format!("the experiments are: {}", names.join(" "))
        };
        if names.is_empty() {
            return Err(format!("name at least one experiment; {}", listing()));
        }
        names
            .iter()
            .map(|name| {
                let name = name.as_ref();
                let mut hits = all().iter().filter(|e| e.name.starts_with(name));
                match (hits.next(), hits.next()) {
                    (Some(&e), None) => Ok(e),
                    (None, _) => Err(format!("unknown experiment `{name}`; {}", listing())),
                    (Some(_), Some(_)) => {
                        Err(format!("ambiguous experiment `{name}`; {}", listing()))
                    }
                }
            })
            .collect()
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        fn ids() -> Vec<&'static str> {
            all().iter().map(|e| &e.name[..3]).collect()
        }

        #[test]
        fn names_are_unique_and_each_resolves_by_name_and_id() {
            for e in all() {
                assert_eq!(all().iter().filter(|o| o.name == e.name).count(), 1);
                for name in [e.name, &e.name[..3]] {
                    let got = select(&[name]).unwrap();
                    assert_eq!(got.len(), 1);
                    assert_eq!(got[0].name, e.name, "`{name}` picked {}", got[0].name);
                }
            }
            let picked: Vec<&str> = select(&["x02", "e04_akhshabi", "x02"])
                .unwrap()
                .iter()
                .map(|e| e.name)
                .collect();
            assert_eq!(picked, ["x02_dynamic", "e04_akhshabi", "x02_dynamic"]);
        }

        #[test]
        fn unknown_ambiguous_or_missing_names_are_errors_listing_every_name() {
            let none: [&str; 0] = [];
            for bad in [&["nope"][..], &["e1"], &[""], &["e04", "E04"], &none] {
                let err = select(bad).unwrap_err();
                for e in all() {
                    assert!(err.contains(e.name), "{err}");
                }
            }
            assert!(select(&["nope"]).unwrap_err().starts_with("unknown"));
            assert!(select(&["e1"]).unwrap_err().starts_with("ambiguous"));
        }

        #[test]
        fn list_is_in_design_index_and_experiments_md_order() {
            // DESIGN.md §3's table rows (`a01–a03` spans three ids).
            let design = include_str!("../../../DESIGN.md");
            let index = design
                .split("\n## §3 ")
                .nth(1)
                .and_then(|s| s.split("\n## ").next())
                .unwrap();
            let mut design_ids = Vec::new();
            for row in index.lines().filter_map(|l| l.strip_prefix("| ")) {
                let cell = row.split(" |").next().unwrap();
                if let Some((lo, hi)) = cell.split_once('–') {
                    let (class, lo) = lo.split_at(1);
                    let hi = &hi[1..];
                    for n in lo.parse::<u32>().unwrap()..=hi.parse().unwrap() {
                        design_ids.push(format!("{class}{n:02}"));
                    }
                } else if cell.len() == 3 && cell.as_bytes()[1].is_ascii_digit() {
                    design_ids.push(cell.to_string());
                }
            }
            assert_eq!(design_ids, ids());

            // EXPERIMENTS.md's sections, as `run_all` last wrote them.
            let md = include_str!("../../../EXPERIMENTS.md");
            let md_ids: Vec<String> = md
                .lines()
                .filter_map(|l| l.strip_prefix("## "))
                .map(|l| l.split(' ').next().unwrap().to_lowercase())
                .collect();
            assert_eq!(md_ids, ids());
        }
    }
}
