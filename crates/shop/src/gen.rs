//! Seeded, parameterized random-instance generation for all four shop
//! families, behind one uniform facade.
//!
//! [`instance::generate`](crate::instance::generate) holds the raw
//! per-family generator functions; this module packages them as a
//! *workload engine*: a [`GenSpec`] names a family, dimensions, a seed
//! and the family's knobs, and [`GenSpec::build`] mints a named
//! [`Generated`] instance. The contract (DESIGN.md §6):
//!
//! * **Determinism** — the same spec yields a bit-identical instance
//!   (and therefore an equal [`CanonicalHash`]) on every platform; all
//!   randomness flows from a `ChaCha8Rng` seeded by `spec.seed`.
//! * **Round-trip** — every generated instance serialises through the
//!   `instance::parse` text writers and parses back equal, so inline
//!   wire delivery, files on disk and in-process generation all hash to
//!   the same solution-cache key.
//! * **Names** — [`GenSpec::name`] renders a canonical name like
//!   `gen-job-10x5-s42` and [`GenSpec::from_name`] parses it back, so a
//!   generated instance can be requested *by name* (the solver service
//!   resolves `gen-*` names on the fly, next to the embedded classics).
//!
//! ```
//! use shop::gen::{Family, GenSpec};
//!
//! let spec = GenSpec::new(Family::Job, 10, 5, 42);
//! let a = spec.build().unwrap();
//! let b = GenSpec::from_name(&spec.name()).unwrap().build().unwrap();
//! assert_eq!(a.instance.canonical_hash(), b.instance.canonical_hash());
//! assert_eq!(a.name, "gen-job-10x5-s42");
//! ```

use crate::instance::generate::{
    flexible_job_shop, flow_shop_taillard, job_shop_uniform, open_shop_uniform, GenConfig,
};
use crate::instance::{
    classic, parse, CanonicalHash, FlexibleInstance, FlowShopInstance, JobShopInstance,
    OpenShopInstance,
};
use crate::schedule::Schedule;
use crate::{Problem, ShopError, ShopResult, Time};

/// The four shop families of the survey's Section II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Family {
    /// Permutation flow shop: every job visits machines `0..m` in order.
    Flow,
    /// Job shop: per-job machine routes, fixed order.
    Job,
    /// Open shop: per-job machine set, free order.
    Open,
    /// Flexible job shop: each operation picks one of several eligible
    /// machines.
    Flexible,
}

impl Family {
    /// Every family, in declaration order: `ALL[f as usize] == f`.
    pub const ALL: [Family; 4] = [Family::Flow, Family::Job, Family::Open, Family::Flexible];

    /// Canonical lowercase tag (`flow` | `job` | `open` | `flexible`).
    pub fn name(&self) -> &'static str {
        match self {
            Family::Flow => "flow",
            Family::Job => "job",
            Family::Open => "open",
            Family::Flexible => "flexible",
        }
    }

    /// Parses a family tag; accepts `flex` as an alias for `flexible`.
    pub fn from_name(s: &str) -> Option<Self> {
        match s {
            "flow" => Some(Family::Flow),
            "job" => Some(Family::Job),
            "open" => Some(Family::Open),
            "flexible" | "flex" => Some(Family::Flexible),
            _ => None,
        }
    }
}

/// A problem instance of any family, with the family-generic operations
/// the serving and benching layers need: text round-trips, canonical
/// hashing, feasibility validation and `Problem` metadata access.
#[derive(Debug, Clone, PartialEq)]
pub enum AnyInstance {
    /// A permutation flow shop.
    Flow(FlowShopInstance),
    /// A job shop.
    Job(JobShopInstance),
    /// An open shop.
    Open(OpenShopInstance),
    /// A flexible job shop.
    Flexible(FlexibleInstance),
}

impl AnyInstance {
    /// The instance's family tag.
    pub fn family(&self) -> Family {
        match self {
            AnyInstance::Flow(_) => Family::Flow,
            AnyInstance::Job(_) => Family::Job,
            AnyInstance::Open(_) => Family::Open,
            AnyInstance::Flexible(_) => Family::Flexible,
        }
    }

    /// Parses instance text in the family's `instance::parse` format.
    pub fn parse(family: Family, text: &str) -> ShopResult<AnyInstance> {
        match family {
            Family::Flow => parse::parse_flow_shop(text).map(AnyInstance::Flow),
            Family::Job => parse::parse_job_shop(text).map(AnyInstance::Job),
            Family::Open => parse::parse_open_shop(text).map(AnyInstance::Open),
            Family::Flexible => parse::parse_flexible(text).map(AnyInstance::Flexible),
        }
    }

    /// Serialises the instance in its family's text format; parsing the
    /// result back with [`AnyInstance::parse`] yields an equal instance.
    pub fn text(&self) -> String {
        match self {
            AnyInstance::Flow(i) => parse::write_flow_shop(i),
            AnyInstance::Job(i) => parse::write_job_shop(i),
            AnyInstance::Open(i) => parse::write_open_shop(i),
            AnyInstance::Flexible(i) => parse::write_flexible(i),
        }
    }

    /// Resolves a name to an embedded classic benchmark or a `gen-*`
    /// generated instance, distinguishing "not a known name" from "a
    /// well-formed generated name with an invalid parameter space":
    /// `None` when the name is neither a classic nor in the `gen-*`
    /// grammar ([`GenSpec::from_name`]); `Some(Err(_))` when the
    /// grammar parsed but [`GenSpec::check`] rejected the parameters
    /// (the error is the descriptive one callers should surface).
    pub fn resolve_named(name: &str) -> Option<ShopResult<AnyInstance>> {
        let classic = match name {
            "ft06" => Some(AnyInstance::Job(classic::ft06().instance)),
            "ft10" => Some(AnyInstance::Job(classic::ft10().instance)),
            "ft20" => Some(AnyInstance::Job(classic::ft20().instance)),
            "la01" => Some(AnyInstance::Job(classic::la01().instance)),
            "flow05" => Some(AnyInstance::Flow(classic::flow05().0)),
            "open_latin3" => Some(AnyInstance::Open(classic::open_latin3().0)),
            "flex03" => Some(AnyInstance::Flexible(classic::flex03())),
            _ => None,
        };
        if let Some(inst) = classic {
            return Some(Ok(inst));
        }
        Some(GenSpec::from_name(name)?.build().map(|g| g.instance))
    }

    /// Convenience wrapper over [`AnyInstance::resolve_named`] that
    /// flattens both failure modes to `None` — use `resolve_named`
    /// when the caller needs to report *why* a generated name failed.
    pub fn named(name: &str) -> Option<AnyInstance> {
        AnyInstance::resolve_named(name)?.ok()
    }

    /// The instance behind its family-generic [`Problem`] metadata view.
    pub fn problem(&self) -> &dyn Problem {
        match self {
            AnyInstance::Flow(i) => i,
            AnyInstance::Job(i) => i,
            AnyInstance::Open(i) => i,
            AnyInstance::Flexible(i) => i,
        }
    }

    /// Canonical content hash (see [`crate::instance::hash`]) — the
    /// solution-cache key component.
    pub fn canonical_hash(&self) -> u64 {
        match self {
            AnyInstance::Flow(i) => i.canonical_hash(),
            AnyInstance::Job(i) => i.canonical_hash(),
            AnyInstance::Open(i) => i.canonical_hash(),
            AnyInstance::Flexible(i) => i.canonical_hash(),
        }
    }

    /// Total operation count over all jobs.
    pub fn total_ops(&self) -> usize {
        self.problem().total_ops()
    }

    /// Validates a schedule against the family's Table I conditions.
    pub fn validate(&self, schedule: &Schedule) -> ShopResult<()> {
        match self {
            AnyInstance::Flow(i) => schedule.validate_flow(i),
            AnyInstance::Job(i) => schedule.validate_job(i),
            AnyInstance::Open(i) => schedule.validate_open(i),
            AnyInstance::Flexible(i) => schedule.validate_flexible(i),
        }
    }

    /// A makespan no feasible schedule can beat — the early-exit target
    /// when minimising makespan.
    pub fn makespan_lower_bound(&self) -> Time {
        match self {
            AnyInstance::Flow(i) => i.makespan_lower_bound(),
            AnyInstance::Job(i) => i.makespan_lower_bound(),
            AnyInstance::Open(i) => i.makespan_lower_bound(),
            AnyInstance::Flexible(i) => i.makespan_lower_bound(),
        }
    }
}

impl std::fmt::Display for AnyInstance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.text())
    }
}

impl From<FlowShopInstance> for AnyInstance {
    fn from(i: FlowShopInstance) -> Self {
        AnyInstance::Flow(i)
    }
}

impl From<JobShopInstance> for AnyInstance {
    fn from(i: JobShopInstance) -> Self {
        AnyInstance::Job(i)
    }
}

impl From<OpenShopInstance> for AnyInstance {
    fn from(i: OpenShopInstance) -> Self {
        AnyInstance::Open(i)
    }
}

impl From<FlexibleInstance> for AnyInstance {
    fn from(i: FlexibleInstance) -> Self {
        AnyInstance::Flexible(i)
    }
}

/// Default processing-time range: Taillard's classic `U[1,99]`.
pub const DEFAULT_TIME_RANGE: (Time, Time) = (1, 99);

/// Default machine-subset density for flexible job shops, in percent:
/// each operation is eligible on up to half the machines.
pub const DEFAULT_DENSITY_PCT: u8 = 50;

/// A complete, self-describing recipe for one random instance: family,
/// dimensions, seed and the family's knobs. Two equal specs build
/// bit-identical instances (same canonical hash) on every platform.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GenSpec {
    /// Which shop family to generate.
    pub family: Family,
    /// Number of jobs `n` (≥ 1).
    pub jobs: usize,
    /// Number of machines `m` (≥ 1).
    pub machines: usize,
    /// Seed of the `ChaCha8Rng` all sampling flows from.
    pub seed: u64,
    /// Minimum processing time (≥ 1).
    pub min_time: Time,
    /// Maximum processing time (≥ `min_time`).
    pub max_time: Time,
    /// Flexible only: operations per job. `None` = one per machine.
    pub ops_per_job: Option<usize>,
    /// Flexible only: machine-subset density knob in percent (1–100).
    /// Each operation draws its eligible set from up to
    /// `ceil(machines * density_pct / 100)` machines.
    pub density_pct: u8,
}

impl GenSpec {
    /// A spec with the classic defaults: `U[1,99]` times and, for
    /// flexible shops, `machines` operations per job at 50 % density.
    pub fn new(family: Family, jobs: usize, machines: usize, seed: u64) -> Self {
        GenSpec {
            family,
            jobs,
            machines,
            seed,
            min_time: DEFAULT_TIME_RANGE.0,
            max_time: DEFAULT_TIME_RANGE.1,
            ops_per_job: None,
            density_pct: DEFAULT_DENSITY_PCT,
        }
    }

    /// Overrides the processing-time range.
    pub fn with_times(mut self, min_time: Time, max_time: Time) -> Self {
        self.min_time = min_time;
        self.max_time = max_time;
        self
    }

    /// Overrides the flexible-shop machine-subset density (percent).
    pub fn with_density_pct(mut self, pct: u8) -> Self {
        self.density_pct = pct;
        self
    }

    /// Checks the parameter space; [`GenSpec::build`] calls this first.
    pub fn check(&self) -> ShopResult<()> {
        let bad = |msg: String| Err(ShopError::BadInstance(msg));
        if self.jobs == 0 || self.machines == 0 {
            return bad(format!(
                "generator needs jobs >= 1 and machines >= 1, got {}x{}",
                self.jobs, self.machines
            ));
        }
        if self.jobs > 10_000 || self.machines > 1_000 {
            return bad(format!(
                "generator dims capped at 10000 jobs x 1000 machines, got {}x{}",
                self.jobs, self.machines
            ));
        }
        if self.min_time < 1 || self.max_time < self.min_time {
            return bad(format!(
                "generator needs 1 <= min_time <= max_time, got {}..={}",
                self.min_time, self.max_time
            ));
        }
        if self.density_pct == 0 || self.density_pct > 100 {
            return bad(format!(
                "density_pct must be in 1..=100, got {}",
                self.density_pct
            ));
        }
        if self.ops_per_job == Some(0) {
            return bad("ops_per_job must be >= 1".into());
        }
        Ok(())
    }

    /// Effective flexible-shop operations per job.
    fn effective_ops(&self) -> usize {
        self.ops_per_job.unwrap_or(self.machines)
    }

    /// Effective flexible-shop eligible-set bound:
    /// `ceil(machines * density_pct / 100)`, clamped to `1..=machines`.
    pub fn max_eligible(&self) -> usize {
        (self.machines * self.density_pct as usize)
            .div_ceil(100)
            .clamp(1, self.machines)
    }

    /// Canonical name, e.g. `gen-job-10x5-s42`. Non-default knobs are
    /// appended (`-t5x20` for a `U[5,20]` time range; `-o4`
    /// operations per job and `-d25` density percent for flexible
    /// shops), so the name is a complete recipe:
    /// [`GenSpec::from_name`] inverts it exactly.
    pub fn name(&self) -> String {
        let mut name = format!(
            "gen-{}-{}x{}-s{}",
            self.family.name(),
            self.jobs,
            self.machines,
            self.seed
        );
        if (self.min_time, self.max_time) != DEFAULT_TIME_RANGE {
            name.push_str(&format!("-t{}x{}", self.min_time, self.max_time));
        }
        if self.family == Family::Flexible {
            if let Some(ops) = self.ops_per_job {
                if ops != self.machines {
                    name.push_str(&format!("-o{ops}"));
                }
            }
            if self.density_pct != DEFAULT_DENSITY_PCT {
                name.push_str(&format!("-d{}", self.density_pct));
            }
        }
        name
    }

    /// Parses a canonical generated-instance name back into its spec
    /// (`None` when the name is not in the `gen-...` grammar). Inverse
    /// of [`GenSpec::name`] up to spec equivalence: knobs the name
    /// omits take their default values.
    pub fn from_name(name: &str) -> Option<GenSpec> {
        let rest = name.strip_prefix("gen-")?;
        let mut parts = rest.split('-');
        let family = Family::from_name(parts.next()?)?;
        let dims = parts.next()?;
        let (jobs, machines) = dims.split_once('x')?;
        let jobs: usize = jobs.parse().ok()?;
        let machines: usize = machines.parse().ok()?;
        let seed: u64 = parts.next()?.strip_prefix('s')?.parse().ok()?;
        let mut spec = GenSpec::new(family, jobs, machines, seed);
        for knob in parts {
            match knob.split_at_checked(1)? {
                ("t", range) => {
                    let (lo, hi) = range.split_once('x')?;
                    spec.min_time = lo.parse().ok()?;
                    spec.max_time = hi.parse().ok()?;
                }
                ("o", ops) if family == Family::Flexible => {
                    spec.ops_per_job = Some(ops.parse().ok()?);
                }
                ("d", pct) if family == Family::Flexible => {
                    spec.density_pct = pct.parse().ok()?;
                }
                _ => return None,
            }
        }
        Some(spec)
    }

    /// Generates the instance this spec describes.
    ///
    /// ```
    /// use shop::gen::{Family, GenSpec};
    ///
    /// let generated = GenSpec::new(Family::Flexible, 6, 4, 9)
    ///     .with_density_pct(75)
    ///     .build()
    ///     .unwrap();
    /// assert_eq!(generated.name, "gen-flexible-6x4-s9-d75");
    /// // Bit-identical on every rebuild, and the text round-trips.
    /// let again = GenSpec::from_name(&generated.name).unwrap().build().unwrap();
    /// assert_eq!(generated.instance, again.instance);
    /// ```
    pub fn build(&self) -> ShopResult<Generated> {
        self.check()?;
        let cfg = GenConfig::new(self.jobs, self.machines, self.seed)
            .with_times(self.min_time, self.max_time);
        let instance = match self.family {
            Family::Flow => AnyInstance::Flow(flow_shop_taillard(&cfg)),
            Family::Job => AnyInstance::Job(job_shop_uniform(&cfg)),
            Family::Open => AnyInstance::Open(open_shop_uniform(&cfg)),
            Family::Flexible => AnyInstance::Flexible(flexible_job_shop(
                &cfg,
                self.effective_ops(),
                self.max_eligible(),
            )),
        };
        Ok(Generated {
            name: self.name(),
            spec: *self,
            instance,
        })
    }
}

/// A generated instance together with its canonical name and the spec
/// that minted it.
#[derive(Debug, Clone, PartialEq)]
pub struct Generated {
    /// Canonical name (see [`GenSpec::name`]); resolvable back into the
    /// same instance via [`AnyInstance::named`].
    pub name: String,
    /// The recipe that produced [`Generated::instance`].
    pub spec: GenSpec,
    /// The instance itself.
    pub instance: AnyInstance,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_lists_each_family_at_its_discriminant() {
        for (i, family) in Family::ALL.into_iter().enumerate() {
            assert_eq!(family as usize, i);
            assert_eq!(Family::from_name(family.name()), Some(family));
        }
    }

    #[test]
    fn build_is_deterministic_per_family() {
        for family in Family::ALL {
            let spec = GenSpec::new(family, 6, 4, 11);
            let a = spec.build().unwrap();
            let b = spec.build().unwrap();
            assert_eq!(a.instance, b.instance, "{family:?}");
            assert_eq!(
                a.instance.canonical_hash(),
                b.instance.canonical_hash(),
                "{family:?}"
            );
        }
    }

    #[test]
    fn text_roundtrip_preserves_hash() {
        for family in Family::ALL {
            let gen = GenSpec::new(family, 5, 3, 7).build().unwrap();
            let back = AnyInstance::parse(family, &gen.instance.text()).unwrap();
            assert_eq!(gen.instance, back, "{family:?}");
            assert_eq!(
                gen.instance.canonical_hash(),
                back.canonical_hash(),
                "{family:?}"
            );
        }
    }

    #[test]
    fn name_roundtrips_for_default_and_custom_knobs() {
        let specs = [
            GenSpec::new(Family::Job, 10, 5, 42),
            GenSpec::new(Family::Flow, 20, 5, 0).with_times(5, 20),
            GenSpec {
                ops_per_job: Some(3),
                ..GenSpec::new(Family::Flexible, 6, 4, 9)
            }
            .with_density_pct(75),
            GenSpec::new(Family::Open, 8, 8, u64::MAX),
        ];
        for spec in specs {
            let name = spec.name();
            assert_eq!(GenSpec::from_name(&name), Some(spec), "{name}");
        }
        assert_eq!(
            GenSpec::new(Family::Job, 10, 5, 42).name(),
            "gen-job-10x5-s42"
        );
    }

    #[test]
    fn from_name_rejects_garbage() {
        for bad in [
            "ft06",
            "gen-",
            "gen-job",
            "gen-job-10x5",
            "gen-job-10x5-42",
            "gen-nope-10x5-s42",
            "gen-job-10x5-s42-z9",
            "gen-job-10x5-s42-o3", // ops knob is flexible-only
            "gen-job-10x-s42",
        ] {
            assert_eq!(GenSpec::from_name(bad), None, "{bad}");
        }
    }

    #[test]
    fn named_resolves_classics_and_generated() {
        assert_eq!(AnyInstance::named("ft06").unwrap().family(), Family::Job);
        let gen = AnyInstance::named("gen-flow-6x3-s5").unwrap();
        assert_eq!(gen.family(), Family::Flow);
        assert_eq!(
            gen.canonical_hash(),
            GenSpec::new(Family::Flow, 6, 3, 5)
                .build()
                .unwrap()
                .instance
                .canonical_hash()
        );
        assert!(AnyInstance::named("nope").is_none());
        assert!(AnyInstance::named("gen-job-0x0-s1").is_none());
    }

    #[test]
    fn check_rejects_bad_parameter_spaces() {
        assert!(GenSpec::new(Family::Job, 0, 3, 1).build().is_err());
        assert!(GenSpec::new(Family::Job, 3, 0, 1).build().is_err());
        assert!(GenSpec::new(Family::Flow, 3, 3, 1)
            .with_times(5, 4)
            .build()
            .is_err());
        assert!(GenSpec::new(Family::Flow, 3, 3, 1)
            .with_times(0, 4)
            .build()
            .is_err());
        assert!(GenSpec::new(Family::Flexible, 3, 3, 1)
            .with_density_pct(0)
            .build()
            .is_err());
        assert!(GenSpec::new(Family::Flexible, 3, 3, 1)
            .with_density_pct(101)
            .build()
            .is_err());
        assert!(GenSpec {
            ops_per_job: Some(0),
            ..GenSpec::new(Family::Flexible, 3, 3, 1)
        }
        .build()
        .is_err());
        assert!(GenSpec::new(Family::Job, 20_000, 3, 1).build().is_err());
    }

    #[test]
    fn density_knob_bounds_eligible_sets() {
        let spec = GenSpec::new(Family::Flexible, 6, 8, 3).with_density_pct(25);
        assert_eq!(spec.max_eligible(), 2);
        let gen = spec.build().unwrap();
        let AnyInstance::Flexible(inst) = &gen.instance else {
            panic!("flexible expected");
        };
        for j in 0..6 {
            for s in 0..inst.n_ops(j) {
                let k = inst.op(j, s).choices.len();
                assert!((1..=2).contains(&k), "job {j} op {s} has {k} choices");
            }
        }
        // Full density allows (but does not force) every machine.
        assert_eq!(spec.with_density_pct(100).max_eligible(), 8);
    }

    #[test]
    fn seeds_and_knobs_separate_instances() {
        let base = GenSpec::new(Family::Flow, 6, 4, 1);
        let other_seed = GenSpec::new(Family::Flow, 6, 4, 2);
        assert_ne!(
            base.build().unwrap().instance.canonical_hash(),
            other_seed.build().unwrap().instance.canonical_hash()
        );
        let narrow = base.with_times(10, 20).build().unwrap();
        let AnyInstance::Flow(inst) = &narrow.instance else {
            panic!("flow expected");
        };
        for j in 0..6 {
            for &t in inst.job_row(j) {
                assert!((10..=20).contains(&t));
            }
        }
    }
}
