//! The Section 6 workload: a workforce-planning application.
//!
//! The paper's dataset: "a real customer workforce planning application
//! consisting of 7 dimensions. 20,250 employees are organized (roll up)
//! into 51 departments in one dimension; … we changed the reporting
//! structure of 250 employees such that they move frequently between
//! different departments in a 12 month period, between 1 and 11 times.
//! The independent Time dimension spans 12 months at the leaf level. …
//! 100 different measures (e.g., salary, grade etc) are input for each
//! employee over 12 months across 5 different business scenarios."
//!
//! This generator reproduces that *shape* at a configurable scale (the
//! default is 1/10th linear scale so everything runs on a laptop; see
//! DESIGN.md §2). The seven dimensions mirror the Hyperion Planning
//! application visible in the paper's Fig. 10 queries: **Department**
//! (employees under departments — the varying dimension), **Period**
//! (months), **Account** (measures), **Scenario** (incl. `Current`),
//! **Currency** (`Local`), **Version** (`BU Version_1`), and **HSP_Rates**
//! (`HSP_InputValue`).

use olap_cube::{Cube, CubeBuilder, RuleSet, StoreBackend};
use olap_model::{DimensionId, MemberId, Moment, Schema};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::Arc;
use whatif_core::{Mode, Scenario, Semantics};

/// Month names used for Period leaves.
pub const MONTHS: [&str; 12] = [
    "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
];

/// Generator parameters.
#[derive(Debug, Clone)]
pub struct WorkforceConfig {
    /// Total employees.
    pub employees: u32,
    /// Departments they roll up into.
    pub departments: u32,
    /// Employees whose reporting structure changes (the paper: 1%).
    pub changing: u32,
    /// How many of the changing employees get exactly 4 moves (the
    /// Fig. 13 experiment wants a pool of 4-move employees); the rest
    /// cycle through 1–11 moves.
    pub four_move_quota: u32,
    /// Months (paper: 12; must be ≤ 12 for named months).
    pub months: u32,
    /// Leaf accounts / measures (paper: 100).
    pub accounts: u32,
    /// Business scenarios (paper: 5).
    pub scenarios: u32,
    /// RNG seed — everything is deterministic given the config.
    pub seed: u64,
    /// Chunk extent along the employee axis.
    pub employee_extent: u32,
    /// Buffer-pool capacity in chunks (the paper configured Essbase with
    /// a 256 MB cache on a 20 GB cube — a small fraction).
    pub pool_capacity: usize,
    /// Storage backend for the cube.
    pub backend: StoreBackend,
}

impl Default for WorkforceConfig {
    /// 1/10th of the paper's scale: 2,025 employees / 51 departments /
    /// ~20 changers / 12 months / 10 accounts / 5 scenarios.
    fn default() -> Self {
        WorkforceConfig {
            employees: 2025,
            departments: 51,
            changing: 20,
            four_move_quota: 0,
            months: 12,
            accounts: 10,
            scenarios: 5,
            seed: 42,
            employee_extent: 16,
            pool_capacity: 1024,
            backend: StoreBackend::Memory,
        }
    }
}

impl WorkforceConfig {
    /// A miniature config for unit tests (fast to build).
    pub fn tiny() -> Self {
        WorkforceConfig {
            employees: 60,
            departments: 6,
            changing: 6,
            four_move_quota: 2,
            months: 12,
            accounts: 3,
            scenarios: 2,
            seed: 7,
            employee_extent: 8,
            pool_capacity: 1024,
            backend: StoreBackend::Memory,
        }
    }

    /// The `bench` dataset: small enough that dozens of concurrent
    /// server sessions stay fast, one instance per chunk column so every
    /// move crosses chunks. The replay experiment, the server's `bench`
    /// dataset and the multi-session tests all build this one cube.
    pub fn bench() -> Self {
        WorkforceConfig {
            employees: 400,
            departments: 12,
            changing: 80,
            employee_extent: 1,
            accounts: 4,
            scenarios: 2,
            ..WorkforceConfig::default()
        }
    }

    /// The paper's full scale (slow; ~12M input cells at 100 accounts).
    pub fn paper_scale() -> Self {
        WorkforceConfig {
            employees: 20_250,
            departments: 51,
            changing: 250,
            four_move_quota: 0,
            months: 12,
            accounts: 100,
            scenarios: 5,
            seed: 42,
            employee_extent: 32,
            pool_capacity: 4096,
            backend: StoreBackend::Memory,
        }
    }
}

/// The generated workload.
pub struct Workforce {
    /// The configuration it was built from.
    pub config: WorkforceConfig,
    /// The schema.
    pub schema: Arc<Schema>,
    /// The loaded cube.
    pub cube: Cube,
    /// Department (varying) dimension.
    pub department: DimensionId,
    /// Period (parameter) dimension.
    pub period: DimensionId,
    /// Account (measures) dimension.
    pub account: DimensionId,
    /// Scenario dimension.
    pub scenario: DimensionId,
    /// Currency dimension.
    pub currency: DimensionId,
    /// Version dimension.
    pub version: DimensionId,
    /// HSP_Rates dimension.
    pub hsp_rates: DimensionId,
    /// Changing employees with their move counts, in id order.
    pub movers: Vec<(MemberId, u32)>,
}

impl Workforce {
    /// Generates the workload.
    pub fn build(config: WorkforceConfig) -> Workforce {
        assert!(config.months >= 2 && config.months <= 12);
        assert!(config.departments >= 2);
        assert!(config.changing <= config.employees);
        let mut rng = StdRng::seed_from_u64(config.seed);

        let mut schema = Schema::new();
        // Period first so make_varying can size validity sets.
        let period = schema.add_dimension("Period");
        for m in MONTHS.iter().take(config.months as usize) {
            schema.dim_mut(period).add_child_of_root(m).expect("unique");
        }
        schema.dim_mut(period).set_ordered(true);

        let department = schema.add_dimension("Department");
        let mut dept_ids = Vec::with_capacity(config.departments as usize);
        for d in 0..config.departments {
            dept_ids.push(
                schema
                    .dim_mut(department)
                    .add_child_of_root(&format!("dept{d:03}"))
                    .expect("unique"),
            );
        }
        let mut employees = Vec::with_capacity(config.employees as usize);
        for e in 0..config.employees {
            let dept = dept_ids[(e % config.departments) as usize];
            employees.push(
                schema
                    .dim_mut(department)
                    .add_member(&format!("emp{e:05}"), dept)
                    .expect("unique"),
            );
        }

        let account = schema.add_dimension("Account");
        for a in 0..config.accounts {
            schema
                .dim_mut(account)
                .add_child_of_root(&format!("acc{a:03}"))
                .expect("unique");
        }
        schema.dim_mut(account).set_measure(true);

        let scenario = schema.add_dimension("Scenario");
        let scenario_names = ["Current", "Budget", "Forecast", "Plan", "Actual"];
        for s in 0..config.scenarios.max(1) {
            let name = scenario_names
                .get(s as usize)
                .map(|s| s.to_string())
                .unwrap_or_else(|| format!("Scenario{s}"));
            schema
                .dim_mut(scenario)
                .add_child_of_root(&name)
                .expect("unique");
        }

        let currency = schema.add_dimension("Currency");
        schema
            .dim_mut(currency)
            .add_child_of_root("Local")
            .expect("unique");
        schema
            .dim_mut(currency)
            .add_child_of_root("USD")
            .expect("unique");

        let version = schema.add_dimension("Version");
        schema
            .dim_mut(version)
            .add_child_of_root("BU Version_1")
            .expect("unique");
        schema
            .dim_mut(version)
            .add_child_of_root("Final")
            .expect("unique");

        let hsp_rates = schema.add_dimension("HSP_Rates");
        schema
            .dim_mut(hsp_rates)
            .add_child_of_root("HSP_InputValue")
            .expect("unique");
        schema
            .dim_mut(hsp_rates)
            .add_child_of_root("HSP_Rate")
            .expect("unique");

        schema.make_varying(department, period).expect("varying");

        // Reclassify the changing employees: changer i gets 4 moves while
        // the quota lasts, then cycles 1–11 (so every move count occurs).
        let mut movers: Vec<(MemberId, u32)> = Vec::with_capacity(config.changing as usize);
        for i in 0..config.changing {
            let emp = employees[i as usize];
            let n_moves = if i < config.four_move_quota {
                4
            } else {
                (i - config.four_move_quota) % 11 + 1
            };
            let n_moves = n_moves.min(config.months - 1);
            // Distinct move moments in 1..months.
            let mut moments: Vec<Moment> = (1..config.months).collect();
            for j in (1..moments.len()).rev() {
                let k = rng.random_range(0..=j);
                moments.swap(j, k);
            }
            moments.truncate(n_moves as usize);
            moments.sort_unstable();
            let mut current_dept = (i % config.departments) as usize;
            for &t in &moments {
                let mut next = rng.random_range(0..config.departments) as usize;
                if next == current_dept {
                    next = (next + 1) % config.departments as usize;
                }
                schema
                    .reclassify(department, emp, dept_ids[next], t)
                    .expect("legal change");
                current_dept = next;
            }
            movers.push((emp, n_moves));
        }
        schema.seal();
        schema.validate().expect("disjoint validity sets");
        let schema = Arc::new(schema);

        // Load data: every account × month × scenario for every valid
        // employee instance, at (Local, BU Version_1, HSP_InputValue).
        let mut rules = RuleSet::new();
        rules.set_measure_dim(account);
        let extents = vec![
            3,                       // Period
            config.employee_extent,  // Department (employee instances)
            config.accounts.max(1),  // Account
            config.scenarios.max(1), // Scenario
            1,                       // Currency
            1,                       // Version
            1,                       // HSP_Rates
        ];
        let mut b: CubeBuilder = Cube::builder(Arc::clone(&schema), extents)
            .expect("geometry")
            .backend(config.backend.clone())
            .pool_capacity(config.pool_capacity)
            .rules(rules);
        let varying = schema.varying(department).expect("varying");
        let n_inst = varying.instance_count();
        for inst_id in 0..n_inst {
            let inst = varying.instance(olap_model::InstanceId(inst_id));
            // Per-(instance, account) base value; months jitter around it.
            for a in 0..config.accounts {
                let base = rng.random_range(40.0..160.0_f64).round();
                for t in inst.validity.iter() {
                    for s in 0..config.scenarios.max(1) {
                        let v = base + (t as f64) + (s as f64) * 0.5;
                        b.set_num(&[t, inst_id, a, s, 0, 0, 0], v)
                            .expect("in range");
                    }
                }
            }
        }
        let cube = b.finish().expect("build cube");

        Workforce {
            config,
            schema,
            cube,
            department,
            period,
            account,
            scenario,
            currency,
            version,
            hsp_rates,
            movers,
        }
    }

    /// The employees with more than one instance, exactly as the
    /// experiments select them.
    pub fn changing_employees(&self) -> Vec<MemberId> {
        self.movers.iter().map(|&(m, _)| m).collect()
    }

    /// Changers with exactly `n` reporting-structure changes.
    pub fn movers_with_moves(&self, n: u32) -> Vec<MemberId> {
        self.movers
            .iter()
            .filter(|&&(_, c)| c == n)
            .map(|&(m, _)| m)
            .collect()
    }

    /// The named sets the Fig. 10 queries reference:
    /// `EmployeesWithAtleastOneMove-Set{1,2,3}` (a round-robin partition
    /// of the changers) and `EmployeeS3` (a two-instance employee — the
    /// Fig. 12 subject).
    pub fn named_sets(&self) -> Vec<(String, Vec<MemberId>)> {
        let mut sets: Vec<Vec<MemberId>> = vec![Vec::new(), Vec::new(), Vec::new()];
        for (i, &(m, _)) in self.movers.iter().enumerate() {
            sets[i % 3].push(m);
        }
        let mut out: Vec<(String, Vec<MemberId>)> = sets
            .into_iter()
            .enumerate()
            .map(|(i, s)| (format!("EmployeesWithAtleastOneMove-Set{}", i + 1), s))
            .collect();
        let s3 = self
            .movers_with_moves(1)
            .first()
            .copied()
            .or_else(|| self.movers.first().map(|&(m, _)| m));
        if let Some(m) = s3 {
            out.push(("EmployeeS3".to_string(), vec![m]));
        }
        out
    }

    /// Fig. 10(a): static perspectives over all changing employees.
    pub fn fig10a_query(&self, perspectives: &[&str]) -> String {
        self.fig10a_query_sem(perspectives, "STATIC")
    }

    /// Fig. 10(a)'s shape with any semantics keyword (`"STATIC"`,
    /// `"DYNAMIC FORWARD"`, …) — the Fig. 11 experiment sweeps these.
    pub fn fig10a_query_sem(&self, perspectives: &[&str], semantics: &str) -> String {
        format!(
            "WITH PERSPECTIVE {{{}}} FOR Department {semantics} \
             SELECT {{CrossJoin({{[Account].Levels(0).Members}}, \
             {{([Current], [Local], [BU Version_1], [HSP_InputValue])}})}} ON COLUMNS, \
             {{CrossJoin({{Union({{Union({{[EmployeesWithAtleastOneMove-Set1].Children}}, \
             {{[EmployeesWithAtleastOneMove-Set2].Children}})}}, \
             {{[EmployeesWithAtleastOneMove-Set3].Children}})}}, \
             {{Descendants([Period], 1, SELF_AND_AFTER)}})}} \
             DIMENSION PROPERTIES [Department] ON ROWS \
             FROM [App].[Db]",
            fmt_perspectives(perspectives),
        )
    }

    /// Fig. 10(b): dynamic forward over the two-instance `EmployeeS3`.
    pub fn fig10b_query(&self, perspectives: &[&str]) -> String {
        format!(
            "WITH PERSPECTIVE {{{}}} FOR Department DYNAMIC FORWARD \
             SELECT {{CrossJoin({{[Account].Levels(0).Members}}, \
             {{([Current], [Local], [BU Version_1], [HSP_InputValue])}})}} ON COLUMNS, \
             {{CrossJoin({{[EmployeeS3].Children}}, \
             {{Descendants([Period], 1, SELF_AND_AFTER)}})}} \
             DIMENSION PROPERTIES [Department] ON ROWS \
             FROM [App].[Db]",
            fmt_perspectives(perspectives),
        )
    }

    /// Fig. 10(c): dynamic forward over the first `head` changing
    /// employees.
    pub fn fig10c_query(&self, perspectives: &[&str], head: u32) -> String {
        format!(
            "WITH PERSPECTIVE {{{}}} FOR Department DYNAMIC FORWARD \
             SELECT {{CrossJoin({{[Account].Levels(0).Members}}, \
             {{([Current], [Local], [BU Version_1], [HSP_InputValue])}})}} ON COLUMNS, \
             {{CrossJoin({{Head({{[EmployeesWithAtleastOneMove-Set1].Children}}, {head})}}, \
             {{Descendants([Period], 1, SELF_AND_AFTER)}})}} \
             DIMENSION PROPERTIES [Department] ON ROWS \
             FROM [App].[Db]",
            fmt_perspectives(perspectives),
        )
    }

    /// Input cells before aggregation (the paper reports 121M).
    pub fn input_cells(&self) -> u64 {
        self.cube.present_cell_count().unwrap_or(0)
    }
}

/// The one-perspective edit session of the scenario-delta replay
/// experiment (`repro --replay`, the `scenario_cache` tests): a base
/// perspective set followed by K=8 single-perspective edits, so a cache
/// sees 9 scenarios in a row. Needs a 12-month workload.
pub fn replay_scenarios(department: DimensionId, semantics: Semantics) -> Vec<Scenario> {
    let perspective_sets: Vec<Vec<u32>> = match semantics {
        // The analyst keeps early history pinned and nudges the *last*
        // perspective: under DYNAMIC FORWARD only movers with a move
        // after the second-to-last perspective are invalidated.
        Semantics::Forward => (0..9).map(|step| vec![0, 3, 6, 9, 10 + step % 2]).collect(),
        // Rotating one-month nudges: under STATIC an edit only touches
        // instances whose validity straddles the moved moment, so almost
        // every component survives each edit.
        _ => vec![
            vec![0, 3, 6, 9],
            vec![0, 3, 6, 10],
            vec![0, 3, 7, 10],
            vec![0, 4, 7, 10],
            vec![1, 4, 7, 10],
            vec![1, 4, 7, 9],
            vec![1, 4, 6, 9],
            vec![1, 3, 6, 9],
            vec![0, 3, 6, 9],
        ],
    };
    perspective_sets
        .into_iter()
        .map(|p| Scenario::negative(department, p, semantics, Mode::Visual))
        .collect()
}

fn fmt_perspectives(p: &[&str]) -> String {
    p.iter()
        .map(|m| format!("({m})"))
        .collect::<Vec<_>>()
        .join(", ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_workload_shape() {
        let w = Workforce::build(WorkforceConfig::tiny());
        assert_eq!(w.schema.dim_count(), 7);
        assert_eq!(w.schema.axis_len(w.period), 12);
        // 60 employees, 6 changers — instance count exceeds employees.
        let n = w.schema.axis_len(w.department);
        assert!(n > 60, "expected extra instances, got {n}");
        assert_eq!(w.movers.len(), 6);
        // Quota guarantees at least 2 employees with exactly 4 moves (the
        // 1–11 cycle can add more).
        assert!(w.movers_with_moves(4).len() >= 2);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = Workforce::build(WorkforceConfig::tiny());
        let b = Workforce::build(WorkforceConfig::tiny());
        assert_eq!(
            a.schema.axis_len(a.department),
            b.schema.axis_len(b.department)
        );
        assert_eq!(a.cube.total_sum().unwrap(), b.cube.total_sum().unwrap());
    }

    #[test]
    fn data_loaded_for_all_scenarios_and_accounts() {
        let w = Workforce::build(WorkforceConfig::tiny());
        let c = &w.config;
        // Instances' validity sets partition months per member, so cells =
        // employees × months × accounts × scenarios.
        let want =
            (c.employees as u64) * (c.months as u64) * (c.accounts as u64) * (c.scenarios as u64);
        assert_eq!(w.input_cells(), want);
    }

    #[test]
    fn named_sets_partition_changers() {
        let w = Workforce::build(WorkforceConfig::tiny());
        let sets = w.named_sets();
        assert_eq!(sets.len(), 4);
        let total: usize = sets[..3].iter().map(|(_, s)| s.len()).sum();
        assert_eq!(total, w.movers.len());
        assert_eq!(sets[3].0, "EmployeeS3");
        assert_eq!(sets[3].1.len(), 1);
    }

    #[test]
    fn move_counts_in_paper_range() {
        let w = Workforce::build(WorkforceConfig::tiny());
        for &(m, c) in &w.movers {
            assert!((1..=11).contains(&c), "{m:?} has {c} moves");
            let v = w.schema.varying(w.department).unwrap();
            // k moves ⇒ between 2 and k+1 instances (re-acquired parents
            // merge).
            let inst = v.instances_of(m).len() as u32;
            assert!(inst >= 2 && inst <= c + 1, "{c} moves but {inst} instances");
        }
    }

    #[test]
    fn queries_parse_shape() {
        // No MDX dependency here — just check the strings look sane.
        let w = Workforce::build(WorkforceConfig::tiny());
        let q = w.fig10a_query(&["Jan", "Jul"]);
        assert!(q.contains("WITH PERSPECTIVE {(Jan), (Jul)} FOR Department STATIC"));
        assert!(q.contains("DIMENSION PROPERTIES [Department] ON ROWS"));
        let q = w.fig10c_query(&["Jan", "Apr", "Jul", "Oct"], 50);
        assert!(q.contains("Head({[EmployeesWithAtleastOneMove-Set1].Children}, 50)"));
    }
}
