//! Workload setup for the `repro` binary's experiments.

use olap_mdx::{execute, Grid, QueryContext};
use olap_model::MemberId;
use olap_store::{ChunkId, SeekModel};
use olap_workload::{Workforce, WorkforceConfig, MONTHS};

pub use olap_workload::workforce::MONTHS as MONTH_NAMES;

/// Builds the default-scale workforce (1/10th of the paper's).
pub fn default_workforce() -> Workforce {
    Workforce::build(WorkforceConfig::default())
}

/// The Fig. 13 workload: every changer has exactly 4 moves, so
/// `EmployeesWithAtleastOneMove-Set1` is a pool of 4-move employees.
pub fn fig13_workforce(pool: u32) -> Workforce {
    let changing = pool * 3; // Set1 is a third of the changers
    Workforce::build(WorkforceConfig {
        changing,
        four_move_quota: changing,
        ..WorkforceConfig::default()
    })
}

/// A query context with the workload's named sets registered.
pub fn context(wf: &Workforce) -> QueryContext<'_> {
    let mut ctx = QueryContext::new(&wf.cube);
    for (name, members) in wf.named_sets() {
        ctx.define_set(&name, wf.department, &members);
    }
    ctx
}

/// Runs one query, panicking on error (benches fail loudly).
pub fn run(ctx: &QueryContext<'_>, query: &str) -> Grid {
    execute(ctx, query).unwrap_or_else(|e| panic!("query failed: {e}\n{query}"))
}

/// The first `k` month names, the Fig. 11 perspective sweep.
pub fn first_months(k: usize) -> Vec<&'static str> {
    MONTHS[..k].to_vec()
}

/// Quarterly perspectives {Jan, Apr, Jul, Oct} (Figs. 10(b), 10(c), 13).
pub fn quarterly() -> Vec<&'static str> {
    vec!["Jan", "Apr", "Jul", "Oct"]
}

/// The Fig. 12 experiment rig: a file-backed workforce cube with
/// per-instance chunks (employee extent 1) and a simulated disk, whose
/// physical layout can be reorganized to place a chosen number of
/// unrelated chunks between the two instances of `EmployeeS3`.
pub struct Fig12Rig {
    /// The workload (file-backed cube).
    pub wf: Workforce,
    /// The two-instance employee under test.
    pub employee: MemberId,
    /// Chunks holding the employee's first instance.
    pub chunks_a: Vec<ChunkId>,
    /// Chunks holding the second instance.
    pub chunks_b: Vec<ChunkId>,
    /// Everything else (padding material).
    pub other_chunks: Vec<ChunkId>,
    path: std::path::PathBuf,
}

impl Fig12Rig {
    /// Builds the rig in a temp file.
    pub fn build() -> Fig12Rig {
        let path = std::env::temp_dir().join(format!(
            "perspective-olap-fig12-{}.cube",
            std::process::id()
        ));
        let wf = Workforce::build(WorkforceConfig {
            employee_extent: 1, // one instance per chunk column
            backend: olap_cube::StoreBackend::File(path.clone()),
            ..WorkforceConfig::default()
        });
        // EmployeeS3: the designated two-instance employee.
        let employee = wf
            .movers_with_moves(1)
            .first()
            .copied()
            .expect("a 1-move employee exists in the default cycle");
        let varying = wf.schema.varying(wf.department).expect("varying");
        let insts = varying.instances_of(employee).to_vec();
        assert_eq!(insts.len(), 2, "EmployeeS3 must have exactly two instances");
        let geom = wf.cube.geometry().clone();
        let vd = wf.department.index();
        let mut chunks_a = Vec::new();
        let mut chunks_b = Vec::new();
        let mut other = Vec::new();
        for id in wf.cube.chunk_ids() {
            let coord = geom.chunk_coord(id);
            if coord[vd] == insts[0].0 {
                chunks_a.push(id);
            } else if coord[vd] == insts[1].0 {
                chunks_b.push(id);
            } else {
                other.push(id);
            }
        }
        assert!(!chunks_a.is_empty() && !chunks_b.is_empty());
        Fig12Rig {
            wf,
            employee,
            chunks_a,
            chunks_b,
            other_chunks: other,
            path,
        }
    }

    /// Reorganizes the store so `padding` unrelated chunks sit between
    /// the two instances' chunk runs, and installs the seek model.
    pub fn set_separation(&self, padding: usize, seek: SeekModel) {
        let padding = padding.min(self.other_chunks.len());
        let mut order: Vec<ChunkId> = Vec::new();
        order.extend(&self.chunks_a);
        order.extend(&self.other_chunks[..padding]);
        order.extend(&self.chunks_b);
        order.extend(&self.other_chunks[padding..]);
        self.wf.cube.with_pool(|pool| {
            pool.flush_all().expect("flush");
        });
        // Reach through the pool to the FileStore.
        self.wf.cube.with_pool(|pool| {
            let mut guard = pool.store_mut();
            let store = guard
                .as_any_mut()
                .downcast_mut::<olap_store::FileStore>()
                .expect("fig12 rig uses a FileStore");
            store.reorganize(&order).expect("reorganize");
            store.set_seek_model(Some(seek));
        });
    }

    /// Byte separation between the two instances' first chunks.
    pub fn separation_bytes(&self) -> u64 {
        self.wf.cube.with_pool(|pool| {
            let guard = pool.store();
            let store = guard
                .as_any()
                .downcast_ref::<olap_store::FileStore>()
                .expect("fig12 rig uses a FileStore");
            store
                .separation(self.chunks_a[0], self.chunks_b[0])
                .unwrap_or(0)
        })
    }

    /// Runs the Fig. 12 query once: a quarterly dynamic-forward
    /// perspective over EmployeeS3, executed scoped to that employee's
    /// instances (Essbase-style retrieval — only the employee's chunks
    /// and their merge partners are read from disk). The buffer pool is
    /// cleared first so every run pays real (simulated-seek) I/O.
    pub fn run_query(&self) -> whatif_core::ExecReport {
        self.wf
            .cube
            .with_pool(|pool| pool.clear().expect("flush before clear"));
        let varying = self.wf.schema.varying(self.wf.department).expect("varying");
        let months = [0u32, 3, 6, 9].into_iter();
        let spec = whatif_core::PerspectiveSpec::new(
            self.wf.department,
            months.filter(|&t| t < self.wf.config.months),
            whatif_core::Semantics::Forward,
            whatif_core::Mode::Visual,
        );
        let slots: Vec<u32> = varying
            .instances_of(self.employee)
            .iter()
            .map(|i| i.0)
            .collect();
        let policy = whatif_core::OrderPolicy::Pebbling;
        let plan =
            whatif_core::Plan::build(&self.wf.cube, &spec, &policy, Some(&slots)).expect("plan");
        let opts = whatif_core::ExecOpts::default();
        let (_, report) =
            whatif_core::execute(&self.wf.cube, &plan, &opts).expect("scoped execution");
        report
    }
}

impl Drop for Fig12Rig {
    fn drop(&mut self) {
        std::fs::remove_file(&self.path).ok();
    }
}
