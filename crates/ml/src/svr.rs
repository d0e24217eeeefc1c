//! ε-support-vector regression trained with SMO.
//!
//! Implements the standard libsvm formulation: the ε-SVR dual is an
//! SVM-shaped problem over `2n` variables `(α, α*)` with labels
//! `y ∈ {+1, −1}`, solved by sequential minimal optimization with
//! second-order working-set selection. Kernel rows are stored per
//! sample as the solver first asks for them; only above `cache_rows`
//! resident rows is the least recently used one dropped.
//! The paper's hyper-parameters are `C = 1000`, `ε = 0.1` for both
//! models, a linear kernel for speedup and an RBF kernel with
//! `γ = 0.1` for normalized energy (§3.4).

use crate::dataset::Dataset;
use crate::kernel_fn::SvmKernel;
use serde::{Deserialize, Serialize};

const TAU: f64 = 1e-12;

/// Hyper-parameters of one ε-SVR training run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SvrParams {
    /// Box constraint `C`.
    pub c: f64,
    /// Tube width `ε`.
    pub epsilon: f64,
    /// Kernel function.
    pub kernel: SvmKernel,
    /// KKT violation tolerance for convergence.
    pub tol: f64,
    /// Hard iteration cap (0 = libsvm-style heuristic of
    /// `max(10^7, 100·n)`).
    pub max_iter: usize,
    /// Most kernel rows resident at once (at least 2). Rows are computed
    /// on first use and kept, so with no more samples than this each
    /// row is computed once; past it the least recently used row is
    /// dropped and recomputed when next needed. The trained model is
    /// the same at every value.
    pub cache_rows: usize,
}

impl SvrParams {
    /// The paper's speedup model: linear kernel, `C = 1000`.
    ///
    /// Two solver-level adaptations from the literal §3.4 values, both
    /// documented in DESIGN.md:
    /// * `ε = 0.01` rather than `0.1` — the tube is an *absolute* error
    ///   band, and our simulator's speedup targets reach down to ~0.1
    ///   (deep down-clocked configurations), where a 0.1 tube alone
    ///   permits 100% relative error. A 0.01 tube is the proportional
    ///   equivalent of the paper's setting on its own data scale.
    /// * `max_iter` is capped: with `C = 1000` full KKT convergence
    ///   needs tens of millions of SMO iterations for a negligible
    ///   objective improvement; libsvm guards its solver the same way.
    pub fn paper_speedup() -> SvrParams {
        SvrParams {
            c: 1000.0,
            epsilon: 0.01,
            kernel: SvmKernel::Linear,
            tol: 1e-3,
            max_iter: 800_000,
            cache_rows: 4240,
        }
    }

    /// The paper's normalized-energy model: RBF kernel with `γ = 0.1`,
    /// `C = 1000` (see [`SvrParams::paper_speedup`] on the `ε` and
    /// iteration-cap adaptations).
    pub fn paper_energy() -> SvrParams {
        SvrParams {
            c: 1000.0,
            epsilon: 0.01,
            kernel: SvmKernel::Rbf { gamma: 0.1 },
            tol: 1e-3,
            max_iter: 800_000,
            cache_rows: 4240,
        }
    }
}

/// A trained ε-SVR model: support vectors, their coefficients
/// `β = α − α*`, and the bias.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SvrModel {
    kernel: SvmKernel,
    support_x: Vec<Vec<f64>>,
    beta: Vec<f64>,
    bias: f64,
    iterations: usize,
}

impl SvrModel {
    /// Assemble a model directly from its parts: support vectors,
    /// their coefficients `β = α − α*`, and the bias. This is the
    /// inverse of what [`train_svr`] extracts from the solver, for
    /// callers that build models without training — hand-written
    /// regressors in tests, property-based harnesses, external
    /// artifact importers. The iteration count is recorded as zero.
    ///
    /// # Panics
    /// If `support_x` and `beta` disagree in length, or the support
    /// vectors are jagged.
    pub fn from_parts(
        kernel: SvmKernel,
        support_x: Vec<Vec<f64>>,
        beta: Vec<f64>,
        bias: f64,
    ) -> SvrModel {
        assert_eq!(
            support_x.len(),
            beta.len(),
            "one coefficient per support vector"
        );
        if let Some(first) = support_x.first() {
            assert!(
                support_x.iter().all(|sv| sv.len() == first.len()),
                "support vectors must share one width"
            );
        }
        SvrModel {
            kernel,
            support_x,
            beta,
            bias,
            iterations: 0,
        }
    }

    /// Predict the target for one row.
    pub fn predict(&self, x: &[f64]) -> f64 {
        let mut acc = self.bias;
        for (sv, &b) in self.support_x.iter().zip(&self.beta) {
            acc += b * self.kernel.eval(sv, x);
        }
        acc
    }

    /// Predict a batch of rows.
    ///
    /// Accepts anything row-shaped — `&[Vec<f64>]`, `&[&[f64]]`,
    /// `&[[f64; N]]` — so callers holding borrowed rows don't rebuild
    /// an owned `Vec<Vec<f64>>` block just to satisfy the signature.
    pub fn predict_batch<R: AsRef<[f64]>>(&self, xs: &[R]) -> Vec<f64> {
        xs.iter().map(|x| self.predict(x.as_ref())).collect()
    }

    /// Build the precomputed scoring form of this model: a linear
    /// model folded into its primal weights `w = Σ βᵢ·svᵢ`, an RBF
    /// model's support vectors flattened into one feature-major matrix.
    /// Build it once per model, score many candidate lines — see
    /// [`ScoringPlan`] for the error contract.
    pub fn scoring_plan(&self) -> ScoringPlan {
        let dims = self.support_x.first().map_or(0, Vec::len);
        let n = self.support_x.len();
        let (mut sv, mut w) = (Vec::new(), Vec::new());
        let mut beta = self.beta.clone();
        match self.kernel {
            SvmKernel::Linear => {
                w = vec![0.0; dims];
                for (row, &b) in self.support_x.iter().zip(&self.beta) {
                    for (wj, &v) in w.iter_mut().zip(row) {
                        *wj += b * v;
                    }
                }
            }
            SvmKernel::Rbf { .. } => {
                // Padded with zero-weight support vectors to whole blocks.
                let np = n.next_multiple_of(LANES);
                beta.resize(np, 0.0);
                sv = vec![0.0; dims * np];
                for (i, row) in self.support_x.iter().enumerate() {
                    for (j, &v) in row.iter().enumerate() {
                        sv[j * np + i] = v;
                    }
                }
            }
        }
        ScoringPlan {
            kernel: self.kernel,
            dims,
            sv,
            w,
            beta,
            num_sv: n,
            bias: self.bias,
        }
    }

    /// Number of support vectors retained.
    pub fn num_support_vectors(&self) -> usize {
        self.support_x.len()
    }

    /// SMO iterations used during training.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// The kernel this model was trained with.
    pub fn kernel(&self) -> SvmKernel {
        self.kernel
    }
}

/// Train an ε-SVR on `data`.
///
/// # Panics
/// If the dataset is empty.
pub fn train_svr(data: &Dataset, params: &SvrParams) -> SvrModel {
    assert!(!data.is_empty(), "cannot train on an empty dataset");
    let n = data.len();
    let mut solver = Solver::new(data, params);
    let iterations = solver.solve();
    let bias = solver.bias();
    // β_i = α_i − α*_i; keep only support vectors.
    let mut support_x = Vec::new();
    let mut beta = Vec::new();
    for i in 0..n {
        let b = solver.alpha[i] - solver.alpha[n + i];
        if b.abs() > 1e-12 {
            support_x.push(data.xs()[i].clone());
            beta.push(b);
        }
    }
    SvrModel {
        kernel: params.kernel,
        support_x,
        beta,
        bias,
        iterations,
    }
}

/// The precomputed scoring form of an [`SvrModel`], built once per
/// model (via [`SvrModel::scoring_plan`]) and then scored along lines
/// of candidates `x(t) = origin + t·dir`. Each kernel is scored by what
/// varies: a linear model is folded into its primal weights
/// `w = Σ βᵢ·svᵢ`, and every term that does not depend on `t` is
/// computed once per line instead of once per candidate.
///
/// **Where the speed comes from.** Per line the plan computes
/// `R = ‖dir‖²`, and per support vector `Pᵢ = ‖svᵢ − origin‖²` and
/// `Qᵢ = ⟨svᵢ − origin, dir⟩`, so that `Kᵢ(t) = exp(−γ·(Pᵢ + t·(t·R −
/// 2Qᵢ)))`. Scored directly ([`Points::Free`]) that is one `exp` per
/// (candidate, support vector) pair. On a [`LineGrid`]
/// ([`Points::Grid`]) the RBF head instead steps along the grid: with
/// `s = t − t₀` from the grid's first point,
///
/// `score(t) = bias + exp(−γ·R·s²) · Σᵢ wᵢ·gᵢ(s)`, `wᵢ = βᵢ·Kᵢ(t₀)`,
/// `gᵢ(s) = exp(uᵢ·s)`, `uᵢ = 2γ·(Qᵢ − t₀·R)`,
///
/// and `gᵢ` moves from one grid point to the next by one multiply with
/// `exp(uᵢ·Δ)`. The grid groups its gaps by value, so a line costs one
/// `exp` per support vector for `wᵢ`, one per support vector and
/// distinct gap (four on the Titan X and P100 clock grids), and one per
/// candidate for `exp(−γ·R·s²)`, instead of one per pair. Support
/// vectors run in blocks of eight lanes, each lane an elementwise chain
/// and the blocks reduced by one fixed tree, so the compiler vectorises
/// the loops, the plain-arithmetic `exp` included (runtime AVX-512F/AVX2
/// dispatch), and the bits do not depend on the register width.
///
/// **Guard.** The stepped form multiplies three factors that can each
/// be far from one. A line whose anchor exponent `−γ·‖svᵢ − x(t₀)‖²`
/// is below −600, whose `|uᵢ|·span` or `γ·R·span²` is above 600, or
/// whose `|uᵢ|` times the grid's accumulated step drift (see
/// [`LineGrid`]) is above 1e-13, is scored directly instead, every
/// lane of it. So is every line on a grid that has more than eight
/// distinct gaps or too few points for stepping to save `exp`s. The
/// decision depends only on the line and the grid.
///
/// **Error contract.** Against the scalar [`SvrModel::predict`] at
/// `origin + t·dir` the plan is close, not bit-identical: folding `w`,
/// expanding `‖sv − x(t)‖²` in `t` and stepping reassociate the sums,
/// and the `exp` may differ by an ulp. For `t` in the scaled-clock
/// range `[0, 1]` a directly scored point agrees to 1e-12 of the sum's
/// magnitude `|bias| + Σ|βᵢ·K|`, and a stepped grid point agrees with
/// the directly scored one to the same bound (both pinned by proptest).
/// Between the plan's own calls the contract is exact: a lane of
/// [`score_line_into`](ScoringPlan::score_line_into) has the bits of
/// the same line scored at that point alone — at grid index `k` with
/// the same grid, or at `t` for a free point — at every line length and
/// SIMD tier.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoringPlan {
    kernel: SvmKernel,
    dims: usize,
    /// Feature-major `dims × beta.len()` support-vector matrix (empty
    /// for the linear kernel, which scores through `w`).
    sv: Vec<f64>,
    /// The linear kernel's primal weights `Σ βᵢ·svᵢ` (empty otherwise).
    w: Vec<f64>,
    /// `β`, padded for the RBF kernel with zeros to whole blocks of
    /// [`LANES`] support vectors.
    beta: Vec<f64>,
    num_sv: usize,
    bias: f64,
}

/// Where along a line `origin + t·dir` a [`ScoringPlan`] scores.
#[derive(Debug, Clone, Copy)]
pub enum Points<'a> {
    /// The grid points `grid.ts()[k]`, one per index `k`, in any order.
    Grid(&'a LineGrid, &'a [usize]),
    /// Arbitrary points `t`, each scored directly.
    Free(&'a [f64]),
}

impl Points<'_> {
    fn len(&self) -> usize {
        match self {
            Points::Grid(_, at) => at.len(),
            Points::Free(ts) => ts.len(),
        }
    }
}

/// The points of one line at which candidates sit: finite, strictly
/// ascending `t₀ < t₁ < …` (in the served path, the scaled core clocks
/// of one memory clock). Built once and scored against many lines, it
/// groups the gaps between neighbouring points by value — within 1e-9 relative, since
/// equal clock steps differ in their last bits once scaled — so the
/// RBF head can step from point to point (see [`ScoringPlan`]). Each
/// gap then counts as the first gap of its group; the grid records how
/// far the sum of those stand-ins drifts from the true offset `tₖ − t₀`.
#[derive(Debug, Clone, PartialEq)]
pub struct LineGrid {
    ts: Vec<f64>,
    /// The distinct gaps, each as its first occurrence (empty when the
    /// grid is scored directly).
    steps: Vec<f64>,
    /// Gap `k → k + 1` as an index into `steps`.
    gap_step: Vec<u8>,
    /// `t_last − t₀`.
    span: f64,
    /// `max |Σ_{j<k} step(j) − (tₖ − t₀)|` over the grid.
    drift: f64,
}

/// Most distinct gaps a stepped grid may have.
const MAX_STEPS: usize = 8;
/// Gaps within this relative distance of each other step as one.
const STEP_TOLERANCE: f64 = 1e-9;
/// Largest magnitude of the exponent of any one stepped factor.
const EXPONENT_LIMIT: f64 = 600.0;
/// Largest exponent error the grid's step drift may cause.
const DRIFT_LIMIT: f64 = 1e-13;

impl LineGrid {
    /// Group the gaps of `ts`.
    ///
    /// # Panics
    /// If `ts` is empty, or not finite and strictly ascending.
    pub fn new(ts: Vec<f64>) -> LineGrid {
        assert!(
            !ts.is_empty()
                && ts.iter().all(|t| t.is_finite())
                && ts.windows(2).all(|w| w[0] < w[1]),
            "grid points must be finite and strictly ascending"
        );
        let (mut steps, mut gap_step) = (Vec::new(), Vec::new());
        let (mut stepped_sum, mut drift) = (0.0, 0.0f64);
        for (k, w) in ts.windows(2).enumerate() {
            let gap = w[1] - w[0];
            let class = match steps
                .iter()
                .position(|&s: &f64| (gap - s).abs() <= STEP_TOLERANCE * s)
            {
                Some(c) => c,
                None => {
                    steps.push(gap);
                    steps.len() - 1
                }
            };
            if steps.len() > MAX_STEPS {
                break;
            }
            gap_step.push(class as u8);
            stepped_sum += steps[class];
            drift = drift.max((stepped_sum - (ts[k + 1] - ts[0])).abs());
        }
        // Stepping costs one `exp` per support vector and distinct gap
        // plus one for the anchor; it pays only on a grid with at least
        // twice as many points.
        if steps.len() > MAX_STEPS || 2 * (steps.len() + 1) > ts.len() {
            steps.clear();
            gap_step.clear();
        }
        let span = ts[ts.len() - 1] - ts[0];
        LineGrid {
            ts,
            steps,
            gap_step,
            span,
            drift,
        }
    }

    /// The grid points, ascending.
    pub fn ts(&self) -> &[f64] {
        &self.ts
    }

    /// The index of the grid point with exactly the bits of `t`.
    pub fn index_of(&self, t: f64) -> Option<usize> {
        let k = self.ts.partition_point(|&g| g < t);
        (self.ts.get(k)?.to_bits() == t.to_bits()).then_some(k)
    }

    /// Whether lines on this grid are stepped (subject to the per-line
    /// guard) rather than scored directly.
    pub fn is_stepped(&self) -> bool {
        !self.gap_step.is_empty()
    }
}

impl ScoringPlan {
    /// Feature width the plan scores (0 only for a model with no
    /// support vectors, which scores as its bias).
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Number of support vectors in the plan.
    pub fn num_support_vectors(&self) -> usize {
        self.num_sv
    }

    /// Score one point: the line through `x` with `dir = 0`, at `t = 0`.
    pub fn score(&self, x: &[f64]) -> f64 {
        let mut out = [0.0];
        let dir = vec![0.0; x.len()];
        self.score_line_into(x, &dir, Points::Free(&[0.0]), &mut out);
        out[0]
    }

    /// Score the points `origin + t·dir`, one per entry of `points`, into
    /// the same slot of `out`. Each lane has exactly the bits of the same
    /// line scored at that point alone (see the type-level docs). A plan
    /// with no support vectors scores every point as its bias, whatever
    /// the line's width.
    ///
    /// # Panics
    /// If `out` and `points` differ in length, `origin` or `dir` is not
    /// [`dims`](ScoringPlan::dims) wide, or a grid index is out of range.
    pub fn score_line_into(
        &self,
        origin: &[f64],
        dir: &[f64],
        points: Points<'_>,
        out: &mut [f64],
    ) {
        assert_eq!(out.len(), points.len(), "one output slot per point");
        if let Points::Grid(grid, at) = points {
            assert!(
                at.iter().all(|&k| k < grid.ts.len()),
                "grid index out of range"
            );
        }
        if self.dims == 0 {
            out.fill(self.bias);
            return;
        }
        assert!(
            origin.len() == self.dims && dir.len() == self.dims,
            "the line must have the plan's width"
        );
        // The sweep is compiled once per SIMD tier; per-lane IEEE-754
        // mul/add/sub round identically at every width (and Rust never
        // contracts to FMA), so wider registers change throughput, not
        // bits.
        // Miri interprets MIR and does not implement vendor SIMD
        // intrinsics; under it the plain sweep below is the whole
        // story, which is exactly the path worth checking for UB.
        #[cfg(all(target_arch = "x86_64", not(miri)))]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                // SAFETY: reached only when the CPU reports AVX-512F.
                return unsafe { self.sweep_avx512(origin, dir, points, out) };
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: reached only when the CPU reports AVX2.
                return unsafe { self.sweep_avx2(origin, dir, points, out) };
            }
        }
        self.sweep(origin, dir, points, out);
    }

    /// The line sweep body. Marked `inline(always)` so the
    /// `target_feature` wrappers re-vectorize it at their ISA width.
    #[inline(always)]
    fn sweep(&self, origin: &[f64], dir: &[f64], points: Points<'_>, out: &mut [f64]) {
        let gamma = match self.kernel {
            SvmKernel::Linear => {
                let (at0, slope) = (self.bias + dot(&self.w, origin), dot(&self.w, dir));
                let lane = |t: f64| at0 + t * slope;
                match points {
                    Points::Grid(grid, at) => {
                        for (acc, &k) in out.iter_mut().zip(at) {
                            *acc = lane(grid.ts[k]);
                        }
                    }
                    Points::Free(ts) => {
                        for (acc, &t) in out.iter_mut().zip(ts) {
                            *acc = lane(t);
                        }
                    }
                }
                return;
            }
            SvmKernel::Rbf { gamma } => gamma,
        };
        let (p, q) = self.line_terms(origin, dir);
        let line = RbfLine {
            gamma,
            p: &p,
            q: &q,
            r: dot(dir, dir),
        };
        match points {
            Points::Free(ts) => self.direct(&line, ts, out),
            Points::Grid(grid, at) => {
                if !self.step(&line, grid, at, out) {
                    let ts: Vec<f64> = at.iter().map(|&k| grid.ts[k]).collect();
                    self.direct(&line, &ts, out);
                }
            }
        }
    }

    /// The line's two terms per support vector, `P = ‖sv − o‖²` and
    /// `Q = ⟨sv − o, d⟩`, folded in feature order with all support
    /// vectors in lock-step over the feature-major matrix.
    #[inline(always)]
    fn line_terms(&self, origin: &[f64], dir: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let np = self.beta.len();
        let (mut p, mut q) = (vec![0.0; np], vec![0.0; np]);
        for ((col, &o), &d) in self.sv.chunks_exact(np).zip(origin).zip(dir) {
            for ((p, q), &s) in p.iter_mut().zip(&mut q).zip(col) {
                let e = s - o;
                *p += e * e;
                *q += e * d;
            }
        }
        p.truncate(self.num_sv);
        q.truncate(self.num_sv);
        (p, q)
    }

    /// Score each `t` directly, one `exp` per (candidate, support
    /// vector) pair: per candidate, every support vector's term in one
    /// loop, then the blocks summed lane-wise and the lanes by
    /// [`tree_sum`].
    #[inline(always)]
    fn direct(&self, line: &RbfLine<'_>, ts: &[f64], out: &mut [f64]) {
        let RbfLine { gamma, p, q, r } = *line;
        // Padded support vectors keep a zero term.
        let mut terms = vec![0.0; self.beta.len()];
        for (o, &t) in out.iter_mut().zip(ts) {
            for ((k, &b), (&p, &q)) in terms.iter_mut().zip(&self.beta).zip(p.iter().zip(q)) {
                *k = b * exp(-gamma * (p + t * (t * r - 2.0 * q)));
            }
            let (blocks, _) = terms.as_chunks::<LANES>();
            let sum = blocks.iter().fold([0.0; LANES], |acc, block| {
                std::array::from_fn(|j| acc[j] + block[j])
            });
            *o = self.bias + tree_sum(&sum);
        }
    }

    /// Score the grid points `at` by stepping each support vector's
    /// kernel along `grid` (see the type-level docs). Every lane up to
    /// the largest index in `at` is computed the same way whichever of
    /// them are asked for, so a lane's bits depend only on the line, the
    /// grid and its index. Returns `false`, having written nothing, when
    /// the grid or the guard sends the line to [`direct`](Self::direct).
    #[inline(always)]
    fn step(&self, line: &RbfLine<'_>, grid: &LineGrid, at: &[usize], out: &mut [f64]) -> bool {
        let RbfLine { gamma, p, q, r } = *line;
        let Some(last) = at.iter().max().map(|&k| k + 1) else {
            return true;
        };
        if !grid.is_stepped() {
            return false;
        }
        // Per support vector: the anchor exponent `−γ·‖sv − x(t₀)‖²` and
        // the slope `u` of the stepped factor. The padding keeps both at
        // zero, so its zero weights step as `0·1`.
        let t0 = grid.ts[0];
        let np = self.beta.len();
        let (mut anchor, mut slope) = (vec![0.0; np], vec![0.0; np]);
        let mut fits = gamma * r * grid.span * grid.span <= EXPONENT_LIMIT;
        for (((a, u), &p), &q) in anchor.iter_mut().zip(&mut slope).zip(p).zip(q) {
            *a = -gamma * (p + t0 * (t0 * r - 2.0 * q));
            *u = 2.0 * gamma * (q - t0 * r);
            fits &= *a >= -EXPONENT_LIMIT
                && u.abs() * grid.span <= EXPONENT_LIMIT
                && u.abs() * grid.drift <= DRIFT_LIMIT;
        }
        if !fits {
            return false;
        }
        // The weights `wᵢ = βᵢ·exp(anchor)` and the step factors
        // `exp(uᵢ·Δ)`, each `exp` in a loop over every support vector so
        // that it vectorises.
        let mut weight = anchor;
        for (w, &b) in weight.iter_mut().zip(&self.beta) {
            *w = b * exp(*w);
        }
        let mut factors = vec![0.0; grid.steps.len() * np];
        for (m, &step) in factors.chunks_exact_mut(np).zip(&grid.steps) {
            for (m, &u) in m.iter_mut().zip(&slope) {
                *m = exp(u * step);
            }
        }
        let (weight, _) = weight.as_chunks::<LANES>();
        let (factors, _) = factors.as_chunks::<LANES>();
        // Lane `k` is `bias + exp(−γ·R·s²)·Σ w·g`, the sum walked along
        // the grid with every block's `g` in step: at each point, add
        // `w·g` into four accumulators (block `b` into `b mod 4`, in
        // block order), then advance `g` by the gap's factors. Blocks
        // are independent, so the multiply chains overlap.
        let mut lanes: Vec<f64> = grid.ts[..last]
            .iter()
            .map(|&t| {
                let s = t - t0;
                exp(-gamma * (r * (s * s)))
            })
            .collect();
        let blocks = weight.len();
        let mut g = vec![[1.0; LANES]; blocks];
        for (k, lane) in lanes.iter_mut().enumerate() {
            let class = grid.gap_step.get(k).map_or(0, |&c| usize::from(c));
            let m = &factors[class * blocks..][..blocks];
            let mut acc = [[0.0; LANES]; 4];
            let (w4, w1) = weight.as_chunks::<4>();
            let (g4, g1) = g.as_chunks_mut::<4>();
            let (m4, m1) = m.as_chunks::<4>();
            for ((w, g), m) in w4.iter().zip(g4).zip(m4) {
                for i in 0..4 {
                    acc[i] = std::array::from_fn(|j| acc[i][j] + w[i][j] * g[i][j]);
                    g[i] = std::array::from_fn(|j| g[i][j] * m[i][j]);
                }
            }
            for (i, ((w, g), m)) in w1.iter().zip(g1).zip(m1).enumerate() {
                acc[i] = std::array::from_fn(|j| acc[i][j] + w[j] * g[j]);
                *g = std::array::from_fn(|j| g[j] * m[j]);
            }
            let sum = std::array::from_fn(|j| (acc[0][j] + acc[1][j]) + (acc[2][j] + acc[3][j]));
            *lane = self.bias + *lane * tree_sum(&sum);
        }
        for (o, &k) in out.iter_mut().zip(at) {
            *o = lanes[k];
        }
        true
    }

    /// [`sweep`](Self::sweep) compiled for AVX2 (4 f64 lanes).
    ///
    /// The body is safe code; `unsafe` is forced by `target_feature`
    /// alone.
    // SAFETY: callers must have verified AVX2 support (the dispatch in
    // `score_line_into` checks `is_x86_feature_detected!`), or executing
    // the AVX2-encoded body is UB on older CPUs.
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    #[target_feature(enable = "avx2")]
    unsafe fn sweep_avx2(&self, origin: &[f64], dir: &[f64], points: Points<'_>, out: &mut [f64]) {
        self.sweep(origin, dir, points, out);
    }

    /// [`sweep`](Self::sweep) compiled for AVX-512F (8 f64 lanes).
    ///
    /// The body is safe code; `unsafe` is forced by `target_feature`
    /// alone.
    // SAFETY: callers must have verified AVX-512F support (the dispatch
    // in `score_line_into` checks `is_x86_feature_detected!`), or
    // executing the AVX-512-encoded body is UB on older CPUs.
    #[cfg(all(target_arch = "x86_64", not(miri)))]
    #[target_feature(enable = "avx512f")]
    unsafe fn sweep_avx512(
        &self,
        origin: &[f64],
        dir: &[f64],
        points: Points<'_>,
        out: &mut [f64],
    ) {
        self.sweep(origin, dir, points, out);
    }
}

/// One line's per-support-vector RBF terms (see [`ScoringPlan`]).
#[derive(Clone, Copy)]
struct RbfLine<'a> {
    gamma: f64,
    p: &'a [f64],
    q: &'a [f64],
    r: f64,
}

/// Lanes per register of the line sweep: eight f64 lanes fill one
/// 512-bit (or two 256-bit) register.
const LANES: usize = 8;

/// The lanes of `v` summed by one fixed tree.
#[inline(always)]
fn tree_sum(v: &[f64; LANES]) -> f64 {
    ((v[0] + v[1]) + (v[2] + v[3])) + ((v[4] + v[5]) + (v[6] + v[7]))
}

/// `⟨a, b⟩` folded from zero in feature order.
#[inline(always)]
fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).fold(0.0, |acc, (s, v)| acc + s * v)
}

/// `eˣ` in plain arithmetic with no calls and no data-dependent
/// branches, so the line sweep vectorises it. Within 1 ulp of
/// [`f64::exp`] wherever the result is a normal number; 0 below −708
/// (where that result goes subnormal), +∞ above 710, NaN stays NaN.
///
/// Cody–Waite reduction `x = k·ln 2 + r`, `|r| ≤ ln 2 / 2`, with `ln 2`
/// split so `k·LN2_HI` is exact; `eʳ` as its degree-13 Taylor
/// polynomial in Horner form (truncation < 1e-17); and `2ᵏ` read off
/// the `1.5·2⁵²` magic add, which leaves `k` in the low mantissa bits.
/// The scale is built as `2ᵏ⁻¹` and the polynomial doubled first, so
/// `k = 1024` still encodes and `k = −1021` never goes subnormal.
#[inline(always)]
fn exp(x: f64) -> f64 {
    const MAGIC: f64 = 6_755_399_441_055_744.0;
    const LN2_HI: f64 = 6.931_471_803_691_238e-1;
    const LN2_LO: f64 = 1.908_214_929_270_587_7e-10;
    // 1/n! from n = 13 down to 0: eʳ's Taylor coefficients in Horner
    // order (n! is exact in f64 up to 13!, so each is correctly rounded).
    const INV_FACT: [f64; 14] = {
        let (mut c, mut f, mut n) = ([1.0; 14], 1.0, 1);
        while n < 14 {
            f *= n as f64;
            c[13 - n] = 1.0 / f;
            n += 1;
        }
        c
    };
    let t = x * std::f64::consts::LOG2_E + MAGIC;
    let k = t - MAGIC;
    let r = (x - k * LN2_HI) - k * LN2_LO;
    let p = INV_FACT.iter().fold(0.0, |p, &c| p * r + c);
    let scale = f64::from_bits(t.to_bits().wrapping_add(1022) << 52);
    let y = p * 2.0 * scale;
    if x < -708.0 {
        0.0
    } else if x > 710.0 {
        f64::INFINITY
    } else {
        y
    }
}

/// SMO solver state over the extended `2n`-variable problem. The α
/// block `s < n` has label `y_s = +1` and the α* block `s ≥ n` has
/// `y_s = −1`; both address base sample `s mod n`. Every scan over `2n`
/// runs as the two blocks side by side, so no loop needs a modulo.
struct Solver<'a> {
    params: &'a SvrParams,
    n: usize,
    /// Extended variables `(α, α*)`.
    alpha: Vec<f64>,
    /// Gradient of the dual objective.
    grad: Vec<f64>,
    /// Diagonal of the base kernel matrix.
    qd: Vec<f64>,
    rows: RowStore<'a>,
}

impl<'a> Solver<'a> {
    fn new(data: &'a Dataset, params: &'a SvrParams) -> Solver<'a> {
        let n = data.len();
        // p_s = ε − y_s for the α block, ε + y_s for the α* block;
        // gradient starts at p because α = 0.
        let mut grad = vec![0.0; 2 * n];
        for i in 0..n {
            grad[i] = params.epsilon - data.ys()[i];
            grad[n + i] = params.epsilon + data.ys()[i];
        }
        let qd = (0..n)
            .map(|i| {
                params
                    .kernel
                    .eval(data.xs()[i].as_slice(), data.xs()[i].as_slice())
            })
            .collect();
        Solver {
            params,
            n,
            alpha: vec![0.0; 2 * n],
            grad,
            qd,
            rows: RowStore::new(data.xs(), params.kernel, params.cache_rows),
        }
    }

    /// Extended label `y_s`.
    fn y(&self, s: usize) -> f64 {
        if s < self.n {
            1.0
        } else {
            -1.0
        }
    }

    /// The first-order half of the working set from scratch; the solve
    /// loop otherwise gathers it during the gradient update.
    fn pick_up(&self) -> Option<(usize, f64)> {
        let (a_lo, a_hi) = self.alpha.split_at(self.n);
        let (g_lo, g_hi) = self.grad.split_at(self.n);
        let mut up = UpPick::EMPTY;
        for t in 0..self.n {
            up.offer(t, a_lo[t], a_hi[t], g_lo[t], g_hi[t], self.params.c);
        }
        up.pick(self.n)
    }

    /// The second-order half of the working set (libsvm WSS3): the last
    /// `j ∈ I_low` minimising `−(g_max + y_j·G_j)² / quad(i, j)`, for the
    /// first-order pick `(i, g_max)`. `None` when the KKT gap is below
    /// tolerance. Row `i` must be resident.
    ///
    /// Like the first-order pick, one pass over the base indices keeps a
    /// `(value, t)` leader per block, taken on `<=` so the later index
    /// wins a tie, and the α* leader wins a tie between the blocks.
    fn pick_low(&self, i: usize, g_max: f64) -> Option<usize> {
        let n = self.n;
        let row_i = &self.rows.rows[i % n][..n];
        let (qd_i, c) = (self.qd[i % n], self.params.c);
        let qd = &self.qd[..n];
        let (a_lo, a_hi) = self.alpha.split_at(n);
        let (g_lo, g_hi) = self.grad.split_at(n);
        // Q_i[s] = y_i y_s K(i, s); `2 y_i y_s` is ±2, so exact.
        let two_lo = 2.0 * self.y(i);
        let two_hi = -two_lo;
        let mut g_max2 = f64::NEG_INFINITY;
        let (mut lo, mut hi) = ((f64::INFINITY, usize::MAX), (f64::INFINITY, usize::MAX));
        // Offer one variable with `y·G = yg` and `2 y_i y_s = two_yy`.
        let mut offer = |leader: &mut (f64, usize), t: usize, yg: f64, two_yy: f64| {
            g_max2 = g_max2.max(yg);
            let grad_diff = g_max + yg;
            if grad_diff > 0.0 {
                // Quad coefficient of the two-variable subproblem.
                let quad = qd_i + qd[t] - two_yy * row_i[t];
                let quad = if quad > 0.0 { quad } else { TAU };
                let obj = -(grad_diff * grad_diff) / quad;
                if obj <= leader.0 {
                    *leader = (obj, t);
                }
            }
        };
        for t in 0..n {
            // α_t ∈ I_low above 0, with y·G = G; α*_t below C, with −G.
            if a_lo[t] > 0.0 {
                offer(&mut lo, t, g_lo[t], two_lo);
            }
            if a_hi[t] < c {
                offer(&mut hi, t, -g_hi[t], two_hi);
            }
        }
        let j = if hi.1 != usize::MAX && hi.0 <= lo.0 {
            n + hi.1
        } else {
            lo.1
        };
        if g_max + g_max2 < self.params.tol || j == usize::MAX {
            return None;
        }
        Some(j)
    }

    /// Run SMO to convergence; returns the iteration count.
    fn solve(&mut self) -> usize {
        let max_iter = if self.params.max_iter == 0 {
            // libsvm heuristic: at least 10M, or 100 iterations per
            // variable for very large problems.
            (100 * 2 * self.n).max(10_000_000)
        } else {
            self.params.max_iter
        };
        let (n, c) = (self.n, self.params.c);
        let mut up = self.pick_up();
        let mut it = 0;
        while it < max_iter {
            let Some((i, g_max)) = up else {
                break;
            };
            let (i_base, y_i) = (i % n, self.y(i));
            self.rows.fetch(i_base);
            let Some(j) = self.pick_low(i, g_max) else {
                break;
            };
            it += 1;
            let (j_base, y_j) = (j % n, self.y(j));
            // Row i was used last, so fetching j never evicts it.
            self.rows.fetch(j_base);
            let k_ij = self.rows.rows[i_base][j_base];
            let (old_ai, old_aj) = (self.alpha[i], self.alpha[j]);
            if y_i != y_j {
                let quad = (self.qd[i_base] + self.qd[j_base] + 2.0 * k_ij).max(TAU);
                let delta = (-self.grad[i] - self.grad[j]) / quad;
                let diff = self.alpha[i] - self.alpha[j];
                self.alpha[i] += delta;
                self.alpha[j] += delta;
                if diff > 0.0 {
                    if self.alpha[j] < 0.0 {
                        self.alpha[j] = 0.0;
                        self.alpha[i] = diff;
                    }
                } else if self.alpha[i] < 0.0 {
                    self.alpha[i] = 0.0;
                    self.alpha[j] = -diff;
                }
                if diff > 0.0 {
                    if self.alpha[i] > c {
                        self.alpha[i] = c;
                        self.alpha[j] = c - diff;
                    }
                } else if self.alpha[j] > c {
                    self.alpha[j] = c;
                    self.alpha[i] = c + diff;
                }
            } else {
                let quad = (self.qd[i_base] + self.qd[j_base] - 2.0 * k_ij).max(TAU);
                let delta = (self.grad[i] - self.grad[j]) / quad;
                let sum = self.alpha[i] + self.alpha[j];
                self.alpha[i] -= delta;
                self.alpha[j] += delta;
                if sum > c {
                    if self.alpha[i] > c {
                        self.alpha[i] = c;
                        self.alpha[j] = sum - c;
                    }
                } else if self.alpha[j] < 0.0 {
                    self.alpha[j] = 0.0;
                    self.alpha[i] = sum;
                }
                if sum > c {
                    if self.alpha[j] > c {
                        self.alpha[j] = c;
                        self.alpha[i] = sum - c;
                    }
                } else if self.alpha[i] < 0.0 {
                    self.alpha[i] = 0.0;
                    self.alpha[j] = sum;
                }
            }
            let d_i = self.alpha[i] - old_ai;
            let d_j = self.alpha[j] - old_aj;
            up = if d_i != 0.0 || d_j != 0.0 {
                self.update_gradient(i_base, j_base, y_i * d_i, y_j * d_j)
            } else {
                // The gradient did not move; only α's signed zeros may
                // have, which no pick tells apart.
                self.pick_up()
            };
            debug_assert_eq!(up, self.pick_up(), "the fused pick is the scan's");
        }
        it
    }

    /// Gradient maintenance, `G_t += Q_it Δα_i + Q_jt Δα_j` with
    /// `Q_st = y_s y_t K(s, t)`, for `ci = y_i Δα_i` and `cj = y_j Δα_j`:
    /// the α block gains `K_it·ci + K_jt·cj` and the α* block loses it.
    /// The same pass offers each updated pair to the next iteration's
    /// first-order pick, which it returns. Rows `i` and `j` must be
    /// resident.
    fn update_gradient(
        &mut self,
        i_base: usize,
        j_base: usize,
        ci: f64,
        cj: f64,
    ) -> Option<(usize, f64)> {
        let n = self.n;
        let row_i = &self.rows.rows[i_base][..n];
        let row_j = &self.rows.rows[j_base][..n];
        let (a_lo, a_hi) = self.alpha.split_at(n);
        let (g_lo, g_hi) = self.grad.split_at_mut(n);
        let mut up = UpPick::EMPTY;
        for t in 0..n {
            let delta = row_i[t] * ci + row_j[t] * cj;
            g_lo[t] += delta;
            g_hi[t] -= delta;
            up.offer(t, a_lo[t], a_hi[t], g_lo[t], g_hi[t], self.params.c);
        }
        up.pick(n)
    }

    /// Bias from the KKT conditions (libsvm `calculate_rho`, negated).
    fn bias(&self) -> f64 {
        let c = self.params.c;
        let mut ub = f64::INFINITY;
        let mut lb = f64::NEG_INFINITY;
        let mut sum_free = 0.0;
        let mut nr_free = 0usize;
        for s in 0..2 * self.n {
            let y_s = self.y(s);
            let yg = y_s * self.grad[s];
            if self.alpha[s] >= c {
                if y_s < 0.0 {
                    ub = ub.min(yg);
                } else {
                    lb = lb.max(yg);
                }
            } else if self.alpha[s] <= 0.0 {
                if y_s > 0.0 {
                    ub = ub.min(yg);
                } else {
                    lb = lb.max(yg);
                }
            } else {
                nr_free += 1;
                sum_free += yg;
            }
        }
        let rho = if nr_free > 0 {
            sum_free / nr_free as f64
        } else {
            (ub + lb) / 2.0
        };
        -rho
    }
}

/// The first-order half of the working set: the last `s` in `0..2n`
/// maximising `−y_s·G_s` over `I_up`, gathered one base index `t` at a
/// time for both blocks at once. Each block keeps its own `(value, t)`
/// leader, taken on `>=` so the later index wins a tie; the α* block
/// comes after the α block in `0..2n`, so it wins a tie between them.
#[derive(Clone, Copy)]
struct UpPick {
    lo: (f64, usize),
    hi: (f64, usize),
}

impl UpPick {
    const EMPTY: UpPick = UpPick {
        lo: (f64::NEG_INFINITY, usize::MAX),
        hi: (f64::NEG_INFINITY, usize::MAX),
    };

    /// Offer base index `t`: `α_t` with gradient `g_lo`, `α*_t` with
    /// gradient `g_hi`.
    #[inline(always)]
    fn offer(&mut self, t: usize, a_lo: f64, a_hi: f64, g_lo: f64, g_hi: f64, c: f64) {
        // α_t ∈ I_up below C, with −y·G = −G; α*_t above 0, with G.
        if a_lo < c && -g_lo >= self.lo.0 {
            self.lo = (-g_lo, t);
        }
        if a_hi > 0.0 && g_hi >= self.hi.0 {
            self.hi = (g_hi, t);
        }
    }

    /// `(i, −y_i·G_i)` in extended indexing, or `None` when `I_up` is
    /// empty.
    fn pick(self, n: usize) -> Option<(usize, f64)> {
        if self.hi.1 != usize::MAX && self.hi.0 >= self.lo.0 {
            Some((n + self.hi.1, self.hi.0))
        } else if self.lo.1 != usize::MAX {
            Some((self.lo.1, self.lo.0))
        } else {
            None
        }
    }
}

/// Base-kernel rows `K(x_i, ·)`, indexed by sample and each computed on
/// first use. At most `capacity` rows are resident: past that, the
/// least recently used row is dropped and recomputed on its next use.
/// A row is a pure function of its index, so eviction changes time,
/// never bits.
struct RowStore<'a> {
    xs: &'a [Vec<f64>],
    kernel: SvmKernel,
    capacity: usize,
    /// Row `i`, or empty while it is not resident.
    rows: Vec<Vec<f64>>,
    /// When each row was last fetched.
    stamps: Vec<u64>,
    resident: usize,
    clock: u64,
}

impl<'a> RowStore<'a> {
    fn new(xs: &'a [Vec<f64>], kernel: SvmKernel, capacity: usize) -> RowStore<'a> {
        RowStore {
            xs,
            kernel,
            capacity: capacity.max(2),
            rows: vec![Vec::new(); xs.len()],
            stamps: vec![0; xs.len()],
            resident: 0,
            clock: 0,
        }
    }

    /// Make row `i` resident and its most recently used.
    fn fetch(&mut self, i: usize) {
        self.clock += 1;
        self.stamps[i] = self.clock;
        if !self.rows[i].is_empty() {
            return;
        }
        if self.resident == self.capacity {
            let oldest = (0..self.rows.len())
                .filter(|&k| !self.rows[k].is_empty())
                .min_by_key(|&k| self.stamps[k])
                .expect("a full store has a resident row");
            self.rows[oldest] = Vec::new();
            self.resident -= 1;
        }
        let (xs, kernel) = (self.xs, self.kernel);
        self.rows[i] = xs.iter().map(|x| kernel.eval(&xs[i], x)).collect();
        self.resident += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn linear_data(n: usize, noise: f64, seed: u64) -> Dataset {
        // y = 2 x0 - 3 x1 + 0.5 + noise
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut d = Dataset::new();
        for _ in 0..n {
            let x0: f64 = rng.gen_range(0.0..1.0);
            let x1: f64 = rng.gen_range(0.0..1.0);
            let e: f64 = rng.gen_range(-noise..=noise);
            d.push(vec![x0, x1], 2.0 * x0 - 3.0 * x1 + 0.5 + e);
        }
        d
    }

    #[test]
    fn linear_svr_recovers_linear_function() {
        let data = linear_data(120, 0.0, 1);
        let params = SvrParams {
            epsilon: 0.01,
            ..SvrParams::paper_speedup()
        };
        let model = train_svr(&data, &params);
        // Predictions within the ε-tube (plus solver tolerance).
        for (x, y) in data.xs().iter().zip(data.ys()) {
            let p = model.predict(x);
            assert!((p - y).abs() < 0.05, "pred {p} vs {y}");
        }
    }

    #[test]
    fn rbf_svr_fits_nonlinear_function() {
        // y = sin(4 x) — linear models cannot fit this.
        let mut data = Dataset::new();
        for i in 0..100 {
            let x = i as f64 / 99.0;
            data.push(vec![x], (4.0 * x).sin());
        }
        let params = SvrParams {
            epsilon: 0.01,
            kernel: SvmKernel::Rbf { gamma: 10.0 },
            ..SvrParams::paper_energy()
        };
        let model = train_svr(&data, &params);
        for i in 0..100 {
            let x = i as f64 / 99.0;
            let p = model.predict(&[x]);
            assert!((p - (4.0 * x).sin()).abs() < 0.08, "at {x}: {p}");
        }
    }

    #[test]
    fn epsilon_tube_limits_support_vectors() {
        // With a wide tube, most points are inside it and few SVs remain.
        let data = linear_data(200, 0.01, 3);
        let narrow = train_svr(
            &data,
            &SvrParams {
                epsilon: 0.001,
                ..SvrParams::paper_speedup()
            },
        );
        let wide = train_svr(
            &data,
            &SvrParams {
                epsilon: 0.5,
                ..SvrParams::paper_speedup()
            },
        );
        assert!(wide.num_support_vectors() < narrow.num_support_vectors());
    }

    #[test]
    fn noisy_data_stays_within_epsilon_plus_noise() {
        let data = linear_data(150, 0.05, 7);
        let model = train_svr(
            &data,
            &SvrParams {
                epsilon: 0.1,
                ..SvrParams::paper_speedup()
            },
        );
        let preds = model.predict_batch(data.xs());
        let rmse = crate::metrics::rmse(data.ys(), &preds);
        assert!(rmse < 0.12, "rmse {rmse}");
    }

    #[test]
    fn constant_target_learns_bias() {
        let mut data = Dataset::new();
        for i in 0..20 {
            data.push(vec![i as f64 / 20.0], 3.5);
        }
        let model = train_svr(&data, &SvrParams::paper_speedup());
        assert!((model.predict(&[0.3]) - 3.5).abs() < 0.11); // within ε
    }

    #[test]
    fn single_sample_trains() {
        let mut data = Dataset::new();
        data.push(vec![1.0], 2.0);
        let model = train_svr(&data, &SvrParams::paper_speedup());
        assert!((model.predict(&[1.0]) - 2.0).abs() < 0.2);
    }

    #[test]
    fn deterministic_training() {
        let data = linear_data(80, 0.02, 11);
        let a = train_svr(&data, &SvrParams::paper_speedup());
        let b = train_svr(&data, &SvrParams::paper_speedup());
        assert_eq!(a, b);
    }

    #[test]
    fn tiny_cache_still_converges() {
        let data = linear_data(60, 0.0, 13);
        let params = SvrParams {
            cache_rows: 2,
            epsilon: 0.01,
            ..SvrParams::paper_speedup()
        };
        let model = train_svr(&data, &params);
        for (x, y) in data.xs().iter().zip(data.ys()) {
            assert!((model.predict(x) - y).abs() < 0.05);
        }
        // Evicting and recomputing rows changes time, never the model.
        let roomy = SvrParams {
            cache_rows: SvrParams::paper_speedup().cache_rows,
            ..params
        };
        assert_eq!(model, train_svr(&data, &roomy));
    }

    #[test]
    fn both_picks_give_a_cross_block_tie_to_the_later_index() {
        // x_1 = 0 is orthogonal to every row, so α_1 and α*_1 offer the
        // second-order pick the same quad, and with G_3 = −G_1 the same
        // gain: a `0..2n` scan keeps the later one, α*_1 (s = 3).
        let mut data = Dataset::new();
        data.push(vec![1.0], 0.0);
        data.push(vec![0.0], 0.0);
        let params = SvrParams {
            epsilon: 0.0,
            ..SvrParams::paper_speedup()
        };
        let mut solver = Solver::new(&data, &params);
        // Every variable is in I_up; only α_1 and α*_1 are in I_low.
        solver.alpha = vec![0.0, 1.0, params.c, 1.0];
        // −y·G over s = 0..4: −0.5, 0.25, −0.5, 0.25.
        solver.grad = vec![0.5, -0.25, -0.5, 0.25];
        assert_eq!(solver.pick_up(), Some((3, 0.25)));
        solver.rows.fetch(0);
        assert_eq!(solver.pick_low(0, 1.0), Some(3));
    }

    #[test]
    #[should_panic(expected = "empty dataset")]
    fn empty_dataset_panics() {
        train_svr(&Dataset::new(), &SvrParams::paper_speedup());
    }

    /// A trained model of each kernel family, for plan pinning.
    fn trained_models() -> Vec<SvrModel> {
        let data = linear_data(60, 0.02, 17);
        vec![
            train_svr(&data, &SvrParams::paper_speedup()),
            train_svr(&data, &SvrParams::paper_energy()),
        ]
    }

    /// Core clocks in whole MHz from `lo` by a repeating pattern of
    /// steps, scaled to `[0, 1]` over 135–1189 MHz as the served rows
    /// scale them: equal MHz steps, unequal in their last bits.
    fn clock_grid(lo: u32, pattern: &[u32], n: usize) -> LineGrid {
        let mut mhz = lo;
        let ts = (0..n)
            .map(|k| {
                if k > 0 {
                    mhz += pattern[(k - 1) % pattern.len()];
                }
                (f64::from(mhz) - 135.0) / (1189.0 - 135.0)
            })
            .collect();
        LineGrid::new(ts)
    }

    #[test]
    fn scoring_plan_is_within_1e12_of_predict() {
        let mut rng = SmallRng::seed_from_u64(23);
        for model in trained_models() {
            let plan = model.scoring_plan();
            assert_eq!(plan.num_support_vectors(), model.num_support_vectors());
            for _ in 0..50 {
                let x: Vec<f64> = (0..plan.dims()).map(|_| rng.gen_range(-2.0..2.0)).collect();
                // Relative to |bias| + Σ|βᵢ·K(svᵢ, x)|, the scale of
                // predict's own rounding error.
                let terms = model.support_x.iter().zip(&model.beta);
                let scale = terms.fold(model.bias.abs(), |m, (sv, b)| {
                    m + (b * model.kernel.eval(sv, &x)).abs()
                });
                let (got, want) = (plan.score(&x), model.predict(&x));
                assert!((got - want).abs() <= 1e-12 * scale, "{got} vs {want}");
            }
        }
    }

    #[test]
    fn line_lanes_match_single_point_calls() {
        let mut rng = SmallRng::seed_from_u64(29);
        for model in trained_models() {
            let plan = model.scoring_plan();
            let mut point =
                || -> Vec<f64> { (0..plan.dims()).map(|_| rng.gen_range(-2.0..2.0)).collect() };
            let (origin, dir) = (point(), point());
            // Lines shorter and longer than every SIMD width.
            for n in [1, 3, 8, 11, 32, 71] {
                let ts: Vec<f64> = (0..n).map(|k| k as f64 / n as f64).collect();
                let mut out = vec![0.0; n];
                plan.score_line_into(&origin, &dir, Points::Free(&ts), &mut out);
                for (&t, got) in ts.iter().zip(&out) {
                    let mut single = [0.0];
                    plan.score_line_into(&origin, &dir, Points::Free(&[t]), &mut single);
                    assert_eq!(got.to_bits(), single[0].to_bits());
                }
                let grid = clock_grid(135, &[12, 15, 16, 18], n);
                let at: Vec<usize> = (0..n).rev().collect();
                plan.score_line_into(&origin, &dir, Points::Grid(&grid, &at), &mut out);
                for (&k, got) in at.iter().zip(&out) {
                    let mut single = [0.0];
                    plan.score_line_into(&origin, &dir, Points::Grid(&grid, &[k]), &mut single);
                    assert_eq!(got.to_bits(), single[0].to_bits(), "n = {n}, k = {k}");
                }
            }
        }
    }

    #[test]
    fn equal_clock_steps_group_by_value() {
        // Titan X's 71-clock domain steps 12, 15, 16 and 18 MHz.
        let grid = clock_grid(135, &[12, 15, 16, 18], 71);
        assert!(grid.is_stepped());
        assert_eq!(grid.steps.len(), 4);
        assert!(grid.drift <= 1e-15, "drift {}", grid.drift);
        let bits: std::collections::BTreeSet<u64> = grid
            .ts()
            .windows(2)
            .map(|w| (w[1] - w[0]).to_bits())
            .collect();
        assert!(bits.len() > 4, "the scaled steps differ in their bits");
        // Too few points for the exps stepping costs, or too many
        // distinct gaps: scored directly.
        assert!(!clock_grid(135, &[12, 15, 16, 18], 6).is_stepped());
        assert!(!clock_grid(135, &[1, 2, 3, 4, 5, 6, 7, 8, 9], 80).is_stepped());
        assert!(!clock_grid(135, &[13], 3).is_stepped());
        assert!(clock_grid(135, &[13], 4).is_stepped());
        assert_eq!(grid.index_of(grid.ts()[40]), Some(40));
        assert_eq!(grid.index_of(grid.ts()[40] + 1e-12), None);
        assert_eq!(grid.index_of(-1.0), None);
        assert_eq!(grid.index_of(2.0), None);
    }

    #[test]
    fn served_shaped_lines_step() {
        // A trained energy head on a line through the unit cube, as the
        // served rows are: the guard lets every grid shape through.
        let model = &trained_models()[1];
        let plan = model.scoring_plan();
        let (origin, dir) = ([0.3, 0.6], [0.2, -0.4]);
        let (p, q) = plan.line_terms(&origin, &dir);
        let line = RbfLine {
            gamma: 0.1,
            p: &p,
            q: &q,
            r: dot(&dir, &dir),
        };
        for (pattern, n) in [
            (&[12, 15, 16, 18][..], 71),
            (&[17, 21, 22, 27], 50),
            (&[13], 9),
        ] {
            let grid = clock_grid(135, pattern, n);
            let at: Vec<usize> = (0..n).collect();
            let mut out = vec![0.0; n];
            assert!(plan.step(&line, &grid, &at, &mut out), "{pattern:?}");
        }
    }

    #[test]
    fn plain_sweep_has_the_dispatched_bits() {
        let mut rng = SmallRng::seed_from_u64(31);
        for model in trained_models() {
            let plan = model.scoring_plan();
            for n in [1, 7, 50, 71] {
                let mut point =
                    || -> Vec<f64> { (0..plan.dims()).map(|_| rng.gen_range(-1.0..1.0)).collect() };
                let (origin, dir) = (point(), point());
                let grid = clock_grid(135, &[17, 21, 22, 27], n);
                let at: Vec<usize> = (0..n).collect();
                for points in [Points::Grid(&grid, &at), Points::Free(grid.ts())] {
                    let (mut plain, mut dispatched) = (vec![0.0; n], vec![0.0; n]);
                    plan.sweep(&origin, &dir, points, &mut plain);
                    plan.score_line_into(&origin, &dir, points, &mut dispatched);
                    for (a, b) in plain.iter().zip(&dispatched) {
                        assert_eq!(a.to_bits(), b.to_bits(), "n = {n}");
                    }
                }
            }
        }
    }

    /// Distance in ulps between two finite values of the same sign.
    fn ulps(a: f64, b: f64) -> u64 {
        (a.to_bits() as i64).abs_diff(b.to_bits() as i64)
    }

    #[test]
    fn exp_is_within_one_ulp_of_libm() {
        // Miri interprets every flop; a coarser grid keeps it in time.
        let steps: u32 = if cfg!(miri) { 2_000 } else { 2_000_000 };
        for i in 0..=steps {
            let x = -745.0 * f64::from(i) / f64::from(steps);
            if x < -708.0 {
                assert_eq!(exp(x).to_bits(), 0.0f64.to_bits(), "exp({x})");
            } else {
                assert!(ulps(exp(x), x.exp()) <= 1, "exp({x}) = {}", exp(x));
            }
        }
        for x in [
            -1e-9, -1e-17, -1e-300, 1e-300, 1e-9, 0.5, 100.0, 709.0, 709.78,
        ] {
            assert!(ulps(exp(x), x.exp()) <= 1, "exp({x}) = {}", exp(x));
        }
        assert_eq!(exp(0.0).to_bits(), 1.0f64.to_bits());
        assert_eq!(exp(-0.0).to_bits(), 1.0f64.to_bits());
        assert_eq!(exp(f64::NEG_INFINITY).to_bits(), 0.0f64.to_bits());
        assert_eq!(exp(f64::INFINITY), f64::INFINITY);
        assert_eq!(exp(709.8), f64::INFINITY);
        assert_eq!(exp(1e300), f64::INFINITY);
        assert!(exp(f64::NAN).is_nan());
    }

    #[test]
    fn empty_model_plan_scores_bias() {
        let model = SvrModel::from_parts(SvmKernel::Linear, Vec::new(), Vec::new(), 1.25);
        let plan = model.scoring_plan();
        assert_eq!(plan.dims(), 0);
        assert_eq!(plan.score(&[]).to_bits(), 1.25f64.to_bits());
    }

    #[test]
    fn predict_batch_accepts_slices_and_owned_rows() {
        let data = linear_data(40, 0.0, 37);
        let model = train_svr(&data, &SvrParams::paper_speedup());
        let owned: Vec<Vec<f64>> = data.xs().to_vec();
        let borrowed: Vec<&[f64]> = owned.iter().map(Vec::as_slice).collect();
        assert_eq!(model.predict_batch(&owned), model.predict_batch(&borrowed));
    }
}
