//! Generated inputs: the wide latent-factor training set, its fairness
//! graph, a drifted traffic window, and the request vectors the serving
//! workloads send.
//!
//! The repository's simulated datasets have about ten columns, which makes
//! float parsing, formatting and the projection GEMM invisible next to the
//! socket. The wide set has the real Communities & Crime width instead.

use crate::rng::Rng;
use pfr::data::Dataset;
use pfr::graph::{fairness, SparseGraph};
use pfr::linalg::Matrix;

pub const WIDE_ROWS: usize = 2048;
pub const WIDE_COLS: usize = 96;
pub const WIDE_DIM: usize = 8;
pub const WINDOW_ROWS: usize = 256;
/// Column of the binary protected flag inside every wide feature vector.
pub const PROTECTED_COLUMN: usize = 0;
const QUANTILES: usize = 5;

/// Rows of wide traffic: column 0 is the protected flag, every other column
/// loads on three latent factors with its own loadings and noise scale, so
/// the PFR objective has a structured spectrum like real tabular data.
/// Returns the rows and the first latent factor (the deservingness signal
/// labels and rankings derive from). `shift` moves every real-valued
/// column: the drift knob.
fn wide_rows(rng: &mut Rng, n: usize, shift: f64) -> (Matrix, Vec<f64>) {
    // Column structure is fixed: every seed and every window shares the
    // same feature semantics.
    let mut columns = Rng::new(0x51ab_c0ff_ee00_0001);
    let loadings: Vec<[f64; 4]> = (0..WIDE_COLS)
        .map(|j| {
            [
                0.5 + columns.uniform(),
                columns.uniform() - 0.5,
                columns.uniform() - 0.5,
                0.05 + 0.9 * j as f64 / WIDE_COLS as f64,
            ]
        })
        .collect();
    let mut x = Matrix::zeros(n, WIDE_COLS);
    let mut merit = Vec::with_capacity(n);
    for i in 0..n {
        let protected = rng.uniform() < 0.4;
        let factors = [rng.normal(), rng.normal(), rng.normal()];
        let row = x.row_mut(i);
        row[PROTECTED_COLUMN] = f64::from(u8::from(protected));
        for (j, [a, b, c, noise]) in loadings.iter().enumerate().skip(1) {
            // The protected group's observed attributes are depressed, as
            // in the paper's admissions example.
            let bias = if protected { -0.3 * a } else { 0.0 };
            row[j] = shift
                + bias
                + a * factors[0]
                + b * factors[1]
                + c * factors[2]
                + noise * rng.normal();
        }
        merit.push(factors[0]);
    }
    (x, merit)
}

/// The wide training set and its between-group quantile fairness graph.
pub fn wide_dataset(seed: u64) -> (Dataset, SparseGraph) {
    let mut rng = Rng::new(seed ^ 0x77_1de5);
    let (x, merit) = wide_rows(&mut rng, WIDE_ROWS, 0.0);
    let groups: Vec<usize> = (0..WIDE_ROWS)
        .map(|i| x[(i, PROTECTED_COLUMN)] as usize)
        .collect();
    let labels: Vec<u8> = merit
        .iter()
        .map(|m| u8::from(m + 0.5 * rng.normal() > 0.0))
        .collect();
    // Within-group rankings: a noisy view of merit, comparable only inside
    // a group (Definition 2 of the paper).
    let ranking: Vec<f64> = merit.iter().map(|m| m + 0.3 * rng.normal()).collect();
    let wf = fairness::between_group_quantile_graph(&groups, &ranking, QUANTILES)
        .expect("fairness graph builds");
    let names = (0..WIDE_COLS).map(|j| format!("c{j}")).collect();
    let side = ranking.into_iter().map(Some).collect();
    let dataset = Dataset::new("wide-latent", x, names, labels, groups, side)
        .expect("generated dataset is well formed");
    (dataset, wf)
}

/// A traffic window whose real-valued columns drifted by 0.8.
pub fn drifted_window(seed: u64) -> Matrix {
    wide_rows(&mut Rng::new(seed ^ 0xd21f_7000), WINDOW_ROWS, 0.8).0
}

/// Request vectors derived from training rows: vector `index` is row
/// `index % n` with one coordinate nudged by the cycle count, so every
/// index yields a distinct vector (a distinct cache key) while all share
/// the data's full-precision float text.
#[derive(Debug, Clone)]
pub struct Requests {
    rows: Matrix,
}

impl Requests {
    pub fn new(rows: Matrix) -> Requests {
        Requests { rows }
    }

    pub fn fill(&self, index: u64, out: &mut Vec<f64>) {
        let n = self.rows.rows() as u64;
        let m = self.rows.cols() as u64;
        out.clear();
        out.extend_from_slice(self.rows.row((index % n) as usize));
        // Never the protected flag; the nudge is unique per (row, cycle).
        let column = 1 + ((index / n) % (m - 1)) as usize;
        out[column] += (1 + index / n) as f64 * 9.765_625e-4;
    }

    pub fn vector(&self, index: u64) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.rows.cols());
        self.fill(index, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn wide_dataset_is_seed_deterministic_and_wide() {
        let (a, wf) = wide_dataset(42);
        let (b, _) = wide_dataset(42);
        let (c, _) = wide_dataset(43);
        assert_eq!(a.features().shape(), (WIDE_ROWS, WIDE_COLS));
        assert_eq!(a.features().as_slice(), b.features().as_slice());
        assert_ne!(a.features().as_slice(), c.features().as_slice());
        assert_eq!(wf.num_nodes(), WIDE_ROWS);
        assert!(a.group_size(0) > 0 && a.group_size(1) > 0);
        assert_eq!(drifted_window(42).shape(), (WINDOW_ROWS, WIDE_COLS));
    }

    #[test]
    fn request_vectors_are_pairwise_distinct() {
        let (ds, _) = wide_dataset(1);
        let requests = Requests::new(ds.features().clone());
        let mut seen = HashSet::new();
        for index in 0..3 * WIDE_ROWS as u64 {
            let bits: Vec<u64> = requests.vector(index).iter().map(|v| v.to_bits()).collect();
            assert!(seen.insert(bits), "vector {index} repeats an earlier one");
        }
    }
}
