//! Benchmark dataset registry (Table 2 of the paper).
//!
//! The paper evaluates on four SNAP graphs (Vote, Epinions, Slashdot,
//! Twitter) and two Graph500 R-MAT graphs (R14, R16). This environment has
//! no network access, so the SNAP graphs are *synthesized stand-ins*:
//! power-law graphs with the same vertex count, edge count, and mean degree
//! as the originals. The R-MAT graphs are generated exactly as in the
//! paper.

use crate::csr::Csr;
use crate::gen::{power_law, rmat, RmatConfig};
use crate::stats::DegreeStats;
use std::fmt;

/// The six benchmark datasets of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Dataset {
    /// Wikipedia who-votes-on-whom (VT): 7K vertices, 0.10M edges, degree 15.
    Vote,
    /// Epinions who-trusts-whom (EP): 76K vertices, 0.51M edges, degree 7.
    Epinions,
    /// Slashdot social network (SL): 82K vertices, 0.95M edges, degree 12.
    Slashdot,
    /// Twitter social circles (TW): 81K vertices, 1.77M edges, degree 22.
    Twitter,
    /// Synthetic Graph500 R-MAT scale 14 (R14): 16K vertices, 1.05M edges.
    Rmat14,
    /// Synthetic Graph500 R-MAT scale 16 (R16): 66K vertices, 4.19M edges.
    Rmat16,
}

impl Dataset {
    /// All datasets in Table 2 order.
    pub const ALL: [Dataset; 6] = [
        Dataset::Vote,
        Dataset::Epinions,
        Dataset::Slashdot,
        Dataset::Twitter,
        Dataset::Rmat14,
        Dataset::Rmat16,
    ];

    /// The real-world (SNAP stand-in) subset.
    pub const REAL_WORLD: [Dataset; 4] = [
        Dataset::Vote,
        Dataset::Epinions,
        Dataset::Slashdot,
        Dataset::Twitter,
    ];

    /// Two-letter abbreviation used in the paper's figures.
    pub fn abbrev(self) -> &'static str {
        match self {
            Dataset::Vote => "VT",
            Dataset::Epinions => "EP",
            Dataset::Slashdot => "SL",
            Dataset::Twitter => "TW",
            Dataset::Rmat14 => "R14",
            Dataset::Rmat16 => "R16",
        }
    }

    /// The Table 2 row for this dataset.
    pub fn spec(self) -> DatasetSpec {
        match self {
            Dataset::Vote => DatasetSpec {
                dataset: self,
                name: "Vote",
                num_vertices: 7_115,
                num_edges: 103_689,
                mean_degree: 15,
                description: "Wikipedia who-votes-on-whom (synthetic stand-in)",
                synthetic: false,
            },
            Dataset::Epinions => DatasetSpec {
                dataset: self,
                name: "Epinions",
                num_vertices: 75_879,
                num_edges: 508_837,
                mean_degree: 7,
                description: "Epinions who-trusts-whom (synthetic stand-in)",
                synthetic: false,
            },
            Dataset::Slashdot => DatasetSpec {
                dataset: self,
                name: "Slashdot",
                num_vertices: 82_168,
                num_edges: 948_464,
                mean_degree: 12,
                description: "Slashdot social network (synthetic stand-in)",
                synthetic: false,
            },
            Dataset::Twitter => DatasetSpec {
                dataset: self,
                name: "Twitter",
                num_vertices: 81_306,
                num_edges: 1_768_149,
                mean_degree: 22,
                description: "Twitter social circles (synthetic stand-in)",
                synthetic: false,
            },
            Dataset::Rmat14 => DatasetSpec {
                dataset: self,
                name: "RMAT14",
                num_vertices: 1 << 14,
                num_edges: 64 << 14,
                mean_degree: 64,
                description: "Synthetic Graph500 R-MAT, scale 14",
                synthetic: true,
            },
            Dataset::Rmat16 => DatasetSpec {
                dataset: self,
                name: "RMAT16",
                num_vertices: 1 << 16,
                num_edges: 64 << 16,
                mean_degree: 64,
                description: "Synthetic Graph500 R-MAT, scale 16",
                synthetic: true,
            },
        }
    }

    /// Builds the dataset at full Table 2 scale.
    ///
    /// Deterministic: the same dataset is produced on every call.
    pub fn build(self) -> Csr {
        self.build_scaled(1)
    }

    /// Builds the dataset with vertex and edge counts divided by
    /// `divisor` (R-MAT scale reduced by `log2(divisor)`), preserving mean
    /// degree and distribution shape. `divisor = 1` is full scale.
    ///
    /// Scaled-down builds keep experiments fast in CI while the `--full`
    /// mode of the reproduction harness uses `divisor = 1`.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero or not a power of two, or if scaling
    /// would eliminate the whole graph.
    pub fn build_scaled(self, divisor: u32) -> Csr {
        // lint:allow(panic-freedom): internal helper contract: divisors are the compile-time constants below
        assert!(divisor > 0 && divisor.is_power_of_two());
        let spec = self.spec();
        let seed = 0xD0C5 ^ (self as u64);
        match self {
            Dataset::Rmat14 | Dataset::Rmat16 => {
                let scale = if self == Dataset::Rmat14 { 14 } else { 16 };
                let scale = scale - divisor.trailing_zeros();
                // lint:allow(panic-freedom): documented panic: a scaled-down dataset must keep a usable vertex count
                assert!(scale >= 4, "divisor too large for {self}");
                rmat(&RmatConfig::graph500(scale), seed)
            }
            _ => {
                let n = (spec.num_vertices / divisor).max(16);
                let m = (spec.num_edges / u64::from(divisor)).max(64);
                power_law(n, m, 2.0, 63, seed)
            }
        }
    }

    /// Verifies a built graph against its spec (used in tests and the
    /// `repro table2` harness).
    pub fn verify(self, graph: &Csr) -> bool {
        let spec = self.spec();
        let stats = DegreeStats::of(graph);
        graph.num_vertices() == spec.num_vertices
            && graph.num_edges() == spec.num_edges
            && (stats.mean - spec.mean_degree as f64).abs() / spec.mean_degree as f64 <= 0.55
    }
}

impl fmt::Display for Dataset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.abbrev())
    }
}

/// One row of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatasetSpec {
    /// The dataset this row describes.
    pub dataset: Dataset,
    /// Full name.
    pub name: &'static str,
    /// `#Vertices`.
    pub num_vertices: u32,
    /// `#Edges`.
    pub num_edges: u64,
    /// `#Degree` (mean out-degree, rounded as in the paper).
    pub mean_degree: u32,
    /// Description column.
    pub description: &'static str,
    /// Whether the paper itself lists this row as synthetic.
    pub synthetic: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_match_table2() {
        assert_eq!(Dataset::Vote.spec().num_vertices, 7_115);
        assert_eq!(Dataset::Rmat14.spec().num_vertices, 16_384);
        assert_eq!(Dataset::Rmat14.spec().num_edges, 1_048_576);
        assert_eq!(Dataset::Rmat16.spec().num_edges, 4_194_304);
        assert_eq!(Dataset::Twitter.spec().mean_degree, 22);
    }

    #[test]
    fn abbrevs_are_paper_labels() {
        let labels: Vec<_> = Dataset::ALL.iter().map(|d| d.abbrev()).collect();
        assert_eq!(labels, ["VT", "EP", "SL", "TW", "R14", "R16"]);
    }

    #[test]
    fn scaled_build_preserves_mean_degree() {
        let g = Dataset::Twitter.build_scaled(16);
        let spec = Dataset::Twitter.spec();
        let stats = DegreeStats::of(&g);
        let expected = spec.num_edges as f64 / f64::from(spec.num_vertices);
        assert!((stats.mean - expected).abs() / expected < 0.2);
    }

    #[test]
    fn vote_full_build_verifies() {
        // Vote is the smallest real-world graph; full-scale build is cheap.
        let g = Dataset::Vote.build();
        assert!(Dataset::Vote.verify(&g));
    }

    #[test]
    fn rmat14_scaled_is_rmat() {
        let g = Dataset::Rmat14.build_scaled(16); // scale 10
        assert_eq!(g.num_vertices(), 1 << 10);
        assert_eq!(g.num_edges(), 64 << 10);
    }

    /// Every experiment's inputs: the stand-ins' content hashes, pinned
    /// so a generator change that alters any edge, weight or offset
    /// fails here rather than as drifted cycle counts.
    #[test]
    fn stand_in_content_hashes_are_pinned() {
        const PINNED: [(Dataset, u32, u64); 16] = [
            (Dataset::Vote, 1, 0x9bbd_e0d5_597d_57f9),
            (Dataset::Vote, 4, 0x33c6_a9b3_3e30_0370),
            (Dataset::Vote, 16, 0xf562_3953_8e46_30df),
            (Dataset::Vote, 32, 0xdc82_e76e_7967_60f6),
            (Dataset::Epinions, 1, 0x5a3d_655d_c748_d36c),
            (Dataset::Epinions, 4, 0xc838_33b2_62cd_0032),
            (Dataset::Epinions, 16, 0x57d7_e799_d63d_bcf1),
            (Dataset::Epinions, 32, 0xd7e8_1bbd_55c8_c0d3),
            (Dataset::Slashdot, 1, 0x386a_b4ec_1ef6_ffd7),
            (Dataset::Slashdot, 4, 0x4c6f_d250_877e_0371),
            (Dataset::Slashdot, 16, 0x34bc_352e_74a2_41da),
            (Dataset::Slashdot, 32, 0x48aa_5dd2_20af_1c22),
            (Dataset::Twitter, 1, 0x5d1d_f9da_ed4e_87ec),
            (Dataset::Twitter, 4, 0x4e37_33cc_f957_f6fa),
            (Dataset::Twitter, 16, 0xc878_6f2f_7578_f90b),
            (Dataset::Twitter, 32, 0xed17_4d58_fdcd_2dff),
        ];
        for (dataset, divisor, hash) in PINNED {
            assert_eq!(
                dataset.build_scaled(divisor).content_hash(),
                hash,
                "{dataset} / {divisor}"
            );
        }
    }

    #[test]
    fn builds_are_deterministic() {
        let a = Dataset::Vote.build_scaled(8);
        let b = Dataset::Vote.build_scaled(8);
        assert_eq!(a, b);
    }
}
