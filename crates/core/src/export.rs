//! CSV export of figure data.
//!
//! Every figure can be dumped as plain CSV so the ASCII charts can be
//! re-plotted with real tooling (`repro --csv DIR` writes one file per
//! figure). No external dependencies — the data is simple enough that a
//! minimal writer with proper quoting suffices.
//!
//! Writes are crash-safe: each file goes through the one atomic writer,
//! [`write_atomic_bytes`] (re-exported from [`crate::record`]), so a run
//! killed mid-export never leaves a truncated CSV behind. I/O failures
//! surface as [`BbError::Io`](crate::BbError::Io) with the file being
//! written as context.

pub use crate::record::write_atomic_bytes;

use crate::error::BbResult;
use crate::figures::{Coverage, Fig1, Fig2, Fig3, Fig4, Fig5};
use std::io::Write;
use std::path::Path;

/// Escape one CSV field (RFC 4180 quoting).
pub fn csv_field(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Coverage disclosure as a leading `#` comment line, so CSV consumers can
/// tell a degraded run from a full one without reading the rendered figure.
/// Full-coverage exports stay byte-identical to before the fault plane.
fn coverage_comment(f: &mut Vec<u8>, coverage: &Coverage) {
    if coverage.is_partial() {
        let _ = writeln!(
            f,
            "# partial data: {}/{} inputs kept ({:.1}% coverage)",
            coverage.kept,
            coverage.total,
            100.0 * coverage.fraction()
        );
    }
}

/// Render rows of (x, y) series points with a header. Writing into a `Vec`
/// is infallible, so this returns the bytes directly.
fn render_series(coverage: &Coverage, header: &str, series: &[(&str, Vec<(f64, f64)>)]) -> Vec<u8> {
    let mut f = Vec::new();
    coverage_comment(&mut f, coverage);
    let _ = writeln!(f, "{header}");
    for (label, pts) in series {
        for &(x, y) in pts {
            let _ = writeln!(f, "{},{x},{y}", csv_field(label));
        }
    }
    f
}

/// Render Figure 1 (point estimate + CI bound CDFs) as CSV bytes.
pub fn fig1_csv_bytes(fig: &Fig1) -> Vec<u8> {
    render_series(
        &fig.coverage,
        "series,diff_ms,cum_fraction_of_traffic",
        &[
            ("point", fig.diff.points().collect()),
            ("ci_lower", fig.ci_lower.points().collect()),
            ("ci_upper", fig.ci_upper.points().collect()),
        ],
    )
}

/// Export Figure 1.
pub fn fig1_csv(fig: &Fig1, dir: &Path) -> BbResult<()> {
    write_atomic_bytes(&dir.join("fig1.csv"), &fig1_csv_bytes(fig))
}

/// Render Figure 2 as CSV bytes.
pub fn fig2_csv_bytes(fig: &Fig2) -> Vec<u8> {
    let mut series: Vec<(&str, Vec<(f64, f64)>)> = Vec::new();
    if let Some(c) = &fig.peer_vs_transit {
        series.push(("peer_vs_transit", c.points().collect()));
    }
    if let Some(c) = &fig.private_vs_public {
        series.push(("private_vs_public", c.points().collect()));
    }
    render_series(
        &fig.coverage,
        "series,diff_ms,cum_fraction_of_traffic",
        &series,
    )
}

/// Export Figure 2.
pub fn fig2_csv(fig: &Fig2, dir: &Path) -> BbResult<()> {
    write_atomic_bytes(&dir.join("fig2.csv"), &fig2_csv_bytes(fig))
}

/// Render Figure 3 (CCDFs) as CSV bytes.
pub fn fig3_csv_bytes(fig: &Fig3) -> Vec<u8> {
    let mut series: Vec<(&str, Vec<(f64, f64)>)> =
        vec![("world", fig.world.points().collect())];
    if let Some(c) = &fig.europe {
        series.push(("europe", c.points().collect()));
    }
    if let Some(c) = &fig.united_states {
        series.push(("united_states", c.points().collect()));
    }
    render_series(
        &fig.coverage,
        "series,penalty_ms,ccdf_fraction_of_requests",
        &series,
    )
}

/// Export Figure 3.
pub fn fig3_csv(fig: &Fig3, dir: &Path) -> BbResult<()> {
    write_atomic_bytes(&dir.join("fig3.csv"), &fig3_csv_bytes(fig))
}

/// Render Figure 4 as CSV bytes.
pub fn fig4_csv_bytes(fig: &Fig4) -> Vec<u8> {
    render_series(
        &fig.coverage,
        "series,improvement_ms,cum_fraction_of_weighted_prefixes",
        &[
            ("median", fig.median_improvement.points().collect()),
            ("p75", fig.p75_improvement.points().collect()),
        ],
    )
}

/// Export Figure 4.
pub fn fig4_csv(fig: &Fig4, dir: &Path) -> BbResult<()> {
    write_atomic_bytes(&dir.join("fig4.csv"), &fig4_csv_bytes(fig))
}

/// Render Figure 5 (per-country table) as CSV bytes.
pub fn fig5_csv_bytes(fig: &Fig5) -> Vec<u8> {
    let mut f = Vec::new();
    coverage_comment(&mut f, &fig.coverage);
    let _ = writeln!(
        f,
        "country_code,country,region,median_diff_ms,vantage_points,users_m"
    );
    for r in &fig.rows {
        let _ = writeln!(
            f,
            "{},{},{},{},{},{}",
            r.code,
            csv_field(r.name),
            csv_field(r.region.name()),
            r.median_diff_ms,
            r.vantage_points,
            r.users_m
        );
    }
    f
}

/// Export Figure 5.
pub fn fig5_csv(fig: &Fig5, dir: &Path) -> BbResult<()> {
    write_atomic_bytes(&dir.join("fig5.csv"), &fig5_csv_bytes(fig))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::BbError;
    use crate::figures::Coverage;
    use bb_stats::{Ccdf, Cdf};

    fn tmpdir() -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("bb_export_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn csv_quoting() {
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
    }

    #[test]
    fn fig1_roundtrip() {
        let cdf = Cdf::from_values(&[1.0, 2.0, 3.0]).unwrap();
        let fig = Fig1 {
            diff: cdf.clone(),
            ci_lower: cdf.clone(),
            ci_upper: cdf,
            frac_improvable_5ms: 0.02,
            frac_bgp_good: 0.95,
            groups: 3,
            coverage: Coverage::default(),
        };
        let dir = tmpdir();
        fig1_csv(&fig, &dir).unwrap();
        let content = std::fs::read_to_string(dir.join("fig1.csv")).unwrap();
        assert!(content.starts_with("series,diff_ms"));
        // 3 series × 3 points + header.
        assert_eq!(content.lines().count(), 10);
        assert!(content.contains("point,1,"));
        // The temp file must not survive a successful export.
        assert!(!dir.join("fig1.csv.tmp").exists());
    }

    #[test]
    fn fig3_includes_all_series() {
        let ccdf = Ccdf::from_values(&[0.0, 10.0, 100.0]).unwrap();
        let fig = Fig3 {
            world: ccdf.clone(),
            europe: Some(ccdf.clone()),
            united_states: None,
            frac_within_10ms: 0.8,
            frac_gt_100ms: 0.05,
            coverage: Coverage::default(),
        };
        let dir = tmpdir();
        fig3_csv(&fig, &dir).unwrap();
        let content = std::fs::read_to_string(dir.join("fig3.csv")).unwrap();
        assert!(content.contains("world,"));
        assert!(content.contains("europe,"));
        assert!(!content.contains("united_states,"));
    }

    #[test]
    fn fig5_table_shape() {
        let fig = Fig5 {
            rows: vec![crate::figures::CountryDiff {
                code: "IN",
                name: "India",
                region: bb_geo::Region::SouthAsia,
                median_diff_ms: -51.8,
                vantage_points: 12,
                users_m: 600.0,
            }],
            premium_ingress_within_400km: 0.7,
            standard_ingress_within_400km: 0.05,
            qualifying_vps: 12,
            coverage: Coverage::default(),
        };
        let dir = tmpdir();
        fig5_csv(&fig, &dir).unwrap();
        let content = std::fs::read_to_string(dir.join("fig5.csv")).unwrap();
        assert!(content.contains("IN,India,South Asia,-51.8,12,600"));
    }

    #[test]
    fn partial_coverage_is_disclosed_as_comment_line() {
        let cdf = Cdf::from_values(&[1.0, 2.0, 3.0]).unwrap();
        let fig = Fig1 {
            diff: cdf.clone(),
            ci_lower: cdf.clone(),
            ci_upper: cdf,
            frac_improvable_5ms: 0.02,
            frac_bgp_good: 0.95,
            groups: 3,
            coverage: Coverage::new(37, 48),
        };
        let bytes = fig1_csv_bytes(&fig);
        let content = String::from_utf8(bytes).unwrap();
        assert!(
            content.starts_with("# partial data: 37/48 inputs kept (77.1% coverage)\n"),
            "{content}"
        );
        // The header is still the first non-comment line.
        assert_eq!(content.lines().nth(1).unwrap(), "series,diff_ms,cum_fraction_of_traffic");
    }

    #[test]
    fn unwritable_dir_yields_io_error() {
        let fig = Fig4 {
            median_improvement: Cdf::from_values(&[1.0]).unwrap(),
            p75_improvement: Cdf::from_values(&[2.0]).unwrap(),
            frac_improved: 0.27,
            frac_worse: 0.17,
            coverage: Coverage::default(),
        };
        let err = fig4_csv(&fig, Path::new("/nonexistent_bb_dir")).unwrap_err();
        match err {
            BbError::Io { context, .. } => assert!(context.contains("fig4.csv"), "{context}"),
            other => panic!("expected Io error, got {other:?}"),
        }
    }
}
