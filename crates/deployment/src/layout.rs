//! The deployment-point layout.
//!
//! §3.1 of the paper arranges deployment points in a grid (Figure 1); that
//! grid is the layout every sensor is provisioned with.

use crate::config::DeploymentConfig;
use lad_geometry::{Point2, Rect};

/// A concrete set of deployment points together with the area they cover.
#[derive(Debug, Clone, PartialEq)]
pub struct DeploymentLayout {
    area: Rect,
    points: Vec<Point2>,
}

impl DeploymentLayout {
    /// The paper's grid layout: `grid_cols × grid_rows` deployment points at
    /// the centres of equally sized cells covering the square area.
    pub fn grid(config: &DeploymentConfig) -> Self {
        let mut points = Vec::with_capacity(config.group_count());
        let (cw, ch) = (config.cell_width(), config.cell_height());
        for row in 0..config.grid_rows {
            for col in 0..config.grid_cols {
                points.push(Point2::new(
                    (col as f64 + 0.5) * cw,
                    (row as f64 + 0.5) * ch,
                ));
            }
        }
        Self {
            area: config.area(),
            points,
        }
    }

    /// The deployment area.
    pub fn area(&self) -> Rect {
        self.area
    }

    /// Number of deployment groups.
    pub fn group_count(&self) -> usize {
        self.points.len()
    }

    /// The deployment point of group `i`.
    #[inline]
    pub fn deployment_point(&self, group: usize) -> Point2 {
        self.points[group]
    }

    /// All deployment points in group order.
    pub fn deployment_points(&self) -> &[Point2] {
        &self.points
    }

    /// Index of the deployment point closest to `p`.
    pub fn nearest_group(&self, p: Point2) -> usize {
        self.points
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                p.distance_squared(**a)
                    .partial_cmp(&p.distance_squared(**b))
                    .unwrap()
            })
            .map(|(i, _)| i)
            .expect("layout has at least one point")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_layout_matches_figure_1() {
        // Figure 1 of the paper: deployment points at (50, 50), (150, 50), …
        let cfg = DeploymentConfig::paper_default();
        let layout = DeploymentLayout::grid(&cfg);
        assert_eq!(layout.group_count(), 100);
        assert_eq!(layout.deployment_point(0), Point2::new(50.0, 50.0));
        assert_eq!(layout.deployment_point(1), Point2::new(150.0, 50.0));
        assert_eq!(layout.deployment_point(10), Point2::new(50.0, 150.0));
        assert_eq!(layout.deployment_point(99), Point2::new(950.0, 950.0));
    }

    #[test]
    fn grid_points_are_inside_the_area() {
        let cfg = DeploymentConfig::small_test();
        let layout = DeploymentLayout::grid(&cfg);
        for &p in layout.deployment_points() {
            assert!(layout.area().contains(p));
        }
    }

    #[test]
    fn nearest_group_identifies_own_cell() {
        let cfg = DeploymentConfig::paper_default();
        let layout = DeploymentLayout::grid(&cfg);
        // A point near (150, 150) belongs to group 11 (second column, second row).
        assert_eq!(layout.nearest_group(Point2::new(149.0, 152.0)), 11);
        assert_eq!(layout.nearest_group(Point2::new(51.0, 49.0)), 0);
    }
}
