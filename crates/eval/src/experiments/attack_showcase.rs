//! Figure 3: the four attacking scenarios, demonstrated quantitatively.
//!
//! The paper's Figure 3 is a cartoon of the silence, impersonation,
//! multi-impersonation and range-change attacks. This experiment demonstrates
//! each primitive on a concrete victim: it applies one instance of the
//! primitive and records (a) how far the victim's observation vector moves
//! (L1 distance from the clean observation) and (b) what a combined DoS
//! attack does to the Diff metric at the victim's true location.

use crate::report::{FigureReport, Series};
use crate::scenario::Substrate;
use lad_attack::dos::dos_taint;
use lad_attack::primitives::{apply_all, AttackPrimitive};
use lad_attack::AttackClass;
use lad_core::MetricKind;
use lad_net::NodeId;

/// Reproduces the Figure 3 showcase on a scenario substrate's first
/// simulated network.
pub fn attack_showcase(ctx: &Substrate) -> FigureReport {
    let mut report = FigureReport::new(
        "fig3",
        "Attack primitives: observation shift caused by one compromised neighbour",
        "primitive index (0 = silence, 1 = impersonation, 2 = multi-impersonation, 3 = range-change)",
        "L1 shift of the observation vector",
    );

    let network = ctx
        .networks()
        .first()
        .expect("context has at least one network");
    let knowledge = ctx.knowledge();
    // Pick the first victim with a reasonably populated neighbourhood.
    let victim = (0..network.node_count() as u32)
        .map(NodeId)
        .find(|&id| network.true_observation(id).total() >= 5)
        .expect("some node has neighbours");
    let clean = network.true_observation(victim);
    let mu = knowledge.expected_observation(network.node(victim).resident_point);
    let m = knowledge.group_size();

    // One representative instance of each primitive.
    let own_group = network.node(network.neighbors_of(victim)[0]).group.index();
    let other_group = (own_group + 1) % knowledge.group_count();
    let third_group = (own_group + 2) % knowledge.group_count();
    let primitives: Vec<(&str, AttackPrimitive)> = vec![
        ("silence", AttackPrimitive::Silence { group: own_group }),
        (
            "impersonation",
            AttackPrimitive::Impersonation {
                from: own_group,
                to: other_group,
            },
        ),
        (
            "multi-impersonation",
            AttackPrimitive::MultiImpersonation {
                from: own_group,
                claims: vec![(other_group, 5), (third_group, 5)],
            },
        ),
        (
            "range-change",
            AttackPrimitive::RangeChange { group: other_group },
        ),
    ];

    let mut points = Vec::new();
    for (idx, (name, primitive)) in primitives.iter().enumerate() {
        let tainted = apply_all(&clean, std::slice::from_ref(primitive));
        let shift = clean.l1_distance(&tainted) as f64;
        points.push((idx as f64, shift));
        report.push_note(format!(
            "{name}: shifts the observation by {shift} unit(s); consumes {} compromised neighbour(s)",
            primitive.compromised_neighbors_used()
        ));
    }
    report.push_series(Series::new("observation shift per primitive", points));

    // A combined DoS attack for scale: how far can 10% silenced neighbours
    // plus 20 forged messages push an honest node's Diff score?
    let baseline = MetricKind::Diff.score(&clean, &mu, m);
    let budget = (clean.total() as f64 * 0.1).round() as usize;
    let dos = dos_taint(
        AttackClass::DecBounded,
        MetricKind::Diff,
        &clean,
        &mu,
        budget,
        20,
        m,
    );
    report.push_note(format!(
        "DoS (x = 10% silenced + 20 forged messages): Diff metric moves from {baseline:.2} to {:.2}",
        MetricKind::Diff.score(&dos, &mu, m)
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EvalConfig;
    use crate::experiments::standard_substrate;
    use crate::scenario::SubstrateCache;

    #[test]
    fn primitive_shifts_match_their_message_budgets() {
        let ctx = standard_substrate(&EvalConfig::bench(), &SubstrateCache::new());
        let report = attack_showcase(&ctx);
        let series = report
            .series_by_label("observation shift per primitive")
            .unwrap();
        assert_eq!(series.points.len(), 4);
        let shifts: Vec<f64> = series.points.iter().map(|(_, s)| *s).collect();
        // silence = 1, impersonation = 2, multi-impersonation = 1 + 10 = 11,
        // range-change = 1 (exact by construction of the primitives).
        assert_eq!(shifts, vec![1.0, 2.0, 11.0, 1.0]);
        assert!(report.notes.iter().any(|n| n.starts_with("DoS")));
    }
}
