//! Φ — the validity-set transform (Section 4.2, Definitions 4.2 / 4.3).
//!
//! Φ is pure metadata: it takes the input validity sets of a varying
//! dimension's instances plus the perspective set `P` and produces output
//! validity sets. Every perspective semantics reduces to a Φ variant; the
//! cube-level effect is ρ, which [`crate::DestMap::build`] states and
//! [`crate::execute`] runs.
//!
//! The key construction is `Stretch(d) = {t ≥ Pmin | max(Pₜ) ∈ VSin(d)}`
//! — the moments whose *most recent perspective point* saw `d` valid. For
//! forward semantics, `VSout(d) = Stretch(d) ∪ {t < Pmin | t ∈ VSin(d)}`
//! (empty when the stretch is empty); extended forward instead assigns
//! *all* pre-`Pmin` moments to the instance valid at `Pmin`. Backward
//! variants are the mirror image ("members of I are ordered in descending
//! order"), implemented literally by mirroring the moment axis.

use crate::perspective::Semantics;
use olap_model::{InstanceNode, MemberId, Moment, ValiditySet};
use std::collections::HashMap;

/// Output validity sets, indexed by instance id (axis slot order).
pub type VsMap = Vec<ValiditySet>;

/// Applies Φ for any semantics. `perspectives` must be sorted, unique and
/// non-empty; `moments` is the parameter dimension's leaf count.
pub fn phi(
    semantics: Semantics,
    instances: &[InstanceNode],
    perspectives: &[Moment],
    moments: u32,
) -> VsMap {
    debug_assert!(
        !perspectives.is_empty(),
        "perspective set must be non-empty"
    );
    debug_assert!(perspectives.windows(2).all(|w| w[0] < w[1]));
    match semantics {
        Semantics::Static => phi_static(instances, perspectives, moments),
        Semantics::Forward => phi_forward(instances, perspectives, moments, false),
        Semantics::ExtendedForward => phi_forward(instances, perspectives, moments, true),
        Semantics::Backward | Semantics::ExtendedBackward => {
            let extended = semantics == Semantics::ExtendedBackward;
            let mirrored: Vec<ValiditySet> = instances
                .iter()
                .map(|i| mirror_vs(&i.validity, moments))
                .collect();
            let minst: Vec<InstanceNode> = instances
                .iter()
                .zip(mirrored)
                .map(|(i, vs)| InstanceNode {
                    member: i.member,
                    path: i.path.clone(),
                    validity: vs,
                })
                .collect();
            let mut p: Vec<Moment> = perspectives.iter().map(|&t| moments - 1 - t).collect();
            p.sort_unstable();
            phi_forward(&minst, &p, moments, extended)
                .into_iter()
                .map(|vs| mirror_vs(&vs, moments))
                .collect()
        }
    }
}

/// Φs: the identity on instances active at some perspective; inactive
/// instances (VS ∩ P = ∅) come back empty (Definition 3.4).
fn phi_static(instances: &[InstanceNode], perspectives: &[Moment], moments: u32) -> VsMap {
    instances
        .iter()
        .map(|inst| {
            let active = perspectives.iter().any(|&p| inst.validity.is_valid_at(p));
            if active {
                inst.validity.clone()
            } else {
                ValiditySet::empty(moments)
            }
        })
        .collect()
}

/// Φf / Φe,f (Definition 4.3).
fn phi_forward(
    instances: &[InstanceNode],
    perspectives: &[Moment],
    moments: u32,
    extended: bool,
) -> VsMap {
    let pmin = perspectives[0];
    // most_recent[t] = max{p ∈ P | p ≤ t} for t ≥ Pmin.
    let mut most_recent = vec![0u32; moments as usize];
    {
        let mut pi = 0usize;
        for t in pmin..moments {
            while pi + 1 < perspectives.len() && perspectives[pi + 1] <= t {
                pi += 1;
            }
            most_recent[t as usize] = perspectives[pi];
        }
    }
    instances
        .iter()
        .map(|inst| {
            let mut stretch = ValiditySet::empty(moments);
            for t in pmin..moments {
                if inst.validity.is_valid_at(most_recent[t as usize]) {
                    stretch.add(t);
                }
            }
            if stretch.is_empty() {
                return stretch;
            }
            if extended {
                if inst.validity.is_valid_at(pmin) {
                    for t in 0..pmin {
                        stretch.add(t);
                    }
                }
            } else {
                for t in 0..pmin {
                    if inst.validity.is_valid_at(t) {
                        stretch.add(t);
                    }
                }
            }
            stretch
        })
        .collect()
}

/// Intersects each output validity set with the moments where *some*
/// instance of the member exists in the input — Definition 3.3's "except
/// for those moments t for which no instance dₜ exists". The relocate
/// operator produces ⊥ at those moments anyway; this prune makes the
/// reported validity sets match the paper's examples exactly.
pub fn prune_vacancies(out_sets: &mut VsMap, instances: &[InstanceNode], moments: u32) {
    let mut presence: HashMap<MemberId, ValiditySet> = HashMap::new();
    for inst in instances {
        presence
            .entry(inst.member)
            .or_insert_with(|| ValiditySet::empty(moments))
            .union_with(&inst.validity);
    }
    for (inst, vs) in instances.iter().zip(out_sets.iter_mut()) {
        vs.intersect_with(&presence[&inst.member]);
    }
}

fn mirror_vs(vs: &ValiditySet, moments: u32) -> ValiditySet {
    ValiditySet::of(moments, vs.iter().map(|t| moments - 1 - t))
}

#[cfg(test)]
mod tests {
    use super::*;
    use olap_model::MemberId;

    /// The running example's Joe: FTE {Jan}, PTE {Feb}, Contractor
    /// {Mar, Apr, Jun} (May vacation); plus single-instance Lisa
    /// {Jan..Jun}. Moments = 6.
    fn joe_and_lisa() -> Vec<InstanceNode> {
        let inst = |member: u32, parent: u32, vs: &[u32]| InstanceNode {
            member: MemberId(member),
            path: vec![MemberId(parent)],
            validity: ValiditySet::of(6, vs.iter().copied()),
        };
        vec![
            inst(10, 1, &[0]),                // FTE/Joe
            inst(10, 2, &[1]),                // PTE/Joe
            inst(10, 3, &[2, 3, 5]),          // Contractor/Joe
            inst(11, 1, &[0, 1, 2, 3, 4, 5]), // FTE/Lisa
        ]
    }

    #[test]
    fn static_keeps_active_drops_rest() {
        // P = {Jan}: only FTE/Joe among Joe's instances survives, with its
        // original VS; Lisa survives unchanged.
        let out = phi(Semantics::Static, &joe_and_lisa(), &[0], 6);
        assert_eq!(out[0].iter().collect::<Vec<_>>(), vec![0]);
        assert!(out[1].is_empty());
        assert!(out[2].is_empty());
        assert_eq!(out[3].len(), 6);
    }

    #[test]
    fn forward_single_perspective_matches_paper() {
        // Paper: "Under forward semantics [P = {Jan}], FTE/Joe will have
        // VSout = {Jan, …, Apr, Jun, …}" — i.e. everything except the May
        // vacancy, once vacancies are pruned.
        let instances = joe_and_lisa();
        let mut out = phi(Semantics::Forward, &instances, &[0], 6);
        // Raw Φf stretches over every moment ≥ Jan…
        assert_eq!(out[0].iter().collect::<Vec<_>>(), vec![0, 1, 2, 3, 4, 5]);
        // …and pruning vacancies removes May (no Joe instance exists).
        prune_vacancies(&mut out, &instances, 6);
        assert_eq!(out[0].iter().collect::<Vec<_>>(), vec![0, 1, 2, 3, 5]);
        // PTE/Joe and Contractor/Joe are dropped (not valid at Jan).
        assert!(out[1].is_empty());
        assert!(out[2].is_empty());
    }

    #[test]
    fn forward_multi_perspective_splits_intervals() {
        // P = {Feb, Apr}: PTE/Joe (valid at Feb) owns [Feb, Apr);
        // Contractor/Joe (valid at Apr) owns [Apr, ∞).
        let out = phi(Semantics::Forward, &joe_and_lisa(), &[1, 3], 6);
        assert!(out[0].is_empty()); // FTE/Joe valid at neither perspective
        assert_eq!(out[1].iter().collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(out[2].iter().collect::<Vec<_>>(), vec![3, 4, 5]);
        // Lisa owns both her intervals plus her pre-Pmin history.
        assert_eq!(out[3].len(), 6);
    }

    #[test]
    fn forward_keeps_prehistory_of_surviving_instances() {
        // Contractor/Joe with P = {Apr}: stretch [Apr, ∞), plus its own
        // pre-Pmin history {Mar}.
        let out = phi(Semantics::Forward, &joe_and_lisa(), &[3], 6);
        assert_eq!(out[2].iter().collect::<Vec<_>>(), vec![2, 3, 4, 5]);
        // FTE/Joe not valid at Apr ⇒ dropped entirely, pre-history included.
        assert!(out[0].is_empty());
    }

    #[test]
    fn extended_forward_backfills_prehistory() {
        // P = {Apr}: extended forward assigns Jan–Mar to the instance
        // valid at Apr (Contractor/Joe), not to the instances that were
        // actually valid then.
        let out = phi(Semantics::ExtendedForward, &joe_and_lisa(), &[3], 6);
        assert_eq!(out[2].iter().collect::<Vec<_>>(), vec![0, 1, 2, 3, 4, 5]);
        assert!(out[0].is_empty());
        assert!(out[1].is_empty());
    }

    #[test]
    fn backward_mirrors_forward() {
        // P = {Apr} backward: the instance valid at Apr owns (-∞, Apr]
        // down to the previous perspective (none ⇒ all of it), plus its
        // own post-history.
        let out = phi(Semantics::Backward, &joe_and_lisa(), &[3], 6);
        // Contractor/Joe valid at Apr: owns [Jan..Apr] plus {Jun} (its own
        // later history kept, as the mirror of pre-Pmin retention).
        assert_eq!(out[2].iter().collect::<Vec<_>>(), vec![0, 1, 2, 3, 5]);
        assert!(out[0].is_empty());
    }

    #[test]
    fn outputs_stay_disjoint_per_member() {
        for sem in [
            Semantics::Static,
            Semantics::Forward,
            Semantics::ExtendedForward,
            Semantics::Backward,
            Semantics::ExtendedBackward,
        ] {
            for p in [vec![0], vec![1, 3], vec![0, 2, 4], vec![5]] {
                let insts = joe_and_lisa();
                let out = phi(sem, &insts, &p, 6);
                // Joe's three instances are 0, 1, 2.
                for a in 0..3 {
                    for b in (a + 1)..3 {
                        assert!(
                            !out[a].intersects(&out[b]),
                            "{sem:?} P={p:?}: instances {a} and {b} overlap"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn static_is_identity_on_survivors() {
        let insts = joe_and_lisa();
        let out = phi(Semantics::Static, &insts, &[2], 6);
        assert_eq!(out[2], insts[2].validity);
    }

    #[test]
    fn mirror_roundtrip() {
        let vs = ValiditySet::of(7, [0, 3, 6]);
        assert_eq!(mirror_vs(&mirror_vs(&vs, 7), 7), vs);
        assert_eq!(mirror_vs(&vs, 7).iter().collect::<Vec<_>>(), vec![0, 3, 6]);
        let vs2 = ValiditySet::of(7, [1, 2]);
        assert_eq!(mirror_vs(&vs2, 7).iter().collect::<Vec<_>>(), vec![4, 5]);
    }
}
