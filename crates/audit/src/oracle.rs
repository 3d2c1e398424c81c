//! Test-only oracle for [`PartsCtx`]: the auditor's original derivation,
//! with one `BTreeMap` per group statistic and an O(groups · |ST|)
//! per-tuple RCE sum, together with the parts-level checks written
//! against those maps. The differential properties below drive the
//! one-pass tallies and this oracle over corrupt parts and demand the
//! same outcomes and detail strings under every stage.

use crate::registry::{invariants_for, Check, IncrementCtx, PartsCtx, Stage};
use crate::{
    audit_parts_for, CheckOutcome, CHECK_GROUP_SIZES, CHECK_L_DIVERSITY, CHECK_QIT_ST_STRUCTURE,
    CHECK_RCE_BOUND, CHECK_RESIDUE_PLACEMENT,
};
use anatomy_core::{GroupId, StRecord};
use anatomy_tables::Value;
use proptest::prelude::*;
use std::collections::BTreeMap;

struct Oracle<'a> {
    st: &'a [StRecord],
    l: usize,
    n: usize,
    groups: usize,
    qit_sizes: BTreeMap<GroupId, u64>,
    st_mass: BTreeMap<GroupId, u64>,
    st_max: BTreeMap<GroupId, u32>,
    order_defect: Option<String>,
    zero_count: Option<String>,
    rce: f64,
    rce_bound: f64,
}

fn derive<'a>(group_ids: &[GroupId], st: &'a [StRecord], l: usize) -> Oracle<'a> {
    let n = group_ids.len();
    let mut qit_sizes: BTreeMap<GroupId, u64> = BTreeMap::new();
    for &g in group_ids {
        *qit_sizes.entry(g).or_insert(0) += 1;
    }
    let groups = qit_sizes.len();
    let mut st_mass: BTreeMap<GroupId, u64> = BTreeMap::new();
    let mut st_max: BTreeMap<GroupId, u32> = BTreeMap::new();
    let mut order_defect: Option<String> = None;
    let mut zero_count: Option<String> = None;
    for (i, r) in st.iter().enumerate() {
        if r.count == 0 && zero_count.is_none() {
            zero_count = Some(format!(
                "ST row {i} (group {}, value {}) has count 0",
                r.group, r.value.0
            ));
        }
        if i > 0 && order_defect.is_none() {
            let p = &st[i - 1];
            if (p.group, p.value) >= (r.group, r.value) {
                order_defect = Some(format!(
                    "ST rows {} and {i} out of (group, value) order or duplicated \
                     (group {}, value {})",
                    i - 1,
                    r.group,
                    r.value.0
                ));
            }
        }
        *st_mass.entry(r.group).or_insert(0) += r.count as u64;
        let m = st_max.entry(r.group).or_insert(0);
        *m = (*m).max(r.count);
    }
    let mut rce = 0.0f64;
    for (&g, &size) in &qit_sizes {
        let s = size as f64;
        let records: Vec<&StRecord> = st.iter().filter(|r| r.group == g).collect();
        let sum_sq: f64 = records
            .iter()
            .map(|r| (r.count as f64) * (r.count as f64))
            .sum();
        for r in &records {
            let c = r.count as f64;
            let a = 1.0 - c / s;
            rce += c * (a * a + (sum_sq - c * c) / (s * s));
        }
    }
    let rce_bound = if l >= 1 {
        n as f64 * (1.0 - 1.0 / l as f64)
    } else {
        f64::INFINITY
    };
    Oracle {
        st,
        l,
        n,
        groups,
        qit_sizes,
        st_mass,
        st_max,
        order_defect,
        zero_count,
        rce,
        rce_bound,
    }
}

fn structure(o: &Oracle<'_>) -> CheckOutcome {
    let fail = |d: String| CheckOutcome::fail(CHECK_QIT_ST_STRUCTURE, d);
    if let Some(d) = o.order_defect.clone().or_else(|| o.zero_count.clone()) {
        return fail(d);
    }
    if let (Some((&lo, _)), Some((&hi, _))) =
        (o.qit_sizes.iter().next(), o.qit_sizes.iter().next_back())
    {
        if lo != 0 || hi as usize != o.groups - 1 {
            return fail(format!(
                "QIT group ids are not dense 0..{} (span {lo}..={hi})",
                o.groups
            ));
        }
    }
    for (&g, &size) in &o.qit_sizes {
        match o.st_mass.get(&g) {
            None => return fail(format!("group {g} has {size} QIT tuples but no ST records")),
            Some(&mass) if mass != size => {
                return fail(format!(
                    "group {g}: ST counts sum to {mass} but QIT has {size} tuples"
                ))
            }
            Some(_) => {}
        }
    }
    if let Some((&g, _)) = o.st_mass.iter().find(|(g, _)| !o.qit_sizes.contains_key(g)) {
        return fail(format!("ST references group {g} absent from the QIT"));
    }
    CheckOutcome::pass(CHECK_QIT_ST_STRUCTURE)
}

fn diversity(o: &Oracle<'_>) -> CheckOutcome {
    let l = o.l;
    if l < 2 {
        return CheckOutcome::fail(
            CHECK_L_DIVERSITY,
            format!("l = {l}, but Definition 2 needs l >= 2"),
        );
    }
    let mass = |g: &GroupId| o.st_mass.get(g).copied().unwrap_or(0);
    match o
        .st_max
        .iter()
        .find(|(g, &max)| (max as u64) * (l as u64) > mass(g))
    {
        Some((g, &max)) => CheckOutcome::fail(
            CHECK_L_DIVERSITY,
            format!(
                "group {g} is not {l}-diverse: a value occurs {max} times in {} tuples",
                mass(g)
            ),
        ),
        None => CheckOutcome::pass(CHECK_L_DIVERSITY),
    }
}

fn sizes(o: &Oracle<'_>) -> CheckOutcome {
    let (l, n, groups) = (o.l, o.n, o.groups);
    if l < 2 {
        return CheckOutcome::fail(
            CHECK_GROUP_SIZES,
            format!("l = {l}, but Anatomize needs l >= 2"),
        );
    }
    let expected = n / l;
    if groups != expected {
        return CheckOutcome::fail(
            CHECK_GROUP_SIZES,
            format!("{groups} groups for n = {n}, l = {l}; Property 1 demands ⌊n/l⌋ = {expected}"),
        );
    }
    if let Some((&g, &size)) = o
        .qit_sizes
        .iter()
        .find(|(_, &size)| size < l as u64 || size > (2 * l - 1) as u64)
    {
        return CheckOutcome::fail(
            CHECK_GROUP_SIZES,
            format!("group {g} has {size} tuples, outside [{l}, {}]", 2 * l - 1),
        );
    }
    CheckOutcome::pass(CHECK_GROUP_SIZES)
}

fn residues(o: &Oracle<'_>) -> CheckOutcome {
    let l = o.l;
    if let Some((i, r)) = o.st.iter().enumerate().find(|(_, r)| r.count != 1) {
        return CheckOutcome::fail(
            CHECK_RESIDUE_PLACEMENT,
            format!(
                "ST row {i} (group {}, value {}) has count {}; Anatomize output keeps \
                 sensitive values distinct within each group, so every count is 1",
                r.group, r.value.0, r.count
            ),
        );
    }
    if l >= 2 {
        let residues: u64 = o
            .qit_sizes
            .values()
            .map(|&size| size.saturating_sub(l as u64))
            .sum();
        if residues > (l - 1) as u64 {
            return CheckOutcome::fail(
                CHECK_RESIDUE_PLACEMENT,
                format!(
                    "{residues} residue tuples, but Property 1 allows at most {}",
                    l - 1
                ),
            );
        }
    }
    CheckOutcome::pass(CHECK_RESIDUE_PLACEMENT)
}

fn rce_bound(o: &Oracle<'_>) -> CheckOutcome {
    if o.rce + 1e-9 >= o.rce_bound {
        CheckOutcome::pass(CHECK_RCE_BOUND)
    } else {
        CheckOutcome::fail(
            CHECK_RCE_BOUND,
            format!(
                "achieved RCE {:.6} below Theorem 2's floor {:.6}",
                o.rce, o.rce_bound
            ),
        )
    }
}

/// Compare a parts audit at every stage against the oracle.
fn agrees_with_oracle(gids: &[GroupId], st: &[StRecord], l: usize) -> Result<(), String> {
    let o = derive(gids, st, l);
    let ctx = PartsCtx::new(gids, st, l);
    if (ctx.n, ctx.groups) != (o.n, o.groups) {
        return Err(format!(
            "(n, groups) = {:?}, oracle {:?}",
            (ctx.n, ctx.groups),
            (o.n, o.groups)
        ));
    }
    let tol = 1e-9 * o.rce.abs().max(1.0);
    if (ctx.rce - o.rce).abs() > tol {
        return Err(format!("rce {} vs oracle {}", ctx.rce, o.rce));
    }
    for stage in Stage::ALL {
        let mut expected = Vec::new();
        for inv in invariants_for(stage) {
            match inv.check {
                Check::Parts(_) => expected.push(match inv.name {
                    CHECK_QIT_ST_STRUCTURE => structure(&o),
                    CHECK_L_DIVERSITY => diversity(&o),
                    CHECK_GROUP_SIZES => sizes(&o),
                    CHECK_RESIDUE_PLACEMENT => residues(&o),
                    CHECK_RCE_BOUND => rce_bound(&o),
                    other => return Err(format!("no oracle for parts check {other}")),
                }),
                // Reads only the raw id column, which both sides share.
                Check::Increment(f) => expected.push(f(&IncrementCtx {
                    parts: &ctx,
                    next: None,
                    prev: None,
                })),
                // Parts audits skip checks that need assembled tables.
                Check::Release(_) => {}
            }
        }
        let report = audit_parts_for(stage, gids, st, l);
        if report.checks != expected {
            return Err(format!(
                "stage {stage}: got {:?}, oracle {:?}",
                report.checks, expected
            ));
        }
    }
    Ok(())
}

/// Remap group ids: 0 keeps them, 1 spreads them sparsely, 2 mirrors
/// them to the top of the id space, 3 sends group 0 alone to `u32::MAX`.
fn remap(g: GroupId, mode: u8) -> GroupId {
    match mode {
        1 => g.wrapping_mul(1000).wrapping_add(3),
        2 => u32::MAX - g,
        3 if g == 0 => u32::MAX,
        _ => g,
    }
}

fn record(group: GroupId, value: u32, count: u32) -> StRecord {
    StRecord {
        group,
        value: Value(value),
        count,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Random parts: unsorted or duplicated ST rows, zero counts,
    /// ST-only and QIT-only groups, masses that disagree with the QIT,
    /// and sparse or wild ids.
    #[test]
    fn tallies_match_the_oracle_on_random_parts(
        gids in proptest::collection::vec(0u32..12, 0..40),
        rows in proptest::collection::vec((0u32..14, 0u32..6, 0u32..4), 0..40),
        order in 0u8..3,
        wild in 0u8..4,
        l in 0usize..7,
    ) {
        let gids: Vec<GroupId> = gids.iter().map(|&g| remap(g, wild)).collect();
        let mut st: Vec<StRecord> =
            rows.iter().map(|&(g, v, c)| record(remap(g, wild), v, c)).collect();
        if order > 0 {
            st.sort_by_key(|r| (r.group, r.value));
        }
        if order > 1 {
            st.dedup_by_key(|r| (r.group, r.value));
        }
        let verdict = agrees_with_oracle(&gids, &st, l);
        prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
    }

    /// Anatomize-shaped parts (groups of distinct values, all counts 1)
    /// with at most one corruption, so the later checks are reached too.
    #[test]
    fn tallies_match_the_oracle_on_near_valid_parts(
        group_sizes in proptest::collection::vec(1u32..8, 0..10),
        mutation in 0u8..10,
        pos in 0usize..1000,
        wild in 0u8..4,
        l in 1usize..6,
    ) {
        let mut gids: Vec<GroupId> = Vec::new();
        let mut st: Vec<StRecord> = Vec::new();
        for (g, &s) in group_sizes.iter().enumerate() {
            let g = g as GroupId;
            gids.extend(std::iter::repeat_n(g, s as usize));
            st.extend((0..s).map(|v| record(g, v, 1)));
        }
        let groups = group_sizes.len() as GroupId;
        let (i, j) = (pos % st.len().max(1), pos % gids.len().max(1));
        match mutation {
            1 if !st.is_empty() => st[i].count = 0,
            2 if !st.is_empty() => st[i].count += 1,
            3 if !gids.is_empty() => gids[j] = (gids[j] + 1) % groups,
            4 if !st.is_empty() => {
                st.remove(i);
            }
            5 if !st.is_empty() => st.insert(i, st[i]),
            6 if st.len() > 1 => {
                let k = (i + 1) % st.len();
                st.swap(i, k);
            }
            7 => st.push(record(groups, 0, 1)),
            8 if i + 1 < st.len() && st[i].group == st[i + 1].group => {
                st[i].count = 2;
                st.remove(i + 1);
            }
            9 if !gids.is_empty() => gids[j] = u32::MAX,
            _ => {}
        }
        let gids: Vec<GroupId> = gids.iter().map(|&g| remap(g, wild)).collect();
        for r in &mut st {
            r.group = remap(r.group, wild);
        }
        let verdict = agrees_with_oracle(&gids, &st, l);
        prop_assert!(verdict.is_ok(), "{}", verdict.unwrap_err());
    }
}
