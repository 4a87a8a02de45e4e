//! Grain-size control: chunking inner-loop SP spawns.
//!
//! The translator spawns one SP instance per outer iteration (one `L`
//! operator firing per index value, §3 of the paper), so tiny loop bodies
//! pay per-instance spawn/steal/wake-up overhead that dwarfs the useful
//! work at small problem sizes. The transform in this module groups `chunk`
//! consecutive outer iterations into one SP instance: the parent loop's
//! increment steps by `chunk` instead of `1`, the parent passes its
//! *effective* loop limit along as one extra spawn argument, and the child
//! template gains a [`ChunkMeta`] record that the shared driver loop in
//! [`crate::exec`] uses to advance the iteration cursor in place — re-running
//! the child's code (including any Range-Filter prologue, against the
//! updated outer index) until the chunk budget or the parent's own
//! continuation test says stop.
//!
//! Because the driver replicates the parent's circulation *exactly* (same
//! `Add`/`Sub` step, same `Le`/`Ge` test against the same limit value, same
//! numeric promotion), a chunked program executes precisely the iterations
//! the unchunked one would — including out-of-range iterations that fault,
//! which is what keeps chunked runs pinned to the sequential oracle.
//!
//! The transform is deliberately conservative: a spawn site is chunked only
//! when the parent loop has the translator's exact circulation skeleton, the
//! body between test and increment consists of pure scalar moves plus
//! exactly one child-loop spawn carrying the index once (as a free-variable
//! argument, not a loop bound), and the child is spawned from no other site.
//! Everything else keeps grain 1 and is untouched.

use crate::instr::{Instr, Operand, SlotId, SpId};
use crate::template::{ChunkMeta, SpKind, SpProgram};
use pods_idlang::{BinaryOp, Name};

/// How many iterations one child instance should execute before the auto
/// policy considers the scheduling overhead amortised.
const AUTO_TARGET_INSTRS: usize = 64;

/// Ceiling for the auto chunk the loop body sizes.
const AUTO_MAX_CHUNK: usize = 16;

/// Ceiling for an auto chunk multiplied by a `boost` above 1 (see
/// [`chunk_loop_spawns`]).
const AUTO_MAX_BOOSTED: usize = 64;

/// The grain-size policy: how many consecutive outer iterations one SP
/// instance executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChunkPolicy {
    /// A fixed chunk size. `Fixed(1)` — the default — disables chunking
    /// entirely: the program is left byte-identical to the untransformed
    /// translation.
    Fixed(usize),
    /// Pick the chunk per spawn site from the child template's body size
    /// (small bodies get large chunks), once, when the program is
    /// partitioned.
    Auto,
}

impl Default for ChunkPolicy {
    fn default() -> Self {
        ChunkPolicy::Fixed(1)
    }
}

impl std::fmt::Display for ChunkPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChunkPolicy::Fixed(n) => write!(f, "{n}"),
            ChunkPolicy::Auto => write!(f, "auto"),
        }
    }
}

impl std::str::FromStr for ChunkPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.eq_ignore_ascii_case("auto") {
            return Ok(ChunkPolicy::Auto);
        }
        match s.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(ChunkPolicy::Fixed(n)),
            _ => Err(format!(
                "invalid chunk policy `{s}` (expected `auto` or a positive integer)"
            )),
        }
    }
}

/// What [`chunk_loop_spawns`] did to the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChunkSummary {
    /// Number of spawn sites converted to chunked form.
    pub sites: usize,
    /// The largest chunk size in effect (1 when nothing was chunked).
    pub max_chunk: usize,
}

/// One eligible spawn site, recorded before any rewriting starts.
struct Site {
    parent: SpId,
    spawn_pc: usize,
    child: SpId,
    /// Argument position at which the parent passes its loop index.
    cursor_pos: usize,
    descending: bool,
    chunk: usize,
}

/// Applies the grain-size transform to every eligible loop-spawn site.
///
/// `boost` multiplies the auto policy's base chunk; it has no effect on
/// `Fixed` chunks. Outside tests every caller passes 1: the parameter
/// remains because the standing benchmark's front-end probe
/// (`benchmark/src/layers.rs`) passes it, and it goes when that probe
/// does. Returns a summary of what was chunked.
/// `ChunkPolicy::Fixed(1)` is a guaranteed no-op.
pub fn chunk_loop_spawns(
    program: &mut SpProgram,
    policy: ChunkPolicy,
    boost: usize,
) -> ChunkSummary {
    if policy == ChunkPolicy::Fixed(1) {
        return ChunkSummary {
            sites: 0,
            max_chunk: 1,
        };
    }
    let sites = find_sites(program, policy, boost);
    if sites.is_empty() {
        return ChunkSummary {
            sites: 0,
            max_chunk: 1,
        };
    }
    // Parent-role rewrites first, child-role rewrites second: a template
    // that is both (a three-deep nest) gets its appended limit argument
    // remapped correctly when its own frame is widened.
    for site in &sites {
        rewrite_parent(program, site);
    }
    for site in &sites {
        rewrite_child(program, site);
    }
    ChunkSummary {
        sites: sites.len(),
        max_chunk: sites.iter().map(|s| s.chunk).max().unwrap_or(1),
    }
}

/// Scans the program for chunk-eligible spawn sites.
fn find_sites(program: &SpProgram, policy: ChunkPolicy, boost: usize) -> Vec<Site> {
    // A child is only chunkable when spawned from exactly one site: its
    // frame layout changes, so every spawn of it must pass the extra limit
    // argument — which only the one rewritten parent does.
    let mut spawn_counts = vec![0usize; program.len()];
    for t in program.templates() {
        for instr in &t.code {
            if let Instr::Spawn { target, .. } = instr {
                spawn_counts[target.index()] += 1;
            }
        }
    }

    let mut sites = Vec::new();
    for parent in program.templates() {
        let Some(site) = eligible_site(program, parent, &spawn_counts) else {
            continue;
        };
        let child = program.template(site.0);
        let chunk = resolve_chunk(policy, boost, child.code.len());
        if chunk <= 1 {
            continue;
        }
        sites.push(Site {
            parent: parent.id,
            spawn_pc: site.1,
            child: site.0,
            cursor_pos: site.2,
            descending: site.3,
            chunk,
        });
    }
    sites
}

/// The chunk size for one site under the given policy.
fn resolve_chunk(policy: ChunkPolicy, boost: usize, child_code_len: usize) -> usize {
    match policy {
        ChunkPolicy::Fixed(n) => n.max(1),
        ChunkPolicy::Auto => {
            let base = (AUTO_TARGET_INSTRS / child_code_len.max(1)).clamp(1, AUTO_MAX_CHUNK);
            (base * boost.max(1)).clamp(1, AUTO_MAX_BOOSTED)
        }
    }
}

/// Checks one template for the eligible-parent shape; returns the child id,
/// the spawn pc, the cursor argument position, and the loop direction.
fn eligible_site(
    program: &SpProgram,
    parent: &crate::template::SpTemplate,
    spawn_counts: &[usize],
) -> Option<(SpId, usize, usize, bool)> {
    let SpKind::Loop { descending, .. } = &parent.kind else {
        return None;
    };
    let descending = *descending;
    let lm = parent.loop_meta.as_ref()?;
    let code = &parent.code;
    // The translator's circulation skeleton: test, exit branch, body,
    // increment, back jump, return — possibly behind a Range-Filter
    // prologue (loop_meta tracks the shifted positions).
    if code.len() < 7 {
        return None;
    }
    let ret_pc = code.len() - 1;
    let jump_pc = code.len() - 2;
    let inc_pc = code.len() - 3;
    if !matches!(code[ret_pc], Instr::Return { value: None }) {
        return None;
    }
    if code[jump_pc]
        != (Instr::Jump {
            target: lm.test_instr,
        })
    {
        return None;
    }
    let step_op = if descending {
        BinaryOp::Sub
    } else {
        BinaryOp::Add
    };
    if code[inc_pc]
        != (Instr::Binary {
            op: step_op,
            dst: lm.index_slot,
            lhs: Operand::Slot(lm.index_slot),
            rhs: Operand::Int(1),
        })
    {
        return None;
    }
    let test_op = if descending {
        BinaryOp::Ge
    } else {
        BinaryOp::Le
    };
    let Instr::Binary {
        op, dst, lhs, rhs, ..
    } = &code[lm.test_instr]
    else {
        return None;
    };
    if *op != test_op
        || *lhs != Operand::Slot(lm.index_slot)
        || *rhs != Operand::Slot(lm.limit_slot)
    {
        return None;
    }
    let cont_slot = *dst;
    if code.get(lm.test_instr + 1)
        != Some(&Instr::BranchIfFalse {
            cond: Operand::Slot(cont_slot),
            target: ret_pc,
        })
    {
        return None;
    }

    // The body: pure scalar computation (never touching the index or the
    // effective limit) plus exactly one spawn of a child loop, carrying the
    // index exactly once — as a free-variable argument, not a loop bound.
    let mut spawn: Option<(SpId, usize, usize)> = None;
    for (off, instr) in code[lm.test_instr + 2..inc_pc].iter().enumerate() {
        let pc = lm.test_instr + 2 + off;
        match instr {
            Instr::Binary { .. } | Instr::Unary { .. } | Instr::Move { .. } => {
                if instr.written_slot() == Some(lm.index_slot)
                    || instr.written_slot() == Some(lm.limit_slot)
                    || instr.reads().any(|s| s == lm.index_slot)
                {
                    return None;
                }
            }
            Instr::Spawn {
                target,
                args,
                ret: None,
                ..
            } => {
                if spawn.is_some() {
                    return None;
                }
                let index_uses: Vec<usize> = args
                    .iter()
                    .enumerate()
                    .filter(|(_, a)| **a == Operand::Slot(lm.index_slot))
                    .map(|(i, _)| i)
                    .collect();
                let [cursor_pos] = index_uses[..] else {
                    return None;
                };
                // Positions 0/1 are the child's own loop bounds: chunking a
                // child whose *bounds* depend on the outer index would run
                // later iterations against stale bounds.
                if cursor_pos < 2 {
                    return None;
                }
                spawn = Some((*target, pc, cursor_pos));
            }
            _ => return None,
        }
    }
    let (child_id, spawn_pc, cursor_pos) = spawn?;
    if child_id == parent.id || spawn_counts[child_id.index()] != 1 {
        return None;
    }
    let child = program.template(child_id);
    if !child.is_loop() || child.loop_meta.is_none() || child.chunk_meta.is_some() {
        return None;
    }
    // The driver re-runs the child's code from the top per iteration, so
    // every parameter must survive untouched across a pass.
    let child_params = child.params.len();
    for instr in &child.code {
        if let Some(dst) = instr.written_slot() {
            if dst.index() < child_params {
                return None;
            }
        }
    }
    Some((child_id, spawn_pc, cursor_pos, descending))
}

/// Parent-side rewrite: step the index by `chunk` and pass the effective
/// limit along as one extra trailing spawn argument.
fn rewrite_parent(program: &mut SpProgram, site: &Site) {
    let parent = &mut program.templates_mut()[site.parent.index()];
    let limit_slot = parent
        .loop_meta
        .as_ref()
        .expect("eligible parent")
        .limit_slot;
    let inc_pc = parent.code.len() - 3;
    if let Instr::Binary { rhs, .. } = &mut parent.code[inc_pc] {
        *rhs = Operand::Int(site.chunk as i64);
    }
    if let Instr::Spawn { args, .. } = &mut parent.code[site.spawn_pc] {
        *args = args
            .iter()
            .copied()
            .chain([Operand::Slot(limit_slot)])
            .collect();
    }
}

/// Child-side rewrite: widen the frame with the chunk-limit parameter and
/// the driver-managed taken counter, remapping every existing scratch slot.
fn rewrite_child(program: &mut SpProgram, site: &Site) {
    let child = &mut program.templates_mut()[site.child.index()];
    let p = child.params.len();
    let shift = |s: SlotId| {
        if s.index() >= p {
            SlotId(s.index() + 2)
        } else {
            s
        }
    };
    for instr in &mut child.code {
        instr.map_slots(shift);
    }
    if let Some(lm) = &mut child.loop_meta {
        lm.init_param_slot = shift(lm.init_param_slot);
        lm.limit_param_slot = shift(lm.limit_param_slot);
        lm.index_slot = shift(lm.index_slot);
        lm.limit_slot = shift(lm.limit_slot);
    }
    let var = match &child.kind {
        SpKind::Loop { var, .. } => var.clone(),
        SpKind::Function { name } => name.clone(),
    };
    let limit = Name::from_fmt(format_args!("{var}__chunk_limit"));
    child.params.push(limit.clone());
    child.slot_names.insert(p, limit);
    child
        .slot_names
        .insert(p + 1, Name::from_fmt(format_args!("{var}__chunk_taken")));
    child.num_slots += 2;
    child.chunk_meta = Some(ChunkMeta {
        cursor: SlotId(site.cursor_pos),
        limit: SlotId(p),
        taken: SlotId(p + 1),
        first_scratch: p + 2,
        num_slots: child.num_slots,
        chunk: site.chunk,
        descending: site.descending,
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn translate_src(src: &str) -> SpProgram {
        crate::translate(&pods_idlang::compile(src).unwrap()).unwrap()
    }

    const NEST: &str = "def main(n) {
        a = matrix(8, 8);
        for i = 0 to n { for j = 0 to 7 { a[i, j] = i * 8 + j; } }
        return a;
    }";

    #[test]
    fn fixed_one_is_a_guaranteed_noop() {
        let mut program = translate_src(NEST);
        let before = program.fingerprint();
        let summary = chunk_loop_spawns(&mut program, ChunkPolicy::Fixed(1), 1);
        assert_eq!(
            summary,
            ChunkSummary {
                sites: 0,
                max_chunk: 1
            }
        );
        assert_eq!(program.fingerprint(), before);
    }

    #[test]
    fn nest_spawn_site_is_chunked_with_consistent_metadata() {
        let mut program = translate_src(NEST);
        let summary = chunk_loop_spawns(&mut program, ChunkPolicy::Fixed(4), 1);
        assert_eq!(summary.sites, 1);
        assert_eq!(summary.max_chunk, 4);
        assert!(program.validate().is_empty(), "{:?}", program.validate());

        // The child (the j-loop) carries the chunk metadata and one extra
        // parameter; the parent (the i-loop) steps by 4 and passes its
        // effective limit.
        let child = program.loop_template("main", 1).unwrap();
        let meta = child.chunk_meta.expect("child is chunked");
        assert_eq!(meta.chunk, 4);
        assert!(!meta.descending);
        assert_eq!(meta.limit.index(), child.params.len() - 1);
        assert_eq!(meta.taken.index(), child.params.len());
        assert_eq!(meta.first_scratch, child.params.len() + 1);
        assert!(child.params.last().unwrap().ends_with("__chunk_limit"));
        // The cursor is the child's `i` parameter.
        assert_eq!(child.params[meta.cursor.index()], "i");

        let parent = program.loop_template("main", 0).unwrap();
        assert!(parent.chunk_meta.is_none(), "parent keeps its own grain");
        let inc_pc = parent.code.len() - 3;
        assert!(matches!(
            parent.code[inc_pc],
            Instr::Binary {
                rhs: Operand::Int(4),
                ..
            }
        ));
        let lm = parent.loop_meta.unwrap();
        let spawn_args = parent
            .code
            .iter()
            .find_map(|i| match i {
                Instr::Spawn { args, .. } => Some(args.clone()),
                _ => None,
            })
            .unwrap();
        assert_eq!(*spawn_args.last().unwrap(), Operand::Slot(lm.limit_slot));
    }

    #[test]
    fn single_level_loops_and_function_calls_are_not_chunked() {
        // fill: one loop, no inner spawn. The call loop spawns a function,
        // not a loop. Neither is eligible.
        let mut fill = translate_src(
            "def main(n) { a = array(n); for i = 0 to n - 1 { a[i] = i; } return a; }",
        );
        assert_eq!(
            chunk_loop_spawns(&mut fill, ChunkPolicy::Fixed(8), 1).sites,
            0
        );

        let mut calls = translate_src(
            "def main(n) {
                 a = array(n);
                 for i = 0 to n - 1 { a[i] = f(i); }
                 return a;
             }
             def f(i) { return i * 2; }",
        );
        assert_eq!(
            chunk_loop_spawns(&mut calls, ChunkPolicy::Fixed(8), 1).sites,
            0
        );
    }

    #[test]
    fn index_dependent_inner_bounds_are_rejected() {
        // The inner loop's upper bound depends on the outer index: the
        // child's bounds are spawn-time parameters, so chunking would run
        // later iterations against stale bounds. Must stay grain 1.
        let mut program = translate_src(
            "def main(n) {
                 a = matrix(8, 8);
                 for i = 0 to n { for j = 0 to i { a[i, j] = j; } }
                 return a;
             }",
        );
        assert_eq!(
            chunk_loop_spawns(&mut program, ChunkPolicy::Fixed(8), 1).sites,
            0
        );
    }

    #[test]
    fn auto_policy_sizes_the_chunk_from_the_child_body() {
        let mut program = translate_src(NEST);
        let child_len = program.loop_template("main", 1).unwrap().code.len();
        let summary = chunk_loop_spawns(&mut program, ChunkPolicy::Auto, 1);
        assert_eq!(summary.sites, 1);
        let expected = (AUTO_TARGET_INSTRS / child_len).clamp(1, AUTO_MAX_CHUNK);
        assert_eq!(summary.max_chunk, expected);

        // A boost doubles the resolved chunk (up to the boosted ceiling).
        let mut boosted = translate_src(NEST);
        let summary2 = chunk_loop_spawns(&mut boosted, ChunkPolicy::Auto, 2);
        assert_eq!(
            summary2.max_chunk,
            (expected * 2).clamp(1, AUTO_MAX_BOOSTED)
        );
    }

    #[test]
    fn three_deep_nests_chunk_both_inner_sites() {
        // i spawns j, j spawns k: j is both chunk-child (of i) and
        // chunk-parent (of k). Parent rewrites happen before child frame
        // widening, so j's appended limit argument is remapped with the
        // rest of its scratch slots.
        let mut program = translate_src(
            "def main(n) {
                 a = matrix(4, 4);
                 for i = 0 to n {
                     for j = 0 to 3 {
                         for k = 0 to 0 { a[i, j] = i + j; }
                     }
                 }
                 return a;
             }",
        );
        let summary = chunk_loop_spawns(&mut program, ChunkPolicy::Fixed(2), 1);
        assert_eq!(summary.sites, 2);
        assert!(program.validate().is_empty(), "{:?}", program.validate());
        let j = program.loop_template("main", 1).unwrap();
        let k = program.loop_template("main", 2).unwrap();
        assert!(j.chunk_meta.is_some());
        assert!(k.chunk_meta.is_some());
        // j's spawn of k still passes j's (remapped) effective limit last.
        let jm = j.loop_meta.unwrap();
        let spawn_args = j
            .code
            .iter()
            .find_map(|i| match i {
                Instr::Spawn { args, .. } => Some(args.clone()),
                _ => None,
            })
            .unwrap();
        assert_eq!(*spawn_args.last().unwrap(), Operand::Slot(jm.limit_slot));
    }

    #[test]
    fn chunk_policy_parses_and_displays() {
        assert_eq!("auto".parse::<ChunkPolicy>().unwrap(), ChunkPolicy::Auto);
        assert_eq!("AUTO".parse::<ChunkPolicy>().unwrap(), ChunkPolicy::Auto);
        assert_eq!("4".parse::<ChunkPolicy>().unwrap(), ChunkPolicy::Fixed(4));
        assert!("0".parse::<ChunkPolicy>().is_err());
        assert!("-3".parse::<ChunkPolicy>().is_err());
        assert!("fast".parse::<ChunkPolicy>().is_err());
        assert_eq!(ChunkPolicy::Auto.to_string(), "auto");
        assert_eq!(ChunkPolicy::Fixed(8).to_string(), "8");
        assert_eq!(ChunkPolicy::default(), ChunkPolicy::Fixed(1));
    }
}
