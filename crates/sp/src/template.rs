//! SP templates and programs.
//!
//! A template is the static code of one Subcompact Process: the per-instance
//! frame layout (operand slots), the instruction sequence, and — for
//! loop-level SPs — the metadata the PODS Partitioner needs to insert Range
//! Filters (which slots hold the loop bounds and index, which instructions
//! initialise and test them).

use crate::instr::{Instr, Operand, SlotId, SpId};
use crate::specialize::TemplatePlan;
use pods_idlang::Name;
use std::collections::HashMap;

/// What a template was generated from.
#[derive(Debug, Clone, PartialEq)]
pub enum SpKind {
    /// The body of a user function.
    Function {
        /// Function name.
        name: Name,
    },
    /// One level of a loop nest.
    Loop {
        /// The enclosing function.
        function: Name,
        /// Preorder ordinal of the loop within its function (matches
        /// `pods_idlang::LoopKey`).
        ordinal: usize,
        /// The loop index variable.
        var: Name,
        /// `true` for descending loops.
        descending: bool,
        /// Nesting depth within the function (0 = outermost loop).
        depth: usize,
    },
}

/// Range-Filter-relevant metadata of a loop template.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoopMeta {
    /// Parameter slot holding the initial index value.
    pub init_param_slot: SlotId,
    /// Parameter slot holding the final index value (inclusive).
    pub limit_param_slot: SlotId,
    /// Slot holding the circulating index value.
    pub index_slot: SlotId,
    /// Slot holding the effective loop limit used by the termination test.
    pub limit_slot: SlotId,
    /// Program counter of the instruction that initialises the index from
    /// the initial bound.
    pub init_instr: usize,
    /// Program counter of the instruction that initialises the effective
    /// limit from the limit parameter.
    pub limit_init_instr: usize,
    /// Program counter of the loop-termination test instruction.
    pub test_instr: usize,
}

/// Metadata of a *chunked* loop template: the chunking transform groups
/// `chunk` consecutive outer iterations into one SP instance, and the shared
/// driver loop in [`crate::exec`] uses this record to advance the iteration
/// cursor in place instead of letting the instance terminate.
///
/// The parent spawn passes its effective loop limit as an extra trailing
/// argument (received in `limit`), and the driver re-runs the parent's own
/// continuation test (`Le` ascending / `Ge` descending, with the same
/// numeric promotion) before each in-place advance — so a chunked run
/// executes exactly the iterations the unchunked program would, including
/// the faulting out-of-range ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ChunkMeta {
    /// Parameter slot holding this instance's iteration cursor (the outer
    /// index value the parent passed).
    pub cursor: SlotId,
    /// Parameter slot receiving the parent's effective loop limit.
    pub limit: SlotId,
    /// Scratch slot counting iterations taken by this instance (absent on
    /// entry; the driver materialises and advances it).
    pub taken: SlotId,
    /// First non-parameter slot: the driver clears `first_scratch..num_slots`
    /// between iterations so stale presence bits never leak across them.
    pub first_scratch: usize,
    /// Total frame slots (upper end of the scratch-clear range).
    pub num_slots: usize,
    /// Iterations per instance (the grain); always ≥ 1.
    pub chunk: usize,
    /// `true` when the chunked loop steps downward (`downto`).
    pub descending: bool,
}

/// The static description of one Subcompact Process.
#[derive(Debug, Clone, PartialEq)]
pub struct SpTemplate {
    /// The template's identifier within its program.
    pub id: SpId,
    /// Human-readable name (`main`, `main.loop0.i`, ...).
    pub name: Name,
    /// What the template was generated from.
    pub kind: SpKind,
    /// Names of the parameter slots, in order. Parameters occupy slots
    /// `0..params.len()` of the frame and are filled by the spawn message.
    pub params: Vec<Name>,
    /// Total number of frame slots.
    pub num_slots: usize,
    /// Debug names of all slots.
    pub slot_names: Vec<Name>,
    /// The instruction sequence.
    pub code: Vec<Instr>,
    /// Loop metadata for loop-level templates.
    pub loop_meta: Option<LoopMeta>,
    /// Chunk metadata, set by the chunking transform when this template
    /// executes several consecutive outer iterations per instance.
    pub chunk_meta: Option<ChunkMeta>,
    /// The pre-resolved execution plan attached by the prepare-time
    /// specialization pass ([`crate::specialize::specialize_program`]);
    /// `None` executes through the plain interpreter loop.
    pub plan: Option<TemplatePlan>,
}

impl SpTemplate {
    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// Returns `true` when the template has no instructions.
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// The slot of a named parameter, if present.
    pub fn param_slot(&self, name: &str) -> Option<SlotId> {
        self.params.iter().position(|p| p == name).map(SlotId)
    }

    /// Returns `true` when this is a loop-level template.
    pub fn is_loop(&self) -> bool {
        matches!(self.kind, SpKind::Loop { .. })
    }

    /// Inserts `prologue` instructions at the start of the code, shifting
    /// every jump target and the loop metadata accordingly. Used by the
    /// partitioner to prepend Range-Filter bound computations. The
    /// instructions are spliced into the code vector in place.
    pub fn insert_prologue<I>(&mut self, prologue: I)
    where
        I: IntoIterator<Item = Instr>,
        I::IntoIter: ExactSizeIterator,
    {
        let prologue = prologue.into_iter();
        let shift = prologue.len();
        if shift == 0 {
            return;
        }
        for instr in &mut self.code {
            instr.shift_targets(|t| t + shift);
        }
        if let Some(meta) = &mut self.loop_meta {
            meta.init_instr += shift;
            meta.limit_init_instr += shift;
            meta.test_instr += shift;
        }
        self.code.splice(0..0, prologue);
    }

    /// A copy whose slot names and code have room for `slots` more slots
    /// and `instrs` more instructions, so that the partitioner adding them
    /// regrows neither.
    pub fn clone_with_room(&self, slots: usize, instrs: usize) -> SpTemplate {
        let mut slot_names = Vec::with_capacity(self.slot_names.len() + slots);
        slot_names.extend_from_slice(&self.slot_names);
        let mut code = Vec::with_capacity(self.code.len() + instrs);
        code.extend_from_slice(&self.code);
        SpTemplate {
            id: self.id,
            name: self.name.clone(),
            kind: self.kind.clone(),
            params: self.params.clone(),
            num_slots: self.num_slots,
            slot_names,
            code,
            loop_meta: self.loop_meta,
            chunk_meta: self.chunk_meta,
            plan: self.plan.clone(),
        }
    }

    /// Adds a fresh slot (used by the partitioner) and returns its id.
    pub fn add_slot(&mut self, name: impl Into<Name>) -> SlotId {
        let id = SlotId(self.num_slots);
        self.num_slots += 1;
        self.slot_names.push(name.into());
        id
    }

    /// Validates internal consistency: jump targets in range, slot references
    /// in range, parameters within the frame. Returns a list of problems
    /// (empty when the template is well-formed).
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        if self.params.len() > self.num_slots {
            problems.push(format!(
                "{}: {} params but only {} slots",
                self.name,
                self.params.len(),
                self.num_slots
            ));
        }
        if self.slot_names.len() != self.num_slots {
            problems.push(format!(
                "{}: {} slot names for {} slots",
                self.name,
                self.slot_names.len(),
                self.num_slots
            ));
        }
        for (pc, instr) in self.code.iter().enumerate() {
            for slot in instr.reads() {
                if slot.index() >= self.num_slots {
                    problems.push(format!("{}@{pc}: reads out-of-range {slot}", self.name));
                }
            }
            if let Some(slot) = instr.written_slot() {
                if slot.index() >= self.num_slots {
                    problems.push(format!("{}@{pc}: writes out-of-range {slot}", self.name));
                }
            }
            match instr {
                Instr::Jump { target } | Instr::BranchIfFalse { target, .. }
                    if *target > self.code.len() =>
                {
                    problems.push(format!(
                        "{}@{pc}: jump target {target} out of range",
                        self.name
                    ));
                }
                _ => {}
            }
        }
        if let Some(chunk) = &self.chunk_meta {
            for (what, slot) in [
                ("cursor", chunk.cursor),
                ("limit", chunk.limit),
                ("taken", chunk.taken),
            ] {
                if slot.index() >= self.num_slots {
                    problems.push(format!(
                        "{}: chunk {what} slot {slot} out of range",
                        self.name
                    ));
                }
            }
            if chunk.num_slots != self.num_slots {
                problems.push(format!(
                    "{}: chunk meta records {} slots, template has {}",
                    self.name, chunk.num_slots, self.num_slots
                ));
            }
            if chunk.chunk == 0 {
                problems.push(format!("{}: chunk size 0", self.name));
            }
        }
        problems
    }

    /// A human-readable disassembly of the template, for debugging and the
    /// example binaries.
    pub fn disassemble(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{} {} ({} slots, {} params)",
            self.id,
            self.name,
            self.num_slots,
            self.params.len()
        );
        for (pc, instr) in self.code.iter().enumerate() {
            let _ = writeln!(out, "  {pc:>3}: {instr:?}");
        }
        out
    }
}

/// A complete translated program: all SP templates plus the entry template.
#[derive(Debug, Clone, PartialEq)]
pub struct SpProgram {
    templates: Vec<SpTemplate>,
    functions: HashMap<Name, SpId>,
    entry: SpId,
}

impl SpProgram {
    /// Assembles a program from templates. `entry` is the template executed
    /// first (normally `main`'s).
    pub fn new(templates: Vec<SpTemplate>, functions: HashMap<Name, SpId>, entry: SpId) -> Self {
        SpProgram {
            templates,
            functions,
            entry,
        }
    }

    /// All templates, indexed by [`SpId`].
    pub fn templates(&self) -> &[SpTemplate] {
        &self.templates
    }

    /// A copy in which every loop template has room for `slots` more slots
    /// and `instrs` more instructions (see [`SpTemplate::clone_with_room`]);
    /// function templates are copied at their length.
    pub fn clone_with_loop_room(&self, slots: usize, instrs: usize) -> SpProgram {
        SpProgram {
            templates: self
                .templates
                .iter()
                .map(|t| match t.kind {
                    SpKind::Loop { .. } => t.clone_with_room(slots, instrs),
                    SpKind::Function { .. } => t.clone(),
                })
                .collect(),
            functions: self.functions.clone(),
            entry: self.entry,
        }
    }

    /// Mutable access for the partitioner.
    pub fn templates_mut(&mut self) -> &mut [SpTemplate] {
        &mut self.templates
    }

    /// The template with the given id.
    pub fn template(&self, id: SpId) -> &SpTemplate {
        &self.templates[id.index()]
    }

    /// The entry template.
    pub fn entry(&self) -> SpId {
        self.entry
    }

    /// The template of a function body.
    pub fn function(&self, name: &str) -> Option<SpId> {
        self.functions.get(name).copied()
    }

    /// Number of templates.
    pub fn len(&self) -> usize {
        self.templates.len()
    }

    /// Returns `true` when the program has no templates.
    pub fn is_empty(&self) -> bool {
        self.templates.is_empty()
    }

    /// The loop template with the given function/ordinal identity.
    pub fn loop_template(&self, function: &str, ordinal: usize) -> Option<&SpTemplate> {
        self.templates.iter().find(|t| match &t.kind {
            SpKind::Loop {
                function: f,
                ordinal: o,
                ..
            } => f == function && *o == ordinal,
            _ => false,
        })
    }

    /// Validates every template; returns all problems found.
    pub fn validate(&self) -> Vec<String> {
        let mut problems = Vec::new();
        for t in &self.templates {
            problems.extend(t.validate());
            if t.id.index() >= self.templates.len() {
                problems.push(format!("{}: id out of range", t.name));
            }
        }
        for (pc, instr) in self
            .templates
            .iter()
            .flat_map(|t| t.code.iter().enumerate())
        {
            if let Instr::Spawn { target, args, .. } = instr {
                if target.index() >= self.templates.len() {
                    problems.push(format!("spawn@{pc}: unknown target {target}"));
                } else {
                    let callee = &self.templates[target.index()];
                    if args.len() != callee.params.len() {
                        problems.push(format!(
                            "spawn@{pc}: {} args for {} params of {}",
                            args.len(),
                            callee.params.len(),
                            callee.name
                        ));
                    }
                }
            }
        }
        problems
    }

    /// Total number of instructions across all templates.
    pub fn total_instructions(&self) -> usize {
        self.templates.iter().map(|t| t.code.len()).sum()
    }

    /// A structural fingerprint of the program: a 64-bit hash over the entry
    /// point and every template's name, frame layout, and instruction
    /// sequence. Two programs with equal code (including partitioner
    /// rewrites — `LD` conversion, Range-Filter prologues) fingerprint
    /// equally; any code or layout difference changes the hash with
    /// overwhelming probability. Prepared-program caches use this to
    /// identify and cross-check partitioned programs without comparing
    /// instruction streams.
    pub fn fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.entry.hash(&mut h);
        self.templates.len().hash(&mut h);
        for t in &self.templates {
            t.id.hash(&mut h);
            t.name.hash(&mut h);
            t.params.hash(&mut h);
            t.num_slots.hash(&mut h);
            t.code.hash(&mut h);
            // Chunk metadata changes execution (the driver's in-place
            // iteration advance), so it is part of structural identity even
            // when the instruction stream happens to match.
            t.chunk_meta.hash(&mut h);
            // So does the specialization plan (super-op dispatch vs plain
            // interpretation): hash its shape so a specialized program
            // never fingerprints equal to its unspecialized twin. The plan
            // is a pure function of the code, so the shape is enough.
            match &t.plan {
                None => 0u8.hash(&mut h),
                Some(plan) => {
                    1u8.hash(&mut h);
                    plan.hash_shape(&mut h);
                }
            }
        }
        h.finish()
    }
}

/// Convenience helpers for building operands in tests and the translator.
pub fn slot(i: usize) -> Operand {
    Operand::Slot(SlotId(i))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pods_idlang::BinaryOp;

    fn tiny_loop_template() -> SpTemplate {
        // for i = init to limit { } rendered by hand.
        SpTemplate {
            id: SpId(0),
            name: "loop".into(),
            kind: SpKind::Loop {
                function: "main".into(),
                ordinal: 0,
                var: "i".into(),
                descending: false,
                depth: 0,
            },
            params: vec!["i__init".into(), "i__limit".into()],
            num_slots: 5,
            slot_names: vec![
                "i__init".into(),
                "i__limit".into(),
                "i".into(),
                "limit".into(),
                "cont".into(),
            ],
            code: vec![
                Instr::Move {
                    dst: SlotId(2),
                    src: slot(0),
                },
                Instr::Move {
                    dst: SlotId(3),
                    src: slot(1),
                },
                Instr::Binary {
                    op: BinaryOp::Le,
                    dst: SlotId(4),
                    lhs: slot(2),
                    rhs: slot(3),
                },
                Instr::BranchIfFalse {
                    cond: slot(4),
                    target: 6,
                },
                Instr::Binary {
                    op: BinaryOp::Add,
                    dst: SlotId(2),
                    lhs: slot(2),
                    rhs: Operand::Int(1),
                },
                Instr::Jump { target: 2 },
                Instr::Return { value: None },
            ],
            loop_meta: Some(LoopMeta {
                init_param_slot: SlotId(0),
                limit_param_slot: SlotId(1),
                index_slot: SlotId(2),
                limit_slot: SlotId(3),
                init_instr: 0,
                limit_init_instr: 1,
                test_instr: 2,
            }),
            chunk_meta: None,
            plan: None,
        }
    }

    #[test]
    fn prologue_insertion_shifts_targets_and_meta() {
        let mut t = tiny_loop_template();
        let extra = t.add_slot("rf_lo");
        t.insert_prologue(vec![Instr::Move {
            dst: extra,
            src: Operand::Int(0),
        }]);
        assert_eq!(t.code.len(), 8);
        assert!(matches!(t.code[4], Instr::BranchIfFalse { target: 7, .. }));
        assert!(matches!(t.code[6], Instr::Jump { target: 3 }));
        let meta = t.loop_meta.unwrap();
        assert_eq!(meta.init_instr, 1);
        assert_eq!(meta.test_instr, 3);
        assert!(t.validate().is_empty(), "{:?}", t.validate());
    }

    #[test]
    fn validation_catches_bad_slots_and_targets() {
        let mut t = tiny_loop_template();
        t.code.push(Instr::Jump { target: 99 });
        t.code.push(Instr::Move {
            dst: SlotId(42),
            src: slot(0),
        });
        let problems = t.validate();
        assert_eq!(problems.len(), 2);
    }

    #[test]
    fn program_lookup_and_spawn_arity_validation() {
        let loop_t = tiny_loop_template();
        let main_t = SpTemplate {
            id: SpId(1),
            name: "main".into(),
            kind: SpKind::Function {
                name: "main".into(),
            },
            params: vec![],
            num_slots: 1,
            slot_names: vec!["tmp".into()],
            code: vec![
                Instr::Spawn {
                    target: SpId(0),
                    args: [Operand::Int(0), Operand::Int(3)].into(),
                    distributed: false,
                    ret: None,
                },
                Instr::Return {
                    value: Some(Operand::Int(0)),
                },
            ],
            loop_meta: None,
            chunk_meta: None,
            plan: None,
        };
        let mut functions = HashMap::new();
        functions.insert("main".into(), SpId(1));
        let program = SpProgram::new(vec![loop_t, main_t], functions, SpId(1));
        assert_eq!(program.entry(), SpId(1));
        assert_eq!(program.function("main"), Some(SpId(1)));
        assert!(program.loop_template("main", 0).is_some());
        assert!(program.loop_template("main", 3).is_none());
        assert!(program.validate().is_empty());
        assert_eq!(program.total_instructions(), 9);
        assert!(!program.is_empty());
        assert!(program.template(SpId(0)).disassemble().contains("SP0"));
    }

    #[test]
    fn fingerprint_tracks_structural_identity() {
        let make = || {
            let loop_t = tiny_loop_template();
            let functions = HashMap::from([("main".into(), SpId(0))]);
            SpProgram::new(vec![loop_t], functions, SpId(0))
        };
        let a = make();
        let b = make();
        assert_eq!(a.fingerprint(), b.fingerprint(), "equal code, equal hash");

        // Any partitioner-style rewrite must change the fingerprint.
        let mut c = make();
        c.templates_mut()[0].insert_prologue(vec![Instr::Move {
            dst: SlotId(2),
            src: Operand::Int(0),
        }]);
        assert_ne!(a.fingerprint(), c.fingerprint(), "rewritten code, new hash");

        // Immediate operands participate, including float bit patterns.
        let mut d = make();
        d.templates_mut()[0].code[0] = Instr::Move {
            dst: SlotId(2),
            src: Operand::Float(1.5),
        };
        let mut e = make();
        e.templates_mut()[0].code[0] = Instr::Move {
            dst: SlotId(2),
            src: Operand::Float(2.5),
        };
        assert_ne!(d.fingerprint(), e.fingerprint());
    }

    #[test]
    fn spawn_arity_mismatch_is_reported() {
        let loop_t = tiny_loop_template();
        let main_t = SpTemplate {
            id: SpId(1),
            name: "main".into(),
            kind: SpKind::Function {
                name: "main".into(),
            },
            params: vec![],
            num_slots: 0,
            slot_names: vec![],
            code: vec![Instr::Spawn {
                target: SpId(0),
                args: [Operand::Int(0)].into(),
                distributed: false,
                ret: None,
            }],
            loop_meta: None,
            chunk_meta: None,
            plan: None,
        };
        let program = SpProgram::new(
            vec![loop_t, main_t],
            HashMap::from([("main".into(), SpId(1))]),
            SpId(1),
        );
        assert_eq!(program.validate().len(), 1);
    }
}
