//! Pipeline stage placement: match-action programs must fit a fixed
//! number of physical stages, and any stateful structure wider than one
//! stage's register budget must be sliced across consecutive stages —
//! the constraint behind the paper's observation that "one event cannot
//! be entirely accommodated in one stage, let alone 50" (§3.5), which
//! forced the circulating-CEBP design.
//!
//! The structures to place are the ones a program declared to its
//! [`ResourceLedger`](crate::ResourceLedger), so the layout and the
//! Figure 7 charges come from one description.

/// Maximum register cell width a single stage can hold (two 64-bit words,
/// the dual-width stateful ALU configuration).
const MAX_CELL_BITS_PER_STAGE: u32 = 128;

/// A stateful structure to place, as declared to the ledger.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Program module that owns the structure (a ledger label).
    pub(crate) module: &'static str,
    /// Structure name (diagnostics).
    pub name: &'static str,
    /// Logical cell width, bits.
    pub(crate) cell_bits: u32,
    /// Stateful ALUs the structure needs per occupied stage.
    pub(crate) alus_per_stage: u32,
}

impl Placement {
    /// Stages this structure spans: a cell wider than the per-stage limit
    /// is sliced across consecutive stages.
    pub fn stages(&self) -> u32 {
        self.cell_bits.div_ceil(MAX_CELL_BITS_PER_STAGE).max(1)
    }

    /// Stateful ALUs the structure occupies over all its stages.
    pub(crate) fn alus(&self) -> u32 {
        self.stages() * self.alus_per_stage
    }
}

/// A physical pipeline profile.
#[derive(Debug, Clone, Copy)]
pub struct PipelineProfile {
    /// Physical match-action stages (Tofino-class: 12).
    pub stages: u32,
    /// Stateful ALUs available per stage.
    pub(crate) alus_per_stage: u32,
}

/// The Tofino-like profile matching [`crate::resources::TOFINO_32D`].
pub const TOFINO_PIPELINE: PipelineProfile = PipelineProfile { stages: 12, alus_per_stage: 4 };

/// Result of placing structures into stages.
#[derive(Debug, Clone)]
pub struct LayoutResult {
    /// Each structure with the first stage it occupies, in input order.
    pub placed: Vec<(Placement, u32)>,
    /// ALUs used per stage after placement.
    pub alu_usage: Vec<u32>,
}

impl LayoutResult {
    /// Highest stage index used + 1 (i.e. pipeline depth consumed).
    pub fn depth(&self) -> u32 {
        self.placed.iter().map(|(s, first)| first + s.stages()).max().unwrap_or(0)
    }

    /// Stateful ALUs the placed structures of `module` occupy.
    pub fn alus_of(&self, module: &str) -> u64 {
        let of_module = self.placed.iter().filter(|(s, _)| s.module == module);
        of_module.map(|(s, _)| u64::from(s.alus())).sum()
    }
}

/// Error when a program cannot fit the pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DoesNotFit {
    /// The structure that failed to place.
    pub(crate) name: &'static str,
}

impl std::fmt::Display for DoesNotFit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "structure '{}' does not fit the pipeline", self.name)
    }
}

impl std::error::Error for DoesNotFit {}

/// First-fit placement of structures into consecutive stages, respecting
/// per-stage ALU budgets. Structures are placed in the given order (the
/// program's logical order — a dependency chain: each structure starts no
/// earlier than where the previous one started).
pub fn place(
    profile: PipelineProfile,
    structures: &[Placement],
) -> Result<LayoutResult, DoesNotFit> {
    let mut alu_usage = vec![0u32; profile.stages as usize];
    let mut placed = Vec::with_capacity(structures.len());
    let mut min_start = 0u32;
    for s in structures {
        let span = s.stages();
        let mut start = min_start;
        loop {
            if start + span > profile.stages {
                return Err(DoesNotFit { name: s.name });
            }
            let fits = (start..start + span)
                .all(|i| alu_usage[i as usize] + s.alus_per_stage <= profile.alus_per_stage);
            if fits {
                break;
            }
            start += 1;
        }
        for i in start..start + span {
            alu_usage[i as usize] += s.alus_per_stage;
        }
        placed.push((*s, start));
        min_start = start; // dependencies flow forward
    }
    Ok(LayoutResult { placed, alu_usage })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(name: &'static str, cell_bits: u32, alus_per_stage: u32) -> Placement {
        Placement { module: "m", name, cell_bits, alus_per_stage }
    }

    #[test]
    fn single_stage_structures_pack_together() {
        let r = place(TOFINO_PIPELINE, &[s("a", 32, 1), s("b", 64, 1), s("c", 128, 1)]).unwrap();
        // All fit in stage 0 (4 ALUs available).
        assert!(r.placed.iter().all(|(p, first)| *first == 0 && p.stages() == 1));
        assert_eq!(r.alu_usage[0], 3);
        assert_eq!(r.depth(), 1);
    }

    #[test]
    fn wide_structure_spans_stages() {
        let r = place(TOFINO_PIPELINE, &[s("wide", 300, 2)]).unwrap();
        assert_eq!(r.placed[0], (s("wide", 300, 2), 0));
        assert_eq!((r.depth(), r.alus_of("m"), r.alus_of("other")), (3, 6, 0));
        // A 17-byte ring-buffer slot (136 bits) needs two stages; 128 one.
        assert_eq!((s("ring", 136, 1).stages(), s("b", 128, 1).stages()), (2, 1));
    }

    #[test]
    fn alu_exhaustion_pushes_to_later_stages() {
        let structures: Vec<Placement> = (0..6).map(|_| s("x", 32, 4)).collect();
        let r = place(TOFINO_PIPELINE, &structures).unwrap();
        // Each takes a whole stage's ALUs: six consecutive stages.
        let firsts: Vec<u32> = r.placed.iter().map(|&(_, f)| f).collect();
        assert_eq!(firsts, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn oversized_program_rejected() {
        let structures: Vec<Placement> = (0..13).map(|_| s("hog", 32, 4)).collect();
        assert_eq!(place(TOFINO_PIPELINE, &structures).unwrap_err(), DoesNotFit { name: "hog" });
    }

    #[test]
    fn a_50_event_register_would_not_fit_one_stage() {
        // The §3.5 motivation: 50 events x 24B = 9600 bits needs 75 stages
        // as a single register — impossible; hence CEBPs.
        let naive = s("batch-50", 50 * 24 * 8, 1);
        assert_eq!(naive.stages(), 75);
        assert!(place(TOFINO_PIPELINE, &[naive]).is_err());
    }

    #[test]
    fn dependencies_flow_forward() {
        let r = place(TOFINO_PIPELINE, &[s("first", 256, 4), s("second", 32, 1)]).unwrap();
        assert!(r.placed[1].1 >= r.placed[0].1, "a later structure starts no earlier");
    }
}
