//! Pattern-based micro-benchmark generation (§3.3).
//!
//! Each pattern targets one of the ten static feature classes and emits
//! nine kernels with instruction intensity 2⁰ … 2⁸ — e.g. `b-int-add`
//! contains kernels with 1, 2, 4, …, 256 integer additions over a fixed
//! one-load/one-store memory skeleton. Sweeping the intensity moves a
//! kernel from memory-dominated to compute-dominated, so the training
//! set covers both regimes of the timing model for every instruction
//! class.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::fmt::Write as _;

/// The ten pattern kinds, one per static feature class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PatternKind {
    /// Integer additions (`k_int_add`).
    IntAdd,
    /// Integer multiplications (`k_int_mul`).
    IntMul,
    /// Integer divisions (`k_int_div`).
    IntDiv,
    /// Integer bitwise ops (`k_int_bw`).
    IntBitwise,
    /// Float additions (`k_float_add`).
    FloatAdd,
    /// Float multiplications (`k_float_mul`).
    FloatMul,
    /// Float divisions (`k_float_div`).
    FloatDiv,
    /// Special functions (`k_sf`).
    SpecialFn,
    /// Global memory accesses (`k_gl_access`).
    GlobalAccess,
    /// Local memory accesses (`k_loc_access`).
    LocalAccess,
}

impl PatternKind {
    /// All ten patterns in canonical order.
    pub const ALL: [PatternKind; 10] = [
        PatternKind::IntAdd,
        PatternKind::IntMul,
        PatternKind::IntDiv,
        PatternKind::IntBitwise,
        PatternKind::FloatAdd,
        PatternKind::FloatMul,
        PatternKind::FloatDiv,
        PatternKind::SpecialFn,
        PatternKind::GlobalAccess,
        PatternKind::LocalAccess,
    ];

    /// Pattern name in the paper's style (`b-int-add`, `b-sf`, ...).
    pub fn name(self) -> &'static str {
        match self {
            PatternKind::IntAdd => "b-int-add",
            PatternKind::IntMul => "b-int-mul",
            PatternKind::IntDiv => "b-int-div",
            PatternKind::IntBitwise => "b-int-bw",
            PatternKind::FloatAdd => "b-float-add",
            PatternKind::FloatMul => "b-float-mul",
            PatternKind::FloatDiv => "b-float-div",
            PatternKind::SpecialFn => "b-sf",
            PatternKind::GlobalAccess => "b-gl-access",
            PatternKind::LocalAccess => "b-loc-access",
        }
    }

    /// Index of the feature this pattern stresses in the static
    /// feature vector (see `gpufreq_kernel::STATIC_FEATURE_NAMES`).
    pub fn feature_index(self) -> usize {
        match self {
            PatternKind::IntAdd => 0,
            PatternKind::IntMul => 1,
            PatternKind::IntDiv => 2,
            PatternKind::IntBitwise => 3,
            PatternKind::FloatAdd => 4,
            PatternKind::FloatMul => 5,
            PatternKind::FloatDiv => 6,
            PatternKind::SpecialFn => 7,
            PatternKind::GlobalAccess => 8,
            PatternKind::LocalAccess => 9,
        }
    }

    /// One unrolled body statement exercising this pattern.
    /// `k` is the unroll index, used to vary constants.
    pub(crate) fn body_line(self, k: u32) -> String {
        match self {
            PatternKind::IntAdd => format!("    v = v + {};\n", 1 + k % 7),
            PatternKind::IntMul => "    v = v * 3;\n".to_string(),
            PatternKind::IntDiv => format!("    v = v / {};\n", 2 + k % 3),
            PatternKind::IntBitwise => match k % 3 {
                0 => format!("    v = v ^ {};\n", 0x5f + (k % 16)),
                1 => "    v = v << 1;\n".to_string(),
                _ => format!("    v = v & {};\n", 0x7fffff),
            },
            PatternKind::FloatAdd => "    f = f + 1.5f;\n".to_string(),
            PatternKind::FloatMul => "    f = f * 1.0001f;\n".to_string(),
            PatternKind::FloatDiv => "    f = f / 1.0001f;\n".to_string(),
            PatternKind::SpecialFn => match k % 4 {
                0 => "    f = sin(f);\n".to_string(),
                1 => "    f = cos(f);\n".to_string(),
                2 => "    f = exp(f) - f;\n".to_string(),
                _ => "    f = sqrt(f + 2.0f);\n".to_string(),
            },
            // Rotate over four buffers with a fixed index so the lines
            // are dominated by the accesses themselves, with one store
            // every fourth line.
            PatternKind::GlobalAccess => match k % 4 {
                0 => "    f = f + in_buf[idx];\n".to_string(),
                1 => "    f = f + aux_a[idx];\n".to_string(),
                2 => "    f = f + aux_b[idx];\n".to_string(),
                _ => "    out_buf[idx] = f;\n".to_string(),
            },
            PatternKind::LocalAccess => match k % 2 {
                0 => "    tile[lid] = f;\n".to_string(),
                _ => "    f = f + tile[lid];\n".to_string(),
            },
        }
    }

    /// Emit the full kernel source at `intensity` repetitions.
    pub fn kernel_source(self, intensity: u32) -> String {
        let fn_name = self.name().replace('-', "_");
        let mut src = String::with_capacity(256 + 48 * intensity as usize);
        match self {
            PatternKind::GlobalAccess => {
                let _ = writeln!(
                    src,
                    "__kernel void {fn_name}_{intensity}(__global float* in_buf, __global float* aux_a, __global float* aux_b, __global float* out_buf, uint mask) {{"
                );
                src.push_str("    uint gid = get_global_id(0);\n");
                src.push_str("    uint idx = gid & mask;\n");
                src.push_str("    float f = in_buf[idx];\n");
            }
            PatternKind::LocalAccess => {
                let _ = writeln!(
                    src,
                    "__kernel void {fn_name}_{intensity}(__global float* in_buf, __global float* out_buf, uint mask) {{"
                );
                src.push_str("    __local float tile[256];\n");
                src.push_str("    uint gid = get_global_id(0);\n");
                src.push_str("    uint lid = get_local_id(0);\n");
                src.push_str("    float f = in_buf[gid & mask];\n");
                src.push_str("    tile[lid] = f;\n");
                src.push_str("    barrier(0);\n");
            }
            _ => {
                let _ = writeln!(
                    src,
                    "__kernel void {fn_name}_{intensity}(__global float* in_buf, __global float* out_buf, uint mask) {{"
                );
                src.push_str("    uint gid = get_global_id(0);\n");
                src.push_str("    float f = in_buf[gid & mask];\n");
            }
        }
        if self.is_integer_pattern() {
            src.push_str("    int v = (int)f + (int)gid;\n");
        }
        for k in 0..intensity {
            src.push_str(&self.body_line(k));
        }
        if self.is_integer_pattern() {
            src.push_str("    out_buf[gid] = (float)v;\n");
        } else {
            src.push_str("    out_buf[gid] = f;\n");
        }
        src.push_str("}\n");
        src
    }

    fn is_integer_pattern(self) -> bool {
        matches!(
            self,
            PatternKind::IntAdd
                | PatternKind::IntMul
                | PatternKind::IntDiv
                | PatternKind::IntBitwise
        )
    }
}

impl fmt::Display for PatternKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// The nine intensities per pattern: 2⁰ … 2⁸ (§3.3).
pub const INTENSITIES: [u32; 9] = [1, 2, 4, 8, 16, 32, 64, 128, 256];

#[cfg(test)]
mod tests {
    use super::*;
    use gpufreq_kernel::{analyze_kernel, parse, StaticFeatures};

    #[test]
    fn all_pattern_kernels_parse_and_analyze() {
        for p in PatternKind::ALL {
            for &i in &INTENSITIES {
                let src = p.kernel_source(i);
                let prog = parse(&src).unwrap_or_else(|e| panic!("{p} @ {i}: {e}\n{src}"));
                let a = analyze_kernel(prog.first_kernel().unwrap())
                    .unwrap_or_else(|e| panic!("{p} @ {i}: {e}"));
                assert!(a.counts.total() > 0.0);
            }
        }
    }

    #[test]
    fn high_intensity_kernels_are_dominated_by_their_class() {
        for p in PatternKind::ALL {
            let src = p.kernel_source(256);
            let prog = parse(&src).unwrap();
            let a = analyze_kernel(prog.first_kernel().unwrap()).unwrap();
            let f = StaticFeatures::from_analysis(&a);
            let target = f.get(p.feature_index());
            for (j, &v) in f.values().iter().enumerate() {
                if j != p.feature_index() {
                    assert!(
                        target >= v,
                        "{p}: feature {j} ({v}) exceeds target ({target})"
                    );
                }
            }
            assert!(target > 0.25, "{p}: target share only {target}");
        }
    }

    #[test]
    fn intensity_increases_target_share() {
        for p in PatternKind::ALL {
            let share = |i: u32| {
                let src = p.kernel_source(i);
                let prog = parse(&src).unwrap();
                let a = analyze_kernel(prog.first_kernel().unwrap()).unwrap();
                StaticFeatures::from_analysis(&a).get(p.feature_index())
            };
            assert!(
                share(256) > share(1),
                "{p}: target share must grow with intensity"
            );
        }
    }

    #[test]
    fn pattern_names_are_unique() {
        let mut names: Vec<&str> = PatternKind::ALL.iter().map(|p| p.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 10);
    }
}
