//! Mixed-feature micro-benchmarks (§3.3).
//!
//! Besides the ten single-class patterns, the training set includes a
//! set of benchmarks "corresponding to a mix of all used features":
//! sixteen kernels combining arithmetic classes, special functions and
//! memory traffic in different proportions, filling the interior of the
//! feature simplex that the single-class patterns only touch at its
//! corners.

use crate::patterns::PatternKind;
use std::fmt::Write as _;

/// A mixed benchmark: named proportions of the base patterns.
#[derive(Debug, Clone)]
pub struct MixSpec {
    /// Benchmark name (`b-mix-*`).
    pub name: &'static str,
    /// `(pattern, repetitions)` components, applied in order.
    pub components: Vec<(PatternKind, u32)>,
}

/// The sixteen mixed benchmarks.
pub fn mix_specs() -> Vec<MixSpec> {
    use PatternKind::*;
    vec![
        MixSpec {
            name: "b-mix-fma",
            components: vec![(FloatMul, 16), (FloatAdd, 16)],
        },
        MixSpec {
            name: "b-mix-fma-heavy",
            components: vec![(FloatMul, 96), (FloatAdd, 96)],
        },
        MixSpec {
            name: "b-mix-int-float",
            components: vec![(IntAdd, 24), (FloatAdd, 24)],
        },
        MixSpec {
            name: "b-mix-int-alu",
            components: vec![(IntAdd, 16), (IntMul, 16), (IntBitwise, 16)],
        },
        MixSpec {
            name: "b-mix-crypto",
            components: vec![(IntBitwise, 48), (IntAdd, 16), (GlobalAccess, 4)],
        },
        MixSpec {
            name: "b-mix-sf-mul",
            components: vec![(SpecialFn, 12), (FloatMul, 24)],
        },
        MixSpec {
            name: "b-mix-sf-light",
            components: vec![(SpecialFn, 4), (FloatAdd, 8), (GlobalAccess, 2)],
        },
        MixSpec {
            name: "b-mix-stream",
            components: vec![(GlobalAccess, 8), (FloatAdd, 4)],
        },
        MixSpec {
            name: "b-mix-stream-compute",
            components: vec![(GlobalAccess, 4), (FloatMul, 48)],
        },
        MixSpec {
            name: "b-mix-stencil",
            components: vec![(GlobalAccess, 6), (FloatMul, 12), (FloatAdd, 12)],
        },
        MixSpec {
            name: "b-mix-tile",
            components: vec![(LocalAccess, 16), (FloatMul, 16), (FloatAdd, 8)],
        },
        MixSpec {
            name: "b-mix-tile-heavy",
            components: vec![(LocalAccess, 48), (FloatMul, 8)],
        },
        MixSpec {
            name: "b-mix-div",
            components: vec![(FloatDiv, 8), (FloatMul, 16), (IntDiv, 4)],
        },
        MixSpec {
            name: "b-mix-reduce",
            components: vec![(LocalAccess, 12), (IntAdd, 12), (GlobalAccess, 3)],
        },
        MixSpec {
            name: "b-mix-all",
            components: vec![
                (IntAdd, 6),
                (IntMul, 6),
                (IntBitwise, 6),
                (FloatAdd, 6),
                (FloatMul, 6),
                (SpecialFn, 3),
                (GlobalAccess, 3),
                (LocalAccess, 6),
            ],
        },
        MixSpec {
            name: "b-mix-all-heavy",
            components: vec![
                (IntAdd, 24),
                (IntMul, 12),
                (IntDiv, 4),
                (IntBitwise, 24),
                (FloatAdd, 24),
                (FloatMul, 24),
                (FloatDiv, 6),
                (SpecialFn, 8),
                (GlobalAccess, 6),
                (LocalAccess, 12),
            ],
        },
    ]
}

impl MixSpec {
    /// Emit the kernel source for this mix.
    ///
    /// The skeleton matches the single-pattern kernels (one load, one
    /// store, same parameter list) so that mixes differ only in their
    /// instruction mixture; components are interleaved round-robin so
    /// no class clusters at one end of the body.
    pub fn kernel_source(&self) -> String {
        let fn_name = self.name.replace('-', "_");
        let needs_local = self
            .components
            .iter()
            .any(|(p, _)| matches!(p, PatternKind::LocalAccess));
        let needs_int = self.components.iter().any(|(p, _)| {
            matches!(
                p,
                PatternKind::IntAdd
                    | PatternKind::IntMul
                    | PatternKind::IntDiv
                    | PatternKind::IntBitwise
            )
        });
        let mut src = String::new();
        let _ = writeln!(
            src,
            "__kernel void {fn_name}(__global float* in_buf, __global float* out_buf, uint mask) {{"
        );
        if needs_local {
            src.push_str("    __local float tile[256];\n");
        }
        src.push_str("    uint gid = get_global_id(0);\n");
        if needs_local {
            src.push_str("    uint lid = get_local_id(0);\n");
        }
        src.push_str("    float f = in_buf[gid & mask];\n");
        if needs_local {
            src.push_str("    tile[lid] = f;\n");
            src.push_str("    barrier(0);\n");
        }
        if needs_int {
            src.push_str("    int v = (int)f + (int)gid;\n");
        }
        // Round-robin interleave of the components.
        let mut remaining: Vec<(PatternKind, u32)> = self.components.clone();
        let mut k = 0u32;
        while remaining.iter().any(|(_, n)| *n > 0) {
            for (p, n) in remaining.iter_mut() {
                if *n > 0 {
                    src.push_str(&mix_body_line(*p, k));
                    *n -= 1;
                    k += 1;
                }
            }
        }
        if needs_int {
            src.push_str("    out_buf[gid] = f + (float)v;\n");
        } else {
            src.push_str("    out_buf[gid] = f;\n");
        }
        src.push_str("}\n");
        src
    }
}

/// Body lines for mixed kernels. The single-pattern `body_line` variants
/// for global/local access assume the dedicated multi-buffer skeleton;
/// mixes use the plain `in_buf`/`out_buf`/`tile` skeleton, so the two
/// memory classes are emitted differently here.
fn mix_body_line(p: PatternKind, k: u32) -> String {
    match p {
        PatternKind::IntAdd => format!("    v = v + {};\n", 1 + k % 7),
        PatternKind::IntMul => "    v = v * 3;\n".to_string(),
        PatternKind::IntDiv => format!("    v = v / {};\n", 2 + k % 3),
        PatternKind::IntBitwise => match k % 3 {
            0 => format!("    v = v ^ {};\n", 0x5f + (k % 16)),
            1 => "    v = v << 1;\n".to_string(),
            _ => "    v = v & 8388607;\n".to_string(),
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
        PatternKind::GlobalAccess => {
            format!("    f = f + in_buf[(gid + {}u) & mask];\n", k * 33 + 1)
        }
        PatternKind::LocalAccess => match k % 2 {
            0 => format!("    tile[(lid + {}u) & 255u] = f;\n", k + 1),
            _ => format!("    f = f + tile[(lid + {}u) & 255u];\n", k),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpufreq_kernel::{analyze_kernel, parse, StaticFeatures};

    #[test]
    fn there_are_sixteen_mixes() {
        assert_eq!(mix_specs().len(), 16);
    }

    #[test]
    fn mix_names_are_unique() {
        let mut names: Vec<&str> = mix_specs().iter().map(|m| m.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 16);
    }

    #[test]
    fn all_mixes_parse_and_analyze() {
        for m in mix_specs() {
            let src = m.kernel_source();
            let prog = parse(&src).unwrap_or_else(|e| panic!("{}: {e}\n{src}", m.name));
            let a = analyze_kernel(prog.first_kernel().unwrap())
                .unwrap_or_else(|e| panic!("{}: {e}", m.name));
            assert!(a.counts.total() > 0.0, "{}", m.name);
        }
    }

    #[test]
    fn mixes_touch_multiple_feature_classes() {
        for m in mix_specs() {
            let prog = parse(&m.kernel_source()).unwrap();
            let a = analyze_kernel(prog.first_kernel().unwrap()).unwrap();
            let f = StaticFeatures::from_analysis(&a);
            let active = f.values().iter().filter(|&&v| v > 0.01).count();
            assert!(active >= 2, "{} exercises {} classes", m.name, active);
        }
    }

    #[test]
    fn mix_all_touches_almost_everything() {
        let all = mix_specs()
            .into_iter()
            .find(|m| m.name == "b-mix-all-heavy")
            .unwrap();
        let prog = parse(&all.kernel_source()).unwrap();
        let a = analyze_kernel(prog.first_kernel().unwrap()).unwrap();
        let f = StaticFeatures::from_analysis(&a);
        let active = f.values().iter().filter(|&&v| v > 0.005).count();
        assert!(active >= 8, "only {active} active classes");
    }
}
