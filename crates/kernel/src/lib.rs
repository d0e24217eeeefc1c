//! `gpufreq-kernel` — OpenCL-C-like kernel front-end and static feature
//! extraction.
//!
//! This crate is the compiler substrate of the `gpufreq` reproduction of
//! *Predictable GPUs Frequency Scaling for Energy and Performance*
//! (Fan, Cosenza, Juurlink — ICPP 2019). It provides:
//!
//! * a pull [`lexer`] and recursive-descent [`parser`] for a pragmatic
//!   OpenCL-C subset (everything the paper's 106 synthetic training
//!   kernels and 12 test benchmarks need). The [`ast`] borrows names
//!   from the source and keeps each kernel's nodes in flat arenas, so
//!   a parse allocates a few vectors, not an object per token or node,
//! * a static analysis pass ([`ir`]) that lowers kernels to classed
//!   executed-instruction counts with static loop trip counts — the
//!   analogue of the paper's LLVM feature-extraction pass,
//! * the paper's feature representation ([`features`]): ten normalized
//!   instruction-mix components plus the scaled `(f_core, f_mem)` pair,
//! * execution [`profile`]s: the absolute per-work-item work handed to
//!   the GPU simulator as ground truth.
//!
//! # Example
//!
//! ```
//! use gpufreq_kernel::{parse, analyze_kernel, StaticFeatures};
//!
//! let program = parse(
//!     "__kernel void saxpy(__global float* x, __global float* y, float a) {
//!          uint i = get_global_id(0);
//!          y[i] = a * x[i] + y[i];
//!      }",
//! ).unwrap();
//! let analysis = analyze_kernel(program.first_kernel().unwrap()).unwrap();
//! let features = StaticFeatures::from_analysis(&analysis);
//! assert!(features.sum() > 0.0);
//! ```

#![warn(missing_docs)]

pub mod ast;
pub mod builtins;
pub mod features;
pub mod ir;
pub mod lexer;
pub mod parser;
pub mod profile;

pub use ast::{KernelFn, Program};
pub use features::{
    memory_boundedness, FeatureVector, FreqConfig, StaticFeatures, CORE_FREQ_RANGE_MHZ,
    MEM_FREQ_RANGE_MHZ, NUM_FEATURES, NUM_STATIC_FEATURES, STATIC_FEATURE_NAMES,
};
pub use ir::{
    analyze_kernel, analyze_kernel_with, AnalysisConfig, AnalysisError, InstrClass,
    InstructionCounts, KernelAnalysis,
};
pub use lexer::{lex, LexError};
pub use parser::{parse, ParseError};
pub use profile::{KernelProfile, LaunchConfig};
