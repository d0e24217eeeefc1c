//! Bit pins on the kernel front end: what `analyze_source` makes of
//! every kernel the system ships or serves, and the exact text of its
//! diagnostics.
//!
//! Each kernel below is reduced to the FNV-1a-64 hash of its
//! `StaticFeatures` bits followed by its `KernelProfile` (name bytes,
//! per-class instruction counts, traffic bytes). The set covers the 12
//! test workloads (through `analyze_source` and through the workload's
//! own bound profile), the 106 synthetic training kernels, and the
//! `cold_titanx` request form of every benchmark pool kernel (a
//! `// perfbench cold <seed> <n>` comment line prepended). A lexer or
//! parser rewrite must leave every pin unchanged; the malformed
//! sources pin the error text a client sees on the wire, including
//! which error wins when one source holds both a lex and a parse error.

use gpufreq_core::analyze_source;
use gpufreq_kernel::{KernelProfile, StaticFeatures};

/// FNV-1a, 64-bit, folded over `bytes` starting from `h`.
fn fnv1a64(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The hash of one front-end answer.
fn pin_of(features: &StaticFeatures, profile: &KernelProfile) -> u64 {
    let mut h = FNV_OFFSET;
    for v in features.values() {
        h = fnv1a64(h, &v.to_bits().to_le_bytes());
    }
    h = fnv1a64(h, profile.name.as_bytes());
    let traffic = [
        profile.global_read_bytes,
        profile.global_write_bytes,
        profile.local_bytes,
    ];
    for v in profile.counts.iter().map(|(_, n)| n).chain(traffic) {
        h = fnv1a64(h, &v.to_bits().to_le_bytes());
    }
    h
}

fn served_pin(source: &str) -> u64 {
    let (features, profile) = analyze_source(source, None).expect("shipped kernels analyze");
    pin_of(&features, &profile)
}

/// Compare `(what, observed)` against `(what, pin)` tables; on any
/// difference the message lists every observed row in the table's own
/// syntax.
fn assert_pinned(observed: &[(String, u64)], pins: &[(&str, u64)]) {
    let same = observed.len() == pins.len()
        && observed
            .iter()
            .zip(pins)
            .all(|((w, h), (pw, ph))| w == pw && h == ph);
    let rows: Vec<String> = observed
        .iter()
        .map(|(w, h)| format!("    (\"{w}\", 0x{h:016x}),"))
        .collect();
    assert!(same, "front-end bits moved; observed:\n{}", rows.join("\n"));
}

#[test]
fn workload_analyses_are_pinned() {
    let observed: Vec<(String, u64)> = gpufreq_workloads::all_workloads()
        .iter()
        .flat_map(|w| {
            let bound = w.profile();
            [
                (w.name.to_string(), served_pin(&w.source)),
                (
                    format!("{}/bound", w.name),
                    pin_of(&bound.static_features(), &bound),
                ),
            ]
        })
        .collect();
    assert_pinned(&observed, WORKLOAD_PINS);
}

#[test]
fn corpus_analyses_are_pinned() {
    let observed: Vec<(String, u64)> = gpufreq_synth::generate_all()
        .iter()
        .map(|b| (b.name.clone(), served_pin(&b.source)))
        .collect();
    assert_pinned(&observed, CORPUS_PINS);
}

/// The benchmark pool (12 workloads plus every ninth corpus kernel) in
/// the stamped form the `cold_titanx` stream sends.
#[test]
fn cold_request_analyses_are_pinned() {
    let workloads = gpufreq_workloads::all_workloads()
        .into_iter()
        .map(|w| (w.name.to_string(), w.source));
    let corpus = gpufreq_synth::generate_all()
        .into_iter()
        .step_by(9)
        .map(|b| (b.name, b.source));
    let observed: Vec<(String, u64)> = workloads
        .chain(corpus)
        .enumerate()
        .map(|(n, (name, source))| {
            let stamped = format!("// perfbench cold 1 {n}\n{source}");
            (name, served_pin(&stamped))
        })
        .collect();
    assert_pinned(&observed, COLD_PINS);
}

/// Malformed sources and the exact `Display` text of their error.
const DIAGNOSTICS: &[(&str, &str)] = &[
    (
        "__kernel void k() { /* never closed",
        "kernel parse error: parse error at line 1: unterminated block comment",
    ),
    (
        "__kernel void k() {\n  int a = $;\n}",
        "kernel parse error: parse error at line 2: unexpected character '$'",
    ),
    (
        "__kernel void k() { int a = 0x; }",
        "kernel parse error: parse error at line 1: hex literal with no digits",
    ),
    (
        "__kernel void k() { int a = 99999999999999999999; }",
        "kernel parse error: parse error at line 1: invalid int literal: number too large to fit in target type",
    ),
    (
        "__kernel void k() { int a = 0xFFFFFFFFFFFFFFFFFF; }",
        "kernel parse error: parse error at line 1: invalid hex literal: number too large to fit in target type",
    ),
    (
        "__kernel void k(__global float* x) {\n  x[0] = 1.0f\n}",
        "kernel parse error: parse error at line 3: expected ';', found '}'",
    ),
    (
        "__kernel void k(__global float* x) {\n  x[0] = 1.0f;\n",
        "kernel parse error: parse error at line 3: unexpected end of input inside block",
    ),
    ("", "kernel parse error: parse error at line 0: source contains no kernels"),
    (
        "// a comment and nothing else\n",
        "kernel parse error: parse error at line 0: source contains no kernels",
    ),
    (
        "this is not OpenCL",
        "kernel parse error: parse error at line 1: expected '__kernel', found 'this'",
    ),
    (
        "__kernel void abcdefghijklmnopqrstuvwxyz0123456789abcdef",
        "kernel parse error: parse error at line 1: expected '(', found end of input",
    ),
    (
        "abcdefghijklmnopqrstuvwxyz0123456789abcdef",
        "kernel parse error: parse error at line 1: expected '__kernel', found 'abcdefghijklmnopqrstuvwxyz012345…'",
    ),
    (
        "__kernel void k() { float é; }",
        "kernel parse error: parse error at line 1: unexpected character 'é'",
    ),
    (
        "__kernel void k(",
        "kernel parse error: parse error at line 1: expected type, found end of input",
    ),
    (
        "__kernel void k(__global float* x) {\n  (x[0] + x[1]) = 1.0f;\n}",
        "kernel parse error: parse error at line 2: invalid assignment target",
    ),
    (
        "__kernel void k(__global float* x) {\n  x[0]++;\n}",
        "kernel parse error: parse error at line 2: '++' or '--' requires a variable",
    ),
    (
        "__kernel void k() { __local float t[n]; }",
        "kernel parse error: parse error at line 1: expected array length literal, found 'n'",
    ),
    (
        "__kernel void k() { int a = ; }",
        "kernel parse error: parse error at line 1: expected expression, found ';'",
    ),
    // A lex error anywhere wins over an earlier parse error.
    (
        "__kernel void k( {\n}\n$",
        "kernel parse error: parse error at line 3: unexpected character '$'",
    ),
    (
        "__kernel void k() { int a = ; }\n/* never closed",
        "kernel parse error: parse error at line 2: unterminated block comment",
    ),
    (
        "__kernel void k() { }\n@",
        "kernel parse error: parse error at line 2: unexpected character '@'",
    ),
    (
        "__kernel void k() { x = 1.0e; }",
        "kernel parse error: parse error at line 1: expected ';', found 'e'",
    ),
];

#[test]
fn diagnostics_are_pinned() {
    let moved: Vec<String> = DIAGNOSTICS
        .iter()
        .filter_map(|&(source, want)| {
            let got = analyze_source(source, None)
                .expect_err("malformed source")
                .to_string();
            (got != want).then(|| format!("{source:?}: observed {got:?}"))
        })
        .collect();
    assert!(moved.is_empty(), "diagnostics moved:\n{}", moved.join("\n"));
}

const WORKLOAD_PINS: &[(&str, u64)] = &[
    ("perlin", 0x1612a4d690f2aa34),
    ("perlin/bound", 0xf96332819bb6689c),
    ("md", 0xd7562896d76ddefb),
    ("md/bound", 0xae278b62413dcec7),
    ("kmeans", 0x34f3dc4dceaa6d2d),
    ("kmeans/bound", 0x34f3dc4dceaa6d2d),
    ("median", 0x03d2b345686d0a75),
    ("median/bound", 0x03d2b345686d0a75),
    ("convolution", 0x1095b3b1b7f88b3c),
    ("convolution/bound", 0x98e213509a08bb6d),
    ("blackscholes", 0x543f27a03e8b2351),
    ("blackscholes/bound", 0x543f27a03e8b2351),
    ("mt", 0x4338c476fdeb8c00),
    ("mt/bound", 0x4338c476fdeb8c00),
    ("flte", 0x4520cda34c82c4b8),
    ("flte/bound", 0xc795157184f06374),
    ("matmul", 0x6137e7a02fe579e6),
    ("matmul/bound", 0xaea9b3b2eeb98e38),
    ("bitcompression", 0xbab67e2d357980d3),
    ("bitcompression/bound", 0xbab67e2d357980d3),
    ("aes", 0xa2362a36483c145d),
    ("aes/bound", 0x6373e71525322678),
    ("knn", 0xa3a0d4fb157faa5e),
    ("knn/bound", 0x4a8681da4a64d332),
];

const CORPUS_PINS: &[(&str, u64)] = &[
    ("b-int-add-1", 0x4b74bd1b6f44ebe0),
    ("b-int-add-2", 0xe5353cc7aeeb9690),
    ("b-int-add-4", 0x8c04f35f59444a83),
    ("b-int-add-8", 0x50d1b676c97ef7e4),
    ("b-int-add-16", 0x84746fef8db52843),
    ("b-int-add-32", 0x6c06f521c3198622),
    ("b-int-add-64", 0x7c119bff3758bd08),
    ("b-int-add-128", 0xaffd774927f96a7e),
    ("b-int-add-256", 0x559da22a7691c275),
    ("b-int-mul-1", 0xb6b28474f4a3a317),
    ("b-int-mul-2", 0x65a8dd4c3372879b),
    ("b-int-mul-4", 0x536f54fe355b6e7d),
    ("b-int-mul-8", 0xcef56aa1ea325581),
    ("b-int-mul-16", 0xe2b5dd52c927acd0),
    ("b-int-mul-32", 0x27535d874cc27e6e),
    ("b-int-mul-64", 0xf875b89c276712f9),
    ("b-int-mul-128", 0x530d3a1fece30d6c),
    ("b-int-mul-256", 0x4046cd70c690d874),
    ("b-int-div-1", 0x02d5006b0235bd26),
    ("b-int-div-2", 0xb1496455ea141032),
    ("b-int-div-4", 0xe6c4927dbcf92390),
    ("b-int-div-8", 0xaa1b3ed273cdd08c),
    ("b-int-div-16", 0xf1dd95640bf84413),
    ("b-int-div-32", 0xdcbedb1f594e7a75),
    ("b-int-div-64", 0x47e7951939acc486),
    ("b-int-div-128", 0x74889fef8a64e2d5),
    ("b-int-div-256", 0x86e61a400dcf8a69),
    ("b-int-bw-1", 0xf02ee06c4b0ed68c),
    ("b-int-bw-2", 0x46fe8f1c8132a3be),
    ("b-int-bw-4", 0x927ce5892cd1d4bf),
    ("b-int-bw-8", 0xdca0f4d644ff81ca),
    ("b-int-bw-16", 0x24d04c752aa358db),
    ("b-int-bw-32", 0x855dce7f691dba2e),
    ("b-int-bw-64", 0xfa2cfdfa3c64db66),
    ("b-int-bw-128", 0xaf883d5911002d46),
    ("b-int-bw-256", 0xd1582064eaf0ef4b),
    ("b-float-add-1", 0xb4d2bee26af3cd6b),
    ("b-float-add-2", 0x6a6517b361616cab),
    ("b-float-add-4", 0xda41b1f24b39eef5),
    ("b-float-add-8", 0x9f38e59984429add),
    ("b-float-add-16", 0x13ec7f573998473d),
    ("b-float-add-32", 0x59be1bc3117fa1fa),
    ("b-float-add-64", 0xd167e62998c7617e),
    ("b-float-add-128", 0x68885869c11b33b1),
    ("b-float-add-256", 0xfd1688eb30f7c65f),
    ("b-float-mul-1", 0x84f428ce3ab7551a),
    ("b-float-mul-2", 0x515e3f3bac5f95ba),
    ("b-float-mul-4", 0xa80a3b81a2ea9260),
    ("b-float-mul-8", 0x732b7e35a6923468),
    ("b-float-mul-16", 0xc0359c39c4f9ca0a),
    ("b-float-mul-32", 0x8e454d35c8e66399),
    ("b-float-mul-64", 0x8fcd5e31e6f70e69),
    ("b-float-mul-128", 0x96b657ae7b515bd8),
    ("b-float-mul-256", 0xb92f92f48afeb642),
    ("b-float-div-1", 0x3b341afc7f5ba193),
    ("b-float-div-2", 0xd33472d6e0f02ed3),
    ("b-float-div-4", 0xf26f3fb8be90418d),
    ("b-float-div-8", 0x2e348056b858b585),
    ("b-float-div-16", 0x0e02132e21f82e6d),
    ("b-float-div-32", 0x3b02b2a3be4cbdde),
    ("b-float-div-64", 0x50565cd8eb55187a),
    ("b-float-div-128", 0x6d2f0077a27d74e1),
    ("b-float-div-256", 0x666fb04509dabaf3),
    ("b-sf-1", 0x54d1e214274a2c3e),
    ("b-sf-2", 0xbe3753700c4f2956),
    ("b-sf-4", 0xad084d87d1e83085),
    ("b-sf-8", 0xceffcab0fa3d7ff9),
    ("b-sf-16", 0x9dcea1c75a5a885a),
    ("b-sf-32", 0x1558e6306a4b5a28),
    ("b-sf-64", 0x42e68ce66939411f),
    ("b-sf-128", 0xdc107d5cd5074dd0),
    ("b-sf-256", 0x4e708925c38ce3dc),
    ("b-gl-access-1", 0x285d46edd54ee39b),
    ("b-gl-access-2", 0x6d6eb1500776c657),
    ("b-gl-access-4", 0xa93523e091b80bb3),
    ("b-gl-access-8", 0xc28ee6698ba912c3),
    ("b-gl-access-16", 0xe79837f141fff1e7),
    ("b-gl-access-32", 0x7de8a42ffb19cb1f),
    ("b-gl-access-64", 0x34d9c1b308768330),
    ("b-gl-access-128", 0xf0bb2de0ec5e99e0),
    ("b-gl-access-256", 0x8c4686cff6bfd875),
    ("b-loc-access-1", 0x900131bcae3dc1c8),
    ("b-loc-access-2", 0x42df05cff8dd6d78),
    ("b-loc-access-4", 0x6225667a539e6f25),
    ("b-loc-access-8", 0xfad3f788999d6c25),
    ("b-loc-access-16", 0x92bda9705d1fb416),
    ("b-loc-access-32", 0x9e2549c071e7c6be),
    ("b-loc-access-64", 0x4223c2a70ef8fbf6),
    ("b-loc-access-128", 0x6888b6c8bfc869a2),
    ("b-loc-access-256", 0x824a6332d4f68ded),
    ("b-mix-fma", 0x40bac7576fd687d6),
    ("b-mix-fma-heavy", 0x84077237ada4a996),
    ("b-mix-int-float", 0x71d9c4a032315216),
    ("b-mix-int-alu", 0xdb0efea8753692f1),
    ("b-mix-crypto", 0xb2adcc019899bfe9),
    ("b-mix-sf-mul", 0x9e4a2da5a420b951),
    ("b-mix-sf-light", 0x68c5d5a16f7a6d80),
    ("b-mix-stream", 0x6a6024b53302dd8e),
    ("b-mix-stream-compute", 0xe5f4ffff38aff682),
    ("b-mix-stencil", 0x79b9cb261c53b6ef),
    ("b-mix-tile", 0x9a9f4ffff2e8b2fb),
    ("b-mix-tile-heavy", 0xb04b4a2283db1955),
    ("b-mix-div", 0x770197dd4124719a),
    ("b-mix-reduce", 0x9407dd99ce636903),
    ("b-mix-all", 0x198904c85a5e2aa6),
    ("b-mix-all-heavy", 0x331e191533ef78cc),
];

const COLD_PINS: &[(&str, u64)] = &[
    ("perlin", 0x1612a4d690f2aa34),
    ("md", 0xd7562896d76ddefb),
    ("kmeans", 0x34f3dc4dceaa6d2d),
    ("median", 0x03d2b345686d0a75),
    ("convolution", 0x1095b3b1b7f88b3c),
    ("blackscholes", 0x543f27a03e8b2351),
    ("mt", 0x4338c476fdeb8c00),
    ("flte", 0x4520cda34c82c4b8),
    ("matmul", 0x6137e7a02fe579e6),
    ("bitcompression", 0xbab67e2d357980d3),
    ("aes", 0xa2362a36483c145d),
    ("knn", 0xa3a0d4fb157faa5e),
    ("b-int-add-1", 0x4b74bd1b6f44ebe0),
    ("b-int-mul-1", 0xb6b28474f4a3a317),
    ("b-int-div-1", 0x02d5006b0235bd26),
    ("b-int-bw-1", 0xf02ee06c4b0ed68c),
    ("b-float-add-1", 0xb4d2bee26af3cd6b),
    ("b-float-mul-1", 0x84f428ce3ab7551a),
    ("b-float-div-1", 0x3b341afc7f5ba193),
    ("b-sf-1", 0x54d1e214274a2c3e),
    ("b-gl-access-1", 0x285d46edd54ee39b),
    ("b-loc-access-1", 0x900131bcae3dc1c8),
    ("b-mix-fma", 0x40bac7576fd687d6),
    ("b-mix-stencil", 0x79b9cb261c53b6ef),
];
