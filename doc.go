// Package repro reproduces "Scaling Deep Learning Computation over the
// Inter-core Connected Intelligence Processor with T10" (SOSP 2024) as a
// pure-Go library.
//
// The public compiler API lives in repro/t10; the simulated chip, the
// compute-shift core, the baselines and the experiment harness live
// under internal/. See README.md for a tour: its "The compilation
// pipeline" section is the system inventory, and its "Developing"
// section says how to regenerate the paper's evaluation — the
// benchmarks in bench_test.go regenerate every table and figure, with
// notes that give the paper-reported values beside the measured ones.
package repro
