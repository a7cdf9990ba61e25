// Package synth is the declarative synthetic-workload subsystem: a JSON-
// serializable Spec (table count and sizes, key-skew distribution, read/
// write mix, ops-per-transaction distribution, transaction-type count with
// shared or private code paths, and multi-phase schedules that shift skew
// and mix mid-trace) that compiles into workload.TxnSpecs over a generated
// storage.Manager population.
//
// The paper's conclusion claims ADDICT benefits "any application that ...
// [has] concurrent requests executing a series of actions from a predefined
// set"; the three TPC mixes probe only three points of that space. A Spec
// describes an arbitrary point — YCSB-style uniform/zipfian/hot-set skew,
// the limited read/write-set regimes of LRW-style studies, phased
// time-varying behavior — and the shipped presets (Presets) mark the
// corners where instruction chasing wins and loses.
//
// Compilation is fully deterministic per seed. Compile turns a spec into a
// workload.Constructor, so synthetic workloads run the one shard recipe of
// workload.GenerateSetShardedWith exactly like the TPC benchmarks: shard s
// draws its randomness from workload.ShardSeed(seed, s) and its phase
// schedule from the absolute trace index it starts at, so the merged set is
// bit-for-bit identical for every worker count. Workloads are addressable
// by encoded name ("synth:<preset>[+z<theta>][+w<frac>][+h<keys>]", see
// ParseName; presets in any letter case). This package is the lowest one
// that sees both name spaces, so it holds the one workload-name resolver,
// Workload, through which sweep grids, bench configs, the serving daemon,
// cmd/tracegen and the addict facade reach every workload.
package synth
