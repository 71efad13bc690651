//! Benchmark harness crate. The Criterion benchmarks live in
//! `benches/paper_benches.rs` and keep only what a microbenchmark alone can
//! measure — the paper's artifacts are printed by `experiments`, whole
//! sessions are timed by the repository benchmark (`benchmark/`):
//!
//! | group | measures |
//! |---|---|
//! | `render_kernels` | Step ❶ (after an untimed cull) and the recording Step ❸ at session size |
//! | `fused_tile_pass` | fused render+backward vs the unfused re-walk, session size |
//! | `tile_sort` | CSR tile assignment vs the legacy sort, dense scene |
//! | `tracking_iteration_steady_state` | one tracking iteration, warm arena vs fresh, session size |
//! | `runtime_scaling` | forward / backward at session size, serial vs the machine |
//! | `large_scene_scaling` | cull + render as the map grows 60k–500k Gaussians at a fixed frustum |
//! | `snapshot_full` | base capture and restore |
//! | `snapshot_delta` | delta capture, full recapture, chain compaction |
//! | `replication_stream` | one delta record's round trip vs capture alone |
//! | `flight_recorder` | probe costs, recording on vs off |
//!
//! Results land in `BENCH_RESULTS.json` at the workspace root, every entry
//! stamped with the host that measured it — the committed copy is the CI
//! perf gate's baseline, and it gates only on that host (see
//! CONTRIBUTING.md and `src/bin/compare.rs`). Set `BENCH_QUICK=1` for the
//! capped quick mode the `perf-smoke` job uses.
