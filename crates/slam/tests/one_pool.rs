//! "One pool, always": SLAM sessions on the default backend fan their
//! chunked loops out on the pool that is stepping them — the `Serve` pool
//! when served, the shared machine pool when run alone — and never bring a
//! second one, with reports bitwise those of `BackendChoice::Serial`.
//!
//! The check reads the process-wide cache of shared pools, so this is a
//! test binary of its own with a single test: every pool in the cache was
//! created by the lines below. Generating the dataset renders its frames on
//! the machine default, so the machine pool exists from the start; that a
//! serial or served session publishes nothing on it is read from its loop
//! count.

use rtgs_runtime::{shared_pool, shared_pool_sizes, BackendChoice, Serve};
use rtgs_scene::{DatasetProfile, SyntheticDataset};
use rtgs_slam::{BaseAlgorithm, SlamConfig, SlamPipeline, SlamReport};

const FRAMES: usize = 4;

fn config(algorithm: BaseAlgorithm) -> SlamConfig {
    let mut cfg = SlamConfig::for_algorithm(algorithm).with_frames(FRAMES);
    cfg.tracking.iterations = 3;
    cfg.mapping_iterations = 3;
    cfg
}

fn assert_bitwise_equal(label: &str, serial: &SlamReport, other: &SlamReport) {
    assert_eq!(serial.frames_processed, FRAMES, "{label}");
    assert_eq!(serial.frames_processed, other.frames_processed, "{label}");
    assert_eq!(serial.keyframes, other.keyframes, "{label}");
    assert_eq!(serial.peak_gaussians, other.peak_gaussians, "{label}");
    assert_eq!(serial.ate.rmse, other.ate.rmse, "{label}: ATE");
    assert_eq!(serial.mean_psnr, other.mean_psnr, "{label}: PSNR");
    for (i, (a, b)) in serial.trajectory.iter().zip(&other.trajectory).enumerate() {
        assert_eq!(a.translation, b.translation, "{label}: frame {i}");
        assert_eq!(a.rotation, b.rotation, "{label}: frame {i}");
    }
    for (i, (a, b)) in serial.frames.iter().zip(&other.frames).enumerate() {
        assert_eq!(a.tracking_loss, b.tracking_loss, "{label}: frame {i}");
        assert_eq!(a.gaussians, b.gaussians, "{label}: frame {i}");
        assert_eq!(
            a.tracking_fragments, b.tracking_fragments,
            "{label}: frame {i}"
        );
    }
}

#[test]
fn default_backend_sessions_use_the_pool_that_steps_them() {
    assert_eq!(
        SlamConfig::for_algorithm(BaseAlgorithm::MonoGs).backend,
        BackendChoice::Parallel { threads: 0 },
        "the default backend is the machine"
    );
    // The machine pool — `available_parallelism() − 1` workers beside the
    // thread that publishes — and on a one-CPU host no pool thread at all.
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let machine: Vec<usize> = (cpus > 1).then_some(cpus - 1).into_iter().collect();
    let machine_jobs = || {
        machine
            .iter()
            .map(|&n| shared_pool(n).stats().jobs)
            .sum::<u64>()
    };
    let ds = SyntheticDataset::generate(DatasetProfile::tum_analog().tiny(), FRAMES);
    assert_eq!(
        shared_pool_sizes(),
        machine,
        "generation renders on the machine"
    );
    let jobs_before = machine_jobs();
    let serial: Vec<SlamReport> = BaseAlgorithm::all()
        .into_iter()
        .map(|algo| SlamPipeline::new(config(algo).with_backend(BackendChoice::Serial), &ds).run())
        .collect();
    assert_eq!(shared_pool_sizes(), machine, "serial sessions need no pool");
    assert_eq!(
        machine_jobs(),
        jobs_before,
        "serial sessions publish nothing on the machine pool"
    );

    // Served: three workers and the serving thread are the only executors —
    // at most four threads ever run a chunk — and constructing the sessions
    // (on this thread, outside any pool) created nothing.
    let sessions = BaseAlgorithm::all()
        .into_iter()
        .map(|algo| {
            (
                algo.name().to_string(),
                SlamPipeline::new(config(algo), &ds),
            )
        })
        .collect();
    let mut expected = machine.clone();
    expected.push(3);
    expected.sort_unstable();
    expected.dedup();
    let jobs_before = machine_jobs();
    let served = Serve::builder().threads(3).run(sessions);
    assert_eq!(shared_pool_sizes(), expected, "{cpus} CPUs");
    if !machine.contains(&3) {
        assert_eq!(
            machine_jobs(),
            jobs_before,
            "served sessions publish on the Serve pool"
        );
    }
    for (outcome, serial) in served.iter().zip(&serial) {
        assert_bitwise_equal(&outcome.stats.label, serial, &outcome.report);
    }

    // Alone: the machine pool.
    let first = BaseAlgorithm::all()[0];
    let lone = SlamPipeline::new(config(first), &ds).run();
    assert_bitwise_equal("lone session", &serial[0], &lone);
    assert_eq!(shared_pool_sizes(), expected, "{cpus} CPUs");
    if cpus > 1 {
        assert!(
            machine_jobs() > jobs_before,
            "a lone session runs on the machine pool"
        );
    }
}
