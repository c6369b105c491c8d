//! Bench-driven autotuning of the wire-path knobs.
//!
//! The paper fixes its transfer parameters by hand for one cluster
//! (§IV); real deployments sit on very different latency/bandwidth
//! points, so the best tile size, transfer-thread count and compression
//! threshold vary per machine. [`calibrate`] sweeps the cross product of
//! candidate knob values over a representative offload, measures
//! end-to-end throughput, and returns the fastest operating point as a
//! [`TunedProfile`] — but only after a conformance spot-check: every
//! trial's outputs are compared bitwise against a host-side run of the
//! same region, and a combo that diverges is disqualified outright.
//!
//! The profile persists as a tiny INI file; `[autotune] enabled = yes`
//! in the cloud configuration applies it at startup (see
//! [`CloudConfig::apply_autotune_profile`]). Profiles are per-machine
//! *and* per-workload-shape — recalibrate after hardware or payload
//! changes.

use crate::config::CloudConfig;
use crate::device::CloudDevice;
use crate::ini::Ini;
use cloud_storage::{LatencyStore, S3Store, StoreHandle};
use omp_model::{
    DataEnv, Device, DeviceRegistry, DeviceSelector, OmpError, PartitionSpec, TargetRegion,
};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `[autotune]` section of the cloud configuration: whether to apply a
/// persisted profile, where it lives, and the candidate knob values the
/// calibration sweep crosses.
#[derive(Debug, Clone, PartialEq)]
pub struct AutotuneConfig {
    /// Apply the persisted profile when loading the configuration file.
    pub enabled: bool,
    /// Path of the persisted profile (`sparkle-offload autotune` writes
    /// it, [`CloudConfig::apply_autotune_profile`] reads it).
    pub profile: String,
    /// Candidate `tile-size` values (0 = Algorithm 1's auto split).
    pub tile_sizes: Vec<usize>,
    /// Candidate `io-threads` values.
    pub io_threads: Vec<usize>,
    /// Candidate `min-compression-size` values.
    pub thresholds: Vec<usize>,
}

impl Default for AutotuneConfig {
    fn default() -> Self {
        AutotuneConfig {
            enabled: false,
            profile: "ompcloud-autotune.ini".into(),
            tile_sizes: vec![0, 1024, 8192],
            io_threads: vec![1, 4, 8],
            thresholds: vec![256, 1024, 65536],
        }
    }
}

/// A calibrated wire-path operating point.
#[derive(Debug, Clone, PartialEq)]
pub struct TunedProfile {
    /// Iterations per tile (0 = auto).
    pub tile_size: usize,
    /// Transfer-engine worker threads.
    pub io_threads: usize,
    /// Compress payloads at least this large.
    pub min_compression_size: usize,
    /// End-to-end throughput the winning trial measured (MB/s of mapped
    /// bytes through the whole offload) — informational.
    pub throughput_mb_s: f64,
}

impl TunedProfile {
    /// Overwrite the tuned knobs of `cfg` with this profile's values.
    pub fn apply(&self, cfg: &mut CloudConfig) {
        cfg.tile_size = self.tile_size;
        cfg.io_threads = self.io_threads;
        cfg.min_compression_size = self.min_compression_size;
    }

    /// Serialize to the persisted INI form.
    pub fn to_ini(&self) -> String {
        format!(
            "# ompcloud autotune profile — written by `sparkle-offload autotune`\n\
             [profile]\n\
             tile-size = {}\n\
             io-threads = {}\n\
             min-compression-size = {}\n\
             throughput-mb-s = {:.3}\n",
            self.tile_size, self.io_threads, self.min_compression_size, self.throughput_mb_s
        )
    }

    /// Parse the persisted INI form.
    pub fn from_ini(text: &str) -> Result<TunedProfile, OmpError> {
        let ini = Ini::parse(text).map_err(|e| bad_profile(e.to_string()))?;
        let need = |key: &str| -> Result<usize, OmpError> {
            ini.get_parsed::<usize>("profile", key)
                .map_err(bad_profile)?
                .ok_or_else(|| bad_profile(format!("profile is missing '{key}'")))
        };
        let profile = TunedProfile {
            tile_size: need("tile-size")?,
            io_threads: need("io-threads")?,
            min_compression_size: need("min-compression-size")?,
            throughput_mb_s: ini
                .get_parsed::<f64>("profile", "throughput-mb-s")
                .map_err(bad_profile)?
                .unwrap_or(0.0),
        };
        if profile.io_threads == 0 {
            return Err(bad_profile("io-threads must be at least 1"));
        }
        // `f64::from_str` reads "nan", "inf" and "1e999" as numbers.
        if !(profile.throughput_mb_s.is_finite() && profile.throughput_mb_s >= 0.0) {
            return Err(bad_profile(
                "throughput-mb-s must be a finite, non-negative number",
            ));
        }
        Ok(profile)
    }

    /// Write the profile to `path`.
    pub fn save(&self, path: &Path) -> Result<(), OmpError> {
        std::fs::write(path, self.to_ini())
            .map_err(|e| bad_profile(format!("cannot write {}: {e}", path.display())))
    }

    /// Read a profile from `path`.
    pub fn load(path: &Path) -> Result<TunedProfile, OmpError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| bad_profile(format!("cannot read {}: {e}", path.display())))?;
        Self::from_ini(&text)
    }
}

/// One sweep point's measurement.
#[derive(Debug, Clone)]
pub struct Trial {
    /// The knob values this trial ran with.
    pub tile_size: usize,
    /// Transfer-engine worker threads of the trial.
    pub io_threads: usize,
    /// Compression threshold of the trial.
    pub min_compression_size: usize,
    /// Offload wall time.
    pub wall_s: f64,
    /// Mapped bytes through the offload per second, in MB/s.
    pub mb_s: f64,
    /// Outputs matched the host leg bitwise.
    pub verified: bool,
}

/// Calibration outcome: the winning profile plus every trial, slowest
/// knowledge preserved for the bench report.
#[derive(Debug, Clone)]
pub struct CalibrationReport {
    /// The fastest *verified* operating point.
    pub profile: TunedProfile,
    /// Every sweep point, in sweep order.
    pub trials: Vec<Trial>,
}

/// The representative offload the sweep measures: a saxpy-shaped region
/// over `n` f32 elements — one partitioned input, one broadcast input,
/// one partitioned output — mixing compressible (structured) and
/// incompressible (hash-noise) payload, like real workloads do.
fn sample_region(n: usize) -> TargetRegion {
    TargetRegion::builder("autotune-sample")
        .device(DeviceSelector::Default)
        .map_to("x")
        .map_to("a")
        .map_tofrom("y")
        .parallel_for(n, |l| {
            l.partition("x", PartitionSpec::rows(1))
                .partition("y", PartitionSpec::rows(1))
                .body(|i, ins, outs| {
                    let x = ins.view::<f32>("x");
                    let a = ins.view::<f32>("a");
                    let mut y = outs.view_mut::<f32>("y");
                    y[i] += a[0] * x[i];
                })
        })
        .build()
        .expect("sample region is well-formed")
}

fn sample_env(n: usize) -> DataEnv {
    let mut env = DataEnv::new();
    // Structured ramp (compresses well under shuffle) …
    let x: Vec<f32> = (0..n).map(|i| (i / 7) as f32 * 0.5).collect();
    // … plus hash noise (doesn't compress) in the in/out buffer.
    let y: Vec<f32> = (0..n)
        .map(|i| f32::from_bits(0x3F80_0000 | ((i as u32).wrapping_mul(2654435761) >> 10)))
        .collect();
    env.insert("x", x);
    env.insert("a", vec![2.0f32]);
    env.insert("y", y);
    env
}

/// Sweep `base.autotune`'s candidate knob values over a representative
/// offload of `n` f32 elements and return the fastest operating point
/// that also passed the bitwise host-vs-cloud spot-check.
///
/// The sweep runs against an in-memory store behind `latency` of
/// injected per-op delay, so thread-count trade-offs resemble a real
/// object store rather than a memcpy. Throughput is end-to-end: mapped
/// bytes (to-device + from-device) over offload wall time.
pub fn calibrate(
    base: &CloudConfig,
    n: usize,
    latency: Duration,
) -> Result<CalibrationReport, OmpError> {
    // Host reference: the bitwise ground truth every trial must hit.
    let host = DeviceRegistry::with_host_only();
    let region = sample_region(n);
    let mut host_env = sample_env(n);
    host.offload(&region, &mut host_env)?;
    let expected = host_env.get_erased("y")?.to_bytes();

    let sweep = &base.autotune;
    let mut trials = Vec::new();
    let mut best: Option<TunedProfile> = None;
    for &tile_size in &sweep.tile_sizes {
        for &io_threads in &sweep.io_threads {
            for &threshold in &sweep.thresholds {
                let mut cfg = base.clone();
                cfg.tile_size = tile_size;
                cfg.io_threads = io_threads.max(1);
                cfg.min_compression_size = threshold;
                cfg.verbose = false;
                cfg.ec2_autostart = false;
                cfg.validate()?;

                // Fresh store per trial: no cross-trial cache effects.
                let store: StoreHandle = Arc::new(LatencyStore::new(
                    Arc::new(S3Store::standalone("autotune")),
                    latency,
                ));
                let device = CloudDevice::with_store(cfg, store);
                let mut env = sample_env(n);
                let t0 = Instant::now();
                let profile = device.execute(&region, &mut env)?;
                let wall_s = t0.elapsed().as_secs_f64().max(1e-9);
                device.shutdown();

                let verified = env.get_erased("y")?.to_bytes() == expected;
                let moved = (profile.bytes_to_device + profile.bytes_from_device) as f64;
                let mb_s = moved / wall_s / 1e6;
                trials.push(Trial {
                    tile_size,
                    io_threads,
                    min_compression_size: threshold,
                    wall_s,
                    mb_s,
                    verified,
                });
                if verified && best.as_ref().is_none_or(|b| mb_s > b.throughput_mb_s) {
                    best = Some(TunedProfile {
                        tile_size,
                        io_threads,
                        min_compression_size: threshold,
                        throughput_mb_s: mb_s,
                    });
                }
            }
        }
    }
    let profile = best.ok_or_else(|| {
        bad_profile("no sweep point passed the bitwise conformance spot-check".to_string())
    })?;
    Ok(CalibrationReport { profile, trials })
}

fn bad_profile(detail: impl Into<String>) -> OmpError {
    OmpError::Plugin {
        device: "cloud".into(),
        detail: detail.into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_roundtrips_through_ini() {
        let p = TunedProfile {
            tile_size: 4096,
            io_threads: 4,
            min_compression_size: 1024,
            throughput_mb_s: 123.456,
        };
        let rt = TunedProfile::from_ini(&p.to_ini()).unwrap();
        assert_eq!(rt.tile_size, 4096);
        assert_eq!(rt.io_threads, 4);
        assert_eq!(rt.min_compression_size, 1024);
        assert!((rt.throughput_mb_s - 123.456).abs() < 1e-3);
    }

    #[test]
    fn malformed_profiles_are_rejected() {
        assert!(TunedProfile::from_ini("[profile]\ntile-size = 1\n").is_err());
        assert!(TunedProfile::from_ini(
            "[profile]\ntile-size = 1\nio-threads = 0\nmin-compression-size = 9\n"
        )
        .is_err());
    }

    #[test]
    fn apply_overwrites_the_tuned_knobs_only() {
        let mut cfg = CloudConfig::default();
        let workers = cfg.workers;
        TunedProfile {
            tile_size: 2048,
            io_threads: 2,
            min_compression_size: 512,
            throughput_mb_s: 0.0,
        }
        .apply(&mut cfg);
        assert_eq!(cfg.tile_size, 2048);
        assert_eq!(cfg.io_threads, 2);
        assert_eq!(cfg.min_compression_size, 512);
        assert_eq!(cfg.workers, workers, "untouched knobs survive");
    }

    #[test]
    fn calibrate_returns_a_verified_winner() {
        let mut base = CloudConfig {
            workers: 2,
            vcpus_per_worker: 4,
            ..CloudConfig::default()
        };
        // A tiny sweep keeps the test fast; 2×2×1 = 4 trials.
        base.autotune.tile_sizes = vec![0, 64];
        base.autotune.io_threads = vec![1, 2];
        base.autotune.thresholds = vec![1024];
        let report = calibrate(&base, 4096, Duration::from_micros(20)).unwrap();
        assert_eq!(report.trials.len(), 4);
        assert!(
            report.trials.iter().all(|t| t.verified),
            "every combo must be bitwise-correct"
        );
        assert!(report.profile.throughput_mb_s > 0.0);
        assert!(
            report
                .trials
                .iter()
                .all(|t| t.mb_s <= report.profile.throughput_mb_s + 1e-9),
            "winner is the fastest trial"
        );
    }

    #[test]
    fn enabled_config_applies_a_saved_profile() {
        let dir = std::env::temp_dir().join(format!("ompcloud-autotune-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("profile.ini");
        TunedProfile {
            tile_size: 999,
            io_threads: 3,
            min_compression_size: 777,
            throughput_mb_s: 1.0,
        }
        .save(&path)
        .unwrap();

        let mut cfg = CloudConfig::default();
        cfg.autotune.enabled = true;
        cfg.autotune.profile = path.display().to_string();
        assert!(cfg.apply_autotune_profile().unwrap());
        assert_eq!(cfg.tile_size, 999);
        assert_eq!(cfg.io_threads, 3);
        assert_eq!(cfg.min_compression_size, 777);

        // Disabled or missing profile: config untouched, no error.
        let mut cfg = CloudConfig::default();
        cfg.autotune.profile = path.display().to_string();
        assert!(!cfg.apply_autotune_profile().unwrap());
        assert_eq!(cfg.tile_size, 0);
        let mut cfg = CloudConfig::default();
        cfg.autotune.enabled = true;
        cfg.autotune.profile = dir.join("nope.ini").display().to_string();
        assert!(!cfg.apply_autotune_profile().unwrap());

        let _ = std::fs::remove_dir_all(&dir);
    }
}
