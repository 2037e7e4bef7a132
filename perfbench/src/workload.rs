//! The four workloads and how each one is deployed.
//!
//! Each workload loads one layer heavily and bypasses others (see
//! `perfbench/README.md` for why each was chosen):
//!
//! * `wan-imagenet` — the daemon→receiver link crosses a netem `Proxy` at
//!   30 ms RTT; no cache, local shards.
//! * `small-records` — 1 KiB samples over direct loopback, so per-sample
//!   and per-batch costs dominate; no cache, local shards.
//! * `nfs-cached` — shards behind an emulated NFS mount at 10 ms RTT, a
//!   clairvoyant two-tier cache (RAM ≈ half the dataset, disk the rest).
//! * `fleet-nfs` — two cooperating daemons over one shared NFS mount.
//!
//! All four stream through 2 send workers in total.

use crate::dataset::Dataset;
use crate::timing::{LayerTimer, TimedSource};
use emlio_cache::{
    CacheConfig, EvictPolicy, FleetRegistry, LocalPeer, PeerConfig, PeerSource, ShardCache,
};
use emlio_core::daemon::DaemonError;
use emlio_core::service::{Deployment, StorageSpec};
use emlio_core::{
    BufferPool, DataPathMetrics, EmlioConfig, EmlioDaemon, EmlioReceiver, EmlioService, Plan,
    ReceiverConfig,
};
use emlio_datagen::DatasetSpec;
use emlio_netem::shaper::ProxyStats;
use emlio_netem::{NetProfile, NfsConfig, NfsMount, NfsSource, Proxy};
use emlio_obs::StageRecorder;
use emlio_tfrecord::source::{RangeSource, TfrecordSource};
use emlio_tfrecord::GlobalIndex;
use emlio_util::clock::RealClock;
use emlio_zmq::Endpoint;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

/// The compute node every workload streams to.
pub const NODE: &str = "trainer-0";

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 100 KiB samples over a 30 ms RTT link, no cache.
    WanImagenet,
    /// 1 KiB samples over direct loopback, no cache.
    SmallRecords,
    /// 100 KiB samples from 10 ms RTT NFS through a RAM+disk cache.
    NfsCached,
    /// Two cooperating daemons over one 10 ms RTT NFS mount.
    FleetNfs,
}

/// Dataset size: full for measurement, small for the benchmark's tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark measures at.
    Full,
    /// A few batches, for quick functional checks.
    Small,
}

/// Everything about a workload that is fixed before the first launch.
pub struct Shape {
    /// The dataset the shards are generated from.
    pub spec: DatasetSpec,
    /// Shard files.
    pub shards: u32,
    /// Daemon configuration (batch size, epochs, workers); each launch
    /// sets its own plan seed and the workload's cache.
    pub config: EmlioConfig,
    /// Daemons; all read the same shards.
    pub daemons: usize,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::WanImagenet,
        Workload::SmallRecords,
        Workload::NfsCached,
        Workload::FleetNfs,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WanImagenet => "wan-imagenet",
            Workload::SmallRecords => "small-records",
            Workload::NfsCached => "nfs-cached",
            Workload::FleetNfs => "fleet-nfs",
        }
    }

    /// Parse a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's dataset and configuration for `seed`.
    pub fn shape(self, seed: u64, scale: Scale) -> Shape {
        let full = scale == Scale::Full;
        let imagenet = |n: u64| DatasetSpec {
            seed,
            ..DatasetSpec::imagenet_like().with_samples(n)
        };
        let (spec, epochs, daemons) = match self {
            Workload::WanImagenet => (imagenet(if full { 512 } else { 48 }), 8, 1),
            Workload::SmallRecords => (
                DatasetSpec {
                    name: "small-records".into(),
                    sample_bytes: 1024,
                    dims: (16, 16, 3),
                    seed,
                    ..DatasetSpec::tiny("small-records", if full { 16384 } else { 96 })
                },
                8,
                1,
            ),
            Workload::NfsCached => (imagenet(if full { 512 } else { 48 }), 13, 1),
            Workload::FleetNfs => (imagenet(if full { 512 } else { 48 }), 7, 2),
        };
        let config = EmlioConfig::default()
            .with_batch_size(match (scale, self) {
                (Scale::Small, _) => 8,
                // The paper's default; 100 KiB samples use 32 to keep the
                // in-flight frames (HWM × batch) small in memory.
                (Scale::Full, Workload::SmallRecords) => 64,
                (Scale::Full, _) => 32,
            })
            .with_epochs(epochs)
            .with_threads(2 / daemons);
        Shape {
            spec,
            shards: 4,
            config,
            daemons,
        }
    }
}

/// The bench-side timers a traced run inserts into the read stack. They
/// live for the whole run, so they sum over launches.
#[derive(Default)]
pub struct Tracers {
    /// Around the base storage source (`TfrecordSource` or `NfsSource`).
    pub storage: Arc<LayerTimer>,
    /// Around the fleet's `PeerSource`.
    pub peer: Arc<LayerTimer>,
}

fn timed(source: Arc<dyn RangeSource>, timer: Option<&Arc<LayerTimer>>) -> Arc<dyn RangeSource> {
    match timer {
        Some(t) => TimedSource::wrap(source, t),
        None => source,
    }
}

/// One deployment, from launch until its daemons are joined.
pub struct Launch {
    running: Running,
    /// Batches the daemons' plans promise.
    pub planned_batches: u64,
    /// Every daemon's shard cache (empty when no cache is configured).
    pub caches: Vec<Arc<ShardCache>>,
    /// Every buffer pool in the deployment (daemon pools and the pools
    /// behind local storage roots).
    pub pools: Vec<BufferPool>,
    /// The fleet's peer layers (empty outside `fleet-nfs`).
    pub peers: Vec<Arc<PeerSource>>,
    /// The emulated NFS mount, when storage is remote.
    pub mount: Option<NfsMount>,
    /// The WAN proxy's counters, when the link is shaped.
    pub proxy: Option<Arc<ProxyStats>>,
    /// Declared last: removed only after the daemons' caches have dropped.
    _spill_dir: SpillDir,
}

/// A cache's spill directory, removed on drop.
struct SpillDir(Option<PathBuf>);

impl Drop for SpillDir {
    fn drop(&mut self) {
        if let Some(dir) = &self.0 {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

enum Running {
    Service(Deployment),
    /// `EmlioService::launch_with` opens daemons over their own storage
    /// root, which would leave no seam for the storage timer; the proxied
    /// workload therefore takes the same steps itself, through
    /// `EmlioDaemon::open_with_base`.
    Proxied {
        receiver: EmlioReceiver,
        daemon: Option<JoinHandle<Result<(), DaemonError>>>,
        metrics: Arc<DataPathMetrics>,
        recorder: Arc<StageRecorder>,
        _proxy: Proxy,
    },
}

fn local_base(
    index: &Arc<GlobalIndex>,
    pools: &Mutex<Vec<BufferPool>>,
    tracers: Option<&Tracers>,
) -> Arc<dyn RangeSource> {
    let pool = BufferPool::new();
    pools.lock().expect("pool list").push(pool.clone());
    timed(
        Arc::new(TfrecordSource::new(index.clone()).with_alloc(Arc::new(pool))),
        tracers.map(|t| &t.storage),
    )
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

impl Launch {
    /// Deploy `workload` over `data`, shuffling the plan with `plan_seed`.
    /// The daemons start streaming before this returns. `spill_dir` is
    /// created for a cache's disk tier and removed when the launch drops.
    pub fn start(
        workload: Workload,
        shape: &Shape,
        data: &Dataset,
        plan_seed: u64,
        spill_dir: &Path,
        tracers: Option<&Tracers>,
    ) -> Result<Launch, String> {
        let pools = Mutex::new(Vec::new());
        let caches = Mutex::new(Vec::new());
        let peers = Mutex::new(Vec::new());
        let storage: Vec<StorageSpec> = (0..shape.daemons)
            .map(|d| StorageSpec {
                id: format!("d{d}"),
                dataset_dir: data.shards_dir.clone(),
            })
            .collect();
        let mut config = shape.config.clone().with_seed(plan_seed);
        let mut mount = None;
        let mut proxy = None;
        let mut spill = None;
        let on_open = |_: usize, daemon: &EmlioDaemon| {
            pools.lock().expect("pool list").push(daemon.pool().clone());
            caches
                .lock()
                .expect("cache list")
                .extend(daemon.cache().cloned());
        };
        let (running, planned_batches) = match workload {
            Workload::WanImagenet => {
                let receiver = EmlioReceiver::bind(ReceiverConfig {
                    hwm: config.hwm,
                    queue_capacity: config.hwm,
                    ..ReceiverConfig::loopback(config.threads_per_node as u32)
                })
                .map_err(err)?;
                let Endpoint::Tcp(addr) = receiver.endpoint() else {
                    return Err("receiver bound a non-TCP endpoint".into());
                };
                let link = Proxy::spawn(
                    "127.0.0.1:0",
                    addr,
                    NetProfile::wan_30ms(),
                    RealClock::shared(),
                )
                .map_err(err)?;
                proxy = Some(link.stats());
                let endpoint = Endpoint::Tcp(link.local_addr().to_string());
                let index = Arc::new(GlobalIndex::load_dir(&data.shards_dir).map_err(err)?);
                let base = local_base(&index, &pools, tracers);
                let daemon =
                    EmlioDaemon::open_with_base(&storage[0].id, index, config.clone(), base)
                        .map_err(err)?;
                on_open(0, &daemon);
                let plan = Plan::build(daemon.index(), &[NODE.to_string()], &config);
                let planned = plan.total_batches_for(NODE);
                let (metrics, recorder) = (daemon.metrics(), daemon.recorder());
                let handle = std::thread::Builder::new()
                    .name("perfbench-daemon".into())
                    .spawn(move || daemon.serve(&plan, NODE, &endpoint))
                    .map_err(err)?;
                let running = Running::Proxied {
                    receiver,
                    daemon: Some(handle),
                    metrics,
                    recorder,
                    _proxy: link,
                };
                (running, planned)
            }
            Workload::SmallRecords => {
                let deployment = EmlioService::launch_with_sources(
                    &storage,
                    &config,
                    NODE,
                    None,
                    |_, index| local_base(index, &pools, tracers),
                    on_open,
                )
                .map_err(err)?;
                let planned = deployment.total_batches();
                (Running::Service(deployment), planned)
            }
            Workload::NfsCached | Workload::FleetNfs => {
                let nfs = NfsMount::mount(
                    &data.shards_dir,
                    NetProfile::lan_10ms(),
                    RealClock::shared(),
                    NfsConfig::default(),
                );
                mount = Some(nfs.clone());
                let fleet = workload == Workload::FleetNfs;
                // nfs-cached: RAM holds about half the dataset and the disk
                // tier the rest (plus two blocks of slack), so every block
                // stays cached and hit counts repeat from run to run.
                // fleet-nfs: each RAM tier holds more than the blocks its
                // daemon owns, but not the whole dataset.
                let slack = 2 * shape.spec.sample_bytes * config.batch_size as u64;
                let cache = if fleet {
                    CacheConfig::default().with_ram_bytes(data.storage_bytes * 3 / 4)
                } else {
                    std::fs::create_dir_all(spill_dir).map_err(err)?;
                    spill = Some(spill_dir.to_path_buf());
                    let ram = data.storage_bytes / 2;
                    CacheConfig::default()
                        .with_ram_bytes(ram)
                        .with_disk_bytes(data.storage_bytes - ram + slack)
                        .with_spill_dir(spill_dir.to_path_buf())
                };
                config = config.with_cache(cache.with_policy(EvictPolicy::Clairvoyant));
                let registry = FleetRegistry::new();
                if fleet {
                    for spec in &storage {
                        registry.join(&spec.id);
                    }
                }
                let deployment = EmlioService::launch_with_sources(
                    &storage,
                    &config,
                    NODE,
                    None,
                    |i, index| {
                        let base = timed(
                            Arc::new(NfsSource::new(index.clone(), nfs.clone())),
                            tracers.map(|t| &t.storage),
                        );
                        if !fleet {
                            return base;
                        }
                        let peer = PeerSource::new(
                            registry.clone(),
                            &storage[i].id,
                            base,
                            PeerConfig::default(),
                        );
                        peers.lock().expect("peer list").push(peer.clone());
                        timed(peer, tracers.map(|t| &t.peer))
                    },
                    |i, daemon| {
                        on_open(i, daemon);
                        if fleet {
                            let cache = daemon.cache().expect("fleet daemons are cached");
                            registry.attach(&storage[i].id, LocalPeer::new(cache));
                            peers.lock().expect("peer list")[i].set_recorder(daemon.recorder());
                        }
                    },
                )
                .map_err(err)?;
                let planned = deployment.total_batches();
                (Running::Service(deployment), planned)
            }
        };
        Ok(Launch {
            running,
            planned_batches,
            caches: caches.into_inner().expect("cache list"),
            pools: pools.into_inner().expect("pool list"),
            peers: peers.into_inner().expect("peer list"),
            mount,
            proxy,
            _spill_dir: SpillDir(spill),
        })
    }

    /// The compute-side receiver.
    pub fn receiver(&self) -> &EmlioReceiver {
        match &self.running {
            Running::Service(d) => &d.receiver,
            Running::Proxied { receiver, .. } => receiver,
        }
    }

    /// Per-daemon counters and stage histograms.
    pub fn daemons(&self) -> Vec<(Arc<DataPathMetrics>, Arc<StageRecorder>)> {
        match &self.running {
            Running::Service(d) => d
                .daemon_metrics
                .iter()
                .cloned()
                .zip(d.daemon_recorders.iter().cloned())
                .collect(),
            Running::Proxied {
                metrics, recorder, ..
            } => vec![(metrics.clone(), recorder.clone())],
        }
    }

    /// Wait for every daemon to finish streaming.
    pub fn join(&mut self) -> Result<(), String> {
        match &mut self.running {
            Running::Service(d) => d.join_daemons().map_err(err),
            Running::Proxied { daemon, .. } => match daemon.take() {
                Some(h) => h
                    .join()
                    .map_err(|_| "daemon panicked".to_string())?
                    .map_err(err),
                None => Ok(()),
            },
        }
    }
}
