//! The EMLIO benchmark: data-loading throughput, trainer stall, CPU and
//! modeled energy per sample on four workloads, and — from a separate
//! traced run — the per-layer numbers that explain them.
//!
//! The load model is a closed loop: one consumer thread pulls batches as
//! fast as the receiver delivers them, as a trainer blocked in `next()`
//! does. Every delivered sample is checked against a reference digest.

pub mod dataset;
pub mod digest;
pub mod timing;
pub mod workload;

use crossbeam::channel::RecvTimeoutError;
use dataset::Dataset;
use emlio_core::MetricsSnapshot;
use emlio_obs::{HistSnapshot, Stage, StageRecorder};
use emlio_pipeline::RawBatch;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use timing::quantile;
use workload::{Launch, Scale, Shape, Tracers, Workload};

/// End-to-end metrics, `(name, unit)`, in the order `BENCHMARK.json`
/// lists them. They come from untraced runs only.
pub const END_TO_END: [(&str, &str); 8] = [
    ("samples_per_s", "samples/s"),
    ("batch_wait_p50_ms", "ms"),
    ("batch_wait_p95_ms", "ms"),
    ("cpu_us_per_sample", "us"),
    ("energy_mj_per_sample", "mJ"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("batch_ok_ratio", "ratio"),
];

/// Per-layer metrics of a traced run, `(name, unit)`, in the order
/// `BENCHMARK.json` lists them. The `overhead.*` entries are the traced
/// minus the untraced value of each end-to-end metric.
pub const PER_LAYER: [(&str, &str); 56] = [
    ("storage.reads", "count"),
    ("storage.read_mib", "MiB"),
    ("storage.busy_ms", "ms"),
    ("storage.read_p50_us", "us"),
    ("storage.read_p99_us", "us"),
    ("storage.errors", "count"),
    ("storage.amplification", "ratio"),
    ("nfs.rpc_reads", "count"),
    ("nfs.opens", "count"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.disk_hits", "count"),
    ("cache.prefetched", "count"),
    ("cache.evictions", "count"),
    ("cache.spills", "count"),
    ("cache.spill_waits", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.lookup_p50_us", "us"),
    ("cache.lookup_p99_us", "us"),
    ("cache.spill_write_ms", "ms"),
    ("peer.reads", "count"),
    ("peer.busy_ms", "ms"),
    ("peer.hits", "count"),
    ("peer.misses", "count"),
    ("peer.fallbacks", "count"),
    ("peer.read_mib", "MiB"),
    ("peer.hit_ratio", "ratio"),
    ("fleet.storage_per_dataset", "ratio"),
    ("daemon.assemble_ms", "ms"),
    ("daemon.assemble_p50_us", "us"),
    ("daemon.assemble_p99_us", "us"),
    ("daemon.encode_ms", "ms"),
    ("daemon.pool_reuse_ratio", "ratio"),
    ("daemon.unattributed_share", "ratio"),
    ("zmq.send_ms", "ms"),
    ("zmq.send_p99_us", "us"),
    ("zmq.send_blocked_ms", "ms"),
    ("link.relayed_mib", "MiB"),
    ("link.transit_p50_ms", "ms"),
    ("link.transit_p99_ms", "ms"),
    ("receiver.recv_wait_ms", "ms"),
    ("receiver.scan_ms", "ms"),
    ("receiver.queue_full_ms", "ms"),
    ("receiver.queue_dwell_p50_ms", "ms"),
    ("consumer.dequeue_wait_ms", "ms"),
    ("consumer.materialize_ms", "ms"),
    ("consumer.materialize_p50_us", "us"),
    ("consumer.verify_ms", "ms"),
    ("overhead.samples_per_s", "samples/s"),
    ("overhead.batch_wait_p50_ms", "ms"),
    ("overhead.batch_wait_p95_ms", "ms"),
    ("overhead.cpu_us_per_sample", "us"),
    ("overhead.energy_mj_per_sample", "mJ"),
    ("overhead.setup_s", "s"),
    ("overhead.peak_rss_mib", "MiB"),
    ("overhead.batch_ok_ratio", "ratio"),
];

/// How one benchmark run is made.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Which workload.
    pub workload: Workload,
    /// Fixes the generated dataset and the plan shuffle.
    pub seed: u64,
    /// Measurement time. A traced run splits it between an untraced and a
    /// traced phase.
    pub seconds: f64,
    /// Emit per-layer metrics from a traced phase instead of end-to-end
    /// metrics.
    pub trace: bool,
    /// Where datasets and spill files go.
    pub data_dir: PathBuf,
    /// Dataset size.
    pub scale: Scale,
    /// Flip one bit of sample 0's reference digest, so every batch that
    /// carries sample 0 must fail the check.
    pub corrupt_reference: bool,
}

/// The outcome of a run: its metrics and its correctness accounting.
#[derive(Debug, Clone)]
pub struct Report {
    /// `(name, unit, value)` in the order of [`END_TO_END`] or
    /// [`PER_LAYER`].
    pub metrics: Vec<(&'static str, &'static str, f64)>,
    /// Batches the daemons' plans promised, over every launch.
    pub attempted: u64,
    /// Batches missing, duplicated or failing the payload check.
    pub failed: u64,
}

impl Report {
    /// The value of metric `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.0 == name).map(|m| m.2)
    }

    /// The result line: one JSON object.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, unit, value)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// The energy model: the CPU and DRAM idle→peak envelopes of the paper's
/// storage node (Table 1, `emlio-testbed`), driven by measured CPU
/// utilization through `emlio-energymon`'s linear model. DRAM activity is
/// taken as half the CPU utilization, as `energymon`'s `/proc/stat` probe
/// does. No RAPL counters are read: the value is modeled.
struct EnergyModel {
    node: emlio_energymon::NodePower,
    cores: f64,
}

impl EnergyModel {
    /// The storage-node envelope over this machine's cores.
    fn new() -> EnergyModel {
        EnergyModel {
            node: emlio_testbed::NodeSpec::uc_storage().power,
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()) as f64,
        }
    }

    /// Joules for `wall_s` seconds during which the process used `cpu_s`
    /// CPU-seconds.
    fn joules(&self, wall_s: f64, cpu_s: f64) -> f64 {
        let util = cpu_s / (wall_s * self.cores);
        (self.node.cpu.watts(util) + self.node.dram.watts(util * 0.5)) * wall_s
    }

    /// The constants, for the run's log.
    fn describe(&self) -> String {
        format!(
            "energy model: uc-storage CPU {}-{} W, DRAM {}-{} W (util x 0.5), {} cores",
            self.node.cpu.idle_watts,
            self.node.cpu.peak_watts,
            self.node.dram.idle_watts,
            self.node.dram.peak_watts,
            self.cores
        )
    }
}

/// Process user+sys CPU seconds, from `/proc/self/stat`.
fn cpu_seconds() -> f64 {
    // utime and stime are fields 14 and 15, counted in USER_HZ ticks,
    // which Linux fixes at 100 per second in its user ABI.
    const TICKS_PER_S: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<f64> = after_comm
        .split_whitespace()
        .map(|f| f.parse().unwrap_or(0.0))
        .collect();
    (fields.get(11).unwrap_or(&0.0) + fields.get(12).unwrap_or(&0.0)) / TICKS_PER_S
}

/// `(all, steal)` ticks of all CPUs since boot, from `/proc/stat`.
fn host_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .map(|t| t.parse().unwrap_or(0))
        .collect();
    (ticks.iter().sum(), ticks.get(7).copied().unwrap_or(0))
}

/// How long the consumer waits for a batch before it gives the run up.
const STALL_LIMIT: Duration = Duration::from_secs(30);

/// How often the consumer samples the resident set during a window.
const RSS_SAMPLE_EVERY: Duration = Duration::from_millis(10);

/// Resident memory of the process, MiB (`VmRSS`).
fn rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Quantile `q` of `values` by rank, as [`quantile`] does; 0 when empty.
fn quantile_f64(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len().max(1));
    v.get(rank - 1).copied().unwrap_or(0.0)
}

/// Checks every delivered batch of one launch against the reference.
struct Verifier<'a> {
    reference: &'a [u64],
    shape: &'a Shape,
    /// `seen[(daemon * epochs + epoch) * samples + id]`.
    seen: Vec<bool>,
    good_samples: u64,
    delivered: u64,
    bad: u64,
}

impl<'a> Verifier<'a> {
    fn new(reference: &'a [u64], shape: &'a Shape) -> Verifier<'a> {
        let slots = shape.daemons * shape.config.epochs as usize * reference.len();
        Verifier {
            reference,
            shape,
            seen: vec![false; slots],
            good_samples: 0,
            delivered: 0,
            bad: 0,
        }
    }

    /// Check one batch; a batch fails when it comes from an unknown daemon
    /// or epoch, or any sample is unplanned, repeated, mislabeled or
    /// differs from its reference digest.
    fn check(&mut self, batch: &RawBatch, origin: &str) {
        self.delivered += 1;
        let daemon = origin
            .strip_prefix('d')
            .and_then(|rest| rest.split('/').next())
            .and_then(|d| d.parse::<usize>().ok())
            .filter(|&d| d < self.shape.daemons);
        let epochs = self.shape.config.epochs;
        let (Some(daemon), true) = (daemon, batch.epoch < epochs) else {
            self.bad += 1;
            return;
        };
        let n = self.reference.len();
        let base = (daemon * epochs as usize + batch.epoch as usize) * n;
        let mut ok = true;
        for s in &batch.samples {
            let id = s.sample_id as usize;
            let fits = id < n
                && !self.seen[base + id]
                && s.label == self.shape.spec.label_of(s.sample_id)
                && digest::digest(&s.bytes) == self.reference[id];
            if fits {
                self.seen[base + id] = true;
                self.good_samples += 1;
            }
            ok &= fits;
        }
        if !ok {
            self.bad += 1;
        }
    }

    /// Failed batches: bad ones plus planned ones never delivered, and at
    /// least one if any planned sample is missing.
    fn failed(&self, planned: u64) -> u64 {
        let failed = self.bad + planned.saturating_sub(self.delivered);
        if self.good_samples < self.seen.len() as u64 {
            failed.max(1)
        } else {
            failed
        }
    }
}

/// One launch's timed window: from the first dequeue until the daemons
/// are joined.
struct Window {
    /// The launch call that preceded the window.
    setup_s: f64,
    samples: u64,
    secs: f64,
    cpu_s: f64,
    /// Largest resident set sampled during the window, MiB.
    peak_rss_mib: f64,
    /// Median and 95th percentile of the window's batch waits, ns.
    wait_p50_ns: u64,
    wait_p95_ns: u64,
    /// `/proc/stat` ticks of all CPUs during the window, and those the
    /// hypervisor gave to other guests (steal).
    host_ticks: u64,
    steal_ticks: u64,
}

impl Window {
    fn steal(&self) -> f64 {
        self.steal_ticks as f64 / self.host_ticks.max(1) as f64
    }
}

/// What one measurement phase (a series of launches) saw.
#[derive(Default)]
struct Phase {
    windows: Vec<Window>,
    payload_bytes: u64,
    planned: u64,
    failed: u64,
    // Per-layer totals; filled only when traced.
    daemon_stages: StageRecorder,
    receiver_stages: StageRecorder,
    wall_workers_ns: u64,
    unattributed_ns: u64,
    send_blocked_ns: u64,
    pool_alloc: u64,
    pool_reuse: u64,
    cache: [u64; 7],
    peer: [u64; 4],
    nfs_reads: u64,
    nfs_opens: u64,
    nfs_bytes: u64,
    proxy_bytes: u64,
    dequeue_ns: u64,
    materialize_ns: Vec<u64>,
    verify_ns: u64,
    dwell_ns: Vec<u64>,
    transit_ns: Vec<u64>,
}

impl Phase {
    /// The windows a busy host disturbed least: those whose steal share is
    /// at most the larger of 2% and the phase's lower quartile. Time the
    /// hypervisor gives other guests slows every wall-clock figure by an
    /// amount that says nothing about the program; on a quiet host every
    /// window is kept.
    fn quiet(&self) -> Vec<&Window> {
        let shares: Vec<f64> = self.windows.iter().map(Window::steal).collect();
        let limit = quantile_f64(&shares, 0.25).max(0.02);
        self.windows.iter().filter(|w| w.steal() <= limit).collect()
    }
}

/// Run one benchmark invocation.
pub fn run(opts: &RunOptions) -> Result<Report, String> {
    let shape = opts.workload.shape(opts.seed, opts.scale);
    std::fs::create_dir_all(&opts.data_dir)
        .map_err(|e| format!("create {}: {e}", opts.data_dir.display()))?;
    let data = Dataset::prepare(
        &opts.data_dir,
        opts.workload.name(),
        &shape.spec,
        shape.shards,
    )?;
    let mut reference = data.digests.clone();
    if opts.corrupt_reference {
        reference[0] ^= 1;
    }
    let energy = EnergyModel::new();
    println!("{}", energy.describe());
    let bench = Bench {
        opts,
        shape: &shape,
        data: &data,
        reference: &reference,
        energy: &energy,
        plans: std::cell::Cell::new(0),
    };

    // One untimed launch first, so a cold page cache or lazy
    // initialisation does not bias the first timed launch.
    let warm = bench.phase(Duration::ZERO, None)?;
    let seconds = Duration::from_secs_f64(opts.seconds.max(0.0));
    let (metrics, timed) = if opts.trace {
        let untraced = bench.phase(seconds / 2, None)?;
        let tracers = Tracers::default();
        let traced = bench.phase(seconds / 2, Some(&tracers))?;
        let overhead = bench
            .end_to_end(&traced)
            .zip(bench.end_to_end(&untraced))
            .map(|(t, u)| t - u);
        let metrics = named(
            &PER_LAYER,
            bench.per_layer(&traced, &tracers).chain(overhead),
        );
        (metrics, vec![untraced, traced])
    } else {
        let phase = bench.phase(seconds, None)?;
        (named(&END_TO_END, bench.end_to_end(&phase)), vec![phase])
    };
    let windows = || timed.iter().flat_map(|p| &p.windows);
    let host: u64 = windows().map(|w| w.host_ticks).sum();
    let steal: u64 = windows().map(|w| w.steal_ticks).sum();
    let kept: usize = timed.iter().map(|p| p.quiet().len()).sum();
    println!(
        "host steal during timed windows: {:.1}%; {kept} of {} launches quiet enough to count",
        100.0 * steal as f64 / host.max(1) as f64,
        windows().count()
    );
    Ok(Report {
        metrics,
        attempted: warm.planned + timed.iter().map(|p| p.planned).sum::<u64>(),
        failed: warm.failed + timed.iter().map(|p| p.failed).sum::<u64>(),
    })
}

/// Pair `values` with the `(name, unit)` list they were computed for.
fn named(
    list: &[(&'static str, &'static str)],
    values: impl Iterator<Item = f64>,
) -> Vec<(&'static str, &'static str, f64)> {
    let metrics: Vec<_> = list
        .iter()
        .zip(values)
        .map(|(&(n, u), v)| (n, u, v))
        .collect();
    assert_eq!(metrics.len(), list.len(), "one value per listed metric");
    metrics
}

struct Bench<'a> {
    opts: &'a RunOptions,
    shape: &'a Shape,
    data: &'a Dataset,
    reference: &'a [u64],
    energy: &'a EnergyModel,
    /// Plans shuffled so far in this run, one per launch.
    plans: std::cell::Cell<u64>,
}

impl Bench<'_> {
    /// Launch, consume and join repeatedly until `length` has passed (at
    /// least once).
    fn phase(&self, length: Duration, tracers: Option<&Tracers>) -> Result<Phase, String> {
        let mut phase = Phase::default();
        let spill_dir = self.opts.data_dir.join("spill");
        let t0 = Instant::now();
        while phase.windows.is_empty() || t0.elapsed() < length {
            self.launch(&mut phase, &spill_dir, tracers)?;
        }
        Ok(phase)
    }

    fn launch(
        &self,
        phase: &mut Phase,
        spill_dir: &std::path::Path,
        tracers: Option<&Tracers>,
    ) -> Result<(), String> {
        let traced = tracers.is_some();
        let t_setup = Instant::now();
        // Every launch shuffles its plan differently, so one run averages
        // over many plans of its dataset.
        let k = self.plans.get();
        self.plans.set(k + 1);
        let plan_seed = self.opts.seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut launch = Launch::start(
            self.opts.workload,
            self.shape,
            self.data,
            plan_seed,
            spill_dir,
            tracers,
        )?;
        let setup_s = t_setup.elapsed().as_secs_f64();

        let queue = launch.receiver().queue();
        let mut verifier = Verifier::new(self.reference, self.shape);
        let mut samples = 0;
        let mut waits_ns = Vec::with_capacity(launch.planned_batches as usize);
        let host0 = host_ticks();
        let cpu0 = cpu_seconds();
        let t_window = Instant::now();
        let (mut peak_rss_mib, mut rss_sampled) = (0.0f64, None);
        loop {
            let t0 = Instant::now();
            let lazy = match queue.recv_timeout(STALL_LIMIT) {
                Ok(lazy) => lazy,
                Err(RecvTimeoutError::Disconnected) => break,
                // A daemon that fails never sends its end-of-stream marker,
                // and the queue would never disconnect.
                Err(RecvTimeoutError::Timeout) => {
                    return Err(format!("no batch for {STALL_LIMIT:?}: a daemon stopped"));
                }
            };
            if rss_sampled.is_none_or(|at: Instant| at.elapsed() >= RSS_SAMPLE_EVERY) {
                peak_rss_mib = peak_rss_mib.max(rss_mib());
                rss_sampled = Some(Instant::now());
            }
            let (t_dequeued, dequeued_at) = if traced {
                (Instant::now(), emlio_obs::clock::now_nanos())
            } else {
                (t0, 0)
            };
            let batch = lazy.materialize();
            let t_ready = Instant::now();
            waits_ns.push((t_ready - t0).as_nanos() as u64);
            samples += batch.samples.len() as u64;
            phase.payload_bytes += lazy.payload_bytes();
            if traced {
                phase.dequeue_ns += (t_dequeued - t0).as_nanos() as u64;
                phase
                    .materialize_ns
                    .push((t_ready - t_dequeued).as_nanos() as u64);
                let received_at = lazy.received_at_nanos();
                phase.dwell_ns.push(dequeued_at.saturating_sub(received_at));
                if let Some(trace) = lazy.trace() {
                    phase
                        .transit_ns
                        .push(received_at.saturating_sub(trace.sent_at_nanos));
                }
            }
            verifier.check(&batch, lazy.origin());
            if traced {
                phase.verify_ns += t_ready.elapsed().as_nanos() as u64;
            }
        }
        drop(queue);
        launch.join()?;
        let secs = t_window.elapsed().as_secs_f64();
        let cpu_s = cpu_seconds() - cpu0;
        let host = host_ticks();
        phase.windows.push(Window {
            setup_s,
            samples,
            secs,
            cpu_s,
            peak_rss_mib,
            wait_p50_ns: quantile(&mut waits_ns, 0.50),
            wait_p95_ns: quantile(&mut waits_ns, 0.95),
            host_ticks: host.0 - host0.0,
            steal_ticks: host.1 - host0.1,
        });
        phase.planned += launch.planned_batches;
        phase.failed += verifier.failed(launch.planned_batches);
        if traced {
            collect_layers(phase, &launch);
        }
        Ok(())
    }

    /// Over the phase's quiet windows: CPU and energy are totals per
    /// sample; every other figure but set-up time is the median over
    /// windows of the window's own value. A median over launches, not one
    /// percentile over all batches, so one disturbed launch cannot move
    /// the tail.
    fn end_to_end(&self, p: &Phase) -> impl Iterator<Item = f64> {
        let quiet = p.quiet();
        let median = |f: fn(&Window) -> f64| {
            quantile_f64(&quiet.iter().map(|w| f(w)).collect::<Vec<_>>(), 0.5)
        };
        let samples = quiet.iter().map(|w| w.samples).sum::<u64>().max(1) as f64;
        let cpu_s: f64 = quiet.iter().map(|w| w.cpu_s).sum();
        let energy_j: f64 = quiet
            .iter()
            .map(|w| self.energy.joules(w.secs, w.cpu_s))
            .sum();
        let values = [
            median(|w| w.samples as f64 / w.secs),
            median(|w| w.wait_p50_ns as f64) / 1e6,
            median(|w| w.wait_p95_ns as f64) / 1e6,
            cpu_s * 1e6 / samples,
            energy_j * 1e3 / samples,
            // Set-up precedes the window, so every launch's counts.
            quantile_f64(
                &p.windows.iter().map(|w| w.setup_s).collect::<Vec<_>>(),
                0.5,
            ),
            median(|w| w.peak_rss_mib),
            1.0 - p.failed as f64 / p.planned.max(1) as f64,
        ];
        values.into_iter()
    }

    /// Every per-layer metric except the `overhead.*` ones.
    fn per_layer(&self, p: &Phase, tracers: &Tracers) -> impl Iterator<Item = f64> {
        const MIB: f64 = (1 << 20) as f64;
        let ms = |ns: u64| ns as f64 / 1e6;
        let us = |ns: u64| ns as f64 / 1e3;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let daemon = p.daemon_stages.snapshot();
        let receiver = p.receiver_stages.snapshot();
        let d = |s: Stage| -> &HistSnapshot { daemon.stage(s) };
        let storage = tracers.storage.totals();
        let peer = tracers.peer.totals();
        let [hits, misses, disk_hits, prefetched, evictions, spills, spill_waits] = p.cache;
        let [peer_hits, peer_misses, peer_fallbacks, peer_bytes] = p.peer;
        let fleet = self.shape.daemons > 1;
        let dataset_passes = self.data.storage_bytes * p.windows.len() as u64;
        let (mut materialize, mut dwell, mut transit) = (
            p.materialize_ns.clone(),
            p.dwell_ns.clone(),
            p.transit_ns.clone(),
        );
        let values = [
            storage.blocks as f64,
            storage.bytes as f64 / MIB,
            ms(storage.calls.sum),
            us(storage.calls.p50()),
            us(storage.calls.p99()),
            storage.errors as f64,
            ratio(storage.bytes, p.payload_bytes),
            p.nfs_reads as f64,
            p.nfs_opens as f64,
            hits as f64,
            misses as f64,
            disk_hits as f64,
            prefetched as f64,
            evictions as f64,
            spills as f64,
            spill_waits as f64,
            ratio(hits, hits + misses),
            us(d(Stage::CacheLookup).p50()),
            us(d(Stage::CacheLookup).p99()),
            ms(d(Stage::SpillWrite).sum),
            peer.blocks as f64,
            ms(peer.calls.sum),
            peer_hits as f64,
            peer_misses as f64,
            peer_fallbacks as f64,
            peer_bytes as f64 / MIB,
            ratio(peer_hits, peer_hits + peer_misses),
            if fleet {
                ratio(p.nfs_bytes, dataset_passes)
            } else {
                0.0
            },
            ms(d(Stage::BatchAssemble).sum),
            us(d(Stage::BatchAssemble).p50()),
            us(d(Stage::BatchAssemble).p99()),
            ms(d(Stage::Encode).sum),
            ratio(p.pool_reuse, p.pool_alloc + p.pool_reuse),
            ratio(p.unattributed_ns, p.wall_workers_ns),
            ms(d(Stage::SocketSend).sum),
            us(d(Stage::SocketSend).p99()),
            ms(p.send_blocked_ns),
            p.proxy_bytes as f64 / MIB,
            ms(quantile(&mut transit, 0.50)),
            ms(quantile(&mut transit, 0.99)),
            ms(receiver.stage(Stage::RecvWait).sum),
            ms(receiver.stage(Stage::RecvScan).sum),
            ms(receiver.stage(Stage::QueuePush).sum),
            ms(quantile(&mut dwell, 0.50)),
            ms(p.dequeue_ns),
            ms(materialize.iter().sum()),
            us(quantile(&mut materialize, 0.50)),
            ms(p.verify_ns),
        ];
        values.into_iter()
    }
}

/// Fold one joined launch's layer counters and stage histograms into the
/// phase totals.
fn collect_layers(phase: &mut Phase, launch: &Launch) {
    for cache in &launch.caches {
        // Off-path spill writes finish after the daemons join; wait so the
        // counters below are final.
        cache.flush_spills();
        let s = cache.stats().snapshot();
        let add = [
            s.hits,
            s.misses,
            s.disk_hits,
            s.prefetched,
            s.evictions,
            s.spills,
            s.spill_backpressure_waits,
        ];
        for (total, v) in phase.cache.iter_mut().zip(add) {
            *total += v;
        }
    }
    for (metrics, recorder) in launch.daemons() {
        let snap: MetricsSnapshot = metrics.snapshot();
        let stages = recorder.snapshot();
        let wall_workers = snap.serve_wall_nanos * snap.serve_workers;
        let accounted =
            stages.stage(Stage::BatchAssemble).sum + stages.stage(Stage::SocketSend).sum;
        phase.wall_workers_ns += wall_workers;
        phase.unattributed_ns += wall_workers.saturating_sub(accounted);
        phase.send_blocked_ns += snap.send_blocked_nanos;
        phase.daemon_stages.merge(&recorder);
    }
    phase.receiver_stages.merge(&launch.receiver().recorder());
    for pool in &launch.pools {
        let s = pool.stats();
        phase.pool_alloc += s.pool_alloc;
        phase.pool_reuse += s.pool_reuse;
    }
    for peer in &launch.peers {
        let s = peer.stats().snapshot();
        for (total, v) in
            phase
                .peer
                .iter_mut()
                .zip([s.hits, s.misses, s.fallbacks, s.bytes_from_peers])
        {
            *total += v;
        }
    }
    if let Some(mount) = &launch.mount {
        let s = mount.stats();
        let load = |a: &std::sync::atomic::AtomicU64| a.load(std::sync::atomic::Ordering::Relaxed);
        phase.nfs_reads += load(&s.reads);
        phase.nfs_opens += load(&s.opens);
        phase.nfs_bytes += load(&s.bytes_read);
    }
    if let Some(proxy) = &launch.proxy {
        let load = |a: &std::sync::atomic::AtomicU64| a.load(std::sync::atomic::Ordering::Relaxed);
        phase.proxy_bytes += load(&proxy.bytes_up) + load(&proxy.bytes_down);
    }
}
