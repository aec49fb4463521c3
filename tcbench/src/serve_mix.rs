//! The `serve_mix` workload: `tcsim-serve` started in-process with one
//! simulation worker and a fresh on-disk cache per loop, driven through
//! the repository's own `Client` by a closed loop (throughput) and an
//! open loop (latency) over a seeded mix of corpus and generated jobs,
//! each submitted three times.

use crate::metrics::{best_of, fastest, fastest_total, run_passes, Layers, Rep};
use crate::replay::{kernel_layers, KernelProfile};
use crate::spans::Spans;
use crate::stats::{median, percentile};
use crate::tracer::CountingTracer;
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use tcsim_check::corpus::case_from_text;
use tcsim_check::gen::{generate, Arch, GenConfig, KindSel};
use tcsim_check::oracle::Case;
use tcsim_check::rng::{ExpArrivals, XorShift64Star};
use tcsim_isa::{Kernel, LaunchConfig};
use tcsim_serve::{
    fnv128_hex, Client, Event, InputSpec, JobOutcome, JobSpec, Request, ResultCache, ServeOptions,
    Server, ServerStats,
};
use tcsim_sim::{Gpu, LaunchBuilder, LaunchStats, SimOptions};

/// Distinct jobs per pass; each is submitted [`REPEATS`] times, so an
/// open-loop pass completes 1200 jobs and at least 10 samples lie
/// beyond its p99.
const DISTINCT: usize = 400;
const REPEATS: usize = 3;
/// Seed of the generated programs (fixed: the workload seed varies their
/// inputs, not the programs).
const KERNEL_SEED: u64 = 0x5E21_E0B5;
/// Steps between a job's submissions: about 190 jobs, more than the
/// closed loop keeps outstanding, so a repeat arrives after the first
/// submission completed and hits the cache instead of coalescing.
const REPEAT_LAG: usize = 64;
/// Closed loop: two connections (the host's core count), each keeping
/// this many jobs outstanding — far below the server's per-connection
/// quota and queue bound, so nothing is refused by design.
const CONNECTIONS: usize = 2;
const WINDOW: usize = 32;
/// Open-loop offered rate in jobs/s: about half the closed-loop capacity
/// measured on a 2-core host at the baseline commit. Fixed, so later
/// changes are compared at the same load.
pub const OPEN_RATE: f64 = 360.0;
/// Host seconds of one pass at the baseline commit on a 2-vCPU Xeon
/// virtual machine; fixes how many passes a run of `--seconds` makes.
const NOMINAL_PASS_S: f64 = 5.5;
/// Set-ups timed per pass: each takes a few milliseconds, so the fastest
/// of many is a steady estimate of its cost.
const SETUPS_PER_PASS: usize = 8;
/// Untraced direct passes over the distinct jobs per serve pass: each
/// launch is short (well under a millisecond), so its fastest of many
/// repeats is a steady estimate of its cost.
const DIRECT_REPEATS: usize = 10;
/// Untraced and traced direct passes over the distinct jobs in the
/// traced run; tracing overhead compares their fastest launches.
const DIRECT_PAIRS: usize = 3;
/// Longest wait for any one event before the pass is declared failed.
const EVENT_TIMEOUT: Duration = Duration::from_secs(30);
/// Committed conformance corpus the mix draws from, relative to the
/// repository root the benchmark runs in.
const CORPUS_DIR: &str = "tests/corpus";

/// The jobs of one pass, in submission order.
struct Mix {
    distinct: Vec<JobSpec>,
    /// Submission order as indices into `distinct`.
    order: Vec<usize>,
}

impl Mix {
    fn id(i: usize) -> String {
        format!("j{i:05}")
    }
}

fn corpus_jobs() -> Result<Vec<JobSpec>, String> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(CORPUS_DIR)
        .map_err(|e| format!("cannot read {CORPUS_DIR}: {e}"))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "case"))
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p| {
            let text = std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
            let case = case_from_text(&text).map_err(|e| format!("{}: {e}", p.display()))?;
            Ok(JobSpec::from_case(&case))
        })
        .collect()
}

/// The seeded mix. The kernels are fixed — the corpus plus generated
/// programs in fixed proportions of SIMT and WMMA on Volta and Turing —
/// so every seed runs the same kind and amount of work; the seed draws
/// every job's input data, the submission order and the arrivals.
fn build_mix(seed: u64) -> Result<Mix, String> {
    let mut distinct = corpus_jobs()?;
    let strata = [
        (KindSel::Simt, Arch::Volta),
        (KindSel::Wmma, Arch::Volta),
        (KindSel::Simt, Arch::Turing),
        (KindSel::Wmma, Arch::Turing),
    ];
    let mut programs = XorShift64Star::new(KERNEL_SEED);
    while distinct.len() < DISTINCT {
        let (kind, arch) = strata[distinct.len() % strata.len()];
        let cfg = GenConfig {
            max_ops: 16,
            kind,
            arch: Some(arch),
        };
        let program = generate(programs.next_u64(), &cfg);
        distinct.push(JobSpec::from_case(&Case::from_program(&program, 0)));
    }
    let mut rng = XorShift64Star::new(seed ^ 0x5E21_E000);
    for job in &mut distinct {
        if let InputSpec::Seeded { seed: data, .. } = &mut job.input {
            *data = rng.next_u64();
        }
    }
    let mut first: Vec<usize> = (0..DISTINCT).collect();
    for i in (1..first.len()).rev() {
        first.swap(i, rng.below(i as u64 + 1) as usize);
    }
    // Job `first[t]` is first sent at step `t` and repeated at steps
    // `t + REPEAT_LAG` and `t + 2·REPEAT_LAG`: a steady one-miss-in-three
    // stream whose repeats find their result already cached.
    let mut order = Vec::with_capacity(DISTINCT * REPEATS);
    for t in 0..DISTINCT + (REPEATS - 1) * REPEAT_LAG {
        for r in 0..REPEATS {
            if let Some(&job) = t.checked_sub(r * REPEAT_LAG).and_then(|s| first.get(s)) {
                order.push(job);
            }
        }
    }
    Ok(Mix { distinct, order })
}

/// A job's terminal event, as the client saw it.
#[derive(Debug)]
enum Outcome {
    Done {
        output_fnv: String,
        stats_json: String,
    },
    Lost(String),
}

/// What a client saw, keyed by job id: terminal outcomes and event times.
type Seen = (HashMap<String, Outcome>, HashMap<String, Times>);

/// Client-side timestamps of one job's events.
#[derive(Clone, Copy, Debug, Default)]
struct Times {
    due: Option<Instant>,
    accepted: Option<Instant>,
    running: Option<Instant>,
    done: Option<Instant>,
}

struct PassResult {
    wall_s: f64,
    outcomes: HashMap<String, Outcome>,
    times: HashMap<String, Times>,
    /// How late the generator sent each open-loop job, in ms.
    late_ms: Vec<f64>,
    stats: ServerStats,
}

/// Connects the repository's own `Client` and detaches its event stream
/// (as `tcsim-loadgen` does), with a read timeout so a stuck server fails
/// the pass instead of hanging it.
fn connect(addr: SocketAddr) -> Result<(Client, BufReader<TcpStream>), String> {
    let client = Client::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let events = client.split_reader().map_err(|e| format!("split: {e}"))?;
    events
        .get_ref()
        .set_read_timeout(Some(EVENT_TIMEOUT))
        .map_err(|e| e.to_string())?;
    Ok((client, events))
}

fn submit(client: &mut Client, i: usize, job: &JobSpec) -> Result<(), String> {
    client
        .send(&Request::Submit {
            id: Mix::id(i),
            job: job.clone(),
        })
        .map_err(|e| format!("send: {e}"))
}

/// Reads events until `expected` jobs reached a terminal event. Each event
/// is passed with its arrival time; `on_event` returns whether it was
/// terminal.
fn drain(
    events: &mut BufReader<TcpStream>,
    expected: usize,
    mut on_event: impl FnMut(Instant, Event) -> Result<bool, String>,
) -> Result<(), String> {
    let (mut line, mut terminal) = (String::new(), 0);
    while terminal < expected {
        line.clear();
        match events.read_line(&mut line) {
            Ok(0) => return Err("server closed the connection".into()),
            Ok(_) => {}
            Err(e) => return Err(format!("waiting for events: {e}")),
        }
        let ev = Event::from_line(line.trim()).map_err(|e| format!("bad event: {e}"))?;
        if on_event(Instant::now(), ev)? {
            terminal += 1;
        }
    }
    Ok(())
}

fn record(
    outcomes: &mut HashMap<String, Outcome>,
    times: &mut HashMap<String, Times>,
    at: Instant,
    ev: Event,
) -> bool {
    match ev {
        Event::Accepted { id, .. } => {
            times.entry(id).or_default().accepted = Some(at);
            false
        }
        Event::Running { id } => {
            times.entry(id).or_default().running = Some(at);
            false
        }
        Event::Done {
            id,
            output_fnv,
            stats_json,
            ..
        } => {
            times.entry(id.clone()).or_default().done = Some(at);
            outcomes.insert(
                id,
                Outcome::Done {
                    output_fnv,
                    stats_json,
                },
            );
            true
        }
        Event::Failed { id, reason } => {
            outcomes.insert(id, Outcome::Lost(format!("failed: {reason}")));
            true
        }
        Event::Rejected { id, reason } => {
            outcomes.insert(id, Outcome::Lost(format!("rejected: {reason}")));
            true
        }
        Event::Stats(_) => false,
    }
}

/// Closed loop: each connection keeps [`WINDOW`] jobs outstanding and
/// submits its next job when one completes.
fn closed_pass(addr: SocketAddr, mix: &Mix) -> Result<PassResult, String> {
    let started = Instant::now();
    let per_conn: Vec<Result<Seen, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                s.spawn(move || {
                    let jobs: Vec<usize> = (c..mix.order.len()).step_by(CONNECTIONS).collect();
                    let job = |i: usize| &mix.distinct[mix.order[i]];
                    let (mut client, mut events) = connect(addr)?;
                    for &i in jobs.iter().take(WINDOW) {
                        submit(&mut client, i, job(i))?;
                    }
                    let mut next = jobs.len().min(WINDOW);
                    let (mut outcomes, mut times) = (HashMap::new(), HashMap::new());
                    let drained = drain(&mut events, jobs.len(), |at, ev| {
                        let terminal = record(&mut outcomes, &mut times, at, ev);
                        if terminal && next < jobs.len() {
                            submit(&mut client, jobs[next], job(jobs[next]))?;
                            next += 1;
                        }
                        Ok(terminal)
                    });
                    let _ = client.close();
                    drained.map(|_| (outcomes, times))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();
    let (mut outcomes, mut times) = (HashMap::new(), HashMap::new());
    for r in per_conn {
        let (o, t) = r?;
        outcomes.extend(o);
        times.extend(t);
    }
    Ok(PassResult {
        wall_s,
        outcomes,
        times,
        late_ms: Vec::new(),
        stats: ServerStats::default(),
    })
}

/// Open loop: one connection submits on a seeded Poisson schedule at
/// [`OPEN_RATE`] whatever the completions do; a reader thread collects
/// the events.
fn open_pass(addr: SocketAddr, mix: &Mix, seed: u64) -> Result<PassResult, String> {
    let (mut client, mut events) = connect(addr)?;
    let n = mix.order.len();
    let started = Instant::now();
    let (drained, due, late_ms) = std::thread::scope(|s| {
        let reader = s.spawn(move || {
            let (mut outcomes, mut times) = (HashMap::new(), HashMap::new());
            drain(&mut events, n, |at, ev| {
                Ok(record(&mut outcomes, &mut times, at, ev))
            })
            .map(|_| (outcomes, times))
        });
        let mut arrivals = ExpArrivals::new(seed, OPEN_RATE);
        let mut due_at = Instant::now();
        let (mut due, mut late_ms) = (Vec::with_capacity(n), Vec::with_capacity(n));
        let mut send_err = None;
        for i in 0..n {
            due_at += Duration::from_secs_f64(arrivals.next_interval());
            if let Some(wait) = due_at.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            late_ms.push(Instant::now().duration_since(due_at).as_secs_f64() * 1e3);
            due.push(due_at);
            if let Err(e) = submit(&mut client, i, &mix.distinct[mix.order[i]]) {
                send_err = Some(e);
                // Unblocks the reader, which would otherwise wait for
                // events of jobs that were never sent.
                let _ = client.close();
                break;
            }
        }
        let drained = reader
            .join()
            .unwrap_or_else(|_| Err("event reader panicked".into()));
        (send_err.map_or(drained, Err), due, late_ms)
    });
    let _ = client.close();
    let wall_s = started.elapsed().as_secs_f64();
    let (outcomes, mut times) = drained?;
    for (i, at) in due.into_iter().enumerate() {
        times.entry(Mix::id(i)).or_default().due = Some(at);
    }
    Ok(PassResult {
        wall_s,
        outcomes,
        times,
        late_ms,
        stats: ServerStats::default(),
    })
}

/// Starts a server with one worker and an empty on-disk cache in
/// `scratch`.
fn start_server(scratch: &Path) -> Result<Server, String> {
    let _ = std::fs::remove_dir_all(scratch);
    let opts = ServeOptions {
        workers: 1,
        cache_dir: Some(scratch.to_path_buf()),
        ..ServeOptions::default()
    };
    Server::start("127.0.0.1:0", opts).map_err(|e| format!("server start: {e}"))
}

/// Runs `pass` against a freshly started server, then stops the server
/// and removes its cache.
fn with_server(
    scratch: &Path,
    pass: impl FnOnce(SocketAddr) -> Result<PassResult, String>,
) -> Result<PassResult, String> {
    let server = start_server(scratch)?;
    let result = pass(server.local_addr());
    let stats = server.stats();
    server.shutdown();
    let _ = std::fs::remove_dir_all(scratch);
    let mut result = result?;
    result.stats = stats;
    Ok(result)
}

/// Host seconds of one set-up: generating the jobs and starting a server.
fn timed_setup(seed: u64, scratch: &Path) -> Result<f64, String> {
    let t = Instant::now();
    let mix = build_mix(seed)?;
    let server = start_server(scratch)?;
    let secs = t.elapsed().as_secs_f64();
    black_box(mix);
    server.shutdown();
    let _ = std::fs::remove_dir_all(scratch);
    Ok(secs)
}

/// Mirrors `JobSpec::run_on` through the public launch API so the launch
/// itself can be timed (and traced). Returns the stats, the output
/// digest and the host seconds inside `LaunchBuilder::launch`.
fn direct_launch(
    job: &JobSpec,
    tracer: Option<&CountingTracer>,
    spans: &mut Spans,
    span: &'static str,
    op: u64,
) -> Result<DirectRun, String> {
    let mut options = SimOptions::new(job.config.to_config()).core(job.core);
    if let Some(t) = tracer {
        options = options.tracer(t.clone());
    }
    let mut gpu = spans.time("sim.gpu_new", op, || Gpu::new(options));
    let input = job.input.bytes();
    let out_len = job.out_words as usize * 4;
    let (in_addr, out_addr) = spans.time("sim.h2d", op, || {
        let in_addr = gpu.alloc(input.len() as u64);
        let out_addr = gpu.alloc(out_len as u64);
        gpu.memcpy_h2d(in_addr, &input);
        (in_addr, out_addr)
    });
    let builder = LaunchBuilder::new(job.kernel.clone())
        .grid(job.grid)
        .block(job.block)
        .param_u64(in_addr)
        .param_u64(out_addr);
    let parts = builder.clone().into_parts();
    let id = spans.enter(span, op);
    let stats = catch_unwind(AssertUnwindSafe(|| builder.launch(&mut gpu)));
    let secs = spans.exit(id);
    let stats = stats.map_err(|_| "launch failed".to_string())?;
    let out = gpu.memcpy_d2h(out_addr, out_len);
    Ok(DirectRun {
        stats,
        output_fnv: fnv128_hex(&out),
        secs,
        gpu,
        parts,
    })
}

struct DirectRun {
    stats: LaunchStats,
    output_fnv: String,
    secs: f64,
    gpu: Gpu,
    parts: (Kernel, LaunchConfig, Vec<u8>),
}

/// The per-kernel layer costs of one job, timed on the job's own launch
/// (see [`kernel_layers`]).
fn profile_job(
    run: &mut DirectRun,
    job: &JobSpec,
    spans: &mut Spans,
    op: u64,
) -> (KernelProfile, u64, LaunchStats) {
    let cfg = job.config.to_config();
    let (kernel, launch, params) = &run.parts;
    let device = run.gpu.device_mut();
    let profile = kernel_layers(kernel, launch, params, device, &cfg, spans, op, 1_000_000);
    (profile, launch.grid.count(), run.stats.clone())
}

/// Direct launches of every distinct job, each checked against the
/// job's `JobSpec::run` outcome; the pass's simulator throughput.
fn direct_pass(
    mix: &Mix,
    reference: &[JobOutcome],
    tracer: Option<&CountingTracer>,
    spans: &mut Spans,
    span: &'static str,
    profile: bool,
) -> (Rep, Vec<(KernelProfile, u64, LaunchStats)>) {
    let mut rep = Rep::default();
    let mut profiles = Vec::new();
    for (i, job) in mix.distinct.iter().enumerate() {
        rep.attempted += 1;
        match direct_launch(job, tracer, spans, span, i as u64) {
            Ok(mut run) => {
                let want = &reference[i];
                let mut plain = run.stats.clone();
                plain.trace = None;
                if plain.to_json() != want.stats_json || run.output_fnv != want.output_fnv {
                    eprintln!("job {i}: direct launch differs from JobSpec::run");
                    rep.failed += 1;
                }
                if profile {
                    profiles.push(profile_job(&mut run, job, spans, i as u64));
                }
                rep.launch_s.push(run.secs);
                rep.cycles += run.stats.cycles;
                rep.instrs += run.stats.instructions;
                rep.stats.push(run.stats);
            }
            Err(e) => {
                eprintln!("job {i}: {e}");
                rep.failed += 1;
            }
        }
    }
    (rep, profiles)
}

/// Failures among a pass's completions: missing or refused jobs, and
/// results that differ from the direct run of the same job.
fn check_pass(mix: &Mix, reference: &[JobOutcome], pass: &PassResult) -> u64 {
    let mut failed = 0;
    for (i, &d) in mix.order.iter().enumerate() {
        let want = &reference[d];
        match pass.outcomes.get(&Mix::id(i)) {
            Some(Outcome::Done {
                output_fnv,
                stats_json,
            }) => {
                if *output_fnv != want.output_fnv || *stats_json != want.stats_json {
                    eprintln!("{}: served result differs from JobSpec::run", Mix::id(i));
                    failed += 1;
                }
            }
            Some(Outcome::Lost(why)) => {
                eprintln!("{}: {why}", Mix::id(i));
                failed += 1;
            }
            None => {
                eprintln!("{}: no terminal event", Mix::id(i));
                failed += 1;
            }
        }
    }
    failed
}

/// Everything one serve pass measured.
pub struct ServePass {
    /// Host seconds of each of [`SETUPS_PER_PASS`] set-ups (job
    /// generation plus a server start), timed apart from the loops.
    pub setup_s: Vec<f64>,
    /// Closed-loop completions per second.
    pub jobs_per_s: f64,
    /// Open-loop latencies (due → `Done`), in ms.
    pub latency_ms: Vec<f64>,
    /// [`DIRECT_REPEATS`] untraced direct launches of every distinct job.
    pub direct: Vec<Rep>,
    /// Jobs submitted to the server.
    pub attempted: u64,
    /// Submitted jobs that failed, were refused or mismatched.
    pub failed: u64,
    closed: PassResult,
    open: PassResult,
}

fn run_pass(
    seed: u64,
    reference: &mut Option<Vec<JobOutcome>>,
    spans: &mut Spans,
    scratch: &Path,
) -> Result<ServePass, String> {
    let setup_s = (0..SETUPS_PER_PASS)
        .map(|_| timed_setup(seed, scratch))
        .collect::<Result<_, _>>()?;
    let mix = build_mix(seed)?;
    // The reference outcomes are correctness work: computed once, outside
    // every timed region.
    let reference = reference.get_or_insert_with(|| {
        mix.distinct
            .iter()
            .map(|j| {
                j.run().unwrap_or_else(|e| JobOutcome {
                    stats_json: e,
                    output_fnv: String::new(),
                })
            })
            .collect()
    });
    let closed = with_server(scratch, |addr| closed_pass(addr, &mix))?;
    let open = with_server(scratch, |addr| open_pass(addr, &mix, seed))?;
    let direct = (0..DIRECT_REPEATS)
        .map(|_| direct_pass(&mix, reference, None, spans, "sim.launch", false).0)
        .collect();
    let failed = check_pass(&mix, reference, &closed) + check_pass(&mix, reference, &open);
    let latency_ms = open
        .times
        .values()
        .filter_map(|t| Some(t.done?.duration_since(t.due?).as_secs_f64() * 1e3))
        .collect();
    Ok(ServePass {
        setup_s,
        jobs_per_s: closed.outcomes.len() as f64 / closed.wall_s,
        latency_ms,
        direct,
        attempted: 2 * mix.order.len() as u64,
        failed,
        closed,
        open,
    })
}

fn scratch_dir() -> PathBuf {
    PathBuf::from(".bench_out").join(format!("serve-cache-{}", std::process::id()))
}

/// The untraced run: a fixed number of serve passes (see [`run_passes`]).
pub fn run_untraced(seed: u64, seconds: f64) -> Result<Vec<ServePass>, String> {
    let mut spans = Spans::new();
    let mut reference = None;
    let mut passes = Vec::new();
    for _ in run_passes(seconds, NOMINAL_PASS_S) {
        let p = run_pass(seed, &mut reference, &mut spans, &scratch_dir())?;
        eprintln!(
            "pass {}: fastest set-up {:.4} s, {:.1} jobs/s, open-loop p50 {:.3} ms, \
             direct launches {:.4} s",
            passes.len(),
            fastest(&p.setup_s),
            p.jobs_per_s,
            percentile(&p.latency_ms, 50.0),
            fastest_total(&p.direct)
        );
        passes.push(p);
    }
    Ok(passes)
}

/// End-to-end metrics of the serve passes: simulator throughput over
/// the fastest direct launch of every distinct job (see [`best_of`]),
/// the fastest set-up, the median over passes of the closed-loop
/// throughput, and the lowest open-loop median latency of any pass. The
/// closed loop keeps both cores busy and reads steadily from pass to
/// pass; the open-loop median only rises when other tenants slow the
/// host, so its fastest pass is the steadiest estimate.
pub fn end_to_end(passes: &[ServePass]) -> BTreeMap<&'static str, f64> {
    let direct: Vec<&Rep> = passes.iter().flat_map(|p| &p.direct).collect();
    let launches: Vec<&[f64]> = direct.iter().map(|r| r.launch_s.as_slice()).collect();
    let busy: f64 = best_of(&launches).iter().sum();
    let med = |f: &dyn Fn(&ServePass) -> f64| median(&passes.iter().map(f).collect::<Vec<_>>());
    let mut m = BTreeMap::new();
    m.insert("sim_cycles_per_s", direct[0].cycles as f64 / busy);
    m.insert("warp_instrs_per_s", direct[0].instrs as f64 / busy);
    let setups: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.setup_s.iter().copied())
        .collect();
    m.insert("setup_s", fastest(&setups));
    m.insert("jobs_per_s", med(&|p| p.jobs_per_s));
    let p50: Vec<f64> = passes
        .iter()
        .map(|p| percentile(&p.latency_ms, 50.0))
        .collect();
    m.insert("job_p50_ms", fastest(&p50));
    m
}

fn wait_percentiles(
    layers: &mut Layers,
    name_p50: &'static str,
    name_p99: &'static str,
    ms: &[f64],
) {
    if !ms.is_empty() {
        layers.set(name_p50, percentile(ms, 50.0));
        layers.set(name_p99, percentile(ms, 99.0));
    }
}

/// What the traced run measured.
pub struct Traced {
    /// The untraced serve pass.
    pub pass: ServePass,
    /// Untraced direct passes over the distinct jobs.
    pub plain: Vec<Rep>,
    /// Traced direct passes over the distinct jobs.
    pub traced: Vec<Rep>,
    /// Per-layer figures.
    pub layers: Layers,
    /// Spans of the timed calls.
    pub spans: Spans,
}

/// The traced run: one untraced serve pass for the server-side counts
/// and client-observed waits, then per-call costs of each serve layer on
/// the mix's own jobs, and traced plus untraced direct launches.
pub fn run_traced(seed: u64) -> Result<Traced, String> {
    let mut spans = Spans::new();
    let mut reference = None;
    let pass = run_pass(seed, &mut reference, &mut spans, &scratch_dir())?;
    let reference = reference.expect("set by the pass");
    let mix = build_mix(seed)?;
    let mut layers = Layers::default();

    // Server counters and client-observed waits.
    let (c, o) = (&pass.closed.stats, &pass.open.stats);
    let done = (c.jobs_done + o.jobs_done).max(1) as f64;
    layers.set(
        "serve.hit_rate",
        (c.cache_hits + o.cache_hits) as f64 / done,
    );
    layers.set("serve.coalesced", (c.coalesced + o.coalesced) as f64);
    layers.set("serve.rejected", (c.rejected + o.rejected) as f64);
    layers.set("serve.failed", (c.failed + o.failed) as f64);
    let gap = |t: &Times, a: fn(&Times) -> Option<Instant>, b: fn(&Times) -> Option<Instant>| {
        Some(b(t)?.duration_since(a(t)?).as_secs_f64() * 1e3)
    };
    let times: Vec<&Times> = pass.open.times.values().collect();
    let accept: Vec<f64> = times
        .iter()
        .filter_map(|t| gap(t, |t| t.due, |t| t.accepted))
        .collect();
    let queue: Vec<f64> = times
        .iter()
        .filter_map(|t| gap(t, |t| t.accepted, |t| t.running))
        .collect();
    let run: Vec<f64> = times
        .iter()
        .filter_map(|t| gap(t, |t| t.running, |t| t.done))
        .collect();
    wait_percentiles(
        &mut layers,
        "serve.accept_wait_ms.p50",
        "serve.accept_wait_ms.p99",
        &accept,
    );
    wait_percentiles(
        &mut layers,
        "serve.queue_wait_ms.p50",
        "serve.queue_wait_ms.p99",
        &queue,
    );
    wait_percentiles(&mut layers, "serve.run_ms.p50", "serve.run_ms.p99", &run);
    layers.set("serve.job_p99_ms", percentile(&pass.latency_ms, 99.0));
    let late_max = pass.open.late_ms.iter().copied().fold(0.0, f64::max);
    layers.set("serve.gen_late_ms.max", late_max);

    // Per-call costs of the serve layers on the mix's own jobs.
    let lines: Vec<String> = mix
        .order
        .iter()
        .enumerate()
        .map(|(i, &d)| {
            Request::Submit {
                id: Mix::id(i),
                job: mix.distinct[d].clone(),
            }
            .to_line()
        })
        .collect();
    for (i, line) in lines.iter().enumerate() {
        spans.time("serve.parse", i as u64, || {
            black_box(Request::from_line(line)).map(|_| ())
        })?;
    }
    let scratch = scratch_dir();
    let _ = std::fs::remove_dir_all(&scratch);
    let mut cache = ResultCache::open(&scratch).map_err(|e| format!("cache open: {e}"))?;
    for (i, job) in mix.distinct.iter().enumerate() {
        let op = i as u64;
        spans.time("serve.validate", op, || job.validate())?;
        let key = spans.time("serve.cache_key", op, || job.cache_key());
        let outcome = spans.time("serve.run", op, || job.run())?;
        let entry = tcsim_serve::CacheEntry {
            key: key.clone(),
            outcome,
        };
        spans
            .time("serve.cache_insert", op, || cache.insert(entry))
            .map_err(|e| format!("cache insert: {e}"))?;
    }
    for (i, &d) in mix.order.iter().enumerate() {
        let key = mix.distinct[d].cache_key();
        let hit = spans.time("serve.cache_get", i as u64, || cache.get(&key));
        let entry = hit.ok_or("cache lost an entry")?;
        let ev = Event::Done {
            id: Mix::id(i),
            key,
            cached: true,
            output_fnv: entry.outcome.output_fnv.clone(),
            latency_us: 0,
            stats_json: entry.outcome.stats_json.clone(),
        };
        spans.time("serve.encode", i as u64, || black_box(ev.to_line()));
    }
    drop(cache);
    let _ = std::fs::remove_dir_all(&scratch);

    // Simulator layers on the jobs' own launches: alternating untraced
    // and traced direct passes, the last traced one profiled.
    let tracer = CountingTracer::new();
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let (mut counts, mut profiles) = (None, Vec::new());
    for pair in 1..=DIRECT_PAIRS {
        let (rep, _) = direct_pass(
            &mix,
            &reference,
            None,
            &mut spans,
            "sim.launch.untraced",
            false,
        );
        plain.push(rep);
        let before = tracer.snapshot_counts();
        let profile = pair == DIRECT_PAIRS;
        let (rep, p) = direct_pass(
            &mix,
            &reference,
            Some(&tracer),
            &mut spans,
            "sim.launch",
            profile,
        );
        counts = Some(tracer.snapshot_counts().minus(&before));
        traced.push(rep);
        profiles = p;
    }
    let last = traced.last().expect("traced direct pass");
    layers.launch_counts(&last.stats, &counts.expect("traced direct pass"));
    layers.profile_shares(&profiles, fastest_total(&plain));
    layers.span_times(
        &spans,
        DIRECT_REPEATS + 2 * DIRECT_PAIRS,
        mix.distinct.len(),
    );
    layers.trace_overhead(&plain, &traced);
    Ok(Traced {
        pass,
        plain,
        traced,
        layers,
        spans,
    })
}
