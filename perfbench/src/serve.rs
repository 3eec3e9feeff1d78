//! `serve_cold`: closed-loop `/v1/simulate` load on an `impact serve`
//! process with a persistent store.
//!
//! Callers of `/v1/simulate` wait for their result, so each connection
//! sends its next request only when the previous response has fully
//! arrived; latency runs from send to full response.
//!
//! The measured phase is cut into short windows, and throughput and
//! latency come from the requests that completed in its busiest quarter
//! of windows. Other tenants of a shared host slow the service for
//! seconds at a time and never speed it up, so the quietest stretches of
//! a run are the part of it that they move least.

use std::io::{BufRead, BufReader, Read};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use impact_cache::CacheStats;
use impact_experiments::session::{SharedSimSession, SimSession};
use impact_layout::{baseline, Placement};
use impact_serve::http::Request;
use impact_serve::{
    api, simulate_response_json, AppState, Client, Response, ResponseCache, ServeConfig,
};
use impact_support::json::Json;
use impact_support::Rng;

use crate::layers::{self, EvalKey};
use crate::report::{self, median, percentile, Metrics, Tally};
use crate::requests::{self, Draw, Programs};
use crate::span::{self, Recorder};
use crate::{Options, Outcome, SETUP_REPS};

/// Oracle re-checks per run.
const ORACLE_KEYS: usize = 2;
/// Keys the traced run replays through the trace and cache layers.
const PROBE_KEYS: usize = 4;
/// Store entries the traced run reads and re-writes.
const STORE_SAMPLE: usize = 48;
/// Requests the traced run replays in-process through `api::route`.
const ROUTE_SAMPLE: usize = 100;
/// Upper bound on cold draws one run can consume.
const MAX_COLD_REQUESTS: usize = 200_000;
/// The service's peak resident set is read when this many requests have
/// been answered: its memo grows with every cold request, so a reading
/// at the end of the phase would follow the run's throughput.
const RSS_AT_REQUESTS: u64 = 4_000;
/// Length of the windows the measured phase is cut into.
const WINDOW: Duration = Duration::from_millis(250);
/// Latencies the kept windows hold at least, so that 20 lie beyond the
/// p99.
const MIN_KEPT_LATENCIES: usize = 2_000;

/// A request kept after the phase for verification and in-process replay.
struct Sample {
    id: u64,
    latency_ns: u64,
    /// HTTP status; 0 when the connection failed.
    status: u16,
    body: Vec<u8>,
}

/// Everything one measured phase observed.
#[derive(Default)]
struct Phase {
    /// Every answered request's completion time (from the phase start)
    /// and latency, in nanoseconds.
    done: Vec<(u64, u64)>,
    /// Requests sent.
    sent: u64,
    /// Requests sent inside traced slices.
    traced: u64,
    /// Every request sent.
    kept: Vec<Sample>,
}

impl Phase {
    fn merge(&mut self, other: Phase) {
        self.done.extend(other.done);
        self.sent += other.sent;
        self.traced += other.traced;
        self.kept.extend(other.kept);
    }
}

/// The body of request `id`.
type Body<'a> = &'a (dyn Fn(u64) -> String + Sync);

/// Traced runs alternate untraced and traced slices of this length, so
/// drift over the run (the session memo and the store growing) falls on
/// both sides of the overhead comparison.
const SLICE: Duration = Duration::from_millis(500);

/// Whether a request sent at `elapsed` into the phase falls in a traced
/// slice (the odd ones).
fn in_traced_slice(elapsed: Duration) -> bool {
    (elapsed.as_nanos() / SLICE.as_nanos()) % 2 == 1
}

/// Drives every client in its own thread, each sending its next request
/// only after the previous response arrived, until `deadline` or the
/// request id `limit`. With a recorder, requests sent in traced slices get a
/// `serve.request` span. `at.1` runs once, in the client thread that
/// receives the `at.0`-th answer. Returns the phase, its start and its
/// wall time.
fn closed_loop(
    clients: &mut [Client],
    body: Body<'_>,
    limit: u64,
    deadline: Instant,
    rec: Option<&Recorder>,
    at: (u64, &(dyn Fn() + Sync)),
) -> (Phase, Instant, f64) {
    let start = Instant::now();
    let (next, answered) = (AtomicU64::new(0), AtomicU64::new(0));
    let (next, answered) = (&next, &answered);
    let mut phase = Phase::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                scope.spawn(move || {
                    let mut out = Phase::default();
                    while Instant::now() < deadline {
                        let id = next.fetch_add(1, Ordering::Relaxed);
                        if id >= limit {
                            break;
                        }
                        let body = body(id);
                        let t = Instant::now();
                        let traced = rec.is_some() && in_traced_slice(t - start);
                        let resp = client.post_json("/v1/simulate", &body);
                        let end = Instant::now();
                        if let (Some(rec), true) = (rec, traced) {
                            rec.record("serve.request", None, Some(id), t, end);
                        }
                        let latency_ns = (end - t).as_nanos() as u64;
                        out.sent += 1;
                        out.traced += u64::from(traced);
                        let (status, body) = match resp {
                            Ok(r) => (r.status, r.body),
                            Err(_) => (0, Vec::new()),
                        };
                        if status != 0 {
                            out.done.push(((end - start).as_nanos() as u64, latency_ns));
                            if answered.fetch_add(1, Ordering::Relaxed) + 1 == at.0 {
                                (at.1)();
                            }
                        }
                        out.kept.push(Sample {
                            id,
                            latency_ns,
                            status,
                            body,
                        });
                        if status == 0 {
                            break;
                        }
                    }
                    out
                })
            })
            .collect();
        for h in handles {
            phase.merge(h.join().expect("client thread panicked"));
        }
    });
    (phase, start, start.elapsed().as_secs_f64())
}

/// Peak resident set (`VmHWM`) of process `pid` so far, in MiB.
fn peak_rss_mb(pid: u32) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The in-process equivalent of the service's configuration, for the
/// traced run's `api::route` replay.
fn server_config(dir: &Path) -> ServeConfig {
    ServeConfig {
        workers: report::nproc(),
        store_dir: Some(dir.to_string_lossy().into_owned()),
        artifact_budget: Some(0),
        ..ServeConfig::default()
    }
}

/// A running `impact serve` child process.
struct ServerProc {
    child: Child,
    stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl ServerProc {
    /// Starts `impact serve` on `dir` and waits until it listens.
    ///
    /// Trace-artifact capture is off (`--artifact-budget 0`): with the
    /// default 256 MiB budget a fresh server captures and writes a
    /// ~0.5 MB artifact for its first ~550 cold requests and none after,
    /// which made throughput bimodal within one run (about 100 vs 240
    /// req/s on a 2-vCPU VM).
    fn spawn(bin: &Path, dir: &Path) -> std::io::Result<Self> {
        let mut child = Command::new(bin)
            .arg("serve")
            .args(["--addr", "127.0.0.1:0"])
            .args(["--workers", &report::nproc().to_string()])
            .args(["--artifact-budget", "0"])
            .arg("--store")
            .arg(dir)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        stdout.read_line(&mut line)?;
        let addr = line
            .trim()
            .strip_prefix("serving on http://")
            .and_then(|a| a.parse().ok());
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(std::io::Error::other(format!(
                "unexpected start line {line:?}"
            )));
        };
        Ok(Self {
            child,
            stdout,
            addr,
        })
    }

    /// The service's `GET /metrics` document.
    fn metrics(&self) -> Json {
        let (_, body) = Client::connect(self.addr)
            .and_then(|mut c| c.get("/metrics"))
            .expect("fetch /metrics");
        impact_support::json::parse(&String::from_utf8_lossy(&body)).expect("/metrics is JSON")
    }

    /// Peak resident set of the service process so far, in MiB.
    fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(self.child.id())
    }

    /// Shuts the service down (stdin EOF) and waits for it to exit.
    fn stop(mut self) {
        drop(self.child.stdin.take());
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        let _ = self.child.wait();
    }
}

fn start(bin: &Path, dir: &Path) -> (ServerProc, Vec<Client>) {
    let server = ServerProc::spawn(bin, dir).expect("start impact serve");
    let clients = (0..report::nproc())
        .map(|_| Client::connect(server.addr).expect("connect a client"))
        .collect();
    (server, clients)
}

/// A fresh, empty directory under the run's work directory.
fn fresh_dir(work: &Path, name: &str) -> PathBuf {
    let dir = work.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create a store directory");
    dir
}

/// Direct evaluation of one draw on its own cold session, outside any
/// timed window: the expected response bytes and statistics.
fn expected(programs: &Programs, draw: Draw) -> (Vec<u8>, Vec<CacheStats>, f64) {
    let program = programs.program(draw);
    let placement = baseline::natural(program);
    let configs = requests::configs();
    let session = SharedSimSession::from_session(SimSession::new().with_artifact_budget(0));
    let t = Instant::now();
    let (stats, instructions) =
        session.evaluate(program, &placement, draw.seed, requests::limits(), &configs);
    let evaluate_s = t.elapsed().as_secs_f64();
    let doc = simulate_response_json("natural", draw.seed, &configs, &stats, instructions);
    (Response::json(200, &doc).body, stats, evaluate_s)
}

/// Latencies (ms, ascending) of the requests that completed in the
/// busiest windows of a phase of length `phase`: the busiest quarter,
/// and more in order of throughput until they hold
/// [`MIN_KEPT_LATENCIES`]. Returns them with the kept and total window
/// counts. Requests that completed after the last whole window are left
/// out.
fn quiet_windows(done: &[(u64, u64)], phase: Duration) -> (Vec<f64>, usize, usize) {
    let width = WINDOW.as_nanos() as u64;
    let windows = ((phase.as_nanos() as u64) / width).max(1) as usize;
    let mut by_window = vec![Vec::new(); windows];
    for &(end, latency) in done {
        if let Some(w) = by_window.get_mut((end / width) as usize) {
            w.push(latency as f64 / 1e6);
        }
    }
    // Busiest first; a stable sort keeps equal windows in time order.
    by_window.sort_by_key(|w| std::cmp::Reverse(w.len()));
    let (mut lat, mut kept) = (Vec::new(), 0);
    for w in by_window {
        if kept >= (windows / 4).max(1) && lat.len() >= MIN_KEPT_LATENCIES {
            break;
        }
        lat.extend(w);
        kept += 1;
    }
    lat.sort_by(f64::total_cmp);
    (lat, kept, windows)
}

/// Latency and throughput metrics of one measured phase of planned
/// length `phase` that took `wall` seconds.
fn load_metrics(
    done: &[(u64, u64)],
    phase: Duration,
    wall: f64,
    metrics: &mut Metrics,
    out: &mut Outcome,
) {
    let (lat, kept, windows) = quiet_windows(done, phase);
    metrics.set("wall_s", wall, "s");
    metrics.set(
        "rps",
        lat.len() as f64 / (kept as f64 * WINDOW.as_secs_f64()),
        "1/s",
    );
    metrics.set("latency_p50_ms", percentile(&lat, 50.0), "ms");
    metrics.set("latency_p99_ms", percentile(&lat, 99.0), "ms");
    out.samples("rps", lat.len());
    out.samples("latency_p50_ms", lat.len());
    out.samples("latency_p99_ms", lat.len());
    out.param("window_ms", WINDOW.as_millis() as u64);
    out.param("windows", windows);
    out.param("windows_kept", kept);
    out.param("rps_whole_phase", done.len() as f64 / wall);
    out.param(
        "p99_samples_beyond",
        lat.len() - (lat.len() as f64 * 0.99).ceil() as usize,
    );
}

/// The measured service and its connections.
struct Service {
    server: ServerProc,
    clients: Vec<Client>,
    store_dir: PathBuf,
}

/// Runs `serve_cold`.
pub fn run(opts: &Options) -> Outcome {
    let work = opts.work_dir();
    let outcome = drive(opts, &work);
    let _ = std::fs::remove_dir_all(&work);
    // Commit the deletions now, so the next run's file-system calls do
    // not wait behind this run's clean-up.
    if let Some(parent) = work.parent() {
        let _ = std::fs::File::open(parent).and_then(|d| d.sync_all());
    }
    outcome
}

/// Set-up: load the workload programs and start the service on a fresh
/// store. Repeated [`SETUP_REPS`] times; the last service is kept.
fn setup(bin: &Path, work: &Path) -> (Programs, Service, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut kept: Option<(Programs, Service)> = None;
    for rep in 0..SETUP_REPS {
        if let Some((_, old)) = kept.take() {
            drop(old.clients);
            old.server.stop();
        }
        let store_dir = fresh_dir(work, &format!("store-{rep}"));
        let t = Instant::now();
        let programs = Programs::load();
        let (server, clients) = start(bin, &store_dir);
        times.push(t.elapsed().as_secs_f64());
        kept = Some((
            programs,
            Service {
                server,
                clients,
                store_dir,
            },
        ));
    }
    let (programs, service) = kept.expect("at least one set-up repetition");
    (programs, service, times)
}

fn eval_key<'a>(programs: &'a Programs, draw: Draw, placement: &'a Placement) -> EvalKey<'a> {
    EvalKey {
        program: programs.program(draw),
        placement,
        seed: draw.seed,
        limits: requests::limits(),
    }
}

fn drive(opts: &Options, work: &Path) -> Outcome {
    let mut tally = Tally::default();
    let draws = requests::draws(opts.seed, MAX_COLD_REQUESTS, impact_workloads::all().len());
    let bin = opts
        .impact_bin
        .as_deref()
        .expect("serve_cold needs --impact-bin (perfbench/run.sh passes it)");
    let (programs, mut svc, setup_times) = setup(bin, work);
    let body = |id: u64| programs.body(draws[id as usize]);

    let mut out = Outcome::new(Tally::default(), Metrics::default());
    let mut metrics = Metrics::default();
    metrics.set("setup_s", median(&setup_times), "s");
    out.samples("setup_s", setup_times.len());

    let rec = opts.trace.then(Recorder::new);
    let length = Duration::from_secs(opts.seconds);
    let deadline = Instant::now() + length;
    let pid = svc.server.child.id();
    let rss_at = AtomicU64::new(0);
    let read_rss = || rss_at.store(peak_rss_mb(pid).to_bits(), Ordering::Relaxed);
    let (phase, phase_start, wall) = closed_loop(
        &mut svc.clients,
        &body,
        draws.len() as u64,
        deadline,
        rec.as_ref(),
        (RSS_AT_REQUESTS, &read_rss),
    );
    // A phase too short to reach the mark reports its end instead.
    let (rss, rss_requests) = match f64::from_bits(rss_at.load(Ordering::Relaxed)) {
        mb if mb > 0.0 => (mb, RSS_AT_REQUESTS),
        _ => (svc.server.peak_rss_mb(), phase.done.len() as u64),
    };
    metrics.set("peak_rss_mb", rss, "MiB");
    out.param("peak_rss_at_requests", rss_requests);
    load_metrics(&phase.done, length, wall, &mut metrics, &mut out);
    out.param("requests", phase.sent);
    out.param("connections", svc.clients.len());
    out.param("workers", report::nproc());
    out.param("max_instrs", requests::MAX_INSTRS);
    out.param(
        "configs",
        "2048B/64B direct-mapped, 8192B/32B direct-mapped",
    );

    drop(std::mem::take(&mut svc.clients));
    let service_metrics = svc.server.metrics();
    let store_dir = svc.store_dir.clone();
    svc.server.stop();

    // Every response is byte-compared to a direct evaluation.
    let mut stats_by_draw: Vec<(usize, Vec<CacheStats>)> = Vec::new();
    let mut evaluate_s = 0.0;
    let verified =
        impact_support::parallel_map(report::nproc(), phase.kept.iter().collect(), |s| {
            let (bytes, stats, secs) = expected(&programs, draws[s.id as usize]);
            (
                s.status == 200 && s.body == bytes,
                s.id as usize,
                stats,
                secs,
            )
        });
    for (ok, id, stats, secs) in verified {
        tally.check(ok);
        stats_by_draw.push((id, stats));
        evaluate_s += secs;
    }
    // A seeded sample is re-checked against the scalar oracle.
    let mut rng = Rng::seed_from_u64(opts.seed);
    for _ in 0..ORACLE_KEYS.min(stats_by_draw.len()) {
        let (i, stats) = &stats_by_draw[rng.gen_below(stats_by_draw.len() as u64) as usize];
        let draw = draws[*i];
        let placement = baseline::natural(programs.program(draw));
        tally.check(layers::oracle_agrees(
            &eval_key(&programs, draw, &placement),
            &requests::configs(),
            stats,
        ));
    }
    out.tally = tally;
    out.metrics = metrics;

    if let Some(rec) = rec {
        let mut layer = std::mem::take(&mut out.metrics);
        let m = &mut layer;
        m.set("session.evaluate_s", evaluate_s, "s");
        let sim = service_metrics.get("sim").cloned().unwrap_or(Json::Null);
        let sim_count = |key: &str| sim.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        m.set(
            "session.traces_streamed",
            sim_count("traces_streamed"),
            "count",
        );
        m.set(
            "session.memo_hit_ratio",
            sim_count("memo_served") / sim_count("configs_requested").max(1.0),
            "ratio",
        );
        m.set("session.disk_served", sim_count("disk_served"), "count");
        m.set(
            "session.artifact_bytes",
            sim_count("artifact_bytes"),
            "bytes",
        );
        m.set("store.puts", sim_count("store_puts"), "count");
        m.set(
            "store.bytes_written",
            sim_count("store_bytes_written"),
            "bytes",
        );
        m.set("store.hits", sim_count("store_hits"), "count");
        m.set("store.bytes_read", sim_count("store_bytes_read"), "bytes");
        let memo = service_metrics
            .get("response_cache")
            .cloned()
            .unwrap_or(Json::Null);
        let memo_count = |key: &str| memo.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        m.set(
            "serve.rcache_hit_ratio",
            memo_count("hits") / (memo_count("hits") + memo_count("misses")).max(1.0),
            "ratio",
        );

        let stats_of = |i: usize| {
            stats_by_draw
                .iter()
                .find(|(d, _)| *d == i)
                .map(|(_, s)| s.clone())
        };
        let mut sample: Vec<(u64, u64)> = phase
            .kept
            .iter()
            .filter(|s| s.status == 200)
            .map(|s| (s.id, s.latency_ns))
            .collect();
        sample.sort_unstable();
        sample.truncate(ROUTE_SAMPLE);
        let (replayed, parse_failures) = in_process(
            &rec,
            &programs,
            &draws,
            &stats_of,
            &sample,
            &fresh_dir(work, "route-store"),
            m,
        );

        let probe_draws: Vec<(Draw, Placement)> = (0..PROBE_KEYS)
            .map(|_| {
                let (i, _) = &stats_by_draw[rng.gen_below(stats_by_draw.len() as u64) as usize];
                let draw = draws[*i];
                (draw, baseline::natural(programs.program(draw)))
            })
            .collect();
        let keys: Vec<EvalKey<'_>> = probe_draws
            .iter()
            .map(|(d, p)| eval_key(&programs, *d, p))
            .collect();
        let probed = layers::trace_and_cache(&rec, &keys, &requests::configs(), m);
        let stored = layers::store_replay(
            &rec,
            &store_dir,
            &fresh_dir(work, "replay-store"),
            STORE_SAMPLE,
            opts.seed,
            m,
        )
        .expect("replay the store");
        // Both kinds of slice get the same share of the phase, so the
        // request counts compare their throughput.
        let traced_n = phase.traced;
        let slices: Vec<(u64, u64)> = (0..)
            .map(|k: u32| phase_start + SLICE * k)
            .take_while(|&t| t < phase_start + Duration::from_secs_f64(wall))
            .enumerate()
            .filter(|(k, _)| k % 2 == 1)
            .map(|(_, t)| (rec.ns_of(t), rec.ns_of(t + SLICE)))
            .collect();
        let spans = rec.spans();
        m.set("tracing.coverage", span::coverage(&spans, &slices), "ratio");
        m.set(
            "tracing.overhead",
            (phase.sent - traced_n) as f64 / traced_n.max(1) as f64 - 1.0,
            "ratio",
        );
        m.set("tracing.wall_s", wall, "s");
        out.metrics = layer;
        out.tally.check(parse_failures == 0);
        out.param("route_replay_requests", replayed);
        out.param("trace_cache_keys", probed);
        out.param("store_replay_entries", stored);
        out.write_spans(opts, &spans);
    }
    out
}

/// Replays `sample` requests in-process the way the reactor and a worker
/// handle them: the response memo first, `api::route` on a miss. Sets
/// the asm, JSON and serve layer metrics; `serve.http_s` is the socket
/// round trip of the same requests minus the in-process time. Returns
/// the requests replayed and the bodies that failed to parse.
fn in_process(
    rec: &Recorder,
    programs: &Programs,
    draws: &[Draw],
    stats_of: &dyn Fn(usize) -> Option<Vec<CacheStats>>,
    sample: &[(u64, u64)],
    store_dir: &Path,
    m: &mut Metrics,
) -> (usize, usize) {
    let state = AppState::from_config(&server_config(store_dir)).expect("open the replay state");
    let (mut in_process_s, mut route_s, mut socket_s) = (0.0, 0.0, 0.0);
    let (mut asm_s, mut parse_s, mut render_s) = (0.0, 0.0, 0.0);
    let mut failures = 0;
    let configs = requests::configs();
    for &(id, socket_ns) in sample {
        let i = id as usize;
        let draw = draws[i];
        let body = programs.body(draw).into_bytes();
        let req = Request {
            method: "POST".to_string(),
            target: "/v1/simulate".to_string(),
            http11: true,
            headers: vec![("content-length".to_string(), body.len().to_string())],
            body,
        };
        let t = Instant::now();
        let hit = ResponseCache::cacheable(&req.method, req.body.len())
            && state.rcache.get(&req.target, &req.body).is_some();
        let mid = Instant::now();
        rec.record("serve.rcache", None, Some(id), t, mid);
        let mut end = mid;
        if !hit {
            let (endpoint, response) = api::route(&state, &req);
            end = Instant::now();
            state
                .rcache
                .put(&req.target, &req.body, endpoint, &response);
            rec.record("serve.route", None, Some(id), mid, end);
            route_s += (end - mid).as_secs_f64();

            // The parsing and rendering a routed request does, timed
            // on its own: JSON body, asm program, JSON response.
            let (j, doc) =
                timed(|| impact_support::json::parse(std::str::from_utf8(&req.body).unwrap_or("")));
            let (a, program) = timed(|| impact_asm::parse_program(&programs.asm[draw.program]));
            parse_s += j;
            asm_s += a;
            if doc.is_err() || program.is_err() {
                failures += 1;
            }
            if let Some(stats) = stats_of(i) {
                let (r, bytes) = timed(|| {
                    let doc = simulate_response_json("natural", draw.seed, &configs, &stats, 0);
                    Response::json(200, &doc).body.len()
                });
                render_s += r;
                std::hint::black_box(bytes);
            }
        }
        in_process_s += (end - t).as_secs_f64();
        socket_s += socket_ns as f64 / 1e9;
    }
    m.set("serve.route_s", route_s, "s");
    m.set("serve.http_s", (socket_s - in_process_s).max(0.0), "s");
    m.set("asm.parse_s", asm_s, "s");
    m.set("json.parse_s", parse_s, "s");
    m.set("json.render_s", render_s, "s");
    (sample.len(), failures)
}

fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t = Instant::now();
    let r = std::hint::black_box(f());
    (t.elapsed().as_secs_f64(), r)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_windows_keep_the_busiest_quarter() {
        let width = WINDOW.as_nanos() as u64;
        // Eight windows; window w completes 1000 + w requests of w ms
        // each, and one request lands after the phase.
        let mut done: Vec<(u64, u64)> = (0..8u64)
            .flat_map(|w| (0..1000 + w).map(move |_| (w * width + 1, w * 1_000_000)))
            .collect();
        done.push((8 * width + 1, 99_000_000));
        let (lat, kept, windows) = quiet_windows(&done, WINDOW * 8);
        // A quarter is two windows (2013 latencies, enough for the p99).
        assert_eq!((kept, windows, lat.len()), (2, 8, 2013));
        assert_eq!((lat[0], lat[lat.len() - 1]), (6.0, 7.0));

        // Too few latencies in the busiest quarter: keep adding windows.
        let sparse: Vec<(u64, u64)> = (0..8u64).map(|w| (w * width, w)).collect();
        let (lat, kept, _) = quiet_windows(&sparse, WINDOW * 8);
        assert_eq!((kept, lat.len()), (8, 8));
    }
}
