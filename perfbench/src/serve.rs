//! The `serve-mixed` workload: a defended recommendation server under
//! a closed loop of two keep-alive connections from this process, run
//! in five equal segments that each open the two connections afresh.
//!
//! * The reader sends `GET /recommend/{u}` for Zipf-distributed users.
//!   Nine in ten ask for the configured top-k, which the snapshot
//!   caches per user and generation; the rest ask for a longer list,
//!   which is computed fresh every time.
//! * The writer sends `POST /feedback` batches in a seeded order, each
//!   trajectory either an organic session replayed from the twin or an
//!   attacker session crafted by the Popular heuristic, and a
//!   `POST /retrain` after every few batches, so pending feedback never
//!   reaches the attacker reserve and no request is refused.
//!
//! The traced run then replays the traffic through the layers' public
//! calls: `RequestParser` and `Route::parse`, `RecApp::dispatch`, the
//! response renderers, `DefenseStack::judge` on an identically built
//! stack, and `BlackBoxSystem::retrain_snapshot`.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use poisonrec_repro::datasets::PaperDataset;
use poisonrec_repro::recsys::data::Dataset;
use poisonrec_repro::recsys::defense::{DefenseKind, DefenseStack, Verdict, VerdictCounts};
use poisonrec_repro::recsys::rankers::common::child_seed;
use poisonrec_repro::recsys::remote::HttpClient;
use poisonrec_repro::recsys::system::{BlackBoxSystem, SystemConfig};
use poisonrec_repro::recsys::{LogView, RankerKind, Trajectory};
use poisonrec_repro::serve::http::render_response_with;
use poisonrec_repro::serve::{Limits, RecApp, RequestParser, Route, Server, ServerConfig};
use poisonrec_repro::telemetry::json::{self, Json};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::stats::{median, quantile, tail};
use crate::{Args, Outcome};

const SCALE: f64 = 0.5;
/// The twin is fixed and the seed drives the traffic: the defense's
/// verdict mix, and so the writer's work, depends strongly on the twin.
const TWIN_SEED: u64 = 1;
const SERVER_THREADS: usize = 2;
const FPR: f64 = 0.05;
const RESERVE: u32 = 128;
const EVAL_USERS: usize = 256;
const SETUP_ROUNDS: usize = 3;
/// Trajectories per `POST /feedback`, and batches per `POST /retrain`:
/// at most 96 trajectories pend, below the reserve of 128.
const FEEDBACK_BATCH: usize = 4;
const BATCHES_PER_RETRAIN: usize = 24;
/// Clicks per attacker session.
const ATTACK_CLICKS: usize = 20;
/// Zipf exponent over users, and the share of long-list reads.
const ZIPF_S: f64 = 1.2;
const LONG_LIST_SHARE: f64 = 0.1;
const LONG_K: usize = 20;
/// Traffic segments per run.
const SEGMENTS: usize = 5;
/// Reads and writes replayed in process, at most.
const REPLAY_READS: usize = 20_000;
const REPLAY_WRITES: usize = 2_000;
/// Users re-read over the wire and in process after the traffic.
const AGREEMENT_USERS: usize = 64;

/// One set-up: twin, fitted victim, calibrated defense, started server.
struct Setup {
    dataset_s: f64,
    fit_s: f64,
    calibrate_s: f64,
    start_s: f64,
    total_s: f64,
    server: Server,
}

fn set_up() -> Setup {
    let start = Instant::now();
    let data = PaperDataset::Steam.generate_scaled(SCALE, TWIN_SEED);
    let dataset_s = start.elapsed().as_secs_f64();
    let t = Instant::now();
    let ranker = RankerKind::Bpr.build(&LogView::clean(&data), RESERVE);
    let cfg = SystemConfig::builder()
        .eval_users(EVAL_USERS)
        .seed(child_seed(TWIN_SEED, 21))
        .reserve_attackers(RESERVE)
        .build()
        .expect("valid system config");
    let system = BlackBoxSystem::build(data, ranker, cfg);
    let fit_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let stack = DefenseStack::build(DefenseKind::Full, system.base(), FPR);
    let calibrate_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let server_cfg = ServerConfig::builder()
        .threads(SERVER_THREADS)
        .build()
        .expect("valid server config");
    let server = Server::start(RecApp::new(system, stack), server_cfg).expect("bind 127.0.0.1:0");
    let start_s = t.elapsed().as_secs_f64();
    Setup {
        dataset_s,
        fit_s,
        calibrate_s,
        start_s,
        total_s: start.elapsed().as_secs_f64(),
        server,
    }
}

/// A write the writer sent, with what the server answered.
enum Write {
    Feedback {
        /// (trajectory, crafted by the attacker)
        batch: Vec<(Trajectory, bool)>,
        answer: Option<Json>,
    },
    Retrain {
        answer: Option<Json>,
    },
}

/// The writer's seeded request stream.
struct WritePlan {
    rng: StdRng,
    users: u32,
    targets: Vec<u32>,
    popular: Vec<u32>,
    sent: usize,
}

impl WritePlan {
    fn new(base: &Dataset, seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(child_seed(seed, 22)),
            users: base.num_users(),
            targets: base.target_items().collect(),
            popular: base.popular_set(10.0),
            sent: 0,
        }
    }

    fn next(&mut self, base: &Dataset) -> Write {
        self.sent += 1;
        if self.sent.is_multiple_of(BATCHES_PER_RETRAIN + 1) {
            return Write::Retrain { answer: None };
        }
        let batch = (0..FEEDBACK_BATCH)
            .map(|_| {
                if self.rng.gen_bool(0.5) {
                    let user = self.rng.gen_range(0..self.users);
                    (base.sequence(user).to_vec(), false)
                } else {
                    let clicks = (0..ATTACK_CLICKS)
                        .map(|step| {
                            let set = if step % 2 == 0 {
                                &self.targets
                            } else {
                                &self.popular
                            };
                            set[self.rng.gen_range(0..set.len())]
                        })
                        .collect();
                    (clicks, true)
                }
            })
            .collect();
        Write::Feedback {
            batch,
            answer: None,
        }
    }
}

fn feedback_body(batch: &[(Trajectory, bool)]) -> Json {
    let rows = batch
        .iter()
        .map(|(traj, _)| Json::Arr(traj.iter().map(|&i| Json::from(i)).collect()))
        .collect();
    Json::obj().field("trajectories", Json::Arr(rows))
}

/// Zipf sampler over a seeded permutation of the users.
struct Zipf {
    users: Vec<u32>,
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(users: u32, rng: &mut StdRng) -> Self {
        let mut order: Vec<u32> = (0..users).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.gen_range(0..=i));
        }
        let mut acc = 0.0;
        let cdf = (1..=users)
            .map(|rank| {
                acc += 1.0 / f64::from(rank).powf(ZIPF_S);
                acc
            })
            .collect::<Vec<f64>>();
        let total = acc;
        Self {
            users: order,
            cdf: cdf.into_iter().map(|c| c / total).collect(),
        }
    }

    fn sample(&self, rng: &mut StdRng) -> u32 {
        let u: f64 = rng.gen();
        let i = self
            .cdf
            .partition_point(|&c| c < u)
            .min(self.users.len() - 1);
        self.users[i]
    }
}

/// One read the reader sent.
struct Read {
    user: u32,
    k: Option<usize>,
    latency: f64,
    ok: bool,
    hit: bool,
}

fn recommend_path(user: u32, k: Option<usize>) -> String {
    match k {
        Some(k) => format!("/recommend/{user}?k={k}"),
        None => format!("/recommend/{user}"),
    }
}

/// The reading client, its seeded stream carried across segments.
struct Reader {
    rng: StdRng,
    zipf: Zipf,
    top_k: usize,
    /// (generation, user) pairs already read: a top-k read of one is a
    /// cache hit.
    seen: HashSet<(u64, u32)>,
    reads: Vec<Read>,
}

impl Reader {
    fn new(users: u32, top_k: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(child_seed(seed, 23));
        let zipf = Zipf::new(users, &mut rng);
        Self {
            rng,
            zipf,
            top_k,
            seen: HashSet::new(),
            reads: Vec::new(),
        }
    }

    /// A closed loop on a fresh connection until `deadline`; returns
    /// the connections dialed.
    fn segment(&mut self, addr: &str, deadline: Instant) -> u64 {
        let mut client = HttpClient::new(addr);
        while Instant::now() < deadline {
            let user = self.zipf.sample(&mut self.rng);
            let k = self.rng.gen_bool(LONG_LIST_SHARE).then_some(LONG_K);
            let path = recommend_path(user, k);
            let t = Instant::now();
            let answer = client.request_text("GET", &path, None);
            let latency = t.elapsed().as_secs_f64();
            let (ok, hit) = match answer.map(|(status, text)| (status, json::parse(&text))) {
                Ok((200, Ok(doc))) => {
                    let generation = doc.get("generation").and_then(Json::as_u64);
                    let items = match doc.get("items") {
                        Some(Json::Arr(items)) => items.len(),
                        _ => usize::MAX,
                    };
                    let hit =
                        k.is_none() && generation.is_some_and(|g| !self.seen.insert((g, user)));
                    (
                        generation.is_some() && items == k.unwrap_or(self.top_k),
                        hit,
                    )
                }
                _ => (false, false),
            };
            self.reads.push(Read {
                user,
                k,
                latency,
                ok,
                hit,
            });
        }
        client.dials()
    }
}

/// The writing client, its seeded plan carried across segments.
struct Writer {
    plan: WritePlan,
    writes: Vec<Write>,
    /// (segment, latency) of each write.
    timings: Vec<(usize, f64)>,
}

impl Writer {
    /// A closed loop on a fresh connection until `deadline`; returns
    /// the connections dialed.
    fn segment(&mut self, addr: &str, base: &Dataset, segment: usize, deadline: Instant) -> u64 {
        let mut client = HttpClient::new(addr);
        while Instant::now() < deadline {
            let mut write = self.plan.next(base);
            let t = Instant::now();
            let answer = match &write {
                Write::Feedback { batch, .. } => {
                    client.request("POST", "/feedback", Some(&feedback_body(batch)))
                }
                Write::Retrain { .. } => client.request("POST", "/retrain", None),
            };
            self.timings.push((segment, t.elapsed().as_secs_f64()));
            let answer = match answer {
                Ok((200, doc)) => Some(doc),
                _ => None,
            };
            match &mut write {
                Write::Feedback { answer: a, .. } | Write::Retrain { answer: a } => *a = answer,
            }
            self.writes.push(write);
        }
        client.dials()
    }
}

fn field(doc: &Json, name: &str) -> Option<u64> {
    doc.get(name).and_then(Json::as_u64)
}

/// The verdict tally a `POST /feedback` response reports.
fn response_tally(doc: &Json) -> Option<VerdictCounts> {
    Some(VerdictCounts {
        admitted: field(doc, "accepted")?,
        flagged: field(doc, "flagged")?,
        rate_limited: field(doc, "rate_limited")?,
        throttled: field(doc, "throttled")?,
    })
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut setups: Vec<Setup> = (0..SETUP_ROUNDS).map(|_| set_up()).collect();
    let pick = |f: fn(&Setup) -> f64, setups: &[Setup]| {
        median(&setups.iter().map(f).collect::<Vec<f64>>())
    };
    out.set("setup_s", pick(|s| s.total_s, &setups));
    out.set("setup.dataset_s", pick(|s| s.dataset_s, &setups));
    out.set("setup.fit_s", pick(|s| s.fit_s, &setups));
    out.set("defense.calibrate_s", pick(|s| s.calibrate_s, &setups));
    out.set("setup.server_start_s", pick(|s| s.start_s, &setups));
    let server = setups.pop().expect("set-up rounds").server;
    let spares_dropped: u64 = setups
        .into_iter()
        .map(|s| s.server.shutdown().dropped())
        .sum();
    out.check(
        "idle servers shut down dropping nothing",
        spares_dropped == 0,
    );

    let app = server.app();
    let system = app.system();
    let base = system.base();
    let top_k = system.config().top_k;
    out.note("dataset", format!("Steam x{SCALE} seed {TWIN_SEED}"));
    out.note("users", base.num_users());
    out.note("items", base.num_items());
    out.note("ranker", system.ranker_name());
    out.note("defense", format!("full fpr={FPR}"));
    out.note(
        "server",
        format!("threads={SERVER_THREADS} shards={}", app.n_shards()),
    );

    // The traffic: one reader and one writer, each on one connection,
    // in equal time segments with fresh connections and threads. With
    // five busy threads on two cores, stalls of the shared machine
    // come and go within seconds and move a segment's quantiles by up
    // to 50%, so the gated quantiles are those of the calmest segment.
    let addr = server.local_addr().to_string();
    let mut reader = Reader::new(base.num_users(), top_k, args.seed);
    let mut writer = Writer {
        plan: WritePlan::new(base, args.seed),
        writes: Vec::new(),
        timings: Vec::new(),
    };
    let traffic_start = Instant::now();
    let mut one_dial = true;
    for segment in 0..SEGMENTS {
        let deadline = traffic_start
            + Duration::from_secs_f64(args.seconds * (segment + 1) as f64 / SEGMENTS as f64);
        let (read_dials, write_dials) = std::thread::scope(|s| {
            let r = s.spawn(|| reader.segment(&addr, deadline));
            let w = s.spawn(|| writer.segment(&addr, base, segment, deadline));
            (
                r.join().expect("reader thread"),
                w.join().expect("writer thread"),
            )
        });
        one_dial &= read_dials == 1 && write_dials == 1;
    }
    let traffic_s = traffic_start.elapsed().as_secs_f64();
    let Reader { reads, .. } = reader;
    let Writer {
        writes, timings, ..
    } = writer;

    // The end-to-end "operation" is a `POST /retrain` and the "write" a
    // `POST /feedback`: both are mostly the server's own work (fit and
    // publish; judging). A read's ~10 µs round trip is mostly the
    // machine waking threads and moved by up to 50% between otherwise
    // equal runs, so reads are the load the writes contend with, and
    // their latencies go to the manifest.
    let is_feedback = |i: usize| matches!(writes[i], Write::Feedback { .. });
    let calmest_segment = |q: f64, feedback: bool| {
        let per_segment: Vec<f64> = (0..SEGMENTS)
            .map(|seg| {
                let latencies: Vec<f64> = timings
                    .iter()
                    .enumerate()
                    .filter(|&(i, &(s, _))| s == seg && is_feedback(i) == feedback)
                    .map(|(_, &(_, l))| l)
                    .collect();
                quantile(&latencies, q)
            })
            .collect();
        per_segment.into_iter().fold(f64::INFINITY, f64::min)
    };
    out.set("op_p10_s", calmest_segment(0.1, false));
    out.set("write_p10_s", calmest_segment(0.1, true));
    let recommend: Vec<f64> = reads.iter().map(|r| r.latency).collect();
    let (mut feedback, mut retrain) = (Vec::new(), Vec::new());
    for (i, &(_, latency)) in timings.iter().enumerate() {
        if is_feedback(i) {
            feedback.push(latency);
        } else {
            retrain.push(latency);
        }
    }
    out.set(
        "throughput_per_s",
        (reads.len() + timings.len()) as f64 / traffic_s,
    );
    for (route, lat, p50_name, tail_name) in [
        (
            "recommend",
            &recommend,
            "route.recommend_p50_s",
            "route.recommend_tail_s",
        ),
        (
            "feedback",
            &feedback,
            "route.feedback_p50_s",
            "route.feedback_tail_s",
        ),
        (
            "retrain",
            &retrain,
            "route.retrain_p50_s",
            "route.retrain_tail_s",
        ),
    ] {
        let (route_tail, route_q) = tail(lat);
        out.set(p50_name, median(lat));
        out.set(tail_name, route_tail);
        out.note(route, format!("{} requests, tail q{route_q}", lat.len()));
    }
    let cached = reads.iter().filter(|r| r.k.is_none()).count();
    let hits = reads.iter().filter(|r| r.hit).count();
    out.set("snapshot.cache_hit_share", hits as f64 / reads.len() as f64);
    out.note(
        "route_mix",
        format!(
            "recommend top-k {cached} (cache hits {hits}), recommend k={LONG_K} {}, feedback {}, retrain {}",
            reads.len() - cached,
            feedback.len(),
            retrain.len()
        ),
    );

    // Correctness of the traffic.
    let failed_reads = reads.iter().filter(|r| !r.ok).count();
    let failed_writes = writes
        .iter()
        .filter(|w| {
            matches!(
                w,
                Write::Feedback { answer: None, .. } | Write::Retrain { answer: None }
            )
        })
        .count();
    out.check(
        "every request got a well-formed 200",
        failed_reads + failed_writes == 0,
    );
    out.check("each client dialed once per segment", one_dial);
    out.attempted = (reads.len() + writes.len()) as u64;
    out.failed = (failed_reads + failed_writes) as u64;

    // The ledger: the server's verdict tally must equal the sum of
    // what its responses reported, every feedback must be judged in
    // full, and each retrain must ingest exactly what the responses
    // since the previous one accepted.
    let mut reported = VerdictCounts::default();
    // The tally over the writes the replay below judges again.
    let mut replayed_prefix = None;
    let mut accepted_since = 0;
    let mut generation = 0;
    let mut ledger_ok = true;
    for (i, write) in writes.iter().enumerate() {
        if i == REPLAY_WRITES {
            replayed_prefix = Some(reported);
        }
        match write {
            Write::Feedback {
                batch,
                answer: Some(doc),
            } => match response_tally(doc) {
                Some(tally) => {
                    ledger_ok &= tally.offered() == batch.len() as u64;
                    accepted_since += tally.admitted;
                    reported.admitted += tally.admitted;
                    reported.flagged += tally.flagged;
                    reported.rate_limited += tally.rate_limited;
                    reported.throttled += tally.throttled;
                }
                None => ledger_ok = false,
            },
            Write::Retrain { answer: Some(doc) } => {
                generation += 1;
                ledger_ok &= field(doc, "generation") == Some(generation)
                    && field(doc, "ingested") == Some(accepted_since);
                accepted_since = 0;
            }
            _ => {}
        }
    }
    let counts = app.defense_counts();
    out.check(
        "every feedback is judged in full and every retrain ingests what was accepted",
        ledger_ok,
    );
    out.check(
        "the server's defense ledger equals the sum of its responses",
        counts == reported,
    );
    out.set(
        "defense.flag_share",
        counts.rejected() as f64 / counts.offered().max(1) as f64,
    );
    out.note(
        "verdicts",
        format!(
            "admit {} flag {} rate_limit {} throttle {}",
            counts.admitted, counts.flagged, counts.rate_limited, counts.throttled
        ),
    );

    // The same trajectories, judged in order by an identically built
    // stack: the judge's cost, and the admitted windows the retrain
    // replay below refits. Its ledger is reported, not checked:
    // calibration sums floats in hash-map order, so two builds of one
    // stack can differ in the last bits and the CUSUM ladder can
    // amplify that into different verdicts.
    let mut replay = DefenseStack::build(DefenseKind::Full, base, FPR).expect("full defense");
    let (mut judge_organic, mut judge_attacker) = (Vec::new(), Vec::new());
    let mut admitted: Vec<Trajectory> = Vec::new();
    let mut windows: Vec<Vec<Trajectory>> = Vec::new();
    for write in writes.iter().take(REPLAY_WRITES) {
        match write {
            Write::Feedback { batch, .. } => {
                for (traj, attacker) in batch {
                    let t = Instant::now();
                    let verdict = replay.judge(base, traj);
                    let secs = t.elapsed().as_secs_f64();
                    if *attacker {
                        judge_attacker.push(secs);
                    } else {
                        judge_organic.push(secs);
                    }
                    if verdict == Verdict::Admit {
                        admitted.push(traj.clone());
                    }
                }
            }
            Write::Retrain { .. } => windows.push(std::mem::take(&mut admitted)),
        }
    }
    out.set("defense.judge_organic_s", median(&judge_organic));
    out.set("defense.judge_attacker_s", median(&judge_attacker));
    out.finding(
        "replayed_ledger_equals_server",
        replay.counts() == replayed_prefix.unwrap_or(reported),
    );

    // The wire and the in-process dispatch answer alike.
    let mut client = HttpClient::new(&addr);
    let mut agree = true;
    for user in reads.iter().take(AGREEMENT_USERS).map(|r| r.user) {
        let wire = client.request("GET", &recommend_path(user, None), None);
        let local = app.dispatch(&Route::Recommend { user, k: None }, b"");
        agree &= matches!(wire, Ok((200, doc)) if doc.get("items") == local.body.get("items"));
    }
    out.check("wire and in-process recommendations agree", agree);
    out.attempted += AGREEMENT_USERS.min(reads.len()) as u64;
    drop(client);

    if args.trace {
        trace_layers(&server, &reads, &writes, &windows, &recommend, &mut out);
    }

    let stats = server.shutdown();
    out.check("graceful shutdown drops 0 requests", stats.dropped() == 0);
    out
}

/// The per-layer replays of the traffic, in process, on the now idle
/// server's application.
fn trace_layers(
    server: &Server,
    reads: &[Read],
    writes: &[Write],
    windows: &[Vec<Trajectory>],
    recommend: &[f64],
    out: &mut Outcome,
) {
    let app = server.app();
    let system = app.system();
    let top_k = system.config().top_k;

    // Parse, dispatch and render the reads, as the event loop does.
    let sample = &reads[..reads.len().min(REPLAY_READS)];
    for read in sample {
        // Fill the cache first, so top-k reads below are hits.
        app.dispatch(
            &Route::Recommend {
                user: read.user,
                k: read.k,
            },
            b"",
        );
    }
    let (mut parse_s, mut render_s, mut hit_s, mut miss_s) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut routed = true;
    for read in sample {
        let raw = format!(
            "GET {} HTTP/1.1\r\nHost: localhost\r\nContent-Length: 0\r\n\r\n",
            recommend_path(read.user, read.k)
        );
        let t = Instant::now();
        let mut parser = RequestParser::new(Limits::default());
        parser.push(raw.as_bytes());
        let route = match parser.next_request() {
            Ok(Some(req)) => Route::parse(&req.method, &req.path, &req.query).ok(),
            _ => None,
        };
        parse_s.push(t.elapsed().as_secs_f64());
        let expected = Route::Recommend {
            user: read.user,
            k: read.k,
        };
        routed &= route.as_ref() == Some(&expected);

        let t = Instant::now();
        let resp = app.dispatch(&expected, b"");
        let secs = t.elapsed().as_secs_f64();
        if read.k.is_some_and(|k| k > top_k) {
            miss_s.push(secs);
        } else {
            hit_s.push(secs);
        }
        let t = Instant::now();
        let body = resp.render_body();
        let bytes = render_response_with(resp.status, resp.content_type, &body, false);
        render_s.push(t.elapsed().as_secs_f64());
        routed &= resp.status == 200 && !bytes.is_empty();
    }
    out.check(
        "replayed reads parse to their routes and answer 200",
        routed,
    );
    out.set("http.parse_s", median(&parse_s));
    out.set("http.render_s", median(&render_s));
    out.set("app.recommend_hit_s", median(&hit_s));
    out.set("app.recommend_miss_s", median(&miss_s));
    let in_process = median(&parse_s) + median(&hit_s) + median(&render_s);
    out.set("wire.recommend_s", quantile(recommend, 0.5) - in_process);

    // The retrain core on the admitted windows.
    let fit_s: Vec<f64> = windows
        .iter()
        .take(REPLAY_WRITES)
        .map(|poison| {
            let t = Instant::now();
            let snapshot = system.retrain_snapshot(poison);
            let secs = t.elapsed().as_secs_f64();
            drop(snapshot);
            secs
        })
        .collect();
    out.set("retrain.fit_s", median(&fit_s));

    // The writes again, through the application: drain what the
    // traffic left pending, then replay the writer's order.
    app.dispatch(&Route::Retrain, b"");
    let (mut feedback_s, mut retrain_s) = (Vec::new(), Vec::new());
    let mut answered = true;
    for write in writes.iter().take(REPLAY_WRITES) {
        let (route, body, times) = match write {
            Write::Feedback { batch, .. } => (
                Route::Feedback,
                feedback_body(batch).render(),
                &mut feedback_s,
            ),
            Write::Retrain { .. } => (Route::Retrain, String::new(), &mut retrain_s),
        };
        let t = Instant::now();
        let resp = app.dispatch(&route, body.as_bytes());
        times.push(t.elapsed().as_secs_f64());
        answered &= resp.status == 200;
    }
    out.check("replayed writes answer 200", answered);
    out.set("app.feedback_s", median(&feedback_s));
    out.set("app.retrain_s", median(&retrain_s));
}
