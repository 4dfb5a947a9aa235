//! E-defense — the attack × defense × ranker matrix: every selected
//! [`AttackFamily`] against every [`DefenseKind`] layer configuration,
//! in-process and **over the wire** (DESIGN.md §5j).
//!
//! Per cell the binary runs the attack through the one
//! [`poisonrec::run_attack`] loop against a victim hardened by a
//! calibrated [`DefenseStack`] — locally via [`DefendedSystem`], over
//! the wire via a [`serve::Server`] judging at `POST /feedback`
//! admission — and reports:
//!
//! * the defense's verdict ledger (admitted / flagged / rate-limited /
//!   throttled, summing to everything the attacker offered);
//! * detection **recall** (fraction of attacker trajectories rejected)
//!   and **precision** against an organic false-positive replay;
//! * **organic FPR**: the same calibrated stack replayed over the
//!   organic interaction log — the price paid by real users;
//! * RecNum-lift degradation vs the undefended (`none`) baseline cell.
//!
//! `DEF_DEFENSES=none` is the attack-zoo grid (DESIGN.md §5h): every
//! family × ranker × budget against the bare system, as in the paper's
//! Table III. Transports: `local` runs attacks in-process; `wire`
//! serves each cell's system on 127.0.0.1 and attacks it through
//! [`RemoteSystem`]; `both` runs the two against identically-built
//! systems and asserts histories, poison, final RecNum **and the
//! verdict ledger** are bit-identical — the defense judges the same
//! trajectories in the same order on both paths.
//!
//! Environment knobs (shrunk by `scripts/ci.sh` for the smoke stages):
//! * `DEF_ATTACKS` — comma list of family names (default: all eight);
//! * `DEF_DEFENSES` — comma list of defense kinds
//!   (default `none,lof,reputation,adaptive,full`; `none` is always
//!   run first as the lift baseline);
//! * `DEF_BUDGETS` — comma list of `NxT` budgets (default `8x12`);
//! * `DEF_TRANSPORT` — `local` | `wire` | `both` (default `local`);
//! * `DEF_FPR` — calibration false-positive-rate target, strictly
//!   between 0 and 1 (default `0.05`);
//! * `DEF_APPGRAD_ITERS` / `DEF_INFLUENCE_ROUNDS` — query-hungry
//!   family sizes (defaults `30` / `5`).
//!
//! A knob that does not parse panics and names the variable.
//! Checkpointing, resume and scripted faults ride the shared `ExpArgs`
//! flags. With `--telemetry FILE` every step lands as a `zoo_step`
//! event (plus `zoo_checkpoint` / `zoo_resumed`) and every finished
//! cell as one `defense_cell` summary, all validated by
//! `validate_jsonl --defense`. Writes `defense_matrix.csv`, each cell's
//! wall seconds included.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use baselines::{AppGradConfig, AttackFamily, ConsLopConfig, InfluenceConfig, ZooTuning};
use bench::ExpArgs;
use poisonrec::{run_attack, ActionSpaceKind, ZooEvent, ZooRun};
use recsys::attack::{AttackBudget, AttackError};
use recsys::data::Dataset;
use recsys::defense::{parse_fpr, DefendedSystem, DefenseKind, DefenseStack, VerdictCounts};
use recsys::remote::RemoteSystem;
use recsys::system::ObservableSystem;
use serve::{RecApp, Server, ServerConfig};
use telemetry::{Json, JsonlSink};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name).map_or(default, |raw| {
        raw.trim()
            .parse()
            .unwrap_or_else(|_| panic!("{name} {raw:?} is not a count"))
    })
}

fn env_attacks() -> Vec<AttackFamily> {
    match std::env::var("DEF_ATTACKS") {
        Ok(raw) => raw
            .split(',')
            .filter(|s| !s.trim().is_empty())
            .map(|s| {
                AttackFamily::parse(s.trim())
                    .unwrap_or_else(|| panic!("DEF_ATTACKS entry {s:?} is not a known family"))
            })
            .collect(),
        Err(_) => AttackFamily::ALL.to_vec(),
    }
}

/// Defense kinds to evaluate. `none` is forced to the front: it is the
/// undefended baseline every other kind's lift degradation is measured
/// against.
fn env_defenses() -> Vec<DefenseKind> {
    let mut kinds: Vec<DefenseKind> = match std::env::var("DEF_DEFENSES") {
        Ok(raw) => raw
            .split(',')
            .filter(|s| !s.trim().is_empty())
            .map(|s| {
                DefenseKind::parse(s.trim())
                    .unwrap_or_else(|| panic!("DEF_DEFENSES entry {s:?} is not a defense kind"))
            })
            .collect(),
        Err(_) => DefenseKind::ALL.to_vec(),
    };
    kinds.retain(|&k| k != DefenseKind::None);
    kinds.insert(0, DefenseKind::None);
    kinds
}

/// `"8x12,16x20"` → `[(8, 12), (16, 20)]`.
fn env_budgets() -> Vec<(u32, usize)> {
    let raw = std::env::var("DEF_BUDGETS").unwrap_or_else(|_| "8x12".to_string());
    raw.split(',')
        .filter(|s| !s.trim().is_empty())
        .map(|s| {
            let (n, t) = s
                .trim()
                .split_once('x')
                .unwrap_or_else(|| panic!("DEF_BUDGETS entry {s:?} is not NxT"));
            (
                n.parse().unwrap_or_else(|_| panic!("bad N in {s:?}")),
                t.parse().unwrap_or_else(|_| panic!("bad T in {s:?}")),
            )
        })
        .collect()
}

#[derive(Copy, Clone, PartialEq, Eq)]
enum Transport {
    Local,
    Wire,
    Both,
}

impl Transport {
    fn parse() -> Self {
        match std::env::var("DEF_TRANSPORT").as_deref() {
            Ok("wire") => Transport::Wire,
            Ok("both") => Transport::Both,
            Ok("local") | Err(_) => Transport::Local,
            Ok(other) => panic!("DEF_TRANSPORT {other:?} is not local|wire|both"),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Transport::Local => "local",
            Transport::Wire => "wire",
            Transport::Both => "both",
        }
    }
}

/// The organic price of a defense: replay every organic session of the
/// interaction log through a *fresh* stack calibrated identically to
/// the one the victim deployed, and count rejections. Computed once
/// per kind — the replay is deterministic and transport-independent.
fn organic_rejections(kind: DefenseKind, log: &Dataset, fpr: f64) -> (u64, u64) {
    let Some(mut stack) = DefenseStack::build(kind, log, fpr) else {
        return (log.num_users() as u64, 0);
    };
    let mut offered = 0u64;
    let mut rejected = 0u64;
    for user in 0..log.num_users() {
        let verdict = stack.judge(log, log.sequence(user));
        offered += 1;
        if verdict != recsys::defense::Verdict::Admit {
            rejected += 1;
        }
    }
    (offered, rejected)
}

struct Cell<'a> {
    args: &'a ExpArgs,
    dataset: datasets::PaperDataset,
    ranker: recsys::rankers::RankerKind,
    attack: AttackFamily,
    defense: DefenseKind,
    budget: AttackBudget,
    tuning: &'a ZooTuning,
    log: &'a Dataset,
    fpr: f64,
    sink: Option<&'a Arc<JsonlSink>>,
}

impl Cell<'_> {
    /// Tags a telemetry event with the cell it belongs to.
    fn labels(&self, json: Json, transport: &str) -> Json {
        json.field("attack", self.attack.name())
            .field("defense", self.defense.label())
            .field("ranker", self.ranker.name())
            .field("n", u64::from(self.budget.fake_users))
            .field("t", self.budget.clicks_per_user as u64)
            .field("transport", transport)
    }

    fn slug(&self, transport: &str) -> String {
        format!(
            "def-{}-{}-{}-n{}t{}-{transport}",
            self.attack.name().to_ascii_lowercase(),
            self.defense.label(),
            self.ranker.name().to_ascii_lowercase(),
            self.budget.fake_users,
            self.budget.clicks_per_user,
        )
    }

    /// Drives the attack against `system` (undefended or hardened —
    /// the attack cannot tell: it sees only the observation API),
    /// streaming every step to the telemetry log.
    fn run(
        &self,
        system: &dyn ObservableSystem,
        transport: &'static str,
    ) -> Result<ZooRun, AttackError> {
        let mut attack = self.attack.build(self.tuning, Some(self.log))?;
        let mut on_event = |event: ZooEvent<'_>| {
            let Some(sink) = self.sink else { return };
            let json = match event {
                ZooEvent::Step(stats) => {
                    let mut json = Json::obj()
                        .field("type", "zoo_step")
                        .field("step", stats.step as u64)
                        .field("observations", stats.observations);
                    if let Some(reward) = stats.reward {
                        json = json.field("reward", f64::from(reward));
                    }
                    if let Some(best) = stats.best_reward {
                        json = json.field("best_reward", f64::from(best));
                    }
                    json
                }
                ZooEvent::Checkpoint { step, bytes } => Json::obj()
                    .field("type", "zoo_checkpoint")
                    .field("step", step as u64)
                    .field("bytes", bytes),
                ZooEvent::Resumed { step } => Json::obj()
                    .field("type", "zoo_resumed")
                    .field("step", step as u64),
            };
            sink.emit(&self.labels(json, transport))
                .expect("telemetry write");
        };
        let cfg = self
            .args
            .zoo_config(&self.slug(transport), self.budget, true);
        run_attack(attack.as_mut(), system, &cfg, &mut on_event)
    }

    /// In-process leg: the system wrapped in [`DefendedSystem`] (or
    /// bare for `none`), judged before every observation dispatch.
    fn run_local(&self) -> (Result<ZooRun, AttackError>, VerdictCounts) {
        let system = self.args.build_system(self.dataset, self.ranker);
        match DefenseStack::build(self.defense, system.base(), self.fpr) {
            Some(stack) => {
                let defended = DefendedSystem::new(system, stack);
                let result = self.run(&defended, "local");
                (result, defended.counts())
            }
            None => {
                let result = self.run(&system, "local");
                (result, VerdictCounts::default())
            }
        }
    }

    /// Wire leg: the same stack judges inside the served admission
    /// section; the verdict ledger is read back off the server app.
    fn run_wire(&self) -> (Result<ZooRun, AttackError>, VerdictCounts) {
        let system = self.args.build_system(self.dataset, self.ranker);
        let stack = DefenseStack::build(self.defense, system.base(), self.fpr);
        let server_cfg = ServerConfig::builder()
            .threads(2)
            .build()
            .expect("valid server config");
        let server =
            Server::start(RecApp::new(system, stack), server_cfg).expect("bind 127.0.0.1:0");
        let remote =
            RemoteSystem::connect(server.local_addr().to_string()).expect("connect to server");
        let result = self.run(&remote, "wire");
        let counts = server.app().defense_counts();
        drop(remote);
        server.shutdown();
        (result, counts)
    }
}

struct CellOutcome {
    attack: AttackFamily,
    ranker: recsys::rankers::RankerKind,
    defense: DefenseKind,
    n: u32,
    t: usize,
    transport: &'static str,
    result: Result<ZooRun, AttackError>,
    counts: VerdictCounts,
    recall: f64,
    precision: f64,
    organic_fpr: f64,
    undefended: Option<u32>,
    secs: f64,
}

fn main() {
    let args = ExpArgs::parse();
    let dataset = args.dataset_list()[0];
    let attacks = env_attacks();
    let defenses = env_defenses();
    let budgets = env_budgets();
    let transport = Transport::parse();
    let fpr = std::env::var("DEF_FPR").map_or(0.05, |raw| {
        parse_fpr(&raw).unwrap_or_else(|err| panic!("DEF_FPR: {err}"))
    });

    let tuning = ZooTuning {
        seed: args.seed,
        poisonrec: args.poisonrec_config(ActionSpaceKind::BcbtPopular, 29),
        poisonrec_steps: args.steps,
        appgrad: AppGradConfig {
            iterations: env_usize("DEF_APPGRAD_ITERS", 30),
            ..AppGradConfig::default()
        },
        conslop: ConsLopConfig::default(),
        influence: InfluenceConfig {
            rounds: env_usize("DEF_INFLUENCE_ROUNDS", 5),
            ..InfluenceConfig::default()
        },
    };

    let sink = args.open_telemetry("defense");
    let log = dataset.generate_scaled(args.scale, args.seed);

    // Organic replay per defense kind: one fresh calibrated stack over
    // the whole organic log; shared by every cell of that kind.
    let organic: BTreeMap<&'static str, (u64, u64)> = defenses
        .iter()
        .map(|&kind| (kind.label(), organic_rejections(kind, &log, fpr)))
        .collect();

    println!(
        "defense matrix: {} attack(s) × {} defense(s) × {} ranker(s) × {} budget(s) on {} \
         (transport: {}, fpr target {fpr})",
        attacks.len(),
        defenses.len(),
        args.ranker_list().len(),
        budgets.len(),
        dataset.name(),
        transport.name(),
    );

    let mut outcomes: Vec<CellOutcome> = Vec::new();
    for &attack in &attacks {
        for ranker in args.ranker_list() {
            for &(n, t) in &budgets {
                // The `none` cell runs first: its final RecNum is the
                // undefended lift baseline for the row.
                let mut undefended: Option<u32> = None;
                for &defense in &defenses {
                    let budget = AttackBudget {
                        fake_users: n,
                        clicks_per_user: t,
                        observations: attack.planned_observations(&tuning) + 1,
                    };
                    let cell = Cell {
                        args: &args,
                        dataset,
                        ranker,
                        attack,
                        defense,
                        budget,
                        tuning: &tuning,
                        log: &log,
                        fpr,
                        sink: sink.as_ref(),
                    };

                    let start = Instant::now();
                    let local = (transport != Transport::Wire).then(|| cell.run_local());
                    let wire = (transport != Transport::Local).then(|| cell.run_wire());
                    let secs = start.elapsed().as_secs_f64();

                    if let (Some((local, lc)), Some((wire, wc))) = (&local, &wire) {
                        match (local, wire) {
                            (Ok(a), Ok(b)) => {
                                assert_eq!(
                                    a.history,
                                    b.history,
                                    "{attack} × {} × {} histories diverged over the wire",
                                    defense.label(),
                                    ranker.name()
                                );
                                assert_eq!(a.poison, b.poison, "{attack} poison diverged");
                                assert_eq!(
                                    a.final_rec_num, b.final_rec_num,
                                    "{attack} final RecNum diverged"
                                );
                                assert_eq!(
                                    lc,
                                    wc,
                                    "{attack} × {} verdict ledgers diverged over the wire",
                                    defense.label()
                                );
                            }
                            (Err(a), Err(b)) => assert_eq!(
                                a.to_string(),
                                b.to_string(),
                                "{attack} refusals diverged over the wire"
                            ),
                            _ => panic!("{attack}: one transport ran, the other refused"),
                        }
                    }

                    let legs: Vec<(&'static str, Result<ZooRun, AttackError>, VerdictCounts)> =
                        match (local, wire) {
                            (Some((lr, lc)), Some((wr, wc))) => {
                                vec![("local", lr, lc), ("wire", wr, wc)]
                            }
                            (Some((lr, lc)), None) => vec![("local", lr, lc)],
                            (None, Some((wr, wc))) => vec![("wire", wr, wc)],
                            (None, None) => unreachable!("one transport always runs"),
                        };

                    let (organic_offered, organic_rejected) = organic[defense.label()];
                    for (label, result, counts) in legs {
                        let offered = counts.offered();
                        let rejected = counts.rejected();
                        let recall = if offered > 0 {
                            rejected as f64 / offered as f64
                        } else {
                            0.0
                        };
                        // Precision over the mixed stream: every
                        // attack-cell rejection is a true positive,
                        // every organic-replay rejection a false one.
                        let precision = if rejected + organic_rejected > 0 {
                            rejected as f64 / (rejected + organic_rejected) as f64
                        } else {
                            1.0
                        };
                        let organic_fpr = if organic_offered > 0 {
                            organic_rejected as f64 / organic_offered as f64
                        } else {
                            0.0
                        };
                        if defense == DefenseKind::None {
                            if let Ok(run) = &result {
                                undefended = run.final_rec_num;
                            }
                        }
                        if let (Some(sink), Ok(run)) = (sink.as_ref(), &result) {
                            let mut json = cell
                                .labels(Json::obj().field("type", "defense_cell"), label)
                                .field("steps", run.history.len() as u64)
                                .field("observations", run.usage.observations)
                                .field("budget_observations", cell.budget.observations)
                                .field("peak_fake_users", run.usage.peak_fake_users)
                                .field("peak_clicks_per_user", run.usage.peak_clicks_per_user)
                                .field("offered", offered)
                                .field("admitted", counts.admitted)
                                .field("flagged", counts.flagged)
                                .field("rate_limited", counts.rate_limited)
                                .field("throttled", counts.throttled)
                                .field("recall", recall)
                                .field("precision", precision)
                                .field("organic_fpr", organic_fpr);
                            if let Some(rec) = run.final_rec_num {
                                json = json.field("final_rec_num", u64::from(rec));
                            }
                            if let Some(base) = undefended {
                                json = json.field("undefended_rec_num", u64::from(base));
                            }
                            sink.emit(&json).expect("telemetry write");
                        }
                        match &result {
                            Ok(run) => {
                                let rec = run.final_rec_num.unwrap_or(0);
                                let degraded = match undefended {
                                    Some(base) if base > 0 => {
                                        (f64::from(base) - f64::from(rec)) / f64::from(base)
                                    }
                                    _ => 0.0,
                                };
                                println!(
                                    "  {:<10} {:<10} {:<12} n={n:<3} t={t:<3} [{label}] \
                                     RecNum {rec:>3} (undef {}) lift-degr {:>5.1}%  \
                                     recall {:>5.1}%  org-FPR {:>4.1}%  ({secs:.2}s)",
                                    attack.name(),
                                    defense.label(),
                                    ranker.name(),
                                    undefended.map_or("-".into(), |r| r.to_string()),
                                    100.0 * degraded,
                                    100.0 * recall,
                                    100.0 * organic_fpr,
                                );
                            }
                            Err(err) => println!(
                                "  {:<10} {:<10} {:<12} n={n:<3} t={t:<3} [{label}] refused: {err}",
                                attack.name(),
                                defense.label(),
                                ranker.name(),
                            ),
                        }
                        outcomes.push(CellOutcome {
                            attack,
                            ranker,
                            defense,
                            n,
                            t,
                            transport: label,
                            result,
                            counts,
                            recall,
                            precision,
                            organic_fpr,
                            undefended,
                            secs,
                        });
                    }
                }
            }
        }
    }

    // ---- CSV artifact ---------------------------------------------------
    std::fs::create_dir_all(&args.out_dir).expect("output dir");
    // Not `defense.csv`: that name in `results/` is a pinned historical
    // table of another schema.
    let csv_path = args.out_dir.join("defense_matrix.csv");
    let mut csv = String::from(
        "attack,ranker,defense,n,t,transport,offered,admitted,flagged,rate_limited,\
         throttled,recall,precision,organic_fpr,final_rec_num,undefended_rec_num,\
         lift_degradation,status,secs\n",
    );
    for cell in &outcomes {
        let (rec, status) = match &cell.result {
            Ok(run) => (
                run.final_rec_num.map_or(String::new(), |r| r.to_string()),
                "ok".to_string(),
            ),
            Err(err) => (
                String::new(),
                format!("refused: {}", err.to_string().replace(',', ";")),
            ),
        };
        let degraded = match (cell.undefended, &cell.result) {
            (Some(base), Ok(run)) if base > 0 => format!(
                "{:.4}",
                (f64::from(base) - f64::from(run.final_rec_num.unwrap_or(0))) / f64::from(base)
            ),
            _ => String::new(),
        };
        csv.push_str(&format!(
            "{},{},{},{},{},{},{},{},{},{},{},{:.4},{:.4},{:.4},{rec},{},{degraded},{status},{:.4}\n",
            cell.attack.name(),
            cell.ranker.name(),
            cell.defense.label(),
            cell.n,
            cell.t,
            cell.transport,
            cell.counts.offered(),
            cell.counts.admitted,
            cell.counts.flagged,
            cell.counts.rate_limited,
            cell.counts.throttled,
            cell.recall,
            cell.precision,
            cell.organic_fpr,
            cell.undefended.map_or(String::new(), |r| r.to_string()),
            cell.secs
        ));
    }
    std::fs::write(&csv_path, csv).expect("write defense_matrix.csv");
    println!("defense matrix -> {}", csv_path.display());

    let refused = outcomes.iter().filter(|c| c.result.is_err()).count();
    println!(
        "defense done: {} cell(s), {refused} refusal(s), {} transport",
        outcomes.len(),
        match transport {
            Transport::Both => "both (bit-identity + ledger asserted)",
            other => other.name(),
        }
    );
}
