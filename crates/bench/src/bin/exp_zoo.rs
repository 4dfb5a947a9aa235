//! E-zoo — the attack-zoo grid: every registered [`AttackFamily`]
//! against every selected ranker at every `N × T` budget, all driven
//! by the one [`poisonrec::run_attack`] loop (DESIGN.md §5h).
//!
//! Per cell the binary reports steps run, observations spent (counted
//! at the guard boundary), the final RecNum of the crafted poison, and
//! wall seconds; cells an attack cannot run (e.g. a log-requiring
//! family without the log) are recorded as typed refusals, never
//! panics. Checkpointing, resume, and scripted faults ride the shared
//! `ExpArgs` flags, so CI can kill a zoo run mid-cell and prove the
//! resumed grid is bit-identical.
//!
//! Transports: `local` runs attacks in-process; `wire` serves each
//! cell's system on 127.0.0.1 via [`serve::Server`] and attacks it
//! through [`recsys::RemoteSystem`] over a real socket; `both` runs
//! the two against identically-built systems and asserts the
//! histories, poison, and final RecNum are **bit-identical**.
//!
//! Environment knobs (the grid is env-tuned so `scripts/ci.sh` can
//! shrink it):
//! * `ZOO_ATTACKS` — comma list of family names (default: all eight);
//! * `ZOO_BUDGETS` — comma list of `NxT` budgets (default `8x12`);
//! * `ZOO_TRANSPORT` — `local` | `wire` | `both` (default `local`);
//! * `ZOO_APPGRAD_ITERS` / `ZOO_INFLUENCE_ROUNDS` — query-hungry
//!   family sizes (defaults `30` / `5`).
//!
//! With `--telemetry FILE` every step lands as a `zoo_step` event and
//! every finished cell as a `zoo_cell` summary (validated by
//! `validate_jsonl --zoo`). Each cell's wall seconds land in the
//! `secs` column of `zoo.csv`.

use std::sync::Arc;
use std::time::Instant;

use baselines::{AppGradConfig, AttackFamily, ConsLopConfig, InfluenceConfig, ZooTuning};
use bench::ExpArgs;
use poisonrec::{run_attack, ActionSpaceKind, ZooConfig, ZooEvent, ZooRun};
use recsys::attack::{AttackBudget, AttackError};
use recsys::remote::RemoteSystem;
use recsys::system::ObservableSystem;
use serve::{RecApp, Server, ServerConfig};
use telemetry::{Json, JsonlSink};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_attacks() -> Vec<AttackFamily> {
    match std::env::var("ZOO_ATTACKS") {
        Ok(raw) => raw
            .split(',')
            .filter(|s| !s.trim().is_empty())
            .map(|s| {
                AttackFamily::parse(s.trim())
                    .unwrap_or_else(|| panic!("ZOO_ATTACKS entry {s:?} is not a known family"))
            })
            .collect(),
        Err(_) => AttackFamily::ALL.to_vec(),
    }
}

/// `"8x12,16x20"` → `[(8, 12), (16, 20)]`.
fn env_budgets() -> Vec<(u32, usize)> {
    let raw = std::env::var("ZOO_BUDGETS").unwrap_or_else(|_| "8x12".to_string());
    raw.split(',')
        .filter(|s| !s.trim().is_empty())
        .map(|s| {
            let (n, t) = s
                .trim()
                .split_once('x')
                .unwrap_or_else(|| panic!("ZOO_BUDGETS entry {s:?} is not NxT"));
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
        match std::env::var("ZOO_TRANSPORT").as_deref() {
            Ok("wire") => Transport::Wire,
            Ok("both") => Transport::Both,
            Ok("local") | Err(_) => Transport::Local,
            Ok(other) => panic!("ZOO_TRANSPORT {other:?} is not local|wire|both"),
        }
    }
}

struct CellOutcome {
    attack: AttackFamily,
    ranker: recsys::rankers::RankerKind,
    n: u32,
    t: usize,
    transport: &'static str,
    result: Result<ZooRun, AttackError>,
    secs: f64,
}

struct Cell<'a> {
    args: &'a ExpArgs,
    ranker: recsys::rankers::RankerKind,
    attack: AttackFamily,
    budget: AttackBudget,
    tuning: &'a ZooTuning,
    sink: Option<&'a Arc<JsonlSink>>,
}

impl Cell<'_> {
    fn slug(&self, transport: &str) -> String {
        format!(
            "{}-{}-n{}t{}-{transport}",
            self.attack.name().to_ascii_lowercase(),
            self.ranker.name().to_ascii_lowercase(),
            self.budget.fake_users,
            self.budget.clicks_per_user,
        )
    }

    fn zoo_config(&self, transport: &str) -> ZooConfig {
        let slug = self.slug(transport);
        let resume_path = self.args.resume_path(&slug);
        let checkpoint_path = resume_path.clone().or_else(|| {
            let path = self.args.checkpoint_path(&slug)?;
            if let Some(parent) = path.parent() {
                std::fs::create_dir_all(parent).expect("checkpoint dir");
            }
            Some(path)
        });
        ZooConfig {
            budget: self.budget,
            threads: self.args.threads.max(1),
            steps: None,
            checkpoint_every: self.args.checkpoint_every,
            checkpoint_path,
            resume: resume_path.is_some(),
            fault: self
                .args
                .fault_kill_step
                .map(|step| Arc::new(runtime::FaultPlan::new().kill_at_step(step))),
            evaluate_final: true,
        }
    }

    /// Runs the cell against `system`, streaming telemetry; the log is
    /// the attacker's prior knowledge (always the locally generated
    /// dataset, even in wire mode — the wire discloses only
    /// `PublicInfo`).
    fn run(
        &self,
        system: &dyn ObservableSystem,
        log: &recsys::data::Dataset,
        transport: &'static str,
    ) -> Result<ZooRun, AttackError> {
        let mut attack = self.attack.build(self.tuning, Some(log))?;
        let labels = |json: Json| {
            json.field("attack", self.attack.name())
                .field("ranker", self.ranker.name())
                .field("n", u64::from(self.budget.fake_users))
                .field("t", self.budget.clicks_per_user as u64)
                .field("transport", transport)
        };
        let mut on_event = |event: ZooEvent<'_>| {
            let Some(sink) = self.sink else { return };
            let json = match event {
                ZooEvent::Step(stats) => {
                    let mut json = labels(Json::obj().field("type", "zoo_step"))
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
                ZooEvent::Checkpoint { step, bytes } => {
                    labels(Json::obj().field("type", "zoo_checkpoint"))
                        .field("step", step as u64)
                        .field("bytes", bytes)
                }
                ZooEvent::Resumed { step } => {
                    labels(Json::obj().field("type", "zoo_resumed")).field("step", step as u64)
                }
            };
            sink.emit(&json).expect("telemetry write");
        };
        let run = run_attack(
            attack.as_mut(),
            system,
            &self.zoo_config(transport),
            &mut on_event,
        )?;
        if let Some(sink) = self.sink {
            let mut json = labels(Json::obj().field("type", "zoo_cell"))
                .field("steps", run.history.len() as u64)
                .field("observations", run.usage.observations)
                .field("budget_observations", self.budget.observations)
                .field("peak_fake_users", run.usage.peak_fake_users)
                .field("peak_clicks_per_user", run.usage.peak_clicks_per_user);
            if let Some(rec_num) = run.final_rec_num {
                json = json.field("final_rec_num", u64::from(rec_num));
            }
            sink.emit(&json).expect("telemetry write");
        }
        Ok(run)
    }
}

fn main() {
    let args = ExpArgs::parse();
    let dataset = args.dataset_list()[0];
    let attacks = env_attacks();
    let budgets = env_budgets();
    let transport = Transport::parse();

    let tuning = ZooTuning {
        seed: args.seed,
        poisonrec: args.poisonrec_config(ActionSpaceKind::BcbtPopular, 23),
        poisonrec_steps: args.steps,
        appgrad: AppGradConfig {
            iterations: env_usize("ZOO_APPGRAD_ITERS", 30),
            ..AppGradConfig::default()
        },
        conslop: ConsLopConfig::default(),
        influence: InfluenceConfig {
            rounds: env_usize("ZOO_INFLUENCE_ROUNDS", 5),
            ..InfluenceConfig::default()
        },
    };

    let sink = args.open_telemetry("zoo");
    let transport_desc = match transport {
        Transport::Local => "local",
        Transport::Wire => "wire",
        Transport::Both => "both",
    };
    println!(
        "zoo grid: {} attack(s) × {} ranker(s) × {} budget(s) on {} (transport: {transport_desc})",
        attacks.len(),
        args.ranker_list().len(),
        budgets.len(),
        dataset.name(),
    );

    let mut outcomes: Vec<CellOutcome> = Vec::new();
    for &attack in &attacks {
        for ranker in args.ranker_list() {
            for &(n, t) in &budgets {
                let budget = AttackBudget {
                    fake_users: n,
                    clicks_per_user: t,
                    observations: attack.planned_observations(&tuning) + 1,
                };
                let cell = Cell {
                    args: &args,
                    ranker,
                    attack,
                    budget,
                    tuning: &tuning,
                    sink: sink.as_ref(),
                };
                let log = dataset.generate_scaled(args.scale, args.seed);

                let start = Instant::now();
                let local = (transport != Transport::Wire).then(|| {
                    let system = cell.args.build_system(dataset, ranker);
                    cell.run(&system, &log, "local")
                });
                let wire = (transport != Transport::Local).then(|| {
                    let system = cell.args.build_system(dataset, ranker);
                    let server_cfg = ServerConfig::builder()
                        .threads(2)
                        .build()
                        .expect("valid server config");
                    let server = Server::start(RecApp::new(system, None), server_cfg)
                        .expect("bind 127.0.0.1:0");
                    let remote = RemoteSystem::connect(server.local_addr().to_string())
                        .expect("connect to served system");
                    let result = cell.run(&remote, &log, "wire");
                    drop(remote);
                    server.shutdown();
                    result
                });
                let secs = start.elapsed().as_secs_f64();

                if let (Some(local), Some(wire)) = (&local, &wire) {
                    match (local, wire) {
                        (Ok(a), Ok(b)) => {
                            assert_eq!(
                                a.history,
                                b.history,
                                "{attack} × {} histories diverged over the wire",
                                ranker.name()
                            );
                            assert_eq!(a.poison, b.poison, "{attack} poison diverged");
                            assert_eq!(
                                a.final_rec_num, b.final_rec_num,
                                "{attack} final RecNum diverged"
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

                let (label, result): (&'static str, _) = match (local, wire) {
                    (_, Some(result)) if transport != Transport::Local => ("wire", result),
                    (Some(result), _) => ("local", result),
                    _ => unreachable!("at least one transport always runs"),
                };
                match &result {
                    Ok(run) => println!(
                        "  {:<10} {:<12} n={n:<3} t={t:<3} [{label}] steps {:>3}  obs {:>4}  RecNum {}  ({secs:.2}s)",
                        attack.name(),
                        ranker.name(),
                        run.history.len(),
                        run.usage.observations,
                        run.final_rec_num.map_or("-".into(), |r| r.to_string()),
                    ),
                    Err(err) => println!(
                        "  {:<10} {:<12} n={n:<3} t={t:<3} [{label}] refused: {err}",
                        attack.name(),
                        ranker.name(),
                    ),
                }
                outcomes.push(CellOutcome {
                    attack,
                    ranker,
                    n,
                    t,
                    transport: label,
                    result,
                    secs,
                });
            }
        }
    }

    // ---- CSV artifact ---------------------------------------------------
    std::fs::create_dir_all(&args.out_dir).expect("output dir");
    let csv_path = args.out_dir.join("zoo.csv");
    let mut csv =
        String::from("attack,ranker,n,t,transport,steps,observations,final_rec_num,status,secs\n");
    for cell in &outcomes {
        let (steps, obs, rec, status) = match &cell.result {
            Ok(run) => (
                run.history.len().to_string(),
                run.usage.observations.to_string(),
                run.final_rec_num.map_or(String::new(), |r| r.to_string()),
                "ok".to_string(),
            ),
            Err(err) => (
                String::new(),
                String::new(),
                String::new(),
                format!("refused: {}", err.to_string().replace(',', ";")),
            ),
        };
        csv.push_str(&format!(
            "{},{},{},{},{},{steps},{obs},{rec},{status},{:.4}\n",
            cell.attack.name(),
            cell.ranker.name(),
            cell.n,
            cell.t,
            cell.transport,
            cell.secs
        ));
    }
    std::fs::write(&csv_path, csv).expect("write zoo.csv");
    println!("zoo grid -> {}", csv_path.display());

    let refused = outcomes.iter().filter(|c| c.result.is_err()).count();
    println!(
        "zoo done: {} cell(s), {refused} refusal(s), {} transport",
        outcomes.len(),
        match transport {
            Transport::Local => "local",
            Transport::Wire => "wire",
            Transport::Both => "both (bit-identity asserted)",
        }
    );
}
