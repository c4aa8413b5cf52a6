//! Command-line interface for the PINOCCHIO framework.
//!
//! ```text
//! pinocchio-cli stats    [--dataset foursquare|gowalla|small] [--seed N]
//! pinocchio-cli solve    [--dataset ...] [--algo na|pin|pin-vo|pin-vo*|pin-join]
//!                        [--tau T] [--candidates M] [--seed N] [--top K]
//!                        [--threads N]
//! pinocchio-cli approx   [--dataset ...] [--tau T] [--candidates M]
//!                        [--epsilon E] [--delta D] [--seed N]
//! pinocchio-cli generate --out DIR [--dataset ...] [--seed N]
//! pinocchio-cli serve    [--dataset ...] [--tau T] [--candidates M] [--seed N]
//!                        [--addr HOST:PORT] [--queue N] [--batch N]
//!                        [--workers N] [--threads N] [--shards N]
//! pinocchio-cli replay   [--dataset ...] [--tau T] [--candidates M] [--seed N]
//!                        [--rounds N] [--every N]
//! ```
//!
//! `--dataset small` (the default) builds a fast 300-user world;
//! `foursquare` / `gowalla` build the full paper-calibrated datasets.
//!
//! `serve` runs the epoch-snapshot query service over the dataset until
//! a client sends the `shutdown` wire command. `replay` streams the
//! dataset's positions through the *same* ingest codepath in timestamp
//! order, printing the evolving optimum — what the server's writer
//! thread would compute for the identical stream.

use pinocchio::data::{
    io, sample_candidate_group, DatasetStats, GeneratorConfig, SyntheticGenerator,
};
use pinocchio::prelude::*;
use pinocchio::serve::{serve, ServerConfig, UpdateOp, World};
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  pinocchio-cli stats    [--dataset foursquare|gowalla|small] [--seed N]\n  \
         pinocchio-cli solve    [--dataset ...] [--algo na|pin|pin-vo|pin-vo*|pin-join] [--tau T] [--candidates M] [--seed N] [--top K] [--threads N]\n  \
         pinocchio-cli approx   [--dataset ...] [--tau T] [--candidates M] [--epsilon E] [--delta D] [--seed N]\n  \
         pinocchio-cli generate --out DIR [--dataset ...] [--seed N]\n  \
         pinocchio-cli serve    [--dataset ...] [--tau T] [--candidates M] [--seed N] [--addr HOST:PORT] [--queue N] [--batch N] [--workers N] [--threads N] [--shards N]\n  \
         pinocchio-cli replay   [--dataset ...] [--tau T] [--candidates M] [--seed N] [--rounds N] [--every N]"
    );
    ExitCode::from(2)
}

/// Parses `--key` as `T`, defaulting when absent.
fn flag_or<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    flags
        .get(key)
        .map(|s| s.parse().map_err(|e| format!("bad --{key}: {e}")))
        .unwrap_or(Ok(default))
}

fn parse_flags(args: &[String]) -> Option<HashMap<String, String>> {
    let mut flags = HashMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let key = flag.strip_prefix("--")?;
        let value = it.next()?;
        flags.insert(key.to_string(), value.clone());
    }
    Some(flags)
}

fn build_dataset(flags: &HashMap<String, String>) -> Result<pinocchio::data::Dataset, String> {
    let seed: Option<u64> = flags
        .get("seed")
        .map(|s| s.parse().map_err(|e| format!("bad --seed: {e}")))
        .transpose()?;
    let mut config = match flags.get("dataset").map(String::as_str).unwrap_or("small") {
        "foursquare" => GeneratorConfig::foursquare_like(),
        "gowalla" => GeneratorConfig::gowalla_like(),
        "small" => GeneratorConfig::small(300, 1),
        other => return Err(format!("unknown dataset '{other}'")),
    };
    if let Some(seed) = seed {
        config = config.with_seed(seed);
    }
    Ok(SyntheticGenerator::new(config).generate())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        return usage();
    };
    let Some(flags) = parse_flags(rest) else {
        return usage();
    };

    let dataset = match build_dataset(&flags) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };

    match command.as_str() {
        "stats" => {
            println!("{}", DatasetStats::of(&dataset));
            ExitCode::SUCCESS
        }
        "solve" => {
            let tau: f64 = match flags.get("tau").map(|s| s.parse()).unwrap_or(Ok(0.7)) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("error: bad --tau: {e}");
                    return ExitCode::from(2);
                }
            };
            let m: usize = match flags
                .get("candidates")
                .map(|s| s.parse())
                .unwrap_or(Ok(200))
            {
                Ok(m) => m,
                Err(e) => {
                    eprintln!("error: bad --candidates: {e}");
                    return ExitCode::from(2);
                }
            };
            let algorithm = match flags.get("algo").map(String::as_str).unwrap_or("pin-vo") {
                "na" => Algorithm::Naive,
                "pin" => Algorithm::Pinocchio,
                "pin-vo" => Algorithm::PinocchioVo,
                "pin-vo*" => Algorithm::PinocchioVoStar,
                "pin-join" => Algorithm::PinocchioJoin,
                other => {
                    eprintln!("error: unknown algorithm '{other}'");
                    return ExitCode::from(2);
                }
            };
            let (_, candidates) =
                sample_candidate_group(&dataset, m.min(dataset.venues().len()), 1);
            let problem = match PrimeLs::builder()
                .objects(dataset.objects().to_vec())
                .candidates(candidates)
                .probability_function(PowerLawPf::paper_default())
                .tau(tau)
                .build()
            {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(2);
                }
            };
            if let Some(top) = flags.get("top") {
                let k: usize = match top.parse() {
                    Ok(k) => k,
                    Err(e) => {
                        eprintln!("error: bad --top: {e}");
                        return ExitCode::from(2);
                    }
                };
                for (rank, entry) in pinocchio::core::solve_top_k(&problem, k).iter().enumerate() {
                    println!(
                        "{:3}. candidate #{} at {} influence {}",
                        rank + 1,
                        entry.candidate,
                        entry.location,
                        entry.influence
                    );
                }
                return ExitCode::SUCCESS;
            }
            let threads: usize = match flags.get("threads").map(|s| s.parse()).unwrap_or(Ok(1)) {
                Ok(0) => {
                    eprintln!("error: --threads must be at least 1");
                    return ExitCode::from(2);
                }
                Ok(t) => t,
                Err(e) => {
                    eprintln!("error: bad --threads: {e}");
                    return ExitCode::from(2);
                }
            };
            let r = match pinocchio::core::parallel::try_solve(&problem, algorithm, threads) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(2);
                }
            };
            println!("algorithm        {}", r.algorithm);
            println!(
                "best candidate   #{} at {}",
                r.best_candidate, r.best_location
            );
            println!("max influence    {}", r.max_influence);
            println!("pairs validated  {}", r.stats.validated_pairs);
            println!("pairs pruned     {}", r.stats.pruned_pairs());
            println!("positions probed {}", r.stats.positions_evaluated);
            println!("elapsed          {:.3?}", r.elapsed);
            ExitCode::SUCCESS
        }
        "approx" => {
            let get = |key: &str, default: f64| -> Result<f64, String> {
                flags
                    .get(key)
                    .map(|s| s.parse().map_err(|e| format!("bad --{key}: {e}")))
                    .unwrap_or(Ok(default))
            };
            let (tau, epsilon, delta) =
                match (get("tau", 0.7), get("epsilon", 0.05), get("delta", 0.01)) {
                    (Ok(t), Ok(e), Ok(d)) => (t, e, d),
                    (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => {
                        eprintln!("error: {e}");
                        return ExitCode::from(2);
                    }
                };
            let m: usize = match flags
                .get("candidates")
                .map(|s| s.parse())
                .unwrap_or(Ok(200))
            {
                Ok(m) => m,
                Err(e) => {
                    eprintln!("error: bad --candidates: {e}");
                    return ExitCode::from(2);
                }
            };
            let (_, candidates) =
                sample_candidate_group(&dataset, m.min(dataset.venues().len()), 1);
            let problem = match PrimeLs::builder()
                .objects(dataset.objects().to_vec())
                .candidates(candidates)
                .probability_function(PowerLawPf::paper_default())
                .tau(tau)
                .build()
            {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(2);
                }
            };
            let r = pinocchio::core::solve_approx(
                &problem,
                pinocchio::core::ApproxConfig::new(epsilon, delta, 1),
            );
            println!(
                "best candidate    #{} at {}",
                r.best_candidate, r.best_location
            );
            println!("est. influence    {}", r.estimated_influence);
            println!(
                "sample size       {} of {}",
                r.sample_size,
                dataset.objects().len()
            );
            println!("exact             {}", r.exact);
            ExitCode::SUCCESS
        }
        "generate" => {
            let Some(out) = flags.get("out") else {
                eprintln!("error: generate needs --out DIR");
                return ExitCode::from(2);
            };
            let dir = PathBuf::from(out);
            if let Err(e) = std::fs::create_dir_all(&dir) {
                eprintln!("error: cannot create {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
            let checkins = dir.join("checkins.csv");
            let venues = dir.join("venues.csv");
            if let Err(e) = io::save_checkins(&dataset, &checkins)
                .and_then(|_| io::save_venues(&dataset, &venues))
            {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
            println!(
                "wrote {} check-ins to {} and {} venues to {}",
                dataset.total_checkins(),
                checkins.display(),
                dataset.venues().len(),
                venues.display()
            );
            ExitCode::SUCCESS
        }
        "serve" => {
            let parsed = (|| -> Result<(f64, usize, ServerConfig), String> {
                let tau = flag_or(&flags, "tau", 0.7)?;
                let m = flag_or(&flags, "candidates", 200usize)?;
                let config = ServerConfig {
                    addr: flags
                        .get("addr")
                        .cloned()
                        .unwrap_or_else(|| "127.0.0.1:0".to_string()),
                    queue_capacity: flag_or(&flags, "queue", 256usize)?,
                    batch_max: flag_or(&flags, "batch", 16usize)?,
                    workers: flag_or(&flags, "workers", 2usize)?,
                    solve_threads: flag_or(&flags, "threads", 2usize)?,
                    shards: flag_or(&flags, "shards", 1usize)?,
                    ..ServerConfig::default()
                };
                Ok((tau, m, config))
            })();
            let (tau, m, config) = match parsed {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(2);
                }
            };
            let (_, candidates) =
                sample_candidate_group(&dataset, m.min(dataset.venues().len()), 1);
            let world = match World::from_parts(dataset.objects().to_vec(), candidates, tau) {
                Ok(w) => w,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(2);
                }
            };
            println!(
                "serving {} objects x {} candidates at tau={tau} across {} shard(s)",
                world.object_count(),
                world.candidate_count(),
                config.shards
            );
            let handle = match serve(world, config) {
                Ok(h) => h,
                Err(e) => {
                    eprintln!("error: cannot bind: {e}");
                    return ExitCode::FAILURE;
                }
            };
            println!("listening on {}", handle.addr());
            println!("send {{\"v\":1,\"op\":\"shutdown\"}} to stop");
            let stats = handle.join();
            println!(
                "drained: {} lines, {} queries, {} updates, {} epochs, {} shed",
                stats.lines_received,
                stats.queries_completed(),
                stats.updates_applied,
                stats.epochs_published,
                stats.shed
            );
            ExitCode::SUCCESS
        }
        "replay" => {
            let parsed = (|| -> Result<(f64, usize, usize, usize), String> {
                Ok((
                    flag_or(&flags, "tau", 0.7)?,
                    flag_or(&flags, "candidates", 50usize)?,
                    flag_or(&flags, "rounds", usize::MAX)?,
                    flag_or(&flags, "every", 1usize)?,
                ))
            })();
            let (tau, m, rounds, every) = match parsed {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("error: {e}");
                    return ExitCode::from(2);
                }
            };
            let (_, candidates) =
                sample_candidate_group(&dataset, m.min(dataset.venues().len()), 1);
            // The replay drives the exact codepath the server's writer
            // thread runs: every event goes through `World::apply`.
            let mut world = World::new(tau);
            for (j, location) in candidates.into_iter().enumerate() {
                if let Err(e) = world.apply(&UpdateOp::InsertCandidate {
                    candidate: j as u64,
                    location,
                }) {
                    eprintln!("error: {e}");
                    return ExitCode::FAILURE;
                }
            }
            let objects = dataset.objects();
            let horizon = objects
                .iter()
                .map(|o| o.positions().len())
                .max()
                .unwrap_or(0)
                .min(rounds.max(1));
            let mut events = 0u64;
            let report = |world: &World, t: usize, events: u64| {
                match world.best() {
                    Ok(Some((candidate, location, influence))) => println!(
                        "t={t:4}  events={events:7}  best=#{candidate} at {location} influence={influence}"
                    ),
                    Ok(None) => println!("t={t:4}  events={events:7}  best=<none>"),
                    Err(e) => println!("t={t:4}  events={events:7}  error: {e}"),
                }
            };
            // t = 0: each object appears at its first observed position;
            // t = k: the k-th position streams in, in timestamp order.
            for t in 0..horizon {
                for object in objects {
                    let Some(&position) = object.positions().get(t) else {
                        continue;
                    };
                    let op = if t == 0 {
                        UpdateOp::InsertObject {
                            object: object.id(),
                            positions: vec![position],
                        }
                    } else {
                        UpdateOp::AppendPosition {
                            object: object.id(),
                            position,
                        }
                    };
                    if let Err(e) = world.apply(&op) {
                        eprintln!("error at t={t}: {e}");
                        return ExitCode::FAILURE;
                    }
                    events += 1;
                }
                if t % every.max(1) == 0 || t + 1 == horizon {
                    report(&world, t, events);
                }
            }
            println!(
                "replayed {events} events over {horizon} rounds: {} objects, {} candidates",
                world.object_count(),
                world.candidate_count()
            );
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}
