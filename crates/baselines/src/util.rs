//! Shared wire helpers for baseline attack state snapshots.

use rand::rngs::StdRng;
use recsys::attack::{Reader, WireError, Writer};
use recsys::data::Trajectory;
#[cfg(test)]
use recsys::{
    attack::{Attack, AttackBudget, GuardedSystem},
    system::ObservableSystem,
};

/// Serializes the full xoshiro256++ RNG state so a restored attack
/// resumes the exact random stream.
pub fn put_rng(w: &mut Writer, rng: &StdRng) {
    for word in rng.state() {
        w.put_u64(word);
    }
}

pub fn get_rng(r: &mut Reader<'_>) -> Result<StdRng, WireError> {
    let mut state = [0u64; 4];
    for word in &mut state {
        *word = r.get_u64("rng state word")?;
    }
    Ok(StdRng::from_state(state))
}

pub fn put_trajectories(w: &mut Writer, poison: &[Trajectory]) {
    w.put_u64(poison.len() as u64);
    for traj in poison {
        w.put_u64(traj.len() as u64);
        for &item in traj {
            w.put_u32(item);
        }
    }
}

pub fn get_trajectories(r: &mut Reader<'_>) -> Result<Vec<Trajectory>, WireError> {
    // Each trajectory costs at least its own 8-byte length prefix.
    let n = r.get_len(8, "trajectory count")?;
    let mut poison = Vec::with_capacity(n);
    for _ in 0..n {
        let t = r.get_len(4, "trajectory length")?;
        let mut traj = Vec::with_capacity(t);
        for _ in 0..t {
            traj.push(r.get_u32("trajectory item")?);
        }
        poison.push(traj);
    }
    Ok(poison)
}

/// Test driver: runs every planned step of `attack` against `system`
/// under an `n × t` budget with unlimited observations, on one thread,
/// and returns the poison.
#[cfg(test)]
pub fn run_to_poison(
    attack: &mut dyn Attack,
    system: &dyn ObservableSystem,
    n: u32,
    t: usize,
) -> Vec<Trajectory> {
    let guard = GuardedSystem::new(
        system,
        AttackBudget {
            fake_users: n,
            clicks_per_user: t,
            observations: u64::MAX,
        },
    );
    while attack.steps_done() < attack.planned_steps() {
        attack
            .step(&guard, 1)
            .expect("an unlimited budget cannot refuse");
    }
    attack.poison().expect("every planned step ran")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    #[test]
    fn rng_round_trip_resumes_the_stream() {
        let mut rng = StdRng::seed_from_u64(11);
        let _burn: u64 = rng.gen_range(0..1_000_000);
        let mut w = Writer::new();
        put_rng(&mut w, &rng);
        let bytes = w.into_bytes();
        let mut back = get_rng(&mut Reader::new(&bytes)).unwrap();
        for _ in 0..16 {
            assert_eq!(
                rng.gen_range(0..u64::MAX),
                back.gen_range(0..u64::MAX),
                "restored RNG diverged"
            );
        }
    }

    #[test]
    fn trajectories_round_trip() {
        let poison = vec![vec![1, 2, 3], vec![], vec![9; 5]];
        let mut w = Writer::new();
        put_trajectories(&mut w, &poison);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        assert_eq!(get_trajectories(&mut r).unwrap(), poison);
        r.expect_eof().unwrap();
    }

    #[test]
    fn implausible_count_is_rejected() {
        let mut w = Writer::new();
        w.put_u64(u64::MAX);
        let bytes = w.into_bytes();
        assert!(get_trajectories(&mut Reader::new(&bytes)).is_err());
    }
}
