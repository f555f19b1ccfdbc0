//! Integration tests: every learning policy trains against the real
//! simulator without pathologies (exploding idle, empty buffers, frozen
//! leaks), and improves a learnable toy objective.

use fairmove_agents::{
    Cma2cConfig, Cma2cPolicy, DqnConfig, DqnPolicy, GroundTruthPolicy, OraclePolicy, Sd2Policy,
    TbaConfig, TbaPolicy, TqlConfig, TqlPolicy,
};
use fairmove_city::City;
use fairmove_sim::{DisplacementPolicy, Environment, SimConfig};

fn tiny() -> SimConfig {
    SimConfig::test_scale()
}

fn run_episode(policy: &mut dyn DisplacementPolicy, sim: &SimConfig, seed: u64) -> f64 {
    let mut env = Environment::new(SimConfig {
        seed,
        ..sim.clone()
    });
    let mut reward_sum = 0.0;
    let mut count = 0u64;
    while !env.done() {
        let fb = env.step_slot(policy);
        for i in 0..fb.slot_profit.len() {
            reward_sum += fb.reward(0.6, fairmove_sim::TaxiId(i as u32));
            count += 1;
        }
        policy.observe(fb);
    }
    reward_sum / count.max(1) as f64
}

#[test]
fn cma2c_trains_against_the_simulator() {
    let sim = tiny();
    let city = City::generate(sim.city.clone());
    let mut p = Cma2cPolicy::new(
        &city,
        Cma2cConfig {
            min_buffer: 128,
            batch_size: 64,
            seed: sim.seed,
            ..Cma2cConfig::default()
        },
    );
    let r = run_episode(&mut p, &sim, sim.seed + 1);
    assert!(r.is_finite());
    assert!(
        p.train_steps() > 50,
        "only {} gradient steps",
        p.train_steps()
    );
    assert!(p.buffer_len() > 500, "buffer {}", p.buffer_len());
}

#[test]
fn dqn_trains_against_the_simulator() {
    let sim = tiny();
    let city = City::generate(sim.city.clone());
    let mut p = DqnPolicy::new(
        &city,
        DqnConfig {
            min_replay: 128,
            batch_size: 64,
            seed: sim.seed,
            ..DqnConfig::default()
        },
    );
    let r = run_episode(&mut p, &sim, sim.seed + 1);
    assert!(r.is_finite());
    assert!(p.train_steps() > 50, "only {} train steps", p.train_steps());
}

#[test]
fn tql_populates_its_table() {
    let sim = tiny();
    let mut p = TqlPolicy::new(TqlConfig {
        seed: sim.seed,
        ..TqlConfig::default()
    });
    let _ = run_episode(&mut p, &sim, sim.seed + 1);
    assert!(p.n_states() > 50, "only {} states visited", p.n_states());
}

#[test]
fn tba_updates_every_slot_with_completions() {
    let sim = tiny();
    let city = City::generate(sim.city.clone());
    let mut p = TbaPolicy::new(
        &city,
        TbaConfig {
            seed: sim.seed,
            ..TbaConfig::default()
        },
    );
    let _ = run_episode(&mut p, &sim, sim.seed + 1);
    assert!(p.updates() > 50, "only {} REINFORCE updates", p.updates());
}

#[test]
fn frozen_policies_leave_no_learning_trace() {
    let sim = tiny();
    let city = City::generate(sim.city.clone());

    let mut cma2c = Cma2cPolicy::new(&city, Cma2cConfig::default());
    cma2c.freeze();
    let _ = run_episode(&mut cma2c, &sim, sim.seed + 2);
    assert_eq!(cma2c.train_steps(), 0);
    assert_eq!(cma2c.buffer_len(), 0);

    let mut dqn = DqnPolicy::new(&city, DqnConfig::default());
    dqn.freeze();
    let _ = run_episode(&mut dqn, &sim, sim.seed + 2);
    assert_eq!(dqn.train_steps(), 0);
    assert_eq!(dqn.replay_len(), 0);
}

#[test]
fn all_policies_complete_a_full_day_without_starvation() {
    // No policy may wedge the fleet: every policy must keep serving trips
    // through the whole horizon.
    let sim = tiny();
    let city = City::generate(sim.city.clone());
    let policies: Vec<Box<dyn DisplacementPolicy>> = vec![
        Box::new(GroundTruthPolicy::for_city(&city, sim.fleet_size, sim.seed)),
        Box::new(Sd2Policy::new()),
        Box::new(OraclePolicy::new()),
        Box::new(TqlPolicy::new(TqlConfig::default())),
        Box::new(TbaPolicy::new(&city, TbaConfig::default())),
        Box::new(Cma2cPolicy::new(&city, Cma2cConfig::default())),
        Box::new(DqnPolicy::new(&city, DqnConfig::default())),
    ];
    for mut policy in policies {
        let mut env = Environment::new(sim.clone());
        env.run(policy.as_mut());
        let trips = env.ledger().trips().len();
        assert!(trips > 100, "{} served only {trips} trips", policy.name());
        // Late-day activity: trips completed in the final quarter.
        let horizon = sim.days * fairmove_city::MINUTES_PER_DAY;
        let late = env
            .ledger()
            .trips()
            .iter()
            .filter(|t| t.dropoff_at.minutes() > horizon * 3 / 4)
            .count();
        assert!(late > 0, "{} starved late in the day", policy.name());
    }
}

#[test]
fn oracle_beats_gt_on_served_trips() {
    // The full-knowledge heuristic sets the headroom bar: it must clearly
    // out-serve the behavioural baseline on the same demand.
    let sim = tiny();
    let city = City::generate(sim.city.clone());

    let mut gt = GroundTruthPolicy::for_city(&city, sim.fleet_size, sim.seed);
    let mut env_gt = Environment::new(sim.clone());
    env_gt.run(&mut gt);

    let mut oracle = OraclePolicy::new();
    let mut env_o = Environment::new(sim.clone());
    env_o.run(&mut oracle);

    let gt_trips = env_gt.ledger().trips().len();
    let oracle_trips = env_o.ledger().trips().len();
    assert!(
        oracle_trips as f64 > gt_trips as f64 * 1.02,
        "oracle {oracle_trips} vs GT {gt_trips}"
    );
}
