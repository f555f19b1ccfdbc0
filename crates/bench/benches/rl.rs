//! RL-substrate microbenchmarks: MLP forward/backward and Adam steps at the
//! shapes the agents actually use (22-wide state–action input, 64×64
//! hidden), plus the frozen actor's forward at the dispatcher's chunk sizes.

use criterion::{criterion_group, criterion_main, Criterion};
use fairmove_rl::{Activation, Adam, Matrix, Mlp, MlpWorkspace, Optimizer};
use std::time::Duration;

fn net() -> Mlp {
    Mlp::new(&[22, 64, 64, 1], Activation::Relu, Activation::Linear, 7)
}

fn batch(n: usize) -> Matrix {
    Matrix::from_vec(n, 22, (0..n * 22).map(|i| (i % 13) as f64 / 13.0).collect())
}

fn bench_rl(c: &mut Criterion) {
    let mut group = c.benchmark_group("rl");
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_secs(1));
    group.sample_size(10);

    group.bench_function("forward_batch_128", |b| {
        let net = net();
        let x = batch(128);
        b.iter(|| net.forward(&x));
    });

    group.bench_function("forward_single", |b| {
        let net = net();
        let x: Vec<f64> = (0..22).map(|i| i as f64 / 22.0).collect();
        b.iter(|| net.forward_one(&x));
    });

    group.bench_function("forward_backward_batch_128", |b| {
        let mut net = net();
        let x = batch(128);
        b.iter(|| {
            let y = net.forward_train(&x);
            net.backward(&y)
        });
    });

    group.bench_function("adam_step_batch_128", |b| {
        let mut net = net();
        let mut adam = Adam::new(1e-3);
        let x = batch(128);
        b.iter(|| {
            let y = net.forward_train(&x);
            let grads = net.backward(&y);
            adam.step(&mut net, &grads);
        });
    });

    // The frozen CMA2C actor (24 → 64 → 64 → 1) at stacked row counts,
    // through the allocation-free path.
    for rows in [27, 108, 430] {
        group.bench_function(format!("actor_forward_scratch_{rows}"), |b| {
            let net = Mlp::new(&[24, 64, 64, 1], Activation::Relu, Activation::Linear, 7);
            let x = Matrix::from_vec(
                rows,
                24,
                (0..rows * 24).map(|i| (i % 13) as f64 / 13.0).collect(),
            );
            let mut ws = MlpWorkspace::new();
            b.iter(|| net.forward_scratch(&x, &mut ws).data()[0]);
        });
    }

    // One decision's ~10 candidate rows sharing a 14-column state prefix:
    // the forward the CMA2C dispatcher runs per decision.
    group.bench_function("actor_forward_prefixed_10", |b| {
        let net = Mlp::new(&[24, 64, 64, 1], Activation::Relu, Activation::Linear, 7);
        let x = Matrix::from_vec(
            10,
            24,
            (0..10 * 24)
                .map(|i| if i % 24 < 14 { i % 24 } else { i } as f64 / 240.0)
                .collect(),
        );
        let mut ws = MlpWorkspace::new();
        b.iter(|| net.forward_prefixed(&x, 14, &mut ws).data()[0]);
    });

    group.finish();
}

criterion_group!(benches, bench_rl);
criterion_main!(benches);
