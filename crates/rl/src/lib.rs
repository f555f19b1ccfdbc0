//! From-scratch deep-RL substrate for the FairMove reproduction.
//!
//! The paper trains its CMA2C (and the DQN/TQL/TBA baselines) with standard
//! deep-learning tooling; no such crate is in the allowed dependency set, so
//! this crate implements the minimum viable stack:
//!
//! * [`matrix::Matrix`] — row-major dense matrices with the handful of ops
//!   backprop needs;
//! * [`mlp::Mlp`] — multi-layer perceptrons with manual reverse-mode
//!   gradients (verified against finite differences in tests);
//! * [`optimizer::Adam`] / [`optimizer::Sgd`] — the optimizers the paper's
//!   experiments use (AdamOptimizer, lr = 0.001);
//! * [`loss`] — MSE for critics, softmax/log-softmax and the policy-gradient
//!   logit gradient for actors;
//! * [`replay::ReplayBuffer`] — uniform-sampling experience replay;
//! * [`schedule::EpsilonSchedule`] — linear ε-decay for ε-greedy exploration;
//! * [`tabular::QTable`] — the tabular Q-learning core of the TQL baseline.
//!
//! Networks here are CPU-scale MLPs over low-dimensional fleet state — the
//! same shape as the paper's, which are small dense networks, not conv nets.

#![deny(unsafe_code)]

pub mod loss;
pub mod matrix;
pub mod mlp;
pub mod optimizer;
pub mod replay;
pub mod schedule;
pub mod serialize;
pub mod store;
pub mod tabular;

pub use loss::{huber_loss, log_softmax, mse_loss, policy_gradient_logits, softmax};
pub use matrix::Matrix;
pub use mlp::{Activation, Gradients, Mlp, MlpWorkspace};
pub use optimizer::{Adam, Optimizer, Sgd};
pub use replay::ReplayBuffer;
pub use schedule::EpsilonSchedule;
pub use serialize::{load_mlp, load_mlp_from_path, save_mlp, save_mlp_to_path, LoadError};
pub use store::{read_verified, write_atomic, StoreError};
pub use tabular::QTable;
