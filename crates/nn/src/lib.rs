//! Neural-network substrate for the NADA reproduction.
//!
//! The paper trains Pensieve-style actor-critic policies in TensorFlow and a
//! small 1D-CNN early-stopping classifier. Neither can be assumed here, so
//! this crate implements the required machinery from scratch:
//!
//! * [`param`] — flat parameter/gradient storage with Adam state and global
//!   gradient-norm clipping;
//! * [`layers`] — dense, 1-D convolution, vanilla RNN and LSTM layers plus
//!   activations, each with a hand-written single-sample backward pass (the
//!   reference) and batched kernels bit-identical to it;
//! * [`graph`] — Pensieve's branch-merge actor-critic topology: one branch
//!   per input feature (temporal features get conv/RNN/LSTM branches,
//!   scalars get dense branches), a merge trunk, and actor/critic heads that
//!   may be separate (original design) or shared (a design NADA discovers
//!   for 5G);
//! * [`optim`] — Adam and SGD;
//! * [`a2c`] — the advantage actor-critic trainer (discounted returns,
//!   entropy regularization, softmax policy head);
//! * [`classifier`] — the 1D-CNN binary classifier used by the
//!   early-stopping model (§2.2).
//!
//! Determinism: all initialization and sampling is seeded; the crate never
//! touches OS randomness.

pub mod a2c;
pub mod batch;
pub mod classifier;
pub mod graph;
pub mod layers;
pub mod optim;
pub mod param;

pub use a2c::{A2cConfig, A2cTrainer, EpisodeBuffer};
pub use batch::{softmax_into, FeatureLayout, InferScratch, TrainScratch};
pub use classifier::CurveClassifier;
pub use graph::{ActorCritic, ArchConfig, BranchKind, FeatureShape, HeadMode};
pub use layers::{Activation, AnyLayer, Layer, Sequential};
pub use optim::Adam;
pub use param::Param;
