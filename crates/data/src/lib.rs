//! Synthetic data substrate for the FairMove reproduction.
//!
//! The paper evaluates on one month of proprietary Shenzhen data: 2.48 B GPS
//! records and 23.2 M trips from 20,130 BYD e6 e-taxis, 123 charging
//! stations, the 491-region census partition, and the city's time-of-use
//! charging tariff. None of that is public, so this crate builds calibrated
//! generative models that reproduce the *published marginals* the paper
//! reports in Section II (Figs. 2–8) and exposes the same record schemas
//! (Table I):
//!
//! * [`pricing::ChargingPricing`] — the three-band time-of-use tariff
//!   (off-peak 0.9 / flat 1.2 / peak 1.6 CNY/kWh, Fig. 2) and cost
//!   integration over a charging interval (the paper's `λ · T_charge`
//!   three-vector product in Eq. 2);
//! * [`demand::DemandModel`] — spatio-temporal passenger intensity with
//!   morning/evening rush peaks, a late-night trough, and region archetypes
//!   (downtown, suburb, airport hotspot) driving the Fig. 7 revenue map;
//! * [`trips::TripGenerator`] — Poisson arrivals per (region, slot) with
//!   gravity-model destinations and metered fares ([`revenue`]);
//! * [`schema`] — the five Table I record types with CSV round-tripping;
//! * [`energy::EnergyModel`] — the BYD e6 battery/consumption constants;
//! * [`random`] — the small distribution toolbox (Poisson, log-normal,
//!   exponential) the generators are built from.

pub mod demand;
pub mod energy;
pub mod pricing;
pub mod random;
pub mod revenue;
pub mod schema;
pub mod trips;

pub use demand::{DemandModel, RegionArchetype};
pub use energy::EnergyModel;
pub use pricing::{ChargingPricing, PriceBand};
pub use revenue::FareModel;
pub use trips::{PassengerRequest, TripGenerator};
