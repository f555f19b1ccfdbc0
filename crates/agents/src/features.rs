//! State and action featurization shared by the neural policies.
//!
//! The paper's state is `[local view, global view]`: the taxi's (time slot,
//! location) plus the per-region vacant counts, per-station free points, and
//! predicted demand (Section III-C). We encode the taxi-relevant slice of
//! that into a fixed-width vector, and each admissible action into an
//! action-feature vector, so one shared network can score a *variable*
//! action space — the property CMA2C needs ("iterates its policy to adapt
//! to the dynamically evolving action space").
//!
//! All features are scaled to roughly `[−1, 1]` so the small MLPs train
//! without per-feature normalization layers.

use fairmove_city::{City, RegionId, StationId};
use fairmove_sim::{Action, DecisionContext, ObservationView};

/// Width of the state-feature vector.
pub const STATE_DIM: usize = 14;
/// Width of the action-feature vector.
pub const ACTION_DIM: usize = 10;
/// Width of a concatenated state–action vector.
pub const SA_DIM: usize = STATE_DIM + ACTION_DIM;
/// Width of the *local-only* state vector (TBA's competitive agents see no
/// global view).
pub const LOCAL_STATE_DIM: usize = 6;
/// Width of TBA's restricted action vector.
pub const LOCAL_ACTION_DIM: usize = 4;
/// Width of TBA's concatenated local state–action vector.
pub const LOCAL_SA_DIM: usize = LOCAL_STATE_DIM + LOCAL_ACTION_DIM;

/// Builds feature vectors against a fixed city.
#[derive(Debug, Clone)]
pub struct FeatureExtractor {
    city: City,
}

impl FeatureExtractor {
    /// A feature extractor over `city` (cheap clone of the substrate).
    pub fn new(city: &City) -> Self {
        FeatureExtractor { city: city.clone() }
    }

    /// The full state vector for one deciding taxi (paper: local + global
    /// view).
    pub fn state(&self, obs: &impl ObservationView, ctx: &DecisionContext) -> Vec<f64> {
        let mut out = vec![0.0; STATE_DIM];
        self.write_state(obs, ctx, &mut out);
        out
    }

    /// Writes the state vector into a caller-owned `STATE_DIM` slice — the
    /// allocation-free variant of [`state`](Self::state); [`state`] delegates
    /// here, so the two are identical by construction.
    pub fn write_state(&self, obs: &impl ObservationView, ctx: &DecisionContext, out: &mut [f64]) {
        let day_frac = obs.now().day_fraction();
        let angle = std::f64::consts::TAU * day_frac;
        let r = ctx.region.index();
        let total_waiting: u32 = obs.waiting_per_region().iter().sum();
        let total_vacant: u32 = obs.vacant_per_region().iter().sum();
        out[0] = angle.sin();
        out[1] = angle.cos();
        out[2] = ctx.soc;
        out[3] = if ctx.must_charge { 1.0 } else { 0.0 };
        out[4] = obs.predicted_demand()[r] / 10.0;
        out[5] = f64::from(obs.vacant_per_region()[r]) / 10.0;
        out[6] = f64::from(obs.waiting_per_region()[r]) / 10.0;
        out[7] = obs.supply_gap(ctx.region) / 10.0;
        out[8] = obs.price_now() / 1.6;
        out[9] = obs.price_next_hour() / 1.6;
        out[10] = (f64::from(total_waiting) / f64::from(total_vacant.max(1))).min(3.0);
        // Fairness standing: how far this taxi's earnings run above or
        // below the fleet mean — the input a shared policy needs to act
        // fairness-aware (push under-earners toward profit, let
        // over-earners yield).
        out[11] = ((ctx.pe_standing - obs.mean_pe()) / 10.0).clamp(-2.0, 2.0);
        out[12] = (obs.pf() / 50.0).min(2.0);
        out[13] = 1.0;
    }

    /// Writes the state vector from a current [`RegionFeatureCache`]. The
    /// cache stores exactly the values [`write_state`](Self::write_state)
    /// would compute against the view it was refreshed from (and updated
    /// with), so the output is bitwise identical as long as every change
    /// to the view since the refresh went through
    /// [`RegionFeatureCache::update`].
    pub fn write_state_cached(
        &self,
        cache: &RegionFeatureCache,
        ctx: &DecisionContext,
        out: &mut [f64],
    ) {
        let reg = &cache.region[ctx.region.index()];
        out[0] = cache.sin_t;
        out[1] = cache.cos_t;
        out[2] = ctx.soc;
        out[3] = if ctx.must_charge { 1.0 } else { 0.0 };
        out[4] = reg[0];
        out[5] = reg[1];
        out[6] = reg[2];
        out[7] = reg[3];
        out[8] = cache.price_now;
        out[9] = cache.price_next;
        out[10] = cache.pressure;
        out[11] = ((ctx.pe_standing - cache.mean_pe) / 10.0).clamp(-2.0, 2.0);
        out[12] = cache.pf_term;
        out[13] = 1.0;
    }

    /// Action features for one admissible action of `ctx`.
    pub fn action(
        &self,
        obs: &impl ObservationView,
        ctx: &DecisionContext,
        action: Action,
    ) -> Vec<f64> {
        let mut out = vec![0.0; ACTION_DIM];
        self.write_action(obs, ctx, action, &mut out);
        out
    }

    /// Writes the action features into a caller-owned `ACTION_DIM` slice —
    /// the allocation-free variant of [`action`](Self::action), which
    /// delegates here.
    pub fn write_action(
        &self,
        obs: &impl ObservationView,
        ctx: &DecisionContext,
        action: Action,
        out: &mut [f64],
    ) {
        match action {
            Action::Stay => {
                self.write_region_target(obs, ctx.region, 0.0, out);
                out[0] = 1.0;
            }
            Action::MoveTo(dest) => {
                let km = self.city.region_driving_distance(ctx.region, dest);
                self.write_region_target(obs, dest, km, out);
                out[1] = 1.0;
            }
            Action::Charge(station) => self.write_station_target(obs, ctx.region, station, out),
        }
    }

    /// Cache-backed variant of [`write_action`](Self::write_action);
    /// bitwise identical under the same current-cache condition as
    /// [`write_state_cached`](Self::write_state_cached).
    pub fn write_action_cached(
        &self,
        cache: &RegionFeatureCache,
        ctx: &DecisionContext,
        action: Action,
        out: &mut [f64],
    ) {
        match action {
            Action::Stay => {
                Self::write_region_target_cached(cache, ctx.region, 0.0, out);
                out[0] = 1.0;
            }
            Action::MoveTo(dest) => {
                let km = self.city.region_driving_distance(ctx.region, dest);
                Self::write_region_target_cached(cache, dest, km, out);
                out[1] = 1.0;
            }
            Action::Charge(station) => {
                let s = station.index();
                let km = self.city.region_to_station_distance(ctx.region, station);
                let st = &cache.station[s];
                out[0] = 0.0;
                out[1] = 0.0;
                out[2] = 1.0; // is_charge
                out[3] = 0.0;
                out[4] = 0.0;
                out[5] = 0.0;
                out[6] = 0.0;
                out[7] = km / 10.0;
                out[8] = st[0];
                out[9] = st[1];
            }
        }
    }

    fn write_region_target(
        &self,
        obs: &impl ObservationView,
        dest: RegionId,
        km: f64,
        out: &mut [f64],
    ) {
        let d = dest.index();
        out[0] = 0.0; // is_stay (caller sets)
        out[1] = 0.0; // is_move (caller sets)
        out[2] = 0.0; // is_charge
        out[3] = obs.predicted_demand()[d] / 10.0;
        out[4] = f64::from(obs.vacant_per_region()[d]) / 10.0;
        out[5] = f64::from(obs.waiting_per_region()[d]) / 10.0;
        out[6] = obs.supply_gap(dest) / 10.0;
        out[7] = km / 10.0;
        out[8] = 0.0; // free points
        out[9] = 0.0; // station load
    }

    fn write_region_target_cached(
        cache: &RegionFeatureCache,
        dest: RegionId,
        km: f64,
        out: &mut [f64],
    ) {
        let reg = &cache.region[dest.index()];
        out[0] = 0.0;
        out[1] = 0.0;
        out[2] = 0.0;
        out[3] = reg[0];
        out[4] = reg[1];
        out[5] = reg[2];
        out[6] = reg[3];
        out[7] = km / 10.0;
        out[8] = 0.0;
        out[9] = 0.0;
    }

    fn write_station_target(
        &self,
        obs: &impl ObservationView,
        from: RegionId,
        station: StationId,
        out: &mut [f64],
    ) {
        let s = station.index();
        let km = self.city.region_to_station_distance(from, station);
        let points = f64::from(self.city.station(station).charging_points).max(1.0);
        let occupied = self
            .city
            .station(station)
            .charging_points
            .saturating_sub(obs.free_points_per_station()[s]);
        let load =
            (f64::from(obs.queue_per_station()[s] + obs.inbound_per_station()[s] + occupied)
                / points)
                .min(3.0);
        out[0] = 0.0;
        out[1] = 0.0;
        out[2] = 1.0; // is_charge
        out[3] = 0.0;
        out[4] = 0.0;
        out[5] = 0.0;
        out[6] = 0.0;
        out[7] = km / 10.0;
        out[8] = f64::from(obs.free_points_per_station()[s]) / 10.0;
        out[9] = load / 3.0;
    }

    /// Concatenated state ⊕ action vector.
    pub fn state_action(
        &self,
        obs: &impl ObservationView,
        ctx: &DecisionContext,
        action: Action,
    ) -> Vec<f64> {
        let mut f = self.state(obs, ctx);
        f.extend(self.action(obs, ctx, action));
        f
    }

    /// State–action vectors for every admissible action, canonical order.
    pub fn all_state_actions(
        &self,
        obs: &impl ObservationView,
        ctx: &DecisionContext,
    ) -> Vec<Vec<f64>> {
        let state = self.state(obs, ctx);
        ctx.actions
            .actions()
            .iter()
            .map(|&a| {
                let mut f = state.clone();
                f.extend(self.action(obs, ctx, a));
                f
            })
            .collect()
    }

    /// TBA's local-only state: the competitive agents see their own (time,
    /// location, battery) but no fleet-wide supply/demand.
    pub fn local_state(&self, obs: &impl ObservationView, ctx: &DecisionContext) -> Vec<f64> {
        let angle = std::f64::consts::TAU * obs.now().day_fraction();
        vec![
            angle.sin(),
            angle.cos(),
            ctx.soc,
            if ctx.must_charge { 1.0 } else { 0.0 },
            f64::from(obs.waiting_per_region()[ctx.region.index()]) / 10.0,
            1.0,
        ]
    }

    /// TBA's restricted action features: type and distance only.
    pub fn local_action(&self, ctx: &DecisionContext, action: Action) -> Vec<f64> {
        match action {
            Action::Stay => vec![1.0, 0.0, 0.0, 0.0],
            Action::MoveTo(dest) => {
                let km = self.city.region_driving_distance(ctx.region, dest);
                vec![0.0, 1.0, 0.0, km / 10.0]
            }
            Action::Charge(station) => {
                let km = self.city.region_to_station_distance(ctx.region, station);
                vec![0.0, 0.0, 1.0, km / 10.0]
            }
        }
    }

    /// TBA's local state–action vectors for every admissible action.
    pub fn all_local_state_actions(
        &self,
        obs: &impl ObservationView,
        ctx: &DecisionContext,
    ) -> Vec<Vec<f64>> {
        let state = self.local_state(obs, ctx);
        ctx.actions
            .actions()
            .iter()
            .map(|&a| {
                let mut f = state.clone();
                f.extend(self.local_action(ctx, a));
                f
            })
            .collect()
    }

    /// The city the extractor was built over.
    pub fn city(&self) -> &City {
        &self.city
    }
}

/// Cache of the observation-dependent feature terms.
///
/// The serial featurizer recomputes the same global aggregates (fleet
/// pressure, scaled prices, per-region supply/demand, per-station load)
/// once per *candidate row*. Refreshing this cache once per dispatch call,
/// then updating only the entries each commit touches, hoists that work out
/// of the O(taxis × actions) inner loop. Every cached value is the verbatim
/// expression the uncached writers evaluate, through the same helper on
/// both the refresh and the update path, so cached and uncached
/// featurization are bitwise identical against the same view (see the
/// `cached_featurization_is_bitwise_identical` and
/// `updated_cache_equals_a_refreshed_one` tests).
#[derive(Debug, Clone, Default)]
pub struct RegionFeatureCache {
    sin_t: f64,
    cos_t: f64,
    /// `price_now / 1.6`.
    price_now: f64,
    /// `price_next_hour / 1.6`.
    price_next: f64,
    /// Sum of the view's waiting counts.
    total_waiting: u32,
    /// Sum of the view's vacancy counts, kept exact across updates.
    total_vacant: u32,
    /// `(total_waiting / max(total_vacant, 1)).min(3.0)`.
    pressure: f64,
    mean_pe: f64,
    /// `(pf / 50).min(2.0)`.
    pf_term: f64,
    /// Per region: the vacancy count the entry was computed from.
    vacant: Vec<u32>,
    /// Per region: `[demand/10, vacant/10, waiting/10, supply_gap/10]`.
    region: Vec<[f64; 4]>,
    /// Per station: `[free_points/10, load/3]`.
    station: Vec<[f64; 2]>,
}

impl RegionFeatureCache {
    /// An empty cache; buffers grow on the first refresh and are reused
    /// (no steady-state allocation) afterwards.
    pub fn new() -> Self {
        Self::default()
    }

    /// Recomputes every cached term against `obs`. Call before any
    /// `*_cached` featurization against a new view.
    pub fn refresh(&mut self, city: &City, obs: &impl ObservationView) {
        let angle = std::f64::consts::TAU * obs.now().day_fraction();
        self.sin_t = angle.sin();
        self.cos_t = angle.cos();
        self.price_now = obs.price_now() / 1.6;
        self.price_next = obs.price_next_hour() / 1.6;
        self.total_waiting = obs.waiting_per_region().iter().sum();
        self.total_vacant = obs.vacant_per_region().iter().sum();
        self.pressure = Self::pressure(self.total_waiting, self.total_vacant);
        self.mean_pe = obs.mean_pe();
        self.pf_term = (obs.pf() / 50.0).min(2.0);
        self.vacant.clear();
        self.vacant.extend_from_slice(obs.vacant_per_region());
        self.region.clear();
        self.region.extend(
            (0..obs.vacant_per_region().len()).map(|r| Self::region_terms(obs, RegionId(r as u16))),
        );
        self.station.clear();
        self.station.extend(
            (0..obs.free_points_per_station().len())
                .map(|s| Self::station_terms(city, obs, StationId(s as u16))),
        );
    }

    /// Brings the cache up to date after `action` was committed for a taxi
    /// in `origin` and folded into `obs`. A commit changes only the
    /// vacancy of `origin` and of a move's destination, a charge's station
    /// inbound count, and through the vacancy total the pressure term; each
    /// is recomputed from `obs` with the expression the refresh uses, so
    /// the updated cache equals one refreshed against `obs`.
    pub fn update(
        &mut self,
        city: &City,
        obs: &impl ObservationView,
        origin: RegionId,
        action: Action,
    ) {
        match action {
            Action::Stay => return,
            Action::MoveTo(dest) => {
                self.update_region(obs, origin);
                self.update_region(obs, dest);
            }
            Action::Charge(station) => {
                self.update_region(obs, origin);
                self.station[station.index()] = Self::station_terms(city, obs, station);
            }
        }
        self.pressure = Self::pressure(self.total_waiting, self.total_vacant);
    }

    /// Recomputes one region's entry and carries its vacancy change into
    /// the exact total.
    fn update_region(&mut self, obs: &impl ObservationView, region: RegionId) {
        let r = region.index();
        let now = obs.vacant_per_region()[r];
        self.total_vacant = self.total_vacant - self.vacant[r] + now;
        self.vacant[r] = now;
        self.region[r] = Self::region_terms(obs, region);
    }

    fn pressure(total_waiting: u32, total_vacant: u32) -> f64 {
        (f64::from(total_waiting) / f64::from(total_vacant.max(1))).min(3.0)
    }

    // This helper and `station_terms` run once per region and per station
    // in `refresh`; left to the inliner, they made a refresh ~25 % slower.
    #[inline(always)]
    fn region_terms(obs: &impl ObservationView, region: RegionId) -> [f64; 4] {
        let r = region.index();
        [
            obs.predicted_demand()[r] / 10.0,
            f64::from(obs.vacant_per_region()[r]) / 10.0,
            f64::from(obs.waiting_per_region()[r]) / 10.0,
            obs.supply_gap(region) / 10.0,
        ]
    }

    #[inline(always)]
    fn station_terms(city: &City, obs: &impl ObservationView, station: StationId) -> [f64; 2] {
        let s = station.index();
        let points = f64::from(city.station(station).charging_points).max(1.0);
        let occupied = city
            .station(station)
            .charging_points
            .saturating_sub(obs.free_points_per_station()[s]);
        let load =
            (f64::from(obs.queue_per_station()[s] + obs.inbound_per_station()[s] + occupied)
                / points)
                .min(3.0);
        [
            f64::from(obs.free_points_per_station()[s]) / 10.0,
            load / 3.0,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fairmove_city::{CityConfig, SimTime, TimeSlot};
    use fairmove_sim::{ActionSet, SlotObservation, TaxiId};

    fn setup() -> (City, SlotObservation, DecisionContext, FeatureExtractor) {
        let city = City::generate(CityConfig {
            n_regions: 30,
            n_stations: 6,
            total_charging_points: 60,
            ..CityConfig::default()
        });
        let n = city.n_regions();
        let m = city.n_stations();
        let obs = SlotObservation {
            now: SimTime::from_dhm(0, 8, 0),
            slot: TimeSlot(48),
            vacant_per_region: vec![2; n],
            free_points_per_station: city.stations().iter().map(|s| s.charging_points).collect(),
            queue_per_station: vec![0; m],
            inbound_per_station: vec![0; m],
            predicted_demand: vec![1.5; n],
            waiting_per_region: vec![1; n],
            price_now: 1.6,
            price_next_hour: 1.6,
            mean_pe: 40.0,
            pf: 0.0,
        };
        let region = RegionId(0);
        let ctx = DecisionContext {
            taxi: TaxiId(0),
            region,
            soc: 0.7,
            must_charge: false,
            pe_standing: 40.0,
            actions: ActionSet::full(
                &city.region(region).neighbors,
                city.nearest_stations().nearest(region),
            ),
        };
        let fx = FeatureExtractor::new(&city);
        (city, obs, ctx, fx)
    }

    #[test]
    fn dimensions_are_constant() {
        let (_, obs, ctx, fx) = setup();
        assert_eq!(fx.state(&obs, &ctx).len(), STATE_DIM);
        for &a in ctx.actions.actions() {
            assert_eq!(fx.action(&obs, &ctx, a).len(), ACTION_DIM);
            assert_eq!(fx.state_action(&obs, &ctx, a).len(), SA_DIM);
        }
        assert_eq!(fx.local_state(&obs, &ctx).len(), LOCAL_STATE_DIM);
        for &a in ctx.actions.actions() {
            assert_eq!(fx.local_action(&ctx, a).len(), LOCAL_ACTION_DIM);
        }
    }

    #[test]
    fn all_state_actions_matches_action_count() {
        let (_, obs, ctx, fx) = setup();
        let sas = fx.all_state_actions(&obs, &ctx);
        assert_eq!(sas.len(), ctx.actions.len());
        assert!(sas.iter().all(|f| f.len() == SA_DIM));
        let local = fx.all_local_state_actions(&obs, &ctx);
        assert_eq!(local.len(), ctx.actions.len());
        assert!(local.iter().all(|f| f.len() == LOCAL_SA_DIM));
    }

    #[test]
    fn action_type_onehots_are_exclusive() {
        let (_, obs, ctx, fx) = setup();
        for &a in ctx.actions.actions() {
            let f = fx.action(&obs, &ctx, a);
            let onehot: f64 = f[0] + f[1] + f[2];
            assert!((onehot - 1.0).abs() < 1e-12, "action {a:?} onehot {onehot}");
            match a {
                Action::Stay => assert_eq!(f[0], 1.0),
                Action::MoveTo(_) => assert_eq!(f[1], 1.0),
                Action::Charge(_) => assert_eq!(f[2], 1.0),
            }
        }
    }

    #[test]
    fn stay_has_zero_distance_moves_do_not() {
        let (_, obs, ctx, fx) = setup();
        let stay = fx.action(&obs, &ctx, Action::Stay);
        assert_eq!(stay[7], 0.0);
        for &a in ctx.actions.actions() {
            if matches!(a, Action::MoveTo(_) | Action::Charge(_)) {
                let f = fx.action(&obs, &ctx, a);
                assert!(f[7] > 0.0, "{a:?} distance feature is zero");
            }
        }
    }

    #[test]
    fn features_are_bounded() {
        let (_, obs, ctx, fx) = setup();
        for f in fx.all_state_actions(&obs, &ctx) {
            for (i, v) in f.iter().enumerate() {
                assert!(v.is_finite());
                assert!(v.abs() <= 10.0, "feature {i} = {v} out of scale");
            }
        }
    }

    #[test]
    fn time_encoding_is_periodic() {
        let (_, mut obs, ctx, fx) = setup();
        obs.now = SimTime::from_dhm(0, 6, 0);
        let a = fx.state(&obs, &ctx);
        obs.now = SimTime::from_dhm(5, 6, 0);
        let b = fx.state(&obs, &ctx);
        assert!((a[0] - b[0]).abs() < 1e-9);
        assert!((a[1] - b[1]).abs() < 1e-9);
    }

    #[test]
    fn cached_featurization_is_bitwise_identical() {
        let (city, mut obs, ctx, fx) = setup();
        // Make the observation non-uniform so shared subexpressions can't
        // mask an indexing bug.
        for (i, d) in obs.predicted_demand.iter_mut().enumerate() {
            *d = 0.3 * i as f64;
        }
        for (i, w) in obs.waiting_per_region.iter_mut().enumerate() {
            *w = (i % 4) as u32;
        }
        obs.queue_per_station[1] = 3;
        obs.inbound_per_station[2] = 2;
        obs.free_points_per_station[0] = 1;
        obs.price_now = 0.9;
        obs.pf = 23.7;
        let mut cache = RegionFeatureCache::new();
        cache.refresh(&city, &obs);

        let mut got = [0.0; STATE_DIM];
        fx.write_state_cached(&cache, &ctx, &mut got);
        let want = fx.state(&obs, &ctx);
        for i in 0..STATE_DIM {
            assert_eq!(got[i].to_bits(), want[i].to_bits(), "state[{i}]");
        }
        for &a in ctx.actions.actions() {
            let mut got = [0.0; ACTION_DIM];
            fx.write_action_cached(&cache, &ctx, a, &mut got);
            let want = fx.action(&obs, &ctx, a);
            for i in 0..ACTION_DIM {
                assert_eq!(got[i].to_bits(), want[i].to_bits(), "{a:?} action[{i}]");
            }
        }
    }

    /// Every cached term, by bit pattern.
    fn cache_bits(c: &RegionFeatureCache) -> Vec<u64> {
        let scalars = [
            c.sin_t,
            c.cos_t,
            c.price_now,
            c.price_next,
            c.pressure,
            c.mean_pe,
            c.pf_term,
        ];
        let region = c.region.iter().flatten();
        let station = c.station.iter().flatten();
        let totals = [c.total_waiting, c.total_vacant].into_iter();
        scalars
            .iter()
            .chain(region)
            .chain(station)
            .map(|v| v.to_bits())
            .chain(totals.chain(c.vacant.iter().copied()).map(u64::from))
            .collect()
    }

    #[test]
    fn updated_cache_equals_a_refreshed_one() {
        let (city, mut obs, _, _) = setup();
        for (i, w) in obs.waiting_per_region.iter_mut().enumerate() {
            *w = (i % 5) as u32;
        }
        obs.vacant_per_region[3] = 0; // a move out of it clamps
        obs.queue_per_station[1] = 2;
        let mut view = fairmove_sim::WorkingObservation::new(&obs);
        let mut cache = RegionFeatureCache::new();
        cache.refresh(&city, &view);
        let station = |s: u16| Action::Charge(StationId(s));
        let commits = [
            (0, Action::Stay),
            (0, Action::MoveTo(RegionId(5))),
            (3, Action::MoveTo(RegionId(4))),
            (5, station(1)),
            (3, station(2)),
            (7, Action::MoveTo(RegionId(3))),
            (7, station(1)),
        ];
        for (region, action) in commits {
            let ctx = DecisionContext {
                taxi: TaxiId(0),
                region: RegionId(region),
                soc: 0.5,
                must_charge: false,
                pe_standing: 40.0,
                actions: ActionSet::full(&[], &[]),
            };
            crate::cma2c::apply_assignment(&mut view, &ctx, action);
            cache.update(&city, &view, ctx.region, action);
            let mut fresh = RegionFeatureCache::new();
            fresh.refresh(&city, &view);
            assert_eq!(
                cache_bits(&cache),
                cache_bits(&fresh),
                "after {action:?} from region {region}"
            );
        }
    }

    #[test]
    fn local_state_excludes_global_aggregates() {
        // Changing far-away regions' supply must not change TBA's view.
        let (_, mut obs, ctx, fx) = setup();
        let before = fx.local_state(&obs, &ctx);
        obs.vacant_per_region[20] = 99;
        obs.predicted_demand[25] = 99.0;
        let after = fx.local_state(&obs, &ctx);
        assert_eq!(before, after);
        // But the full state does change (global pressure feature).
        let full_before = fx.state(&obs, &ctx);
        obs.waiting_per_region[20] = 99;
        let full_after = fx.state(&obs, &ctx);
        assert_ne!(full_before, full_after);
    }
}
