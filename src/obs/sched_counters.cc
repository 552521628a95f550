#include "src/obs/sched_counters.h"

#include <cstdio>

#include "src/obs/json_check.h"

namespace nestsim {

void SchedCounters::Add(const SchedCounters& other) {
  for (int i = 0; i < kNumPlacementPaths; ++i) {
    placements[i] += other.placements[i];
  }
  fork_placements += other.fork_placements;
  wake_placements += other.wake_placements;
  reservation_collisions += other.reservation_collisions;
  nest_promotions += other.nest_promotions;
  nest_demotions += other.nest_demotions;
  nest_compactions += other.nest_compactions;
  nest_reserve_adds += other.nest_reserve_adds;
  nest_reserve_full_drops += other.nest_reserve_full_drops;
  spin_starts += other.spin_starts;
  spin_converted += other.spin_converted;
  spin_expired += other.spin_expired;
  migrations_newidle += other.migrations_newidle;
  migrations_periodic += other.migrations_periodic;
  migrations_policy += other.migrations_policy;
  freq_ramps_up += other.freq_ramps_up;
  freq_ramps_down += other.freq_ramps_down;
  wc_violation_ns += other.wc_violation_ns;
  wc_violation_episodes += other.wc_violation_episodes;
  cache_warm_hits += other.cache_warm_hits;
  cache_cold_misses += other.cache_cold_misses;
  cache_cross_die_migrations += other.cache_cross_die_migrations;
  faults_injected += other.faults_injected;
  tasks_evacuated += other.tasks_evacuated;
  replica_quorum_joins += other.replica_quorum_joins;
  budget_throttle_ticks += other.budget_throttle_ticks;
}

uint64_t SchedCounters::NestHits() const {
  return placements[static_cast<int>(PlacementPath::kNestPrimary)] +
         placements[static_cast<int>(PlacementPath::kNestReserve)] +
         placements[static_cast<int>(PlacementPath::kNestAttached)] +
         placements[static_cast<int>(PlacementPath::kNestPrevCore)] +
         placements[static_cast<int>(PlacementPath::kNestImpatient)] +
         placements[static_cast<int>(PlacementPath::kNestCacheWarm)] +
         placements[static_cast<int>(PlacementPath::kNestPredicted)] +
         placements[static_cast<int>(PlacementPath::kNestOracleWarm)];
}

uint64_t SchedCounters::NestMisses() const {
  return placements[static_cast<int>(PlacementPath::kNestCfsFallback)];
}

std::string NestSummary(const SchedCounters& c) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "nest hit/miss %llu/%llu  promote/demote/compact %llu/%llu/%llu  "
                "spin ok/exp %llu/%llu  collide %llu",
                static_cast<unsigned long long>(c.NestHits()),
                static_cast<unsigned long long>(c.NestMisses()),
                static_cast<unsigned long long>(c.nest_promotions),
                static_cast<unsigned long long>(c.nest_demotions),
                static_cast<unsigned long long>(c.nest_compactions),
                static_cast<unsigned long long>(c.spin_converted),
                static_cast<unsigned long long>(c.spin_expired),
                static_cast<unsigned long long>(c.reservation_collisions));
  return buf;
}

std::string SchedCountersJson(const SchedCounters& c) {
  std::string out;
  JsonWriter w(&out);
  w.BeginObject().Key("placements").BeginObject();
  for (int i = 0; i < kNumPlacementPaths; ++i) {
    // The cache-aware, fault-evacuation, predictor, and oracle paths only
    // joined in later PRs; omitting them when unused keeps earlier golden
    // digests byte-identical.
    if ((static_cast<PlacementPath>(i) == PlacementPath::kNestCacheWarm ||
         static_cast<PlacementPath>(i) == PlacementPath::kFaultEvacuate ||
         static_cast<PlacementPath>(i) == PlacementPath::kNestPredicted ||
         static_cast<PlacementPath>(i) == PlacementPath::kNestOracleWarm) &&
        c.placements[i] == 0) {
      continue;
    }
    w.Key(PlacementPathName(static_cast<PlacementPath>(i))).U64(c.placements[i]);
  }
  w.EndObject();
  w.Key("fork_placements").U64(c.fork_placements);
  w.Key("wake_placements").U64(c.wake_placements);
  w.Key("reservation_collisions").U64(c.reservation_collisions);
  w.Key("nest_promotions").U64(c.nest_promotions);
  w.Key("nest_demotions").U64(c.nest_demotions);
  w.Key("nest_compactions").U64(c.nest_compactions);
  w.Key("nest_reserve_adds").U64(c.nest_reserve_adds);
  w.Key("nest_reserve_full_drops").U64(c.nest_reserve_full_drops);
  w.Key("spin_starts").U64(c.spin_starts);
  w.Key("spin_converted").U64(c.spin_converted);
  w.Key("spin_expired").U64(c.spin_expired);
  w.Key("migrations_newidle").U64(c.migrations_newidle);
  w.Key("migrations_periodic").U64(c.migrations_periodic);
  w.Key("migrations_policy").U64(c.migrations_policy);
  w.Key("freq_ramps_up").U64(c.freq_ramps_up);
  w.Key("freq_ramps_down").U64(c.freq_ramps_down);
  w.Key("wc_violation_ns").U64(c.wc_violation_ns);
  w.Key("wc_violation_episodes").U64(c.wc_violation_episodes);
  // The cache block is schema-stable *among runs that track warmth*; runs
  // without the model omit it entirely so their digests predate the model.
  if (c.cache_warm_hits != 0 || c.cache_cold_misses != 0 ||
      c.cache_cross_die_migrations != 0) {
    w.Key("cache_warm_hits").U64(c.cache_warm_hits);
    w.Key("cache_cold_misses").U64(c.cache_cold_misses);
    w.Key("cache_cross_die_migrations").U64(c.cache_cross_die_migrations);
  }
  // Same convention for the fault/budget block (src/fault/): present only on
  // runs where faults, replicas, or a power budget actually fired.
  if (c.faults_injected != 0 || c.tasks_evacuated != 0 || c.replica_quorum_joins != 0 ||
      c.budget_throttle_ticks != 0) {
    w.Key("faults_injected").U64(c.faults_injected);
    w.Key("tasks_evacuated").U64(c.tasks_evacuated);
    w.Key("replica_quorum_joins").U64(c.replica_quorum_joins);
    w.Key("budget_throttle_ticks").U64(c.budget_throttle_ticks);
  }
  w.EndObject();
  return out;
}

}  // namespace nestsim
