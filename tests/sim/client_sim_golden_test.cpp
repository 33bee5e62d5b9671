// Golden regression battery for the client-level engine.
//
// The round-by-round ClientRoundMetrics below were captured from the frozen
// pre-SoA array-of-structs engine at a fixed seed and are asserted
// EXACT-equal against the production SoA engine — every field, every round,
// every strategy.  For always-on, naive and synchronized-waves the numbers
// are also bit-identical to the original seed engine (those strategies draw
// nothing from the behavior RNG, so the move to per-bot streams cannot and
// does not change them); for on-off and quit-reenter the per-bot streams
// change the individual draws (not their distribution), so those rows were
// re-captured from that engine at the refactor boundary.  That engine is
// gone; its answers on thirteen further configs survive as the recorded
// digests of MatchesReferenceEngineOnFreshConfigs.
//
// The thread-identity tests then pin the sharding contract: the full result
// (rounds and the deterministic view of the metrics snapshot) is EXPECT_EQ
// across threads 1, 4 and 8.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/client_sim.h"

namespace shuffledef::sim {
namespace {

ClientSimConfig golden_config(const std::string& strategy, bool use_mle) {
  ClientSimConfig cfg;
  cfg.benign = 950;
  cfg.bots = 50;
  cfg.strategy.strategy = strategy;
  cfg.strategy.options.on_probability = 0.4;
  cfg.strategy.options.quit_probability = 0.3;
  cfg.strategy.options.reenter_delay = 2;
  cfg.strategy.options.new_ip_probability = 0.5;
  cfg.strategy.options.wave_period = 6;
  cfg.strategy.options.wave_duty = 0.5;
  cfg.controller.planner = "greedy";
  cfg.controller.replicas = 60;
  cfg.controller.use_mle = use_mle;
  cfg.rounds = 40;
  cfg.seed = 97;
  return cfg;
}

struct GoldenRow {
  Count round, pool_clients, pool_bots, active_attackers, benign_safe,
      repolluted_benign, away_bots, attacked_replicas, saved_clients;
};

void expect_matches_golden(const ClientSimResult& result,
                           const GoldenRow* golden, std::size_t n) {
  ASSERT_EQ(result.rounds.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto& g = golden[i];
    const ClientRoundMetrics want{g.round,
                                  g.pool_clients,
                                  g.pool_bots,
                                  g.active_attackers,
                                  g.benign_safe,
                                  g.repolluted_benign,
                                  g.away_bots,
                                  g.attacked_replicas,
                                  g.saved_clients};
    EXPECT_EQ(result.rounds[i], want) << "round " << g.round;
  }
}

constexpr GoldenRow kGoldenAlwaysOn[] = {
    {1, 1000, 50, 50, 439, 0, 0, 33, 439},
    {2, 561, 50, 50, 727, 0, 0, 28, 727},
    {3, 273, 50, 50, 835, 0, 0, 33, 835},
    {4, 165, 50, 50, 899, 0, 0, 28, 899},
    {5, 101, 50, 50, 926, 0, 0, 33, 926},
    {6, 74, 50, 50, 946, 0, 0, 40, 946},
    {7, 54, 50, 50, 950, 0, 0, 50, 950},
    {8, 50, 50, 50, 950, 0, 0, 50, 950},
    {9, 50, 50, 50, 950, 0, 0, 50, 950},
    {10, 50, 50, 50, 950, 0, 0, 50, 950},
    {11, 50, 50, 50, 950, 0, 0, 50, 950},
    {12, 50, 50, 50, 950, 0, 0, 50, 950},
    {13, 50, 50, 50, 950, 0, 0, 50, 950},
    {14, 50, 50, 50, 950, 0, 0, 50, 950},
    {15, 50, 50, 50, 950, 0, 0, 50, 950},
    {16, 50, 50, 50, 950, 0, 0, 50, 950},
    {17, 50, 50, 50, 950, 0, 0, 50, 950},
    {18, 50, 50, 50, 950, 0, 0, 50, 950},
    {19, 50, 50, 50, 950, 0, 0, 50, 950},
    {20, 50, 50, 50, 950, 0, 0, 50, 950},
    {21, 50, 50, 50, 950, 0, 0, 50, 950},
    {22, 50, 50, 50, 950, 0, 0, 50, 950},
    {23, 50, 50, 50, 950, 0, 0, 50, 950},
    {24, 50, 50, 50, 950, 0, 0, 50, 950},
    {25, 50, 50, 50, 950, 0, 0, 50, 950},
    {26, 50, 50, 50, 950, 0, 0, 50, 950},
    {27, 50, 50, 50, 950, 0, 0, 50, 950},
    {28, 50, 50, 50, 950, 0, 0, 50, 950},
    {29, 50, 50, 50, 950, 0, 0, 50, 950},
    {30, 50, 50, 50, 950, 0, 0, 50, 950},
    {31, 50, 50, 50, 950, 0, 0, 50, 950},
    {32, 50, 50, 50, 950, 0, 0, 50, 950},
    {33, 50, 50, 50, 950, 0, 0, 50, 950},
    {34, 50, 50, 50, 950, 0, 0, 50, 950},
    {35, 50, 50, 50, 950, 0, 0, 50, 950},
    {36, 50, 50, 50, 950, 0, 0, 50, 950},
    {37, 50, 50, 50, 950, 0, 0, 50, 950},
    {38, 50, 50, 50, 950, 0, 0, 50, 950},
    {39, 50, 50, 50, 950, 0, 0, 50, 950},
    {40, 50, 50, 50, 950, 0, 0, 50, 950},
};

constexpr GoldenRow kGoldenOnOff[] = {
    {1, 1000, 50, 20, 690, 0, 0, 17, 711},
    {2, 442, 42, 26, 812, 140, 0, 21, 831},
    {3, 272, 42, 18, 887, 92, 0, 15, 908},
    {4, 139, 37, 16, 924, 39, 0, 15, 951},
    {5, 108, 34, 17, 937, 48, 0, 16, 968},
    {6, 69, 34, 23, 946, 22, 0, 21, 970},
    {7, 55, 38, 22, 950, 13, 0, 22, 978},
    {8, 40, 32, 18, 950, 8, 0, 18, 982},
    {9, 30, 28, 17, 950, 2, 0, 17, 983},
    {10, 32, 31, 19, 950, 1, 0, 19, 981},
    {11, 30, 30, 18, 950, 0, 0, 18, 982},
    {12, 35, 32, 21, 950, 3, 0, 21, 979},
    {13, 39, 39, 28, 950, 0, 0, 28, 972},
    {14, 38, 38, 18, 950, 0, 0, 18, 982},
    {15, 35, 35, 27, 950, 0, 0, 27, 973},
    {16, 41, 41, 21, 950, 0, 0, 21, 979},
    {17, 31, 31, 21, 950, 0, 0, 21, 979},
    {18, 32, 32, 17, 950, 0, 0, 17, 983},
    {19, 25, 25, 16, 950, 0, 0, 16, 984},
    {20, 30, 30, 22, 950, 0, 0, 22, 978},
    {21, 37, 37, 27, 950, 0, 0, 27, 973},
    {22, 39, 39, 23, 950, 0, 0, 23, 977},
    {23, 32, 32, 18, 950, 0, 0, 18, 982},
    {24, 30, 30, 21, 950, 0, 0, 21, 979},
    {25, 33, 33, 25, 950, 0, 0, 25, 975},
    {26, 30, 30, 15, 950, 0, 0, 15, 985},
    {27, 35, 35, 26, 950, 0, 0, 26, 974},
    {28, 31, 31, 16, 950, 0, 0, 16, 984},
    {29, 31, 31, 20, 950, 0, 0, 20, 980},
    {30, 30, 30, 19, 950, 0, 0, 19, 981},
    {31, 34, 34, 25, 950, 0, 0, 25, 975},
    {32, 37, 37, 22, 950, 0, 0, 22, 978},
    {33, 31, 31, 20, 950, 0, 0, 20, 980},
    {34, 30, 30, 18, 950, 0, 0, 18, 982},
    {35, 31, 31, 19, 950, 0, 0, 19, 981},
    {36, 27, 27, 10, 950, 0, 0, 10, 990},
    {37, 30, 30, 27, 950, 0, 0, 27, 973},
    {38, 39, 39, 25, 950, 0, 0, 25, 975},
    {39, 35, 35, 21, 950, 0, 0, 21, 979},
    {40, 35, 35, 21, 950, 0, 0, 21, 979},
};

constexpr GoldenRow kGoldenQuitReenter[] = {
    {1, 1000, 50, 50, 439, 0, 0, 33, 439},
    {2, 542, 31, 31, 736, 0, 19, 27, 736},
    {3, 253, 39, 20, 898, 0, 11, 17, 908},
    {4, 73, 21, 10, 941, 0, 19, 8, 960},
    {5, 77, 38, 19, 941, 30, 3, 16, 964},
    {6, 44, 35, 32, 950, 0, 9, 32, 959},
    {7, 37, 37, 28, 950, 0, 12, 28, 960},
    {8, 36, 36, 24, 950, 0, 9, 24, 967},
    {9, 29, 29, 20, 950, 0, 9, 20, 971},
    {10, 37, 37, 28, 950, 0, 4, 28, 968},
    {11, 31, 31, 27, 950, 0, 10, 27, 963},
    {12, 40, 40, 30, 950, 0, 6, 30, 964},
    {13, 33, 33, 27, 950, 0, 7, 27, 966},
    {14, 38, 38, 31, 950, 0, 6, 31, 963},
    {15, 34, 34, 28, 950, 0, 9, 28, 963},
    {16, 36, 36, 27, 950, 0, 8, 27, 965},
    {17, 33, 33, 25, 950, 0, 8, 25, 967},
    {18, 34, 34, 26, 950, 0, 8, 26, 966},
    {19, 31, 31, 23, 950, 0, 11, 23, 966},
    {20, 34, 34, 23, 950, 0, 8, 23, 969},
    {21, 31, 31, 23, 950, 0, 8, 23, 969},
    {22, 36, 36, 28, 950, 0, 6, 28, 966},
    {23, 33, 33, 27, 950, 0, 9, 27, 964},
    {24, 34, 34, 25, 950, 0, 10, 25, 965},
    {25, 34, 34, 24, 950, 0, 7, 24, 969},
    {26, 35, 35, 28, 950, 0, 5, 28, 967},
    {27, 34, 34, 29, 950, 0, 9, 29, 962},
    {28, 39, 39, 30, 950, 0, 6, 30, 964},
    {29, 34, 34, 28, 950, 0, 7, 28, 965},
    {30, 35, 35, 28, 950, 0, 9, 28, 963},
    {31, 28, 28, 19, 950, 0, 15, 19, 966},
    {32, 33, 33, 18, 950, 0, 8, 18, 974},
    {33, 28, 28, 20, 950, 0, 7, 20, 973},
    {34, 37, 37, 30, 950, 0, 5, 30, 965},
    {35, 35, 35, 30, 950, 0, 8, 30, 962},
    {36, 34, 34, 26, 950, 0, 11, 26, 963},
    {37, 38, 38, 27, 950, 0, 4, 27, 969},
    {38, 29, 29, 25, 950, 0, 10, 25, 965},
    {39, 40, 40, 30, 950, 0, 6, 30, 964},
    {40, 31, 31, 25, 950, 0, 9, 25, 966},
};

constexpr GoldenRow kGoldenNaive[] = {
    {1, 950, 0, 0, 950, 0, 0, 0, 950},
    {2, 0, 0, 0, 950, 0, 0, 0, 950},
    {3, 0, 0, 0, 950, 0, 0, 0, 950},
    {4, 0, 0, 0, 950, 0, 0, 0, 950},
    {5, 0, 0, 0, 950, 0, 0, 0, 950},
    {6, 0, 0, 0, 950, 0, 0, 0, 950},
    {7, 0, 0, 0, 950, 0, 0, 0, 950},
    {8, 0, 0, 0, 950, 0, 0, 0, 950},
    {9, 0, 0, 0, 950, 0, 0, 0, 950},
    {10, 0, 0, 0, 950, 0, 0, 0, 950},
    {11, 0, 0, 0, 950, 0, 0, 0, 950},
    {12, 0, 0, 0, 950, 0, 0, 0, 950},
    {13, 0, 0, 0, 950, 0, 0, 0, 950},
    {14, 0, 0, 0, 950, 0, 0, 0, 950},
    {15, 0, 0, 0, 950, 0, 0, 0, 950},
    {16, 0, 0, 0, 950, 0, 0, 0, 950},
    {17, 0, 0, 0, 950, 0, 0, 0, 950},
    {18, 0, 0, 0, 950, 0, 0, 0, 950},
    {19, 0, 0, 0, 950, 0, 0, 0, 950},
    {20, 0, 0, 0, 950, 0, 0, 0, 950},
    {21, 0, 0, 0, 950, 0, 0, 0, 950},
    {22, 0, 0, 0, 950, 0, 0, 0, 950},
    {23, 0, 0, 0, 950, 0, 0, 0, 950},
    {24, 0, 0, 0, 950, 0, 0, 0, 950},
    {25, 0, 0, 0, 950, 0, 0, 0, 950},
    {26, 0, 0, 0, 950, 0, 0, 0, 950},
    {27, 0, 0, 0, 950, 0, 0, 0, 950},
    {28, 0, 0, 0, 950, 0, 0, 0, 950},
    {29, 0, 0, 0, 950, 0, 0, 0, 950},
    {30, 0, 0, 0, 950, 0, 0, 0, 950},
    {31, 0, 0, 0, 950, 0, 0, 0, 950},
    {32, 0, 0, 0, 950, 0, 0, 0, 950},
    {33, 0, 0, 0, 950, 0, 0, 0, 950},
    {34, 0, 0, 0, 950, 0, 0, 0, 950},
    {35, 0, 0, 0, 950, 0, 0, 0, 950},
    {36, 0, 0, 0, 950, 0, 0, 0, 950},
    {37, 0, 0, 0, 950, 0, 0, 0, 950},
    {38, 0, 0, 0, 950, 0, 0, 0, 950},
    {39, 0, 0, 0, 950, 0, 0, 0, 950},
    {40, 0, 0, 0, 950, 0, 0, 0, 950},
};

constexpr GoldenRow kGoldenWaves[] = {
    {1, 1000, 50, 50, 439, 0, 0, 33, 439},
    {2, 561, 50, 50, 727, 0, 0, 28, 727},
    {3, 273, 50, 50, 835, 0, 0, 33, 835},
    {4, 165, 50, 0, 950, 0, 0, 0, 1000},
    {5, 0, 0, 0, 950, 0, 0, 0, 1000},
    {6, 0, 0, 0, 950, 0, 0, 0, 1000},
    {7, 101, 50, 50, 926, 51, 0, 33, 926},
    {8, 74, 50, 50, 946, 0, 0, 40, 946},
    {9, 54, 50, 50, 950, 0, 0, 50, 950},
    {10, 50, 50, 0, 950, 0, 0, 0, 1000},
    {11, 0, 0, 0, 950, 0, 0, 0, 1000},
    {12, 0, 0, 0, 950, 0, 0, 0, 1000},
    {13, 50, 50, 50, 950, 0, 0, 50, 950},
    {14, 50, 50, 50, 950, 0, 0, 50, 950},
    {15, 50, 50, 50, 950, 0, 0, 50, 950},
    {16, 50, 50, 0, 950, 0, 0, 0, 1000},
    {17, 0, 0, 0, 950, 0, 0, 0, 1000},
    {18, 0, 0, 0, 950, 0, 0, 0, 1000},
    {19, 50, 50, 50, 950, 0, 0, 50, 950},
    {20, 50, 50, 50, 950, 0, 0, 50, 950},
    {21, 50, 50, 50, 950, 0, 0, 50, 950},
    {22, 50, 50, 0, 950, 0, 0, 0, 1000},
    {23, 0, 0, 0, 950, 0, 0, 0, 1000},
    {24, 0, 0, 0, 950, 0, 0, 0, 1000},
    {25, 50, 50, 50, 950, 0, 0, 50, 950},
    {26, 50, 50, 50, 950, 0, 0, 50, 950},
    {27, 50, 50, 50, 950, 0, 0, 50, 950},
    {28, 50, 50, 0, 950, 0, 0, 0, 1000},
    {29, 0, 0, 0, 950, 0, 0, 0, 1000},
    {30, 0, 0, 0, 950, 0, 0, 0, 1000},
    {31, 50, 50, 50, 950, 0, 0, 50, 950},
    {32, 50, 50, 50, 950, 0, 0, 50, 950},
    {33, 50, 50, 50, 950, 0, 0, 50, 950},
    {34, 50, 50, 0, 950, 0, 0, 0, 1000},
    {35, 0, 0, 0, 950, 0, 0, 0, 1000},
    {36, 0, 0, 0, 950, 0, 0, 0, 1000},
    {37, 50, 50, 50, 950, 0, 0, 50, 950},
    {38, 50, 50, 50, 950, 0, 0, 50, 950},
    {39, 50, 50, 50, 950, 0, 0, 50, 950},
    {40, 50, 50, 0, 950, 0, 0, 0, 1000},
};

constexpr GoldenRow kGoldenAlwaysOnMle[] = {
    {1, 1000, 50, 50, 342, 0, 0, 22, 342},
    {2, 658, 50, 50, 637, 0, 0, 33, 637},
    {3, 363, 50, 50, 802, 0, 0, 33, 802},
    {4, 198, 50, 50, 883, 0, 0, 33, 883},
    {5, 117, 50, 50, 925, 0, 0, 38, 925},
    {6, 75, 50, 50, 945, 0, 0, 40, 945},
    {7, 55, 50, 50, 950, 0, 0, 50, 950},
    {8, 50, 50, 50, 950, 0, 0, 50, 950},
    {9, 50, 50, 50, 950, 0, 0, 50, 950},
    {10, 50, 50, 50, 950, 0, 0, 50, 950},
    {11, 50, 50, 50, 950, 0, 0, 50, 950},
    {12, 50, 50, 50, 950, 0, 0, 50, 950},
    {13, 50, 50, 50, 950, 0, 0, 50, 950},
    {14, 50, 50, 50, 950, 0, 0, 50, 950},
    {15, 50, 50, 50, 950, 0, 0, 50, 950},
    {16, 50, 50, 50, 950, 0, 0, 50, 950},
    {17, 50, 50, 50, 950, 0, 0, 50, 950},
    {18, 50, 50, 50, 950, 0, 0, 50, 950},
    {19, 50, 50, 50, 950, 0, 0, 50, 950},
    {20, 50, 50, 50, 950, 0, 0, 50, 950},
    {21, 50, 50, 50, 950, 0, 0, 50, 950},
    {22, 50, 50, 50, 950, 0, 0, 50, 950},
    {23, 50, 50, 50, 950, 0, 0, 50, 950},
    {24, 50, 50, 50, 950, 0, 0, 50, 950},
    {25, 50, 50, 50, 950, 0, 0, 50, 950},
    {26, 50, 50, 50, 950, 0, 0, 50, 950},
    {27, 50, 50, 50, 950, 0, 0, 50, 950},
    {28, 50, 50, 50, 950, 0, 0, 50, 950},
    {29, 50, 50, 50, 950, 0, 0, 50, 950},
    {30, 50, 50, 50, 950, 0, 0, 50, 950},
    {31, 50, 50, 50, 950, 0, 0, 50, 950},
    {32, 50, 50, 50, 950, 0, 0, 50, 950},
    {33, 50, 50, 50, 950, 0, 0, 50, 950},
    {34, 50, 50, 50, 950, 0, 0, 50, 950},
    {35, 50, 50, 50, 950, 0, 0, 50, 950},
    {36, 50, 50, 50, 950, 0, 0, 50, 950},
    {37, 50, 50, 50, 950, 0, 0, 50, 950},
    {38, 50, 50, 50, 950, 0, 0, 50, 950},
    {39, 50, 50, 50, 950, 0, 0, 50, 950},
    {40, 50, 50, 50, 950, 0, 0, 50, 950},
};

template <std::size_t N>
void run_golden_case(const std::string& strategy, bool use_mle,
                     const GoldenRow (&golden)[N]) {
  auto cfg = golden_config(strategy, use_mle);
  cfg.threads = 1;
  cfg.audit = true;
  expect_matches_golden(ClientLevelSimulator(cfg).run(), golden, N);
}

TEST(ClientSimGolden, AlwaysOn) {
  run_golden_case("always-on", false, kGoldenAlwaysOn);
}
TEST(ClientSimGolden, OnOff) {
  run_golden_case("on-off", false, kGoldenOnOff);
}
TEST(ClientSimGolden, QuitReenter) {
  run_golden_case("quit-reenter", false, kGoldenQuitReenter);
}
TEST(ClientSimGolden, Naive) {
  run_golden_case("naive", false, kGoldenNaive);
}
TEST(ClientSimGolden, SynchronizedWaves) {
  run_golden_case("synchronized-waves", false, kGoldenWaves);
}
TEST(ClientSimGolden, AlwaysOnWithMle) {
  run_golden_case("always-on", true, kGoldenAlwaysOnMle);
}

// The sharding determinism contract: the entire result — every round row
// and the deterministic view of the metrics snapshot — is bit-identical at
// every thread count.
TEST(ClientSimGolden, ThreadCountsAreBitIdentical) {
  for (const char* strategy :
       {"always-on", "on-off", "quit-reenter", "naive", "synchronized-waves",
        "coupon-collector", "churn"}) {
    auto cfg = golden_config(strategy, true);
    cfg.threads = 1;
    const auto serial = ClientLevelSimulator(cfg).run();
    for (const Count threads : {Count{4}, Count{8}}) {
      cfg.threads = threads;
      const auto sharded = ClientLevelSimulator(cfg).run();
      SCOPED_TRACE(std::string(strategy) + " threads " +
                   std::to_string(threads));
      ASSERT_EQ(serial.rounds.size(), sharded.rounds.size());
      for (std::size_t i = 0; i < serial.rounds.size(); ++i) {
        EXPECT_EQ(serial.rounds[i], sharded.rounds[i]) << "round " << i + 1;
      }
      EXPECT_EQ(serial.benign_total, sharded.benign_total);
      EXPECT_TRUE(serial.metrics.deterministic_equal(sharded.metrics));
    }
  }
}

// FNV-1a-64 over every ClientRoundMetrics field of every round, each as 8
// little-endian bytes (shuffle_declined as 0 or 1).
std::uint64_t rounds_digest(const std::vector<ClientRoundMetrics>& rounds) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::int64_t v) {
    const auto u = static_cast<std::uint64_t>(v);
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (u >> (8 * byte)) & 0xffu;
      h *= 0x100000001b3ULL;
    }
  };
  for (const auto& r : rounds) {
    for (const Count v : {r.round, r.pool_clients, r.pool_bots,
                          r.active_attackers, r.benign_safe,
                          r.repolluted_benign, r.away_bots,
                          r.attacked_replicas, r.saved_clients}) {
      mix(v);
    }
    mix(r.shuffle_declined ? 1 : 0);
  }
  return h;
}

// A config other than the pinned golden one (different population, replica
// count and seed), with MLE estimation on for even seeds, audited and
// sharded over three threads.
ClientSimConfig fresh_config(const std::string& strategy, std::uint64_t seed) {
  ClientSimConfig cfg;
  cfg.benign = 1700;
  cfg.bots = 90;
  cfg.strategy.strategy = strategy;
  cfg.strategy.options.on_probability = 0.55;
  cfg.strategy.options.quit_probability = 0.45;
  cfg.strategy.options.reenter_delay = 3;
  cfg.strategy.options.new_ip_probability = 0.7;
  cfg.strategy.options.wave_period = 4;
  cfg.strategy.options.wave_duty = 0.4;
  cfg.controller.planner = "greedy";
  cfg.controller.replicas = 48;
  cfg.controller.use_mle = (seed % 2) == 0;
  cfg.rounds = 50;
  cfg.seed = seed;
  cfg.threads = 3;
  cfg.audit = true;
  return cfg;
}

struct Fresh {
  const char* strategy;
  std::uint64_t seed;
  std::uint64_t digest;
};

void expect_fresh_digest(const Fresh& f) {
  const auto result =
      ClientLevelSimulator(fresh_config(f.strategy, f.seed)).run();
  SCOPED_TRACE(std::string(f.strategy) + " seed " + std::to_string(f.seed));
  ASSERT_EQ(result.rounds.size(), 50u);
  EXPECT_EQ(rounds_digest(result.rounds), f.digest);
}

// Differential against the frozen pre-SoA engine on fresh_config, so the SoA
// engine cannot overfit the golden scenario, plus the three always-on scale
// configs of bench/abl_client_scale.  The digests were recorded from that
// engine, which the SoA engine matched on all thirteen when it was deleted.
TEST(ClientSimGolden, MatchesReferenceEngineOnFreshConfigs) {
  constexpr Fresh kFresh[] = {
      {"always-on", 31, 0xbc22aee9869f073aULL},
      {"always-on", 1234, 0xf40c8aa2fd1c0a00ULL},
      {"on-off", 31, 0x55eaeb599a3e60e6ULL},
      {"on-off", 1234, 0x69c60060890c5ac5ULL},
      {"quit-reenter", 31, 0xd5e256a01702ce0bULL},
      {"quit-reenter", 1234, 0xa27316b4cd7305b3ULL},
      {"naive", 31, 0x1d74351231fd3f90ULL},
      {"naive", 1234, 0x1d74351231fd3f90ULL},
      {"synchronized-waves", 31, 0x09354ccfc9b1cecbULL},
      {"synchronized-waves", 1234, 0xb5f315b8ca030b8dULL},
  };
  for (const auto& f : kFresh) expect_fresh_digest(f);

  struct Scale {
    Count clients;
    std::uint64_t digest;
  };
  constexpr Scale kScale[] = {
      {10000, 0x6718e1df36a811d8ULL},
      {100000, 0x336f4e870f9def1fULL},
      {1000000, 0xdda07bf80c1101c1ULL},
  };
  for (const auto& s : kScale) {
    ClientSimConfig cfg;
    cfg.bots = std::max<Count>(10, s.clients / 2000);
    cfg.benign = s.clients - cfg.bots;
    cfg.strategy.strategy = "always-on";
    cfg.controller.planner = "greedy";
    cfg.controller.replicas = std::max<Count>(50, 2 * cfg.bots);
    cfg.controller.use_mle = true;
    cfg.rounds = 50;
    cfg.seed = 5;
    cfg.threads = 1;
    const auto soa = ClientLevelSimulator(cfg).run();
    SCOPED_TRACE("scale " + std::to_string(s.clients));
    ASSERT_EQ(soa.rounds.size(), 50u);
    EXPECT_EQ(rounds_digest(soa.rounds), s.digest);
  }
}

// The two adaptive adversaries on fresh_config.  Digests recorded from the
// engine whose re-pollution pass scanned every saved-group record; the
// coupon-collector runs re-pollute 854 (seed 31) and 971 (seed 1234) benign
// clients, so they pin which saved groups a waking bot drags back and in
// what order.
TEST(ClientSimGolden, AdaptiveStrategiesMatchRecordedDigests) {
  constexpr Fresh kAdaptive[] = {
      {"coupon-collector", 31, 0x128dc28c575b161cULL},
      {"coupon-collector", 1234, 0xe36f6987a96a64c2ULL},
      {"churn", 31, 0xc7d8351f879721d6ULL},
      {"churn", 1234, 0x1a4cfa6233a497caULL},
  };
  for (const auto& f : kAdaptive) expect_fresh_digest(f);
}

}  // namespace
}  // namespace shuffledef::sim
