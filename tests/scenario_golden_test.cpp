// Golden digests of the committed scenario pack: each scenarios/*.json
// file's --tiny cells must reproduce the run_digests pinned here. The
// scenario files are the only description of these experiments, so this
// is the gate that a schema, mapping or simulator change left them
// byte-identical. One TEST per file, so `ctest -j` runs them side by side.
//
// Re-baselining on purpose: run `paraleon_run scenarios/FILE --tiny`,
// paste the printed digests below as 0x literals, and say in CHANGES.md
// why they moved.
#include <gtest/gtest.h>

#include <cstdint>
#include <ios>
#include <string>
#include <utility>
#include <vector>

#include "scenario/grid_runner.hpp"
#include "scenario/scenario.hpp"

#ifndef PARALEON_SCENARIO_DIR
#define PARALEON_SCENARIO_DIR "scenarios"
#endif

namespace paraleon::scenario {
namespace {

std::string pack_path(const std::string& file) {
  return std::string(PARALEON_SCENARIO_DIR) + "/" + file;
}

/// Runs the listed --tiny cells (row-major cell index -> golden digest)
/// of one committed scenario file and compares their run_digests.
void expect_golden(
    const std::string& file,
    const std::vector<std::pair<std::size_t, std::uint64_t>>& golden) {
  const Scenario sc = load_scenario_file(pack_path(file), /*tiny=*/true);
  const std::vector<GridCell> cells = expand_grid(sc);
  for (const auto& [index, digest] : golden) {
    ASSERT_LT(index, cells.size()) << file;
    const std::uint64_t got = run_cell(cells[index], {}).digest;
    EXPECT_EQ(got, digest) << file << " cell " << index << " ("
                           << cells[index].coords_label()
                           << ") moved its run_digest to " << std::hex
                           << got;
  }
}

TEST(ScenarioGolden, Fig8Influx) {
  expect_golden("fig8_influx.json", {{0, 0x604992f50220dfd2},    // default
                                     {1, 0xd0ceb45da1324d97},    // expert
                                     {2, 0x3259ba768dd71667},    // acc
                                     {3, 0x7879c2b99b2dc562},    // dcqcn_plus
                                     {4, 0xd80b5525d90defaf}});  // paraleon
}

// The workers=8 column only: the 16- and 32-worker tiny cells take ~8 s
// serial, too long for a unit test.
TEST(ScenarioGolden, Fig13Alltoall) {
  expect_golden("fig13_alltoall.json",
                {{0, 0xf00c7a240bbaade8},    // default x 8
                 {3, 0xafaed05449ad7786},    // expert x 8
                 {6, 0xcf21d41b2e7412b1}});  // paraleon x 8
}

TEST(ScenarioGolden, MixedMultitenant) {
  expect_golden("mixed_multitenant.json", {{0, 0xb8dc0766ccf45c31},
                                           {1, 0x88e9f1f96d64ac27},
                                           {2, 0x707d018bc89632ee},
                                           {3, 0xa1fd25a786f6cb47},
                                           {4, 0x1fb137ac5623b7d2},
                                           {5, 0xaa716519d287288e},
                                           {6, 0x65ac32e44347fd35},
                                           {7, 0x020f03e21c84e643}});
}

// The per-figure packs: a few cheap --tiny cells each, so every file's
// mapping is pinned while each test stays under ~2 s.
TEST(ScenarioGolden, Table2AlltoallPresets) {
  expect_golden("table2_alltoall_presets.json",
                {{0, 0xa7625e77017f7371},    // default x 64 KB
                 {5, 0x88ca38563c4cf799}});  // expert x 64 KB
}

TEST(ScenarioGolden, Fig5SingleParam) {
  expect_golden("fig5_single_param.json",
                {{0, 0x27d9afb58df56128},    // rate_reduce_monitor_period 1
                 {5, 0x71bce8af2aa8bfd3},    // rpg_time_reset 30
                 {14, 0x5b59f6e7ff7add9e}});  // kmax 640
}

TEST(ScenarioGolden, Fig7FctFbHadoop) {
  expect_golden("fig7_fct_fb_hadoop.json", {{4, 0x6b97c178a44511c7}});
}

TEST(ScenarioGolden, Fig7FctAlltoall) {
  expect_golden("fig7_fct_alltoall.json", {{4, 0x31e110c4cd7540d3}});
}

TEST(ScenarioGolden, Fig9Pretraining) {
  expect_golden("fig9_pretrain_alltoall.json", {{0, 0xa75addfb6ef93234}});
  expect_golden("fig9_pretrain_fb_hadoop.json", {{0, 0xa96c75bb6bff2f77}});
}

TEST(ScenarioGolden, Fig9Influx) {
  expect_golden("fig9_influx.json", {{2, 0x044b57081f29f2c3}});
}

TEST(ScenarioGolden, Fig10Accuracy) {
  expect_golden("fig10_accuracy.json",
                {{0, 0x27ca182cc5f64e05},    // netflow x 0.2
                 {6, 0x1ed60a5e3a735841}});  // paraleon x 0.2
}

TEST(ScenarioGolden, Fig10Fct) {
  expect_golden("fig10_fct.json", {{0, 0xc4d0ca6fb3a78b22}});  // no_fsd
}

TEST(ScenarioGolden, Fig11Interval) {
  expect_golden("fig11_interval.json",
                {{0, 0x2e60cdb0fae92d42},    // 500 us x naive sketch
                 {1, 0xcabb531ae5e04f2b}});  // 500 us x paraleon
}

TEST(ScenarioGolden, Fig12SaAblation) {
  expect_golden("fig12_fb_hadoop.json", {{0, 0xe26d389d5fb87122},
                                         {1, 0x7a7d5f0180063b37}});
  expect_golden("fig12_llm.json", {{0, 0x8a22c3d4c3b82ef6},
                                   {1, 0x1b756808cbd1a12c}});
  expect_golden("fig12_shadow_window.json", {{0, 0xfba336c7d7d12eba}});
}

TEST(ScenarioGolden, Fig14RpcInflux) {
  expect_golden("fig14_rpc_influx.json", {{0, 0x42b0f66c91494c82},
                                          {1, 0xd54dea327824de9a},
                                          {2, 0x82458bae07225294}});
}

TEST(ScenarioGolden, Table4Overheads) {
  expect_golden("table4_overheads.json", {{0, 0x629679dac36ff963}});
}

TEST(ScenarioGolden, AblationEngineering) {
  expect_golden("ablation_engineering.json",
                {{0, 0xec4dbd9b1ed20b3f},    // plain_alg1
                 {4, 0x3892c45283bf1489}});  // full(+ratchet)
}

TEST(MixedMultitenant, ExpandsToTheThreeAxisCrossProduct) {
  const Scenario sc = load_scenario_file(
      pack_path("mixed_multitenant.json"), /*tiny=*/true);
  ASSERT_EQ(sc.sweep.size(), 3u);
  const std::vector<GridCell> cells = expand_grid(sc);
  std::size_t product = 1;
  for (const auto& axis : sc.sweep) product *= axis.values.size();
  EXPECT_EQ(cells.size(), product);
  EXPECT_EQ(cells.size(), 8u);
  // All four tenant components survive every cell's strict reparse.
  for (const GridCell& cell : cells) {
    EXPECT_EQ(cell.scenario.workload.size(), 4u);
  }
}

}  // namespace
}  // namespace paraleon::scenario
