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
