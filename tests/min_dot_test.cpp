// Graphviz export: well-formedness, determinism, highlight/fault styling.
#include "analysis/min/dot.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "conference/subnetwork.hpp"
#include "util/error.hpp"

namespace confnet::min {
namespace {

TEST(Dot, BasicStructure) {
  const Network net(Kind::kOmega, 2);
  std::ostringstream os;
  write_dot(os, net);
  const std::string dot = os.str();
  EXPECT_EQ(dot.rfind("digraph omega {", 0), 0u);
  EXPECT_NE(dot.find("rankdir=LR"), std::string::npos);
  EXPECT_NE(dot.find("l0_r0"), std::string::npos);
  EXPECT_NE(dot.find("l2_r3"), std::string::npos);
  EXPECT_EQ(dot.back(), '\n');
  // Every level-to-level hop appears: 2 stages x 4 rows x 2 successors.
  std::size_t edges = 0, pos = 0;
  while ((pos = dot.find(" -> ", pos)) != std::string::npos) {
    ++edges;
    pos += 4;
  }
  EXPECT_EQ(edges, 16u);
}

TEST(Dot, Deterministic) {
  const Network net(Kind::kBaseline, 3);
  std::ostringstream a, b;
  write_dot(a, net);
  write_dot(b, net);
  EXPECT_EQ(a.str(), b.str());
}

TEST(Dot, HighlightsConferenceSubnetwork) {
  const Network net(Kind::kIndirectCube, 3);
  const auto links = conf::all_pairs_links(Kind::kIndirectCube, 3, {0, 1});
  DotOptions options;
  options.highlight = links;
  options.label = "pair conference";
  std::ostringstream os;
  write_dot(os, net, options);
  const std::string dot = os.str();
  EXPECT_NE(dot.find("color=blue"), std::string::npos);
  EXPECT_NE(dot.find("penwidth=2"), std::string::npos);
  EXPECT_NE(dot.find("label=\"pair conference\""), std::string::npos);
}

TEST(Dot, MarksFaults) {
  const Network net(Kind::kOmega, 3);
  FaultSet faults(3);
  faults.fail_link(1, 4);
  DotOptions options;
  options.faults = &faults;
  std::ostringstream os;
  write_dot(os, net, options);
  const std::string dot = os.str();
  EXPECT_NE(dot.find("l1_r4 [color=red]"), std::string::npos);
  EXPECT_NE(dot.find("style=dashed"), std::string::npos);
}

TEST(Dot, ValidatesShapes) {
  const Network net(Kind::kOmega, 3);
  DotOptions options;
  options.highlight = LevelLinks{{}, {}};  // wrong level count
  std::ostringstream os;
  EXPECT_THROW(write_dot(os, net, options), Error);
  FaultSet wrong(4);
  DotOptions bad;
  bad.faults = &wrong;
  EXPECT_THROW(write_dot(os, net, bad), Error);
}

}  // namespace
}  // namespace confnet::min
