// Window-shape suite (experiment E1's foundation): the closed-form In/Out
// windows must equal the BFS-computed reachability sets on every link, have
// the predicted cardinalities, and carry the predicted shapes per topology.
#include "min/windows.hpp"

#include <gtest/gtest.h>

#include "test_util.hpp"

#include "min/network.hpp"
#include "util/error.hpp"

namespace confnet::min {
namespace {

struct Case {
  Kind kind;
  u32 n;
};

class WindowSuite : public ::testing::TestWithParam<Case> {};

TEST_P(WindowSuite, ClosedFormEqualsBfsReachability) {
  const auto [kind, n] = GetParam();
  const Network net = make_network(kind, n);
  const WindowTable& wt = net.windows();
  for (u32 level = 0; level <= n; ++level) {
    for (u32 row = 0; row < net.size(); ++row) {
      const WindowDesc in_w = in_window(kind, n, level, row);
      const WindowDesc out_w = out_window(kind, n, level, row);
      for (u32 x = 0; x < net.size(); ++x) {
        EXPECT_EQ(in_w.contains(x), wt.in_set(level, row).test(x))
            << kind_name(kind) << " in level=" << level << " row=" << row
            << " x=" << x;
        EXPECT_EQ(out_w.contains(x), wt.out_set(level, row).test(x))
            << kind_name(kind) << " out level=" << level << " row=" << row
            << " x=" << x;
      }
    }
  }
}

TEST_P(WindowSuite, Cardinalities) {
  const auto [kind, n] = GetParam();
  for (u32 level = 0; level <= n; ++level) {
    for (u32 row = 0; row < (u32{1} << n); ++row) {
      EXPECT_EQ(in_window(kind, n, level, row).size, u32{1} << level);
      EXPECT_EQ(out_window(kind, n, level, row).size, u32{1} << (n - level));
    }
  }
}

TEST_P(WindowSuite, ElementsEnumerateExactlyTheWindow) {
  const auto [kind, n] = GetParam();
  const u32 N = u32{1} << n;
  for (u32 level = 0; level <= n; ++level) {
    const u32 row = (level * 37) % N;  // arbitrary probe row
    const WindowDesc w = in_window(kind, n, level, row);
    u32 members = 0;
    for (u32 x = 0; x < N; ++x) members += w.contains(x);
    EXPECT_EQ(members, w.size);
    for (u32 i = 0; i < w.size; ++i) EXPECT_TRUE(w.contains(w.element(i)));
  }
}

std::vector<Case> window_cases() {
  std::vector<Case> cases;
  for (Kind kind : kAllKinds)
    for (u32 n : {1u, 2u, 3u, 4u, 5u, 6u}) cases.push_back({kind, n});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, WindowSuite, ::testing::ValuesIn(window_cases()),
    [](const ::testing::TestParamInfo<Case>& info) {
      return testutil::param_name(info.param.kind, info.param.n);
    });

TEST(WindowShapes, PerTopologyStructure) {
  // The E1 table: at interstage levels, In x Out shapes are
  //   omega/butterfly: stride x block, cube: block x stride,
  //   baseline/flip:   block x block.
  const u32 n = 6;
  for (u32 level = 1; level < n; ++level) {
    for (u32 row : {0u, 13u, 63u}) {
      EXPECT_EQ(in_window(Kind::kOmega, n, level, row).shape,
                WindowShape::kStride);
      EXPECT_EQ(out_window(Kind::kOmega, n, level, row).shape,
                WindowShape::kBlock);
      EXPECT_EQ(in_window(Kind::kButterfly, n, level, row).shape,
                WindowShape::kStride);
      EXPECT_EQ(out_window(Kind::kButterfly, n, level, row).shape,
                WindowShape::kBlock);
      EXPECT_EQ(in_window(Kind::kIndirectCube, n, level, row).shape,
                WindowShape::kBlock);
      EXPECT_EQ(out_window(Kind::kIndirectCube, n, level, row).shape,
                WindowShape::kStride);
      EXPECT_EQ(in_window(Kind::kBaseline, n, level, row).shape,
                WindowShape::kBlock);
      EXPECT_EQ(out_window(Kind::kBaseline, n, level, row).shape,
                WindowShape::kBlock);
      EXPECT_EQ(in_window(Kind::kFlip, n, level, row).shape,
                WindowShape::kBlock);
      EXPECT_EQ(out_window(Kind::kFlip, n, level, row).shape,
                WindowShape::kBlock);
      EXPECT_EQ(in_window(Kind::kReverseOmega, n, level, row).shape,
                WindowShape::kBlock);
      EXPECT_EQ(out_window(Kind::kReverseOmega, n, level, row).shape,
                WindowShape::kStride);
    }
  }
}

TEST(WindowShapes, BlockBlockClassification) {
  EXPECT_TRUE(has_block_block_windows(Kind::kBaseline));
  EXPECT_TRUE(has_block_block_windows(Kind::kFlip));
  EXPECT_FALSE(has_block_block_windows(Kind::kOmega));
  EXPECT_FALSE(has_block_block_windows(Kind::kIndirectCube));
  EXPECT_FALSE(has_block_block_windows(Kind::kButterfly));
  EXPECT_FALSE(has_block_block_windows(Kind::kReverseOmega));
}

TEST(WindowShapes, BoundaryLevels) {
  // Level 0: In is the single row; level n: Out is the single row.
  const u32 n = 4;
  for (Kind kind : kAllKinds) {
    for (u32 row = 0; row < 16; ++row) {
      const WindowDesc in0 = in_window(kind, n, 0, row);
      EXPECT_EQ(in0.size, 1u);
      EXPECT_TRUE(in0.contains(row));
      const WindowDesc outn = out_window(kind, n, n, row);
      EXPECT_EQ(outn.size, 1u);
      EXPECT_TRUE(outn.contains(row));
      // And the full-network windows cover everything.
      EXPECT_EQ(out_window(kind, n, 0, row).size, 16u);
      EXPECT_EQ(in_window(kind, n, n, row).size, 16u);
    }
  }
}

TEST(WindowDescContains, StrideArithmetic) {
  const WindowDesc w{WindowShape::kStride, 3, 8, 4};  // {3, 11, 19, 27}
  EXPECT_TRUE(w.contains(3));
  EXPECT_TRUE(w.contains(27));
  EXPECT_FALSE(w.contains(35));  // beyond size
  EXPECT_FALSE(w.contains(4));
  EXPECT_FALSE(w.contains(2));  // below first
  EXPECT_EQ(w.element(2), 19u);
}

TEST(WindowErrors, BadArgsThrow) {
  EXPECT_THROW((void)in_window(Kind::kOmega, 3, 4, 0), Error);
  EXPECT_THROW((void)in_window(Kind::kOmega, 3, 0, 8), Error);
  EXPECT_THROW((void)out_window(Kind::kOmega, 0, 0, 0), Error);
}

}  // namespace
}  // namespace confnet::min
