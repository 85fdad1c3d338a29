// Adaptive-kernel tests: the galloping variants of Intersect, Difference,
// Including and IncludedIn must return byte-identical sets to the linear
// merges under every size skew, and the policy knob (SetKernelPolicy)
// must pin the kernel without changing any result.

#include <algorithm>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "qof/region/region_set.h"

namespace qof {
namespace {

/// Forces a kernel policy for one scope and restores the previous one.
class ScopedPolicy {
 public:
  explicit ScopedPolicy(KernelPolicy policy) : saved_(kernel_policy()) {
    SetKernelPolicy(policy);
  }
  ~ScopedPolicy() { SetKernelPolicy(saved_); }

 private:
  KernelPolicy saved_;
};

RegionSet RandomSet(std::mt19937& rng, int max_regions, uint64_t max_pos) {
  std::uniform_int_distribution<int> count(0, max_regions);
  std::uniform_int_distribution<uint64_t> pos(0, max_pos);
  int n = count(rng);
  std::vector<Region> v;
  for (int i = 0; i < n; ++i) {
    uint64_t a = pos(rng);
    uint64_t b = pos(rng);
    if (a > b) std::swap(a, b);
    if (a == b) ++b;
    v.push_back({a, b});
  }
  return RegionSet::FromUnsorted(std::move(v));
}

/// Runs `op` under both forced policies and expects identical results;
/// returns the linear one.
template <typename Op>
RegionSet SamePolicyResult(Op op, const char* label) {
  RegionSet linear, galloping;
  {
    ScopedPolicy p(KernelPolicy::kLinear);
    linear = op();
  }
  {
    ScopedPolicy p(KernelPolicy::kGalloping);
    galloping = op();
  }
  EXPECT_EQ(linear, galloping) << label;
  return linear;
}

class KernelEquivalenceTest : public ::testing::TestWithParam<uint32_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, KernelEquivalenceTest,
                         ::testing::Range(0u, 10u));

TEST_P(KernelEquivalenceTest, AllKernelsAgreeAcrossSkews) {
  std::mt19937 rng(GetParam() * 7919u + 3u);
  // Skews from balanced to 1:200 in both directions; positions overlap so
  // the operators produce non-trivial output.
  struct Skew {
    int small, large;
  };
  for (const Skew& skew :
       {Skew{40, 40}, Skew{3, 200}, Skew{200, 3}, Skew{1, 400},
        Skew{0, 50}}) {
    RegionSet a = RandomSet(rng, skew.small, 300);
    RegionSet b = RandomSet(rng, skew.large, 300);
    SamePolicyResult([&] { return Intersect(a, b); }, "Intersect");
    SamePolicyResult([&] { return Difference(a, b); }, "Difference a-b");
    SamePolicyResult([&] { return Difference(b, a); }, "Difference b-a");
    SamePolicyResult([&] { return Including(a, b); }, "Including");
    SamePolicyResult([&] { return IncludingStrict(a, b); },
                     "IncludingStrict");
    SamePolicyResult([&] { return IncludedIn(a, b); }, "IncludedIn");
    SamePolicyResult([&] { return IncludedInStrict(a, b); },
                     "IncludedInStrict");
    // Adaptive must match too (it picks one of the two).
    EXPECT_EQ(Intersect(a, b), SamePolicyResult(
                                   [&] { return Intersect(a, b); },
                                   "Intersect adaptive"));
  }
}

TEST_P(KernelEquivalenceTest, NestedFamiliesAgree) {
  // Containment-heavy inputs: many regions sharing starts and nesting
  // deeply, the shapes the inclusion kernels' window scans must handle.
  std::mt19937 rng(GetParam() * 104729u + 7u);
  std::uniform_int_distribution<uint64_t> pos(0, 40);
  std::uniform_int_distribution<uint64_t> len(1, 40);
  auto nested = [&](int n) {
    std::vector<Region> v;
    for (int i = 0; i < n; ++i) {
      uint64_t s = pos(rng);
      v.push_back({s, s + len(rng)});
    }
    return RegionSet::FromUnsorted(std::move(v));
  };
  RegionSet small = nested(4);
  RegionSet large = nested(300);
  SamePolicyResult([&] { return Including(small, large); },
                   "Including small-r");
  SamePolicyResult([&] { return Including(large, small); },
                   "Including small-s");
  SamePolicyResult([&] { return IncludedIn(small, large); },
                   "IncludedIn small-r");
  SamePolicyResult([&] { return IncludedIn(large, small); },
                   "IncludedIn small-s");
  SamePolicyResult([&] { return IncludedInStrict(small, large); },
                   "IncludedInStrict small-r");
  SamePolicyResult([&] { return IncludedInStrict(large, small); },
                   "IncludedInStrict small-s");
  SamePolicyResult([&] { return IncludingStrict(small, large); },
                   "IncludingStrict small-r");
  SamePolicyResult([&] { return IncludingStrict(large, small); },
                   "IncludingStrict small-s");
}

TEST(KernelPolicyTest, PolicyRoundTrips) {
  KernelPolicy saved = kernel_policy();
  SetKernelPolicy(KernelPolicy::kLinear);
  EXPECT_EQ(kernel_policy(), KernelPolicy::kLinear);
  SetKernelPolicy(KernelPolicy::kGalloping);
  EXPECT_EQ(kernel_policy(), KernelPolicy::kGalloping);
  SetKernelPolicy(KernelPolicy::kAdaptive);
  EXPECT_EQ(kernel_policy(), KernelPolicy::kAdaptive);
  SetKernelPolicy(saved);
}

TEST(KernelPolicyTest, StrictIdenticalSpanEdgeCases) {
  // The strict variants must exclude only the identical span; duplicated
  // max-ends in the prefix (the second_end bookkeeping in the galloping
  // IncludedIn) are the regression surface.
  RegionSet r = RegionSet::FromUnsorted({{2, 8}});
  RegionSet s = RegionSet::FromUnsorted(
      {{0, 8}, {1, 8}, {2, 8}, {3, 5}, {10, 12}, {11, 20}, {12, 13},
       {14, 30}, {15, 16}, {17, 40}, {18, 19}, {20, 21}, {22, 23},
       {24, 25}, {26, 27}, {28, 29}, {30, 31}, {32, 33}, {34, 35},
       {36, 37}, {38, 39}, {40, 41}, {42, 43}, {44, 45}, {46, 47},
       {48, 49}, {50, 51}, {52, 53}, {54, 55}, {56, 57}, {58, 59},
       {60, 61}, {62, 63}, {64, 65}});
  // {2,8} ∈ s, but {0,8} and {1,8} still strictly contain it.
  RegionSet expect = r;
  {
    ScopedPolicy p(KernelPolicy::kGalloping);
    EXPECT_EQ(IncludedInStrict(r, s), expect);
  }
  {
    ScopedPolicy p(KernelPolicy::kLinear);
    EXPECT_EQ(IncludedInStrict(r, s), expect);
  }

  // Only the identical span remains: strict inclusion must reject it.
  RegionSet s2 = RegionSet::FromUnsorted(
      {{2, 8},   {10, 11}, {12, 13}, {14, 15}, {16, 17}, {18, 19},
       {20, 21}, {22, 23}, {24, 25}, {26, 27}, {28, 29}, {30, 31},
       {32, 33}, {34, 35}, {36, 37}, {38, 39}, {40, 41}, {42, 43},
       {44, 45}, {46, 47}, {48, 49}, {50, 51}, {52, 53}, {54, 55},
       {56, 57}, {58, 59}, {60, 61}, {62, 63}, {64, 65}, {66, 67},
       {68, 69}, {70, 71}, {72, 73}, {74, 75}});
  {
    ScopedPolicy p(KernelPolicy::kGalloping);
    EXPECT_TRUE(IncludedInStrict(r, s2).empty());
    EXPECT_TRUE(IncludingStrict(r, s2).empty());
    EXPECT_EQ(IncludedIn(r, s2), r);
  }
}

TEST(KernelPolicyTest, GallopingHandlesDisjointRanges) {
  // Worst case for galloping: the small set lies entirely past the large
  // one, so every probe overshoots. Results must still be exact.
  std::vector<Region> big;
  for (uint64_t i = 0; i < 500; ++i) big.push_back({i * 3, i * 3 + 2});
  RegionSet large = RegionSet::FromUnsorted(std::move(big));
  RegionSet small = RegionSet::FromUnsorted({{10000, 10002}});
  ScopedPolicy p(KernelPolicy::kGalloping);
  EXPECT_TRUE(Intersect(small, large).empty());
  EXPECT_EQ(Difference(small, large), small);
  EXPECT_TRUE(IncludedIn(small, large).empty());
  EXPECT_TRUE(Including(small, large).empty());
}

}  // namespace
}  // namespace qof
