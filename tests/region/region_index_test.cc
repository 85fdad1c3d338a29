#include "qof/region/region_index.h"

#include <gtest/gtest.h>

namespace qof {
namespace {

RegionSet RS(std::vector<Region> v) {
  return RegionSet::FromUnsorted(std::move(v));
}

TEST(RegionIndexTest, AddAndGet) {
  RegionIndex idx;
  idx.Add("Reference", RS({{0, 100}}));
  idx.Add("Authors", RS({{10, 40}}));
  EXPECT_TRUE(idx.Has("Reference"));
  EXPECT_FALSE(idx.Has("Editors"));
  auto r = idx.Get("Authors");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(**r, RS({{10, 40}}));
  EXPECT_FALSE(idx.Get("Editors").ok());
}

TEST(RegionIndexTest, AddMergesSameName) {
  RegionIndex idx;
  idx.Add("Key", RS({{0, 5}}));
  idx.Add("Key", RS({{10, 15}}));
  auto r = idx.Get("Key");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(**r, RS({{0, 5}, {10, 15}}));
  EXPECT_EQ(idx.num_names(), 1u);
  EXPECT_EQ(idx.num_regions(), 2u);
}

TEST(RegionIndexTest, UniverseIsUnionOfInstances) {
  RegionIndex idx;
  idx.Add("A", RS({{0, 10}}));
  idx.Add("B", RS({{2, 5}}));
  auto universe = IndexedUniverse(idx);
  ASSERT_TRUE(universe.ok());
  EXPECT_EQ(*universe, RS({{0, 10}, {2, 5}}));
  // Nothing is cached: the next call sees the mutation.
  idx.Add("C", RS({{6, 9}}));
  universe = IndexedUniverse(idx);
  ASSERT_TRUE(universe.ok());
  EXPECT_EQ(*universe, RS({{0, 10}, {2, 5}, {6, 9}}));
}

TEST(RegionIndexTest, NamesSorted) {
  RegionIndex idx;
  idx.Add("Zeta", RegionSet());
  idx.Add("Alpha", RegionSet());
  EXPECT_EQ(idx.Names(), (std::vector<std::string>{"Alpha", "Zeta"}));
}

TEST(RegionIndexTest, ApproxBytesGrows) {
  RegionIndex small;
  small.Add("A", RS({{0, 10}}));
  RegionIndex big;
  big.Add("A", RS({{0, 10}, {20, 30}, {40, 50}, {60, 70}}));
  EXPECT_LT(small.ApproxBytes(), big.ApproxBytes());
}

}  // namespace
}  // namespace qof
