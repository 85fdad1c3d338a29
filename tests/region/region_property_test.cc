// Property tests: every region-algebra primitive is checked against a
// brute-force O(n^2) oracle on randomized inputs, including the laminar
// (parse-tree shaped) instances the direct-inclusion operators require.

#include <algorithm>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "qof/region/region_set.h"

namespace qof {
namespace {

// --- oracles ---------------------------------------------------------------

RegionSet OracleIncluding(const RegionSet& r, const RegionSet& s,
                          bool strict) {
  std::vector<Region> out;
  for (const Region& a : r) {
    for (const Region& b : s) {
      if (strict ? a.StrictlyContains(b) : a.Contains(b)) {
        out.push_back(a);
        break;
      }
    }
  }
  return RegionSet::FromUnsorted(std::move(out));
}

RegionSet OracleIncludedIn(const RegionSet& r, const RegionSet& s,
                           bool strict) {
  std::vector<Region> out;
  for (const Region& a : r) {
    for (const Region& b : s) {
      if (strict ? b.StrictlyContains(a) : b.Contains(a)) {
        out.push_back(a);
        break;
      }
    }
  }
  return RegionSet::FromUnsorted(std::move(out));
}

RegionSet OracleInnermost(const RegionSet& r) {
  std::vector<Region> out;
  for (const Region& a : r) {
    bool has_inner = false;
    for (const Region& b : r) {
      if (a.StrictlyContains(b)) {
        has_inner = true;
        break;
      }
    }
    if (!has_inner) out.push_back(a);
  }
  return RegionSet::FromUnsorted(std::move(out));
}

RegionSet OracleOutermost(const RegionSet& r) {
  std::vector<Region> out;
  for (const Region& a : r) {
    bool has_outer = false;
    for (const Region& b : r) {
      if (b.StrictlyContains(a)) {
        has_outer = true;
        break;
      }
    }
    if (!has_outer) out.push_back(a);
  }
  return RegionSet::FromUnsorted(std::move(out));
}

// r ⊃d s by the paper's definition: r strictly contains s and no universe
// member lies strictly between them.
RegionSet OracleDirectlyIncluding(const RegionSet& r, const RegionSet& s,
                                  const RegionSet& universe) {
  std::vector<Region> out;
  for (const Region& a : r) {
    for (const Region& b : s) {
      if (!a.StrictlyContains(b)) continue;
      bool blocked = false;
      for (const Region& t : universe) {
        if (a.StrictlyContains(t) && t.StrictlyContains(b)) {
          blocked = true;
          break;
        }
      }
      if (!blocked) {
        out.push_back(a);
        break;
      }
    }
  }
  return RegionSet::FromUnsorted(std::move(out));
}

RegionSet OracleDirectlyIncluded(const RegionSet& r, const RegionSet& s,
                                 const RegionSet& universe) {
  std::vector<Region> out;
  for (const Region& a : r) {
    for (const Region& b : s) {
      if (!b.StrictlyContains(a)) continue;
      bool blocked = false;
      for (const Region& t : universe) {
        if (b.StrictlyContains(t) && t.StrictlyContains(a)) {
          blocked = true;
          break;
        }
      }
      if (!blocked) {
        out.push_back(a);
        break;
      }
    }
  }
  return RegionSet::FromUnsorted(std::move(out));
}

// --- generators ------------------------------------------------------------

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

// Builds a random laminar family by recursive subdivision — the shape of a
// parse tree's spans.
void Subdivide(std::mt19937& rng, uint64_t lo, uint64_t hi, int depth,
               std::vector<Region>* out) {
  if (depth <= 0 || hi - lo < 4) return;
  std::uniform_int_distribution<int> children(1, 3);
  int k = children(rng);
  uint64_t width = (hi - lo) / static_cast<uint64_t>(k);
  if (width < 3) return;
  for (int i = 0; i < k; ++i) {
    uint64_t a = lo + static_cast<uint64_t>(i) * width + 1;
    uint64_t b = a + width - 2;
    if (b <= a) continue;
    out->push_back({a, b});
    Subdivide(rng, a, b, depth - 1, out);
  }
}

RegionSet RandomLaminar(std::mt19937& rng, uint64_t span, int depth) {
  std::vector<Region> v;
  v.push_back({0, span});
  Subdivide(rng, 0, span, depth, &v);
  return RegionSet::FromUnsorted(std::move(v));
}

// Random subset of a laminar family (arguments to ⊃d must come from the
// universe).
RegionSet RandomSubset(std::mt19937& rng, const RegionSet& base,
                       double keep) {
  std::bernoulli_distribution coin(keep);
  std::vector<Region> v;
  for (const Region& r : base) {
    if (coin(rng)) v.push_back(r);
  }
  return RegionSet::FromUnsorted(std::move(v));
}

class RegionPropertyTest : public ::testing::TestWithParam<uint32_t> {};

INSTANTIATE_TEST_SUITE_P(Seeds, RegionPropertyTest,
                         ::testing::Range(0u, 25u));

TEST_P(RegionPropertyTest, IncludingMatchesOracle) {
  std::mt19937 rng(GetParam());
  for (int iter = 0; iter < 20; ++iter) {
    RegionSet r = RandomSet(rng, 30, 60);
    RegionSet s = RandomSet(rng, 30, 60);
    EXPECT_EQ(Including(r, s), OracleIncluding(r, s, false))
        << "r=" << r.ToString() << " s=" << s.ToString();
    EXPECT_EQ(IncludingStrict(r, s), OracleIncluding(r, s, true))
        << "r=" << r.ToString() << " s=" << s.ToString();
  }
}

TEST_P(RegionPropertyTest, IncludedInMatchesOracle) {
  std::mt19937 rng(GetParam() + 1000);
  for (int iter = 0; iter < 20; ++iter) {
    RegionSet r = RandomSet(rng, 30, 60);
    RegionSet s = RandomSet(rng, 30, 60);
    EXPECT_EQ(IncludedIn(r, s), OracleIncludedIn(r, s, false))
        << "r=" << r.ToString() << " s=" << s.ToString();
    EXPECT_EQ(IncludedInStrict(r, s), OracleIncludedIn(r, s, true))
        << "r=" << r.ToString() << " s=" << s.ToString();
  }
}

TEST_P(RegionPropertyTest, InnermostOutermostMatchOracle) {
  std::mt19937 rng(GetParam() + 2000);
  for (int iter = 0; iter < 20; ++iter) {
    RegionSet r = RandomSet(rng, 40, 80);
    EXPECT_EQ(Innermost(r), OracleInnermost(r)) << r.ToString();
    EXPECT_EQ(Outermost(r), OracleOutermost(r)) << r.ToString();
  }
}

TEST_P(RegionPropertyTest, SetAlgebraLaws) {
  std::mt19937 rng(GetParam() + 3000);
  for (int iter = 0; iter < 10; ++iter) {
    RegionSet a = RandomSet(rng, 20, 50);
    RegionSet b = RandomSet(rng, 20, 50);
    RegionSet c = RandomSet(rng, 20, 50);
    EXPECT_EQ(Union(a, b), Union(b, a));
    EXPECT_EQ(Intersect(a, b), Intersect(b, a));
    EXPECT_EQ(Union(Union(a, b), c), Union(a, Union(b, c)));
    EXPECT_EQ(Difference(a, Union(b, c)),
              Difference(Difference(a, b), c));
    EXPECT_EQ(Union(Intersect(a, b), Difference(a, b)), a);
  }
}

TEST_P(RegionPropertyTest, DirectInclusionMatchesOracleOnLaminar) {
  std::mt19937 rng(GetParam() + 4000);
  for (int iter = 0; iter < 10; ++iter) {
    RegionSet universe = RandomLaminar(rng, 400, 4);
    RegionSet r = RandomSubset(rng, universe, 0.5);
    RegionSet s = RandomSubset(rng, universe, 0.5);
    EXPECT_EQ(DirectlyIncluding(r, s, universe),
              OracleDirectlyIncluding(r, s, universe))
        << "universe=" << universe.ToString() << "\nr=" << r.ToString()
        << "\ns=" << s.ToString();
    EXPECT_EQ(DirectlyIncluded(r, s, universe),
              OracleDirectlyIncluded(r, s, universe))
        << "universe=" << universe.ToString() << "\nr=" << r.ToString()
        << "\ns=" << s.ToString();
  }
}

TEST_P(RegionPropertyTest, LayeredDirectInclusionAgreesOnLaminar) {
  std::mt19937 rng(GetParam() + 5000);
  for (int iter = 0; iter < 5; ++iter) {
    RegionSet universe = RandomLaminar(rng, 300, 3);
    RegionSet r = RandomSubset(rng, universe, 0.6);
    RegionSet s = RandomSubset(rng, universe, 0.6);
    // Split the universe complement into two "other index" sets, as the
    // paper's program receives them.
    RegionSet rest = Difference(universe, s);
    RegionSet odd, even;
    {
      std::vector<Region> o, e;
      size_t i = 0;
      for (const Region& reg : rest) {
        ((i++ % 2) ? o : e).push_back(reg);
      }
      odd = RegionSet::FromUnsorted(std::move(o));
      even = RegionSet::FromUnsorted(std::move(e));
    }
    std::vector<const RegionSet*> others = {&odd, &even};
    EXPECT_EQ(DirectlyIncludingLayered(r, s, others),
              OracleDirectlyIncluding(r, s, Union(rest, s)))
        << "universe=" << universe.ToString() << "\nr=" << r.ToString()
        << "\ns=" << s.ToString();
  }
}

TEST_P(RegionPropertyTest, DirectImpliesSimpleInclusion) {
  std::mt19937 rng(GetParam() + 6000);
  for (int iter = 0; iter < 10; ++iter) {
    RegionSet universe = RandomLaminar(rng, 300, 4);
    RegionSet r = RandomSubset(rng, universe, 0.5);
    RegionSet s = RandomSubset(rng, universe, 0.5);
    RegionSet direct = DirectlyIncluding(r, s, universe);
    RegionSet simple = Including(r, s);
    // ⊃d refines ⊃: every direct includer is an includer.
    EXPECT_EQ(Intersect(direct, simple), direct);
  }
}

// A laminar universe split into named instances the way a region index
// holds it: a forest (several top-level members with no encloser), empty
// members, and spans that occur under two names at once.
std::vector<RegionSet> RandomNamedUniverse(std::mt19937& rng, int names) {
  std::vector<Region> forest;
  Subdivide(rng, 0, 300, 4, &forest);
  std::uniform_int_distribution<uint64_t> pos(1, 299);
  for (int i = 0; i < 6; ++i) {
    const uint64_t p = pos(rng);
    forest.push_back({p, p});
  }
  std::uniform_int_distribution<int> pick(0, names - 1);
  std::bernoulli_distribution twice(0.2);
  std::vector<std::vector<Region>> by_name(names);
  for (const Region& r : forest) {
    by_name[pick(rng)].push_back(r);
    if (twice(rng)) by_name[pick(rng)].push_back(r);
  }
  std::vector<RegionSet> out;
  for (std::vector<Region>& v : by_name) {
    out.push_back(RegionSet::FromUnsorted(std::move(v)));
  }
  return out;
}

// The instances (as enclosers) that hold each member's universe parent —
// one holder per parent, chosen at random when a span has several — plus
// a random sample of the rest.
std::vector<const RegionSet*> ParentHolders(
    std::mt19937& rng, const std::vector<RegionSet>& instances,
    const RegionSet& members, const RegionSet& universe) {
  std::vector<char> chosen(instances.size(), 0);
  std::bernoulli_distribution extra(0.3);
  for (size_t k = 0; k < instances.size(); ++k) chosen[k] = extra(rng);
  for (const Region& parent : InnermostStrictEnclosers(members, universe)) {
    if (parent == Region{0, 0}) continue;  // no encloser
    std::vector<size_t> holders;
    for (size_t k = 0; k < instances.size(); ++k) {
      if (instances[k].ContainsRegion(parent)) holders.push_back(k);
    }
    std::uniform_int_distribution<size_t> one(0, holders.size() - 1);
    chosen[holders[one(rng)]] = 1;
  }
  std::vector<const RegionSet*> out;
  for (size_t k = 0; k < instances.size(); ++k) {
    if (chosen[k]) out.push_back(&instances[k]);
  }
  return out;
}

TEST_P(RegionPropertyTest, EncloserScopedDirectInclusionMatchesUniverse) {
  std::mt19937 rng(GetParam() + 8000);
  for (int iter = 0; iter < 10; ++iter) {
    const std::vector<RegionSet> instances = RandomNamedUniverse(rng, 4);
    RegionSet universe;
    for (const RegionSet& inst : instances) {
      universe = Union(universe, inst);
    }
    ASSERT_TRUE(universe.IsLaminar()) << universe.ToString();
    const RegionSet r = RandomSubset(rng, universe, 0.5);
    const RegionSet s = RandomSubset(rng, universe, 0.5);

    // ⊃d: the enclosers must hold the parents of s's members.
    std::vector<const RegionSet*> e = ParentHolders(rng, instances, s,
                                                    universe);
    EXPECT_EQ(DirectlyIncluding(r, s, e), DirectlyIncluding(r, s, universe))
        << "universe=" << universe.ToString() << "\nr=" << r.ToString()
        << "\ns=" << s.ToString();
    // ⊂d: ... and of r's members.
    e = ParentHolders(rng, instances, r, universe);
    EXPECT_EQ(DirectlyIncluded(r, s, e), DirectlyIncluded(r, s, universe))
        << "universe=" << universe.ToString() << "\nr=" << r.ToString()
        << "\ns=" << s.ToString();

    // shares_span reports exactly whether an inner member's span occurs
    // in some encloser instance.
    bool shares = false;
    InnermostStrictEnclosers(s, e, &shares);
    bool want = false;
    for (const Region& q : s) {
      for (const RegionSet* part : e) want = want || part->ContainsRegion(q);
    }
    EXPECT_EQ(shares, want) << s.ToString();
  }
}

TEST(RegionEncloserTest, EmptyEncloserSetFindsNoParent) {
  const RegionSet u = RegionSet::FromUnsorted({{0, 10}, {2, 5}});
  const RegionSet inner = RegionSet::FromUnsorted({{2, 5}});
  EXPECT_TRUE(DirectlyIncluding(u, inner, std::vector<const RegionSet*>{})
                  .empty());
  EXPECT_TRUE(DirectlyIncluded(inner, u, std::vector<const RegionSet*>{})
                  .empty());
}

TEST_P(RegionPropertyTest, InnermostOutermostAreIdempotent) {
  std::mt19937 rng(GetParam() + 7000);
  for (int iter = 0; iter < 10; ++iter) {
    RegionSet r = RandomSet(rng, 30, 60);
    EXPECT_EQ(Innermost(Innermost(r)), Innermost(r));
    EXPECT_EQ(Outermost(Outermost(r)), Outermost(r));
  }
}

}  // namespace
}  // namespace qof
