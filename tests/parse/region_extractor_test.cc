#include "qof/parse/region_extractor.h"

#include <gtest/gtest.h>

#include "qof/datagen/schemas.h"

namespace qof {
namespace {

constexpr const char* kDoc = R"(@INCOLLECTION{Corl82a,
  AUTHOR = "G. F. Corliss and Y. F. Chang",
  TITLE = "Solving Equations",
  BOOKTITLE = "Differentiation Algorithms",
  YEAR = "1982",
  EDITOR = "A. Griewank",
  PUBLISHER = "SIAM",
  ADDRESS = "Philadelphia, Penn.",
  PAGES = "114--144",
  REFERRED = "[Aber88a]",
  KEYWORDS = "point algorithm; Taylor series",
  ABSTRACT = "A Fortran pre-processor"
}
)";

class ExtractorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto schema = BibtexSchema();
    ASSERT_TRUE(schema.ok());
    schema_ = std::make_unique<StructuringSchema>(*schema);
    SchemaParser parser(schema_.get());
    auto tree = parser.ParseDocument(kDoc, 0);
    ASSERT_TRUE(tree.ok()) << tree.status().ToString();
    tree_ = std::move(*tree);
  }

  std::unique_ptr<StructuringSchema> schema_;
  std::unique_ptr<ParseNode> tree_;
};

TEST_F(ExtractorTest, FullIndexingCoversAllButRoot) {
  RegionIndex index;
  ExtractRegions(*schema_, *tree_, ExtractionFilter::Full(), &index);
  EXPECT_TRUE(index.Has("Reference"));
  EXPECT_TRUE(index.Has("Authors"));
  EXPECT_TRUE(index.Has("Last_Name"));
  EXPECT_FALSE(index.Has("Ref_Set"));
  auto refs = index.Get("Reference");
  ASSERT_TRUE(refs.ok());
  EXPECT_EQ((*refs)->size(), 1u);
  auto lasts = index.Get("Last_Name");
  ASSERT_TRUE(lasts.ok());
  EXPECT_EQ((*lasts)->size(), 3u);  // Corliss, Chang, Griewank
}

TEST_F(ExtractorTest, UniverseIsLaminar) {
  RegionIndex index;
  ExtractRegions(*schema_, *tree_, ExtractionFilter::Full(), &index);
  auto universe = IndexedUniverse(index);
  ASSERT_TRUE(universe.ok());
  EXPECT_TRUE(universe->IsLaminar());
}

TEST_F(ExtractorTest, PartialIndexingOnlySelectedNames) {
  RegionIndex index;
  ExtractRegions(
      *schema_, *tree_,
      ExtractionFilter::Partial({"Reference", "Key", "Last_Name"}),
      &index);
  EXPECT_TRUE(index.Has("Reference"));
  EXPECT_TRUE(index.Has("Key"));
  EXPECT_TRUE(index.Has("Last_Name"));
  EXPECT_FALSE(index.Has("Authors"));
  EXPECT_FALSE(index.Has("Name"));
  EXPECT_EQ(index.num_names(), 3u);
}

TEST_F(ExtractorTest, PartialIndexingRegistersEmptyInstances) {
  RegionIndex index;
  // Pages exists in the schema but the filter also asks for a name with
  // no occurrences in this document ("Year" always occurs; use a filter
  // with an absent name from another schema to simulate).
  ExtractRegions(*schema_, *tree_,
                 ExtractionFilter::Partial({"Reference", "Ghost"}),
                 &index);
  EXPECT_TRUE(index.Has("Ghost"));
  auto ghost = index.Get("Ghost");
  ASSERT_TRUE(ghost.ok());
  EXPECT_TRUE((*ghost)->empty());
}

TEST_F(ExtractorTest, SelectiveIndexingWithinAncestor) {
  // §7: index Name regions only when they sit inside an Authors region.
  ExtractionFilter filter;
  filter.include = {"Reference", "Authors", "Editors", "Name"};
  filter.within["Name"] = "Authors";
  RegionIndex index;
  ExtractRegions(*schema_, *tree_, filter, &index);
  auto names = index.Get("Name");
  ASSERT_TRUE(names.ok());
  EXPECT_EQ((*names)->size(), 2u);  // the two authors; editor excluded
  // Each indexed Name lies inside the Authors region.
  auto authors = index.Get("Authors");
  ASSERT_TRUE(authors.ok());
  EXPECT_EQ(IncludedIn(**names, **authors), **names);
}

TEST_F(ExtractorTest, ZeroLengthSpansSkipped) {
  // A single-word author ("Plato") yields an empty First_Name span.
  const char* doc =
      "@INCOLLECTION{K1,\n  AUTHOR = \"Plato\",\n  TITLE = \"T\",\n"
      "  BOOKTITLE = \"B\",\n  YEAR = \"390\",\n  EDITOR = \"A. Editor\",\n"
      "  PUBLISHER = \"P\",\n  ADDRESS = \"A\",\n  PAGES = \"1--2\",\n"
      "  REFERRED = \"\",\n  KEYWORDS = \"k\",\n  ABSTRACT = \"x\"\n}\n";
  SchemaParser parser(schema_.get());
  auto tree = parser.ParseDocument(doc, 0);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  RegionIndex index;
  ExtractRegions(*schema_, **tree, ExtractionFilter::Full(), &index);
  auto firsts = index.Get("First_Name");
  ASSERT_TRUE(firsts.ok());
  EXPECT_EQ((*firsts)->size(), 1u);  // only the editor's "A."
  auto lasts = index.Get("Last_Name");
  ASSERT_TRUE(lasts.ok());
  EXPECT_EQ((*lasts)->size(), 2u);  // Plato + Editor
}

}  // namespace
}  // namespace qof
