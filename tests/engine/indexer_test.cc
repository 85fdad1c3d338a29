#include "qof/engine/indexer.h"

#include <gtest/gtest.h>

#include "qof/datagen/bibtex_gen.h"
#include "qof/datagen/schemas.h"

namespace qof {
namespace {

class IndexerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto schema = BibtexSchema();
    ASSERT_TRUE(schema.ok());
    schema_ = std::make_unique<StructuringSchema>(*schema);
  }

  std::unique_ptr<StructuringSchema> schema_;
};

TEST_F(IndexerTest, IndexesMultipleDocuments) {
  Corpus corpus;
  BibtexGenOptions gen;
  gen.num_references = 10;
  gen.seed = 1;
  ASSERT_TRUE(corpus.AddDocument("a.bib", GenerateBibtex(gen)).ok());
  gen.seed = 2;
  gen.num_references = 15;
  ASSERT_TRUE(corpus.AddDocument("b.bib", GenerateBibtex(gen)).ok());

  auto built = BuildIndexes(*schema_, corpus, IndexSpec::Full());
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  EXPECT_EQ(built->documents, 2u);
  auto refs = built->regions.Get("Reference");
  ASSERT_TRUE(refs.ok());
  EXPECT_EQ((*refs)->size(), 25u);
  // Regions from different documents do not overlap and the whole
  // universe is laminar.
  auto universe = IndexedUniverse(built->regions);
  ASSERT_TRUE(universe.ok());
  EXPECT_TRUE(universe->IsLaminar());
  // The word index spans both documents.
  EXPECT_GT(built->words.num_postings(), 100u);
}

TEST_F(IndexerTest, IndexingDoesNotCountAsQueryScanning) {
  Corpus corpus;
  BibtexGenOptions gen;
  gen.num_references = 5;
  ASSERT_TRUE(corpus.AddDocument("a.bib", GenerateBibtex(gen)).ok());
  corpus.ResetBytesRead();
  auto built = BuildIndexes(*schema_, corpus, IndexSpec::Full());
  ASSERT_TRUE(built.ok());
  // Index construction is pre-processing (paper §1); the query-time
  // scanned-bytes budget stays untouched.
  EXPECT_EQ(corpus.bytes_read(), 0u);
}

TEST_F(IndexerTest, MalformedDocumentNamesTheFile) {
  Corpus corpus;
  ASSERT_TRUE(corpus.AddDocument("good.bib", "").ok());
  ASSERT_TRUE(corpus.AddDocument("bad.bib", "@BOOK{nope}").ok());
  auto built = BuildIndexes(*schema_, corpus, IndexSpec::Full());
  ASSERT_FALSE(built.ok());
  EXPECT_TRUE(built.status().IsParseError());
  EXPECT_NE(built.status().message().find("bad.bib"), std::string::npos);
}

TEST_F(IndexerTest, PartialSpecIndexesOnlyRequestedNames) {
  Corpus corpus;
  BibtexGenOptions gen;
  gen.num_references = 5;
  ASSERT_TRUE(corpus.AddDocument("a.bib", GenerateBibtex(gen)).ok());
  auto built = BuildIndexes(*schema_, corpus,
                            IndexSpec::Partial({"Reference", "Year"}));
  ASSERT_TRUE(built.ok());
  EXPECT_EQ(built->regions.num_names(), 2u);
  EXPECT_TRUE(built->regions.Has("Reference"));
  EXPECT_TRUE(built->regions.Has("Year"));
  EXPECT_FALSE(built->regions.Has("Authors"));
}

TEST_F(IndexerTest, FoldCaseOptionPropagates) {
  Corpus corpus;
  ASSERT_TRUE(corpus.AddDocument("a.bib", "").ok());
  IndexSpec spec;
  spec.word_options.fold_case = true;
  auto built = BuildIndexes(*schema_, corpus, spec);
  ASSERT_TRUE(built.ok());
  EXPECT_TRUE(built->words.options().fold_case);
}

TEST_F(IndexerTest, BuildTimeIsReported) {
  Corpus corpus;
  BibtexGenOptions gen;
  gen.num_references = 200;
  ASSERT_TRUE(corpus.AddDocument("a.bib", GenerateBibtex(gen)).ok());
  auto built = BuildIndexes(*schema_, corpus, IndexSpec::Full());
  ASSERT_TRUE(built.ok());
  EXPECT_GT(built->build_micros, 0u);
}

}  // namespace
}  // namespace qof
