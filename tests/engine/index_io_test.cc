#include "qof/engine/index_io.h"

#include <gtest/gtest.h>

#include "qof/datagen/bibtex_gen.h"
#include "qof/datagen/schemas.h"
#include "qof/engine/system.h"

namespace qof {
namespace {

constexpr const char* kFlagship =
    "SELECT r FROM References r WHERE r.Authors.Name.Last_Name = "
    "\"Chang\"";

class IndexIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto schema = BibtexSchema();
    ASSERT_TRUE(schema.ok());
    BibtexGenOptions gen;
    gen.num_references = 40;
    gen.probe_author_rate = 0.2;
    text_ = GenerateBibtex(gen);
    system_ = std::make_unique<FileQuerySystem>(*schema);
    ASSERT_TRUE(system_->AddFile("gen.bib", text_).ok());
    ASSERT_TRUE(corpus_.AddDocument("gen.bib", text_).ok());
  }

  std::string text_;
  Corpus corpus_;  // the system's corpus layout, for direct decoding
  std::unique_ptr<FileQuerySystem> system_;
};

TEST_F(IndexIoTest, RoundTripPreservesAnswers) {
  ASSERT_TRUE(system_->BuildIndexes(IndexSpec::Full()).ok());
  auto before = system_->Execute(kFlagship);
  ASSERT_TRUE(before.ok());
  auto blob = system_->ExportIndexes();
  ASSERT_TRUE(blob.ok()) << blob.status().ToString();
  EXPECT_GT(blob->size(), 1000u);

  // A fresh system over the same corpus imports the blob and answers
  // identically, without ever parsing for index construction.
  auto schema = BibtexSchema();
  FileQuerySystem fresh(*schema);
  ASSERT_TRUE(fresh.AddFile("gen.bib", text_).ok());
  ASSERT_TRUE(fresh.ImportIndexes(*blob).ok());
  EXPECT_TRUE(fresh.indexes_built());
  auto after = fresh.Execute(kFlagship);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(after->stats.strategy, "index-only");
  EXPECT_EQ(after->regions.size(), before->regions.size());
  for (size_t i = 0; i < after->regions.size(); ++i) {
    EXPECT_EQ(after->regions[i], before->regions[i]);
  }
}

TEST_F(IndexIoTest, RoundTripPreservesSpec) {
  IndexSpec spec = IndexSpec::Partial({"Reference", "Authors", "Name",
                                       "Last_Name"});
  spec.within["Name"] = "Authors";
  spec.within["Last_Name"] = "Authors";
  spec.word_options.fold_case = true;
  ASSERT_TRUE(system_->BuildIndexes(spec).ok());
  auto blob = system_->ExportIndexes();
  ASSERT_TRUE(blob.ok());

  auto loaded = DeserializeIndexes(*blob, corpus_);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->spec.mode, IndexSpec::Mode::kPartial);
  EXPECT_EQ(loaded->spec.names, spec.names);
  EXPECT_EQ(loaded->spec.within, spec.within);
  EXPECT_TRUE(loaded->spec.word_options.fold_case);
  EXPECT_EQ(loaded->indexes.regions.num_names(),
            system_->region_index().num_names());
  EXPECT_EQ(loaded->indexes.regions.num_regions(),
            system_->region_index().num_regions());
  EXPECT_EQ(loaded->indexes.words.num_postings(),
            system_->word_index().num_postings());
}

TEST_F(IndexIoTest, RejectsChangedCorpus) {
  ASSERT_TRUE(system_->BuildIndexes().ok());
  auto blob = system_->ExportIndexes();
  ASSERT_TRUE(blob.ok());

  auto schema = BibtexSchema();
  FileQuerySystem other(*schema);
  ASSERT_TRUE(other.AddFile("gen.bib", text_ + " ").ok());
  auto s = other.ImportIndexes(*blob);
  ASSERT_FALSE(s.ok());
  // Blobs carry per-document fingerprints: the error names the document
  // that changed.
  EXPECT_NE(s.message().find("stale"), std::string::npos) << s.message();
  EXPECT_NE(s.message().find("gen.bib"), std::string::npos) << s.message();
}

TEST_F(IndexIoTest, RejectsGarbage) {
  ASSERT_TRUE(system_->BuildIndexes().ok());
  EXPECT_FALSE(system_->ImportIndexes("not an index").ok());
  auto blob = system_->ExportIndexes();
  ASSERT_TRUE(blob.ok());
  // Truncation at every eighth of the blob fails cleanly.
  for (size_t frac = 1; frac < 8; ++frac) {
    std::string truncated = blob->substr(0, blob->size() * frac / 8);
    EXPECT_FALSE(system_->ImportIndexes(truncated).ok()) << frac;
  }
  // Trailing junk is rejected too.
  EXPECT_FALSE(system_->ImportIndexes(*blob + "x").ok());
}

TEST_F(IndexIoTest, TruncationAtEveryByteFailsCleanly) {
  // Exhaustive truncation: every prefix of the blob must be rejected
  // with a Status, never a crash or a silent partial load.
  ASSERT_TRUE(system_->BuildIndexes().ok());
  auto blob = system_->ExportIndexes();
  ASSERT_TRUE(blob.ok());
  for (size_t len = 0; len < blob->size(); ++len) {
    auto loaded = DeserializeIndexes(blob->substr(0, len), corpus_);
    EXPECT_FALSE(loaded.ok()) << "prefix of " << len << " bytes loaded";
  }
}

TEST_F(IndexIoTest, CorruptCountsAreRejectedBeforeAllocation) {
  ASSERT_TRUE(system_->BuildIndexes().ok());
  auto blob = system_->ExportIndexes();
  ASSERT_TRUE(blob.ok());
  // Overwrite each 8-byte window with an absurd count. Whatever field
  // the window lands on — a region count, word count, or posting count —
  // deserialization must fail by bounds-checking the count against the
  // bytes remaining, not by attempting a 2^60-element reserve.
  for (size_t at = 24; at + 8 <= blob->size();
       at += std::max<size_t>(1, blob->size() / 97)) {
    std::string corrupt = *blob;
    for (size_t i = 0; i < 8; ++i) corrupt[at + i] = '\x7f';
    auto loaded = DeserializeIndexes(corrupt, corpus_);
    // Some windows only touch region coordinates or posting payloads;
    // those may still load or fail the span check. The requirement is no
    // crash and no over-allocation, which running to completion shows.
    (void)loaded;
  }
  // The pristine blob still loads.
  auto spec_ok = DeserializeIndexes(*blob, corpus_);
  ASSERT_TRUE(spec_ok.ok());
}

TEST_F(IndexIoTest, AbsurdRegionCountFailsWithCountDiagnostic) {
  // Hand-built blob claiming 2^62 regions for one name: the count check
  // must reject it against the (tiny) remaining byte budget.
  auto put32 = [](uint32_t v, std::string* out) {
    for (int i = 0; i < 4; ++i) {
      out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  };
  auto put64 = [](uint64_t v, std::string* out) {
    for (int i = 0; i < 8; ++i) {
      out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  };
  Corpus corpus;
  ASSERT_TRUE(corpus.AddDocument("x.txt", "x").ok());
  std::string payload;
  put32(1, &payload);  // document table: one row
  put32(5, &payload);
  payload += "x.txt";
  put64(1, &payload);
  put64(CorpusFingerprint("x"), &payload);
  payload.push_back(0);  // mode: full
  payload.push_back(0);  // fold_case: off
  put32(0, &payload);    // no spec names
  put32(0, &payload);    // no within entries
  put32(1, &payload);    // one region name
  put32(1, &payload);
  payload.push_back('A');
  put64(uint64_t{1} << 62, &payload);  // absurd region count
  std::string blob = "QOFIDX3\n";
  put64(0, &blob);                             // generation
  put64(CorpusFingerprint(payload), &blob);    // payload checksum
  blob += payload;
  auto loaded = DeserializeIndexes(blob, corpus);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("count"), std::string::npos)
      << loaded.status().message();
}

TEST_F(IndexIoTest, ExportRequiresBuiltIndexes) {
  EXPECT_FALSE(system_->ExportIndexes().ok());
}

TEST_F(IndexIoTest, TokenFilterIsNotSerializable) {
  IndexSpec spec;
  spec.word_options.token_filter = [](const WordToken&) { return true; };
  ASSERT_TRUE(system_->BuildIndexes(spec).ok());
  auto blob = system_->ExportIndexes();
  ASSERT_FALSE(blob.ok());
  EXPECT_TRUE(blob.status().IsInvalidArgument());
}

TEST_F(IndexIoTest, FingerprintIsStable) {
  EXPECT_EQ(CorpusFingerprint("abc"), CorpusFingerprint("abc"));
  EXPECT_NE(CorpusFingerprint("abc"), CorpusFingerprint("abd"));
  EXPECT_NE(CorpusFingerprint(""), CorpusFingerprint(" "));
}

}  // namespace
}  // namespace qof
