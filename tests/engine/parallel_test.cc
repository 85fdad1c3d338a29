// Determinism of the parallel paths: an index built with N workers must
// be byte-identical (via ExportIndexes) to the serial build, and query
// results must not depend on the worker count — parallelism buys wall
// time only, never a different answer.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "qof/datagen/bibtex_gen.h"
#include "qof/datagen/log_gen.h"
#include "qof/datagen/mail_gen.h"
#include "qof/datagen/schemas.h"
#include "qof/engine/system.h"

namespace qof {
namespace {

constexpr int kThreads = 4;

std::vector<std::string> BibtexFiles() {
  std::vector<std::string> files;
  for (uint32_t seed = 1; seed <= 6; ++seed) {
    BibtexGenOptions opt;
    opt.num_references = 40;
    opt.seed = seed;
    opt.probe_author_rate = 0.2;
    opt.probe_editor_rate = 0.2;
    files.push_back(GenerateBibtex(opt));
  }
  return files;
}

std::unique_ptr<FileQuerySystem> MakeSystem(
    const Result<StructuringSchema>& schema, const char* stem,
    const std::vector<std::string>& files) {
  EXPECT_TRUE(schema.ok());
  auto system = std::make_unique<FileQuerySystem>(*schema);
  for (size_t i = 0; i < files.size(); ++i) {
    EXPECT_TRUE(
        system->AddFile(stem + std::to_string(i), files[i]).ok());
  }
  return system;
}

std::string BuildAndExport(FileQuerySystem* system, const IndexSpec& spec,
                           int parallelism) {
  system->SetParallelism(parallelism);
  EXPECT_TRUE(system->BuildIndexes(spec).ok());
  auto blob = system->ExportIndexes();
  EXPECT_TRUE(blob.ok()) << blob.status().ToString();
  return blob.ok() ? *blob : std::string();
}

void ExpectByteIdenticalBuilds(const Result<StructuringSchema>& schema,
                               const std::vector<std::string>& files,
                               const IndexSpec& spec) {
  auto serial = MakeSystem(schema, "f", files);
  auto parallel = MakeSystem(schema, "f", files);
  std::string serial_blob = BuildAndExport(serial.get(), spec, 1);
  std::string parallel_blob =
      BuildAndExport(parallel.get(), spec, kThreads);
  ASSERT_FALSE(serial_blob.empty());
  EXPECT_EQ(serial_blob, parallel_blob);
  EXPECT_EQ(serial->region_index().num_regions(),
            parallel->region_index().num_regions());
  EXPECT_EQ(serial->word_index().num_postings(),
            parallel->word_index().num_postings());
}

TEST(ParallelBuildTest, BibtexFullSpecIsByteIdentical) {
  ExpectByteIdenticalBuilds(BibtexSchema(), BibtexFiles(),
                            IndexSpec::Full());
}

TEST(ParallelBuildTest, BibtexPartialSpecIsByteIdentical) {
  ExpectByteIdenticalBuilds(
      BibtexSchema(), BibtexFiles(),
      IndexSpec::Partial({"Reference", "Authors", "Name", "Last_Name"}));
}

TEST(ParallelBuildTest, BibtexFoldCaseIsByteIdentical) {
  IndexSpec spec;
  spec.word_options.fold_case = true;
  ExpectByteIdenticalBuilds(BibtexSchema(), BibtexFiles(), spec);
}

TEST(ParallelBuildTest, MailCorpusIsByteIdentical) {
  std::vector<std::string> files;
  for (uint32_t seed = 1; seed <= 5; ++seed) {
    MailGenOptions opt;
    opt.num_messages = 30;
    opt.seed = seed;
    files.push_back(GenerateMailbox(opt));
  }
  ExpectByteIdenticalBuilds(MailSchema(), files, IndexSpec::Full());
}

TEST(ParallelBuildTest, LogCorpusIsByteIdentical) {
  std::vector<std::string> files;
  for (uint32_t seed = 1; seed <= 5; ++seed) {
    LogGenOptions opt;
    opt.num_entries = 120;
    opt.seed = seed;
    files.push_back(GenerateLog(opt));
  }
  ExpectByteIdenticalBuilds(LogSchema(), files, IndexSpec::Full());
}

TEST(ParallelBuildTest, SingleDocumentCorpusMatchesSerial) {
  // One document leaves nothing to parallelize; the build must still be
  // identical, not merely equivalent.
  BibtexGenOptions opt;
  opt.num_references = 50;
  std::vector<std::string> files = {GenerateBibtex(opt)};
  ExpectByteIdenticalBuilds(BibtexSchema(), files, IndexSpec::Full());
}

class ParallelQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto schema = BibtexSchema();
    ASSERT_TRUE(schema.ok());
    serial_ = MakeSystem(schema, "q", BibtexFiles());
    parallel_ = MakeSystem(schema, "q", BibtexFiles());
    serial_->SetParallelism(1);
    parallel_->SetParallelism(kThreads);
  }

  void CheckAgreement(const IndexSpec& spec, ExecutionMode mode) {
    ASSERT_TRUE(serial_->BuildIndexes(spec).ok());
    ASSERT_TRUE(parallel_->BuildIndexes(spec).ok());
    const std::string queries[] = {
        "SELECT r FROM References r WHERE r.Authors.Name.Last_Name = "
        "\"Chang\"",
        "SELECT r FROM References r WHERE r.Authors.Name.Last_Name = "
        "\"Chang\" AND NOT r.Editors.Name.Last_Name = \"Chang\"",
        "SELECT r FROM References r WHERE r.*X.Last_Name = \"Chang\"",
        "SELECT r.Title FROM References r WHERE "
        "r.Authors.Name.Last_Name = \"Chang\"",
        "SELECT r.Authors.Name.Last_Name FROM References r WHERE "
        "r.Publisher = \"SIAM\"",
        "SELECT r FROM References r WHERE r.Keywords CONTAINS \"Taylor\"",
        "SELECT r FROM References r WHERE r.Year = \"1982\" OR r.Year = "
        "\"1983\"",
    };
    for (const std::string& fql : queries) {
      auto s = serial_->Execute(fql, mode);
      auto p = parallel_->Execute(fql, mode);
      ASSERT_EQ(s.ok(), p.ok()) << fql;
      if (!s.ok()) continue;
      EXPECT_EQ(s->regions, p->regions) << fql;
      EXPECT_EQ(s->RenderedValues(), p->RenderedValues()) << fql;
      EXPECT_EQ(s->stats.strategy, p->stats.strategy) << fql;
      EXPECT_EQ(s->stats.candidates, p->stats.candidates) << fql;
      EXPECT_EQ(s->stats.results, p->stats.results) << fql;
      EXPECT_EQ(s->stats.objects_built, p->stats.objects_built) << fql;
      EXPECT_EQ(s->stats.bytes_scanned, p->stats.bytes_scanned) << fql;
    }
  }

  std::unique_ptr<FileQuerySystem> serial_;
  std::unique_ptr<FileQuerySystem> parallel_;
};

TEST_F(ParallelQueryTest, AutoModeAgreesOnFullIndex) {
  CheckAgreement(IndexSpec::Full(), ExecutionMode::kAuto);
}

TEST_F(ParallelQueryTest, AutoModeAgreesOnPartialIndex) {
  CheckAgreement(
      IndexSpec::Partial({"Reference", "Key", "Last_Name"}),
      ExecutionMode::kAuto);
}

TEST_F(ParallelQueryTest, ForcedTwoPhaseAgrees) {
  CheckAgreement(IndexSpec::Full(), ExecutionMode::kTwoPhase);
  CheckAgreement(
      IndexSpec::Partial({"Reference", "Authors", "Name", "Last_Name"}),
      ExecutionMode::kTwoPhase);
}

TEST_F(ParallelQueryTest, BaselineAgrees) {
  CheckAgreement(IndexSpec::Full(), ExecutionMode::kBaseline);
}

}  // namespace
}  // namespace qof
