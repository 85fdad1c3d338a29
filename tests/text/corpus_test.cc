#include "qof/text/corpus.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "qof/engine/index_io.h"
#include "qof/util/wire.h"

namespace qof {
namespace {

TEST(CorpusTest, EmptyCorpus) {
  Corpus c;
  EXPECT_EQ(c.num_documents(), 0u);
  EXPECT_EQ(c.size(), 0u);
}

TEST(CorpusTest, SingleDocumentSpansFromZero) {
  Corpus c;
  auto id = c.AddDocument("a.bib", "hello world");
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, 0u);
  EXPECT_EQ(c.document_start(0), 0u);
  EXPECT_EQ(c.document_end(0), 11u);
  EXPECT_EQ(c.RawText(0, 5), "hello");
}

TEST(CorpusTest, DocumentsSeparatedByNewline) {
  Corpus c;
  ASSERT_TRUE(c.AddDocument("a", "aaa").ok());
  ASSERT_TRUE(c.AddDocument("b", "bbb").ok());
  EXPECT_EQ(c.full_text(), "aaa\nbbb");
  EXPECT_EQ(c.document_start(1), 4u);
  EXPECT_EQ(c.document_end(1), 7u);
}

TEST(CorpusTest, DuplicateNameRejected) {
  Corpus c;
  ASSERT_TRUE(c.AddDocument("a", "x").ok());
  auto r = c.AddDocument("a", "y");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kAlreadyExists);
}

TEST(CorpusTest, DocumentAtFindsOwner) {
  Corpus c;
  ASSERT_TRUE(c.AddDocument("a", "aaa").ok());
  ASSERT_TRUE(c.AddDocument("b", "bbb").ok());
  auto d0 = c.DocumentAt(2);
  ASSERT_TRUE(d0.ok());
  EXPECT_EQ(*d0, 0u);
  auto d1 = c.DocumentAt(5);
  ASSERT_TRUE(d1.ok());
  EXPECT_EQ(*d1, 1u);
  // Position 3 is the separator between the documents.
  EXPECT_FALSE(c.DocumentAt(3).ok());
  EXPECT_FALSE(c.DocumentAt(100).ok());
}

TEST(CorpusTest, ScanAccountsBytesRawDoesNot) {
  Corpus c;
  ASSERT_TRUE(c.AddDocument("a", "0123456789").ok());
  EXPECT_EQ(c.bytes_read(), 0u);
  (void)c.RawText(0, 10);
  EXPECT_EQ(c.bytes_read(), 0u);
  EXPECT_EQ(c.ScanText(2, 6), "2345");
  EXPECT_EQ(c.bytes_read(), 4u);
  (void)c.ScanText(0, 10);
  EXPECT_EQ(c.bytes_read(), 14u);
  c.ResetBytesRead();
  EXPECT_EQ(c.bytes_read(), 0u);
}

TEST(CorpusTest, DocumentFingerprintIsFnv1aOfTheText) {
  Corpus c;
  const std::vector<std::string> texts = {"alpha", "", "gamma delta"};
  for (size_t i = 0; i < texts.size(); ++i) {
    ASSERT_TRUE(c.AddDocument(std::to_string(i) + ".txt", texts[i]).ok());
  }
  for (DocId id = 0; id < texts.size(); ++id) {
    EXPECT_EQ(c.DocumentFingerprint(id), Fnv1a(texts[id]));
    EXPECT_EQ(c.DocumentFingerprint(id), Fnv1a(texts[id]));  // memoized
  }
}

TEST(CorpusTest, ReplacementGetsFreshFingerprintOldIdKeepsItsOwn) {
  Corpus c;
  ASSERT_TRUE(c.AddDocument("a", "old text").ok());
  ASSERT_TRUE(c.AddDocument("b", "other").ok());
  const uint64_t old_fp = c.DocumentFingerprint(0);
  auto replaced = c.ReplaceDocument("a", "new text");
  ASSERT_TRUE(replaced.ok());
  EXPECT_EQ(c.DocumentFingerprint(*replaced), Fnv1a("new text"));
  EXPECT_EQ(c.DocumentFingerprint(0), old_fp);
  EXPECT_EQ(old_fp, Fnv1a("old text"));
}

TEST(CorpusTest, CloneAndMovesCarryTheFingerprints) {
  Corpus c;
  ASSERT_TRUE(c.AddDocument("a", "first").ok());
  ASSERT_TRUE(c.AddDocument("b", "second").ok());
  (void)c.DocumentFingerprint(0);  // one warm entry, one cold
  const Corpus clone = c.Clone();
  Corpus moved(std::move(c));
  Corpus assigned;
  assigned = std::move(moved);
  for (DocId id = 0; id < 2; ++id) {
    const uint64_t want = Fnv1a(id == 0 ? "first" : "second");
    EXPECT_EQ(clone.DocumentFingerprint(id), want);
    EXPECT_EQ(assigned.DocumentFingerprint(id), want);
  }
}

TEST(CorpusTest, ConcurrentDocTableEncodesAgree) {
  Corpus c;
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(
        c.AddDocument(std::to_string(i) + ".txt",
                      std::string(1000 + i, static_cast<char>('a' + i)))
            .ok());
  }
  const Corpus& shared = c;
  std::vector<std::string> tables(4);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < tables.size(); ++t) {
    threads.emplace_back([&shared, &tables, t] {
      auto table = EncodeDocTable(shared);
      if (table.ok()) tables[t] = *table;
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_FALSE(tables[0].empty());
  for (const std::string& table : tables) EXPECT_EQ(table, tables[0]);
  auto rows = DecodeDocTableBytes(tables[0]);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 16u);
  for (DocId id = 0; id < 16; ++id) {
    EXPECT_EQ((*rows)[id].fnv1a,
              Fnv1a(c.RawText(c.document_start(id), c.document_end(id))));
  }
}

}  // namespace
}  // namespace qof
