#include "qof/engine/index_io.h"

#include <algorithm>
#include <cstring>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "qof/exec/fault_injector.h"
#include "qof/util/wire.h"

namespace qof {
namespace {

constexpr char kMagic[] = "QOFIDX3\n";
constexpr size_t kMagicLen = 8;
// Magics of the retired formats, recognised only to name them in the
// load error.
constexpr const char* kRetiredMagics[] = {"QOFIDX1\n", "QOFIDX2\n"};

// Header: magic | generation u64 | payload checksum u64. The checksum
// covers everything after the header (doc table + body) but not the
// generation, so blobs that differ only in maintenance history still
// byte-compare after StripGeneration-style zeroing of bytes [8, 16).
constexpr size_t kHeaderLen = kMagicLen + 16;

bool HasMagic(std::string_view blob, const char* magic) {
  return blob.size() >= kMagicLen &&
         std::memcmp(blob.data(), magic, kMagicLen) == 0;
}

// --- shared body (spec + regions + words + documents) ----------------------

Status DecodeSpecFields(WireReader* reader, IndexSpec* spec) {
  QOF_ASSIGN_OR_RETURN(uint8_t mode, reader->U8());
  spec->mode = mode == 0 ? IndexSpec::Mode::kFull : IndexSpec::Mode::kPartial;
  QOF_ASSIGN_OR_RETURN(uint8_t fold_case, reader->U8());
  spec->word_options.fold_case = fold_case != 0;
  QOF_ASSIGN_OR_RETURN(uint32_t num_spec_names, reader->U32());
  for (uint32_t i = 0; i < num_spec_names; ++i) {
    QOF_ASSIGN_OR_RETURN(std::string name, reader->String());
    spec->names.insert(std::move(name));
  }
  QOF_ASSIGN_OR_RETURN(uint32_t num_within, reader->U32());
  for (uint32_t i = 0; i < num_within; ++i) {
    QOF_ASSIGN_OR_RETURN(std::string name, reader->String());
    QOF_ASSIGN_OR_RETURN(std::string ancestor, reader->String());
    spec->within.emplace(std::move(name), std::move(ancestor));
  }
  return Status::OK();
}

Status AppendBody(const BuiltIndexes& built, const IndexSpec& spec,
                  std::string* out) {
  EncodeIndexSpec(spec, out);

  // Region instances.
  std::vector<std::string> names = built.regions.Names();
  PutU32(static_cast<uint32_t>(names.size()), out);
  for (const std::string& name : names) {
    PutString(name, out);
    auto set = built.regions.Get(name);
    if (!set.ok()) return set.status();
    PutU64((*set)->size(), out);
    for (const Region& r : **set) {
      PutU64(r.start, out);
      PutU64(r.end, out);
    }
  }

  // Word postings, in sorted word order: the posting map iterates in an
  // unspecified order, and a canonical blob lets byte comparison stand in
  // for index equality (the parallel-vs-serial determinism tests and the
  // incremental-vs-rebuild fuzz oracle rely on this).
  std::vector<std::pair<const std::string*, const std::vector<TextPos>*>>
      words;
  words.reserve(built.words.num_distinct_words());
  built.words.ForEachWord(
      [&words](const std::string& word, const std::vector<TextPos>& posts) {
        words.emplace_back(&word, &posts);
      });
  std::sort(words.begin(), words.end(),
            [](const auto& a, const auto& b) { return *a.first < *b.first; });
  PutU64(words.size(), out);
  for (const auto& [word, posts] : words) {
    PutString(*word, out);
    PutU64(posts->size(), out);
    for (TextPos p : *posts) PutU64(p, out);
  }

  PutU64(built.documents, out);
  return Status::OK();
}

Status DecodeBody(WireReader* reader, uint64_t corpus_size,
                  SerializedIndexes* out) {
  QOF_RETURN_IF_ERROR(DecodeSpecFields(reader, &out->spec));

  // Region instances.
  QOF_ASSIGN_OR_RETURN(uint32_t num_region_names, reader->U32());
  for (uint32_t i = 0; i < num_region_names; ++i) {
    QOF_ASSIGN_OR_RETURN(std::string name, reader->String());
    QOF_ASSIGN_OR_RETURN(uint64_t count, reader->U64());
    QOF_RETURN_IF_ERROR(reader->CheckCount(count, 16));  // two u64 each
    std::vector<Region> regions;
    regions.reserve(count);
    for (uint64_t j = 0; j < count; ++j) {
      QOF_ASSIGN_OR_RETURN(uint64_t start, reader->U64());
      QOF_ASSIGN_OR_RETURN(uint64_t end, reader->U64());
      if (end < start || end > corpus_size) {
        return Status::InvalidArgument("corrupt region span in blob");
      }
      regions.push_back({start, end});
    }
    out->indexes.regions.Add(std::move(name),
                             RegionSet::FromUnsorted(std::move(regions)));
  }

  // Word postings.
  QOF_ASSIGN_OR_RETURN(uint64_t num_words, reader->U64());
  // Smallest possible entry: empty word (4-byte length) + posting count.
  QOF_RETURN_IF_ERROR(reader->CheckCount(num_words, 12));
  std::vector<std::pair<std::string, std::vector<TextPos>>> entries;
  entries.reserve(num_words);
  for (uint64_t i = 0; i < num_words; ++i) {
    QOF_ASSIGN_OR_RETURN(std::string word, reader->String());
    QOF_ASSIGN_OR_RETURN(uint64_t count, reader->U64());
    QOF_RETURN_IF_ERROR(reader->CheckCount(count, 8));
    std::vector<TextPos> postings;
    postings.reserve(count);
    for (uint64_t j = 0; j < count; ++j) {
      QOF_ASSIGN_OR_RETURN(uint64_t p, reader->U64());
      postings.push_back(p);
    }
    entries.emplace_back(std::move(word), std::move(postings));
  }
  out->indexes.words = WordIndex::FromEntries(
      std::move(entries), out->spec.word_options.fold_case);

  QOF_ASSIGN_OR_RETURN(out->indexes.documents, reader->U64());
  if (!reader->AtEnd()) {
    return Status::InvalidArgument("trailing bytes after index blob");
  }
  return Status::OK();
}

Status CheckSerializable(const IndexSpec& spec) {
  if (spec.word_options.token_filter) {
    return Status::InvalidArgument(
        "word-index token filters are code and cannot be serialized; "
        "rebuild instead of loading");
  }
  return Status::OK();
}

// --- document table --------------------------------------------------------

Result<std::vector<DocFingerprint>> DecodeDocTable(WireReader* reader) {
  QOF_ASSIGN_OR_RETURN(uint32_t count, reader->U32());
  // Smallest entry: empty name (4) + size (8) + fingerprint (8).
  QOF_RETURN_IF_ERROR(reader->CheckCount(count, 20));
  std::vector<DocFingerprint> docs;
  docs.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    DocFingerprint doc;
    QOF_ASSIGN_OR_RETURN(doc.name, reader->String());
    QOF_ASSIGN_OR_RETURN(doc.size, reader->U64());
    QOF_ASSIGN_OR_RETURN(doc.fnv1a, reader->U64());
    docs.push_back(std::move(doc));
  }
  return docs;
}

/// Replays Corpus::AddDocument's layout rule over a document table (a
/// '\n' separator precedes every document except when the text so far is
/// empty) and returns the implied corpus size.
uint64_t LayoutSize(const std::vector<DocFingerprint>& docs) {
  uint64_t off = 0;
  for (const DocFingerprint& doc : docs) {
    off = (off > 0 ? off + 1 : off) + doc.size;
  }
  return off;
}

std::string JoinStale(const std::vector<std::string>& stale) {
  constexpr size_t kMaxNamed = 8;
  std::string out;
  for (size_t i = 0; i < stale.size() && i < kMaxNamed; ++i) {
    if (i > 0) out += ", ";
    out += stale[i];
  }
  if (stale.size() > kMaxNamed) {
    out += ", … (" + std::to_string(stale.size()) + " total)";
  }
  return out;
}

/// Reads the u64 checksum field of the header and verifies it against
/// the payload. A mismatch means the blob was damaged after it was
/// written — a bit flip anywhere in the doc table or index body is
/// caught here, before any of it is decoded.
Status VerifyPayloadChecksum(std::string_view blob, WireReader* reader) {
  QOF_ASSIGN_OR_RETURN(uint64_t expected, reader->U64());
  if (blob.size() < kHeaderLen ||
      Fnv1a(blob.substr(kHeaderLen)) != expected) {
    return Status::InvalidArgument(
        "index blob corrupt (payload checksum mismatch); rebuild the "
        "indexes");
  }
  return Status::OK();
}

/// A blob's validated header: its generation, and a reader positioned at
/// the document table.
struct BlobHeader {
  uint64_t generation = 0;
  WireReader reader;
};

Result<BlobHeader> ReadHeader(std::string_view blob) {
  if (!HasMagic(blob, kMagic)) {
    for (const char* retired : kRetiredMagics) {
      if (HasMagic(blob, retired)) {
        return Status::InvalidArgument(
            "index blob format " + std::string(retired, kMagicLen - 1) +
            " is no longer readable; rebuild the indexes from the source "
            "files and re-export them (QOFIDX3)");
      }
    }
    return Status::InvalidArgument("not a qof index blob (bad magic)");
  }
  BlobHeader header{0, WireReader(blob.substr(kMagicLen), "index blob")};
  QOF_ASSIGN_OR_RETURN(header.generation, header.reader.U64());
  QOF_RETURN_IF_ERROR(VerifyPayloadChecksum(blob, &header.reader));
  return header;
}

}  // namespace

uint64_t CorpusFingerprint(std::string_view text) { return Fnv1a(text); }

Result<std::string> SerializeIndexes(const BuiltIndexes& built,
                                     const IndexSpec& spec,
                                     const Corpus& corpus,
                                     uint64_t generation) {
  QOF_RETURN_IF_ERROR(MaybeInjectFault(fault_site::kIndexIoSerialize));
  QOF_RETURN_IF_ERROR(CheckSerializable(spec));
  if (corpus.fragmented()) {
    return Status::InvalidArgument(
        "corpus has tombstoned spans — compact before serializing "
        "(blob offsets must describe a dense layout)");
  }
  // Doc table + body are assembled first so the header can carry their
  // checksum.
  QOF_ASSIGN_OR_RETURN(std::string payload, EncodeDocTable(corpus));
  QOF_RETURN_IF_ERROR(AppendBody(built, spec, &payload));
  std::string out;
  out.reserve(kHeaderLen + payload.size());
  out.append(kMagic, kMagicLen);
  PutU64(generation, &out);
  PutU64(Fnv1a(payload), &out);
  out += payload;
  return out;
}

Result<SerializedIndexes> DeserializeIndexes(std::string_view blob,
                                             const Corpus& corpus,
                                             DeserializeOptions options) {
  QOF_RETURN_IF_ERROR(MaybeInjectFault(fault_site::kIndexIoDeserialize));
  if (corpus.fragmented()) {
    return Status::InvalidArgument(
        "corpus has tombstoned spans; compact before loading indexes");
  }
  QOF_ASSIGN_OR_RETURN(BlobHeader header, ReadHeader(blob));
  SerializedIndexes out;
  out.generation = header.generation;
  QOF_ASSIGN_OR_RETURN(std::vector<DocFingerprint> docs,
                       DecodeDocTable(&header.reader));
  std::vector<std::string> stale = DiagnoseStaleDocs(docs, corpus);
  if (!stale.empty() && !options.allow_stale) {
    return Status::InvalidArgument(
        "index blob is stale: " + JoinStale(stale) +
        "; rebuild the indexes (or load with allow_stale)");
  }
  QOF_RETURN_IF_ERROR(
      DecodeBody(&header.reader, LayoutSize(docs), &out));
  out.stale_documents = std::move(stale);
  return out;
}

void EncodeIndexSpec(const IndexSpec& spec, std::string* out) {
  out->push_back(spec.mode == IndexSpec::Mode::kFull ? 0 : 1);
  out->push_back(spec.word_options.fold_case ? 1 : 0);
  PutU32(static_cast<uint32_t>(spec.names.size()), out);
  for (const std::string& name : spec.names) PutString(name, out);
  PutU32(static_cast<uint32_t>(spec.within.size()), out);
  for (const auto& [name, ancestor] : spec.within) {
    PutString(name, out);
    PutString(ancestor, out);
  }
}

Result<IndexSpec> DecodeIndexSpec(std::string_view bytes) {
  WireReader reader(bytes, "index spec");
  IndexSpec spec;
  QOF_RETURN_IF_ERROR(DecodeSpecFields(&reader, &spec));
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after index spec");
  }
  return spec;
}

Result<std::string> EncodeDocTable(const Corpus& corpus) {
  if (corpus.fragmented()) {
    return Status::InvalidArgument(
        "corpus has tombstoned spans — compact before serializing "
        "(blob offsets must describe a dense layout)");
  }
  std::string out;
  PutU32(static_cast<uint32_t>(corpus.num_documents()), &out);
  for (DocId id = 0; id < corpus.num_documents(); ++id) {
    PutString(corpus.document_name(id), &out);
    PutU64(corpus.document_end(id) - corpus.document_start(id), &out);
    PutU64(corpus.DocumentFingerprint(id), &out);
  }
  return out;
}

Result<std::vector<DocFingerprint>> DecodeDocTableBytes(
    std::string_view bytes) {
  WireReader reader(bytes, "document table");
  QOF_ASSIGN_OR_RETURN(std::vector<DocFingerprint> docs,
                       DecodeDocTable(&reader));
  if (!reader.AtEnd()) {
    return Status::InvalidArgument("trailing bytes after document table");
  }
  return docs;
}

std::vector<std::string> DiagnoseStaleDocs(
    const std::vector<DocFingerprint>& docs, const Corpus& corpus) {
  // Per-document staleness, by name: modified / missing / new, plus
  // "moved" when the contents all match but the physical order differs
  // (offsets are order-dependent). One name map per side keeps this
  // linear; emplace keeps the first entry of a name, as a scan would.
  const size_t n = corpus.num_documents();
  std::unordered_map<std::string_view, DocId> live_by_name;
  live_by_name.reserve(n);
  for (DocId id = 0; id < n; ++id) {
    live_by_name.emplace(corpus.document_name(id), id);
  }
  std::unordered_set<std::string_view> persisted_names;
  persisted_names.reserve(docs.size());
  std::vector<std::string> stale;
  for (const DocFingerprint& d : docs) {
    persisted_names.insert(d.name);
    auto it = live_by_name.find(d.name);
    if (it == live_by_name.end()) {
      stale.push_back("missing: " + d.name);
      continue;
    }
    DocId id = it->second;
    if (corpus.document_end(id) - corpus.document_start(id) != d.size ||
        corpus.DocumentFingerprint(id) != d.fnv1a) {
      stale.push_back("modified: " + d.name);
    }
  }
  for (DocId id = 0; id < n; ++id) {
    if (!persisted_names.contains(corpus.document_name(id))) {
      stale.push_back("new: " + corpus.document_name(id));
    }
  }
  if (stale.empty() && docs.size() == n) {
    for (size_t i = 0; i < docs.size(); ++i) {
      if (docs[i].name != corpus.document_name(static_cast<DocId>(i))) {
        stale.push_back("moved: " + docs[i].name);
      }
    }
  }
  return stale;
}

std::string FormatStaleDocs(const std::vector<std::string>& stale) {
  return JoinStale(stale);
}

Result<UncheckedIndexes> DeserializeIndexesUnchecked(std::string_view blob) {
  QOF_RETURN_IF_ERROR(MaybeInjectFault(fault_site::kIndexIoDeserialize));
  QOF_ASSIGN_OR_RETURN(BlobHeader header, ReadHeader(blob));
  UncheckedIndexes out;
  out.indexes.generation = header.generation;
  QOF_ASSIGN_OR_RETURN(out.docs, DecodeDocTable(&header.reader));
  QOF_RETURN_IF_ERROR(
      DecodeBody(&header.reader, LayoutSize(out.docs), &out.indexes));
  return out;
}

Result<BlobInfo> ReadBlobInfo(std::string_view blob) {
  QOF_ASSIGN_OR_RETURN(BlobHeader header, ReadHeader(blob));
  BlobInfo info;
  info.generation = header.generation;
  QOF_ASSIGN_OR_RETURN(info.docs, DecodeDocTable(&header.reader));
  return info;
}

}  // namespace qof
