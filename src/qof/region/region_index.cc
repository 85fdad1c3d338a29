#include "qof/region/region_index.h"

#include <utility>

#include "qof/region/region_cursor.h"

namespace qof {

void RegionIndex::Add(std::string name, RegionSet regions) {
  auto it = sets_.find(name);
  if (it == sets_.end()) {
    sets_.emplace(std::move(name), std::move(regions));
  } else {
    it->second = Union(it->second, regions);
  }
}

uint64_t RegionIndex::EraseSpan(uint64_t begin, uint64_t end) {
  uint64_t erased = 0;
  for (auto& [name, set] : sets_) {
    erased += set.EraseStartsIn(begin, end);
  }
  return erased;
}

void RegionIndex::InsertDocRegions(
    const std::map<std::string, std::vector<Region>>& by_name) {
  for (const auto& [name, run] : by_name) {
    sets_[name].InsertRun(run);
  }
}

bool RegionIndex::Has(std::string_view name) const {
  if (source_ != nullptr) {
    std::lock_guard<std::mutex> lock(lazy_mu_);
    if (unloaded_.find(name) != unloaded_.end()) return true;
    return sets_.find(name) != sets_.end();
  }
  return sets_.find(name) != sets_.end();
}

Status RegionIndex::MaterializeLocked(const std::string& name,
                                      uint64_t count) const {
  QOF_ASSIGN_OR_RETURN(std::unique_ptr<RegionCursor> cursor,
                       source_->OpenCursor(name));
  QOF_ASSIGN_OR_RETURN(RegionSet set, MaterializeCursor(*cursor));
  if (set.size() != count) {
    return Status::Internal("region instance '" + name + "' materialized " +
                            std::to_string(set.size()) + " regions, store " +
                            "dictionary promised " + std::to_string(count));
  }
  sets_.emplace(name, std::move(set));
  unloaded_.erase(name);
  return Status::OK();
}

uint64_t RegionIndex::InstanceCount(std::string_view name) const {
  if (source_ != nullptr) {
    std::lock_guard<std::mutex> lock(lazy_mu_);
    auto pending = unloaded_.find(name);
    if (pending != unloaded_.end()) return pending->second;
    auto it = sets_.find(name);
    return it != sets_.end() ? it->second.size() : 0;
  }
  auto it = sets_.find(name);
  return it != sets_.end() ? it->second.size() : 0;
}

Result<const RegionSet*> RegionIndex::Get(std::string_view name) const {
  if (source_ != nullptr) {
    std::lock_guard<std::mutex> lock(lazy_mu_);
    auto it = sets_.find(name);
    if (it != sets_.end()) return &it->second;
    auto pending = unloaded_.find(name);
    if (pending != unloaded_.end()) {
      QOF_RETURN_IF_ERROR(
          MaterializeLocked(pending->first, pending->second));
      return &sets_.find(name)->second;
    }
    return Status::NotFound("region name not indexed: " + std::string(name));
  }
  auto it = sets_.find(name);
  if (it == sets_.end()) {
    return Status::NotFound("region name not indexed: " + std::string(name));
  }
  return &it->second;
}

Result<std::unique_ptr<RegionCursor>> RegionIndex::OpenCursor(
    std::string_view name) const {
  if (source_ != nullptr) {
    std::lock_guard<std::mutex> lock(lazy_mu_);
    if (unloaded_.find(name) != unloaded_.end()) {
      return source_->OpenCursor(name);
    }
    if (sets_.find(name) != sets_.end()) {
      return std::unique_ptr<RegionCursor>();
    }
    return Status::NotFound("region name not indexed: " + std::string(name));
  }
  if (sets_.find(name) == sets_.end()) {
    return Status::NotFound("region name not indexed: " + std::string(name));
  }
  return std::unique_ptr<RegionCursor>();
}

std::vector<std::string> RegionIndex::Names() const {
  std::vector<std::string> names;
  if (source_ != nullptr) {
    std::lock_guard<std::mutex> lock(lazy_mu_);
    names.reserve(sets_.size() + unloaded_.size());
    // Both maps are sorted and disjoint: merge.
    auto a = sets_.begin();
    auto b = unloaded_.begin();
    while (a != sets_.end() || b != unloaded_.end()) {
      if (b == unloaded_.end() ||
          (a != sets_.end() && a->first < b->first)) {
        names.push_back((a++)->first);
      } else {
        names.push_back((b++)->first);
      }
    }
    return names;
  }
  names.reserve(sets_.size());
  for (const auto& [name, set] : sets_) names.push_back(name);
  return names;
}

Status RegionIndex::AttachSource(std::shared_ptr<const RegionSource> source) {
  QOF_ASSIGN_OR_RETURN(std::vector<RegionSource::Entry> entries,
                       source->Entries());
  std::lock_guard<std::mutex> lock(lazy_mu_);
  for (auto& e : entries) {
    if (sets_.find(e.name) == sets_.end()) {
      unloaded_.emplace(std::move(e.name), e.count);
    }
  }
  source_ = std::move(source);
  return Status::OK();
}

bool RegionIndex::disk_resident() const {
  if (source_ == nullptr) return false;
  std::lock_guard<std::mutex> lock(lazy_mu_);
  return !unloaded_.empty();
}

bool RegionIndex::IsResident(std::string_view name) const {
  std::unique_lock<std::mutex> lock(lazy_mu_, std::defer_lock);
  if (source_ != nullptr) lock.lock();
  return sets_.find(name) != sets_.end();
}

Status RegionIndex::EnsureResident() const {
  if (source_ == nullptr) return Status::OK();
  std::lock_guard<std::mutex> lock(lazy_mu_);
  while (!unloaded_.empty()) {
    auto it = unloaded_.begin();
    QOF_RETURN_IF_ERROR(MaterializeLocked(it->first, it->second));
  }
  return Status::OK();
}

size_t RegionIndex::num_names() const {
  if (source_ != nullptr) {
    std::lock_guard<std::mutex> lock(lazy_mu_);
    return sets_.size() + unloaded_.size();
  }
  return sets_.size();
}

uint64_t RegionIndex::num_regions() const {
  uint64_t n = 0;
  if (source_ != nullptr) {
    std::lock_guard<std::mutex> lock(lazy_mu_);
    for (const auto& [name, count] : unloaded_) n += count;
    for (const auto& [name, set] : sets_) n += set.size();
    return n;
  }
  for (const auto& [name, set] : sets_) n += set.size();
  return n;
}

uint64_t RegionIndex::ApproxBytes() const {
  uint64_t bytes = 0;
  if (source_ != nullptr) {
    std::lock_guard<std::mutex> lock(lazy_mu_);
    for (const auto& [name, count] : unloaded_) {
      bytes += name.size() + count * sizeof(Region) + 64;
    }
    for (const auto& [name, set] : sets_) {
      bytes += name.size() + set.size() * sizeof(Region) + 64;
    }
    return bytes;
  }
  for (const auto& [name, set] : sets_) {
    bytes += name.size() + set.size() * sizeof(Region) + 64;
  }
  return bytes;
}

Result<RegionSet> IndexedUniverse(const RegionIndex& index) {
  RegionSet universe;
  for (const std::string& name : index.Names()) {
    QOF_ASSIGN_OR_RETURN(const RegionSet* set, index.Get(name));
    universe = Union(universe, *set);
  }
  return universe;
}

}  // namespace qof
