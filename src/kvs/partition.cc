#include "src/kvs/partition.h"

#include <algorithm>

#include "src/common/checksum.h"
#include "src/common/strings.h"

namespace kvs {

wdg::Status PartitionManager::Register(const std::string& path, const std::string& min_key,
                                       const std::string& max_key) {
  PartitionInfo info;
  info.path = path;
  info.min_key = min_key;
  info.max_key = max_key;
  WDG_ASSIGN_OR_RETURN(const std::string data, disk_.ReadAll(path));
  info.expected_crc = wdg::Crc32(data);
  std::lock_guard<std::mutex> lock(mu_);
  partitions_.push_back(std::move(info));
  return wdg::Status::Ok();
}

void PartitionManager::Unregister(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  std::erase_if(partitions_, [&](const PartitionInfo& p) { return p.path == path; });
}

std::vector<PartitionInfo> PartitionManager::Partitions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return partitions_;
}

wdg::Status PartitionManager::Validate(const std::string& path) const {
  // Instrumented site so campaigns can wedge/disable validation itself.
  WDG_RETURN_IF_ERROR(disk_.injector().Act("kvs.partition.validate"));
  PartitionInfo info;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = std::find_if(partitions_.begin(), partitions_.end(),
                                 [&](const PartitionInfo& p) { return p.path == path; });
    if (it == partitions_.end()) {
      return wdg::NotFoundError("unknown partition: " + path);
    }
    info = *it;
  }
  WDG_ASSIGN_OR_RETURN(const std::string data, disk_.ReadAll(info.path));
  const uint32_t crc = wdg::Crc32(data);
  if (crc != info.expected_crc) {
    return wdg::CorruptionError(
        wdg::StrFormat("partition %s checksum mismatch (expected %08x, got %08x)",
                       info.path.c_str(), info.expected_crc, crc));
  }
  return wdg::Status::Ok();
}

wdg::Status PartitionManager::ValidateAll() const {
  for (const PartitionInfo& info : Partitions()) {
    WDG_RETURN_IF_ERROR(Validate(info.path));
  }
  return wdg::Status::Ok();
}

wdg::Status PartitionManager::CheckRangesSorted() const {
  const auto partitions = Partitions();
  for (size_t i = 1; i < partitions.size(); ++i) {
    if (partitions[i].min_key < partitions[i - 1].min_key) {
      return wdg::InternalError(
          wdg::StrFormat("partition ranges out of order at %s", partitions[i].path.c_str()));
    }
  }
  return wdg::Status::Ok();
}

}  // namespace kvs
