#include "src/kvs/partition.h"

#include <algorithm>

#include "src/common/strings.h"

namespace kvs {

void PartitionManager::Register(Index::TableRef table, std::string min_key,
                                std::string max_key) {
  PartitionInfo info{table->path, std::move(min_key), std::move(max_key), std::move(table)};
  std::lock_guard<std::mutex> lock(mu_);
  partitions_.push_back(std::move(info));
}

void PartitionManager::Unregister(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  std::erase_if(partitions_, [&](const PartitionInfo& p) { return p.path == path; });
}

std::vector<PartitionInfo> PartitionManager::Partitions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return partitions_;
}

bool PartitionManager::Registered(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::any_of(partitions_.begin(), partitions_.end(),
                     [&](const PartitionInfo& p) { return p.path == path; });
}

wdg::Status PartitionManager::Check(std::string_view path, bool whole) {
  // Instrumented site so campaigns can wedge/disable validation itself.
  WDG_RETURN_IF_ERROR(disk_.injector().Act("kvs.partition.validate"));
  Index::TableRef table;
  size_t first = 0;
  size_t count = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = partitions_.begin();
    if (path.empty()) {
      if (partitions_.empty()) {
        return wdg::Status::Ok();
      }
      it += static_cast<std::ptrdiff_t>(window_cursor_++ % partitions_.size());
    } else {
      it = std::find_if(partitions_.begin(), partitions_.end(),
                        [&](const PartitionInfo& p) { return p.path == path; });
      if (it == partitions_.end()) {
        return wdg::NotFoundError("unknown partition: " + std::string(path));
      }
    }
    table = it->table;
    if (table->map.ok()) {
      const size_t blocks = table->map->blocks().size();
      first = whole || it->next_block >= blocks ? 0 : it->next_block;
      count = whole ? blocks : table->map->BlocksWithin(first, kWindowBytes);
      it->next_block = whole ? it->next_block : first + count;
    }
  }
  if (table->map.ok()) {
    return table->map->Check(disk_, first, count);
  }
  // Verification failed at registration or at the last check: verify the
  // table again, as a whole, and on success keep the new map.
  Index::TableRef again = Index::Verify(disk_, table->path);
  WDG_RETURN_IF_ERROR(again->map.status());
  std::lock_guard<std::mutex> lock(mu_);
  for (PartitionInfo& info : partitions_) {
    if (info.table == table) {
      info.table = again;
    }
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
