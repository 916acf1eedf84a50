#include "src/kvs/partition.h"

#include <algorithm>
#include <array>
#include <span>

#include "src/common/checksum.h"
#include "src/common/strings.h"

namespace kvs {

namespace {
constexpr size_t kWindowStripes = PartitionManager::kWindowBytes / kPartitionStripeBytes;

// Checks `bytes`, which start at stripe `first` of the partition file, against
// `crcs`, the checksums of the stripes it covers; callers have checked that
// `bytes` is as long as those stripes.
wdg::Status CheckStripes(const std::string& path, std::string_view bytes, size_t first,
                         std::span<const uint32_t> crcs) {
  for (size_t i = 0; i < crcs.size(); ++i) {
    const uint32_t crc = wdg::Crc32(bytes.substr(i * kPartitionStripeBytes, kPartitionStripeBytes));
    if (crc != crcs[i]) {
      return wdg::CorruptionError(
          wdg::StrFormat("partition %s checksum mismatch at stripe %zu (expected %08x, got %08x)",
                         path.c_str(), first + i, crcs[i], crc));
    }
  }
  return wdg::Status::Ok();
}

wdg::Status SizeChanged(const std::string& path) {
  return wdg::CorruptionError("partition " + path + " size changed");
}
}  // namespace

wdg::Status PartitionManager::Register(const std::string& path, const std::string& min_key,
                                       const std::string& max_key) {
  PartitionInfo info;
  info.path = path;
  info.min_key = min_key;
  info.max_key = max_key;
  WDG_ASSIGN_OR_RETURN(const std::string data, disk_.ReadAll(path));
  info.size = data.size();
  for (size_t at = 0; at < data.size(); at += kPartitionStripeBytes) {
    info.stripe_crcs.push_back(
        wdg::Crc32(std::string_view(data).substr(at, kPartitionStripeBytes)));
  }
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

bool PartitionManager::Registered(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::any_of(partitions_.begin(), partitions_.end(),
                     [&](const PartitionInfo& p) { return p.path == path; });
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
  if (data.size() != info.size) {
    return SizeChanged(info.path);
  }
  return CheckStripes(info.path, data, 0, info.stripe_crcs);
}

wdg::Status PartitionManager::ValidateWindow(std::string_view path) {
  WDG_RETURN_IF_ERROR(disk_.injector().Act("kvs.partition.validate"));
  std::string file;
  size_t first = 0;
  std::array<uint32_t, kWindowStripes> crcs{};
  size_t count = 0;
  size_t length = 0;
  bool to_end = false;
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
    PartitionInfo& info = *it;
    const size_t stripes = info.stripe_crcs.size();
    first = stripes == 0 ? 0 : info.next_stripe % stripes;
    count = std::min(kWindowStripes, stripes - first);
    std::copy_n(info.stripe_crcs.begin() + static_cast<std::ptrdiff_t>(first), count,
                crcs.begin());
    to_end = first + count == stripes;
    length = to_end ? info.size - first * kPartitionStripeBytes : count * kPartitionStripeBytes;
    info.next_stripe = to_end ? 0 : first + count;
    file = info.path;
  }
  // A window that ends the file reads one byte past it: a file that grew
  // fails here, as the whole-file check would fail it.
  const auto read = disk_.Read(file, static_cast<int64_t>(first * kPartitionStripeBytes),
                               static_cast<int64_t>(length + (to_end ? 1 : 0)));
  if (read.status().code() == wdg::StatusCode::kInvalidArgument) {
    // Read refuses an offset past the end: the file shrank under the window.
    return wdg::CorruptionError("partition " + file + " truncated");
  }
  WDG_RETURN_IF_ERROR(read.status());
  if (read->size() != length) {
    return SizeChanged(file);
  }
  return CheckStripes(file, *read, first, std::span(crcs.data(), count));
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
