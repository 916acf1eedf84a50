#include "src/sim/sim_disk.h"

#include <algorithm>

#include "src/common/strings.h"

namespace wdg {

namespace {
constexpr char kScratchRoot[] = "/.wdg_scratch/";
}

SimDisk::SimDisk(Clock& clock, FaultInjector& injector, DiskOptions options)
    : clock_(clock),
      injector_(injector),
      options_(options),
      slow_factor_(options.slow_factor),
      bytes_read_(metrics_.GetCounter("disk.bytes_read")),
      bytes_written_(metrics_.GetCounter("disk.bytes_written")) {
  for (int op = 0; op < kNumOps; ++op) {
    op_counters_[op] = metrics_.GetCounter(std::string(kOpSites[op]) + ".ops");
  }
}

void SimDisk::ChargeLatency(int64_t bytes) const {
  double factor;
  {
    std::lock_guard<std::mutex> lock(mu_);
    factor = slow_factor_;
  }
  const double ns = static_cast<double>(options_.base_latency) +
                    static_cast<double>(options_.per_kb_latency) *
                        (static_cast<double>(bytes) / 1024.0);
  clock_.SleepFor(static_cast<DurationNs>(ns * factor));
}

Status SimDisk::Gate(Op op, std::string* payload, bool* dropped) const {
  op_counters_[op]->Increment();
  return injector_.Act(kOpSites[op], payload, dropped);
}

Status SimDisk::Create(const std::string& path) {
  WDG_RETURN_IF_ERROR(Gate(kCreate, nullptr, nullptr));
  ChargeLatency(0);
  std::lock_guard<std::mutex> lock(mu_);
  if (files_.count(path) > 0) {
    return AlreadyExistsError(path);
  }
  files_[path] = File{};
  return Status::Ok();
}

Status SimDisk::Write(const std::string& path, int64_t offset, std::string_view data) {
  std::string payload(data);
  bool dropped = false;
  WDG_RETURN_IF_ERROR(Gate(kWrite, &payload, &dropped));
  ChargeLatency(static_cast<int64_t>(data.size()));
  if (dropped) {
    return Status::Ok();  // silent lost write: success reported, nothing stored
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) {
    return NotFoundError(path);
  }
  const int64_t end = offset + static_cast<int64_t>(payload.size());
  const int64_t grow = std::max<int64_t>(0, end - static_cast<int64_t>(it->second.data.size()));
  if (used_bytes_ + grow > options_.capacity_bytes) {
    return ResourceExhaustedError("disk full");
  }
  if (end > static_cast<int64_t>(it->second.data.size())) {
    it->second.data.resize(static_cast<size_t>(end), '\0');
  }
  std::copy(payload.begin(), payload.end(),
            it->second.data.begin() + static_cast<ptrdiff_t>(offset));
  used_bytes_ += grow;
  bytes_written_->Increment(static_cast<int64_t>(payload.size()));
  return Status::Ok();
}

Status SimDisk::Append(const std::string& path, std::string_view data) {
  std::string payload(data);
  bool dropped = false;
  WDG_RETURN_IF_ERROR(Gate(kAppend, &payload, &dropped));
  ChargeLatency(static_cast<int64_t>(data.size()));
  if (dropped) {
    return Status::Ok();
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) {
    return NotFoundError(path);
  }
  if (used_bytes_ + static_cast<int64_t>(payload.size()) > options_.capacity_bytes) {
    return ResourceExhaustedError("disk full");
  }
  it->second.data += payload;
  used_bytes_ += static_cast<int64_t>(payload.size());
  bytes_written_->Increment(static_cast<int64_t>(payload.size()));
  return Status::Ok();
}

Result<std::string> SimDisk::Read(const std::string& path, int64_t offset, int64_t length) const {
  WDG_RETURN_IF_ERROR(Gate(kRead, nullptr, nullptr));
  ChargeLatency(length);
  std::string out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = files_.find(path);
    if (it == files_.end()) {
      return NotFoundError(path);
    }
    const File& file = it->second;
    if (offset < 0 || offset > static_cast<int64_t>(file.data.size())) {
      return InvalidArgumentError(StrFormat("read past EOF in %s", path.c_str()));
    }
    const int64_t avail = static_cast<int64_t>(file.data.size()) - offset;
    out = file.data.substr(static_cast<size_t>(offset),
                           static_cast<size_t>(std::min(length, avail)));
    // Media-level partial failure: bytes under a bad range come back mangled.
    for (const BadRange& bad : file.bad_ranges) {
      const int64_t lo = std::max(offset, bad.offset);
      const int64_t hi = std::min(offset + static_cast<int64_t>(out.size()),
                                  bad.offset + bad.length);
      for (int64_t i = lo; i < hi; ++i) {
        out[static_cast<size_t>(i - offset)] ^= static_cast<char>(0x5a);
      }
    }
  }
  bytes_read_->Increment(static_cast<int64_t>(out.size()));
  return out;
}

Result<std::string> SimDisk::ReadAll(const std::string& path) const {
  int64_t size = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = files_.find(path);
    if (it == files_.end()) {
      return NotFoundError(path);
    }
    size = static_cast<int64_t>(it->second.data.size());
  }
  return Read(path, 0, size);
}

Status SimDisk::Fsync(const std::string& path) {
  WDG_RETURN_IF_ERROR(Gate(kFsync, nullptr, nullptr));
  ChargeLatency(4096);  // flush cost
  std::lock_guard<std::mutex> lock(mu_);
  return files_.count(path) > 0 ? Status::Ok() : NotFoundError(path);
}

Status SimDisk::Delete(const std::string& path) {
  WDG_RETURN_IF_ERROR(Gate(kDelete, nullptr, nullptr));
  ChargeLatency(0);
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = files_.find(path);
  if (it == files_.end()) {
    return NotFoundError(path);
  }
  used_bytes_ -= static_cast<int64_t>(it->second.data.size());
  files_.erase(it);
  return Status::Ok();
}

Status SimDisk::Rename(const std::string& from, const std::string& to) {
  WDG_RETURN_IF_ERROR(Gate(kRename, nullptr, nullptr));
  ChargeLatency(0);
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = files_.find(from);
  if (it == files_.end()) {
    return NotFoundError(from);
  }
  files_[to] = std::move(it->second);
  files_.erase(it);
  return Status::Ok();
}

bool SimDisk::Exists(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  return files_.count(path) > 0;
}

Result<int64_t> SimDisk::Size(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = files_.find(path);
  if (it == files_.end()) {
    return NotFoundError(path);
  }
  return static_cast<int64_t>(it->second.data.size());
}

std::vector<std::string> SimDisk::List(const std::string& prefix) const {
  // List has no error channel; injected hangs/delays still apply.
  (void)Gate(kList, nullptr, nullptr);
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> out;
  for (const auto& [path, _] : files_) {
    if (StrStartsWith(path, prefix)) {
      out.push_back(path);
    }
  }
  return out;
}

void SimDisk::MarkBadRange(const std::string& path, int64_t offset, int64_t length) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = files_.find(path);
  if (it != files_.end()) {
    it->second.bad_ranges.push_back(BadRange{offset, length});
  }
}

void SimDisk::ClearBadRanges() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [_, file] : files_) {
    file.bad_ranges.clear();
  }
}

void SimDisk::SetSlowFactor(double factor) {
  std::lock_guard<std::mutex> lock(mu_);
  slow_factor_ = factor;
}

int64_t SimDisk::used_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return used_bytes_;
}

std::string SimDisk::ScratchPath(const std::string& checker_name, const std::string& file) {
  return std::string(kScratchRoot) + checker_name + "/" + file;
}

bool SimDisk::IsScratchPath(std::string_view path) { return StrStartsWith(path, kScratchRoot); }

void SimDisk::PurgeScratch(const std::string& checker_name) {
  const std::string prefix = std::string(kScratchRoot) + checker_name + "/";
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = files_.begin(); it != files_.end();) {
    if (StrStartsWith(it->first, prefix)) {
      used_bytes_ -= static_cast<int64_t>(it->second.data.size());
      it = files_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace wdg
