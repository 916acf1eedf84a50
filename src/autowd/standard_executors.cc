#include "src/autowd/standard_executors.h"

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string_view>
#include <thread>

namespace awd {

namespace {

constexpr wdg::DurationNs kListenerStaleAfter = wdg::Ms(500);
constexpr wdg::DurationNs kLockWait = wdg::Ms(100);
constexpr std::chrono::milliseconds kLockPoll{1};
constexpr wdg::DurationNs kProbeCallTimeout = wdg::Ms(150);
constexpr int64_t kScratchLogLimit = 64 * 1024;
constexpr size_t kBlockBytes = 1024;
constexpr std::string_view kProbeRecord = "wdg-append-probe\n";
constexpr char kScratchLog[] = "probe.log";
constexpr char kScratchBlock[] = "probe.blk";

// A run abandoned on a hang and later released can create the file between
// the check and the create; the file existing is all the caller needs.
wdg::Status EnsureExists(wdg::SimDisk& disk, const std::string& path) {
  if (!disk.Exists(path)) {
    const wdg::Status status = disk.Create(path);
    if (!status.ok() && status.code() != wdg::StatusCode::kAlreadyExists) {
      return status;
    }
  }
  return wdg::Status::Ok();
}

}  // namespace

ExecutorFn ListenerTickExecutor(wdg::Clock& clock, const wdg::Gauge& last_tick_ns) {
  return [&clock, &last_tick_ns](const ReducedOp&, const wdg::CheckContext&,
                                 const std::string&) {
    const double last = last_tick_ns.Value();
    const double age = static_cast<double>(clock.NowNs()) - last;
    if (last > 0 && age > static_cast<double>(kListenerStaleAfter)) {
      return wdg::TimeoutError("listener loop has not ticked recently");
    }
    return wdg::Status::Ok();
  };
}

ExecutorFn ScratchAppendExecutor(wdg::SimDisk& disk) {
  return [&disk](const ReducedOp&, const wdg::CheckContext&,
                 const std::string& checker) -> wdg::Status {
    const std::string path = wdg::SimDisk::ScratchPath(checker, kScratchLog);
    WDG_RETURN_IF_ERROR(EnsureExists(disk, path));
    WDG_ASSIGN_OR_RETURN(const int64_t before, disk.Size(path));
    WDG_RETURN_IF_ERROR(disk.Append(path, kProbeRecord));
    WDG_ASSIGN_OR_RETURN(const int64_t after, disk.Size(path));
    const auto record_size = static_cast<int64_t>(kProbeRecord.size());
    if (after != before + record_size) {
      return wdg::CorruptionError("appended bytes did not land (lost or torn write)");
    }
    WDG_ASSIGN_OR_RETURN(const std::string readback, disk.Read(path, before, record_size));
    if (readback != kProbeRecord) {
      return wdg::CorruptionError("appended record read back differently");
    }
    if (after > kScratchLogLimit) {
      disk.PurgeScratch(checker);
    }
    return wdg::Status::Ok();
  };
}

ExecutorFn ScratchWriteExecutor(wdg::SimDisk& disk) {
  auto runs = std::make_shared<std::atomic<uint64_t>>(0);
  return [&disk, runs](const ReducedOp&, const wdg::CheckContext&,
                       const std::string& checker) -> wdg::Status {
    const std::string path = wdg::SimDisk::ScratchPath(checker, kScratchBlock);
    WDG_RETURN_IF_ERROR(EnsureExists(disk, path));
    std::string block(kBlockBytes, '\x5c');
    const uint64_t stamp = runs->fetch_add(1, std::memory_order_relaxed);
    std::memcpy(block.data(), &stamp, sizeof(stamp));
    WDG_RETURN_IF_ERROR(disk.Write(path, 0, block));
    WDG_ASSIGN_OR_RETURN(const std::string readback,
                         disk.Read(path, 0, static_cast<int64_t>(block.size())));
    if (readback != block) {
      return wdg::CorruptionError("written block read back differently");
    }
    return wdg::Status::Ok();
  };
}

ExecutorFn ScratchCreateExecutor(wdg::SimDisk& disk) {
  return [&disk](const ReducedOp&, const wdg::CheckContext&,
                 const std::string& checker) -> wdg::Status {
    const std::string path = wdg::SimDisk::ScratchPath(checker, kScratchBlock);
    if (disk.Exists(path)) {
      WDG_RETURN_IF_ERROR(disk.Delete(path));
    }
    return disk.Create(path);
  };
}

ExecutorFn ScratchFsyncExecutor(wdg::SimDisk& disk) {
  return [&disk](const ReducedOp&, const wdg::CheckContext&,
                 const std::string& checker) -> wdg::Status {
    const std::string path = wdg::SimDisk::ScratchPath(checker, kScratchLog);
    WDG_RETURN_IF_ERROR(EnsureExists(disk, path));
    return disk.Fsync(path);
  };
}

ExecutorFn BoundedLockExecutor(std::timed_mutex& mu) {
  return [&mu](const ReducedOp& op, const wdg::CheckContext&, const std::string&) {
    // A try_lock poll, not try_lock_for: gcc 12's ThreadSanitizer does not
    // intercept the timed lock and reports its unlock as one of an unlocked
    // mutex. The poll waits the same total time.
    const auto give_up = std::chrono::steady_clock::now() + std::chrono::nanoseconds(kLockWait);
    while (!mu.try_lock()) {
      if (std::chrono::steady_clock::now() >= give_up) {
        return wdg::TimeoutError(op.site + " held too long");
      }
      std::this_thread::sleep_for(kLockPoll);
    }
    mu.unlock();
    return wdg::Status::Ok();
  };
}

ExecutorFn ProbeSendExecutor(wdg::SimNet& net, const wdg::NodeId& from, std::string msg_type) {
  wdg::Endpoint* endpoint = net.CreateEndpoint(from);
  return [endpoint, msg_type = std::move(msg_type)](const ReducedOp& op,
                                                    const wdg::CheckContext&,
                                                    const std::string&) {
    const std::string dst = op.site.substr(std::string_view("net.send.").size());
    return endpoint->Call(dst, msg_type, "", kProbeCallTimeout).status();
  };
}

RedirectionPlan StandardRedirections() {
  RedirectionPlan plan;
  plan.entries = {
      {"disk.append", RedirectMode::kScratchRedirect, "scratch log + size and read-back verify"},
      {"disk.write", RedirectMode::kScratchRedirect, "scratch block + read-back compare"},
      {"disk.create", RedirectMode::kScratchRedirect, "create-probe in scratch"},
      {"disk.fsync", RedirectMode::kScratchRedirect, "fsync of the scratch log"},
      {"lock.*", RedirectMode::kBoundedTry, "bounded try_lock poll on the real mutex"},
      {"net.send.*", RedirectMode::kReplicate, "probe from the dedicated .wdg endpoint"},
      {"net.recv.*", RedirectMode::kReadOnly, "listener-tick gauge freshness"},
  };
  return plan;
}

}  // namespace awd
