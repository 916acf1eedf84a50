#include "src/kvs/wal.h"

#include "src/common/checksum.h"
#include "src/kvs/coding.h"

namespace kvs {

Wal::Wal(wdg::SimDisk& disk, std::string path) : disk_(disk), path_(std::move(path)) {}

wdg::Status Wal::Open() {
  if (!disk_.Exists(path_)) {
    return disk_.Create(path_);
  }
  return wdg::Status::Ok();
}

// Frame: [u32 length][u32 crc32(payload)][payload]
std::string Wal::FrameRecord(const std::string& record) {
  std::string framed;
  framed.reserve(record.size() + 8);
  PutU32(framed, static_cast<uint32_t>(record.size()));
  PutU32(framed, wdg::Crc32(record));
  framed += record;
  return framed;
}

wdg::Status Wal::Append(const std::string& record) {
  WDG_RETURN_IF_ERROR(disk_.Append(path_, FrameRecord(record)));
  WDG_RETURN_IF_ERROR(disk_.Fsync(path_));
  ++appended_;
  return wdg::Status::Ok();
}

wdg::Result<Wal::RecoveryResult> Wal::Recover() const {
  WDG_ASSIGN_OR_RETURN(const std::string data, disk_.ReadAll(path_));
  RecoveryResult result;
  size_t at = 0;
  while (at + 8 <= data.size()) {
    const uint32_t len = GetU32(data, at);
    const uint32_t crc = GetU32(data, at + 4);
    if (at + 8 + len > data.size()) {
      break;  // torn tail
    }
    const std::string payload = data.substr(at + 8, len);
    if (wdg::Crc32(payload) != crc) {
      break;  // corrupt record: stop replay here
    }
    result.records.push_back(payload);
    at += 8 + len;
  }
  result.corrupt_tail_bytes = static_cast<int64_t>(data.size() - at);
  return result;
}

wdg::Status Wal::Truncate() {
  WDG_RETURN_IF_ERROR(disk_.Delete(path_));
  return disk_.Create(path_);
}

}  // namespace kvs
