// Typed context keys for the kvs hook plan (Context API v2).
//
// Each accessor interns its key once (function-local static) and returns the
// process-wide handle, so hook-site writes are indexed slot stores — see
// docs/CONTEXT_API.md. Key names match the v1 string keys exactly, so
// name-keyed readers (`Get<T>("name")`) keep working.
#pragma once

#include <string>

#include "src/watchdog/context.h"

namespace kvs::keys {

inline const wdg::ContextKey<std::string>& Node() {
  static const auto k = wdg::ContextKey<std::string>::Of("node");
  return k;
}
inline const wdg::ContextKey<std::string>& Key() {
  static const auto k = wdg::ContextKey<std::string>::Of("key");
  return k;
}
inline const wdg::ContextKey<std::string>& WalPath() {
  static const auto k = wdg::ContextKey<std::string>::Of("wal_path");
  return k;
}
inline const wdg::ContextKey<int64_t>& RecordBytes() {
  static const auto k = wdg::ContextKey<int64_t>::Of("record_bytes");
  return k;
}
inline const wdg::ContextKey<std::string>& FlushFile() {
  static const auto k = wdg::ContextKey<std::string>::Of("flush_file");
  return k;
}
inline const wdg::ContextKey<int64_t>& EntryCount() {
  static const auto k = wdg::ContextKey<int64_t>::Of("entry_count");
  return k;
}
inline const wdg::ContextKey<int64_t>& TableCount() {
  static const auto k = wdg::ContextKey<int64_t>::Of("table_count");
  return k;
}
inline const wdg::ContextKey<std::string>& Follower() {
  static const auto k = wdg::ContextKey<std::string>::Of("follower");
  return k;
}
inline const wdg::ContextKey<int64_t>& BatchSize() {
  static const auto k = wdg::ContextKey<int64_t>::Of("batch_size");
  return k;
}
inline const wdg::ContextKey<std::string>& Table() {
  static const auto k = wdg::ContextKey<std::string>::Of("table");
  return k;
}

// --- resource-indicator keys (signal-checker suite) -----------------------
// Published by the maintenance loop ("ResourceSample:1") and the listener
// loop ("ResourceBeat:1") when those sites are armed; consumed by the
// src/detectors/signal_suite.h checkers. System-prefixed: the KeyRegistry is
// process-wide and minizk/minihdfs publish their own variants.
inline const wdg::ContextKey<int64_t>& ResOpenHandles() {
  static const auto k = wdg::ContextKey<int64_t>::Of("kvs.res.open_handles");
  return k;
}
inline const wdg::ContextKey<int64_t>& ResRssBytes() {
  static const auto k = wdg::ContextKey<int64_t>::Of("kvs.res.rss_bytes");
  return k;
}
inline const wdg::ContextKey<int64_t>& ResQueueDepth() {
  static const auto k = wdg::ContextKey<int64_t>::Of("kvs.res.queue_depth");
  return k;
}
inline const wdg::ContextKey<int64_t>& ResDiskLatNs() {
  static const auto k = wdg::ContextKey<int64_t>::Of("kvs.res.disk_lat_ns");
  return k;
}
inline const wdg::ContextKey<int64_t>& ResLiveThreads() {
  static const auto k = wdg::ContextKey<int64_t>::Of("kvs.res.live_threads");
  return k;
}
inline const wdg::ContextKey<int64_t>& ResLastBeatNs() {
  static const auto k = wdg::ContextKey<int64_t>::Of("kvs.res.last_beat_ns");
  return k;
}

}  // namespace kvs::keys
