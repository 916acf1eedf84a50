#include "src/kvs/index.h"

#include <algorithm>

namespace kvs {

Index::TableRef Index::Verify(const wdg::SimDisk& disk, const std::string& path) {
  return std::make_shared<const Table>(Table{path, SsBlockMap::Build(disk, path)});
}

Index::TableRef Index::AddTable(const std::string& path) {
  TableRef table = Verify(disk_, path);
  std::lock_guard<std::mutex> lock(mu_);
  tables_.push_back(table);
  return table;
}

Index::TableRef Index::ReplaceTables(const std::vector<std::string>& old_paths,
                                     const std::string& merged_path) {
  TableRef merged = Verify(disk_, merged_path);
  std::lock_guard<std::mutex> lock(mu_);
  std::erase_if(tables_, [&](const TableRef& t) {
    return std::find(old_paths.begin(), old_paths.end(), t->path) != old_paths.end();
  });
  tables_.insert(tables_.begin(), merged);  // merged data is oldest
  return merged;
}

std::vector<std::string> Index::Tables() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> paths;
  paths.reserve(tables_.size());
  for (const TableRef& table : tables_) {
    paths.push_back(table->path);
  }
  return paths;
}

std::vector<Index::TableRef> Index::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return tables_;
}

wdg::Result<const SsBlockMap*> Index::Verified(TableRef& table) const {
  if (!table->map.ok()) {
    TableRef again = Verify(disk_, table->path);
    WDG_RETURN_IF_ERROR(again->map.status());
    std::lock_guard<std::mutex> lock(mu_);
    std::replace(tables_.begin(), tables_.end(), table, again);
    table = std::move(again);
  }
  return &*table->map;
}

wdg::Result<std::optional<std::string>> Index::Get(const std::string& key) const {
  // Instrumented site: an injected busy-loop here is the paper's "infinite
  // loop in the indexer" gray failure.
  WDG_RETURN_IF_ERROR(disk_.injector().Act("index.lookup"));

  const auto mem = memtable_.Get(key);
  if (mem.has_value()) {
    if (mem->tombstone) {
      return std::optional<std::string>{};
    }
    return std::optional<std::string>{mem->value};
  }
  // The table list is a snapshot; a concurrent compaction can replace and
  // delete a listed table mid-scan (its data lives on in the merged table).
  // A vanished file means the snapshot went stale — rescan with a fresh
  // list. If the list stops changing and the file is still gone, the table
  // set itself is damaged: propagate that honestly.
  wdg::Status stale_error = wdg::Status::Ok();
  std::vector<TableRef> tables = Snapshot();
  for (int attempt = 0; attempt < 3; ++attempt) {
    bool stale = false;
    for (auto it = tables.rbegin(); it != tables.rend(); ++it) {  // newest first
      auto map = Verified(*it);
      auto entry = map.ok() ? (*map)->Lookup(disk_, key)
                            : wdg::Result<std::optional<MemEntry>>(map.status());
      if (entry.status().code() == wdg::StatusCode::kNotFound) {
        stale = true;
        stale_error = entry.status();
        break;
      }
      WDG_RETURN_IF_ERROR(entry.status());
      if (entry->has_value()) {
        if ((*entry)->tombstone) {
          return std::optional<std::string>{};
        }
        return std::optional<std::string>{(*entry)->value};
      }
    }
    if (!stale) {
      return std::optional<std::string>{};
    }
    std::vector<TableRef> fresh = Snapshot();
    if (fresh == tables) {
      break;  // not a race: the listed table is genuinely missing
    }
    tables = std::move(fresh);
  }
  return stale_error;
}

}  // namespace kvs
