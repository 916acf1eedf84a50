#include "src/watchdog/context.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <stdexcept>
#include <thread>

#include "src/common/strings.h"

namespace wdg {

std::string CtxValueToString(const CtxValue& value) {
  if (const auto* i = std::get_if<int64_t>(&value)) {
    return StrFormat("%lld", static_cast<long long>(*i));
  }
  if (const auto* d = std::get_if<double>(&value)) {
    return StrFormat("%g", *d);
  }
  if (const auto* b = std::get_if<bool>(&value)) {
    return *b ? "true" : "false";
  }
  return std::get<std::string>(value);
}

CtxSnapshot::const_iterator CtxSnapshot::find(std::string_view name) const {
  for (const Entry& entry : entries_) {
    if (*entry.first == name) {
      return &entry;
    }
  }
  return end();
}

const CtxValue& CtxSnapshot::at(std::string_view name) const {
  const const_iterator it = find(name);
  if (it == end()) {
    throw std::out_of_range("CtxSnapshot::at: no key " + std::string(name));
  }
  return it->second;
}

const char* CtxTypeName(CtxType type) {
  switch (type) {
    case CtxType::kInt:
      return "int";
    case CtxType::kDouble:
      return "double";
    case CtxType::kBool:
      return "bool";
    case CtxType::kString:
      return "string";
    case CtxType::kAny:
      return "any";
  }
  return "?";
}

// ----------------------------------------------------------- KeyRegistry

KeyRegistry& KeyRegistry::Instance() {
  // Leaked singleton: static ContextKeys in other TUs may be destroyed after
  // any registry with normal storage duration. Entries leak with it — they
  // must outlive every reader, and there is no quiescent point to free them.
  static KeyRegistry* registry = new KeyRegistry();
  return *registry;
}

KeyRegistry::Entry* KeyRegistry::Probe(std::string_view name) const {
  uint32_t idx =
      static_cast<uint32_t>(std::hash<std::string_view>{}(name)) & (kBuckets - 1);
  for (;;) {
    Entry* entry = buckets_[idx].load(std::memory_order_acquire);
    if (entry == nullptr) {
      return nullptr;
    }
    if (entry->name == name) {
      return entry;
    }
    idx = (idx + 1) & (kBuckets - 1);
  }
}

uint32_t KeyRegistry::Intern(std::string_view name, CtxType type) {
  Entry* entry = Probe(name);
  if (entry == nullptr) {
    std::lock_guard<std::mutex> lock(write_mu_);
    entry = Probe(name);  // a racing intern may have landed it meanwhile
    if (entry == nullptr) {
      const uint32_t slot = count_.load(std::memory_order_relaxed);
      assert(slot < kMaxKeys && "context key slots exhausted");
      entry = new Entry(std::string(name), type, slot);
      by_slot_[slot].store(entry, std::memory_order_release);
      uint32_t idx = static_cast<uint32_t>(std::hash<std::string_view>{}(name)) &
                     (kBuckets - 1);
      while (buckets_[idx].load(std::memory_order_relaxed) != nullptr) {
        idx = (idx + 1) & (kBuckets - 1);
      }
      buckets_[idx].store(entry, std::memory_order_release);
      count_.store(slot + 1, std::memory_order_release);
      return slot;
    }
  }
  // First concrete registration fixes the declared type; the legacy shim
  // interns as kAny and must never clobber a typed declaration.
  if (type != CtxType::kAny) {
    CtxType expected = CtxType::kAny;
    entry->type.compare_exchange_strong(expected, type, std::memory_order_acq_rel,
                                        std::memory_order_relaxed);
  }
  return entry->slot;
}

std::optional<uint32_t> KeyRegistry::Find(std::string_view name) const {
  const Entry* entry = Probe(name);
  if (entry == nullptr) {
    return std::nullopt;
  }
  return entry->slot;
}

const std::string& KeyRegistry::NameOf(uint32_t slot) const {
  const Entry* entry = by_slot_[slot].load(std::memory_order_acquire);
  assert(entry != nullptr);
  return entry->name;
}

CtxType KeyRegistry::TypeOf(uint32_t slot) const {
  const Entry* entry = by_slot_[slot].load(std::memory_order_acquire);
  assert(entry != nullptr);
  return entry->type.load(std::memory_order_acquire);
}

uint32_t KeyRegistry::size() const { return count_.load(std::memory_order_acquire); }

std::vector<const std::string*> KeyRegistry::Names(uint32_t limit) const {
  const uint32_t n = std::min(limit, count_.load(std::memory_order_acquire));
  std::vector<const std::string*> names(n);
  for (uint32_t i = 0; i < n; ++i) {
    names[i] = &by_slot_[i].load(std::memory_order_acquire)->name;
  }
  return names;
}

const std::string& ContextKeyBase::name() const {
  return KeyRegistry::Instance().NameOf(slot_);
}

// ---------------------------------------------------------- CheckContext

namespace {

uint64_t NextContextId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

// One staging batch per thread, reused across fires (the entries vector
// keeps its capacity, so steady-state staging never allocates).
HookBatch& ThreadBatch() {
  thread_local HookBatch batch;
  return batch;
}

}  // namespace

CheckContext::CheckContext(std::string name)
    : name_(std::move(name)), id_(NextContextId()) {}

CheckContext::~CheckContext() {
  for (auto& chunk : chunks_) {
    delete chunk.load(std::memory_order_acquire);
  }
}

// ---------------------------------------------------- payload word codec

namespace {

// Words needed to hold `len` string bytes.
uint32_t WordsFor(size_t len) { return static_cast<uint32_t>((len + 7) / 8); }

// Loads `len` bytes from atomic words into `dst`. Whole words copy with a
// fixed-size memcpy (one store); only the tail needs a sized one.
void LoadBytes(const std::atomic<uint64_t>* src, size_t len, char* dst) {
  size_t off = 0;
  for (; off + 8 <= len; off += 8) {
    const uint64_t word = src[off / 8].load(std::memory_order_relaxed);
    std::memcpy(dst + off, &word, 8);
  }
  if (off < len) {
    const uint64_t word = src[off / 8].load(std::memory_order_relaxed);
    std::memcpy(dst + off, &word, len - off);
  }
}

// Stores `len` bytes from `src` into atomic words (the tail word zero-padded).
void StoreBytes(const char* src, size_t len, std::atomic<uint64_t>* dst) {
  for (size_t off = 0; off < len; off += 8) {
    uint64_t word = 0;
    std::memcpy(&word, src + off, std::min<size_t>(8, len - off));
    dst[off / 8].store(word, std::memory_order_relaxed);
  }
}

}  // namespace

// -------------------------------------------------- seqlock cell protocol

void CheckContext::ClaimCell(SlotCell& cell) {
  uint32_t s = cell.seq.load(std::memory_order_relaxed);
  for (int spin = 0;; ++spin) {
    // The acq_rel CAS keeps the caller's payload stores from hoisting above
    // the claim; the competing writer's window is a handful of stores, so
    // this spin is short unless that writer is descheduled mid-publish —
    // the yield hands it the CPU so the spin can't burn a whole timeslice.
    if ((s & 1) == 0 &&
        cell.seq.compare_exchange_weak(s, s + 1, std::memory_order_acq_rel,
                                       std::memory_order_relaxed)) {
      return;
    }
    if (spin % 64 == 63) {
      std::this_thread::yield();
    }
    s = cell.seq.load(std::memory_order_relaxed);
  }
}

void CheckContext::PublishCell(SlotCell& cell) {
  // The claimant is the cell's only writer, so its own seq read is exact.
  cell.seq.store(cell.seq.load(std::memory_order_relaxed) + 1,
                 std::memory_order_release);
}

void CheckContext::StoreCell(SlotCell& cell, const HookBatch::Staged& entry,
                             const std::vector<std::string>& spill) {
  const size_t len = static_cast<size_t>(entry.header >> 8);
  if (static_cast<SlotTag>(entry.header & 0xff) == SlotTag::kString &&
      len > kInlineBytes) {
    const std::string& value = spill[entry.words[0]];
    SpillBlock* block = cell.spill.load(std::memory_order_relaxed);
    if (block == nullptr || block->word_count < WordsFor(len)) {
      // Grow under the claim. The release store pairs with the reader's
      // acquire load of the pointer; the superseded block stays reachable
      // (and readable) until ~CheckContext.
      block = new SpillBlock(std::bit_ceil(WordsFor(len)), block);
      cell.spill.store(block, std::memory_order_release);
    }
    StoreBytes(value.data(), len, block->words.get());  // copy-in, never aliasing
  } else {
    // Scalars use one word, inline strings ceil(len/8); trailing cell words
    // keep stale bits that no decode ever reads.
    const uint32_t word_count =
        static_cast<SlotTag>(entry.header & 0xff) == SlotTag::kString ? WordsFor(len) : 1;
    for (uint32_t w = 0; w < word_count; ++w) {
      cell.words[w].store(entry.words[w], std::memory_order_relaxed);
    }
  }
  cell.header.store(entry.header, std::memory_order_relaxed);
}

CheckContext::CellRead CheckContext::TryReadCell(const SlotCell& cell, CtxValue* out) {
  const uint32_t s1 = cell.seq.load(std::memory_order_acquire);
  if ((s1 & 1) != 0) {
    return CellRead::kUnstable;
  }
  const uint64_t header = cell.header.load(std::memory_order_relaxed);
  const SlotTag tag = static_cast<SlotTag>(header & 0xff);
  uint64_t word = 0;
  if (tag == SlotTag::kString) {
    const size_t len = static_cast<size_t>(header >> 8);
    const std::atomic<uint64_t>* src = cell.words.data();
    if (len > kInlineBytes) {
      const SpillBlock* block = cell.spill.load(std::memory_order_acquire);
      if (block == nullptr || block->word_count < WordsFor(len)) {
        return CellRead::kUnstable;  // header from a newer write than the block
      }
      src = block->words.get();
    }
    std::string& text = out->emplace<std::string>(len, '\0');
    LoadBytes(src, len, text.data());
  } else if (tag != SlotTag::kEmpty) {
    word = cell.words[0].load(std::memory_order_relaxed);
  }
  // The fence orders the payload loads before the seq re-check, so a write
  // racing the copy is always caught (Boehm's seqlock reader idiom; every
  // access is atomic, so this is TSan-clean by construction).
  std::atomic_thread_fence(std::memory_order_acquire);
  if (cell.seq.load(std::memory_order_relaxed) != s1) {
    return CellRead::kUnstable;
  }
  switch (tag) {
    case SlotTag::kEmpty:
      return CellRead::kEmpty;
    case SlotTag::kInt:
      *out = static_cast<int64_t>(word);
      break;
    case SlotTag::kDouble:
      *out = std::bit_cast<double>(word);
      break;
    case SlotTag::kBool:
      *out = word != 0;
      break;
    case SlotTag::kString:
      break;  // already decoded in place
  }
  return CellRead::kOk;
}

// ----------------------------------------------------------- write paths

HookBatch& CheckContext::OwnedBatch() {
  HookBatch& batch = ThreadBatch();
  if (batch.owner_id_ != id_) {
    // Entries staged for another context and never flushed (its hook exited
    // without MarkReady) are abandoned, not leaked into this one.
    batch.entries_.clear();
    batch.spill_.clear();
    batch.owner_id_ = id_;
  }
  return batch;
}

void CheckContext::StageWrite(uint32_t slot, int64_t value) {
  HookBatch::Staged& e = OwnedBatch().entries_.emplace_back();
  e.slot = slot;
  e.header = static_cast<uint64_t>(SlotTag::kInt);
  e.words[0] = static_cast<uint64_t>(value);
}

void CheckContext::StageWrite(uint32_t slot, double value) {
  HookBatch::Staged& e = OwnedBatch().entries_.emplace_back();
  e.slot = slot;
  e.header = static_cast<uint64_t>(SlotTag::kDouble);
  e.words[0] = std::bit_cast<uint64_t>(value);
}

void CheckContext::StageWrite(uint32_t slot, bool value) {
  HookBatch::Staged& e = OwnedBatch().entries_.emplace_back();
  e.slot = slot;
  e.header = static_cast<uint64_t>(SlotTag::kBool);
  e.words[0] = value ? 1 : 0;
}

void CheckContext::StageWrite(uint32_t slot, std::string value) {
  HookBatch& batch = OwnedBatch();
  HookBatch::Staged& e = batch.entries_.emplace_back();
  e.slot = slot;
  e.header = static_cast<uint64_t>(SlotTag::kString) |
             (static_cast<uint64_t>(value.size()) << 8);
  if (value.size() <= kInlineBytes) {
    std::memcpy(e.words, value.data(), value.size());
  } else {
    e.words[0] = batch.spill_.size();  // index, resolved at flush
    batch.spill_.push_back(std::move(value));
  }
}

void CheckContext::StageWrite(uint32_t slot, CtxValue value) {
  if (const auto* i = std::get_if<int64_t>(&value)) {
    StageWrite(slot, *i);
  } else if (const auto* d = std::get_if<double>(&value)) {
    StageWrite(slot, *d);
  } else if (const auto* b = std::get_if<bool>(&value)) {
    StageWrite(slot, *b);
  } else {
    StageWrite(slot, std::move(std::get<std::string>(value)));
  }
}

CheckContext::SlotCell* CheckContext::CellFor(uint32_t slot) {
  const uint32_t chunk_index = slot / kSlotsPerChunk;
  assert(chunk_index < kMaxChunks && "context key slots exhausted");
  std::atomic<Chunk*>& entry = chunks_[chunk_index];
  Chunk* chunk = entry.load(std::memory_order_acquire);
  if (chunk == nullptr) {
    Chunk* fresh = new Chunk();
    if (entry.compare_exchange_strong(chunk, fresh, std::memory_order_acq_rel,
                                      std::memory_order_acquire)) {
      chunk = fresh;
    } else {
      delete fresh;  // lost the race; `chunk` holds the winner
    }
    uint32_t limit = chunk_limit_.load(std::memory_order_relaxed);
    while (limit < chunk_index + 1 &&
           !chunk_limit_.compare_exchange_weak(limit, chunk_index + 1,
                                               std::memory_order_acq_rel,
                                               std::memory_order_relaxed)) {
    }
  }
  return &chunk->cells[slot % kSlotsPerChunk];
}

void CheckContext::MarkPopulated(uint32_t slot) {
  Chunk* chunk = chunks_[slot / kSlotsPerChunk].load(std::memory_order_relaxed);
  const uint32_t bit = 1u << (slot % kSlotsPerChunk);
  if ((chunk->populated.load(std::memory_order_relaxed) & bit) == 0) {
    chunk->populated.fetch_or(bit, std::memory_order_release);
  }
}

uint64_t CheckContext::KeyEpoch(uint32_t slot) const {
  const SlotCell* cell = CellIfPresent(slot);
  if (cell == nullptr) {
    return 0;
  }
  // The seqlock seq advances by 2 per publish (odd = mid-publish). (seq+1)>>1
  // maps both the odd claim and the even release of publish n to n, keeping
  // the epoch monotone and counting an in-flight write as already complete —
  // a subscribed checker dispatched during the write sees the new data.
  return (static_cast<uint64_t>(cell->seq.load(std::memory_order_acquire)) + 1) >> 1;
}

const CheckContext::SlotCell* CheckContext::CellIfPresent(uint32_t slot) const {
  const uint32_t chunk_index = slot / kSlotsPerChunk;
  if (chunk_index >= kMaxChunks) {
    return nullptr;
  }
  const Chunk* chunk = chunks_[chunk_index].load(std::memory_order_acquire);
  if (chunk == nullptr) {
    return nullptr;
  }
  return &chunk->cells[slot % kSlotsPerChunk];
}

void CheckContext::FlushBatch(HookBatch& batch) {
  std::vector<HookBatch::Staged>& entries = batch.entries_;
  const size_t n = entries.size();
  const auto descending_or_equal = [](const HookBatch::Staged& a,
                                      const HookBatch::Staged& b) {
    return a.slot >= b.slot;
  };
  if (std::adjacent_find(entries.begin(), entries.end(), descending_or_equal) !=
      entries.end()) {
    // Claims must go in ascending slot order, and one cell claimed twice
    // would self-deadlock. Insertion sort is stable and allocation-free (hook
    // batches are short and nearly ordered); the compaction pass then keeps
    // only the last write of each run of equal slots.
    for (size_t i = 1; i < n; ++i) {
      const HookBatch::Staged e = entries[i];
      size_t j = i;
      for (; j > 0 && entries[j - 1].slot > e.slot; --j) {
        entries[j] = entries[j - 1];
      }
      entries[j] = e;
    }
    size_t kept = 0;
    for (size_t i = 0; i < n; ++i) {
      if (i + 1 == n || entries[i + 1].slot != entries[i].slot) {
        entries[kept++] = entries[i];
      }
    }
    entries.resize(kept);
  }
  // The gate sits before the first claim, so a gated reader never waits on
  // a writer that is itself waiting here.
  while (snapshot_waiters_.load(std::memory_order_acquire) != 0) {
    std::this_thread::yield();
  }
  // Claim every cell, and mark it populated, before publishing any: a
  // reader that sees one of the batch's values settled also sees every
  // batch cell's populated bit, so a scan that missed a bit fails its mask
  // re-check instead of returning part of a first batch.
  for (const HookBatch::Staged& e : entries) {
    ClaimCell(*CellFor(e.slot));  // a first touch allocates the chunk
    MarkPopulated(e.slot);
  }
  // Every cell held odd: store and publish. A reader can never see part of
  // the batch settle before the rest — a seq it visited before the first
  // publish has moved by the time it re-checks.
  for (const HookBatch::Staged& e : entries) {
    SlotCell& cell = *CellFor(e.slot);
    StoreCell(cell, e, batch.spill_);
    PublishCell(cell);
  }
  entries.clear();
  batch.spill_.clear();
}

void CheckContext::MarkReady(TimeNs now) {
  HookBatch& batch = ThreadBatch();
  if (batch.owner_id_ == id_) {
    FlushBatch(batch);
    batch.owner_id_ = 0;
  }
  last_update_.store(now, std::memory_order_release);
  epoch_.fetch_add(1, std::memory_order_acq_rel);
  ready_.store(true, std::memory_order_release);
}

void CheckContext::Invalidate() { ready_.store(false, std::memory_order_release); }

size_t CheckContext::pending_batch_size() const {
  const HookBatch& batch = ThreadBatch();
  return batch.owner_id_ == id_ ? batch.entries_.size() : 0;
}

// ------------------------------------------------------------ read paths

std::optional<CtxValue> CheckContext::ReadSlot(uint32_t slot) const {
  const SlotCell* cell = CellIfPresent(slot);
  if (cell == nullptr) {
    return std::nullopt;
  }
  CtxValue value;
  CellRead read = CellRead::kUnstable;
  for (int attempt = 0; attempt < kCellRetries && read == CellRead::kUnstable;
       ++attempt) {
    read = TryReadCell(*cell, &value);  // a writer's window is a few stores
  }
  if (read == CellRead::kUnstable) {
    // Writers keep landing on this cell: hold new flushes back until one
    // copy settles. Flushes already past the gate finish without waiting.
    get_fallbacks_.fetch_add(1, std::memory_order_relaxed);
    snapshot_waiters_.fetch_add(1, std::memory_order_acq_rel);
    while ((read = TryReadCell(*cell, &value)) == CellRead::kUnstable) {
      std::this_thread::yield();
    }
    snapshot_waiters_.fetch_sub(1, std::memory_order_acq_rel);
  }
  if (read == CellRead::kEmpty) {
    return std::nullopt;
  }
  return value;
}

std::optional<CtxValue> CheckContext::Get(const std::string& key) const {
  const auto slot = KeyRegistry::Instance().Find(key);
  if (!slot.has_value()) {
    return std::nullopt;
  }
  return ReadSlot(*slot);
}

bool CheckContext::TryScan(ConsistentSnapshot* out) const {
  KeyRegistry& registry = KeyRegistry::Instance();
  std::vector<CtxSnapshot::Entry>& entries = out->values.entries_;
  entries.clear();
  // Fingerprint pre-pass: freeze the set of cells this attempt will visit
  // (the populated masks) and sum their seq counters. Seqs only ever grow,
  // so an equal sum after the value pass proves no visited cell moved
  // while values were being copied. Because a flush claims EVERY batch cell
  // (odd seq) before publishing ANY, a reader that copied one value of a
  // batch finds some other visited seq changed by re-check time — so the
  // fingerprint rules out torn batches without the write path paying a
  // per-flush counter.
  const uint32_t chunk_limit = chunk_limit_.load(std::memory_order_acquire);
  const Chunk* chunk_ptrs[kMaxChunks];
  uint32_t masks[kMaxChunks];
  const auto mask_of = [this](uint32_t ci) {
    const Chunk* chunk = chunks_[ci].load(std::memory_order_acquire);
    return chunk == nullptr ? 0u : chunk->populated.load(std::memory_order_acquire);
  };
  const auto seq_sum = [&] {
    uint64_t sum = 0;
    for (uint32_t ci = 0; ci < chunk_limit; ++ci) {
      uint32_t mask = masks[ci];
      while (mask != 0) {
        const uint32_t i = static_cast<uint32_t>(std::countr_zero(mask));
        mask &= mask - 1;
        sum += chunk_ptrs[ci]->cells[i].seq.load(std::memory_order_relaxed);
      }
    }
    return sum;
  };
  for (uint32_t ci = 0; ci < chunk_limit; ++ci) {
    chunk_ptrs[ci] = chunks_[ci].load(std::memory_order_acquire);
    // Only ever-populated cells are worth probing; the bitmask iteration
    // skips the (typically dominant) empty remainder of the chunk.
    masks[ci] = mask_of(ci);
  }
  const uint64_t fingerprint = seq_sum();
  // Orders the fingerprint loads before every value load below — the
  // seqlock reader-entry fence (all accesses atomic: TSan-clean).
  std::atomic_thread_fence(std::memory_order_acquire);
  for (uint32_t ci = 0; ci < chunk_limit; ++ci) {
    uint32_t mask = masks[ci];
    while (mask != 0) {
      const uint32_t i = static_cast<uint32_t>(std::countr_zero(mask));
      mask &= mask - 1;
      // Emplace first and decode straight into the entry's variant — no
      // temporary CtxValue, no post-scan move. Misreads pop it back off.
      CtxSnapshot::Entry& entry = entries.emplace_back();
      entry.first = &registry.NameOf(ci * kSlotsPerChunk + i);
      CellRead read = CellRead::kUnstable;
      for (int spin = 0; spin < kCellRetries && read == CellRead::kUnstable; ++spin) {
        read = TryReadCell(chunk_ptrs[ci]->cells[i], &entry.second);
      }
      if (read == CellRead::kUnstable) {
        return false;  // the whole attempt is discarded
      }
      if (read == CellRead::kEmpty) {
        entries.pop_back();  // bit raced a first write mid-claim
      }
    }
  }
  // The fence orders every value load before the fingerprint re-check. Any
  // visited cell moving during the scan discards the attempt, so a snapshot
  // can never mix two concurrently-published batches.
  std::atomic_thread_fence(std::memory_order_acquire);
  if (seq_sum() != fingerprint) {
    return false;
  }
  // A batch whose first write populated cells this scan did not visit has
  // set their bits before publishing any value: if one of its values was
  // copied, the set of populated cells has grown since the pre-pass.
  if (chunk_limit_.load(std::memory_order_acquire) != chunk_limit) {
    return false;
  }
  for (uint32_t ci = 0; ci < chunk_limit; ++ci) {
    if (mask_of(ci) != masks[ci]) {
      return false;
    }
  }
  out->epoch = epoch_.load(std::memory_order_acquire);
  out->last_update = last_update_.load(std::memory_order_acquire);
  return true;
}

CheckContext::ConsistentSnapshot CheckContext::SnapshotConsistent() const {
  ConsistentSnapshot snapshot;
  // Values land directly in the result's flat entry array — one reserve up
  // front (slot capacity is tiny: chunks in use × kSlotsPerChunk), no
  // intermediate scratch, no per-entry re-move on success.
  snapshot.values.entries_.reserve(
      static_cast<size_t>(chunk_limit_.load(std::memory_order_acquire)) * kSlotsPerChunk);
  for (int attempt = 0; attempt < kSnapshotRetries; ++attempt) {
    if (TryScan(&snapshot)) {
      snapshot_optimistic_.fetch_add(1, std::memory_order_relaxed);
      return snapshot;
    }
    snapshot_retries_.fetch_add(1, std::memory_order_relaxed);
  }
  // Persistent churn: raise the gate so new flushes yield at entry. Only
  // writers already past the gate can still move a visited seq, at most
  // once each, so the retries converge.
  snapshot_fallbacks_.fetch_add(1, std::memory_order_relaxed);
  snapshot_waiters_.fetch_add(1, std::memory_order_acq_rel);
  while (!TryScan(&snapshot)) {
    snapshot_retries_.fetch_add(1, std::memory_order_relaxed);
    std::this_thread::yield();
  }
  snapshot_waiters_.fetch_sub(1, std::memory_order_acq_rel);
  return snapshot;
}

CtxSnapshot CheckContext::Snapshot() const {
  return SnapshotConsistent().values;
}

CheckContext::ReadStats CheckContext::read_stats() const {
  ReadStats stats;
  stats.snapshot_optimistic = snapshot_optimistic_.load(std::memory_order_relaxed);
  stats.snapshot_retries = snapshot_retries_.load(std::memory_order_relaxed);
  stats.snapshot_fallbacks = snapshot_fallbacks_.load(std::memory_order_relaxed);
  stats.get_fallbacks = get_fallbacks_.load(std::memory_order_relaxed);
  return stats;
}

namespace {

// Dump tag for a value ("i:" / "d:" / "b:" / "s:"), so a reader of a failure
// signature sees the exact type — an untagged "1234" is ambiguous.
char DumpTag(const CtxValue& value) {
  if (std::holds_alternative<int64_t>(value)) {
    return 'i';
  }
  if (std::holds_alternative<double>(value)) {
    return 'd';
  }
  if (std::holds_alternative<bool>(value)) {
    return 'b';
  }
  return 's';
}

}  // namespace

std::string CheckContext::Dump() const {
  const CtxSnapshot snapshot = Snapshot();
  // Snapshot entries come in slot (intern) order, which depends on which
  // hook site ran first; sort by name so a failure signature's dump is
  // byte-stable across runs.
  std::vector<const CtxSnapshot::Entry*> ordered;
  ordered.reserve(snapshot.size());
  for (const auto& entry : snapshot) {
    ordered.push_back(&entry);
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const CtxSnapshot::Entry* a, const CtxSnapshot::Entry* b) {
              return *a->first < *b->first;
            });
  std::string out = "{";
  bool first = true;
  for (const CtxSnapshot::Entry* entry : ordered) {
    if (!first) {
      out += ", ";
    }
    first = false;
    out += *entry->first + "=";
    out += DumpTag(entry->second);
    out += ':' + CtxValueToString(entry->second);
  }
  out += "}";
  return out;
}

// --------------------------------------------------------------- HookSet

HookSite* HookSet::Site(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = sites_[name];
  if (!slot) {
    slot = std::make_unique<HookSite>(name);
  }
  return slot.get();
}

CheckContext* HookSet::Context(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = contexts_[name];
  if (!slot) {
    slot = std::make_unique<CheckContext>(name);
  }
  return slot.get();
}

void HookSet::Arm(const std::string& site, const std::string& context) {
  Site(site)->Arm(Context(context));
}

void HookSet::Disarm(const std::string& site) { Site(site)->Disarm(); }

std::vector<std::string> HookSet::SiteNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(sites_.size());
  for (const auto& [name, _] : sites_) {
    names.push_back(name);
  }
  return names;
}

std::vector<std::string> HookSet::ContextNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(contexts_.size());
  for (const auto& [name, _] : contexts_) {
    names.push_back(name);
  }
  return names;
}

int HookSet::ArmedCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  int count = 0;
  for (const auto& [_, site] : sites_) {
    if (site->armed()) {
      ++count;
    }
  }
  return count;
}

}  // namespace wdg
