// Contexts and hooks: the one-way state synchronization between the main
// program and its watchdog (paper §3.1 "State Synchronization").
//
// A CheckContext is the payload store bound to a checker. The main program
// updates it through *hook sites* placed at the points AutoWatchdog (or a
// human) selected; updates replicate values *into* the context (deep copy) so
// checkers can never mutate main-program state through it — replication is
// the memory-isolation mechanism of §5.1. Synchronization is strictly
// one-way: nothing ever flows from the context back into the program.
//
// Context API v2 (the hot-path redesign):
//
//   * Typed keys. A `ContextKey<T>` is registered once (process-wide) and
//     resolves a name to a slot index, so a hook-site write is an indexed
//     store — no string hashing, no map insert, no global lock.
//   * Seqlock cells. Every slot is a cell with a seqlock-style epoch (even =
//     stable, odd = mid-write) over atomic payload words. Strings up to 48
//     bytes sit inline; longer ones live in a per-cell, grow-only spill
//     block reached through an atomic pointer. One protocol serves every
//     value: writers claim the cell (seq even→odd), store, and release-store
//     seq back to even; readers copy optimistically and re-validate seq.
//   * Batched one-way sync. Writes staged through the typed API accumulate
//     in a thread-local HookBatch; MarkReady() claims every touched cell in
//     ascending slot order, stores them all, publishes them all, and only
//     then bumps the epoch + READY flag. Checkers therefore only ever
//     observe fully-populated contexts, and no mutex sits on the path.
//
// Read path (see docs/CONTEXT_API.md "Read path"): `Get()` is an optimistic
// copy + re-validate of one cell, and `SnapshotConsistent()` an optimistic
// whole-store scan validated by a seq fingerprint. Neither locks. A read
// that keeps colliding with writers raises the `snapshot_waiters_` gate,
// which holds new flushes at entry until the read settles. The name→slot
// KeyRegistry is an append-only intern table probed lock-free, so
// `Get<T>(name)` and snapshot name resolution never lock either.
//
// The watchdog driver refuses to run a checker whose context is not READY
// (e.g. an in-memory kvs never flushes, so the flush checker never fires —
// the paper's canonical spurious-report example).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "src/common/clock.h"

namespace wdg {

using CtxValue = std::variant<int64_t, double, bool, std::string>;

std::string CtxValueToString(const CtxValue& value);

// Declared value type of a context key. kAny keys carry whole CtxValues
// (untyped: AutoWatchdog-generated checkers).
enum class CtxType : uint8_t { kInt, kDouble, kBool, kString, kAny };

const char* CtxTypeName(CtxType type);

namespace internal {
template <typename T>
struct CtxTypeOf;
template <>
struct CtxTypeOf<int64_t> { static constexpr CtxType value = CtxType::kInt; };
template <>
struct CtxTypeOf<double> { static constexpr CtxType value = CtxType::kDouble; };
template <>
struct CtxTypeOf<bool> { static constexpr CtxType value = CtxType::kBool; };
template <>
struct CtxTypeOf<std::string> { static constexpr CtxType value = CtxType::kString; };
template <>
struct CtxTypeOf<CtxValue> { static constexpr CtxType value = CtxType::kAny; };

// Typed view of a stored variant: exact-type match, except ints widen to
// double (v1 GetDouble compat). Shared by CheckContext::Get and
// CtxSnapshot::Get so point reads and snapshot lookups agree on semantics.
template <typename T>
std::optional<T> ExtractTyped(const CtxValue& value) {
  if constexpr (std::is_same_v<T, CtxValue>) {
    return value;
  } else {
    if (const T* typed = std::get_if<T>(&value)) {
      return *typed;
    }
    if constexpr (std::is_same_v<T, double>) {
      if (const int64_t* i = std::get_if<int64_t>(&value)) {
        return static_cast<double>(*i);
      }
    }
    return std::nullopt;
  }
}
}  // namespace internal

// Process-wide intern table: key name -> (slot index, declared type). Slots
// are assigned once and never recycled; every CheckContext indexes its own
// storage with the same slot numbers, so a key handle works on any context.
//
// Lookups (Find / NameOf / TypeOf / Names) are lock-free: entries are
// append-only, published with release stores into a fixed open-addressed
// bucket array and a by-slot array, and never moved or destroyed — the
// RCU-style "immutable once published" discipline without any reclamation,
// because nothing is ever retired. Only Intern's insert slow path takes the
// writer mutex.
class KeyRegistry {
 public:
  // Matches CheckContext's slot capacity (kSlotsPerChunk * kMaxChunks).
  static constexpr uint32_t kMaxKeys = 2048;

  static KeyRegistry& Instance();

  // Interns `name`, returning its stable slot. The first registration with a
  // concrete type fixes the declared type; later kAny interns never widen or
  // override it.
  uint32_t Intern(std::string_view name, CtxType type);
  // Slot for an already-interned name, or nullopt (lookups never register).
  std::optional<uint32_t> Find(std::string_view name) const;
  const std::string& NameOf(uint32_t slot) const;
  CtxType TypeOf(uint32_t slot) const;
  uint32_t size() const;
  // Name pointers for slots [0, limit). The pointers stay valid forever —
  // entries are never destroyed or moved.
  std::vector<const std::string*> Names(uint32_t limit) const;

 private:
  KeyRegistry() = default;

  struct Entry {
    Entry(std::string n, CtxType t, uint32_t s)
        : name(std::move(n)), type(t), slot(s) {}
    const std::string name;
    std::atomic<CtxType> type;
    const uint32_t slot;
  };

  static constexpr uint32_t kBuckets = 4096;  // 2x kMaxKeys, power of two

  // Linear-probe lookup; nullptr on miss. Safe concurrently with inserts:
  // probing stops at the first null bucket and inserts only fill nulls.
  Entry* Probe(std::string_view name) const;

  std::mutex write_mu_;  // serializes interns; lookups never take it
  std::array<std::atomic<Entry*>, kBuckets> buckets_{};
  std::array<std::atomic<Entry*>, kMaxKeys> by_slot_{};
  std::atomic<uint32_t> count_{0};
};

// The checker-side snapshot container: a flat array of (interned name,
// value) entries in slot order. Key names are pointers into KeyRegistry
// entries — which are never destroyed or moved — so building a snapshot
// copies zero key strings and performs one allocation. (The std::map this
// replaced cost more to build than the entire lock-free cell scan it was
// fed from: node allocations plus a string copy per key.) Lookups are
// linear scans: contexts hold tens of keys and checkers mostly iterate.
//
// Entries are pairs so map idioms survive: `find()` returns an Entry
// pointer whose miss value is `end()`, `it->second` is the value, and
// structured bindings iterate as [name_ptr, value].
class CtxSnapshot {
 public:
  using Entry = std::pair<const std::string*, CtxValue>;
  using const_iterator = const Entry*;

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  const_iterator begin() const { return entries_.data(); }
  const_iterator end() const { return entries_.data() + entries_.size(); }

  // Entry pointer, or end() when the key is absent (map-idiom compatible).
  const_iterator find(std::string_view name) const;
  bool contains(std::string_view name) const { return find(name) != end(); }
  // Throws std::out_of_range when absent, like std::map::at.
  const CtxValue& at(std::string_view name) const;
  // Typed lookup with the same widening rules as CheckContext::Get.
  template <typename T>
  std::optional<T> Get(std::string_view name) const {
    const const_iterator it = find(name);
    if (it == end()) {
      return std::nullopt;
    }
    return internal::ExtractTyped<T>(it->second);
  }

 private:
  friend class CheckContext;

  std::vector<Entry> entries_;
};

// A typed key handle: name -> slot resolution done once (`Of` interns into
// the KeyRegistry), so hook-site writes are indexed stores. Keys are cheap
// value types; the idiomatic pattern is a function-local static per key:
//
//   static const auto kEntries = wdg::ContextKey<int64_t>::Of("entry_count");
//   ctx.Set(kEntries, count);
//
// ContextKey<CtxValue> is the untyped ("any") variant used by generated
// checkers whose IR carries no type information.
class ContextKeyBase {
 public:
  uint32_t slot() const { return slot_; }
  CtxType type() const { return type_; }
  const std::string& name() const;

 protected:
  ContextKeyBase(uint32_t slot, CtxType type) : slot_(slot), type_(type) {}

 private:
  uint32_t slot_;
  CtxType type_;
};

template <typename T>
class ContextKey : public ContextKeyBase {
 public:
  static_assert(std::is_same_v<T, int64_t> || std::is_same_v<T, double> ||
                    std::is_same_v<T, bool> || std::is_same_v<T, std::string> ||
                    std::is_same_v<T, CtxValue>,
                "ContextKey<T>: T must be int64_t, double, bool, std::string, "
                "or CtxValue");
  using value_type = T;

  static ContextKey Of(std::string_view name) {
    return ContextKey(
        KeyRegistry::Instance().Intern(name, internal::CtxTypeOf<T>::value));
  }

 private:
  explicit ContextKey(uint32_t slot)
      : ContextKeyBase(slot, internal::CtxTypeOf<T>::value) {}
};

// Writes staged by one thread between hook entry and MarkReady(). Lives in
// thread-local storage inside context.cc; hook sites never construct one
// directly — CheckContext::Set(key, value) appends to the calling thread's
// batch, and MarkReady() flushes it. Staging is just a vector push: no lock,
// no map, no atomic.
class HookBatch {
 public:
  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

 private:
  friend class CheckContext;

  // One staged write, already encoded in the cell wire format (tag/length
  // header + payload words — see CheckContext::SlotTag). Encoding at Set()
  // time keeps this POD: staging appends 64 flat bytes, MarkReady's flush
  // stores the words straight into the slot cell without re-inspecting a
  // variant, and clear() is a pointer reset instead of a destructor walk.
  // Strings too long for the inline words park in `spill_` (moved, not
  // copied) and stage their index in words[0]; the flush copies them into
  // the cell's spill block.
  struct Staged {
    uint32_t slot;
    uint64_t header;
    uint64_t words[6];  // == CheckContext::kPayloadWords (static_asserted)
  };
  std::vector<Staged> entries_;
  std::vector<std::string> spill_;
  uint64_t owner_id_ = 0;  // CheckContext::id_ of the staging target
};

class CheckContext {
 public:
  explicit CheckContext(std::string name);
  ~CheckContext();

  CheckContext(const CheckContext&) = delete;
  CheckContext& operator=(const CheckContext&) = delete;

  const std::string& name() const { return name_; }

  // --- producer side (main-program hooks) ------------------------------
  // Stages `value` in the calling thread's HookBatch; visible to checkers
  // only after MarkReady() flushes the batch. `type_identity_t` keeps T
  // deduced from the key alone, so Set(kFile, "/sst/9") works.
  template <typename T>
  void Set(const ContextKey<T>& key, std::type_identity_t<T> value) {
    StageWrite(key.slot(), std::move(value));
  }
  void Set(const ContextKey<CtxValue>& key, CtxValue value) {
    StageWrite(key.slot(), std::move(value));
  }
  // The v1 string-keyed Set(const std::string&, CtxValue) shim is gone:
  // every producer interns a ContextKey<T> once instead of paying a registry
  // lookup per write; wdg-lint's api.deprecated-accessor rule keeps the shim
  // from reappearing in generated checkers.

  // Publishes the calling thread's staged batch, then bumps the epoch and
  // marks the context READY. Every cell of the batch is claimed before any
  // is published, so readers can never observe half a batch.
  void MarkReady(TimeNs now);
  // Drops READY (e.g. component shut down / reconfigured).
  void Invalidate();

  // --- consumer side (checkers) -----------------------------------------
  bool ready() const { return ready_.load(std::memory_order_acquire); }
  uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }
  TimeNs last_update() const { return last_update_.load(std::memory_order_acquire); }

  // Per-key subscription epoch: how many times `slot` has been published into
  // this context (monotone; 0 for a never-written key; a publish in flight
  // already counts). Derived from the slot cell's seqlock sequence, so it is
  // one lock-free atomic load — cheap enough for the driver to consult before
  // every dispatch. Unlike epoch(), which advances on every MarkReady, this
  // moves only when *this key* is rewritten, which is what lets a checker
  // subscribed to a quiet key skip its run entirely (docs/DRIVER.md,
  // "Subscription epochs").
  uint64_t KeyEpoch(uint32_t slot) const;
  template <typename T>
  uint64_t KeyEpoch(const ContextKey<T>& key) const { return KeyEpoch(key.slot()); }

  // The one typed getter. Returns nullopt when the key was never written or
  // holds a different type (ints widen to double, matching v1 GetDouble).
  // Lock-free: an optimistic seqlock copy of the slot cell. After
  // kCellRetries collisions it raises the snapshot gate and retries until
  // the copy is stable.
  template <typename T>
  std::optional<T> Get(const ContextKey<T>& key) const {
    return Extract<T>(ReadSlot(key.slot()));
  }
  // Typed read through a name (cold paths: generated op executors).
  // The registry probe is lock-free too.
  template <typename T>
  std::optional<T> Get(std::string_view name) const {
    const auto slot = KeyRegistry::Instance().Find(name);
    if (!slot.has_value()) {
      return std::nullopt;
    }
    return Extract<T>(ReadSlot(*slot));
  }
  // The single dump-oriented untyped accessor: the raw variant, any type.
  std::optional<CtxValue> Get(const std::string& key) const;

  // Epoch-consistent full copy for failure signatures ("failure-inducing
  // context", §5.2). Optimistic: scans every slot cell without locks and
  // validates that no batch flush overlapped the scan (so the values can
  // never mix two concurrently-flushed batches); after kSnapshotRetries
  // overlapped attempts it raises the snapshot gate and repeats the same
  // scan until one is stable.
  struct ConsistentSnapshot {
    uint64_t epoch = 0;
    TimeNs last_update = 0;
    CtxSnapshot values;
  };
  ConsistentSnapshot SnapshotConsistent() const;
  CtxSnapshot Snapshot() const;
  std::string Dump() const;

  // Entries this thread has staged for this context but not yet flushed.
  size_t pending_batch_size() const;

  // --- read-path observability ------------------------------------------
  // Counters for the optimistic machinery (all monotone). Tests assert the
  // bounded-retry fallback actually triggers under flush churn; benches
  // report how often reads settled without holding writers back.
  struct ReadStats {
    int64_t snapshot_optimistic = 0;  // snapshots stable within kSnapshotRetries
    int64_t snapshot_retries = 0;     // scans restarted by a concurrent flush
    int64_t snapshot_fallbacks = 0;   // snapshots that raised the gate
    int64_t get_fallbacks = 0;        // point reads that raised the gate
  };
  ReadStats read_stats() const;

 private:
  static constexpr uint32_t kSlotsPerChunk = 32;
  static constexpr uint32_t kMaxChunks = 64;  // 2048 slots process-wide
  // Payload capacity of a cell's inline atomic words; longer strings go to
  // the cell's spill block.
  static constexpr uint32_t kInlineBytes = 48;
  static constexpr uint32_t kPayloadWords = kInlineBytes / 8;
  // Staged entries are encoded in the cell wire format at Set() time, so
  // their payload capacity must match the cell's exactly.
  static_assert(sizeof(HookBatch::Staged::words) == kPayloadWords * sizeof(uint64_t),
                "HookBatch::Staged must hold a full inline payload");
  // Bounded optimism: per-cell re-reads before a point read raises the
  // snapshot gate, and whole-scan restarts before a snapshot does.
  static constexpr int kCellRetries = 8;
  static constexpr int kSnapshotRetries = 4;

  enum class SlotTag : uint8_t {
    kEmpty = 0,
    kInt,
    kDouble,
    kBool,
    // Length in header bits 8..; the bytes sit in the inline words when the
    // length is at most kInlineBytes and in the spill block otherwise.
    kString,
  };

  // Out-of-line payload for a string longer than kInlineBytes. Blocks only
  // grow (power-of-two word counts): a writer that needs more room installs
  // a bigger block and chains the superseded one behind it, so a pointer a
  // reader loaded stays valid until ~CheckContext. No reclamation protocol.
  struct SpillBlock {
    SpillBlock(uint32_t n, SpillBlock* older)
        : word_count(n),
          words(std::make_unique<std::atomic<uint64_t>[]>(n)),
          superseded(older) {}
    const uint32_t word_count;
    const std::unique_ptr<std::atomic<uint64_t>[]> words;
    const std::unique_ptr<SpillBlock> superseded;
  };

  // One slot. `seq` is the per-slot seqlock epoch: even = stable, odd = a
  // writer is mid-publish. The payload is a tag/length header plus either
  // kPayloadWords inline atomic words or the words of `spill`, so readers
  // copy it with plain atomic loads (TSan-clean, no torn reads possible).
  // Writers claim the cell by CAS-ing seq even→odd, store the payload
  // (installing a bigger spill block with a release store if needed), then
  // release-store seq back to even.
  struct SlotCell {
    ~SlotCell() { delete spill.load(std::memory_order_relaxed); }
    std::atomic<uint32_t> seq{0};
    std::atomic<uint64_t> header{0};  // SlotTag | (string length << 8)
    std::array<std::atomic<uint64_t>, kPayloadWords> words{};
    std::atomic<SpillBlock*> spill{nullptr};
  };
  struct Chunk {
    std::array<SlotCell, kSlotsPerChunk> cells;
    // Monotone population bitmask: bit i set once cells[i] was ever written
    // (values are never deleted). Snapshot scans iterate set bits instead of
    // probing all kSlotsPerChunk cells; the release fetch_or pairs with the
    // scan's acquire load so a visible bit implies a visible publish. Purely
    // an accelerator — TryReadCell still classifies unset-but-claimed cells
    // correctly as empty/unstable.
    std::atomic<uint32_t> populated{0};
  };

  enum class CellRead { kOk, kEmpty, kUnstable };

  template <typename T>
  static std::optional<T> Extract(std::optional<CtxValue> value) {
    if (!value.has_value()) {
      return std::nullopt;
    }
    return internal::ExtractTyped<T>(*value);
  }

  // Seqlock writer protocol. ClaimCell spins (the competing writer's window
  // is a handful of stores) and leaves seq odd; the claimant, now the cell's
  // only writer, stores the payload and publishes with PublishCell.
  static void ClaimCell(SlotCell& cell);
  static void PublishCell(SlotCell& cell);
  // Stores one staged entry into its claimed cell; `spill` resolves the
  // index a long string staged in words[0].
  static void StoreCell(SlotCell& cell, const HookBatch::Staged& entry,
                        const std::vector<std::string>& spill);
  // One optimistic read attempt: copies the atomic payload (decoding
  // straight into `out`) and re-validates the cell seq around it. `out`
  // holds garbage unless the result is kOk.
  static CellRead TryReadCell(const SlotCell& cell, CtxValue* out);

  // The calling thread's batch, claimed for this context (entries staged for
  // another context and never flushed are abandoned, not leaked into it).
  HookBatch& OwnedBatch();
  // Staging overloads: each encodes into the batch's POD wire format. The
  // typed Set<T> resolves to the exact-type overload, so scalar staging is a
  // header+word append with no CtxValue variant anywhere on the path.
  void StageWrite(uint32_t slot, int64_t value);
  void StageWrite(uint32_t slot, double value);
  void StageWrite(uint32_t slot, bool value);
  void StageWrite(uint32_t slot, std::string value);
  void StageWrite(uint32_t slot, CtxValue value);
  // Records `slot` in its chunk's population bitmask after a publish. The
  // steady-state overwrite pays one relaxed load (bit already set).
  void MarkPopulated(uint32_t slot);
  // The one write path: applies the batch and clears it. Orders the entries
  // by slot (skipped when already ascending; otherwise a stable sort that
  // keeps each slot's last write), claims every cell in ascending slot order
  // (so two overlapping batches serialize instead of deadlocking or
  // interleaving), then stores and publishes them. Claim-all-before-
  // publish-any is what lets a snapshot's seq fingerprint prove batch
  // atomicity without the flush touching any shared counter.
  void FlushBatch(HookBatch& batch);
  SlotCell* CellFor(uint32_t slot);                // allocates the chunk
  const SlotCell* CellIfPresent(uint32_t slot) const;
  std::optional<CtxValue> ReadSlot(uint32_t slot) const;
  // One snapshot scan attempt into `out`; false when a writer moved a
  // visited cell and the attempt must be discarded.
  bool TryScan(ConsistentSnapshot* out) const;

  const std::string name_;
  const uint64_t id_;  // process-unique, guards against stale thread batches
  std::array<std::atomic<Chunk*>, kMaxChunks> chunks_{};
  // One past the highest chunk index ever allocated: snapshot scans stop
  // here instead of walking all kMaxChunks pointers (contexts use a handful
  // of slots; the registry's slot space is process-global).
  std::atomic<uint32_t> chunk_limit_{0};
  std::atomic<bool> ready_{false};
  std::atomic<uint64_t> epoch_{0};
  std::atomic<TimeNs> last_update_{0};
  // The anti-starvation gate: while a read that exhausted its optimistic
  // retries is pending, new flushes yield at entry. Flushes already past the
  // gate finish (they never wait on the gate while holding a claim), so the
  // gated read's retries converge even against a saturating writer fleet.
  mutable std::atomic<int> snapshot_waiters_{0};
  mutable std::atomic<int64_t> snapshot_optimistic_{0};
  mutable std::atomic<int64_t> snapshot_retries_{0};
  mutable std::atomic<int64_t> snapshot_fallbacks_{0};
  mutable std::atomic<int64_t> get_fallbacks_{0};
};

// A single instrumentation point in the main program. Firing an unarmed hook
// is one relaxed atomic load — the "zero cost when no checker cares" budget.
class HookSite {
 public:
  explicit HookSite(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  bool armed() const { return ctx_.load(std::memory_order_relaxed) != nullptr; }

  // `fill(ctx)` runs only when armed. The callback should Set() the values
  // the checker's reduced ops need and then MarkReady.
  template <typename F>
  void Fire(F&& fill) {
    CheckContext* ctx = ctx_.load(std::memory_order_acquire);
    if (ctx != nullptr) {
      fill(*ctx);
      fired_.fetch_add(1, std::memory_order_relaxed);
    }
  }

  void Arm(CheckContext* ctx) { ctx_.store(ctx, std::memory_order_release); }
  void Disarm() { ctx_.store(nullptr, std::memory_order_release); }
  int64_t fired_count() const { return fired_.load(std::memory_order_relaxed); }

 private:
  const std::string name_;
  std::atomic<CheckContext*> ctx_{nullptr};
  std::atomic<int64_t> fired_{0};
};

// Owns the hook sites of one monitored system plus the contexts armed onto
// them. AutoWatchdog's HookPlan arms the subset its analysis selected.
class HookSet {
 public:
  // Creates on first use; returned pointer is stable for the HookSet's life.
  HookSite* Site(const std::string& name);
  // Creates (or returns) the named context.
  CheckContext* Context(const std::string& name);

  // Arms `site` to populate `context` (both created on demand).
  void Arm(const std::string& site, const std::string& context);
  void Disarm(const std::string& site);

  std::vector<std::string> SiteNames() const;
  std::vector<std::string> ContextNames() const;
  int ArmedCount() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<HookSite>> sites_;
  std::map<std::string, std::unique_ptr<CheckContext>> contexts_;
};

}  // namespace wdg
