// The Goose heap: pointers, slices, and the racy-access-is-UB discipline.
//
// Per §6.1 of the paper, Goose makes racy access to shared data undefined
// behavior: a store is modeled as *two* atomic steps (write-start and
// write-end), and any operation on the same object that interleaves with an
// in-flight write raises UbViolation. Refinement holds only for programs
// the checker never drives into UB — which is how proofs "exploit undefined
// behavior" (§8.3): the spec imposes no obligation on racy clients.
//
// All handles carry the creation generation; crossing a crash invalidates
// them (§5.2). Harness-only Peek/Poke accessors bypass the modeled
// semantics for building initial states and checking invariants — they must
// never appear in modeled procedure bodies.
#ifndef PERENNIAL_SRC_GOOSE_HEAP_H_
#define PERENNIAL_SRC_GOOSE_HEAP_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/base/panic.h"
#include "src/goose/world.h"
#include "src/proc/footprint.h"
#include "src/proc/scheduler.h"
#include "src/proc/task.h"

namespace perennial::goose {

// A typed pointer into the Goose heap. Trivially copyable; the pointee is
// owned by the heap.
template <typename T>
struct Ptr {
  uint64_t id = UINT64_MAX;
  uint64_t gen = UINT64_MAX;

  bool null() const { return id == UINT64_MAX; }
  friend bool operator==(const Ptr&, const Ptr&) = default;
};

// A Go map handle.
template <typename K, typename V>
struct GoMap {
  uint64_t id = UINT64_MAX;
  uint64_t gen = UINT64_MAX;

  bool null() const { return id == UINT64_MAX; }
  friend bool operator==(const GoMap&, const GoMap&) = default;
};

// A Go slice handle: a view (offset, length) into a heap array.
template <typename T>
struct Slice {
  uint64_t id = UINT64_MAX;
  uint64_t off = 0;
  uint64_t len = 0;
  uint64_t gen = UINT64_MAX;

  bool null() const { return id == UINT64_MAX; }
  uint64_t size() const { return len; }
  friend bool operator==(const Slice&, const Slice&) = default;
};

class Heap : public CrashAware {
 public:
  explicit Heap(World* world)
      : world_(world), alloc_res_(proc::MixResource(proc::kResHeapAlloc, world->NextResourceId())) {
    world_->Register(this);
  }

  // --- Pointers ---

  template <typename T>
  Ptr<T> New(T value) {
    proc::RecordAccess(alloc_res_, /*write=*/true);
    auto cell = std::make_unique<Cell<T>>();
    cell->value = std::move(value);
    cells_.push_back(std::move(cell));
    return Ptr<T>{cells_.size() - 1, world_->generation()};
  }

  // *p — one atomic step; UB if a write to p is in flight.
  template <typename T>
  proc::Task<T> Load(Ptr<T> p) {
    co_await proc::Yield();
    proc::RecordAccess(CellRes(p.id), /*write=*/false);
    Cell<T>& cell = Resolve<T>(p, "Load");
    if (cell.write_active) {
      RaiseUb("Goose race: load overlaps an in-flight store");
    }
    co_return cell.value;
  }

  // *p = v — two atomic steps (write-start, write-end); any concurrent
  // operation on p between them is a race.
  template <typename T>
  proc::Task<void> Store(Ptr<T> p, T value) {
    co_await proc::Yield();
    {
      proc::RecordAccess(CellRes(p.id), /*write=*/true);
      Cell<T>& cell = Resolve<T>(p, "Store");
      if (cell.write_active) {
        RaiseUb("Goose race: two stores overlap");
      }
      cell.write_active = true;
    }
    co_await proc::Yield();
    {
      proc::RecordAccess(CellRes(p.id), /*write=*/true);
      Cell<T>& cell = Resolve<T>(p, "Store");
      cell.value = std::move(value);
      cell.write_active = false;
    }
  }

  // --- Slices ---

  template <typename T>
  Slice<T> NewSlice(uint64_t count, T fill = T{}) {
    proc::RecordAccess(alloc_res_, /*write=*/true);
    auto arr = std::make_unique<Array<T>>();
    arr->data.assign(count, fill);
    cells_.push_back(std::move(arr));
    return Slice<T>{cells_.size() - 1, 0, count, world_->generation()};
  }

  template <typename T>
  Slice<T> SliceFromVector(std::vector<T> values) {
    proc::RecordAccess(alloc_res_, /*write=*/true);
    auto arr = std::make_unique<Array<T>>();
    uint64_t count = values.size();
    arr->data = std::move(values);
    cells_.push_back(std::move(arr));
    return Slice<T>{cells_.size() - 1, 0, count, world_->generation()};
  }

  // s[i] — one atomic step; races with in-flight writes to the same array.
  template <typename T>
  proc::Task<T> SliceGet(Slice<T> s, uint64_t i) {
    co_await proc::Yield();
    proc::RecordAccess(CellRes(s.id), /*write=*/false);
    Array<T>& arr = ResolveArray<T>(s, "SliceGet");
    if (arr.write_active) {
      RaiseUb("Goose race: slice read overlaps an in-flight write");
    }
    CheckIndex(s, i, "SliceGet");
    co_return arr.data[s.off + i];
  }

  // s[i] = v — two atomic steps, like Store.
  template <typename T>
  proc::Task<void> SliceSet(Slice<T> s, uint64_t i, T value) {
    co_await proc::Yield();
    {
      proc::RecordAccess(CellRes(s.id), /*write=*/true);
      Array<T>& arr = ResolveArray<T>(s, "SliceSet");
      if (arr.write_active) {
        RaiseUb("Goose race: two slice writes overlap");
      }
      CheckIndex(s, i, "SliceSet");
      arr.write_active = true;
    }
    co_await proc::Yield();
    {
      proc::RecordAccess(CellRes(s.id), /*write=*/true);
      Array<T>& arr = ResolveArray<T>(s, "SliceSet");
      arr.data[s.off + i] = std::move(value);
      arr.write_active = false;
    }
  }

  // append(s, v) — modeled as copy-on-append into a fresh array (always
  // reallocates, a sound simplification of Go's capacity rule: no aliasing
  // surprises are possible). Two steps: the copy reads the source array.
  template <typename T>
  proc::Task<Slice<T>> SliceAppend(Slice<T> s, T value) {
    co_await proc::Yield();
    proc::RecordAccess(CellRes(s.id), /*write=*/false);
    std::vector<T> copy;
    {
      Array<T>& arr = ResolveArray<T>(s, "SliceAppend");
      if (arr.write_active) {
        RaiseUb("Goose race: append overlaps an in-flight write");
      }
      copy.assign(arr.data.begin() + static_cast<long>(s.off),
                  arr.data.begin() + static_cast<long>(s.off + s.len));
    }
    copy.push_back(std::move(value));
    co_return SliceFromVector(std::move(copy));
  }

  // copy(dst, s[lo:hi]) as used for chunked I/O: reads a whole range in one
  // atomic step (Go's copy builtin is one racey region operation).
  template <typename T>
  proc::Task<std::vector<T>> SliceCopyOut(Slice<T> s, uint64_t lo, uint64_t hi) {
    co_await proc::Yield();
    proc::RecordAccess(CellRes(s.id), /*write=*/false);
    Array<T>& arr = ResolveArray<T>(s, "SliceCopyOut");
    if (arr.write_active) {
      RaiseUb("Goose race: slice copy overlaps an in-flight write");
    }
    if (lo > hi || hi > s.len) {
      RaiseUb("SliceCopyOut: bounds");
    }
    co_return std::vector<T>(arr.data.begin() + static_cast<long>(s.off + lo),
                             arr.data.begin() + static_cast<long>(s.off + hi));
  }

  // s[lo:hi] — pure handle arithmetic, no scheduling point (Go subslicing
  // does not touch the array).
  template <typename T>
  Slice<T> SubSlice(Slice<T> s, uint64_t lo, uint64_t hi) const {
    PCC_ENSURE(lo <= hi && hi <= s.len, "SubSlice: bounds");
    return Slice<T>{s.id, s.off + lo, hi - lo, s.gen};
  }

  // --- Maps ---
  //
  // Go map operations are modeled as atomic, with §6.1's iterator rule: a
  // mutation while any iteration is in progress is undefined behavior
  // (iterator invalidation), and iteration visits entries one per step.

  template <typename K, typename V>
  GoMap<K, V> NewMap() {
    proc::RecordAccess(alloc_res_, /*write=*/true);
    cells_.push_back(std::make_unique<MapCell<K, V>>());
    return GoMap<K, V>{cells_.size() - 1, world_->generation()};
  }

  template <typename K, typename V>
  proc::Task<void> MapInsert(GoMap<K, V> m, K key, V value) {
    co_await proc::Yield();
    proc::RecordAccess(CellRes(m.id), /*write=*/true);
    MapCell<K, V>& cell = ResolveMap<K, V>(m, "MapInsert");
    if (cell.active_iterations > 0) {
      RaiseUb("Goose race: map insert during iteration");
    }
    cell.data[std::move(key)] = std::move(value);
  }

  template <typename K, typename V>
  proc::Task<std::optional<V>> MapLookup(GoMap<K, V> m, K key) {
    co_await proc::Yield();
    proc::RecordAccess(CellRes(m.id), /*write=*/false);
    MapCell<K, V>& cell = ResolveMap<K, V>(m, "MapLookup");
    auto it = cell.data.find(key);
    if (it == cell.data.end()) {
      co_return std::nullopt;
    }
    co_return it->second;
  }

  template <typename K, typename V>
  proc::Task<void> MapDelete(GoMap<K, V> m, K key) {
    co_await proc::Yield();
    proc::RecordAccess(CellRes(m.id), /*write=*/true);
    MapCell<K, V>& cell = ResolveMap<K, V>(m, "MapDelete");
    if (cell.active_iterations > 0) {
      RaiseUb("Goose race: map delete during iteration");
    }
    cell.data.erase(key);
  }

  template <typename K, typename V>
  proc::Task<uint64_t> MapLen(GoMap<K, V> m) {
    co_await proc::Yield();
    proc::RecordAccess(CellRes(m.id), /*write=*/false);
    co_return ResolveMap<K, V>(m, "MapLen").data.size();
  }

  // range over the map: one scheduling point per entry; `visit` is host
  // code (it may itself co_await modeled operations).
  template <typename K, typename V>
  proc::Task<void> MapForEach(GoMap<K, V> m,
                              std::function<proc::Task<void>(const K&, const V&)> visit) {
    co_await proc::Yield();
    // Iteration steps record reads: they conflict with concurrent mutations
    // (the §6.1 iterator-invalidation race stays explored) but two
    // iterations commute.
    proc::RecordAccess(CellRes(m.id), /*write=*/false);
    std::vector<K> keys;
    {
      MapCell<K, V>& cell = ResolveMap<K, V>(m, "MapForEach");
      ++cell.active_iterations;
      keys.reserve(cell.data.size());
      for (const auto& [k, v] : cell.data) {
        keys.push_back(k);
      }
    }
    for (const K& key : keys) {
      co_await proc::Yield();
      proc::RecordAccess(CellRes(m.id), /*write=*/false);
      MapCell<K, V>& cell = ResolveMap<K, V>(m, "MapForEach");
      auto it = cell.data.find(key);
      PCC_ENSURE(it != cell.data.end(), "MapForEach: entry vanished during legal iteration");
      co_await visit(it->first, it->second);
    }
    {
      MapCell<K, V>& cell = ResolveMap<K, V>(m, "MapForEach");
      --cell.active_iterations;
    }
  }

  // --- Harness-only accessors (no yields, no race checks) ---

  template <typename T>
  const T& Peek(Ptr<T> p) {
    return Resolve<T>(p, "Peek").value;
  }
  template <typename T>
  void Poke(Ptr<T> p, T value) {
    Resolve<T>(p, "Poke").value = std::move(value);
  }
  template <typename T>
  std::vector<T> PeekSlice(Slice<T> s) {
    Array<T>& arr = ResolveArray<T>(s, "PeekSlice");
    return std::vector<T>(arr.data.begin() + static_cast<long>(s.off),
                          arr.data.begin() + static_cast<long>(s.off + s.len));
  }

  size_t cell_count() const { return cells_.size(); }

  // Crash: all memory contents are lost (§6.2 crash model).
  void OnCrash() override { cells_.clear(); }
  // Nothing survives: every cell is gone and cell ids restart.
  void MixSurvivingState(Hasher128*) const override {}

 private:
  struct CellBase {
    bool write_active = false;
    virtual ~CellBase() = default;
  };
  template <typename T>
  struct Cell : CellBase {
    T value;
  };
  template <typename T>
  struct Array : CellBase {
    std::vector<T> data;
  };
  template <typename K, typename V>
  struct MapCell : CellBase {
    std::map<K, V> data;
    int active_iterations = 0;
  };

  template <typename T>
  Cell<T>& Resolve(Ptr<T> p, const char* op) {
    if (p.null()) {
      RaiseUb(std::string(op) + ": nil pointer dereference");
    }
    if (p.gen != world_->generation()) {
      RaiseUb(std::string(op) + ": pointer from a previous crash generation");
    }
    PCC_ENSURE(p.id < cells_.size(), "heap: pointer id out of range");
    auto* cell = dynamic_cast<Cell<T>*>(cells_[p.id].get());
    PCC_ENSURE(cell != nullptr, "heap: pointer type mismatch");
    return *cell;
  }

  template <typename T>
  Array<T>& ResolveArray(Slice<T> s, const char* op) {
    if (s.null()) {
      RaiseUb(std::string(op) + ": nil slice");
    }
    if (s.gen != world_->generation()) {
      RaiseUb(std::string(op) + ": slice from a previous crash generation");
    }
    PCC_ENSURE(s.id < cells_.size(), "heap: slice id out of range");
    auto* arr = dynamic_cast<Array<T>*>(cells_[s.id].get());
    PCC_ENSURE(arr != nullptr, "heap: slice type mismatch");
    PCC_ENSURE(s.off + s.len <= arr->data.size(), "heap: slice view out of range");
    return *arr;
  }

  template <typename K, typename V>
  MapCell<K, V>& ResolveMap(GoMap<K, V> m, const char* op) {
    if (m.null()) {
      RaiseUb(std::string(op) + ": nil map");
    }
    if (m.gen != world_->generation()) {
      RaiseUb(std::string(op) + ": map from a previous crash generation");
    }
    PCC_ENSURE(m.id < cells_.size(), "heap: map id out of range");
    auto* cell = dynamic_cast<MapCell<K, V>*>(cells_[m.id].get());
    PCC_ENSURE(cell != nullptr, "heap: map type mismatch");
    return *cell;
  }

  template <typename T>
  void CheckIndex(Slice<T> s, uint64_t i, const char* op) {
    if (i >= s.len) {
      RaiseUb(std::string(op) + ": index out of range");
    }
  }

  // Cell ids restart from 0 after OnCrash, so the footprint resource is
  // stamped with the crash generation to keep old and new cells distinct.
  uint64_t CellRes(uint64_t id) const {
    return proc::MixResource(proc::kResHeapCell, id, world_->generation());
  }

  World* world_;
  uint64_t alloc_res_;
  std::vector<std::unique_ptr<CellBase>> cells_;
};

}  // namespace perennial::goose

#endif  // PERENNIAL_SRC_GOOSE_HEAP_H_
