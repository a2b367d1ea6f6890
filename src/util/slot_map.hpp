// Generational slot map: flat, index-addressed object arena with O(1)
// insert/erase/lookup and stable addresses.
//
// The serve hot path admits and retires hundreds of thousands of requests
// per run; heap-allocating each one (and letting coroutines hold pointers
// into a growable vector) is both slow and fragile. A SlotMap instead owns
// fixed-size chunks of in-place storage: every insert constructs the object
// in a recycled slot (or the next fresh one), every erase destroys it and
// pushes the slot onto a free list, and a per-slot generation counter makes
// stale handles detectable — `get()` on a handle whose slot was recycled
// returns nullptr instead of the new tenant.
//
// Guarantees:
//  - Address stability: an object's address never changes for its whole
//    lifetime. Chunks are never moved or freed while the map lives, so
//    references held across coroutine suspension points stay valid.
//  - Zero steady-state allocation: once the peak live count has been
//    reached, insert/erase cycles reuse slots and never touch the heap
//    (pinned by tests/test_slot_map.cpp's churn test under ASan).
//  - Determinism: the free list is LIFO, so identical operation sequences
//    produce identical slot assignments.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <new>
#include <utility>
#include <vector>

namespace looplynx::util {

/// {index, generation} ticket for a SlotMap slot. The generation is bumped
/// on every erase, so a handle outliving its object dereferences to null
/// rather than to the slot's next tenant.
struct SlotHandle {
  static constexpr std::uint32_t kInvalidIndex = 0xffffffffu;

  std::uint32_t index = kInvalidIndex;
  std::uint32_t generation = 0;

  bool valid() const { return index != kInvalidIndex; }
  friend bool operator==(const SlotHandle&, const SlotHandle&) = default;
};

template <typename T, std::size_t ChunkSlots = 256>
class SlotMap {
  static_assert(ChunkSlots > 0);

 public:
  SlotMap() = default;
  SlotMap(const SlotMap&) = delete;
  SlotMap& operator=(const SlotMap&) = delete;
  ~SlotMap() { clear(); }

  /// Constructs a T in a recycled slot (LIFO) or the next fresh one.
  /// Amortized O(1); allocates only when a new chunk is needed.
  template <typename... Args>
  std::pair<SlotHandle, T&> emplace(Args&&... args) {
    std::uint32_t index;
    if (!free_.empty()) {
      index = free_.back();
      free_.pop_back();
    } else {
      index = static_cast<std::uint32_t>(slots_);
      if (index / ChunkSlots >= chunks_.size()) {
        chunks_.push_back(std::make_unique<Chunk>());
      }
      ++slots_;
    }
    Slot& s = slot(index);
    assert(!s.occupied);
    T* obj = ::new (static_cast<void*>(s.storage)) T(std::forward<Args>(args)...);
    s.occupied = true;
    ++size_;
    return {SlotHandle{index, s.generation}, *obj};
  }

  /// Destroys the object and recycles its slot; stale handles are a no-op.
  bool erase(SlotHandle h) {
    Slot* s = resolve(h);
    if (s == nullptr) return false;
    std::launder(reinterpret_cast<T*>(s->storage))->~T();
    s->occupied = false;
    ++s->generation;  // invalidate every outstanding handle to this slot
    free_.push_back(h.index);
    --size_;
    return true;
  }

  T* get(SlotHandle h) {
    Slot* s = resolve(h);
    return s ? std::launder(reinterpret_cast<T*>(s->storage)) : nullptr;
  }
  const T* get(SlotHandle h) const {
    return const_cast<SlotMap*>(this)->get(h);
  }

  /// Destroys every live object. Chunks (and their addresses) are released;
  /// outstanding handles become stale.
  void clear() {
    for (std::size_t i = 0; i < slots_; ++i) {
      Slot& s = slot(static_cast<std::uint32_t>(i));
      if (s.occupied) {
        std::launder(reinterpret_cast<T*>(s.storage))->~T();
        s.occupied = false;
        ++s.generation;
      }
    }
    chunks_.clear();
    free_.clear();
    slots_ = 0;
    size_ = 0;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Slots ever touched (live + recyclable); the arena's high-water mark.
  std::size_t capacity_slots() const { return slots_; }
  /// Backing chunks allocated so far — constant across steady-state churn.
  std::size_t chunk_count() const { return chunks_.size(); }

 private:
  struct Slot {
    alignas(T) unsigned char storage[sizeof(T)];
    std::uint32_t generation = 0;
    bool occupied = false;
  };
  struct Chunk {
    Slot slots[ChunkSlots];
  };

  Slot& slot(std::uint32_t index) {
    return chunks_[index / ChunkSlots]->slots[index % ChunkSlots];
  }

  Slot* resolve(SlotHandle h) {
    if (!h.valid() || h.index >= slots_) return nullptr;
    Slot& s = slot(h.index);
    if (!s.occupied || s.generation != h.generation) return nullptr;
    return &s;
  }

  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::vector<std::uint32_t> free_;  // LIFO recycle order (deterministic)
  std::size_t slots_ = 0;            // slots ever handed out
  std::size_t size_ = 0;             // live objects
};

}  // namespace looplynx::util
