// Arena-allocated event callbacks.
//
// Every simulated RPC crosses the event queue several times, and with
// std::function each crossing pays a heap allocation for the closure. A
// sim::Callback is a move-only type-erased callable with
//  * small-buffer inline storage for closures up to kInlineBytes,
//  * spill into a per-engine EventArena (bump-pointer blocks recycled
//    through size-class free lists; the arena resets per run) for larger
//    closures built on the engine's scheduling paths, and
//  * a plain-heap fallback for callbacks constructed without an arena.
//
// The tag (vtable pointer + storage discriminator) replaces std::function's
// manager machinery; dispatch is one indirect call either way, but
// construction and destruction stop touching the global allocator on the
// hot path. Callback is the engine's only event type: scheduleAt/After
// take a Callback or any callable, which they wrap in one.
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

namespace stellar::sim {

/// Bump-pointer arena for event closures. allocate/deallocate round sizes
/// up to 16-byte classes and recycle freed storage through per-class free
/// lists, so steady-state simulation reuses a small working set instead of
/// hammering malloc. Requests beyond the largest class fall through to the
/// global allocator (counted as spills). reset() drops everything back to
/// the first block between runs.
class EventArena {
 public:
  static constexpr std::size_t kGranularity = 16;
  static constexpr std::size_t kMaxClassBytes = 1024;

  explicit EventArena(std::size_t firstBlockBytes = 64 * 1024);
  ~EventArena();

  EventArena(const EventArena&) = delete;
  EventArena& operator=(const EventArena&) = delete;

  [[nodiscard]] void* allocate(std::size_t bytes);
  void deallocate(void* ptr, std::size_t bytes) noexcept;

  /// Returns the arena to its freshly-constructed state (first block kept).
  /// Callers must have destroyed every outstanding allocation.
  void reset() noexcept;

  /// Total bytes held in arena blocks (capacity, not live bytes).
  [[nodiscard]] std::size_t bytesReserved() const noexcept { return reserved_; }
  [[nodiscard]] std::uint64_t allocations() const noexcept { return allocations_; }
  /// Allocations beyond kMaxClassBytes, served by the global allocator.
  [[nodiscard]] std::uint64_t oversizedAllocations() const noexcept { return oversized_; }

 private:
  struct FreeNode {
    FreeNode* next;
  };

  static constexpr std::size_t kClassCount = kMaxClassBytes / kGranularity;

  [[nodiscard]] static std::size_t classIndex(std::size_t bytes) noexcept {
    return (bytes + kGranularity - 1) / kGranularity - 1;
  }

  void addBlock(std::size_t bytes);

  std::vector<std::pair<std::byte*, std::size_t>> blocks_;
  std::byte* bump_ = nullptr;
  std::size_t bumpLeft_ = 0;
  std::size_t nextBlockBytes_;
  std::size_t reserved_ = 0;
  std::uint64_t allocations_ = 0;
  std::uint64_t oversized_ = 0;
  FreeNode* freeLists_[kClassCount] = {};
};

class Callback;

/// Callables the scheduling templates accept: anything invocable with no
/// arguments except Callback itself (which has dedicated overloads).
template <typename F>
concept EventCallable = std::invocable<std::remove_cvref_t<F>&> &&
                        !std::same_as<std::remove_cvref_t<F>, Callback>;

/// Move-only type-erased void() callable with small-buffer + arena storage.
class Callback {
 public:
  /// Closures at or under this size (with fundamental alignment and a
  /// noexcept move) are stored inline; larger ones spill to the arena (or
  /// heap when constructed without one).
  static constexpr std::size_t kInlineBytes = 48;

  Callback() noexcept = default;
  Callback(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <EventCallable F>
  explicit Callback(F&& fn) {
    emplace<std::decay_t<F>>(nullptr, std::forward<F>(fn));
  }

  template <EventCallable F>
  Callback(EventArena& arena, F&& fn) {
    emplace<std::decay_t<F>>(&arena, std::forward<F>(fn));
  }

  Callback(Callback&& other) noexcept { stealFrom(other); }

  Callback& operator=(Callback&& other) noexcept {
    if (this != &other) {
      destroy();
      stealFrom(other);
    }
    return *this;
  }

  Callback(const Callback&) = delete;
  Callback& operator=(const Callback&) = delete;

  ~Callback() { destroy(); }

  [[nodiscard]] explicit operator bool() const noexcept { return vt_ != nullptr; }

  /// Invokes the callable. The callable stays live until destruction, but
  /// the engine treats callbacks as one-shot: dispatch then destroy.
  void operator()() {
    vt_->invoke(storage());
  }

  /// True when the closure spilled out of the inline buffer (telemetry).
  [[nodiscard]] bool spilled() const noexcept { return vt_ != nullptr && !inline_; }

 private:
  struct VTable {
    void (*invoke)(void*);
    void (*relocate)(void* from, void* to) noexcept;  // inline storage only
    void (*destroy)(void*) noexcept;
    std::size_t size;
  };

  template <typename F>
  static const VTable* vtableFor() noexcept {
    static constexpr VTable vt{
        [](void* obj) { (*static_cast<F*>(obj))(); },
        [](void* from, void* to) noexcept {
          ::new (to) F(std::move(*static_cast<F*>(from)));
        },
        [](void* obj) noexcept { static_cast<F*>(obj)->~F(); },
        sizeof(F),
    };
    return &vt;
  }

  template <typename F, typename Arg>
  void emplace(EventArena* arena, Arg&& fn) {
    constexpr bool fitsInline = sizeof(F) <= kInlineBytes &&
                                alignof(F) <= alignof(std::max_align_t) &&
                                std::is_nothrow_move_constructible_v<F>;
    if constexpr (fitsInline) {
      ::new (static_cast<void*>(buffer_)) F(std::forward<Arg>(fn));
      inline_ = true;
    } else {
      void* mem = arena != nullptr ? arena->allocate(sizeof(F))
                                   : ::operator new(sizeof(F));
      try {
        ::new (mem) F(std::forward<Arg>(fn));
      } catch (...) {
        if (arena != nullptr) {
          arena->deallocate(mem, sizeof(F));
        } else {
          ::operator delete(mem);
        }
        throw;
      }
      out_ = mem;
      arena_ = arena;
      inline_ = false;
    }
    vt_ = vtableFor<F>();
  }

  [[nodiscard]] void* storage() noexcept {
    return inline_ ? static_cast<void*>(buffer_) : out_;
  }

  void destroy() noexcept {
    if (vt_ == nullptr) {
      return;
    }
    if (inline_) {
      vt_->destroy(buffer_);
    } else {
      vt_->destroy(out_);
      if (arena_ != nullptr) {
        arena_->deallocate(out_, vt_->size);
      } else {
        ::operator delete(out_);
      }
    }
    vt_ = nullptr;
    out_ = nullptr;
    arena_ = nullptr;
    inline_ = false;
  }

  void stealFrom(Callback& other) noexcept {
    vt_ = other.vt_;
    inline_ = other.inline_;
    if (vt_ != nullptr && inline_) {
      vt_->relocate(other.buffer_, buffer_);
      vt_->destroy(other.buffer_);
    } else {
      out_ = other.out_;
      arena_ = other.arena_;
    }
    other.vt_ = nullptr;
    other.out_ = nullptr;
    other.arena_ = nullptr;
    other.inline_ = false;
  }

  alignas(std::max_align_t) std::byte buffer_[kInlineBytes];
  void* out_ = nullptr;
  EventArena* arena_ = nullptr;
  const VTable* vt_ = nullptr;
  bool inline_ = false;
};

}  // namespace stellar::sim
