// Bump-pointer arena for per-session scratch buffers.
//
// The protocol hot paths (the Graphene engine's filter builds and scans)
// repeatedly allocate short-lived vectors whose sizes track the mempool —
// tens of thousands of entries churned per served request. An arena turns
// that into pointer arithmetic: allocate_span() hands out uninitialized
// typed spans from chunked slabs, and reset() recycles every slab at once
// without returning memory to the allocator, so steady-state serving does
// no heap traffic at all.
//
// Not thread-safe; each thread or session owns its arena. Objects must be
// trivially destructible (spans are never individually freed).
#pragma once

#include <cstddef>
#include <cstring>
#include <memory>
#include <new>
#include <span>
#include <type_traits>
#include <vector>

namespace graphene::util {

class Arena {
 public:
  /// `chunk_bytes` is the slab granularity; oversized requests get a
  /// dedicated slab of exactly the requested size.
  explicit Arena(std::size_t chunk_bytes = kDefaultChunkBytes) noexcept
      : chunk_bytes_(chunk_bytes == 0 ? kDefaultChunkBytes : chunk_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Uninitialized storage for `count` objects of T, max-aligned. The span
  /// is valid until reset() or destruction. count == 0 yields an empty span.
  template <typename T>
  [[nodiscard]] std::span<T> allocate_span(std::size_t count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena memory is reclaimed without running destructors");
    static_assert(alignof(T) <= alignof(std::max_align_t));
    if (count == 0) return {};
    void* p = allocate_bytes(count * sizeof(T));
    // Arena storage is always freshly-obtained max-aligned memory, so
    // launder-free placement is fine for trivial types.
    return {static_cast<T*>(p), count};
  }

  /// Zero-initialized variant of allocate_span().
  template <typename T>
  [[nodiscard]] std::span<T> allocate_zeroed(std::size_t count) {
    std::span<T> s = allocate_span<T>(count);
    if (!s.empty()) std::memset(s.data(), 0, s.size_bytes());
    return s;
  }

  /// Invalidates every span handed out so far and makes all slab capacity
  /// available again. O(#slabs), no deallocation.
  void reset() noexcept {
    used_ = 0;
    cursor_ = 0;
    for (Slab& s : slabs_) s.used = 0;
  }

  /// Snapshot of the allocation cursor, for scoped rewind.
  struct Mark {
    std::size_t cursor = 0;
    std::size_t slab_used = 0;
    std::size_t used = 0;
  };

  [[nodiscard]] Mark mark() const noexcept {
    return {cursor_, cursor_ < slabs_.size() ? slabs_[cursor_].used : 0, used_};
  }

  /// Invalidates every span handed out since `m` was taken; earlier spans
  /// stay live. Marks must rewind in LIFO order.
  void rewind(const Mark& m) noexcept {
    for (std::size_t i = m.cursor; i < slabs_.size(); ++i) slabs_[i].used = 0;
    if (m.cursor < slabs_.size()) slabs_[m.cursor].used = m.slab_used;
    cursor_ = m.cursor;
    used_ = m.used;
  }

  /// Bytes handed out since the last reset (capacity diagnostics).
  [[nodiscard]] std::size_t bytes_in_use() const noexcept { return used_; }
  /// Total slab capacity currently held.
  [[nodiscard]] std::size_t bytes_reserved() const noexcept {
    std::size_t total = 0;
    for (const Slab& s : slabs_) total += s.size;
    return total;
  }

  static constexpr std::size_t kDefaultChunkBytes = std::size_t{1} << 16;

 private:
  struct Slab {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
    std::size_t used = 0;
  };

  [[nodiscard]] void* allocate_bytes(std::size_t n) {
    // Keep every hand-out max-aligned so heterogeneous allocate_span<T>
    // calls can interleave freely.
    n = (n + alignof(std::max_align_t) - 1) &
        ~(alignof(std::max_align_t) - 1);
    while (cursor_ < slabs_.size()) {
      Slab& s = slabs_[cursor_];
      if (s.size - s.used >= n) {
        void* p = s.data.get() + s.used;
        s.used += n;
        used_ += n;
        return p;
      }
      ++cursor_;
    }
    Slab fresh;
    fresh.size = n > chunk_bytes_ ? n : chunk_bytes_;
    fresh.data = std::make_unique<std::byte[]>(fresh.size);
    fresh.used = n;
    slabs_.push_back(std::move(fresh));
    cursor_ = slabs_.size() - 1;
    used_ += n;
    return slabs_.back().data.get();
  }

  std::size_t chunk_bytes_;
  std::vector<Slab> slabs_;
  std::size_t cursor_ = 0;  ///< first slab worth probing for free space
  std::size_t used_ = 0;
};

/// The calling thread's shared scratch arena. Use through ScratchScope so
/// nested hot-path calls on one thread compose.
[[nodiscard]] inline Arena& thread_scratch() {
  thread_local Arena arena;
  return arena;
}

/// RAII window onto thread_scratch(): spans allocated through the scope are
/// recycled when it closes (LIFO rewind), so steady-state hot paths reuse
/// the same slabs with zero heap traffic. Spans must not outlive the scope.
class ScratchScope {
 public:
  ScratchScope() noexcept : arena_(thread_scratch()), mark_(arena_.mark()) {}
  ~ScratchScope() { arena_.rewind(mark_); }
  ScratchScope(const ScratchScope&) = delete;
  ScratchScope& operator=(const ScratchScope&) = delete;

  /// Uninitialized scratch for `count` objects of T.
  template <typename T>
  [[nodiscard]] std::span<T> span(std::size_t count) {
    return arena_.allocate_span<T>(count);
  }
  /// Zero-initialized scratch.
  template <typename T>
  [[nodiscard]] std::span<T> zeroed(std::size_t count) {
    return arena_.allocate_zeroed<T>(count);
  }
  [[nodiscard]] Arena& arena() noexcept { return arena_; }

 private:
  Arena& arena_;
  Arena::Mark mark_;
};

}  // namespace graphene::util
