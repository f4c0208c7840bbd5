// Bump/arena allocator for the hot-path scratch of the exact-arithmetic
// kernels (DESIGN.md §10).
//
// The limb-tier BigInt kernels need short-lived magnitude buffers (an
// addition result, Knuth-D's normalized dividend/divisor, a quotient and
// remainder). The seed allocated a fresh std::vector for every one of
// them -- ~13M heap allocations in a single strong-lower-bound run. The
// arena replaces those with pointer bumps into thread-local chunks:
//
//   ArenaScope scope(thread_arena());
//   Limb* out = scope.alloc<Limb>(n);
//   ... compute into out, copy the canonical result out ...
//   // scope destructor rolls the arena back; nothing is freed.
//
// Lifetime rules:
//  * Arena memory is valid only while the allocating ArenaScope is alive.
//    Nothing that outlives the scope may point into it; callers copy the
//    final value into owned storage (BigInt's inline/spill limb store)
//    before the scope closes.
//  * Scopes nest like a stack (checkpoint/rollback of a bump pointer);
//    destroying an outer scope invalidates every inner allocation. The
//    BigInt kernels open at most one scope per operator call and recursion
//    (gcd -> div_mod -> kernels) nests naturally.
//  * Chunks are never returned to the OS until the Arena is destroyed
//    (thread exit for thread_arena()); rollback just rewinds the bump
//    pointer, so steady-state allocation cost is a pointer add.
//
// Determinism: the "mem.arena_bytes" / "mem.bigint_spill" tallies count
// *requests* (a pure function of the workload). Physical chunk growth is
// thread-local warm-up state -- it depends on which tasks share a thread --
// so it is deliberately kept out of the drained tallies and only surfaces
// in Arena::stats() for local inspection.
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <vector>

#include "minmach/obs/metrics.hpp"

namespace minmach::util {

class Arena {
 public:
  // Rollback token: a position in the chunk list plus the bump offset
  // there.
  struct Marker {
    std::size_t chunk = 0;
    std::size_t offset = 0;
  };

  struct Stats {
    std::uint64_t chunk_allocs = 0;   // physical chunk mallocs (lifetime)
    std::uint64_t bytes_reserved = 0; // sum of chunk sizes currently held
    std::uint64_t bytes_requested = 0;// logical bytes served via allocate()
  };

  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;
  ~Arena() {
    for (Chunk& chunk : chunks_) ::operator delete(chunk.data);
  }

  // Returns `bytes` of uninitialized storage aligned for any limb/POD use
  // (16-byte granularity). Valid until the enclosing scope rolls back.
  void* allocate(std::size_t bytes) {
    bytes = (bytes + kAlign - 1) & ~(kAlign - 1);
    MINMACH_OBS_TALLY_ADD(arena_bytes, bytes);
    stats_.bytes_requested += bytes;
    if (active_ < chunks_.size()) [[likely]] {
      Chunk& chunk = chunks_[active_];
      if (chunk.used + bytes <= chunk.size) [[likely]] {
        void* p = chunk.data + chunk.used;
        chunk.used += bytes;
        return p;
      }
    }
    return allocate_slow(bytes);
  }

  // Typed convenience for trivially-destructible scratch arrays.
  template <typename T>
  T* alloc(std::size_t count) {
    static_assert(std::is_trivially_destructible_v<T> &&
                      alignof(T) <= kAlign,
                  "arena scratch must not need destruction");
    return static_cast<T*>(allocate(count * sizeof(T)));
  }

  [[nodiscard]] Marker checkpoint() const {
    return {active_, active_ < chunks_.size() ? chunks_[active_].used : 0};
  }

  void rollback(const Marker& marker) {
    active_ = marker.chunk;
    if (active_ < chunks_.size()) chunks_[active_].used = marker.offset;
  }

  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  static constexpr std::size_t kAlign = 16;
  static constexpr std::size_t kMinChunk = std::size_t{32} << 10;  // 32 KiB
  static constexpr std::size_t kMaxChunk = std::size_t{1} << 20;   // 1 MiB

  struct Chunk {
    std::byte* data = nullptr;
    std::size_t size = 0;
    std::size_t used = 0;
  };

  void* allocate_slow(std::size_t bytes) {
    // Advance through chunks retained from a previous high-water mark;
    // entering one resets its bump offset (its contents died at rollback).
    while (active_ + 1 < chunks_.size()) {
      Chunk& chunk = chunks_[++active_];
      chunk.used = 0;
      if (bytes <= chunk.size) {
        chunk.used = bytes;
        return chunk.data;
      }
    }
    std::size_t size = chunks_.empty()
                           ? kMinChunk
                           : std::min(kMaxChunk, chunks_.back().size * 2);
    if (size < bytes) size = bytes;
    Chunk chunk{static_cast<std::byte*>(::operator new(size)), size, bytes};
    chunks_.push_back(chunk);
    active_ = chunks_.size() - 1;
    ++stats_.chunk_allocs;
    stats_.bytes_reserved += size;
    return chunk.data;
  }

  std::vector<Chunk> chunks_;
  std::size_t active_ = 0;
  Stats stats_;
};

// The per-thread arena every arithmetic kernel draws scratch from.
Arena& thread_arena() noexcept;

// RAII checkpoint/rollback over an arena. Everything allocated through the
// scope (or directly from the arena while the scope is the innermost one)
// is reclaimed when the scope dies.
class ArenaScope {
 public:
  explicit ArenaScope(Arena& arena)
      : arena_(arena), marker_(arena.checkpoint()) {}
  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;
  ~ArenaScope() { arena_.rollback(marker_); }

  template <typename T>
  T* alloc(std::size_t count) {
    return arena_.alloc<T>(count);
  }
  [[nodiscard]] Arena& arena() { return arena_; }

 private:
  Arena& arena_;
  Arena::Marker marker_;
};

}  // namespace minmach::util
