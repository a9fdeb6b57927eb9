// Replacement global operator new/delete behind bench/alloc_counter.h.  Kept
// out of line in its own translation unit: inlined into a bench, the
// malloc/free bodies draw -Wmismatched-new-delete.
#include "alloc_counter.h"

#include <execinfo.h>

#include <cstdio>
#include <cstdlib>
#include <new>

namespace {
thread_local std::uint64_t t_alloc_count = 0;
thread_local int t_trace_budget = 0;

void* counted_alloc(std::size_t size) {
  ++t_alloc_count;
  if (t_trace_budget > 0) {
    --t_trace_budget;
    void* frames[32];
    const int depth = backtrace(frames, 32);
    std::fprintf(stderr, "--- allocation (%zu bytes) from: ---\n", size);
    backtrace_symbols_fd(frames, depth, 2);
  }
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc{};
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  ++t_alloc_count;
  const auto a = static_cast<std::size_t>(align);
  if (void* p = std::aligned_alloc(a, (size + a - 1) & ~(a - 1))) return p;
  throw std::bad_alloc{};
}
}  // namespace

namespace aars::bench {
std::uint64_t alloc_count() { return t_alloc_count; }
void trace_next_allocs(int n) { t_trace_budget = n; }
}  // namespace aars::bench

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
