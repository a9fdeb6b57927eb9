// Counting global allocator for the benches that gate on allocations
// (e14, e16, e17, e18, e19).  Linking bench/alloc_counter.cpp into a bench
// replaces every global operator new and delete with malloc/free wrappers,
// so the pairs stay matched under ASan.  The count is per thread: a bench
// reads deltas of alloc_count() around a region that one thread runs, and
// shard runner threads count into their own cells.
#pragma once

#include <cstdint>

namespace aars::bench {

/// Global operator new calls made by the calling thread so far.
std::uint64_t alloc_count();

/// Dumps a backtrace to stderr for each of the calling thread's next `n`
/// allocations: the tool for finding which step of a probe still allocates.
void trace_next_allocs(int n);

}  // namespace aars::bench
