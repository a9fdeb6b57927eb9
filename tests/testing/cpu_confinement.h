// Scoped CPU confinement for tests of the shard runner rule.
//
// ConfineToCpus restricts the calling thread to the first k CPUs of its
// affinity mask and restores the mask on destruction.  Threads it starts in
// between inherit the confinement, and sim::usable_cpus() (so a ShardSet
// built meanwhile) sees k CPUs.  Each ctest case runs in its own process,
// so a confinement never outlives its case.
#pragma once

#include <sched.h>

#include <cstddef>

namespace aars::testing {

class ConfineToCpus {
 public:
  explicit ConfineToCpus(std::size_t k) {
    CPU_ZERO(&saved_);
    if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
    cpu_set_t confined;
    CPU_ZERO(&confined);
    std::size_t taken = 0;
    for (int cpu = 0; cpu < CPU_SETSIZE && taken < k; ++cpu) {
      if (CPU_ISSET(cpu, &saved_)) {
        CPU_SET(cpu, &confined);
        ++taken;
      }
    }
    confined_ = taken == k &&
                sched_setaffinity(0, sizeof(confined), &confined) == 0;
  }
  ~ConfineToCpus() {
    if (confined_) sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  ConfineToCpus(const ConfineToCpus&) = delete;
  ConfineToCpus& operator=(const ConfineToCpus&) = delete;

  /// False when the mask could not be read or set, or allows fewer than k
  /// CPUs; the thread is then left as it was.
  bool confined() const { return confined_; }

 private:
  cpu_set_t saved_;
  bool confined_ = false;
};

}  // namespace aars::testing
