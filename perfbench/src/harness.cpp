#include "harness.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <string>
#include <unordered_map>

namespace perfbench {

double wall_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {
double clock_s(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}
}  // namespace

double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }

double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }

double peak_rss_mb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status != nullptr) {
    char line[256];
    while (std::fgets(line, sizeof(line), status) != nullptr) {
      long kb = 0;
      if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) {
        std::fclose(status);
        return static_cast<double>(kb) / 1024.0;
      }
    }
    std::fclose(status);
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

// --- reference kernels -------------------------------------------------------

namespace {

std::uint64_t xorshift(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

class CompactKernel final : public RefKernel {
 public:
  CompactKernel() : table_(kTableSize) {
    for (std::size_t i = 0; i < table_.size(); ++i) {
      table_[i] = i * 0x9e3779b97f4a7c15ULL;
    }
    for (std::size_t i = 0; i < kHeapSize; ++i) {
      heap_.push_back(xorshift(state_) >> 20);
    }
    std::make_heap(heap_.begin(), heap_.end());
  }

  double nominal_ms() const override { return 0.45; }

  RefSample sample() override {
    std::uint64_t acc = sink_;
    for (std::size_t i = 0; i < table_.size(); i += 8) acc += table_[i];
    for (std::size_t i = 0; i < heap_.size(); i += 8) acc += heap_[i];

    const double cpu0 = thread_cpu_s();
    const double t0 = wall_s();
    for (int i = 0; i < kOps; ++i) {
      const std::uint64_t x = xorshift(state_);
      // A pop and a push keep the heap at its fixed size: the work per
      // sample never changes.
      std::pop_heap(heap_.begin(), heap_.end());
      acc += heap_.back();
      heap_.back() = (heap_.back() >> 1) ^ (x >> 20);
      std::push_heap(heap_.begin(), heap_.end());
      std::uint64_t& slot = table_[(x >> 33) & (kTableSize - 1)];
      slot = slot * 31 + acc;
      if ((slot & 3) == 0) acc ^= slot >> 7;
    }
    const double t1 = wall_s();
    const double cpu1 = thread_cpu_s();
    sink_ = acc;
    return {(t1 - t0) * 1e3, (cpu1 - cpu0) * 1e3};
  }

 private:
  static constexpr std::size_t kTableSize = std::size_t{1} << 15;  // 256 KiB
  static constexpr std::size_t kHeapSize = 4096;                   // 32 KiB
  static constexpr int kOps = 8000;

  std::vector<std::uint64_t> table_;
  std::vector<std::uint64_t> heap_;
  std::uint64_t state_ = 0x243f6a8885a308d3ULL;
  std::uint64_t sink_ = 0;
};

class SprawlingKernel final : public RefKernel {
 public:
  SprawlingKernel() {
    for (std::uint64_t k = 0; k < kSessions; ++k) {
      char tag[24];
      std::snprintf(tag, sizeof(tag), "s%llu",
                    static_cast<unsigned long long>(k));
      sessions_[key(k)].tag = tag;
    }
    for (std::size_t i = 0; i < kPending; ++i) schedule();
  }

  double nominal_ms() const override { return 0.7; }

  RefSample sample() override {
    std::uint64_t acc = sink_;
    for (const auto& entry : sessions_) acc += entry.second.frames;
    for (const Event& ev : heap_) acc += ev.at;
    sink_ = acc;

    const double cpu0 = thread_cpu_s();
    const double t0 = wall_s();
    for (int i = 0; i < kEvents; ++i) {
      // One event fires and schedules its successor: the heap stays at
      // kPending entries and every sample does the same work.
      std::pop_heap(heap_.begin(), heap_.end());
      const Event ev = heap_.back();
      heap_.pop_back();
      now_ = ev.at;
      slots_[ev.slot]();
      schedule();
    }
    const double t1 = wall_s();
    const double cpu1 = thread_cpu_s();
    return {(t1 - t0) * 1e3, (cpu1 - cpu0) * 1e3};
  }

 private:
  struct Event {
    std::uint64_t at;
    std::uint64_t seq;
    std::uint32_t slot;
    bool operator<(const Event& other) const {
      return at != other.at ? at > other.at : seq > other.seq;
    }
  };
  struct Session {
    std::uint64_t frames = 0;
    std::uint64_t bytes = 0;
    std::string tag;
  };
  static constexpr std::uint64_t kSessions = 8192;
  static constexpr std::size_t kPending = 2048;
  static constexpr std::size_t kSlots = 4096;
  static constexpr int kEvents = 2500;

  static std::uint64_t key(std::uint64_t k) { return k * 2654435761ULL; }

  void schedule() {
    const std::uint64_t x = xorshift(state_);
    const std::uint64_t session = key((x >> 20) % kSessions);
    const auto slot = static_cast<std::uint32_t>(seq_ % kSlots);
    if (slots_.size() < kSlots) slots_.emplace_back();
    slots_[slot] = [this, session] {
      Session& s = sessions_[session];
      ++s.frames;
      s.bytes += s.tag.size() + (state_ & 1023);
      if ((state_ & 63) == 0) s.tag = std::to_string(state_ & 0xffff);
      sink_ += s.bytes;
    };
    heap_.push_back({now_ + x % 1000, seq_++, slot});
    std::push_heap(heap_.begin(), heap_.end());
  }

  std::vector<Event> heap_;
  std::vector<std::function<void()>> slots_;
  std::unordered_map<std::uint64_t, Session> sessions_;
  std::uint64_t now_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t state_ = 88172645463325252ULL;
  std::uint64_t sink_ = 0;
};

}  // namespace

std::unique_ptr<RefKernel> make_compact_kernel() {
  return std::make_unique<CompactKernel>();
}

std::unique_ptr<RefKernel> make_sprawling_kernel() {
  return std::make_unique<SprawlingKernel>();
}

// --- meter -------------------------------------------------------------------

Meter::Meter() {
  kernels_[index(RefKind::kCompact)].kernel = make_compact_kernel();
  kernels_[index(RefKind::kSprawling)].kernel = make_sprawling_kernel();
  for (Kernel& k : kernels_) {
    for (int i = 0; i < 3; ++i) k.kernel->sample();  // warm-up
  }
}

void Meter::sample() {
  for (Kernel& k : kernels_) {
    const RefSample s = k.kernel->sample();
    const RefSample before = k.samples.empty() ? s : k.last;
    const double nominal = k.kernel->nominal_ms();
    k.factor = nominal / (0.5 * (before.wall_ms + s.wall_ms));
    k.cpu_factor = nominal / (0.5 * (before.cpu_ms + s.cpu_ms));
    k.samples.push_back(s.wall_ms);
    k.last = s;
  }
  for (const Pending& p : pending_) {
    const Kernel& k = kernels_[index(p.acc->ref)];
    p.acc->raw_s += p.wall_s;
    p.acc->scaled_s += p.wall_s * k.factor;
    p.acc->cpu_raw_s += p.cpu_s;
    p.acc->cpu_scaled_s += p.cpu_s * k.cpu_factor;
  }
  pending_.clear();
  pending_wall_ = 0.0;
}

// --- tracer ------------------------------------------------------------------

namespace {
double origin_s() {
  static const double origin = wall_s();
  return origin;
}
}  // namespace

std::uint64_t Tracer::begin(const char* name, const char* cat) {
  const std::uint64_t id = next_id_++;
  stack_.push_back({id, name, cat, wall_s()});
  return id;
}

void Tracer::end(std::uint64_t id, std::string args) {
  if (stack_.empty() || stack_.back().id != id) return;
  const Open open = stack_.back();
  stack_.pop_back();
  const std::uint64_t parent = stack_.empty() ? 0 : stack_.back().id;
  record(open.name, open.cat, open.start_s, wall_s(), id, parent, args);
}

void Tracer::complete(const char* name, const char* cat, double start_s,
                      double end_s, std::string args) {
  const std::uint64_t parent = stack_.empty() ? 0 : stack_.back().id;
  record(name, cat, start_s, end_s, next_id_++, parent, args);
}

void Tracer::record(const char* name, const char* cat, double start_s,
                    double end_s, std::uint64_t id, std::uint64_t parent,
                    const std::string& args) {
  durations_[name].push_back(end_s - start_s);
  if (!keep_spans) return;
  char head[320];
  std::snprintf(head, sizeof(head),
                "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"span\":%llu,"
                "\"parent\":%llu,\"trace\":%llu",
                name, cat, (start_s - origin_s()) * 1e6,
                (end_s - start_s) * 1e6, static_cast<unsigned long long>(id),
                static_cast<unsigned long long>(parent),
                static_cast<unsigned long long>(trace_id));
  std::string event = head;
  if (!args.empty()) event += "," + args;
  event += "}}";
  events_.push_back(std::move(event));
}

void Tracer::counter(
    const char* name,
    const std::vector<std::pair<const char*, double>>& values) {
  if (!keep_spans) return;
  char head[160];
  std::snprintf(head, sizeof(head),
                "{\"name\":\"%s\",\"ph\":\"C\",\"pid\":1,\"ts\":%.3f,"
                "\"args\":{",
                name, (wall_s() - origin_s()) * 1e6);
  std::string event = head;
  for (std::size_t i = 0; i < values.size(); ++i) {
    event += std::string(i ? "," : "") + "\"" + values[i].first +
             "\":" + num(values[i].second);
  }
  event += "}}";
  events_.push_back(std::move(event));
}

std::vector<double> Tracer::durations(const std::string& name) const {
  const auto it = durations_.find(name);
  return it == durations_.end() ? std::vector<double>{} : it->second;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out.good()) return false;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  for (std::size_t i = 0; i < events_.size(); ++i) {
    out << events_[i] << (i + 1 < events_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  return out.good();
}

std::string num(double v) {
  if (!std::isfinite(v)) return "0";
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  return buffer;
}

}  // namespace perfbench
