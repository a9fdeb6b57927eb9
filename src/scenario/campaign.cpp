#include "scenario/campaign.h"

#include <algorithm>
#include <cmath>

#include "adl/ir.h"

namespace aars::scenario {

using util::Error;
using util::ErrorCode;
using util::Result;

namespace {

constexpr double kEps = 1e-9;

double to_sec(util::Duration d) {
  return static_cast<double>(d) / static_cast<double>(util::kSecond);
}

SimTime to_us(double sec) {
  return static_cast<SimTime>(std::llround(sec * 1e6));
}

// The diurnal double-peak waveform w(t/period) in [0, 1]: morning rush at
// 2/5 of the period, a smaller evening peak near 4/5 — the same shape as
// sim::rush_hour_trace, normalized.
struct WavePoint {
  double x;  // fraction of period
  double w;  // population weight in [0, 1]
};
constexpr WavePoint kWave[] = {
    {0.00, 0.00}, {0.25, 0.20}, {0.40, 1.00}, {0.55, 0.35},
    {0.80, 0.70}, {0.90, 0.15}, {1.00, 0.00},
};
constexpr std::size_t kWaveCount = sizeof(kWave) / sizeof(kWave[0]);

}  // namespace

Campaign::Campaign(CampaignSpec spec, std::uint64_t seed)
    : spec_(std::move(spec)), seed_(seed) {
  build_profile();
  build_evacuations();
  for (const LoadPhase& phase : spec_.loads) {
    if (phase.kind == LoadKind::kHandover) handover_dwell_ = phase.dwell;
  }
}

void Campaign::build_profile() {
  const double horizon = to_sec(spec_.duration);

  // 1. Per-phase linear rate segments, clipped to [0, horizon].
  auto add_segment = [&](std::uint32_t phase, double t0, double t1, double r0,
                         double r1) {
    t0 = std::max(0.0, t0);
    if (t1 > horizon) {
      // Clip, interpolating the rate at the cut.
      if (t1 - t0 > kEps) {
        r1 = r0 + (r1 - r0) * (horizon - t0) / (t1 - t0);
      }
      t1 = horizon;
    }
    if (t1 - t0 <= kEps) return;
    if (r0 < 0) r0 = 0;
    if (r1 < 0) r1 = 0;
    if (r0 <= 0 && r1 <= 0) return;
    segments_.push_back(Segment{t0, t1, r0, r1, phase});
  };

  for (std::uint32_t k = 0; k < spec_.loads.size(); ++k) {
    const LoadPhase& phase = spec_.loads[k];
    const double session =
        std::max(kEps, to_sec(phase.session > 0 ? phase.session
                                                : spec_.mean_session));
    switch (phase.kind) {
      case LoadKind::kBaseline: {
        // Fill the target population over `ramp`, then replenish departures
        // (steady state of an M/G/inf population: arrivals = N / mean stay).
        const double ramp = std::max(kEps, to_sec(phase.ramp));
        add_segment(k, 0, ramp, phase.users / ramp, phase.users / ramp);
        add_segment(k, ramp, horizon, phase.users / session,
                    phase.users / session);
        break;
      }
      case LoadKind::kFlashCrowd: {
        const double at = to_sec(phase.at);
        const double ramp = std::max(kEps, to_sec(phase.ramp));
        add_segment(k, at, at + ramp, phase.users / ramp, phase.users / ramp);
        break;
      }
      case LoadKind::kDiurnal: {
        // Population target p(t) = base + (peak-base)·w(t); the arrival
        // rate that tracks it is λ(t) = max(0, p'(t) + p(t)/session).
        const double period = std::max(kEps, to_sec(phase.period));
        for (double start = 0; start < horizon; start += period) {
          for (std::size_t i = 0; i + 1 < kWaveCount; ++i) {
            const double t0 = start + kWave[i].x * period;
            const double t1 = start + kWave[i + 1].x * period;
            const double p0 =
                phase.base + (phase.peak - phase.base) * kWave[i].w;
            const double p1 =
                phase.base + (phase.peak - phase.base) * kWave[i + 1].w;
            const double dp = (p1 - p0) / std::max(kEps, t1 - t0);
            add_segment(k, t0, t1, dp + p0 / session, dp + p1 / session);
          }
        }
        break;
      }
      case LoadKind::kFailover:
      case LoadKind::kCascade:
      case LoadKind::kHandover:
        break;  // no arrival contribution
    }
  }

  // 2. Merge into one profile with one-sided limits at every breakpoint.
  std::vector<double> times{0.0, horizon};
  for (const Segment& seg : segments_) {
    times.push_back(seg.t0);
    times.push_back(seg.t1);
  }
  std::sort(times.begin(), times.end());
  times.erase(std::unique(times.begin(), times.end(),
                          [](double a, double b) { return b - a < kEps; }),
              times.end());

  auto seg_rate = [](const Segment& seg, double t) {
    if (seg.t1 - seg.t0 <= kEps) return seg.r0;
    return seg.r0 + (seg.r1 - seg.r0) * (t - seg.t0) / (seg.t1 - seg.t0);
  };
  profile_.clear();
  for (double t : times) {
    if (t < 0 || t > horizon + kEps) continue;
    Breakpoint bp;
    bp.t = t;
    for (const Segment& seg : segments_) {
      if (seg.t0 < t - kEps && t <= seg.t1 + kEps) {
        bp.left += seg_rate(seg, std::min(t, seg.t1));
      }
      if (seg.t0 <= t + kEps && t < seg.t1 - kEps) {
        bp.right += seg_rate(seg, std::max(t, seg.t0));
      }
    }
    profile_.push_back(bp);
  }

  // 3. Cumulative expected arrivals (trapezoid per interval: the rate is
  // linear from right-limit at k to left-limit at k+1).
  for (std::size_t k = 1; k < profile_.size(); ++k) {
    const double dt = profile_[k].t - profile_[k - 1].t;
    profile_[k].cum = profile_[k - 1].cum +
                      0.5 * (profile_[k - 1].right + profile_[k].left) * dt;
  }
  total_users_ = profile_.empty()
                     ? 0
                     : static_cast<std::uint64_t>(
                           std::floor(profile_.back().cum));
}

void Campaign::build_evacuations() {
  const std::uint32_t cells = std::max<std::uint32_t>(1, spec_.cells);
  for (const LoadPhase& phase : spec_.loads) {
    if (phase.kind == LoadKind::kFailover) {
      evacuations_.push_back(Evacuation{phase.cell % cells, phase.at,
                                        phase.at + phase.down_for});
    } else if (phase.kind == LoadKind::kCascade) {
      for (std::uint32_t j = 0; j < phase.depth; ++j) {
        const SimTime at = phase.at + static_cast<SimTime>(j) * phase.gap;
        evacuations_.push_back(
            Evacuation{(phase.cell + j) % cells, at, at + phase.down_for});
      }
    }
  }
  std::sort(evacuations_.begin(), evacuations_.end(),
            [](const Evacuation& a, const Evacuation& b) {
              return a.at != b.at ? a.at < b.at : a.cell < b.cell;
            });
}

double Campaign::phase_rate_at(std::uint32_t phase, double t) const {
  double rate = 0;
  for (const Segment& seg : segments_) {
    if (seg.phase != phase) continue;
    if (seg.t0 <= t + kEps && t < seg.t1 - kEps) {
      rate += seg.r0 + (seg.r1 - seg.r0) * (t - seg.t0) / (seg.t1 - seg.t0);
    }
  }
  return rate;
}

double Campaign::rate_at(SimTime t) const {
  const double sec = to_sec(t);
  double total = 0;
  for (std::uint32_t k = 0; k < spec_.loads.size(); ++k) {
    total += phase_rate_at(k, sec);
  }
  return total;
}

double Campaign::inverse(double x) const {
  if (profile_.size() < 2) return 0;
  if (x <= 0) return profile_.front().t;
  if (x >= profile_.back().cum) return profile_.back().t;
  // Binary search for the segment whose cumulative range contains x.
  std::size_t lo = 0, hi = profile_.size() - 1;
  while (lo + 1 < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (profile_[mid].cum <= x) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  const double dt = profile_[hi].t - profile_[lo].t;
  const double need = x - profile_[lo].cum;
  const double r0 = profile_[lo].right;
  const double r1 = profile_[hi].left;
  if (dt <= kEps) return profile_[lo].t;
  const double slope = (r1 - r0) / dt;
  double s;
  if (std::fabs(slope) < kEps) {
    s = r0 > kEps ? need / r0 : dt;
  } else {
    // Solve r0·s + slope·s²/2 = need for the root in [0, dt].
    const double disc = r0 * r0 + 2.0 * slope * need;
    s = disc > 0 ? (-r0 + std::sqrt(disc)) / slope : dt;
  }
  s = std::min(std::max(s, 0.0), dt);
  return profile_[lo].t + s;
}

UserLife Campaign::user(std::uint64_t index) const {
  UserRng rng(seed_, index);
  UserLife life;
  const double t = inverse(static_cast<double>(index) + rng.uniform());
  life.arrival = std::min(to_us(t), spec_.duration);

  // Attribute the user to an arrival phase, proportionally to each phase's
  // rate contribution at the arrival instant — pure function of (seed, i).
  double total = 0;
  for (std::uint32_t k = 0; k < spec_.loads.size(); ++k) {
    total += phase_rate_at(k, t);
  }
  Duration mean = spec_.mean_session;
  if (total > kEps) {
    double pick = rng.uniform() * total;
    for (std::uint32_t k = 0; k < spec_.loads.size(); ++k) {
      const double rate = phase_rate_at(k, t);
      if (rate <= 0) continue;
      pick -= rate;
      if (pick <= 0) {
        if (spec_.loads[k].session > 0) mean = spec_.loads[k].session;
        break;
      }
    }
  } else {
    rng.next();  // keep the draw count fixed regardless of profile shape
  }
  const double session_sec = rng.exponential(std::max(kEps, to_sec(mean)));
  life.session = std::max<Duration>(util::kMillisecond, to_us(session_sec));

  // Tier by normalized weights.
  double weight_sum = 0;
  for (double w : spec_.tier_weights) weight_sum += std::max(0.0, w);
  if (weight_sum <= 0) {
    life.tier = Tier::kBestEffort;
    rng.next();
  } else {
    double pick = rng.uniform() * weight_sum;
    life.tier = Tier::kBestEffort;
    for (std::size_t k = 0; k < kTierCount; ++k) {
      pick -= std::max(0.0, spec_.tier_weights[k]);
      if (pick <= 0) {
        life.tier = static_cast<Tier>(k);
        break;
      }
    }
  }

  life.cell = static_cast<std::uint32_t>(
      rng.below(std::max<std::uint32_t>(1, spec_.cells)));
  return life;
}

bool Campaign::evacuated(std::uint32_t cell, SimTime t) const {
  for (const Evacuation& evac : evacuations_) {
    if (evac.cell == cell && evac.at <= t && t < evac.until) return true;
  }
  return false;
}

std::vector<sim::TraceArrivals::Point> Campaign::trace_points() const {
  std::vector<sim::TraceArrivals::Point> points;
  points.reserve(profile_.size() * 2);
  for (const Breakpoint& bp : profile_) {
    const SimTime at = to_us(bp.t);
    if (std::fabs(bp.left - bp.right) > kEps && at > 0) {
      // Keep step discontinuities sharp: land the left limit 1us earlier.
      points.push_back({at - 1, bp.left});
    }
    points.push_back({at, bp.right});
  }
  return points;
}

std::unique_ptr<sim::ArrivalProcess> Campaign::arrivals() const {
  return std::make_unique<sim::TraceArrivals>(trace_points());
}

std::vector<Campaign::Event> Campaign::timeline(std::uint64_t max_users) const {
  const std::uint64_t n = std::min(max_users, total_users_);
  std::vector<Event> events;
  events.reserve(2 * n + 2 * evacuations_.size());
  for (std::uint64_t i = 0; i < n; ++i) {
    const UserLife life = user(i);
    events.push_back(
        Event{life.arrival, Event::kArrive, i, life.cell, life.tier});
    events.push_back(Event{std::min(life.arrival + life.session,
                                    spec_.duration),
                           Event::kDepart, i, life.cell, life.tier});
  }
  for (const Evacuation& evac : evacuations_) {
    events.push_back(Event{evac.at, Event::kEvacuate, 0, evac.cell,
                           Tier::kBestEffort});
    events.push_back(Event{evac.until, Event::kRestore, 0, evac.cell,
                           Tier::kBestEffort});
  }
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.at != b.at) return a.at < b.at;
    if (a.kind != b.kind) return a.kind < b.kind;
    if (a.user != b.user) return a.user < b.user;
    return a.cell < b.cell;
  });
  return events;
}

std::uint64_t Campaign::timeline_digest(std::uint64_t max_users) const {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const Event& ev : timeline(max_users)) {
    h = mix64(h ^ static_cast<std::uint64_t>(ev.at));
    h = mix64(h ^ static_cast<std::uint64_t>(ev.kind));
    h = mix64(h ^ ev.user);
    h = mix64(h ^ ev.cell);
    h = mix64(h ^ static_cast<std::uint64_t>(ev.tier));
  }
  return h;
}

Result<Campaign> Campaign::from_compiled(const adl::CompiledScenario& scenario,
                                         std::uint64_t seed) {
  CampaignSpec spec;
  spec.name = scenario.name.str();
  if (scenario.duration_us > 0) spec.duration = scenario.duration_us;
  for (const util::Symbol& goal : scenario.goals) {
    spec.goals.push_back(goal.str());
  }
  for (const std::string& line : scenario.loads) {
    auto phase = LoadPhase::parse(line);
    if (!phase.ok()) {
      return Error{ErrorCode::kInvalidArgument,
                   "scenario '" + spec.name + "': " + phase.error().message()};
    }
    spec.loads.push_back(phase.value());
  }
  if (!scenario.faults.empty()) {
    std::string text;
    for (const std::string& line : scenario.faults) {
      text += line;
      text += '\n';
    }
    auto parsed = fault::FaultScenario::parse(text);
    if (!parsed.ok()) {
      return Error{ErrorCode::kInvalidArgument,
                   "scenario '" + spec.name +
                       "': " + parsed.error().message()};
    }
    spec.faults = parsed.value();
    spec.faults.set_name(spec.name);
  }
  return Campaign(std::move(spec), seed);
}

}  // namespace aars::scenario
