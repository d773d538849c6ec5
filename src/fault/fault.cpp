#include "fault/fault.hpp"

#include <cstdlib>
#include <stdexcept>

#include "sim/event_queue.hpp"
#include "sim/ptp_clock.hpp"
#include "telemetry/registry.hpp"

namespace moongen::fault {

namespace {

struct KindName {
  FaultKind kind;
  const char* name;
};

constexpr KindName kKindNames[] = {
    {FaultKind::kFrameLoss, "loss"},
    {FaultKind::kFrameCorrupt, "corrupt"},
    {FaultKind::kFrameReorder, "reorder"},
    {FaultKind::kFrameDuplicate, "dup"},
    {FaultKind::kLinkFlap, "flap"},
    {FaultKind::kRxOverflow, "rx_overflow"},
    {FaultKind::kAllocFail, "alloc_fail"},
    {FaultKind::kStall, "stall"},
    {FaultKind::kClockStep, "clock_step"},
    {FaultKind::kClockDrift, "clock_drift"},
};

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

double parse_double(std::string_view v, std::string_view what) {
  // std::from_chars<double> is not universally available; strtod needs a
  // terminated buffer.
  const std::string s(v);
  char* end = nullptr;
  const double d = std::strtod(s.c_str(), &end);
  if (end != s.c_str() + s.size() || s.empty())
    throw std::invalid_argument("FaultSpec: bad number for " + std::string(what) + ": " + s);
  return d;
}

}  // namespace

const char* to_string(FaultKind kind) {
  for (const auto& [k, name] : kKindNames)
    if (k == kind) return name;
  return "?";
}

std::optional<FaultKind> kind_from_string(std::string_view name) {
  for (const auto& [k, n] : kKindNames)
    if (name == n) return k;
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// FaultSpec::parse
// ---------------------------------------------------------------------------

FaultSpec FaultSpec::parse(std::string_view text) {
  FaultSpec spec;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t semi = text.find(';', pos);
    std::string_view item =
        text.substr(pos, semi == std::string_view::npos ? std::string_view::npos : semi - pos);
    pos = semi == std::string_view::npos ? text.size() + 1 : semi + 1;
    if (item.empty()) continue;

    if (item.substr(0, 5) == "seed=") {
      spec.seed = static_cast<std::uint64_t>(parse_double(item.substr(5), "seed"));
      continue;
    }

    const std::size_t colon = item.find(':');
    if (colon == std::string_view::npos)
      throw std::invalid_argument("FaultSpec: rule without ':': " + std::string(item));
    std::string_view head = item.substr(0, colon);
    FaultRule rule;
    const std::size_t at = head.find('@');
    if (at != std::string_view::npos) {
      rule.site = std::string(head.substr(at + 1));
      head = head.substr(0, at);
    }
    const auto kind = kind_from_string(head);
    if (!kind.has_value())
      throw std::invalid_argument("FaultSpec: unknown fault kind: " + std::string(head));
    rule.kind = *kind;

    std::string_view body = item.substr(colon + 1);
    std::size_t kpos = 0;
    while (kpos <= body.size()) {
      const std::size_t comma = body.find(',', kpos);
      std::string_view kv = body.substr(
          kpos, comma == std::string_view::npos ? std::string_view::npos : comma - kpos);
      kpos = comma == std::string_view::npos ? body.size() + 1 : comma + 1;
      if (kv.empty()) continue;
      const std::size_t eq = kv.find('=');
      if (eq == std::string_view::npos)
        throw std::invalid_argument("FaultSpec: key without '=': " + std::string(kv));
      const std::string_view key = kv.substr(0, eq);
      const std::string_view val = kv.substr(eq + 1);
      if (key == "p") {
        rule.probability = parse_double(val, key);
      } else if (key == "burst") {
        rule.burst = static_cast<std::uint32_t>(parse_double(val, key));
        if (rule.burst == 0) rule.burst = 1;
      } else if (key == "from") {
        rule.window_start_ps = static_cast<sim::SimTime>(parse_double(val, key));
      } else if (key == "to") {
        rule.window_end_ps = static_cast<sim::SimTime>(parse_double(val, key));
      } else if (key == "param") {
        rule.param = parse_double(val, key);
      } else {
        throw std::invalid_argument("FaultSpec: unknown key: " + std::string(key));
      }
    }
    spec.rules.push_back(std::move(rule));
  }
  return spec;
}

// ---------------------------------------------------------------------------
// FaultSite
// ---------------------------------------------------------------------------

namespace detail {

void FaultSite::record_fire() {
  ++fires;
  if (plane != nullptr && plane->fire_hook_) plane->fire_hook_(name, kind, plane->now_ps());
}

const FaultRule* FaultSite::probe(sim::SimTime now_ps) {
  ++probes;
  // A running burst fires unconditionally (even across a window edge: the
  // burst models a correlated error event already in progress).
  for (auto& ar : armed) {
    if (ar.burst_left > 0) {
      --ar.burst_left;
      record_fire();
      return &ar.rule;
    }
  }
  for (auto& ar : armed) {
    if (ar.rule.probability <= 0.0) continue;
    if (now_ps < ar.rule.window_start_ps || now_ps >= ar.rule.window_end_ps) continue;
    // One draw per live rule per probe: the site's stream is a pure
    // function of (spec seed, site name, probe index) — reproducible and
    // independent of other sites.
    const double u =
        static_cast<double>(rng() >> 11) * 0x1.0p-53;  // uniform [0,1), 53-bit
    if (u < ar.rule.probability) {
      ar.burst_left = ar.rule.burst - 1;
      record_fire();
      return &ar.rule;
    }
  }
  return nullptr;
}

}  // namespace detail

// ---------------------------------------------------------------------------
// FaultPlane
// ---------------------------------------------------------------------------

FaultPlane::FaultPlane(FaultSpec spec, sim::EventQueue* events)
    : spec_(std::move(spec)), events_(events) {}

sim::SimTime FaultPlane::now_ps() const { return events_ != nullptr ? events_->now() : 0; }

detail::FaultSite* FaultPlane::make_site(FaultKind kind, const std::string& site) {
  auto& s = sites_.emplace_back();
  s.plane = this;
  s.name = site;
  s.kind = kind;
  s.rng.seed(splitmix64(spec_.seed ^ fnv1a(site) ^
                        (static_cast<std::uint64_t>(kind) + 1) * 0x9e3779b97f4a7c15ull));
  if (telemetry_.bound()) bind_site(s);
  return &s;
}

FaultPoint FaultPlane::point(FaultKind kind, const std::string& site) {
  requested_.push_back(RequestedSite{kind, site});
  std::vector<detail::FaultSite::ArmedRule> armed;
  for (const auto& rule : spec_.rules) {
    if (rule.matches(kind, site)) armed.push_back({rule, 0});
  }
  if (armed.empty()) return FaultPoint{};  // disabled: zero per-probe cost
  detail::FaultSite* s = make_site(kind, site);
  s->armed = std::move(armed);
  return FaultPoint{s};
}

void FaultPlane::arm_clock_faults(sim::PtpClock& clock, const std::string& site) {
  if (events_ == nullptr)
    throw std::logic_error("FaultPlane::arm_clock_faults needs an event queue");
  requested_.push_back(RequestedSite{FaultKind::kClockStep, site});
  requested_.push_back(RequestedSite{FaultKind::kClockDrift, site});
  for (const auto& rule : spec_.rules) {
    if (rule.kind != FaultKind::kClockStep && rule.kind != FaultKind::kClockDrift) continue;
    if (!rule.matches(rule.kind, site)) continue;
    detail::FaultSite* s = make_site(rule.kind, site);
    sim::PtpClock* target = &clock;
    if (rule.kind == FaultKind::kClockStep) {
      events_->schedule_at(rule.window_start_ps, [s, target, step = rule.param] {
        target->adjust(static_cast<std::int64_t>(step));
        s->record_fire();
      });
    } else {
      const std::int64_t prev_ppb = clock.config().drift_ppb;
      events_->schedule_at(rule.window_start_ps, [s, target, ppb = rule.param] {
        target->set_drift_ppb(static_cast<std::int64_t>(ppb), s->plane->now_ps());
        s->record_fire();
      });
      if (rule.window_end_ps != FaultRule::kNoEnd) {
        events_->schedule_at(rule.window_end_ps, [s, target, prev_ppb] {
          target->set_drift_ppb(prev_ppb, s->plane->now_ps());
        });
      }
    }
  }
}

void FaultPlane::bind_site(detail::FaultSite& site) {
  telemetry_.counter(prefix_ + "." + to_string(site.kind) + "." + site.name,
                     [&site] { return site.fires; });
}

void FaultPlane::bind_telemetry(telemetry::MetricRegistry& registry, const std::string& prefix) {
  telemetry_.open(registry);
  prefix_ = prefix;
  telemetry_.counter(prefix + ".total", [this] { return total_fires(); });
  for (auto& s : sites_) bind_site(s);
}

std::uint64_t FaultPlane::total_fires() const {
  std::uint64_t n = 0;
  for (const auto& s : sites_) n += s.fires;
  return n;
}

std::vector<const FaultRule*> FaultPlane::unmatched_rules() const {
  std::vector<const FaultRule*> unmatched;
  for (const auto& rule : spec_.rules) {
    bool hit = false;
    for (const auto& req : requested_) {
      if (rule.matches(req.kind, req.name)) {
        hit = true;
        break;
      }
    }
    if (!hit) unmatched.push_back(&rule);
  }
  return unmatched;
}

std::uint64_t FaultPlane::fires_at(std::string_view site) const {
  for (const auto& s : sites_) {
    if (s.name == site) return s.fires;
  }
  return 0;
}

}  // namespace moongen::fault
