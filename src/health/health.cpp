#include "health/health.hpp"

#include <sstream>

#include "core/timestamper.hpp"
#include "membuf/mempool.hpp"
#include "rpc/open_loop.hpp"
#include "telemetry/rtt_plane.hpp"
#include "sim/event_queue.hpp"
#include "telemetry/registry.hpp"
#include "testbed/testbed.hpp"
#include "wire/link.hpp"

namespace moongen::health {

void CheckerRegistry::add(std::string name, CheckFn fn) {
  names_.push_back(std::move(name));
  checkers_.push_back(std::move(fn));
}

std::vector<Violation> CheckerRegistry::run_all(sim::SimTime now_ps) {
  std::vector<Violation> fresh;
  for (std::size_t i = 0; i < checkers_.size(); ++i) {
    ++checks_run_;
    CheckResult r = checkers_[i](now_ps);
    if (r.ok) continue;
    fresh.push_back(Violation{names_[i], std::move(r.detail), now_ps});
  }
  for (const auto& v : fresh) violations_.push_back(v);
  return fresh;
}

void CheckerRegistry::bind_telemetry(telemetry::MetricRegistry& registry,
                                     const std::string& prefix) {
  telemetry_.open(registry);
  telemetry_.counter(prefix + ".checks_run", [this] { return checks_run_; });
  telemetry_.counter(prefix + ".violations",
                     [this] { return static_cast<std::uint64_t>(violations_.size()); });
  telemetry_.gauge(prefix + ".checkers",
                   [this] { return static_cast<double>(checkers_.size()); });
}

// --- factories --------------------------------------------------------------

CheckFn make_engine_checker(sim::EventQueue& engine, std::string label) {
  // last_now lives in the closure: monotonicity is checked between
  // successive evaluations, not against an absolute epoch.
  return [&engine, label = std::move(label),
          last_now = sim::SimTime{0}](sim::SimTime) mutable -> CheckResult {
    const sim::SimTime now = engine.now();
    if (now < last_now) {
      std::ostringstream os;
      os << "engine " << label << ": virtual time moved backwards (" << last_now << " -> "
         << now << " ps)";
      return CheckResult::fail(os.str());
    }
    last_now = now;
    if (std::string msg = engine.audit(); !msg.empty())
      return CheckResult::fail("engine " + label + ": " + msg);
    return CheckResult::pass();
  };
}

CheckFn make_link_checker(testbed::Testbed& tb) {
  return [&tb](sim::SimTime) -> CheckResult {
    for (std::size_t i = 0; i < tb.link_count(); ++i) {
      const wire::Link& l = tb.link_at(i);
      const auto [from, to] = tb.link_ends(i);
      const std::uint64_t in = l.frames_carried() + l.duplicated();
      const std::uint64_t out = l.flap_drops() + l.fault_drops() + l.delivered();
      std::ostringstream os;
      if (in != out) {
        os << "link " << from << "->" << to << ": frame conservation broken: carried "
           << l.frames_carried() << " + dup " << l.duplicated() << " != flap_drops "
           << l.flap_drops() << " + fault_drops " << l.fault_drops() << " + delivered "
           << l.delivered();
        return CheckResult::fail(os.str());
      }
      // Effect counters vs the fault plane's own fire books — exact equality.
      struct Pair {
        const char* what;
        std::uint64_t effect;
        std::uint64_t fires;
      };
      const Pair pairs[] = {
          {"loss", l.fault_drops(), l.loss_fault_fires()},
          {"corrupt", l.corrupted(), l.corrupt_fault_fires()},
          {"reorder", l.reordered(), l.reorder_fault_fires()},
          {"dup", l.duplicated(), l.dup_fault_fires()},
          {"flap", l.flaps(), l.flap_fault_fires()},
      };
      for (const auto& p : pairs) {
        if (p.effect == p.fires) continue;
        os << "link " << from << "->" << to << ": " << p.what << " effect count " << p.effect
           << " disagrees with fault-plane fires " << p.fires;
        return CheckResult::fail(os.str());
      }
    }
    return CheckResult::pass();
  };
}

CheckFn make_port_checker(testbed::Testbed& tb) {
  return [&tb](sim::SimTime) -> CheckResult {
    for (const int id : tb.device_ids()) {
      std::uint64_t delivered_in = 0;
      bool has_inbound = false;
      for (std::size_t i = 0; i < tb.link_count(); ++i) {
        if (tb.link_ends(i).second != id) continue;
        has_inbound = true;
        delivered_in += tb.link_at(i).delivered();
      }
      if (!has_inbound) continue;
      const auto& st = tb.port(id).stats();
      const std::uint64_t accounted = st.crc_errors + st.rx_packets;
      std::ostringstream os;
      if (accounted > delivered_in) {
        os << "port " << id << ": accounted " << accounted << " frames (crc " << st.crc_errors
           << " + rx " << st.rx_packets << ") exceeds " << delivered_in
           << " delivered by inbound links (double count)";
        return CheckResult::fail(os.str());
      }
      if (st.rx_ring_drops > st.rx_packets) {
        os << "port " << id << ": rx_ring_drops " << st.rx_ring_drops << " exceeds rx_packets "
           << st.rx_packets;
        return CheckResult::fail(os.str());
      }
    }
    return CheckResult::pass();
  };
}

CheckFn make_vswitch_checker(testbed::Testbed& tb) {
  return [&tb](sim::SimTime) -> CheckResult {
    for (std::size_t vi = 0; vi < tb.vswitch_count(); ++vi) {
      const auto& vs = tb.vswitch(vi);
      std::ostringstream os;
      const std::uint64_t settled = vs.matched() + vs.flooded() + vs.shaped_drops() +
                                    vs.queue_drops() + vs.fault_drops();
      if (settled != vs.received()) {
        os << "vswitch " << vi << ": ingress conservation broken: received " << vs.received()
           << " != matched " << vs.matched() << " + flooded " << vs.flooded()
           << " + shaped_drops " << vs.shaped_drops() << " + queue_drops " << vs.queue_drops()
           << " + fault_drops " << vs.fault_drops();
        return CheckResult::fail(os.str());
      }
      const std::uint64_t admitted = vs.matched() + vs.flooded();
      const std::uint64_t out = vs.emitted() + vs.egress_ring_drops() + vs.queued();
      if (admitted != out) {
        os << "vswitch " << vi << ": egress conservation broken: matched+flooded " << admitted
           << " != emitted " << vs.emitted() << " + egress_ring_drops " << vs.egress_ring_drops()
           << " + queued " << vs.queued();
        return CheckResult::fail(os.str());
      }
      // Per-tenant books (incl. the built-in flood queue) must sum to the
      // switch-wide totals — a mismatch means a frame was booked to the
      // wrong tenant or to none — and each must close its own egress
      // identity: every admitted frame left, died at a full TX ring, or
      // still waits.
      std::uint64_t t_matched = 0, t_shaped = 0, t_queue_drops = 0, t_queued = 0;
      std::uint64_t t_emitted = 0, t_egress_drops = 0;
      for (std::size_t k = 0; k <= vs.tenant_count(); ++k) {
        const auto& c = vs.tenant_counters(k);
        if (c.matched != c.emitted + c.egress_ring_drops + c.queued) {
          os << "vswitch " << vi << ": tenant " << k << " egress books broken: matched "
             << c.matched << " != emitted " << c.emitted << " + egress_ring_drops "
             << c.egress_ring_drops << " + queued " << c.queued;
          return CheckResult::fail(os.str());
        }
        t_matched += c.matched;
        t_shaped += c.shaped_drops;
        t_queue_drops += c.queue_drops;
        t_queued += c.queued;
        t_emitted += c.emitted;
        t_egress_drops += c.egress_ring_drops;
      }
      if (t_matched != admitted || t_shaped != vs.shaped_drops() ||
          t_queue_drops != vs.queue_drops() || t_queued != vs.queued() ||
          t_emitted != vs.emitted() || t_egress_drops != vs.egress_ring_drops()) {
        os << "vswitch " << vi << ": per-tenant books disagree with totals: sum matched "
           << t_matched << " vs " << admitted << ", shaped " << t_shaped << " vs "
           << vs.shaped_drops() << ", queue_drops " << t_queue_drops << " vs "
           << vs.queue_drops() << ", queued " << t_queued << " vs " << vs.queued()
           << ", emitted " << t_emitted << " vs " << vs.emitted() << ", egress_ring_drops "
           << t_egress_drops << " vs " << vs.egress_ring_drops();
        return CheckResult::fail(os.str());
      }
    }
    return CheckResult::pass();
  };
}

CheckFn make_rpc_checker(const rpc::detail::ClientBase& client) {
  return [&client](sim::SimTime) -> CheckResult {
    const std::uint64_t settled = client.matched() + client.timed_out() + client.send_drops();
    const std::uint64_t accounted = settled + client.inflight();
    if (accounted == client.issued()) return CheckResult::pass();
    std::ostringstream os;
    os << "rpc client: issued " << client.issued() << " != matched " << client.matched()
       << " + timed_out " << client.timed_out() << " + send_drops " << client.send_drops()
       << " + inflight " << client.inflight();
    return CheckResult::fail(os.str());
  };
}

CheckFn make_mempool_checker(const membuf::Mempool& pool, std::function<std::size_t()> held_fn) {
  return [&pool, held_fn = std::move(held_fn)](sim::SimTime) -> CheckResult {
    if (std::string msg = pool.audit(); !msg.empty())
      return CheckResult::fail("mempool: " + msg);
    if (held_fn) {
      const std::size_t held = held_fn();
      if (pool.available() + held != pool.capacity()) {
        std::ostringstream os;
        os << "mempool: conservation broken: available " << pool.available() << " + held "
           << held << " != capacity " << pool.capacity()
           << (pool.available() + held < pool.capacity() ? " (leak)" : " (double free)");
        return CheckResult::fail(os.str());
      }
    }
    return CheckResult::pass();
  };
}

CheckFn make_rtt_checker(const telemetry::RttPlane& plane) {
  return [&plane](sim::SimTime) -> CheckResult {
    const std::int64_t in_flight = plane.in_flight();
    if (in_flight < 0) {
      std::ostringstream os;
      os << "rtt plane: in_flight " << in_flight << " < 0: births (tx_stamped "
         << plane.tx_stamped() << " + tx_forwarded " << plane.tx_forwarded()
         << " + duplicated " << plane.duplicated() << ") < deaths (rx_seen "
         << plane.rx_seen() << " + dropped " << plane.dropped() << ")";
      return CheckResult::fail(os.str());
    }
    if (plane.cumulative().total() != plane.recorded()) {
      std::ostringstream os;
      os << "rtt plane: cumulative histogram population " << plane.cumulative().total()
         << " != recorded " << plane.recorded();
      return CheckResult::fail(os.str());
    }
    if (plane.recorded() > plane.rx_seen()) {
      std::ostringstream os;
      os << "rtt plane: recorded " << plane.recorded() << " exceeds rx_seen "
         << plane.rx_seen() << " (a sample was recorded outside an accepted RX)";
      return CheckResult::fail(os.str());
    }
    return CheckResult::pass();
  };
}

CheckFn make_timestamper_checker(const core::Timestamper& ts) {
  return [&ts](sim::SimTime) -> CheckResult {
    const std::uint64_t in_flight = ts.sample_in_flight() ? 1 : 0;
    if (ts.attempts() == ts.samples() + ts.lost() + ts.discarded() + in_flight)
      return CheckResult::pass();
    std::ostringstream os;
    os << "timestamper: attempts " << ts.attempts() << " != samples " << ts.samples()
       << " + lost " << ts.lost() << " + discarded " << ts.discarded() << " + in_flight "
       << in_flight << " (an attempt resolved without being counted)";
    return CheckResult::fail(os.str());
  };
}

}  // namespace moongen::health
