#include "dut/vswitch.hpp"

#include <algorithm>
#include <stdexcept>

#include "proto/packet_view.hpp"
#include "stats/samplers.hpp"

namespace moongen::dut {

namespace {

/// RX notification until the service loop starts.
constexpr sim::SimTime kIngressLatencyPs = 500'000;  // 0.5 us
/// Frames the service loop drains per poll.
constexpr std::size_t kPollBudget = 64;

std::uint64_t hash_key(const FiveTupleKey& k) {
  // splitmix64 over the packed tuple; the table is power-of-two sized so
  // only the low bits are used, and splitmix mixes all input bits into
  // them.
  const std::uint64_t packed = ((static_cast<std::uint64_t>(k.src_ip) << 32) | k.dst_ip) ^
                               (static_cast<std::uint64_t>(k.src_port) << 24) ^
                               (static_cast<std::uint64_t>(k.dst_port) << 8) ^ k.protocol;
  return stats::splitmix64(packed);
}

}  // namespace

VSwitch::VSwitch(sim::EventQueue& events, nic::Port& in_port, int in_queue,
                 std::vector<nic::Port*> out_ports, VSwitchConfig config)
    : events_(events),
      in_port_(in_port),
      rx_(in_port.rx_queue(in_queue)),
      cfg_(std::move(config)),
      service_ps_(static_cast<sim::SimTime>(cfg_.cycles_per_packet / cfg_.cpu_hz * 1e12)),
      out_ports_(std::move(out_ports)) {
  if (out_ports_.empty()) throw std::invalid_argument("VSwitch: no egress vports");
  for (const auto* p : out_ports_) {
    if (p == nullptr) throw std::invalid_argument("VSwitch: null egress vport");
  }
  const auto vport_count = static_cast<int>(out_ports_.size());
  if (cfg_.flood_vport < 0 || cfg_.flood_vport >= vport_count)
    throw std::invalid_argument("VSwitch: flood_vport out of range");

  // Five-tuple table: power-of-two slots, kept at most half full so probe
  // chains stay short and insertion never rehashes.
  std::size_t slots = 8;
  while (slots < cfg_.five_tuple_capacity * 2) slots <<= 1;
  flows_.resize(slots);
  flow_mask_ = slots - 1;

  vid_table_.assign(4096, -1);
  tenants_.reserve(cfg_.tenants.size() + 1);
  for (std::size_t i = 0; i < cfg_.tenants.size(); ++i) {
    const TenantConfig& tc = cfg_.tenants[i];
    if (tc.vport < 0 || tc.vport >= vport_count)
      throw std::invalid_argument("VSwitch: tenant vport out of range");
    if (tc.priority >= VSwitchConfig::kPriorityClasses)
      throw std::invalid_argument("VSwitch: tenant priority out of range");
    if (tc.quantum_bytes == 0)
      throw std::invalid_argument("VSwitch: tenant quantum must be positive");
    QueueState q;
    q.cfg = tc;
    q.bucket = TokenBucket(tc.rate_mbit, tc.burst_bytes);
    q.ring.set_capacity(std::max<std::size_t>(1, tc.queue_frames));
    if (tc.vid != 0) {
      auto& slot = vid_table_[tc.vid & 0x0fff];
      if (slot != -1) throw std::invalid_argument("VSwitch: duplicate tenant vid");
      slot = static_cast<std::int32_t>(i);
    }
    tenants_.push_back(std::move(q));
  }

  // The flood queue: table-miss frames fan out here at the lowest priority
  // class, unshaped.
  flood_queue_ = tenants_.size();
  {
    QueueState q;
    q.cfg.vport = cfg_.flood_vport;
    q.cfg.priority = VSwitchConfig::kPriorityClasses - 1;
    q.cfg.quantum_bytes = std::max<std::uint32_t>(1, cfg_.flood_quantum_bytes);
    q.ring.set_capacity(std::max<std::size_t>(1, cfg_.flood_queue_frames));
    tenants_.push_back(std::move(q));
  }

  vports_.resize(out_ports_.size());
  for (std::size_t v = 0; v < out_ports_.size(); ++v) {
    VportState& vp = vports_[v];
    vp.port = out_ports_[v];
    vp.tx = &out_ports_[v]->tx_queue(0);
    vp.members.resize(VSwitchConfig::kPriorityClasses);
    vp.rr.assign(VSwitchConfig::kPriorityClasses, 0);
    vp.backlog.assign(VSwitchConfig::kPriorityClasses, 0);
  }
  for (std::size_t qi = 0; qi < tenants_.size(); ++qi) {
    QueueState& q = tenants_[qi];
    auto& members = vports_[static_cast<std::size_t>(q.cfg.vport)].members[q.cfg.priority];
    q.slot = members.size();
    members.push_back(qi);
  }
  for (VportState& vp : vports_) {
    for (const auto& members : vp.members) vp.backlogged.emplace_back(members.size());
  }

  rx_.set_callback([this](const nic::RxQueueModel::Entry&) { packet_arrived(); });
}

void VSwitch::add_flow(const FiveTupleKey& key, std::size_t tenant) {
  if (tenant >= cfg_.tenants.size())
    throw std::invalid_argument("VSwitch::add_flow: tenant index out of range");
  if (flow_count_ >= cfg_.five_tuple_capacity)
    throw std::length_error("VSwitch::add_flow: five-tuple table at capacity");
  std::size_t idx = hash_key(key) & flow_mask_;
  while (flows_[idx].tenant != -1) {
    if (flows_[idx].key == key) {
      flows_[idx].tenant = static_cast<std::int32_t>(tenant);  // re-point
      return;
    }
    idx = (idx + 1) & flow_mask_;
  }
  flows_[idx].key = key;
  flows_[idx].tenant = static_cast<std::int32_t>(tenant);
  ++flow_count_;
}

std::size_t VSwitch::queued() const {
  std::size_t n = 0;
  for (const QueueState& q : tenants_) n += q.ring.size();
  return n;
}

TenantCounters VSwitch::tenant_counters(std::size_t tenant) const {
  const QueueState& q = tenants_.at(tenant);
  return TenantCounters{q.matched,     q.emitted,     q.emitted_wire_bytes,
                        q.shaped_drops, q.queue_drops, q.egress_ring_drops,
                        q.ring.size()};
}

void VSwitch::install_faults(fault::FaultPlane& plane, const std::string& site) {
  fp_drop_ = plane.point(fault::FaultKind::kFrameLoss, site + ".drop");
  fp_stall_ = plane.point(fault::FaultKind::kStall, site + ".stall");
}

void VSwitch::bind_telemetry(telemetry::MetricRegistry& registry, const std::string& prefix) {
  telemetry_.open(registry);
  telemetry_.counter(prefix + ".received", [this] { return received_; });
  telemetry_.counter(prefix + ".matched", [this] { return matched_; });
  telemetry_.counter(prefix + ".flooded", [this] { return flooded_; });
  telemetry_.counter(prefix + ".shaped_drops", [this] { return shaped_drops_; });
  telemetry_.counter(prefix + ".queue_drops", [this] { return queue_drops_; });
  telemetry_.counter(prefix + ".fault_drops", [this] { return fault_drops_; });
  telemetry_.counter(prefix + ".emitted", [this] { return emitted_; });
  telemetry_.counter(prefix + ".egress_ring_drops", [this] { return egress_ring_drops_; });
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    const std::string tp =
        i == flood_queue_ ? prefix + ".flood" : prefix + ".t" + std::to_string(i);
    telemetry_.counter(tp + ".matched", [this, i] { return tenants_[i].matched; });
    telemetry_.counter(tp + ".emitted", [this, i] { return tenants_[i].emitted; });
    telemetry_.counter(tp + ".shaped_drops", [this, i] { return tenants_[i].shaped_drops; });
    telemetry_.counter(tp + ".queue_drops", [this, i] { return tenants_[i].queue_drops; });
    telemetry_.counter(tp + ".egress_ring_drops",
                       [this, i] { return tenants_[i].egress_ring_drops; });
  }
}

void VSwitch::packet_arrived() {
  if (polling_ || service_scheduled_) return;
  service_scheduled_ = true;
  events_.schedule_in_inline(kIngressLatencyPs, [this] { fire_service(); });
}

void VSwitch::fire_service() {
  service_scheduled_ = false;
  if (polling_) return;  // a service loop took over in the meantime
  polling_ = true;
  poll();
}

void VSwitch::poll() {
  if (fp_stall_.installed()) {
    if (const auto* rule = fp_stall_.fire(events_.now()); rule != nullptr) {
      // The switching core is preempted; the loop resumes after the stall
      // and finds a fuller RX ring.
      ++stalls_;
      const auto stall_ps =
          rule->param > 0 ? static_cast<sim::SimTime>(rule->param) : sim::SimTime{50'000'000};
      events_.schedule_in(stall_ps, [this] { poll(); });
      return;
    }
  }
  ++polls_;
  poll_scratch_.clear();
  rx_.drain_into(poll_scratch_, kPollBudget);

  sim::SimTime t = events_.now();
  for (auto& entry : poll_scratch_) {
    t += service_ps_;  // one switching core: frames are serviced in order
    events_.schedule_at_inline(t, [this, frame = std::move(entry.frame)]() mutable {
      ingest(std::move(frame));
    });
  }

  if (poll_scratch_.size() >= kPollBudget || rx_.pending() > 0) {
    events_.schedule_at_inline(t, [this] { poll(); });
    return;
  }
  events_.schedule_at(t, [this] {
    polling_ = false;
    if (rx_.pending() > 0) packet_arrived();  // frames raced in meanwhile
  });
}

void VSwitch::ingest(nic::Frame frame) {
  ++received_;
  if (fp_drop_.installed() && fp_drop_.fire(events_.now()) != nullptr) {
    ++fault_drops_;
    return;
  }
  const std::int32_t qi = match(frame);
  if (qi < 0) {
    enqueue(flood_queue_, std::move(frame), /*is_flood=*/true);
  } else {
    enqueue(static_cast<std::size_t>(qi), std::move(frame), /*is_flood=*/false);
  }
}

std::int32_t VSwitch::match(const nic::Frame& frame) const {
  const auto& bytes = *frame.data;
  const auto pc = proto::classify({bytes.data(), bytes.size()});
  if (!pc.has_value()) return -1;  // malformed: flood, let the sink count it

  // Five-tuple rules win over the VID table (a pinned flow overrides its
  // VLAN's tenant).
  if (flow_count_ > 0 && pc->ether_type == proto::EtherType::kIPv4 && pc->l4_offset != 0 &&
      pc->l4_protocol.has_value() &&
      (*pc->l4_protocol == proto::IpProtocol::kUdp ||
       *pc->l4_protocol == proto::IpProtocol::kTcp) &&
      bytes.size() >= pc->l4_offset + 4) {
    const auto* ip = reinterpret_cast<const proto::Ipv4Header*>(bytes.data() + pc->l3_offset);
    // UDP and TCP share the src/dst port layout in their first four bytes.
    const auto* l4 = reinterpret_cast<const proto::UdpHeader*>(bytes.data() + pc->l4_offset);
    FiveTupleKey key;
    key.src_ip = ip->src().value;
    key.dst_ip = ip->dst().value;
    key.src_port = l4->src_port();
    key.dst_port = l4->dst_port();
    key.protocol = static_cast<std::uint8_t>(*pc->l4_protocol);
    std::size_t idx = hash_key(key) & flow_mask_;
    while (flows_[idx].tenant != -1) {
      if (flows_[idx].key == key) return flows_[idx].tenant;
      idx = (idx + 1) & flow_mask_;
    }
  }

  if (pc->has_vlan) {
    // The innermost tag (C-tag of a QinQ stack) names the tenant; the
    // S-tag is the carrier's.
    const std::uint16_t vid = pc->vlan_tags == 2 ? pc->inner_vid : pc->outer_vid;
    return vid_table_[vid & 0x0fff];
  }
  return -1;
}

void VSwitch::enqueue(std::size_t queue_idx, nic::Frame&& frame, bool is_flood) {
  QueueState& q = tenants_[queue_idx];
  if (!is_flood && !q.bucket.admit(events_.now(), frame.wire_bytes())) {
    ++shaped_drops_;
    ++q.shaped_drops;
    return;
  }
  if (q.ring.full()) {
    ++queue_drops_;
    ++q.queue_drops;
    return;
  }
  if (q.cfg.flow != 0) frame.flow = q.cfg.flow;
  if (is_flood) {
    ++flooded_;
  } else {
    ++matched_;
  }
  ++q.matched;
  q.ring.push_back(std::move(frame));
  VportState& vp = vports_[static_cast<std::size_t>(q.cfg.vport)];
  vp.backlogged[q.cfg.priority].assign(q.slot, true);
  ++vp.backlog[q.cfg.priority];
  ++vp.backlog_total;
  if (!vp.busy) {
    vp.busy = true;
    drain_vport(static_cast<std::size_t>(q.cfg.vport));
  }
}

void VSwitch::drain_vport(std::size_t vp_idx) {
  VportState& vp = vports_[vp_idx];
  if (vp.backlog_total == 0) {
    vp.busy = false;
    return;
  }
  // Strict priority: the lowest-numbered class with backlog is served
  // first, always.
  std::size_t cls = 0;
  while (vp.backlog[cls] == 0) ++cls;

  // Deficit round robin within the class. Each visit to a backlogged queue
  // with an insufficient deficit tops it up by one quantum and moves on;
  // the loop terminates because deficits only grow until a dequeue. The
  // walk jumps from one backlogged member to the next. An idle queue must
  // not bank credit (DRR rule), so a member-by-member walk zeroes the
  // deficit of every empty member it passes. A member empties only by
  // winning a dequeue, which leaves the cursor on it, so the one empty
  // member that can still hold credit is the one the cursor rests on, and
  // the walk passes it first.
  const auto& members = vp.members[cls];
  const sim::Bitmap& backlogged = vp.backlogged[cls];
  std::size_t& rr = vp.rr[cls];
  if (QueueState& last = tenants_[members[rr]]; last.ring.empty() && last.deficit != 0) {
    ++drr_visits_;
    last.deficit = 0;
  }
  std::size_t winner = 0;
  nic::Frame frame;
  for (;;) {
    rr = backlogged.find_next(rr);
    if (rr == members.size()) rr = backlogged.find_next(0);
    ++drr_visits_;
    QueueState& q = tenants_[members[rr]];
    const auto bytes = static_cast<std::uint32_t>(q.ring.front().wire_bytes());
    if (q.deficit >= bytes) {
      q.deficit -= bytes;
      winner = members[rr];
      frame = q.ring.pop_front();
      break;
    }
    q.deficit += q.cfg.quantum_bytes;
    rr = (rr + 1) % members.size();
  }

  QueueState& q = tenants_[winner];
  if (q.ring.empty()) vp.backlogged[cls].assign(q.slot, false);
  --vp.backlog[cls];
  --vp.backlog_total;
  const std::size_t wire = frame.wire_bytes();
  if (vp.tx->post(std::move(frame))) {
    ++emitted_;
    ++q.emitted;
    q.emitted_wire_bytes += wire;
  } else {
    // TX ring full despite pacing (e.g. the link is flapped down): the
    // frame is gone; the conservation identity accounts it here.
    ++egress_ring_drops_;
    ++q.egress_ring_drops;
  }
  // Self-pace at the vport's wire rate: the TX ring stays shallow, so the
  // *next* priority decision is made when this frame has serialized
  // instead of being queued behind a ring full of low-priority frames.
  events_.schedule_at_inline(events_.now() + wire * vp.port->byte_time_ps(),
                             [this, vp_idx] { drain_vport(vp_idx); });
}

}  // namespace moongen::dut
