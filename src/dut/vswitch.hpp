// Multi-tenant virtual-switch DuT: the programmable software switch behind
// the QoS/DDoS scenario family (ROADMAP items 4+5).
//
// Models the datapath of a tagging+shaping end-host vswitch (the Chameleon
// line of work): frames arriving on one ingress port are matched against a
// five-tuple exact-match table, then a VLAN-id table; the owning tenant's
// token-bucket policer admits or drops; admitted frames sit in the
// tenant's preallocated egress ring until the egress scheduler — strict
// priority across classes, deficit round robin within a class — emits them
// on the tenant's vport, paced at the vport's wire rate so the priority
// decision is made per frame instead of being flattened by a deep TX ring.
//
// Invariants (audited by health::make_vswitch_checker at quiesced window
// boundaries):
//   ingress: received == matched + flooded + shaped_drops + queue_drops
//                        + fault_drops
//   egress:  matched + flooded == emitted + egress_ring_drops + queued()
// Every counter moves exactly once per frame, so both identities are exact
// at any quiesced instant.
//
// Match tables and DRR rotation lists are sized at construction; egress
// rings double up to their capacity as they fill, so once every ring has
// reached its deepest fill the steady state allocates nothing. Forwarded
// frames keep their bytes; only their flow-group label may change.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fault/fault.hpp"
#include "nic/port.hpp"
#include "sim/bitmap.hpp"
#include "sim/event_queue.hpp"
#include "telemetry/registry.hpp"

namespace moongen::dut {

/// Token-bucket policer on wire bytes. Deterministic: refill is computed
/// from virtual time only. Exposed standalone for the conformance property
/// test (output never exceeds rate*t + burst over any interval).
class TokenBucket {
 public:
  TokenBucket() = default;
  /// `rate_mbit` in Mbit/s of wire bytes; `burst_bytes` is the bucket
  /// depth. rate_mbit <= 0 builds an unlimited bucket (admit everything).
  TokenBucket(double rate_mbit, std::size_t burst_bytes)
      : rate_bytes_per_ps_(rate_mbit * 1e6 / 8.0 / 1e12),
        burst_(static_cast<double>(burst_bytes)),
        tokens_(static_cast<double>(burst_bytes)) {}

  /// Refills up to `now_ps` and consumes `bytes` if the bucket holds them.
  bool admit(sim::SimTime now_ps, std::size_t bytes) {
    if (rate_bytes_per_ps_ <= 0.0) return true;
    if (now_ps > last_ps_) {
      tokens_ += static_cast<double>(now_ps - last_ps_) * rate_bytes_per_ps_;
      if (tokens_ > burst_) tokens_ = burst_;
      last_ps_ = now_ps;
    }
    const auto need = static_cast<double>(bytes);
    if (tokens_ < need) return false;
    tokens_ -= need;
    return true;
  }

  [[nodiscard]] bool unlimited() const { return rate_bytes_per_ps_ <= 0.0; }
  [[nodiscard]] double tokens() const { return tokens_; }

 private:
  double rate_bytes_per_ps_ = 0.0;
  double burst_ = 0.0;
  double tokens_ = 0.0;
  sim::SimTime last_ps_ = 0;
};

/// Exact-match key of the five-tuple table (host byte order).
struct FiveTupleKey {
  std::uint32_t src_ip = 0;
  std::uint32_t dst_ip = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint8_t protocol = 0;

  bool operator==(const FiveTupleKey&) const = default;
};

/// One tenant: match identity (VLAN id), egress placement (vport +
/// priority class + DRR quantum), shaping, and the flow-group label its
/// forwarded frames carry into the RTT plane.
struct TenantConfig {
  /// VLAN id owning this tenant in the VID table (the C-tag of a QinQ
  /// stack, i.e. the innermost tag). 0 = no VID table entry (five-tuple
  /// rules only).
  std::uint16_t vid = 0;
  /// Egress vport (index into the out_ports vector).
  int vport = 0;
  /// Strict-priority class, 0 = highest, up to kPriorityClasses-1.
  std::uint8_t priority = 0;
  /// DRR quantum in wire bytes within the priority class. Should be at
  /// least one max frame; smaller quanta still work (the deficit
  /// accumulates over rounds) but cost extra scheduler passes.
  std::uint32_t quantum_bytes = 1600;
  /// Token-bucket policer: rate in Mbit/s of wire bytes (0 = unshaped).
  double rate_mbit = 0.0;
  std::size_t burst_bytes = 16'000;
  /// Frame.flow stamped on forwarded frames (0 = keep incoming label).
  std::uint32_t flow = 0;
  /// Egress ring capacity in frames (slots are allocated as the ring fills).
  std::size_t queue_frames = 512;
};

struct VSwitchConfig {
  static constexpr std::uint8_t kPriorityClasses = 8;

  double cpu_hz = 3.3e9;
  /// Datapath cost per frame (parse + table lookup + enqueue); the vswitch
  /// core saturates at cpu_hz / cycles_per_packet frames per second.
  double cycles_per_packet = 450;
  /// Table-miss frames flood to this vport at the lowest priority class.
  int flood_vport = 0;
  std::size_t flood_queue_frames = 256;
  std::uint32_t flood_quantum_bytes = 1600;
  /// Five-tuple exact-match table capacity (rounded up to a power of two;
  /// add_flow throws when the table would exceed half full).
  std::size_t five_tuple_capacity = 1024;
  std::vector<TenantConfig> tenants;
};

/// Per-tenant books, readable at quiesced instants.
struct TenantCounters {
  std::uint64_t matched = 0;
  std::uint64_t emitted = 0;
  std::uint64_t emitted_wire_bytes = 0;
  std::uint64_t shaped_drops = 0;
  std::uint64_t queue_drops = 0;
  /// Frames the vport's full TX ring refused at dequeue.
  std::uint64_t egress_ring_drops = 0;
  std::size_t queued = 0;
};

class VSwitch {
 public:
  /// Switches every frame arriving on (`in_port`, `in_queue`) to the
  /// tenants' vports (`out_ports`, TX queue 0 each). All ports must live
  /// on `events` (Scenario couples them).
  VSwitch(sim::EventQueue& events, nic::Port& in_port, int in_queue,
          std::vector<nic::Port*> out_ports, VSwitchConfig config);
  VSwitch(const VSwitch&) = delete;
  VSwitch& operator=(const VSwitch&) = delete;

  /// Installs a five-tuple exact-match rule owned by `tenant` (index into
  /// config.tenants). Five-tuple rules win over the VID table. Throws
  /// std::length_error when the table is at capacity (it never rehashes —
  /// steady state must not allocate).
  void add_flow(const FiveTupleKey& key, std::size_t tenant);

  // --- books (ingress identity) --------------------------------------------
  [[nodiscard]] std::uint64_t received() const { return received_; }
  [[nodiscard]] std::uint64_t matched() const { return matched_; }
  [[nodiscard]] std::uint64_t flooded() const { return flooded_; }
  [[nodiscard]] std::uint64_t shaped_drops() const { return shaped_drops_; }
  [[nodiscard]] std::uint64_t queue_drops() const { return queue_drops_; }
  [[nodiscard]] std::uint64_t fault_drops() const { return fault_drops_; }
  // --- books (egress identity) ---------------------------------------------
  [[nodiscard]] std::uint64_t emitted() const { return emitted_; }
  [[nodiscard]] std::uint64_t egress_ring_drops() const { return egress_ring_drops_; }
  /// Frames currently sitting in tenant + flood egress rings.
  [[nodiscard]] std::size_t queued() const;

  [[nodiscard]] std::uint64_t polls() const { return polls_; }
  /// Member queues the DRR walk has visited: backlogged members it offered
  /// a dequeue plus emptied ones whose leftover deficit it cleared. It
  /// grows with the backlogged members, not with the class size.
  [[nodiscard]] std::uint64_t drr_visits() const { return drr_visits_; }
  [[nodiscard]] std::uint64_t stalls() const { return stalls_; }
  /// Configured tenants (the built-in flood queue is not counted).
  [[nodiscard]] std::size_t tenant_count() const { return cfg_.tenants.size(); }
  /// Books for tenant `tenant`; index tenant_count() reads the flood queue.
  [[nodiscard]] TenantCounters tenant_counters(std::size_t tenant) const;
  /// DRR deficit of tenant `tenant` in wire bytes (same indexing).
  [[nodiscard]] std::uint32_t deficit(std::size_t tenant) const {
    return tenants_.at(tenant).deficit;
  }

  /// Arms `<site>.drop` (frame loss at ingress, before classification) and
  /// `<site>.stall` (service-loop freeze, like the forwarder's).
  void install_faults(fault::FaultPlane& plane, const std::string& site);

  /// Registers readers of the global books under `<prefix>.*` and of the
  /// per-tenant books under `<prefix>.t<k>.*` (the flood queue's under
  /// `<prefix>.flood.*`).
  void bind_telemetry(telemetry::MetricRegistry& registry, const std::string& prefix);

 private:
  struct FlowSlot {
    FiveTupleKey key;
    std::int32_t tenant = -1;  // -1 = empty
  };

  /// Frame ring holding at most `capacity` frames. Its slots double, up to
  /// the capacity, when a push finds them all taken: thousands of tenants
  /// that never queue deeply do not pay for their capacity up front.
  struct FrameRing {
    std::vector<nic::Frame> slots;
    std::size_t capacity = 1;
    std::size_t head = 0;
    std::size_t count = 0;

    [[nodiscard]] bool full() const { return count == capacity; }
    [[nodiscard]] bool empty() const { return count == 0; }
    /// Requires !full().
    void push(nic::Frame&& f) {
      if (count == slots.size()) grow();
      slots[(head + count) % slots.size()] = std::move(f);
      ++count;
    }
    [[nodiscard]] const nic::Frame& front() const { return slots[head]; }
    nic::Frame pop() {
      nic::Frame f = std::move(slots[head]);
      head = (head + 1) % slots.size();
      --count;
      return f;
    }
    /// Doubles the slots (at most to `capacity`) and moves the queued
    /// frames to the front in FIFO order.
    void grow();
  };

  /// One egress queue: a tenant's, or the flood queue (tenant index -1).
  struct QueueState {
    FrameRing ring;
    TokenBucket bucket;
    TenantConfig cfg;
    std::uint32_t deficit = 0;
    std::size_t slot = 0;  // position in its class's DRR member ring
    // books
    std::uint64_t matched = 0;
    std::uint64_t emitted = 0;
    std::uint64_t emitted_wire_bytes = 0;
    std::uint64_t shaped_drops = 0;
    std::uint64_t queue_drops = 0;
    std::uint64_t egress_ring_drops = 0;
  };

  /// One egress port: strict-priority classes, each a DRR rotation over
  /// the queues assigned to it.
  struct VportState {
    nic::Port* port = nullptr;
    nic::TxQueueModel* tx = nullptr;
    std::vector<std::vector<std::size_t>> members;  // per class: queue idxs
    std::vector<std::size_t> rr;                    // per class: DRR cursor
    std::vector<std::size_t> backlog;               // per class: queued frames
    /// Per class, by member position: the queues holding frames.
    std::vector<sim::Bitmap> backlogged;
    std::size_t backlog_total = 0;
    bool busy = false;
  };

  void packet_arrived();
  void fire_service();
  void poll();
  void ingest(nic::Frame frame);
  /// Returns the queue index for the frame, or -1 when no table matched
  /// (flood). Sets `*vid_matched` for telemetry.
  [[nodiscard]] std::int32_t match(const nic::Frame& frame) const;
  void enqueue(std::size_t queue_idx, nic::Frame&& frame, bool is_flood);
  void kick_vport(std::size_t vp_idx);
  void drain_vport(std::size_t vp_idx);

  sim::EventQueue& events_;
  nic::Port& in_port_;
  nic::RxQueueModel& rx_;
  VSwitchConfig cfg_;
  sim::SimTime service_ps_;

  std::vector<nic::Port*> out_ports_;
  std::vector<VportState> vports_;
  /// tenants_[0..n-1] mirror cfg_.tenants; tenants_.back() is the flood
  /// queue when flood_vport >= 0.
  std::vector<QueueState> tenants_;
  std::size_t flood_queue_ = 0;  // index into tenants_ (== tenant count)

  std::vector<FlowSlot> flows_;
  std::size_t flow_mask_ = 0;
  std::size_t flow_count_ = 0;
  /// VID -> queue index (-1 miss); 4096 entries, built at construction.
  std::vector<std::int32_t> vid_table_;

  bool polling_ = false;
  bool service_scheduled_ = false;
  /// Reused RX burst array (cleared per poll); grows to the poll budget once.
  std::vector<nic::RxQueueModel::Entry> poll_scratch_;

  fault::FaultPoint fp_drop_;
  fault::FaultPoint fp_stall_;

  std::uint64_t received_ = 0;
  std::uint64_t matched_ = 0;
  std::uint64_t flooded_ = 0;
  std::uint64_t shaped_drops_ = 0;
  std::uint64_t queue_drops_ = 0;
  std::uint64_t fault_drops_ = 0;
  std::uint64_t emitted_ = 0;
  std::uint64_t egress_ring_drops_ = 0;
  std::uint64_t polls_ = 0;
  std::uint64_t stalls_ = 0;
  std::uint64_t drr_visits_ = 0;

  telemetry::Binding telemetry_;
};

}  // namespace moongen::dut
