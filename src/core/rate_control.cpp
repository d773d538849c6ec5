#include "core/rate_control.hpp"

#include <cstring>

#include "proto/packet_view.hpp"

namespace moongen::core {

namespace {

/// `frame` with a copy of its payload whose reference count has a cache
/// line of its own. Every frame a generator sends copies its template's
/// payload pointer, writing that count several times per frame, and
/// templates are built on one thread, next to other shards' templates: a
/// count that shares a line with another shard's data bounces between
/// their cores (hwpaced_4x40g at 4 shards took up to a third more CPU in
/// some heap layouts).
nic::Frame with_own_payload(nic::Frame frame) {
  struct alignas(64) Payload {
    std::vector<std::uint8_t> bytes;
  };
  auto owner = std::make_shared<Payload>(Payload{*frame.data});
  frame.data = std::shared_ptr<const std::vector<std::uint8_t>>(owner, &owner->bytes);
  return frame;
}

}  // namespace

// ---------------------------------------------------------------------------
// CrcGapFiller
// ---------------------------------------------------------------------------

void CrcGapFiller::fill(std::size_t gap_bytes, std::vector<std::size_t>& out) {
  out.clear();
  std::size_t gap = gap_bytes + carry_;
  carry_ = 0;
  if (gap == 0) return;
  if (gap < cfg_.min_wire_len) {
    // Unrepresentable short gap (0.8-60.8 ns at 10 GbE): skip the filler
    // here and lengthen a later gap instead; the average rate stays exact
    // (Section 8.4).
    carry_ = gap;
    ++skipped_;
    return;
  }
  while (gap > 0) {
    std::size_t take;
    if (gap <= cfg_.max_wire_len) {
      take = gap;
    } else {
      // Leave at least a representable remainder.
      take = std::min(cfg_.max_wire_len, gap - cfg_.min_wire_len);
    }
    out.push_back(take);
    gap -= take;
  }
}

// ---------------------------------------------------------------------------
// SimLoadGen
// ---------------------------------------------------------------------------

std::unique_ptr<SimLoadGen> SimLoadGen::hardware_paced(nic::TxQueueModel& queue,
                                                       nic::Frame frame) {
  auto gen = std::unique_ptr<SimLoadGen>(new SimLoadGen());
  gen->frame_ = with_own_payload(std::move(frame));
  SimLoadGen* raw = gen.get();
  // Keep the FIFO lookahead short so a marked (timestamped) frame reaches
  // the wire promptly even at low paced rates.
  queue.set_fifo_capacity(8);
  queue.set_refill([raw] { return raw->next_frame(); });
  return gen;
}

std::unique_ptr<SimLoadGen> SimLoadGen::crc_paced(nic::TxQueueModel& queue, nic::Frame frame,
                                                  std::unique_ptr<DeparturePattern> pattern,
                                                  std::uint64_t link_mbit,
                                                  GapFillerConfig config) {
  auto gen = std::unique_ptr<SimLoadGen>(new SimLoadGen());
  gen->frame_ = with_own_payload(std::move(frame));
  gen->pattern_ = std::move(pattern);
  gen->filler_ = std::make_unique<CrcGapFiller>(config);
  gen->byte_time_ps_ = sim::byte_time_ps(link_mbit);
  SimLoadGen* raw = gen.get();
  queue.set_refill([raw] { return raw->next_frame(); });
  return gen;
}

void SimLoadGen::mark_next_valid(nic::Frame stamped, int n) {
  marked_frame_ = std::move(stamped);
  marked_remaining_ = n;
}

void SimLoadGen::set_flow(std::uint32_t flow) {
  flow_ = flow;
  frame_.flow = flow;
  for (auto& t : templates_) {
    if (t.flow == 0) t.flow = flow;
  }
}

void SimLoadGen::set_templates(std::vector<nic::Frame> templates) {
  templates_ = std::move(templates);
  for (auto& t : templates_) t = with_own_payload(std::move(t));
  template_index_ = 0;
  if (flow_ != 0) {
    for (auto& t : templates_) {
      if (t.flow == 0) t.flow = flow_;
    }
  }
}

void SimLoadGen::bind_telemetry(telemetry::MetricTree& tree, const std::string& prefix) {
  if (tm_valid_.valid()) return;  // already bound; re-seeding would double-count
  tm_valid_ = tree.counter(prefix + ".valid_frames");
  tm_gap_ = tree.counter(prefix + ".gap_frames");
  tm_carry_ = tree.gauge(prefix + ".carry_bytes");
  tm_valid_.add(valid_frames_);
  tm_gap_.add(gap_frames_);
}

nic::Frame SimLoadGen::next_frame() {
  // CRC mode: emit pending gap frames between valid packets.
  if (filler_ && pending_index_ < pending_gaps_.size()) {
    ++gap_frames_;
    tm_gap_.add(1);
    return nic::make_gap_frame(pending_gaps_[pending_index_++], ++frame_seq_);
  }

  nic::Frame out = templates_.empty()
                       ? frame_
                       : templates_[template_index_++ % templates_.size()];
  if (marked_remaining_ > 0) {
    out = marked_frame_;
    --marked_remaining_;
  }
  out.seq = ++frame_seq_;
  ++valid_frames_;
  tm_valid_.add(1);

  if (filler_) {
    // Compute the wire gap until the next valid packet and pre-plan the
    // invalid frames that fill it.
    acc_ps_ += static_cast<double>(pattern_->next_gap_ps());
    const double bytes_f = acc_ps_ / static_cast<double>(byte_time_ps_);
    // Nearest wire byte, not floor: the accumulator may briefly go half a
    // byte-time negative, but departures stay centered on the schedule
    // instead of trailing it by up to one byte-time.
    const auto rounded = std::llround(bytes_f);
    const auto gap_total = rounded > 0 ? static_cast<std::size_t>(rounded) : 0;
    acc_ps_ -= static_cast<double>(gap_total) * static_cast<double>(byte_time_ps_);
    const std::size_t valid_wire = out.wire_bytes();
    const std::size_t filler_bytes = gap_total > valid_wire ? gap_total - valid_wire : 0;
    filler_->fill(filler_bytes, pending_gaps_);
    pending_index_ = 0;
    tm_carry_.set(static_cast<double>(filler_->carry_bytes()));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Frame templates
// ---------------------------------------------------------------------------

nic::Frame make_udp_frame(const UdpTemplateOptions& opts) {
  // An 802.1Q tag is inserted after the fill: the view fills the untagged
  // layout, then the Ethernet header is re-typed and the 4 tag bytes
  // spliced in. IP/UDP lengths are unaffected (the tag lives below L3).
  const std::size_t tag_bytes = opts.vlan ? sizeof(proto::VlanTag) : 0;
  std::vector<std::uint8_t> bytes(opts.frame_size - tag_bytes, 0);
  proto::UdpPacketView view{{bytes.data(), bytes.size()}};
  proto::UdpFillOptions fill;
  fill.packet_length = opts.frame_size - tag_bytes;
  fill.eth_src = proto::MacAddress::from_uint64(0x020000000001ull);
  fill.eth_dst = proto::MacAddress::from_uint64(0x020000000002ull);
  fill.udp_src = opts.udp_src;
  fill.udp_dst = opts.ptp_payload ? proto::PtpHeader::kUdpEventPort : opts.udp_dst;
  view.fill(fill);

  if (opts.ptp_payload) {
    auto payload = view.udp_payload();
    if (payload.size() >= sizeof(proto::PtpHeader)) {
      auto* ptp = reinterpret_cast<proto::PtpHeader*>(payload.data());
      std::memset(ptp, 0, sizeof(*ptp));
      ptp->set_message_type(static_cast<proto::PtpMessageType>(opts.ptp_message_type));
      ptp->set_version(proto::PtpHeader::kVersion2);
    }
  }

  if (opts.vlan) {
    std::vector<std::uint8_t> tagged(opts.frame_size, 0);
    std::memcpy(tagged.data(), bytes.data(), sizeof(proto::EthernetHeader));
    auto* eth = reinterpret_cast<proto::EthernetHeader*>(tagged.data());
    eth->set_ether_type(proto::EtherType::kVlan);
    auto* tag = reinterpret_cast<proto::VlanTag*>(tagged.data() + sizeof(proto::EthernetHeader));
    tag->set(opts.vlan_vid, opts.vlan_pcp);
    tag->ether_type_be = proto::hton16(static_cast<std::uint16_t>(proto::EtherType::kIPv4));
    std::memcpy(tagged.data() + sizeof(proto::EthernetHeader) + sizeof(proto::VlanTag),
                bytes.data() + sizeof(proto::EthernetHeader),
                bytes.size() - sizeof(proto::EthernetHeader));
    bytes = std::move(tagged);
  }

  auto frame = nic::make_frame(std::move(bytes));
  frame.flow = opts.flow;
  return frame;
}

nic::Frame make_ptp_ethernet_frame(std::size_t frame_size, std::uint8_t message_type) {
  std::vector<std::uint8_t> bytes(frame_size, 0);
  proto::EthPacketView view{{bytes.data(), bytes.size()}};
  view.eth().dst = proto::MacAddress::from_uint64(0x020000000002ull);
  view.eth().src = proto::MacAddress::from_uint64(0x020000000001ull);
  view.eth().set_ether_type(proto::EtherType::kPtp);
  auto payload = view.payload();
  auto* ptp = reinterpret_cast<proto::PtpHeader*>(payload.data());
  std::memset(ptp, 0, std::min(payload.size(), sizeof(proto::PtpHeader)));
  ptp->set_message_type(static_cast<proto::PtpMessageType>(message_type));
  ptp->set_version(proto::PtpHeader::kVersion2);
  return nic::make_frame(std::move(bytes));
}

}  // namespace moongen::core
