#include "nic/flow_director.hpp"

#include "proto/packet_view.hpp"

namespace moongen::nic {

FlowDirector::Verdict FlowDirector::match(const Frame& frame) const {
  if (rules_.empty()) return {};  // every RX frame asks; skip the parse
  const auto& bytes = *frame.data;
  const auto pc = proto::classify({bytes.data(), bytes.size()});
  if (!pc.has_value() || pc->ether_type != proto::EtherType::kIPv4) return {};

  const auto* ip = reinterpret_cast<const proto::Ipv4Header*>(bytes.data() + pc->l3_offset);
  std::uint16_t sport = 0, dport = 0;
  if ((pc->l4_protocol == proto::IpProtocol::kUdp ||
       pc->l4_protocol == proto::IpProtocol::kTcp) &&
      bytes.size() >= pc->l4_offset + 4) {
    sport = static_cast<std::uint16_t>(bytes[pc->l4_offset] << 8 | bytes[pc->l4_offset + 1]);
    dport = static_cast<std::uint16_t>(bytes[pc->l4_offset + 2] << 8 | bytes[pc->l4_offset + 3]);
  }

  for (const auto& rule : rules_) {
    if (rule.src_ip && *rule.src_ip != ip->src()) continue;
    if (rule.dst_ip && *rule.dst_ip != ip->dst()) continue;
    if (rule.protocol && *rule.protocol != pc->l4_protocol) continue;
    if (rule.src_port && *rule.src_port != sport) continue;
    if (rule.dst_port && *rule.dst_port != dport) continue;
    ++matches_;
    return Verdict{true, rule.drop, rule.queue};
  }
  return {};
}

}  // namespace moongen::nic
