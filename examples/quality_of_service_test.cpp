// quality-of-service-test: the paper's running example (Listings 1-3).
//
// Two transmission tasks generate two UDP flows — background traffic and
// prioritized foreground traffic, distinguished by UDP destination port —
// at different rates; a counter task measures per-flow throughput on the
// receive side. This is the starting point for benchmarking a forwarding
// device that prioritizes real-time traffic over background traffic.
//
// The structure mirrors the Lua script faithfully:
//   master()       -> main(): device config, rates, task launch
//   loadSlave()    -> load_slave(): pre-filled mempool, per-packet edit
//   counterSlave() -> counter_slave(): per-port RX counters
// With `--json FILE` the end-of-run totals (per-flow TX/RX packets and
// the receiver's ring drops) are exported as a one-snapshot telemetry
// series; stdout is unchanged.
//
// After the fast-path run, a simulated cross-check sends the same two
// classes as 802.1Q-tagged frames whose PCP is stamped into `Frame.flow`
// (the flow-labeling contract, DESIGN.md Section 16): the always-on RTT
// plane then buckets each class into its own flow group and publishes
// per-class windowed quantiles. The example asserts that the per-class
// numbers agree — the sum of every window's group count equals the
// group's cumulative population, and no frame leaked into a foreign
// group — and exits nonzero when they don't.
#include <cstdio>
#include <iostream>
#include <thread>
#include <map>
#include <memory>

#include "cli.hpp"
#include "core/device.hpp"
#include "core/field_modifier.hpp"
#include "core/rate_control.hpp"
#include "core/task.hpp"
#include "membuf/buf_array.hpp"
#include "membuf/mempool.hpp"
#include "nic/chip.hpp"
#include "proto/packet_view.hpp"
#include "stats/counters.hpp"
#include "telemetry/exporters.hpp"
#include "telemetry/registry.hpp"
#include "telemetry/rtt_plane.hpp"
#include "testbed/scenario.hpp"

namespace mc = moongen::core;
namespace mb = moongen::membuf;
namespace me = moongen::examples;
namespace mn = moongen::nic;
namespace mp = moongen::proto;
namespace st = moongen::stats;
namespace mt = moongen::telemetry;
namespace mtb = moongen::testbed;

namespace {

constexpr std::size_t kPktSize = 124;  // PKT_SIZE from Listing 2

// Listing 2: the transmission slave task. `sent_out` receives the final
// packet total (written once, after the loop — read it after wait()).
void load_slave(mc::TxQueue* queue, std::uint16_t port, const mc::RunState* run,
                std::uint64_t* sent_out) {
  auto mem = std::make_unique<mb::Mempool>(2048, [port](mb::PktBuf& buf) {
    buf.set_length(kPktSize);
    mp::UdpPacketView pkt{buf.bytes()};
    mp::UdpFillOptions opts;
    opts.packet_length = kPktSize;
    opts.eth_src = mp::MacAddress::from_uint64(0x020000000000);  // MAC from device
    opts.eth_dst = mp::MacAddress::parse("10:11:12:13:14:15").value();
    opts.ip_dst = mp::IPv4Address::parse("192.168.1.1").value();
    opts.udp_src = 1234;
    opts.udp_dst = port;
    pkt.fill(opts);
  });
  st::ManualTxCounter tx_ctr("port " + std::to_string(port), st::Format::kPlain,
                             st::wall_clock(), &std::cout);
  const auto base_ip = mp::IPv4Address::parse("10.0.0.1").value();
  mb::BufArray bufs(*mem, 64);
  mc::Tausworthe rng(port);
  std::uint64_t total = 0;
  while (run->running()) {
    bufs.alloc(kPktSize);
    for (auto* buf : bufs) {
      mp::UdpPacketView pkt{buf->bytes()};
      pkt.ip().set_src(base_ip + rng.next() % 255);  // line 20 of Listing 2
    }
    bufs.offload_udp_checksums();  // line 22
    const auto sent = queue->send(bufs);
    total += sent;
    tx_ctr.update_with_size(sent, kPktSize);
  }
  tx_ctr.finalize();
  if (sent_out != nullptr) *sent_out = total;
}

// Listing 3: the packet counter slave task. `rx_out` receives the final
// per-port packet totals (written once, after the loop).
void counter_slave(mc::RxQueue* queue, const mc::RunState* run,
                   std::map<std::uint16_t, std::uint64_t>* rx_out) {
  mb::BufArray bufs(128);
  std::map<std::uint16_t, std::unique_ptr<st::PktRxCounter>> counters;
  while (run->running()) {
    const auto rx = queue->recv(bufs);
    if (rx == 0) std::this_thread::yield();  // be polite on small hosts
    for (std::size_t i = 0; i < rx; ++i) {
      mp::UdpPacketView pkt{bufs[i]->bytes()};
      const std::uint16_t port = pkt.udp().dst_port();
      auto& ctr = counters[port];
      if (!ctr) {
        ctr = std::make_unique<st::PktRxCounter>("rx port " + std::to_string(port),
                                                 st::Format::kPlain, st::wall_clock(),
                                                 &std::cout);
      }
      ctr->count_packet(bufs[i]->length());
    }
    bufs.free_all();
  }
  for (auto& [port, ctr] : counters) {
    ctr->finalize();
    if (rx_out != nullptr) (*rx_out)[port] = ctr->total_packets();
  }
}

// Simulated PCP-labeled cross-check: both classes through the RTT plane's
// flow groups. Returns false (after printing why) when the per-class books
// disagree.
bool sim_flow_group_check(double bg_rate, double fg_rate) {
  constexpr std::uint8_t kBgPcp = 0;  // best effort
  constexpr std::uint8_t kFgPcp = 5;  // voice-class PCP for the foreground
  auto tb = mtb::Scenario()
                .seed(1)
                .rtt_groups(8)  // one group per PCP value
                .device(0, mn::intel_x540()).name("gen").with_seed(1)
                .device(1, mn::intel_x540()).name("sink").with_seed(2).rx_store(false)
                .link(0, 1).with_seed(3)
                .build();
  auto& gen_port = tb->port("gen");

  // PCP -> Frame.flow: each class's tag priority is also its flow label,
  // so the plane's group index *is* the 802.1p class.
  mc::UdpTemplateOptions bg;
  bg.frame_size = kPktSize + 4;  // + 802.1Q tag
  bg.udp_dst = 42;
  bg.vlan = true;
  bg.vlan_vid = 10;
  bg.vlan_pcp = kBgPcp;
  bg.flow = kBgPcp;
  mc::UdpTemplateOptions fg = bg;
  fg.udp_dst = 43;
  fg.vlan_pcp = kFgPcp;
  fg.flow = kFgPcp;

  gen_port.tx_queue(0).set_rate_wire_mbit(bg_rate);
  gen_port.tx_queue(1).set_rate_wire_mbit(fg_rate);
  auto bg_gen = mc::SimLoadGen::hardware_paced(gen_port.tx_queue(0), mc::make_udp_frame(bg));
  auto fg_gen = mc::SimLoadGen::hardware_paced(gen_port.tx_queue(1), mc::make_udp_frame(fg));

  tb->run_until(1'000'000'000'000ull);  // 1 s of virtual time, 10 windows

  auto& plane = tb->rtt_plane();
  bool ok = true;
  for (std::uint32_t group = 0; group < plane.group_count(); ++group) {
    std::uint64_t windowed = 0;
    for (const auto& w : plane.windows()) windowed += w.groups[group].count;
    const std::uint64_t cumulative = plane.cumulative_group(group).total();
    if (windowed != cumulative) {
      std::printf("FAIL: class %u windowed count %llu != cumulative %llu\n", group,
                  static_cast<unsigned long long>(windowed),
                  static_cast<unsigned long long>(cumulative));
      ok = false;
    }
    if (group != kBgPcp && group != kFgPcp && cumulative != 0) {
      std::printf("FAIL: class %u has %llu frames but nothing was labeled with it\n", group,
                  static_cast<unsigned long long>(cumulative));
      ok = false;
    }
  }
  for (const std::uint8_t pcp : {kBgPcp, kFgPcp}) {
    const auto cum = plane.cumulative_group(pcp);
    if (cum.total() == 0) {
      std::printf("FAIL: class %u recorded no frames\n", pcp);
      ok = false;
      continue;
    }
    const auto* last = plane.latest_window();
    std::printf("class %u (port %u): %llu frames, window p50 %.2f us / p99 %.2f,"
                " cumulative p50 %.2f us / p99 %.2f\n",
                pcp, pcp == kBgPcp ? 42 : 43, static_cast<unsigned long long>(cum.total()),
                last != nullptr ? static_cast<double>(last->groups[pcp].p50) / 1e3 : 0.0,
                last != nullptr ? static_cast<double>(last->groups[pcp].p99) / 1e3 : 0.0,
                static_cast<double>(cum.percentile(50.0)) / 1e3,
                static_cast<double>(cum.percentile(99.0)) / 1e3);
  }
  const std::uint64_t sent = bg_gen->valid_frames() + fg_gen->valid_frames();
  if (plane.recorded() > sent) {
    std::printf("FAIL: plane recorded %llu frames but only %llu were sent\n",
                static_cast<unsigned long long>(plane.recorded()),
                static_cast<unsigned long long>(sent));
    ok = false;
  }
  return ok;
}

}  // namespace

// Listing 1: the master function.
int main(int argc, char** argv) {
  const auto cli = me::parse_cli(
      argc, argv, "usage: quality_of_service_test [bg_mbit] [fg_mbit] [--json FILE]\n");
  if (!cli) return 2;
  const double bg_rate = cli->number(0, 800.0);  // Mbit/s
  const double fg_rate = cli->number(1, 100.0);
  std::printf("quality-of-service-test: background %.0f Mbit/s (port 42),"
              " foreground %.0f Mbit/s (port 43), 3 s\n",
              bg_rate, fg_rate);

  auto tb = mtb::Scenario()
                .fast_device(0, 1, 2)
                .fast_device(1, 1, 1)
                .fast_connect(0, 1)
                .build();
  auto& t_dev = tb->fast_device(0);
  auto& r_dev = tb->fast_device(1);
  mc::Device::wait_for_links();                  // line 4
  t_dev.get_tx_queue(0).set_rate_mbit(bg_rate);  // line 5
  t_dev.get_tx_queue(1).set_rate_mbit(fg_rate);  // line 6

  mc::RunState& run = tb->run_state();
  std::uint64_t bg_sent = 0;
  std::uint64_t fg_sent = 0;
  std::map<std::uint16_t, std::uint64_t> rx_totals;
  mc::TaskSet mg;
  mg.launch("loadSlave", load_slave, &t_dev.get_tx_queue(0), std::uint16_t{42}, &run,
            &bg_sent);  // line 7
  mg.launch("loadSlave", load_slave, &t_dev.get_tx_queue(1), std::uint16_t{43}, &run,
            &fg_sent);  // line 8
  mg.launch("counterSlave", counter_slave, &r_dev.get_rx_queue(0), &run, &rx_totals);  // line 9
  run.stop_after(3.0);
  mg.wait();  // line 10

  // On hosts with fewer cores than tasks the receive ring can overflow
  // while the counter task is scheduled out; account for the difference.
  std::printf("[rx device] ring drops: %llu (receiver starved of CPU time)\n",
              static_cast<unsigned long long>(r_dev.get_rx_queue(0).ring_drops()));

  std::printf("\nsimulated cross-check: PCP-labeled classes through RTT-plane flow groups\n");
  const bool classes_consistent = sim_flow_group_check(bg_rate, fg_rate);

  if (cli->has_json()) {
    mt::MetricRegistry registry;
    registry.set_gauge("qos.bg.offered_mbit", bg_rate);
    registry.set_gauge("qos.fg.offered_mbit", fg_rate);
    registry.set_gauge("qos.tx.port42", static_cast<double>(bg_sent));
    registry.set_gauge("qos.tx.port43", static_cast<double>(fg_sent));
    for (const auto& [port, pkts] : rx_totals)
      registry.set_gauge("qos.rx.port" + std::to_string(port), static_cast<double>(pkts));
    registry.set_gauge("qos.rx.ring_drops",
                       static_cast<double>(r_dev.get_rx_queue(0).ring_drops()));
    const std::vector<mt::Snapshot> series{registry.snapshot()};
    if (mt::dump_json_series_to_file(cli->json_path, series))
      std::fprintf(stderr, "telemetry written to %s\n", cli->json_path.c_str());
    else
      std::fprintf(stderr, "failed to write telemetry to %s\n", cli->json_path.c_str());
  }
  return classes_consistent ? 0 : 1;
}
