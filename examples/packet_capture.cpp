// packet-capture: capture generated traffic to a pcap file and replay it.
//
// Demonstrates the capture facilities (MoonGen "can analyze traffic";
// Section 10): a TX tap records everything a generator port emits —
// including the invalid gap frames of the CRC rate control — while the RX
// capture on the receiving port shows what survives the hardware CRC
// check. The file is then re-read and replayed through a second port.
//
// Usage: packet_capture [file.pcap] [--seed N]
// The TX capture goes to file.pcap (default: moongen_tx.pcap in the working
// directory) and the RX capture next to it as file.pcap.rx; both are removed
// after the replay.
#include <cstdio>
#include <memory>
#include <string>

#include "capture/pcap.hpp"
#include "cli.hpp"
#include "core/rate_control.hpp"
#include "nic/chip.hpp"
#include "testbed/scenario.hpp"

namespace cap = moongen::capture;
namespace mc = moongen::core;
namespace me = moongen::examples;
namespace mn = moongen::nic;
namespace ms = moongen::sim;
namespace mtb = moongen::testbed;

namespace {

constexpr const char* kUsage =
    "usage: packet_capture [file.pcap] [--seed N]\n"
    "  file.pcap defaults to moongen_tx.pcap in the working directory\n";

// Both scenes are a simple A -> B pair; the replay runs the engine to
// exhaustion, which needs the single-engine form (couple).
std::unique_ptr<mtb::Testbed> make_pair(std::uint64_t seed, std::uint64_t a_seed) {
  return mtb::Scenario()
      .seed(seed)
      .telemetry(false)
      .device(0, mn::intel_x540()).name("a").with_seed(a_seed)
      .device(1, mn::intel_x540()).name("b").with_seed(a_seed + 1)
      .link(0, 1).with_seed(a_seed + 2)
      .couple(0, 1)
      .build();
}

}  // namespace

int main(int argc, char** argv) {
  const auto cli = me::parse_cli(argc, argv, kUsage);
  if (!cli) return 2;
  const std::string tx_path = cli->arg(0, "moongen_tx.pcap");
  const std::string rx_path = tx_path + ".rx";

  {
    auto tb = make_pair(cli->seed, 31);
    auto& a = tb->port("a");
    auto& b = tb->port("b");

    cap::PcapWriter tx_writer(tx_path);
    cap::TxTee tee(a, tx_writer);  // everything leaving port A
    cap::PcapWriter rx_writer(rx_path);
    cap::capture_rx(b, 0, rx_writer);  // everything reaching port B's queue

    mc::UdpTemplateOptions opts;
    opts.frame_size = 96;
    auto gen = mc::SimLoadGen::crc_paced(a.tx_queue(0), mc::make_udp_frame(opts),
                                         std::make_unique<mc::CbrPattern>(0.5), 10'000);
    tb->run_until(2 * ms::kPsPerMs);

    std::printf("captured %llu TX frames (incl. invalid gap frames) -> %s\n",
                static_cast<unsigned long long>(tx_writer.packets_written()), tx_path.c_str());
    std::printf("captured %llu RX frames (valid only)               -> %s\n",
                static_cast<unsigned long long>(rx_writer.packets_written()), rx_path.c_str());
    std::printf("hardware dropped %llu invalid frames at the receiver\n\n",
                static_cast<unsigned long long>(b.stats().crc_errors));
  }

  // Replay: read the RX capture and push it through a fresh port pair.
  const auto frames = cap::load_frames(rx_path);
  std::printf("replaying %zu frames from %s...\n", frames.size(), rx_path.c_str());
  auto tb = make_pair(cli->seed, 41);
  auto& a = tb->port("a");
  for (const auto& frame : frames) a.tx_queue(0).post(frame);
  tb->engine().run();
  std::printf("replay delivered %llu packets\n",
              static_cast<unsigned long long>(tb->port("b").stats().rx_packets));

  std::remove(tx_path.c_str());
  std::remove(rx_path.c_str());
  return 0;
}
