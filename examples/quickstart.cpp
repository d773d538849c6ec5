// Quickstart: generate UDP load on one queue and count it on a peer
// device, end to end, in ~60 lines.
//
// This is the "hello world" of the library: the fast-path equivalent of a
// minimal MoonGen userscript. Two virtual devices are connected by a
// loopback cable; a transmit task crafts packets from a pre-filled mempool
// (only the source IP changes per packet, as in the paper's Listing 2) and
// a receive task counts them.
#include <cstdio>
#include <iostream>
#include <thread>

#include "core/device.hpp"
#include "core/field_modifier.hpp"
#include "core/task.hpp"
#include "membuf/buf_array.hpp"
#include "membuf/mempool.hpp"
#include "proto/packet_view.hpp"
#include "stats/counters.hpp"

namespace mc = moongen::core;
namespace mb = moongen::membuf;
namespace mp = moongen::proto;
namespace st = moongen::stats;

namespace {

constexpr std::size_t kPktSize = 60;

void load_slave(mc::TxQueue& queue, const mc::RunState& run) {
  // Pool of pre-filled UDP packets: the transmit loop only touches the
  // source address.
  mb::Mempool pool(2048, [](mb::PktBuf& buf) {
    buf.set_length(kPktSize);
    mp::UdpPacketView view{buf.bytes()};
    mp::UdpFillOptions opts;
    opts.packet_length = kPktSize;
    opts.eth_dst = mp::MacAddress::parse("10:11:12:13:14:15").value();
    opts.ip_dst = mp::IPv4Address::parse("192.168.1.1").value();
    opts.udp_src = 1234;
    opts.udp_dst = 319;
    view.fill(opts);
  });
  mb::BufArray bufs(pool, 64);
  mc::Tausworthe rng(42);
  const auto base_ip = mp::IPv4Address::parse("10.0.0.1").value();

  st::ManualTxCounter ctr("tx", st::Format::kPlain, st::wall_clock(), &std::cout);
  while (run.running()) {
    bufs.alloc(kPktSize);
    for (auto* buf : bufs) {
      mp::UdpPacketView pkt{buf->bytes()};
      pkt.ip().set_src(base_ip + rng.next() % 255);
    }
    bufs.offload_udp_checksums();
    const auto sent = queue.send(bufs);
    ctr.update_with_size(sent, kPktSize);
  }
  ctr.finalize();
}

void counter_slave(mc::RxQueue& queue, const mc::RunState& run) {
  mb::BufArray bufs(128);
  st::PktRxCounter ctr("rx", st::Format::kPlain, st::wall_clock(), &std::cout);
  while (run.running()) {
    const auto n = queue.recv(bufs);
    for (std::size_t i = 0; i < n; ++i) ctr.count_packet(bufs[i]->length());
    bufs.free_all();
    if (n == 0) std::this_thread::yield();  // be polite on small hosts
  }
  ctr.finalize();
}

}  // namespace

int main() {
  std::printf("quickstart: 3 seconds of UDP load over a loopback pair\n");
  // A device table and run state of this experiment's own, in place of the
  // process-global ones: two experiments in one process can neither share
  // devices nor stop each other.
  mc::DeviceTable devices;
  auto& tx_dev = devices.config(0, 1, 1);
  auto& rx_dev = devices.config(1, 1, 1);
  tx_dev.connect_to(rx_dev);
  mc::Device::wait_for_links();

  mc::RunState run;
  mc::TaskSet tasks;
  tasks.launch("load", load_slave, std::ref(tx_dev.get_tx_queue(0)), std::cref(run));
  tasks.launch("counter", counter_slave, std::ref(rx_dev.get_rx_queue(0)), std::cref(run));
  run.stop_after(3.0);
  tasks.wait();
  return 0;
}
