#include "script/bindings.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <iostream>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "core/device.hpp"
#include "core/task.hpp"
#include "membuf/buf_array.hpp"
#include "membuf/mempool.hpp"
#include "proto/packet_view.hpp"
#include "script/parser.hpp"
#include "stats/counters.hpp"

namespace moongen::script {

namespace {

// ---------------------------------------------------------------------------
// Bound object wrappers
// ---------------------------------------------------------------------------

struct QueueRef {
  core::Device* dev = nullptr;
  core::TxQueue* tx = nullptr;
  core::RxQueue* rx = nullptr;
};

struct PacketRef {
  explicit PacketRef(membuf::PktBuf* b) : buf(b) {}
  membuf::PktBuf* buf = nullptr;
  // Identity-stable child accessors. `buf` is fixed for the lifetime of a
  // PacketRef, so `buf:getUdpPacket()`, `.ip`, `.udp`, `.src` and `.dst`
  // can hand out the same wrapper on every access (like LuaJIT cdata views
  // in the original) instead of allocating a fresh one per packet.
  Value udp_packet;
  Value ip_hdr;
  Value udp_hdr;
  Value src_addr;
  Value dst_addr;
};

struct AddrRef {
  membuf::PktBuf* buf = nullptr;
  bool dst = false;
};

/// Script-side bufArray: the array plus identity-stable `buf` wrappers
/// keyed by the underlying PktBuf*. Mempools recycle the same buffers
/// batch after batch (TX frees with a one-batch lag, so two buffer sets
/// alternate), and keying by pointer makes every recycled buffer hit its
/// existing wrapper — the steady-state allocates nothing per packet.
struct BufArrayCache {
  template <typename... Args>
  explicit BufArrayCache(Args&&... args) : array(std::forward<Args>(args)...) {}
  membuf::BufArray array;
  std::unordered_map<membuf::PktBuf*, Value> elems;
};

struct CounterRef {
  std::unique_ptr<stats::RateCounter> counter;
  bool is_rx = false;
};

// Method tables are process-lifetime singletons.
MethodTable& device_methods();
MethodTable& tx_queue_methods();
MethodTable& rx_queue_methods();
MethodTable& mempool_methods();
MethodTable& buf_array_methods();
MethodTable& buf_methods();
MethodTable& udp_packet_methods();
MethodTable& ip_header_methods();
MethodTable& udp_header_methods();
MethodTable& addr_methods();
MethodTable& counter_methods();

template <typename T>
Value wrap(const MethodTable& table, std::shared_ptr<T> handle) {
  T* ptr = handle.get();
  return Value(std::make_shared<UserData>(&table, std::shared_ptr<void>(std::move(handle)), ptr));
}

Value wrap_queue(core::Device* dev, core::TxQueue* tx, core::RxQueue* rx) {
  auto ref = std::make_shared<QueueRef>(QueueRef{dev, tx, rx});
  return wrap(tx != nullptr ? tx_queue_methods() : rx_queue_methods(), std::move(ref));
}

/// Wraps a packet buffer as the script-visible `buf` object.
Value wrap_packet(membuf::PktBuf* buf) {
  auto ref = std::make_shared<PacketRef>(buf);
  return wrap(buf_methods(), std::move(ref));
}

/// Wraps a BufArrayCache so that `as<membuf::BufArray>()` keeps working:
/// the userdata pointer targets the inner array, the handle owns the cache.
Value wrap_buf_array(std::shared_ptr<BufArrayCache> cache) {
  membuf::BufArray* ptr = &cache->array;
  return Value(std::make_shared<UserData>(&buf_array_methods(),
                                         std::shared_ptr<void>(std::move(cache)), ptr));
}

std::vector<Value> no_values() { return {}; }

/// `dev:getTxQueue(i)` / `dev:getRxQueue(i)` index, checked against the
/// device's queue count so a bad index is a script error, not a C++ one.
int queue_index(const std::vector<Value>& args, const core::Device& dev, bool tx,
                const char* what) {
  const double i = arg_number(args, 0, what);
  const int count = tx ? dev.num_tx_queues() : dev.num_rx_queues();
  if (!(i >= 0 && i < count)) {
    throw ScriptError(std::string(what) + ": queue " + Value(i).to_display_string() +
                      " out of range (device " + std::to_string(dev.id()) + " has " +
                      std::to_string(count) + (tx ? " tx" : " rx") + " queues)");
  }
  return static_cast<int>(i);
}

proto::MacAddress mac_from_value(const Value& v, const char* what) {
  if (v.is_string()) {
    auto mac = proto::MacAddress::parse(v.as_string());
    if (!mac) throw ScriptError(std::string(what) + ": bad MAC '" + v.as_string() + "'");
    return *mac;
  }
  if (v.is_userdata() && v.as_userdata()->methods() == &tx_queue_methods()) {
    // `ethSrc = queue`: take the MAC from the queue's device (Listing 2).
    return v.as_userdata()->as<QueueRef>()->dev->mac();
  }
  if (v.is_number()) return proto::MacAddress::from_uint64(static_cast<std::uint64_t>(v.as_number()));
  throw ScriptError(std::string(what) + ": expected MAC string, number or queue");
}

proto::IPv4Address ip_from_value(const Value& v, const char* what) {
  if (v.is_string()) {
    auto ip = proto::IPv4Address::parse(v.as_string());
    if (!ip) throw ScriptError(std::string(what) + ": bad IP '" + v.as_string() + "'");
    return *ip;
  }
  if (v.is_number()) return proto::IPv4Address{static_cast<std::uint32_t>(v.as_number())};
  throw ScriptError(std::string(what) + ": expected IP string or number");
}

// ---------------------------------------------------------------------------
// Method tables
// ---------------------------------------------------------------------------

MethodTable& device_methods() {
  static MethodTable table = [] {
    MethodTable t;
    t.type_name = "device";
    t.methods["getTxQueue"] = [](Interpreter&, UserData& self, std::vector<Value>& args) {
      auto* dev = self.as<core::Device>();
      const int i = queue_index(args, *dev, true, "getTxQueue");
      return std::vector<Value>{wrap_queue(dev, &dev->get_tx_queue(i), nullptr)};
    };
    t.methods["getRxQueue"] = [](Interpreter&, UserData& self, std::vector<Value>& args) {
      auto* dev = self.as<core::Device>();
      const int i = queue_index(args, *dev, false, "getRxQueue");
      return std::vector<Value>{wrap_queue(dev, nullptr, &dev->get_rx_queue(i))};
    };
    t.methods["connectTo"] = [](Interpreter&, UserData& self, std::vector<Value>& args) {
      auto peer = arg_userdata(args, 0, "connectTo", &device_methods());
      self.as<core::Device>()->connect_to(*peer->as<core::Device>());
      return no_values();
    };
    t.methods["getMac"] = [](Interpreter&, UserData& self, std::vector<Value>&) {
      return std::vector<Value>{Value(self.as<core::Device>()->mac().to_string())};
    };
    return t;
  }();
  return table;
}

MethodTable& tx_queue_methods() {
  static MethodTable table = [] {
    MethodTable t;
    t.type_name = "txQueue";
    t.methods["setRate"] = [](Interpreter&, UserData& self, std::vector<Value>& args) {
      self.as<QueueRef>()->tx->set_rate_mbit(arg_number(args, 0, "setRate"));
      return no_values();
    };
    // Exactly one result: register the single-result fast path too, with
    // the vector protocol wrapping the same core (identical behaviour).
    const Method1 send1 = [](Interpreter&, UserData& self, std::vector<Value>& args) -> Value {
      auto bufs = arg_userdata(args, 0, "send", &buf_array_methods());
      const auto n = self.as<QueueRef>()->tx->send(*bufs->as<membuf::BufArray>());
      return Value(static_cast<double>(n));
    };
    t.methods1["send"] = send1;
    t.methods["send"] = [send1](Interpreter& interp, UserData& self, std::vector<Value>& args) {
      return std::vector<Value>{send1(interp, self, args)};
    };
    return t;
  }();
  return table;
}

MethodTable& rx_queue_methods() {
  static MethodTable table = [] {
    MethodTable t;
    t.type_name = "rxQueue";
    t.methods["recv"] = [](Interpreter&, UserData& self, std::vector<Value>& args) {
      auto bufs = arg_userdata(args, 0, "recv", &buf_array_methods());
      const auto n = self.as<QueueRef>()->rx->recv(*bufs->as<membuf::BufArray>());
      return std::vector<Value>{Value(static_cast<double>(n))};
    };
    return t;
  }();
  return table;
}

MethodTable& mempool_methods() {
  static MethodTable table = [] {
    MethodTable t;
    t.type_name = "mempool";
    t.methods["bufArray"] = [](Interpreter&, UserData& self, std::vector<Value>& args) {
      const std::size_t n =
          args.empty() ? membuf::BufArray::kDefaultBatch
                       : static_cast<std::size_t>(arg_number(args, 0, "bufArray"));
      auto bufs = std::make_shared<BufArrayCache>(*self.as<membuf::Mempool>(), n);
      return std::vector<Value>{wrap_buf_array(std::move(bufs))};
    };
    return t;
  }();
  return table;
}

MethodTable& buf_array_methods() {
  static MethodTable table = [] {
    MethodTable t;
    t.type_name = "bufArray";
    const Method1 alloc1 = [](Interpreter&, UserData& self, std::vector<Value>& args) -> Value {
      const auto size = static_cast<std::size_t>(arg_number(args, 0, "alloc"));
      const auto n = self.as<membuf::BufArray>()->alloc(size);
      return Value(static_cast<double>(n));
    };
    t.methods1["alloc"] = alloc1;
    t.methods["alloc"] = [alloc1](Interpreter& interp, UserData& self, std::vector<Value>& args) {
      return std::vector<Value>{alloc1(interp, self, args)};
    };
    t.methods["freeAll"] = [](Interpreter&, UserData& self, std::vector<Value>&) {
      self.as<membuf::BufArray>()->free_all();
      return no_values();
    };
    t.methods["offloadUdpChecksums"] = [](Interpreter&, UserData& self, std::vector<Value>&) {
      self.as<membuf::BufArray>()->offload_udp_checksums();
      return no_values();
    };
    t.methods["offloadIPChecksums"] = [](Interpreter&, UserData& self, std::vector<Value>&) {
      self.as<membuf::BufArray>()->offload_ip_checksums();
      return no_values();
    };
    t.methods["offloadTcpChecksums"] = [](Interpreter&, UserData& self, std::vector<Value>&) {
      self.as<membuf::BufArray>()->offload_tcp_checksums();
      return no_values();
    };
    t.methods["__len"] = [](Interpreter&, UserData& self, std::vector<Value>&) {
      return std::vector<Value>{
          Value(static_cast<double>(self.as<membuf::BufArray>()->size()))};
    };
    t.index_number = [](Interpreter&, UserData& self, double index) -> Value {
      auto* cache = static_cast<BufArrayCache*>(self.handle().get());
      auto& bufs = cache->array;
      const auto i = static_cast<std::size_t>(index);
      if (i < 1 || i > bufs.size()) return Value();  // 1-based, nil past end
      membuf::PktBuf* buf = bufs[i - 1];
      Value& slot = cache->elems[buf];
      if (slot.is_nil()) slot = wrap_packet(buf);
      return slot;
    };
    // ipairs over this type yields per-packet views: the trace specializer
    // may turn a hot loop over it into a field-modifier kernel.
    t.packet_array = true;
    return t;
  }();
  return table;
}

MethodTable& buf_methods() {
  static MethodTable table = [] {
    MethodTable t;
    t.type_name = "buf";
    const Method1 get_udp1 = [](Interpreter&, UserData& self, std::vector<Value>&) -> Value {
      auto* ref = self.as<PacketRef>();
      if (ref->udp_packet.is_nil()) {
        ref->udp_packet = wrap(udp_packet_methods(), std::make_shared<PacketRef>(ref->buf));
      }
      return ref->udp_packet;
    };
    t.methods1["getUdpPacket"] = get_udp1;
    t.methods["getUdpPacket"] = [get_udp1](Interpreter& interp, UserData& self,
                                           std::vector<Value>& args) {
      return std::vector<Value>{get_udp1(interp, self, args)};
    };
    t.methods["getLength"] = [](Interpreter&, UserData& self, std::vector<Value>&) {
      return std::vector<Value>{
          Value(static_cast<double>(self.as<PacketRef>()->buf->length()))};
    };
    // Trace tags (specializer.hpp): getUdpPacket hands out a view over the
    // same packet bytes.
    t.trace_tags["getUdpPacket"] = TraceTag{TraceTag::Kind::kDeref, false, false, 0, 0};
    return t;
  }();
  return table;
}

MethodTable& addr_methods() {
  static MethodTable table = [] {
    MethodTable t;
    t.type_name = "ipAddr";
    // No results: the single-result variant returns nil, which is exactly
    // what fixed-result-count sites would pad with.
    const Method1 set1 = [](Interpreter&, UserData& self, std::vector<Value>& args) -> Value {
      auto* ref = self.as<AddrRef>();
      proto::UdpPacketView view{ref->buf->bytes()};
      const auto addr = proto::IPv4Address{
          static_cast<std::uint32_t>(arg_number(args, 0, "ip.src:set"))};
      if (ref->dst) {
        view.ip().set_dst(addr);
      } else {
        view.ip().set_src(addr);
      }
      return Value();
    };
    t.methods1["set"] = set1;
    t.methods["set"] = [set1](Interpreter& interp, UserData& self, std::vector<Value>& args) {
      set1(interp, self, args);
      return no_values();
    };
    t.methods["get"] = [](Interpreter&, UserData& self, std::vector<Value>&) {
      auto* ref = self.as<AddrRef>();
      proto::UdpPacketView view{ref->buf->bytes()};
      const auto addr = ref->dst ? view.ip().dst() : view.ip().src();
      return std::vector<Value>{Value(static_cast<double>(addr.value))};
    };
    t.methods["getString"] = [](Interpreter&, UserData& self, std::vector<Value>&) {
      auto* ref = self.as<AddrRef>();
      proto::UdpPacketView view{ref->buf->bytes()};
      const auto addr = ref->dst ? view.ip().dst() : view.ip().src();
      return std::vector<Value>{Value(addr.to_string())};
    };
    // set() writes the field the deref chain selected (.src or .dst).
    t.trace_tags["set"] = TraceTag{TraceTag::Kind::kWrite, false, true, 0, 0};
    return t;
  }();
  return table;
}

MethodTable& ip_header_methods() {
  static MethodTable table = [] {
    MethodTable t;
    t.type_name = "ipHeader";
    t.index = [](Interpreter&, UserData& self, const std::string& field) -> Value {
      auto* ref = self.as<PacketRef>();
      if (field == "src" || field == "dst") {
        const bool dst = field == "dst";
        Value& slot = dst ? ref->dst_addr : ref->src_addr;
        if (slot.is_nil()) {
          slot = wrap(addr_methods(), std::make_shared<AddrRef>(AddrRef{ref->buf, dst}));
        }
        return slot;
      }
      return Value();
    };
    t.methods["setTTL"] = [](Interpreter&, UserData& self, std::vector<Value>& args) {
      proto::UdpPacketView view{self.as<PacketRef>()->buf->bytes()};
      view.ip().ttl = static_cast<std::uint8_t>(arg_number(args, 0, "setTTL"));
      return no_values();
    };
    t.methods["getTTL"] = [](Interpreter&, UserData& self, std::vector<Value>&) {
      proto::UdpPacketView view{self.as<PacketRef>()->buf->bytes()};
      return std::vector<Value>{Value(static_cast<double>(view.ip().ttl))};
    };
    // Byte offsets into the full frame: Ethernet 14 + IPv4 field offsets.
    t.trace_tags["src"] = TraceTag{TraceTag::Kind::kDeref, true, false, 26, 4};
    t.trace_tags["dst"] = TraceTag{TraceTag::Kind::kDeref, true, false, 30, 4};
    t.trace_tags["setTTL"] = TraceTag{TraceTag::Kind::kWrite, false, false, 22, 1};
    return t;
  }();
  return table;
}

MethodTable& udp_header_methods() {
  static MethodTable table = [] {
    MethodTable t;
    t.type_name = "udpHeader";
    t.methods["getDstPort"] = [](Interpreter&, UserData& self, std::vector<Value>&) {
      proto::UdpPacketView view{self.as<PacketRef>()->buf->bytes()};
      return std::vector<Value>{Value(static_cast<double>(view.udp().dst_port()))};
    };
    t.methods["getSrcPort"] = [](Interpreter&, UserData& self, std::vector<Value>&) {
      proto::UdpPacketView view{self.as<PacketRef>()->buf->bytes()};
      return std::vector<Value>{Value(static_cast<double>(view.udp().src_port()))};
    };
    t.methods["setDstPort"] = [](Interpreter&, UserData& self, std::vector<Value>& args) {
      proto::UdpPacketView view{self.as<PacketRef>()->buf->bytes()};
      view.udp().set_dst_port(static_cast<std::uint16_t>(arg_number(args, 0, "setDstPort")));
      return no_values();
    };
    t.methods["setSrcPort"] = [](Interpreter&, UserData& self, std::vector<Value>& args) {
      proto::UdpPacketView view{self.as<PacketRef>()->buf->bytes()};
      view.udp().set_src_port(static_cast<std::uint16_t>(arg_number(args, 0, "setSrcPort")));
      return no_values();
    };
    // Ethernet 14 + IPv4 20 = UDP header at 34.
    t.trace_tags["setSrcPort"] = TraceTag{TraceTag::Kind::kWrite, false, false, 34, 2};
    t.trace_tags["setDstPort"] = TraceTag{TraceTag::Kind::kWrite, false, false, 36, 2};
    return t;
  }();
  return table;
}

MethodTable& udp_packet_methods() {
  static MethodTable table = [] {
    MethodTable t;
    t.type_name = "udpPacket";
    t.methods["fill"] = [](Interpreter&, UserData& self, std::vector<Value>& args) {
      auto* ref = self.as<PacketRef>();
      auto opts_table = arg_table(args, 0, "fill");
      proto::UdpFillOptions opts;
      opts.packet_length = ref->buf->length();
      const Value len = opts_table->get(Table::Key{"pktLength"});
      if (len.is_number()) {
        opts.packet_length = static_cast<std::size_t>(len.as_number());
        ref->buf->set_length(opts.packet_length);
      }
      const Value eth_src = opts_table->get(Table::Key{"ethSrc"});
      if (!eth_src.is_nil()) opts.eth_src = mac_from_value(eth_src, "fill.ethSrc");
      const Value eth_dst = opts_table->get(Table::Key{"ethDst"});
      if (!eth_dst.is_nil()) opts.eth_dst = mac_from_value(eth_dst, "fill.ethDst");
      const Value ip_src = opts_table->get(Table::Key{"ipSrc"});
      if (!ip_src.is_nil()) opts.ip_src = ip_from_value(ip_src, "fill.ipSrc");
      const Value ip_dst = opts_table->get(Table::Key{"ipDst"});
      if (!ip_dst.is_nil()) opts.ip_dst = ip_from_value(ip_dst, "fill.ipDst");
      const Value udp_src = opts_table->get(Table::Key{"udpSrc"});
      if (udp_src.is_number()) opts.udp_src = static_cast<std::uint16_t>(udp_src.as_number());
      const Value udp_dst = opts_table->get(Table::Key{"udpDst"});
      if (udp_dst.is_number()) opts.udp_dst = static_cast<std::uint16_t>(udp_dst.as_number());
      proto::UdpPacketView view{ref->buf->bytes()};
      view.fill(opts);
      return no_values();
    };
    t.index = [](Interpreter&, UserData& self, const std::string& field) -> Value {
      auto* ref = self.as<PacketRef>();
      if (field == "ip") {
        if (ref->ip_hdr.is_nil()) {
          ref->ip_hdr = wrap(ip_header_methods(), std::make_shared<PacketRef>(ref->buf));
        }
        return ref->ip_hdr;
      }
      if (field == "udp") {
        if (ref->udp_hdr.is_nil()) {
          ref->udp_hdr = wrap(udp_header_methods(), std::make_shared<PacketRef>(ref->buf));
        }
        return ref->udp_hdr;
      }
      return Value();
    };
    // .ip and .udp are views over the same packet bytes.
    t.trace_tags["ip"] = TraceTag{TraceTag::Kind::kDeref, false, false, 0, 0};
    t.trace_tags["udp"] = TraceTag{TraceTag::Kind::kDeref, false, false, 0, 0};
    return t;
  }();
  return table;
}

MethodTable& counter_methods() {
  static MethodTable table = [] {
    MethodTable t;
    t.type_name = "counter";
    t.methods["updateWithSize"] = [](Interpreter&, UserData& self, std::vector<Value>& args) {
      auto* ref = self.as<CounterRef>();
      auto* ctr = dynamic_cast<stats::ManualTxCounter*>(ref->counter.get());
      if (ctr == nullptr) throw ScriptError("updateWithSize: not a TX counter");
      ctr->update_with_size(static_cast<std::uint64_t>(arg_number(args, 0, "updateWithSize")),
                            static_cast<std::size_t>(arg_number(args, 1, "updateWithSize")));
      return no_values();
    };
    t.methods["countPacket"] = [](Interpreter&, UserData& self, std::vector<Value>& args) {
      auto* ref = self.as<CounterRef>();
      auto* ctr = dynamic_cast<stats::PktRxCounter*>(ref->counter.get());
      if (ctr == nullptr) throw ScriptError("countPacket: not an RX counter");
      auto buf = arg_userdata(args, 0, "countPacket", &buf_methods());
      ctr->count_packet(buf->as<PacketRef>()->buf->length());
      return no_values();
    };
    t.methods["finalize"] = [](Interpreter&, UserData& self, std::vector<Value>&) {
      self.as<CounterRef>()->counter->finalize();
      return no_values();
    };
    return t;
  }();
  return table;
}

}  // namespace

// ---------------------------------------------------------------------------
// ScriptRuntime and module installation
// ---------------------------------------------------------------------------

struct ScriptRuntime::Shared {
  std::shared_ptr<const Program> program;
  std::mutex mutex;
  std::vector<std::thread> slaves;
  std::atomic<std::size_t> launched{0};
  std::atomic<int> next_core{1};
  // As in DPDK, a mempool lives until the application ends: bufArrays and
  // TX rings point into it after the script drops its last handle.
  // ~ScriptRuntime resets these devices' TX queues before the pools go.
  std::vector<std::shared_ptr<membuf::Mempool>> pools;
  std::vector<core::Device*> devices;
};

namespace {

/// Joins every slave launched so far (mg.waitForSlaves, ScriptRuntime::wait).
void join_slaves(ScriptRuntime::Shared& shared) {
  std::vector<std::thread> taken;
  {
    std::scoped_lock lock(shared.mutex);
    taken.swap(shared.slaves);
  }
  for (auto& t : taken) {
    if (t.joinable()) t.join();
  }
}

void install_modules(Interpreter& interp, const std::shared_ptr<ScriptRuntime::Shared>& shared) {
  // device module.
  auto device_module = std::make_shared<Table>();
  device_module->set(
      Table::Key{"config"},
      make_native("device.config", [shared](Interpreter&, std::vector<Value>& args) {
        const int id = static_cast<int>(arg_number(args, 0, "device.config"));
        const int rxq = args.size() > 1 ? static_cast<int>(arg_number(args, 1, "device.config")) : 1;
        const int txq = args.size() > 2 ? static_cast<int>(arg_number(args, 2, "device.config")) : 1;
        auto& dev = core::DeviceTable::process_default().config(id, rxq, txq);
        std::scoped_lock lock(shared->mutex);
        if (std::ranges::find(shared->devices, &dev) == shared->devices.end())
          shared->devices.push_back(&dev);
        return std::vector<Value>{Value(std::make_shared<UserData>(
            &device_methods(), std::shared_ptr<void>(), &dev))};
      }));
  device_module->set(Table::Key{"waitForLinks"},
                     make_native("device.waitForLinks", [](Interpreter&, std::vector<Value>&) {
                       core::Device::wait_for_links();
                       return no_values();
                     }));
  interp.set_global("device", Value(device_module));

  // memory module.
  auto memory_module = std::make_shared<Table>();
  memory_module->set(
      Table::Key{"createMemPool"},
      make_native("memory.createMemPool", [shared](Interpreter& in, std::vector<Value>& args) {
        Value init = args.empty() ? Value() : args[0];
        auto pool = std::make_shared<membuf::Mempool>(
            2048, [&in, &init](membuf::PktBuf& buf) {
              if (!init.is_callable()) return;
              buf.set_length(60);
              std::vector<Value> cb_args{wrap_packet(&buf)};
              in.call(init, std::move(cb_args));
            });
        std::scoped_lock lock(shared->mutex);
        shared->pools.push_back(pool);
        return std::vector<Value>{wrap(mempool_methods(), std::move(pool))};
      }));
  memory_module->set(Table::Key{"bufArray"},
                     make_native("memory.bufArray", [](Interpreter&, std::vector<Value>& args) {
                       const std::size_t n =
                           args.empty() ? membuf::BufArray::kDefaultBatch
                                        : static_cast<std::size_t>(
                                              arg_number(args, 0, "memory.bufArray"));
                       auto bufs = std::make_shared<BufArrayCache>(n);
                       return std::vector<Value>{wrap_buf_array(std::move(bufs))};
                     }));
  interp.set_global("memory", Value(memory_module));

  // stats module. The paper writes `stats:newManualTxCounter(...)` (colon),
  // so the functions must tolerate a leading self argument.
  auto stats_module = std::make_shared<Table>();
  auto new_counter = [](bool rx) {
    return [rx](Interpreter&, std::vector<Value>& args) {
      // Skip a leading table argument (module called with ':').
      std::size_t base = (!args.empty() && args[0].is_table()) ? 1 : 0;
      std::string name = args.size() > base && args[base].is_string()
                             ? args[base].as_string()
                             : (args.size() > base ? args[base].to_display_string() : "ctr");
      std::string format = args.size() > base + 1 && args[base + 1].is_string()
                               ? args[base + 1].as_string()
                               : "CSV";
      const auto fmt = format == "plain" ? stats::Format::kPlain : stats::Format::kCsv;
      auto ref = std::make_shared<CounterRef>();
      ref->is_rx = rx;
      if (rx) {
        ref->counter = std::make_unique<stats::PktRxCounter>(name, fmt, stats::wall_clock(),
                                                             &std::cout);
      } else {
        ref->counter = std::make_unique<stats::ManualTxCounter>(name, fmt, stats::wall_clock(),
                                                                &std::cout);
      }
      return std::vector<Value>{wrap(counter_methods(), std::move(ref))};
    };
  };
  stats_module->set(Table::Key{"newManualTxCounter"},
                    make_native("stats.newManualTxCounter", new_counter(false)));
  stats_module->set(Table::Key{"newPktRxCounter"},
                    make_native("stats.newPktRxCounter", new_counter(true)));
  interp.set_global("stats", Value(stats_module));

  // dpdk module.
  auto dpdk_module = std::make_shared<Table>();
  dpdk_module->set(Table::Key{"running"},
                   make_native("dpdk.running", [](Interpreter&, std::vector<Value>&) {
                     return std::vector<Value>{Value(core::running())};
                   }));
  interp.set_global("dpdk", Value(dpdk_module));

  // mg module: task control.
  auto mg_module = std::make_shared<Table>();
  mg_module->set(
      Table::Key{"launchLua"},
      make_native("mg.launchLua", [shared](Interpreter&, std::vector<Value>& args) {
        const std::string fn_name = arg_string(args, 0, "mg.launchLua");
        std::vector<Value> slave_args(args.begin() + 1, args.end());
        std::scoped_lock lock(shared->mutex);
        const int core = shared->next_core.fetch_add(1);
        shared->launched.fetch_add(1);
        shared->slaves.emplace_back([shared, fn_name, slave_args = std::move(slave_args),
                                     core]() mutable {
          core::pin_to_core(core);
          // An exception must not leave the thread (std::terminate): any
          // failure, script-level or C++, is reported and ends this slave.
          try {
            // A fresh, completely independent interpreter per slave task
            // (paper Section 3.4); only the chunk is shared.
            Interpreter slave(shared->program);
            install_modules(slave, shared);
            slave.run();  // define the chunk's functions
            slave.call_global(fn_name, std::move(slave_args));
          } catch (const std::exception& e) {
            std::cerr << "slave '" << fn_name << "' failed: " << e.what() << "\n";
          }
        });
        return no_values();
      }));
  mg_module->set(Table::Key{"waitForSlaves"},
                 make_native("mg.waitForSlaves", [shared](Interpreter&, std::vector<Value>&) {
                   join_slaves(*shared);
                   return no_values();
                 }));
  mg_module->set(Table::Key{"sleepMillis"},
                 make_native("mg.sleepMillis", [](Interpreter&, std::vector<Value>& args) {
                   std::this_thread::sleep_for(std::chrono::milliseconds(
                       static_cast<long>(arg_number(args, 0, "mg.sleepMillis"))));
                   return no_values();
                 }));
  mg_module->set(Table::Key{"stop"}, make_native("mg.stop", [](Interpreter&, std::vector<Value>&) {
                   core::request_stop();
                   return no_values();
                 }));
  mg_module->set(Table::Key{"stopAfter"},
                 make_native("mg.stopAfter", [](Interpreter&, std::vector<Value>& args) {
                   core::stop_after(arg_number(args, 0, "mg.stopAfter"));
                   return no_values();
                 }));
  interp.set_global("mg", Value(mg_module));

  // Free functions of the MoonGen API.
  interp.set_global("parseIPAddress",
                    make_native("parseIPAddress", [](Interpreter&, std::vector<Value>& args) {
                      const std::string text = arg_string(args, 0, "parseIPAddress");
                      auto ip = proto::IPv4Address::parse(text);
                      if (!ip) throw ScriptError("parseIPAddress: bad address '" + text + "'");
                      return std::vector<Value>{Value(static_cast<double>(ip->value))};
                    }));
}

}  // namespace

ScriptRuntime::ScriptRuntime(std::string_view source)
    : program_(parse(source)), shared_(std::make_shared<Shared>()) {
  shared_->program = program_;
  master_ = std::make_unique<Interpreter>(program_);
  install_modules(*master_, shared_);
}

ScriptRuntime::~ScriptRuntime() {
  wait();
  // The devices outlive this runtime; drop the batches their TX queues
  // still hold before shared_ releases the pools (after master_).
  for (core::Device* dev : shared_->devices)
    for (int q = 0; q < dev->num_tx_queues(); ++q) dev->get_tx_queue(q).reset();
}

void ScriptRuntime::run_master(std::vector<Value> args) {
  master_->run();
  const Value master_fn = master_->get_global("master");
  if (!master_fn.is_callable()) throw ScriptError("script defines no master() function");
  master_->call(master_fn, std::move(args));
}

void ScriptRuntime::wait() { join_slaves(*shared_); }

std::size_t ScriptRuntime::slaves_launched() const { return shared_->launched.load(); }

}  // namespace moongen::script
