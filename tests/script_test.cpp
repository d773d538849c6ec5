// Tests for the embedded scripting language: lexer, parser, interpreter
// semantics, and the MoonGen bindings (the paper's Listings run as actual
// scripts).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/device.hpp"
#include "core/task.hpp"
#include "fault/fault.hpp"
#include "membuf/mempool.hpp"
#include "oracle/tree_walker.hpp"
#include "script/bindings.hpp"
#include "script/compiler.hpp"
#include "script/interpreter.hpp"
#include "script/lexer.hpp"
#include "script/parser.hpp"
#include "script/specializer.hpp"
#include "script/trace.hpp"
#include "script/vm.hpp"

namespace sc = moongen::script;
namespace so = moongen::script::oracle;
namespace mc = moongen::core;
namespace mb = moongen::membuf;
namespace mflt = moongen::fault;

namespace {

// The tree-walker (tests/oracle) is the reference semantics; the bytecode
// VM is the one production engine, and its trace tier records hot loops
// and runs them through specialized kernels (DESIGN.md sections 11 and
// 13). The trace engine uses threshold 2 so even short test loops get
// recorded, specialized, and — when a guard fails — deoptimized.
enum class Engine { kTreeWalk, kVmGeneric, kVmTrace };

const char* engine_name(Engine e) {
  switch (e) {
    case Engine::kTreeWalk: return "tree-walker";
    case Engine::kVmGeneric: return "generic VM";
    case Engine::kVmTrace: return "trace VM";
  }
  return "?";
}

/// Selects `engine` on `interp`. The tree-walker comes back as a walker
/// that runs the script and must outlive every call of its closures; the
/// VM engines return null.
std::unique_ptr<so::TreeWalker> configure_engine(sc::Interpreter& interp, Engine engine) {
  interp.set_trace(engine == Engine::kVmTrace);
  interp.set_trace_threshold(2);
  return engine == Engine::kTreeWalk ? std::make_unique<so::TreeWalker>(interp) : nullptr;
}

/// Runs the top level on `walker` if there is one, else on the VM.
void run_top_level(sc::Interpreter& interp, so::TreeWalker* walker) {
  if (walker != nullptr) {
    walker->run();
  } else {
    interp.run();
  }
}

/// ScriptRuntime::run_master(), with the top level on `walker` if given.
void run_master(sc::ScriptRuntime& runtime, so::TreeWalker* walker) {
  if (walker == nullptr) return runtime.run_master();
  walker->run();
  runtime.master().call_global("master", {});
}

struct EngineRun {
  bool ok = true;
  std::string error;
  std::string output;
  std::string result;
};

EngineRun run_engine(const std::string& source, Engine engine) {
  EngineRun r;
  testing::internal::CaptureStdout();
  try {
    sc::Interpreter interp(sc::parse(source));
    const auto walker = configure_engine(interp, engine);
    interp.set_step_limit(200'000);
    run_top_level(interp, walker.get());
    r.result = interp.get_global("result").to_display_string();
  } catch (const std::exception& e) {
    r.ok = false;
    r.error = e.what();
  }
  r.output = testing::internal::GetCapturedStdout();
  return r;
}

void expect_engines_agree(const std::string& source, const char* context) {
  const EngineRun tw = run_engine(source, Engine::kTreeWalk);
  for (const Engine engine : {Engine::kVmGeneric, Engine::kVmTrace}) {
    const EngineRun run = run_engine(source, engine);
    EXPECT_EQ(run.ok, tw.ok) << engine_name(engine) << ": " << context << "\n" << source;
    EXPECT_EQ(run.error, tw.error) << engine_name(engine) << ": " << context << "\n" << source;
    EXPECT_EQ(run.output, tw.output) << engine_name(engine) << ": " << context << "\n" << source;
    EXPECT_EQ(run.result, tw.result) << engine_name(engine) << ": " << context << "\n" << source;
  }
}

/// Runs a chunk and returns the value of global `result`, after requiring
/// every engine to agree on it (and on any error).
sc::Value eval(const std::string& source) {
  expect_engines_agree(source, "eval");
  sc::Interpreter interp(sc::parse(source));
  interp.set_step_limit(10'000'000);
  interp.run();
  return interp.get_global("result");
}

double eval_number(const std::string& source) {
  const auto v = eval(source);
  EXPECT_TRUE(v.is_number()) << source << " -> " << v.to_display_string();
  return v.is_number() ? v.as_number() : 0;
}

std::string eval_string(const std::string& source) {
  const auto v = eval(source);
  EXPECT_TRUE(v.is_string()) << source;
  return v.is_string() ? v.as_string() : "";
}

}  // namespace

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

TEST(ScriptLexer, TokenizesNumbersStringsNames) {
  const auto tokens = sc::tokenize("local x = 42 + 0x10 .. \"hi\\n\"");
  ASSERT_GE(tokens.size(), 8u);
  EXPECT_EQ(tokens[0].type, sc::TokenType::kLocal);
  EXPECT_EQ(tokens[1].text, "x");
  EXPECT_EQ(tokens[3].number, 42.0);
  EXPECT_EQ(tokens[5].number, 16.0);
  EXPECT_EQ(tokens[7].text, "hi\n");
}

TEST(ScriptLexer, SkipsCommentsAndTracksLines) {
  const auto tokens = sc::tokenize("-- comment\n--[[ long\ncomment ]]\nx");
  EXPECT_EQ(tokens[0].text, "x");
  EXPECT_EQ(tokens[0].line, 4);
}

TEST(ScriptLexer, RejectsUnterminatedString) {
  EXPECT_THROW(sc::tokenize("local s = \"oops"), sc::ScriptError);
}

TEST(ScriptLexer, MultiCharOperators) {
  const auto tokens = sc::tokenize("== ~= <= >= .. ...");
  EXPECT_EQ(tokens[0].type, sc::TokenType::kEq);
  EXPECT_EQ(tokens[1].type, sc::TokenType::kNe);
  EXPECT_EQ(tokens[2].type, sc::TokenType::kLe);
  EXPECT_EQ(tokens[3].type, sc::TokenType::kGe);
  EXPECT_EQ(tokens[4].type, sc::TokenType::kConcat);
  EXPECT_EQ(tokens[5].type, sc::TokenType::kEllipsis);
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

TEST(ScriptParser, RejectsSyntaxErrors) {
  EXPECT_THROW(sc::parse("if x then"), sc::ScriptError);        // missing end
  EXPECT_THROW(sc::parse("local = 3"), sc::ScriptError);        // missing name
  EXPECT_THROW(sc::parse("x +"), sc::ScriptError);              // incomplete expr
  EXPECT_THROW(sc::parse("1 + 2"), sc::ScriptError);            // expr not a statement
  EXPECT_THROW(sc::parse("for i = 1 do end"), sc::ScriptError); // missing stop
}

TEST(ScriptParser, AcceptsTheListingShapes) {
  // Shapes from the paper's Listings 1-3.
  EXPECT_NO_THROW(sc::parse(R"(
    function master(txPort, rxPort, fgRate, bgRate)
      local tDev = device.config(txPort, 1, 2)
      device.waitForLinks()
      tDev:getTxQueue(0):setRate(bgRate)
      mg.launchLua("loadSlave", tDev:getTxQueue(0), 42)
      mg.waitForSlaves()
    end
    function loadSlave(queue, port)
      local mem = memory.createMemPool(function(buf)
        buf:getUdpPacket():fill{
          pktLength = PKT_SIZE,
          ethSrc = queue,
          udpDst = port,
        }
      end)
      while dpdk.running() do
        bufs:alloc(PKT_SIZE)
        for _, buf in ipairs(bufs) do
          local pkt = buf:getUdpPacket()
          pkt.ip.src:set(baseIP + math.random(255) - 1)
        end
        bufs:offloadUdpChecksums()
        local sent = queue:send(bufs)
      end
    end
  )"));
}

// ---------------------------------------------------------------------------
// Interpreter semantics
// ---------------------------------------------------------------------------

TEST(ScriptInterp, ArithmeticAndPrecedence) {
  EXPECT_EQ(eval_number("result = 2 + 3 * 4"), 14);
  EXPECT_EQ(eval_number("result = (2 + 3) * 4"), 20);
  EXPECT_EQ(eval_number("result = 2 ^ 3 ^ 2"), 512);  // right associative
  EXPECT_EQ(eval_number("result = -2 ^ 2"), -4);      // unary below ^
  EXPECT_EQ(eval_number("result = 7 % 3"), 1);
  EXPECT_EQ(eval_number("result = -7 % 3"), 2);  // Lua modulo semantics
  EXPECT_EQ(eval_number("result = 10 / 4"), 2.5);
}

TEST(ScriptInterp, ComparisonAndLogic) {
  EXPECT_EQ(eval("result = 1 < 2 and 2 <= 2 and 3 > 2 and 3 >= 3").as_bool(), true);
  EXPECT_EQ(eval("result = 1 == 1.0").as_bool(), true);
  EXPECT_EQ(eval("result = 'a' ~= 'b'").as_bool(), true);
  // and/or return operands, not booleans.
  EXPECT_EQ(eval_number("result = false or 5"), 5);
  EXPECT_EQ(eval_number("result = nil and 3 or 7"), 7);
  EXPECT_EQ(eval_string("result = 'x' and 'y'"), "y");
}

// The compiler folds operators whose operands are literals, so these apply
// them to variables, which every engine evaluates at run time.
TEST(ScriptInterp, UnaryOperatorsOnVariables) {
  EXPECT_EQ(eval("local v = nil result = not v").as_bool(), true);
  EXPECT_EQ(eval("local v = false result = not v").as_bool(), true);
  EXPECT_EQ(eval("local v = 0 result = not v").as_bool(), false);
  EXPECT_EQ(eval("local v = 'x' result = not v").as_bool(), false);
  EXPECT_EQ(eval_number("local v = 3 result = -v"), -3);
  EXPECT_EQ(eval_number("local v = -2.5 result = -v"), 2.5);
}

TEST(ScriptInterp, StringComparisonOnVariables) {
  EXPECT_EQ(eval_string(R"(
    local a, b = "a", "b"
    local function cmp(x, y)
      return tostring(x < y) .. tostring(x <= y) .. tostring(x > y) .. tostring(x >= y)
    end
    result = cmp(a, b) .. "," .. cmp(b, a) .. "," .. cmp(a, a)
  )"), "truetruefalsefalse,falsefalsetruetrue,falsetruefalsetrue");
}

TEST(ScriptInterp, StringsAndConcat) {
  EXPECT_EQ(eval_string("result = 'a' .. 'b' .. 1"), "ab1");
  EXPECT_EQ(eval_number("result = #'hello'"), 5);
  EXPECT_EQ(eval_string("result = tostring(42)"), "42");
  EXPECT_EQ(eval_number("result = tonumber('3.5')"), 3.5);
  EXPECT_TRUE(eval("result = tonumber('zzz')").is_nil());
}

TEST(ScriptInterp, LocalScopingAndShadowing) {
  EXPECT_EQ(eval_number(R"(
    local x = 1
    do
      local x = 2
    end
    result = x
  )"), 1);
}

TEST(ScriptInterp, GlobalAssignmentFromFunction) {
  EXPECT_EQ(eval_number(R"(
    function set()
      g = 99
    end
    set()
    result = g
  )"), 99);
}

TEST(ScriptInterp, WhileAndBreak) {
  EXPECT_EQ(eval_number(R"(
    local i = 0
    while true do
      i = i + 1
      if i >= 10 then break end
    end
    result = i
  )"), 10);
}

TEST(ScriptInterp, RepeatUntil) {
  EXPECT_EQ(eval_number(R"(
    local n = 0
    repeat
      n = n + 1
    until n >= 3
    result = n
  )"), 3);
}

TEST(ScriptInterp, NumericForWithStep) {
  EXPECT_EQ(eval_number(R"(
    local sum = 0
    for i = 1, 10 do sum = sum + i end
    for i = 10, 1, -2 do sum = sum + 1 end
    result = sum
  )"), 60);
}

TEST(ScriptInterp, GenericForOverIpairs) {
  EXPECT_EQ(eval_number(R"(
    local t = {10, 20, 30}
    local sum = 0
    for i, v in ipairs(t) do sum = sum + i * v end
    result = sum
  )"), 10 + 40 + 90);
}

TEST(ScriptInterp, GenericForOverPairs) {
  EXPECT_EQ(eval_number(R"(
    local t = {a = 1, b = 2, c = 3}
    local sum = 0
    for k, v in pairs(t) do sum = sum + v end
    result = sum
  )"), 6);
}

TEST(ScriptInterp, FunctionsAndRecursion) {
  EXPECT_EQ(eval_number(R"(
    function fib(n)
      if n < 2 then return n end
      return fib(n - 1) + fib(n - 2)
    end
    result = fib(15)
  )"), 610);
}

TEST(ScriptInterp, ClosuresCaptureEnvironment) {
  EXPECT_EQ(eval_number(R"(
    local function counter()
      local n = 0
      return function()
        n = n + 1
        return n
      end
    end
    local c = counter()
    c()
    c()
    result = c()
  )"), 3);
}

TEST(ScriptInterp, MultipleReturnValues) {
  EXPECT_EQ(eval_number(R"(
    local function two()
      return 3, 4
    end
    local a, b = two()
    result = a * 10 + b
  )"), 34);
}

TEST(ScriptInterp, TablesRecordsAndArrays) {
  EXPECT_EQ(eval_number(R"(
    local t = { x = 1, [2] = 20, "first" }
    t.y = t.x + 10
    result = t.y + t[2] + #t
  )"), 11 + 20 + 2);  // t[1]="first", t[2]=20, so #t == 2
}

TEST(ScriptInterp, NestedTables) {
  EXPECT_EQ(eval_number(R"(
    local cfg = { inner = { value = 5 } }
    cfg.inner.value = cfg.inner.value + 1
    result = cfg.inner.value
  )"), 6);
}

TEST(ScriptInterp, MathLibrary) {
  EXPECT_EQ(eval_number("result = math.floor(3.7)"), 3);
  EXPECT_EQ(eval_number("result = math.max(1, 5, 3)"), 5);
  EXPECT_EQ(eval_number("result = math.min(4, 2)"), 2);
  // math.random(n) stays in [1, n].
  EXPECT_EQ(eval("result = (function()\n"
                 "  for i = 1, 1000 do\n"
                 "    local r = math.random(255)\n"
                 "    if r < 1 or r > 255 then return false end\n"
                 "  end\n"
                 "  return true\n"
                 "end)()").as_bool(),
            true);
}

TEST(ScriptInterp, StringFormat) {
  EXPECT_EQ(eval_string("result = string.format('%d pkts at %.2f Mpps', 42, 1.5)"),
            "42 pkts at 1.50 Mpps");
  EXPECT_EQ(eval_string("result = string.format('%s=%x', 'id', 255)"), "id=ff");
}

TEST(ScriptInterp, RuntimeErrorsCarryMessages) {
  EXPECT_THROW(eval("result = nil + 1"), sc::ScriptError);
  EXPECT_THROW(eval("local t = nil; result = t.x"), sc::ScriptError);
  EXPECT_THROW(eval("undefined_function()"), sc::ScriptError);
  EXPECT_THROW(eval("error('boom')"), sc::ScriptError);
}

TEST(ScriptInterp, StepLimitStopsRunawayScripts) {
  sc::Interpreter interp(sc::parse("while true do end"));
  interp.set_step_limit(10'000);
  EXPECT_THROW(interp.run(), sc::ScriptError);
}

TEST(ScriptInterp, AssertPassesAndFails) {
  EXPECT_NO_THROW(eval("assert(1 == 1, 'fine') result = 1"));
  EXPECT_THROW(eval("assert(false, 'nope')"), sc::ScriptError);
}

// A local function that calls itself captures the cell that holds it, so
// cell, closure and cell form a cycle. The interpreter breaks it when it
// goes: the closure, and with it the compiled chunk, must not outlive the
// interpreter and the last value that referred to it.
TEST(ScriptInterp, RecursiveLocalFunctionDiesWithItsInterpreter) {
  const std::string source =
      "function make() local function f(n) if n > 0 then return f(n - 1) end return 0 end "
      "return f end";
  for (const Engine engine : {Engine::kVmGeneric, Engine::kVmTrace}) {
    std::weak_ptr<sc::NativeFunction> weak;
    {
      sc::Interpreter interp(sc::parse(source));
      (void)configure_engine(interp, engine);
      interp.run();
      const auto made = interp.call_global("make", {});
      ASSERT_EQ(made.size(), 1u);
      ASSERT_NE(made[0].native(), nullptr);
      EXPECT_EQ(interp.call(made[0], {sc::Value(3.0)}).at(0).as_number(), 0.0);
      weak = *made[0].native();
    }
    EXPECT_TRUE(weak.expired()) << engine_name(engine);
  }
}

// ---------------------------------------------------------------------------
// MoonGen bindings: the paper's scripts end to end
// ---------------------------------------------------------------------------

TEST(ScriptBindings, QualityOfServiceScriptRunsEndToEnd) {
  mc::reset_run_state();
  // A condensed quality-of-service-test.lua (paper Listings 1-3): two load
  // slaves with different UDP ports, one counter slave, real devices.
  const std::string script = R"(
    local PKT_SIZE = 124
    function master(txPort, rxPort)
      local tDev = device.config(txPort, 1, 2)
      local rDev = device.config(rxPort)
      device.waitForLinks()
      tDev:connectTo(rDev)
      tDev:getTxQueue(0):setRate(100)
      tDev:getTxQueue(1):setRate(50)
      mg.launchLua("loadSlave", tDev:getTxQueue(0), 42)
      mg.launchLua("loadSlave", tDev:getTxQueue(1), 43)
      mg.launchLua("counterSlave", rDev:getRxQueue(0))
      mg.stopAfter(0.4)
      mg.waitForSlaves()
    end

    function loadSlave(queue, port)
      local mem = memory.createMemPool(function(buf)
        buf:getUdpPacket():fill{
          pktLength = PKT_SIZE,
          ethSrc = queue,
          ethDst = "10:11:12:13:14:15",
          ipDst = "192.168.1.1",
          udpSrc = 1234,
          udpDst = port,
        }
      end)
      local baseIP = parseIPAddress("10.0.0.1")
      local bufs = mem:bufArray()
      local total = 0
      while dpdk.running() do
        bufs:alloc(PKT_SIZE)
        for _, buf in ipairs(bufs) do
          local pkt = buf:getUdpPacket()
          pkt.ip.src:set(baseIP + math.random(255) - 1)
        end
        bufs:offloadUdpChecksums()
        total = total + queue:send(bufs)
      end
      sent = total
    end

    function counterSlave(queue)
      local bufs = memory.bufArray()
      local counts = {}
      while dpdk.running() do
        local rx = queue:recv(bufs)
        for i = 1, rx do
          local buf = bufs[i]
          local port = buf:getUdpPacket().udp:getDstPort()
          counts[port] = (counts[port] or 0) + 1
        end
        bufs:freeAll()
      end
      seen42 = counts[42] or 0
      seen43 = counts[43] or 0
    end
  )";
  sc::ScriptRuntime runtime(script);
  runtime.run_master({sc::Value(50.0), sc::Value(51.0)});
  runtime.wait();
  EXPECT_EQ(runtime.slaves_launched(), 3u);
  mc::reset_run_state();
}

TEST(ScriptBindings, PacketCraftingMatchesFill) {
  mc::reset_run_state();
  const std::string script = R"(
    function master()
      local mem = memory.createMemPool(function(buf)
        buf:getUdpPacket():fill{
          pktLength = 100,
          ethDst = "aa:bb:cc:dd:ee:ff",
          ipSrc = "10.1.2.3",
          ipDst = "10.4.5.6",
          udpSrc = 1111,
          udpDst = 2222,
        }
      end)
      local bufs = mem:bufArray(4)
      bufs:alloc(100)
      local pkt = bufs[1]:getUdpPacket()
      src_port = pkt.udp:getSrcPort()
      dst_port = pkt.udp:getDstPort()
      pkt.ip.src:set(parseIPAddress("172.16.0.9"))
      src_ip = pkt.ip.src:getString()
      ttl0 = pkt.ip:getTTL()
      batch = #bufs
      bufs:freeAll()
    end
  )";
  sc::ScriptRuntime runtime(script);
  runtime.run_master();
  EXPECT_EQ(runtime.master().get_global("src_port").as_number(), 1111);
  EXPECT_EQ(runtime.master().get_global("dst_port").as_number(), 2222);
  EXPECT_EQ(runtime.master().get_global("src_ip").as_string(), "172.16.0.9");
  EXPECT_EQ(runtime.master().get_global("ttl0").as_number(), 64);
  EXPECT_EQ(runtime.master().get_global("batch").as_number(), 4);
}

TEST(ScriptBindings, ParseIpAddressMatchesHostOrderArithmetic) {
  mc::reset_run_state();
  sc::ScriptRuntime runtime(R"(
    function master()
      base = parseIPAddress("10.0.0.1")
      plus = base + 255
    end
  )");
  runtime.run_master();
  EXPECT_EQ(runtime.master().get_global("base").as_number(), 0x0a000001);
  EXPECT_EQ(runtime.master().get_global("plus").as_number(), 0x0a000100);
}

TEST(ScriptBindings, MissingMasterIsAnError) {
  sc::ScriptRuntime runtime("x = 1");
  EXPECT_THROW(runtime.run_master(), sc::ScriptError);
}

TEST(ScriptBindings, MethodTypeMismatchIsCaught) {
  mc::reset_run_state();
  sc::ScriptRuntime runtime(R"(
    function master()
      local dev = device.config(10)
      local q = dev:getTxQueue(0)
      q:send(dev)  -- wrong argument type
    end
  )");
  EXPECT_THROW(runtime.run_master(), sc::ScriptError);
}

TEST(ScriptBindings, SlaveExceptionsAreReportedNotFatal) {
  // An exception escaping a slave's thread would std::terminate the whole
  // process. A bad queue index is a ScriptError naming the queue count; any
  // other std::exception (here: a device id out of range) is reported the
  // same way, and the master carries on.
  mc::reset_run_state();
  sc::ScriptRuntime runtime(R"(
    function master()
      mg.launchLua("badQueue")
      mg.launchLua("badDevice")
      mg.waitForSlaves()
      survived = true
    end
    function badQueue() device.config(8):getTxQueue(3) end
    function badDevice() device.config(1000) end
  )");
  testing::internal::CaptureStderr();
  runtime.run_master();
  runtime.wait();
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_TRUE(runtime.master().get_global("survived").truthy());
  EXPECT_NE(err.find("slave 'badQueue' failed: getTxQueue: queue 3 out of range (device 8 "
                     "has 1 tx queues)"),
            std::string::npos)
      << err;
  EXPECT_NE(err.find("slave 'badDevice' failed: Device id out of range"), std::string::npos)
      << err;

  sc::ScriptRuntime master_only("function master() device.config(8):getRxQueue(1) end");
  EXPECT_THROW(master_only.run_master(), sc::ScriptError);
}

// Mempools live until the runtime ends, as in DPDK: buffers in bufArrays
// and TX rings may point into a pool after the script drops its handle.

TEST(ScriptBindings, BufArrayKeepsUsingADroppedPool) {
  mc::reset_run_state();
  sc::ScriptRuntime runtime(R"(
    local function helperBufs()
      local mem = memory.createMemPool()
      return mem:bufArray(4)
    end
    function master()
      local bufs = memory.createMemPool():bufArray(4)
      direct = bufs:alloc(60)
      local returned = helperBufs()
      viaHelper = returned:alloc(60)
    end
  )");
  runtime.run_master();
  EXPECT_EQ(runtime.master().get_global("direct").as_number(), 4);
  EXPECT_EQ(runtime.master().get_global("viaHelper").as_number(), 4);
}

TEST(ScriptBindings, SendRecyclesABatchFromADroppedPool) {
  mc::reset_run_state();
  sc::ScriptRuntime runtime(R"(
    local function sendBatch(q)
      local mem = memory.createMemPool()
      local bufs = mem:bufArray(4)
      bufs:alloc(60)
      return q:send(bufs)
    end
    function master()
      local q = device.config(11):getTxQueue(0)
      first = sendBatch(q)
      second = sendBatch(q)  -- recycles the first batch into its pool
    end
  )");
  runtime.run_master();
  EXPECT_EQ(runtime.master().get_global("first").as_number(), 4);
  EXPECT_EQ(runtime.master().get_global("second").as_number(), 4);
}

TEST(ScriptBindings, RuntimesInSequenceSendOnOneDevice) {
  const char* script = R"(
    function master()
      local q = device.config(0):getTxQueue(0)
      local mem = memory.createMemPool()
      local bufs = mem:bufArray(4)
      bufs:alloc(60)
      sent = q:send(bufs)
    end
  )";
  for (int run = 0; run < 2; ++run) {
    mc::reset_run_state();
    sc::ScriptRuntime runtime(script);
    runtime.run_master();
    EXPECT_EQ(runtime.master().get_global("sent").as_number(), 4) << "run " << run;
  }
}

// ---------------------------------------------------------------------------
// Extended standard library
// ---------------------------------------------------------------------------

TEST(ScriptStdlib, StringSubRepLenByte) {
  EXPECT_EQ(eval_string("result = string.sub('moongen', 1, 4)"), "moon");
  EXPECT_EQ(eval_string("result = string.sub('moongen', 5)"), "gen");
  EXPECT_EQ(eval_string("result = string.sub('moongen', -3)"), "gen");
  EXPECT_EQ(eval_string("result = string.sub('abc', 3, 1)"), "");
  EXPECT_EQ(eval_string("result = string.rep('ab', 3)"), "ababab");
  EXPECT_EQ(eval_number("result = string.len('hello')"), 5);
  EXPECT_EQ(eval_number("result = string.byte('A')"), 65);
  EXPECT_EQ(eval_number("result = string.byte('AB', 2)"), 66);
  EXPECT_TRUE(eval("result = string.byte('A', 9)").is_nil());
}

TEST(ScriptStdlib, TableInsertRemoveConcat) {
  EXPECT_EQ(eval_string(R"(
    local t = {}
    table.insert(t, "a")
    table.insert(t, "c")
    table.insert(t, 2, "b")
    result = table.concat(t, "-")
  )"), "a-b-c");
  EXPECT_EQ(eval_number(R"(
    local t = {1, 2, 3}
    local removed = table.remove(t)
    result = removed * 10 + #t
  )"), 32);
  EXPECT_EQ(eval_number(R"(
    local t = {10, 20, 30}
    table.remove(t, 1)
    result = t[1] + #t
  )"), 22);
}

TEST(ScriptStdlib, TableAsQueueInScript) {
  EXPECT_EQ(eval_number(R"(
    local q = {}
    for i = 1, 5 do table.insert(q, i * i) end
    local sum = 0
    while #q > 0 do
      sum = sum + table.remove(q, 1)
    end
    result = sum
  )"), 1 + 4 + 9 + 16 + 25);
}

// ---------------------------------------------------------------------------
// Three-engine differential testing: tree-walker vs. generic bytecode VM
// vs. trace-specialized VM
// ---------------------------------------------------------------------------
//
// These tests run the same source through all three engines and require
// identical results, identical printed output and identical error
// messages.

namespace {

/// Tiny deterministic PRNG for the fuzzer (independent of libc rand).
struct Xorshift {
  std::uint64_t s;
  std::uint64_t next() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  }
  std::uint64_t pick(std::uint64_t n) { return next() % n; }
};

/// Generates a random well-formed program: declaration-before-use, bounded
/// loops, numeric locals. About one in five programs ends in a statement
/// that must fail identically in both engines.
std::string gen_program(std::uint64_t seed) {
  Xorshift rng{seed * 0x9e3779b97f4a7c15ull + 0x2545f4914f6cdd1dull};
  std::ostringstream os;
  os << "local n0, n1, n2, n3 = " << rng.pick(50) << ", " << rng.pick(50) << ", "
     << (rng.pick(50) + 1) << ", " << (rng.pick(50) + 1) << "\n"
     << "local s0, s1 = \"a" << rng.pick(10) << "\", \"b" << rng.pick(10) << "\"\n"
     << "local t = {}\n"
     << "local acc = 0\n"
     << "function helper(x, y) return x + y * 2, x - y end\n";
  const char* v[] = {"n0", "n1", "n2", "n3"};
  const int nstmts = 12 + static_cast<int>(rng.pick(8));
  for (int i = 0; i < nstmts; ++i) {
    const char* a = v[rng.pick(4)];
    const char* b = v[rng.pick(4)];
    const char* c = v[rng.pick(4)];
    switch (rng.pick(17)) {
      case 0: os << a << " = " << b << " + " << c << "\n"; break;
      case 1: os << a << " = " << b << " - " << rng.pick(20) << "\n"; break;
      case 2: os << a << " = " << b << " * " << c << " + " << rng.pick(9) << "\n"; break;
      case 3: os << a << " = (" << b << " % 97) + 1\n"; break;
      case 4:
        os << "if " << a << " < " << b << " then " << c << " = " << c << " + 1 else " << c
           << " = " << c << " - 1 end\n";
        break;
      case 5:
        os << "for i = 1, " << (1 + rng.pick(6)) << " do acc = acc + i * (" << a
           << " % 13) end\n";
        break;
      case 6:
        os << "while " << a << " > 3 and acc < 500 do " << a << " = " << a
           << " - 2 acc = acc + 1 end\n";
        break;
      case 7: os << "repeat acc = acc + 1 until acc % " << (2 + rng.pick(5)) << " == 0\n"; break;
      case 8: os << "t[" << rng.pick(8) << "] = " << a << "\n"; break;
      case 9: os << a << " = t[" << rng.pick(8) << "] or " << b << "\n"; break;
      case 10: os << "acc = acc + helper(" << a << ", " << b << ")\n"; break;
      case 11:
        os << a << ", " << b << " = helper(" << b << " % 100, " << a << " % 100)\n";
        break;
      case 12:
        os << "do local up = " << a
           << " % 10 local f = function(d) up = up + d return up end acc = acc + f(1) + f(2) "
              "end\n";
        break;
      case 13: os << "s0 = s1 .. (" << a << " % 10) acc = acc + #s0\n"; break;
      case 14: os << "print(" << a << " % 1000, s0, " << b << " < " << c << ")\n"; break;
      case 15: os << "acc = acc + math.random(" << (1 + rng.pick(20)) << ")\n"; break;
      case 16:
        os << "for k, w in ipairs({" << rng.pick(9) << ", " << rng.pick(9)
           << "}) do acc = acc + w * k end\n";
        break;
    }
  }
  if (rng.pick(5) == 0) {
    switch (rng.pick(4)) {
      case 0: os << "local z = nil\nz.x = 1\n"; break;
      case 1: os << "missing_function()\n"; break;
      case 2: os << "acc = acc + {}\n"; break;
      default: os << "for i = 1, 3, 0 do end\n"; break;
    }
  }
  os << "print(acc)\n"
     << "result = n0 .. \"|\" .. n1 .. \"|\" .. n2 .. \"|\" .. n3 .. \"|\" .. acc\n";
  return os.str();
}

}  // namespace

TEST(ScriptDifferential, FuzzedProgramsMatchTreeWalker) {
  for (std::uint64_t seed = 1; seed <= 150; ++seed) {
    expect_engines_agree(gen_program(seed), ("seed " + std::to_string(seed)).c_str());
    if (::testing::Test::HasFailure()) break;  // first divergence is enough to debug
  }
}

TEST(ScriptDifferential, ClosureSemanticsMatch) {
  // Fresh capture per loop iteration.
  expect_engines_agree(R"(
    local fns = {}
    for i = 1, 3 do
      local x = i * 10
      fns[i] = function() x = x + 1 return x end
    end
    result = fns[1]() .. ":" .. fns[2]() .. ":" .. fns[3]() .. ":" .. fns[1]()
  )", "per-iteration capture");
  // Two closures sharing one upvalue.
  expect_engines_agree(R"(
    local function make()
      local n = 0
      local function inc() n = n + 1 return n end
      local function get() return n end
      return inc, get
    end
    local i, g = make()
    i() i()
    result = g()
  )", "shared upvalue");
  // Recursive local function through its own cell.
  expect_engines_agree(R"(
    local function fib(n)
      if n < 2 then return n end
      return fib(n - 1) + fib(n - 2)
    end
    result = fib(12)
  )", "recursive local function");
  // Same-scope redeclaration is visible through existing closures.
  expect_engines_agree(R"(
    local x = 1
    local f = function() return x end
    local x = 2
    result = f()
  )", "same-scope redeclaration");
}

TEST(ScriptDifferential, ControlFlowCornersMatch) {
  // Mutating the loop variable must not steer the iteration.
  expect_engines_agree(R"(
    local count = 0
    for i = 1, 5 do i = i + 100 count = count + 1 end
    result = count
  )", "loop var mutation");
  // `until` sees the loop body's locals.
  expect_engines_agree(R"(
    local i = 0
    repeat
      local doubled = i * 2
      i = i + 1
    until doubled >= 6
    result = i
  )", "repeat-until scoping");
  // break leaves only the innermost loop.
  expect_engines_agree(R"(
    local log = ""
    for i = 1, 3 do
      for j = 1, 3 do
        if j == 2 then break end
        log = log .. i .. j
      end
    end
    result = log
  )", "nested break");
  // Value-preserving and/or plus mixed concat.
  expect_engines_agree(R"(
    result = (nil or "d") .. (false and "x" or "y") .. tostring(1 and 2) .. (1 .. 2)
  )", "and-or values");
}

TEST(ScriptDifferential, MultipleValuesMatch) {
  expect_engines_agree(R"(
    local function two() return 1, 2 end
    local a, b, c = two()
    result = tostring(a) .. tostring(b) .. tostring(c)
  )", "padding");
  expect_engines_agree(R"(
    local function two() return 1, 2 end
    local a, b = 9, two()
    result = a .. "," .. b
  )", "expansion only in last position");
  expect_engines_agree(R"(
    local function two() return 1, 2 end
    local function sum3(x, y, z) return x + y * 10 + z * 100 end
    result = sum3(5, two())
  )", "call argument expansion");
  expect_engines_agree(R"(
    local function none() end
    local a = none()
    print(a)
    result = type(a)
  )", "zero results pad nil");
  expect_engines_agree(R"(
    local function two() return 1, 2 end
    local function pass() return 7, two() end
    local a, b, c = pass()
    result = a .. b .. c
  )", "tail expansion through return");
}

TEST(ScriptDifferential, ErrorMessagesMatch) {
  const char* failing[] = {
      "local z = nil z.x = 1",
      "local z = nil result = z.x",
      "local z = nil z()",
      "result = 1 + nil",
      "result = 1 + {}",
      "result = -\"oops\"",
      "result = #5",
      "result = {} .. \"x\"",
      "for i = 1, 3, 0 do end",
      "local n = 5 n:grow()",
      "local t = {[nil] = 1}",
      "local t = {} t[nil] = 1",
      "result = nil < 1",
      "while true do end",  // budget exhaustion at the same step count
  };
  for (const char* source : failing) expect_engines_agree(source, source);
}

TEST(ScriptDifferential, StdlibAndStateMatch) {
  // Per-interpreter seeded RNG: identical call sequences give identical
  // streams in both engines.
  expect_engines_agree(R"(
    local sum = 0
    for i = 1, 20 do sum = sum + math.random(100) * i end
    result = sum .. "," .. math.floor(math.random() * 1e6)
  )", "seeded math.random");
  // ipairs returns one iterator on every call; the VM open-codes the
  // multi-value call sites and leaves the others to the native.
  expect_engines_agree(R"(
    local t = {4, 5, 6}
    local f, s, c = ipairs(t)
    local g = (ipairs(t))
    local sum = 0
    for i, v in f, s, c do sum = sum + i * v end
    result = tostring(f == g) .. "," .. tostring(s == t) .. "," .. c .. "," .. sum
  )", "ipairs results");
  expect_engines_agree(R"(
    local t = {}
    for i = 1, 8 do table.insert(t, string.format("%02d", i * 7 % 10)) end
    table.insert(t, 3, "XX")
    table.remove(t, 1)
    result = table.concat(t, "-") .. "/" .. #t
  )", "table stdlib");
  expect_engines_agree(R"(
    local keys = ""
    for k, v in pairs({zebra = 1, apple = 2, [3] = "c"}) do
      keys = keys .. tostring(k) .. "=" .. tostring(v) .. ";"
    end
    result = keys
  )", "pairs iteration order");
  expect_engines_agree(R"(
    local grid = {}
    function grid.cell(self, i, j) return (self[i] or {})[j] or 0 end
    grid[2] = {[3] = 42}
    result = grid:cell(2, 3) + grid:cell(9, 9)
  )", "table method calls");
  expect_engines_agree(R"(
    ns = {math = {}}
    function ns.math.add(a, b) return a + b end
    result = ns.math.add(20, 22)
  )", "function path declaration");
}

TEST(ScriptCompiler, DisassemblerShowsStructure) {
  const auto chunk = sc::compile_program(*sc::parse(R"(
    local function add(a, b) return a + b end
    total = add(2, 3)
  )"));
  const std::string listing = sc::disassemble(*chunk);
  EXPECT_NE(listing.find("proto 0"), std::string::npos);
  EXPECT_NE(listing.find("ADD"), std::string::npos);
  EXPECT_NE(listing.find("CALL"), std::string::npos);
  EXPECT_NE(listing.find("RET"), std::string::npos);
  EXPECT_GE(chunk->protos.size(), 2u);  // main + add
}

TEST(ScriptCompiler, ConstantFoldingPreservesValues) {
  // Folded arithmetic must produce the very same results as evaluated
  // arithmetic (the folder calls the runtime's apply_binary_op).
  expect_engines_agree(R"(
    result = (2 ^ 10 % 7) .. "," .. (1 / 3) .. "," .. tostring("a" < "b") .. "," ..
             (10 .. 20) .. "," .. (-(3 * 7)) .. "," .. #"hello" .. "," ..
             tostring(nil == false) .. "," .. tostring(false or 0)
  )", "constant folding");
}

TEST(ScriptCompiler, ParameterShadowingDoesNotBoxOuterLocals) {
  // A closure parameter shadows its name for the closure's whole body, so
  // a sibling local of the same name is not captured and must stay in a
  // register (boxing it would also block trace specialization of loops
  // that use it — the mempool-init-closure pattern of paper Listing 2).
  const auto chunk = sc::compile_program(*sc::parse(R"(
    local f = function(v) return v end
    for i = 1, 3 do
      local v = i
      x = v
    end
  )"));
  EXPECT_EQ(sc::disassemble(*chunk).find("NEWCELL"), std::string::npos);
}

TEST(ScriptDifferential, ParameterShadowingSemanticsMatch) {
  // Parameter shadowing vs. a true capture of the same name.
  expect_engines_agree(R"(
    local x = 1
    local f = function(x) return x * 10 end
    local g = function() return x end
    x = 2
    result = f(7) .. ":" .. g()
  )", "param shadowing vs true capture");
  // A free reference before an inner local declaration of the same name
  // resolves to the outer scope — the outer local must still be boxed.
  expect_engines_agree(R"(
    local x = 5
    local f = function() local y = x local x = 9 return y .. ":" .. x end
    result = f()
  )", "free reference before inner declaration");
  // Deeper nesting: the middle function's parameter shadows only within
  // itself; the outer local is still captured by the innermost reference.
  expect_engines_agree(R"(
    local buf = "outer"
    local mk = function(buf) return function() return buf end end
    local direct = function() return buf end
    result = mk("inner")() .. ":" .. direct()
  )", "nested parameter shadowing");
}

TEST(ScriptCompiler, DisassemblerGoldenDecodedOps) {
  // Golden listing for the decoded operand formats: the for-in anchor
  // (iterator/vars/exit/ic), in-place method calls, fused global-field
  // calls and the numeric-for triple. Pinned byte for byte so operand
  // encoding changes cannot silently garble listings.
  const auto chunk = sc::compile_program(*sc::parse(
      "for i = 1, 3 do x = i end\n"
      "for _, b in ipairs(t) do b:set(26, math.random(10)) end\n"));
  const std::string expected =
      "proto 0 <main> params=0 regs=11 cells=0 upvals=0\n"
      "  0\tCHECKSTEP\t0 0 0 0\n"
      "  1\tLOADK\tr0 <- 1\n"
      "  2\tTONUM\t0 0 0 0\n"
      "  3\tLOADK\tr1 <- 3\n"
      "  4\tTONUM\t1 0 0 0\n"
      "  5\tLOADK\tr2 <- 1\n"
      "  6\tFORPREP\t0 0 0 0\n"
      "  7\tFORTEST\ti=r0 exit=14\n"
      "  8\tCHECKSTEP\t0 0 0 0\n"
      "  9\tMOVE\t3 0 0 0\n"
      "  10\tCHECKSTEP\t0 0 0 0\n"
      "  11\tMOVE\t4 3 0 0\n"
      "  12\tSETGLOBAL\t\"x\" <- r4 [ic 0]\n"
      "  13\tFORNEXT\ti=r0 -> 7\n"
      "  14\tCHECKSTEP\t0 0 0 0\n"
      "  15\tGETGLOBAL\tr3 <- \"ipairs\" [ic 1]\n"
      "  16\tGETGLOBAL\tr4 <- \"t\" [ic 2]\n"
      "  17\tCALL\tr3 nargs=1 nres=0+multi\n"
      "  18\tADJUST\t0 3 0 0\n"
      "  19\tFORINCALL\titer=r0 vars=r3..r4 exit=29 [ic 3]\n"
      "  20\tCHECKSTEP\t0 0 0 0\n"
      "  21\tLOADK\tr8 <- 26\n"
      "  22\tGETGLOBAL\tr10 <- \"math\" [ic 4]\n"
      "  23\tGETFIELD\tr9 <- r10.\"random\" [ic 5]\n"
      "  24\tLOADK\tr10 <- 10\n"
      "  25\tCALL\tr9 nargs=1 nres=0+multi\n"
      "  26\tMOVE\t7 4 0 0\n"
      "  27\tMCALL\tr7:\"set\" nargs=1+multi nres=0 -> r7 [ic 6]\n"
      "  28\tJMP\t-> 19\n"
      "  29\tRET\t0 0 0 0\n";
  EXPECT_EQ(sc::disassemble(*chunk), expected);
}

// ---------------------------------------------------------------------------
// Trace specialization: forced deopts, introspection, escape-hatch kernels
// (DESIGN.md section 13)
// ---------------------------------------------------------------------------
//
// Only generic-for loops (the FORINCALL anchor) are recorded, and a trace
// specializes only into a field kernel. The numeric loops below therefore
// run on the generic path in the trace engine too; they pin that a hot
// numeric loop stays byte-identical there, through type flips and budget
// exhaustion.

TEST(ScriptDifferential, TraceDeoptsOnTypeFlipMidRun) {
  // The loop goes hot with `inc` numeric; flipping `inc` to a string must
  // throw the same arithmetic error as the tree-walker.
  expect_engines_agree(R"(
    inc = 1
    acc = 0
    function spin(n) for i = 1, n do acc = acc + inc end end
    spin(40)
    inc = "x"
    spin(3)
    result = acc
  )", "global flips number -> string after the loop went hot");
  // A benign value change (still numeric) is seen by later iterations.
  expect_engines_agree(R"(
    inc = 1
    acc = 0
    function spin(n) for i = 1, n do acc = acc + inc end end
    spin(40)
    inc = 3
    spin(40)
    result = acc
  )", "global value change after the loop went hot");
  // NaN bounds after the loop went hot: zero iterations in every engine.
  expect_engines_agree(R"(
    acc = 0
    function spin(n) for i = 1, n do acc = acc + 1 end end
    spin(40)
    spin(0 / 0)
    result = acc
  )", "NaN loop bound after the loop went hot");
}

TEST(ScriptDifferential, TraceBudgetExhaustionMatches) {
  // The exhaustion error of a hot numeric loop must fire at exactly the
  // same step count — and thus with exactly the same message — in every
  // engine. (The field kernel's bulk budget charge is pinned by
  // ScriptTraceBindings.FieldKernelBudgetExhaustionMatches.)
  expect_engines_agree(R"(
    acc = 0
    for i = 1, 100000000 do acc = acc + 1 end
    result = acc
  )", "budget exhaustion in a hot numeric loop");
}

TEST(ScriptDifferential, TraceNestedAndTypeChangingLoopsMatch) {
  // Nested numeric loops: the inner loop reads the outer induction
  // variable.
  expect_engines_agree(R"(
    acc = 0
    for i = 1, 30 do
      for j = 1, 20 do acc = acc + j * i end
    end
    result = acc
  )", "nested numeric loops");
  // A loop whose body leaves the numeric domain.
  expect_engines_agree(R"(
    s = ""
    for i = 1, 20 do s = s .. i end
    result = s
  )", "string-accumulating loop");
}

TEST(ScriptTrace, NumericLoopInstallsNoSpecialization) {
  sc::Interpreter interp(sc::parse(R"(
    acc = 0
    for i = 1, 500 do acc = acc + i end
    result = acc
  )"));
  interp.set_trace(true);
  interp.set_trace_threshold(2);
  interp.set_step_limit(1'000'000);
  interp.run();
  EXPECT_EQ(interp.get_global("result").as_number(), 125250.0);
  auto* vm = interp.vm_if_created();
  ASSERT_NE(vm, nullptr);
  EXPECT_TRUE(vm->specializations().empty());
}

namespace {

/// Runs a bindings-level script (a `master()` body) under one engine and
/// reports the global `result` plus the field kernels the VM installed.
struct MasterRun {
  std::string result;
  std::size_t field_kernels = 0;
};

std::size_t field_kernels(sc::Interpreter& interp) {
  auto* vm = interp.vm_if_created();
  return vm != nullptr ? vm->specializations().size() : 0;
}

MasterRun run_master_engine(const char* script, Engine engine) {
  mc::reset_run_state();
  sc::ScriptRuntime runtime(script);
  const auto walker = configure_engine(runtime.master(), engine);
  run_master(runtime, walker.get());
  MasterRun out;
  out.result = runtime.master().get_global("result").to_display_string();
  out.field_kernels = field_kernels(runtime.master());
  return out;
}

/// A per-packet loop whose body compiles to a field kernel.
constexpr const char* kKernelLoopScript = R"(
    function master()
      local mem = memory.createMemPool()
      local bufs = mem:bufArray(4)
      for round = 1, 4 do
        bufs:alloc(60)
        for _, buf in ipairs(bufs) do
          buf:getUdpPacket().ip.src:set(10 + math.random(4))
        end
        bufs:freeAll()
      end
      result = "done"
    end
  )";

}  // namespace

TEST(ScriptTrace, TraceListingGolden) {
  // Golden listing for a recorded field-kernel trace: the FORINCALL
  // anchor, then the pc-prefixed body with its recorded observations.
  mc::reset_run_state();
  sc::ScriptRuntime runtime(kKernelLoopScript);
  configure_engine(runtime.master(), Engine::kVmTrace);
  runtime.run_master();
  auto* vm = runtime.master().vm_if_created();
  ASSERT_NE(vm, nullptr);
  ASSERT_EQ(vm->specializations().size(), 1u);
  const std::string expected =
      "trace <master> anchor=27 FORINCALL\titer=r6 vars=r9..r10 exit=40 [ic 5]\n"
      "  28\tCHECKSTEP\t0 0 0 0\n"
      "  29\tMCALL\tr10:\"getUdpPacket\" nargs=0 nres=1 -> r16 [ic 6]  [buf deref]\n"
      "  30\tMOVE\t15 16 0 0\n"
      "  31\tGETFIELD\tr14 <- r15.\"ip\" [ic 7]  [udpPacket deref]\n"
      "  32\tGETFIELD\tr13 <- r14.\"src\" [ic 8]  [ipHeader deref @26/4]\n"
      "  33\tLOADK\tr15 <- 10\n"
      "  34\tLOADK\tr18 <- 4\n"
      "  35\tGFCALL\tmath.random nargs=1 nres=1 -> r17 [ic 9]  [native math.random]\n"
      "  36\tMOVE\t16 17 0 0\n"
      "  37\tADD\t14 15 16 0  [num]\n"
      "  38\tMCALL\tr13:\"set\" nargs=1 nres=0 -> r13 [ic 10]  [ipAddr write @carried]\n"
      "  39\tJMP\t-> 27\n";
  EXPECT_EQ(sc::disassemble_trace(vm->specializations().front()->trace), expected);
}

TEST(ScriptTrace, NoTraceWhenDisabled) {
  // The same loop installs a field kernel with tracing on, and nothing
  // with tracing off.
  EXPECT_EQ(run_master_engine(kKernelLoopScript, Engine::kVmTrace).field_kernels, 1u);
  EXPECT_EQ(run_master_engine(kKernelLoopScript, Engine::kVmGeneric).field_kernels, 0u);
}

TEST(ScriptTraceBindings, FieldKernelMatchesGenericEnginesByteForByte) {
  // Constant, counter and random recipes in one per-packet loop: the trace
  // engine compiles this body onto the field-modifier engine, and the
  // packet bytes read back must match the generic engines exactly —
  // including the math.random stream, which the kernel draws from the
  // interpreter's own RNG.
  const char* script = R"(
    function master()
      local mem = memory.createMemPool(function(buf)
        buf:getUdpPacket():fill({pktLength = 60})
      end)
      local bufs = mem:bufArray(16)
      local baseIP = parseIPAddress("10.0.0.1")
      local sig = 0
      for round = 1, 10 do
        bufs:alloc(60)
        local ttl = 30 + round
        for i, buf in ipairs(bufs) do
          local pkt = buf:getUdpPacket()
          pkt.ip.src:set(baseIP + i - 1)
          pkt.ip:setTTL(ttl)
          pkt.udp:setSrcPort(1000 + math.random(200) - 1)
        end
        for _, buf in ipairs(bufs) do
          local pkt = buf:getUdpPacket()
          sig = sig + pkt.ip.src:get() % 100003
          sig = sig + pkt.ip:getTTL() * 7
          sig = sig + pkt.udp:getSrcPort() * 13
        end
        bufs:freeAll()
      end
      result = sig .. ":" .. math.random(100000)
    end
  )";
  const MasterRun tw = run_master_engine(script, Engine::kTreeWalk);
  const MasterRun vm = run_master_engine(script, Engine::kVmGeneric);
  const MasterRun tr = run_master_engine(script, Engine::kVmTrace);
  EXPECT_EQ(vm.result, tw.result);
  EXPECT_EQ(tr.result, tw.result);
  // The writing loop must actually have taken the escape hatch.
  EXPECT_GE(tr.field_kernels, 1u);
  EXPECT_EQ(vm.field_kernels, 0u);
}

TEST(ScriptTraceBindings, MathRandomIsTheSeededMt19937_64Stream) {
  // math.random draws from a 64-bit Mersenne Twister seeded with 0x5eed
  // and reseeded by math.randomseed: math.random() is the top 53 bits over
  // 2^53, math.random(m) is 1 + draw % m and math.random(m, n) is
  // m + draw % (n - m + 1). Pinned here to values computed in C++ from the
  // std engine, on every engine, including a per-packet loop that the trace
  // tier runs as a field kernel drawing from the same engine.
  const char* script = R"(
    function master()
      draws = {}
      table.insert(draws, math.random(1000))
      table.insert(draws, math.floor(math.random() * 1048576))
      table.insert(draws, math.random(5, 9))
      math.randomseed(12345)
      table.insert(draws, math.random(1000))
      local mem = memory.createMemPool()
      local bufs = mem:bufArray(8)
      local baseIP = parseIPAddress("10.0.0.1")
      for round = 1, 4 do
        bufs:alloc(60)
        for _, buf in ipairs(bufs) do
          buf:getUdpPacket().ip.src:set(baseIP + math.random(255) - 1)
        end
        for _, buf in ipairs(bufs) do
          table.insert(draws, buf:getUdpPacket().ip.src:get())
        end
        bufs:freeAll()
      end
      table.insert(draws, math.random(100000))
    end
  )";
  std::mt19937_64 rng(0x5eed);
  std::vector<double> want;
  want.push_back(static_cast<double>(1 + rng() % 1000));
  want.push_back(static_cast<double>(rng() >> 44));  // floor(2^20 * (draw >> 11) / 2^53)
  want.push_back(static_cast<double>(5 + rng() % 5));
  rng.seed(12345);
  want.push_back(static_cast<double>(1 + rng() % 1000));
  for (int i = 0; i < 4 * 8; ++i) want.push_back(static_cast<double>(0x0a000001 + rng() % 255));
  want.push_back(static_cast<double>(1 + rng() % 100000));

  for (const Engine engine : {Engine::kTreeWalk, Engine::kVmGeneric, Engine::kVmTrace}) {
    mc::reset_run_state();
    sc::ScriptRuntime runtime(script);
    const auto walker = configure_engine(runtime.master(), engine);
    run_master(runtime, walker.get());
    const sc::Value draws = runtime.master().get_global("draws");
    ASSERT_TRUE(draws.is_table()) << engine_name(engine);
    std::vector<double> got;
    for (std::size_t i = 1; i <= want.size(); ++i) {
      const sc::Value v = draws.as_table()->get(sc::Table::Key{static_cast<double>(i)});
      got.push_back(v.is_number() ? v.as_number() : -1.0);
    }
    EXPECT_EQ(got, want) << engine_name(engine);
    EXPECT_EQ(draws.as_table()->array_size(), want.size()) << engine_name(engine);
    if (engine == Engine::kVmTrace) {
      EXPECT_GE(field_kernels(runtime.master()), 1u);
    }
  }
}

TEST(ScriptTraceBindings, MathRandomReplacementAndTableBumpsDeopt) {
  // Mid-run the script replaces math.random in place (the inline cache
  // still hits, so only the kernel's native-identity guard can catch it)
  // and churns another math key (version bumps invalidate the call-site
  // cache). Both must deopt the kernel, never desynchronize the stream.
  const char* script = R"(
    function master()
      local mem = memory.createMemPool()
      local bufs = mem:bufArray(8)
      local baseIP = parseIPAddress("192.168.1.1")
      local sig = ""
      for round = 1, 12 do
        if round == 7 then
          math.random = function(m) return (m >= 7 and 7) or 1 end
        end
        if round == 4 or round == 9 then math.jitter = round else math.jitter = nil end
        bufs:alloc(60)
        for _, buf in ipairs(bufs) do
          buf:getUdpPacket().ip.src:set(baseIP + math.random(250) - 1)
        end
        for _, buf in ipairs(bufs) do
          sig = sig .. buf:getUdpPacket().ip.src:get() .. ";"
        end
        bufs:freeAll()
      end
      result = sig
    end
  )";
  const MasterRun tw = run_master_engine(script, Engine::kTreeWalk);
  const MasterRun vm = run_master_engine(script, Engine::kVmGeneric);
  const MasterRun tr = run_master_engine(script, Engine::kVmTrace);
  EXPECT_EQ(vm.result, tw.result);
  EXPECT_EQ(tr.result, tw.result);
  EXPECT_GE(tr.field_kernels, 1u);
}

TEST(ScriptTraceBindings, AllocFailDuringRecordingSoftAborts) {
  // A fault plane makes the pool's alloc fail ~60% of the time, so the
  // per-packet loop keeps running over empty batches — including while a
  // trace is being recorded, where hitting the loop exit soft-aborts the
  // recording. Soft aborts must be retryable (a kernel still installs
  // eventually) and the faulty run must stay byte-identical across all
  // three engines (the fault RNG stream is engine-independent).
  const char* script = R"(
    function run(mem)
      local bufs = mem:bufArray(4)
      local baseIP = parseIPAddress("10.1.0.1")
      local total = 0
      for round = 1, 40 do
        bufs:alloc(60)
        for _, buf in ipairs(bufs) do
          buf:getUdpPacket().ip.src:set(baseIP + math.random(200) - 1)
        end
        local got = 0
        for _, b in ipairs(bufs) do got = got + 1 end
        total = total + got
        bufs:freeAll()
      end
      return total .. ":" .. math.random(100000)
    end
    function master() end
  )";
  const auto run_with_faults = [&](Engine engine) {
    mc::reset_run_state();
    sc::ScriptRuntime runtime(script);
    auto& interp = runtime.master();
    const auto walker = configure_engine(interp, engine);
    run_top_level(interp, walker.get());
    auto mem_fn = interp.get_global("memory").as_table()->get(sc::Table::Key{"createMemPool"});
    std::vector<sc::Value> no_args;
    const auto mem_val = interp.call(mem_fn, no_args)[0];
    mflt::FaultPlane plane(mflt::FaultSpec::parse("seed=11;alloc_fail@pool.script:p=0.6"));
    mem_val.as_userdata()->as<mb::Mempool>()->install_faults(plane, "pool.script");
    std::vector<sc::Value> args{mem_val};
    const auto r = interp.call(interp.get_global("run"), args);
    MasterRun out;
    out.result = r.empty() ? "" : r[0].to_display_string();
    out.field_kernels = field_kernels(interp);
    return out;
  };
  const MasterRun tw = run_with_faults(Engine::kTreeWalk);
  const MasterRun vm = run_with_faults(Engine::kVmGeneric);
  const MasterRun tr = run_with_faults(Engine::kVmTrace);
  EXPECT_EQ(vm.result, tw.result);
  EXPECT_EQ(tr.result, tw.result);
  // 40 rounds at p=0.6 leave plenty of successful batches: the soft
  // aborts must not have latched the anchor into spec_failed.
  EXPECT_GE(tr.field_kernels, 1u);
}

TEST(ScriptTraceBindings, FieldKernelBudgetExhaustionMatches) {
  // A field kernel charges the statement budget in bulk, whole packets
  // only, and leaves the exhaustion throw to the generic loop header.
  // Sweeping the step limit across more than one round stops the run at
  // every position of the per-packet loop, most of them inside a kernel
  // run. Every engine must stop at the same step with the same message,
  // leaving the same packet bytes and the same random stream behind.
  const char* script = R"(
    function master()
      mem = memory.createMemPool()  -- global: dump() reads its buffers
      bufs = mem:bufArray(16)
      local baseIP = parseIPAddress("10.0.0.1")
      for round = 1, 1000 do
        bufs:alloc(60)
        for i, buf in ipairs(bufs) do
          local pkt = buf:getUdpPacket()
          pkt.ip.src:set(baseIP + i - 1 + round)
          pkt.udp:setSrcPort(1000 + math.random(200) - 1)
        end
        rounds = round
        bufs:freeAll()
      end
    end
    function dump()
      local sig = rounds .. ":"
      for _, buf in ipairs(bufs) do
        local pkt = buf:getUdpPacket()
        sig = sig .. pkt.ip.src:get() .. "/" .. pkt.udp:getSrcPort() .. ";"
      end
      return sig .. math.random(100000)
    end
  )";
  struct Stop {
    std::string error;
    std::uint64_t steps = 0;
    std::string state;
    std::size_t kernels = 0;
  };
  const auto run = [&](Engine engine, std::uint64_t limit) {
    mc::reset_run_state();
    sc::ScriptRuntime runtime(script);
    auto& interp = runtime.master();
    const auto walker = configure_engine(interp, engine);
    interp.set_step_limit(limit);
    Stop out;
    try {
      run_master(runtime, walker.get());
    } catch (const sc::ScriptError& e) {
      out.error = e.what();
    }
    out.steps = interp.steps_taken();
    out.kernels = field_kernels(interp);
    interp.set_step_limit(0);
    out.state = interp.call_global("dump", {})[0].to_display_string();
    return out;
  };
  std::size_t kernels = 0;
  for (std::uint64_t limit = 2000; limit < 2080; ++limit) {
    const Stop tw = run(Engine::kTreeWalk, limit);
    ASSERT_NE(tw.error.find("execution budget"), std::string::npos) << tw.error;
    for (const Engine engine : {Engine::kVmGeneric, Engine::kVmTrace}) {
      const Stop other = run(engine, limit);
      EXPECT_EQ(other.error, tw.error) << engine_name(engine) << ", limit " << limit;
      EXPECT_EQ(other.steps, tw.steps) << engine_name(engine) << ", limit " << limit;
      EXPECT_EQ(other.state, tw.state) << engine_name(engine) << ", limit " << limit;
      if (engine == Engine::kVmTrace) kernels += other.kernels;
    }
    if (::testing::Test::HasFailure()) break;
  }
  EXPECT_GT(kernels, 0u);
}

