// MoonGen module bindings for the embedded scripting language.
//
// Exposes the fast-path generator to scripts with the API of the paper's
// listings: `device.config`, `queue:setRate`, `memory.createMemPool`,
// `buf:getUdpPacket():fill{...}`, `stats:newManualTxCounter`,
// `mg.launchLua`, `dpdk.running()` — so the quality-of-service example of
// Section 4 runs nearly verbatim. Each slave task spawned by `launchLua`
// gets its own interpreter over the shared chunk, pinned to a core,
// mirroring MoonGen's one-LuaJIT-VM-per-task architecture (Figure 1).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "script/interpreter.hpp"

namespace moongen::script {

/// Runs MoonGen userscripts: owns the parsed chunk, the slave tasks and
/// every mempool the script creates (freed only when the runtime is).
class ScriptRuntime {
 public:
  /// Parses `source` (throws ScriptError on syntax errors).
  explicit ScriptRuntime(std::string_view source);
  ~ScriptRuntime();

  ScriptRuntime(const ScriptRuntime&) = delete;
  ScriptRuntime& operator=(const ScriptRuntime&) = delete;

  /// Executes the chunk's top level and then `master(args...)` in the
  /// calling thread. Slave tasks keep running until they return; call
  /// wait() (or let mg.waitForSlaves() in the script do it).
  void run_master(std::vector<Value> args = {});

  /// Joins all slave tasks.
  void wait();

  /// Number of slave tasks launched so far.
  [[nodiscard]] std::size_t slaves_launched() const;

  /// The master interpreter (for inspecting globals in tests).
  [[nodiscard]] Interpreter& master() { return *master_; }

  /// Shared slave-task state (public so the binding layer can reach it).
  struct Shared;

 private:
  std::shared_ptr<const Program> program_;
  std::shared_ptr<Shared> shared_;
  std::unique_ptr<Interpreter> master_;
};

}  // namespace moongen::script
