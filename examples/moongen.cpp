// moongen: run a userscript, exactly like the original CLI.
//
//   moongen <script> [args...]
//
// The script must define master(args...); numeric arguments are passed as
// numbers, everything else as strings (paper Section 4: "MoonGen is
// controlled through its API instead of configuration files" — the
// userscript *is* the configuration).
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

#include "cli.hpp"
#include "script/bindings.hpp"

namespace me = moongen::examples;
namespace sc = moongen::script;

namespace {

constexpr const char* kUsage =
    "usage: moongen <script> [args...]\n"
    "bundled scripts: examples/scripts/*.lua\n";

}  // namespace

int main(int argc, char** argv) {
  const auto cli = me::parse_cli(argc, argv, kUsage);
  if (!cli) return 2;
  if (cli->positional.empty()) {
    std::fprintf(stderr, "%s", kUsage);
    return 2;
  }
  const std::string& script_path = cli->positional[0];
  std::ifstream file(script_path);
  if (!file) {
    std::fprintf(stderr, "cannot open script '%s'\n", script_path.c_str());
    return 2;
  }
  std::stringstream buffer;
  buffer << file.rdbuf();

  std::vector<sc::Value> args;
  for (std::size_t i = 1; i < cli->positional.size(); ++i) {
    const std::string& a = cli->positional[i];
    char* end = nullptr;
    const double number = std::strtod(a.c_str(), &end);
    if (end != a.c_str() && *end == '\0') {
      args.emplace_back(number);
    } else {
      args.emplace_back(a);
    }
  }

  try {
    sc::ScriptRuntime runtime(buffer.str());
    runtime.run_master(std::move(args));
    runtime.wait();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "script error: %s\n", e.what());
    return 1;
  }
  return 0;
}
