// Shared example command-line handling.
//
// One parser for the experiment flags every example draws from:
//
//   --json FILE     write the telemetry snapshot series as JSON
//   --faults SPEC   install a fault plane (src/fault/fault.hpp language)
//   --seed N        base seed for the scenario (default 1)
//   --shards N      simulation shards for parallel execution (default 1)
//   --stream FILE   stream telemetry snapshots + RTT windows to FILE
//                   (stdout stays byte-identical to an unstreamed run)
//
// An example supports exactly the flags its usage text names; any other
// one is rejected rather than parsed and silently ignored. Everything else
// stays positional and is interpreted per example.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fault/fault.hpp"

namespace moongen::examples {

struct Cli {
  std::string json_path;
  std::string faults_text;
  fault::FaultSpec faults;
  std::string stream_path;
  std::uint64_t seed = 1;
  int shards = 1;
  std::vector<std::string> positional;
  /// The example's usage text, printed when a positional value is malformed.
  const char* usage = "";

  [[nodiscard]] bool has_json() const { return !json_path.empty(); }
  [[nodiscard]] bool has_faults() const { return !faults.empty(); }
  [[nodiscard]] bool has_stream() const { return !stream_path.empty(); }

  /// Positional argument `i` as a double, or `dflt` when absent. An
  /// argument that is not a finite number >= 0 in full is named on stderr
  /// with the usage text, and the process exits with status 2.
  [[nodiscard]] double number(std::size_t i, double dflt) const;
  /// Positional argument `i` as a string, or `dflt` when absent.
  [[nodiscard]] std::string arg(std::size_t i, const std::string& dflt = "") const;
};

/// Parses the shared flags out of argv. On error (a flag `usage` does not
/// name, a missing flag value, a --seed or --shards that is not an integer
/// in full, a malformed --faults spec) prints a message plus `usage` to
/// stderr and returns nullopt; the caller should exit with status 2.
std::optional<Cli> parse_cli(int argc, char** argv, const char* usage);

}  // namespace moongen::examples
