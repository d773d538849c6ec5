#include "cli.hpp"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>

namespace moongen::examples {

double Cli::number(std::size_t i, double dflt) const {
  if (i >= positional.size()) return dflt;
  return std::atof(positional[i].c_str());
}

std::string Cli::arg(std::size_t i, const std::string& dflt) const {
  if (i >= positional.size()) return dflt;
  return positional[i];
}

std::optional<Cli> parse_cli(int argc, char** argv, const char* usage) {
  if (usage == nullptr) usage = "";
  Cli cli;
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    const bool has_value = i + 1 < argc;
    const bool takes_value = std::strcmp(a, "--json") == 0 || std::strcmp(a, "--faults") == 0 ||
                             std::strcmp(a, "--seed") == 0 || std::strcmp(a, "--shards") == 0 ||
                             std::strcmp(a, "--stream") == 0;
    // A shared flag the example's usage does not name would be parsed and
    // then silently ignored; refuse it instead.
    if (takes_value && std::strstr(usage, a) == nullptr) {
      std::fprintf(stderr, "%s is not supported here\n%s", a, usage);
      return std::nullopt;
    }
    if (takes_value && !has_value) {
      std::fprintf(stderr, "%s requires a value\n%s", a, usage);
      return std::nullopt;
    }
    if (std::strcmp(a, "--json") == 0) {
      cli.json_path = argv[++i];
    } else if (std::strcmp(a, "--faults") == 0) {
      cli.faults_text = argv[++i];
    } else if (std::strcmp(a, "--stream") == 0) {
      cli.stream_path = argv[++i];
    } else if (std::strcmp(a, "--seed") == 0) {
      cli.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(a, "--shards") == 0) {
      cli.shards = std::atoi(argv[++i]);
      if (cli.shards < 1) {
        std::fprintf(stderr, "--shards must be >= 1\n%s", usage);
        return std::nullopt;
      }
    } else if (std::strcmp(a, "--help") == 0 || std::strcmp(a, "-h") == 0) {
      std::fprintf(stderr, "%s", usage);
      return std::nullopt;
    } else {
      cli.positional.emplace_back(a);
    }
  }
  if (!cli.faults_text.empty()) {
    try {
      cli.faults = fault::FaultSpec::parse(cli.faults_text);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bad --faults spec: %s\n%s", e.what(), usage);
      return std::nullopt;
    }
  }
  return cli;
}

}  // namespace moongen::examples
