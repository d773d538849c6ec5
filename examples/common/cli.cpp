#include "cli.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>

namespace moongen::examples {

namespace {

/// Parses all of `text` as a T; false on trailing bytes, range or syntax.
template <typename T>
bool parse_whole(const char* text, T& out) {
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, out);
  return ec == std::errc{} && ptr == end && ptr != text;
}

}  // namespace

double Cli::number(std::size_t i, double dflt) const {
  if (i >= positional.size()) return dflt;
  double v = 0.0;
  if (!parse_whole(positional[i].c_str(), v) || !std::isfinite(v) || v < 0.0) {
    std::fprintf(stderr, "argument %zu (%s) is not a finite number >= 0\n%s", i + 1,
                 positional[i].c_str(), usage);
    std::exit(2);
  }
  return v;
}

std::string Cli::arg(std::size_t i, const std::string& dflt) const {
  if (i >= positional.size()) return dflt;
  return positional[i];
}

std::optional<Cli> parse_cli(int argc, char** argv, const char* usage) {
  if (usage == nullptr) usage = "";
  Cli cli;
  cli.usage = usage;
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
      if (!parse_whole(argv[++i], cli.seed)) {
        std::fprintf(stderr, "--seed %s is not an unsigned integer\n%s", argv[i], usage);
        return std::nullopt;
      }
    } else if (std::strcmp(a, "--shards") == 0) {
      if (!parse_whole(argv[++i], cli.shards) || cli.shards < 1) {
        std::fprintf(stderr, "--shards %s is not an integer >= 1\n%s", argv[i], usage);
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
