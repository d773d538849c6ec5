// Machine-readable views of registry snapshots: the JSON schema behind
// every `--json` file and every `--stream` snapshot line (documented in
// DESIGN.md, "Telemetry"), with full fidelity incl. histogram buckets.
// One serializer for every path, so a metric renders identically no
// matter which path exported it.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "telemetry/registry.hpp"

namespace moongen::telemetry {

/// One snapshot as a JSON object (schema "moongen-telemetry-v1").
void write_json(std::ostream& os, const Snapshot& snapshot);

/// A snapshot series as {"schema": "moongen-telemetry-series-v1",
/// "snapshots": [...]}.
void write_json_series(std::ostream& os, const std::vector<Snapshot>& series);

/// Convenience: open `path`, write one JSON snapshot, return false on I/O
/// failure instead of throwing (benches report and move on).
bool dump_json_to_file(const std::string& path, const Snapshot& snapshot);
bool dump_json_series_to_file(const std::string& path, const std::vector<Snapshot>& series);

}  // namespace moongen::telemetry
