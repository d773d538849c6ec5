// Shared fixtures for simulation tests: capture sinks and pre-wired
// testbeds matching the paper's setups.
#pragma once

#include <utility>
#include <vector>

#include "nic/chip.hpp"
#include "nic/frame.hpp"
#include "nic/port.hpp"
#include "sim/event_queue.hpp"
#include "wire/link.hpp"
#include "wire/recorder.hpp"

namespace moongen::test {

/// Records every transmitted frame with its TX start time.
struct CaptureSink : nic::FrameSink {
  std::vector<std::pair<nic::Frame, sim::SimTime>> frames;
  void on_frame(nic::Frame frame, sim::SimTime tx_start_ps) override {
    frames.emplace_back(std::move(frame), tx_start_ps);
  }
};

/// The Table 4 testbed: an X540 transmitting at GbE into an 82580 that
/// timestamps every received packet with 64 ns precision.
struct GbeInterArrivalBed {
  sim::EventQueue events;
  nic::Port tx{events, nic::intel_x540(), 1'000, 101};
  nic::Port rx{events, nic::intel_82580(), 1'000, 202};
  wire::Link link{tx, rx, wire::cat5e_gbe(2.0), 303};
  wire::InterArrivalRecorder recorder{rx, 0};
};

/// Two 10 GbE ports connected by fiber (the Table 3 82599 loopback bed).
struct TenGbeFiberBed {
  explicit TenGbeFiberBed(double cable_m = 2.0)
      : link(a, b, wire::fiber_om3(cable_m), 17) {}
  sim::EventQueue events;
  nic::Port a{events, nic::intel_82599(), 10'000, 11};
  nic::Port b{events, nic::intel_82599(), 10'000, 22};
  wire::Link link;
};

}  // namespace moongen::test
