// Shared random-program generator for fuzz-style tests: ir_fuzz_test.cpp
// checks interpreter invariants over it, replay_differential_test.cpp feeds
// its traces through the simulator and the record-at-a-time oracle.
#pragma once

#include <cstdint>
#include <vector>

#include "spf/common/rng.hpp"
#include "spf/ir/ir.hpp"
#include "spf/ir/vm.hpp"

namespace spf::ir {

/// Generates a random well-formed program: arithmetic over previous values,
/// loads at (masked) computed addresses, occasional stores, at most one
/// inner loop with a bounded trip constant, and a register-carried pointer
/// chased through a pre-seeded ring.
inline Program random_program(std::uint64_t seed, VirtualMemory& vm) {
  Xoshiro256 rng(seed);
  ProgramBuilder b(static_cast<std::uint32_t>(8 + rng.below(64)));

  // Seed a pointer ring so register chases stay inside a known region.
  constexpr Addr kRing = 0x100000;
  constexpr std::uint64_t kRingNodes = 32;
  for (std::uint64_t i = 0; i < kRingNodes; ++i) {
    vm.write(kRing + i * 64, kRing + ((i + 1) % kRingNodes) * 64);
  }

  std::vector<std::int32_t> values;  // ids usable as operands (current scope)
  values.push_back(b.constant(kRing));
  values.push_back(b.constant(0xffff8));  // address mask (keeps addrs sane)
  values.push_back(b.iter_index());
  const std::int32_t mask = values[1];

  auto any_value = [&]() {
    return values[rng.below(values.size())];
  };
  auto masked_addr = [&]() {
    // (v & mask) + ring base: valid, bounded addresses.
    return b.add(b.band(any_value(), mask), values[0]);
  };

  // Spine chase through the ring.
  const auto cur = b.reg_read(0);
  values.push_back(cur);
  const auto next = b.load(cur, 1, kFlagSpine);
  values.push_back(next);
  b.reg_write(0, next);

  const std::uint64_t instrs = 4 + rng.below(20);
  bool in_loop = false;
  std::size_t loop_values_mark = 0;
  for (std::uint64_t k = 0; k < instrs; ++k) {
    switch (rng.below(in_loop ? 6 : 7)) {
      case 0:
        values.push_back(b.add(any_value(), any_value()));
        break;
      case 1:
        values.push_back(b.mul(any_value(), any_value()));
        break;
      case 2:
        values.push_back(b.shl(any_value(), rng.below(4)));
        break;
      case 3:
        values.push_back(b.load(masked_addr(), 2,
                                rng.below(2) ? kFlagDelinquent : TraceFlags{0},
                                static_cast<std::uint16_t>(rng.below(4))));
        break;
      case 4:
        b.store(masked_addr(), any_value(), 3);
        break;
      case 5:
        if (in_loop) {
          b.loop_end();
          in_loop = false;
          values.resize(loop_values_mark);  // in-loop values out of scope
        } else {
          values.push_back(b.inner_index());
        }
        break;
      case 6: {
        const auto trip = b.constant(1 + rng.below(5));
        values.push_back(trip);
        b.loop_begin(trip);
        in_loop = true;
        loop_values_mark = values.size();
        values.push_back(b.inner_index());
        break;
      }
    }
  }
  if (in_loop) b.loop_end();
  // Guarantee at least one delinquent load so slicing has a seed.
  b.load(masked_addr(), 4, kFlagDelinquent);

  Program p = b.take();
  p.reg_init = {kRing};
  return p;
}

}  // namespace spf::ir
