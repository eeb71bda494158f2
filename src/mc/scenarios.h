// Preset model-checking scenarios: the PR 5 regression bugs plus the §16
// revoke-then-promote races as bounded schedule-space configs. Shared by
// tests/mc_test.cc and `ringctl mc` so the CLI, CI and the unit tests
// explore the identical spaces.
//
// Bug scenarios name one seed-era bug re-introducible behind
// RingOptions::TestOnlyBugs. With `inject_bug` the exploration must find the
// violation; without it the same bounded space must be violation-free.
// Robustness scenarios (empty `violation`) have no injectable bug: their
// space must be violation-free in both modes.
#ifndef RING_SRC_MC_SCENARIOS_H_
#define RING_SRC_MC_SCENARIOS_H_

#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/mc/spec.h"

namespace ring::mc {

struct McScenario {
  std::string name;            // CLI handle (`ringctl mc --scenario=<name>`)
  std::string violation;       // oracle the injected bug must trip
  std::string description;     // one line for --help / logs
  McConfig config;             // bounded space, bug flag already applied
};

// All preset scenarios, with the named bug injected or not.
std::vector<McScenario> PresetScenarios(bool inject_bug);

// A single preset by name.
Result<McScenario> PresetScenario(const std::string& name, bool inject_bug);

}  // namespace ring::mc

#endif  // RING_SRC_MC_SCENARIOS_H_
