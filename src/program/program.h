#pragma once

// Multi-nest programs: phases executing in sequence over shared arrays.
//
// Embedded codes are rarely a single nest -- a producer nest fills an array
// a later consumer nest reads.  Sizing memory per nest misses the data
// carried ACROSS nests; this module concatenates the phases into one trace
// (arrays unified by name) and measures the whole-program window, including
// the "handoff" live set at each phase boundary.

#include <map>
#include <string>
#include <vector>

#include "ir/nest.h"
#include "support/error.h"

namespace lmre {

class TraceArena;  // exact/trace_engine.h: reusable dense-engine storage

struct ProgramStats {
  Int iterations = 0;   ///< total iterations over all phases
  Int mws_total = 0;    ///< peak combined window over the whole run
  Int distinct_total = 0;
  Int default_memory = 0;  ///< sum of unified arrays' declared sizes

  /// Iteration ordinal at which each phase starts.
  std::vector<Int> phase_start;

  /// Live elements crossing INTO each phase (index 0 is always 0); the
  /// buffer a phase boundary must preserve.
  std::vector<Int> handoff;

  /// Peak window reached inside each phase.
  std::vector<Int> phase_mws;

  /// Distinct elements per unified (by-name) array.
  std::map<std::string, Int> distinct;
};

class Program {
 public:
  /// Appends a phase.  Arrays are unified across phases by NAME; a name
  /// reused with different extents throws InvalidArgument.  (Inline so the
  /// parser can construct programs without linking the simulation code.)
  void add_phase(std::string name, LoopNest nest) {
    for (const auto& a : nest.arrays()) {
      auto [it, inserted] = global_extents_.emplace(a.name, a.extents);
      if (!inserted) {
        require(it->second == a.extents,
                "Program: array '" + a.name + "' redeclared with different extents");
      }
    }
    phases_.push_back(Phase{std::move(name), std::move(nest)});
  }

  size_t phase_count() const { return phases_.size(); }

  const std::string& phase_name(size_t k) const {
    require(k < phases_.size(), "Program::phase_name out of range");
    return phases_[k].name;
  }

  const LoopNest& phase_nest(size_t k) const {
    require(k < phases_.size(), "Program::phase_nest out of range");
    return phases_[k].nest;
  }

  /// Exact whole-program measurement: one continuous first/last-touch trace
  /// across every phase in order, on the dense trace engine (each array
  /// name is one store whose box spans its references in every phase).
  /// Throws OverflowError when such a box has 2^63 or more elements (lint's
  /// LMRE-E009 reports those programs).
  ProgramStats simulate() const;

  /// simulate reusing the caller's TraceArena.
  ProgramStats simulate(TraceArena& arena) const;

 private:
  struct Phase {
    std::string name;
    LoopNest nest;
  };
  std::vector<Phase> phases_;
  std::map<std::string, std::vector<Int>> global_extents_;
};

}  // namespace lmre
