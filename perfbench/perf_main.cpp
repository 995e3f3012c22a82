// lmre_perf: the benchmark's untraced helper.
//
//   lmre_perf load --requests F --port P --pid PID --conns C --seconds S
//                  --golden G [--count N]
//   lmre_perf probe --requests F --threads T
//
// Both print one JSON object on stdout; run.py consumes it.

#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "common.h"

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) {
    std::cerr << "usage: lmre_perf load|probe [flags]\n";
    return 2;
  }
  const std::string cmd = args.front();
  args.erase(args.begin());
  try {
    if (cmd == "load") return perf::run_load(args);
    if (cmd == "probe") return perf::run_probe(args);
  } catch (const std::exception& e) {
    std::cerr << "lmre_perf " << cmd << ": " << e.what() << '\n';
    return 1;
  }
  std::cerr << "lmre_perf: unknown command " << cmd << '\n';
  return 2;
}
