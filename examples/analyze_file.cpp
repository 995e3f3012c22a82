// Analyze a loop nest written in the textual DSL.
//
//   analyze_file --file=path/to/nest.loop [--optimize]
//   echo "for i = 1 to 10 { use A[2*i]; }" | analyze_file
//
// Grammar: see src/ir/parser.h.  Prints the dependence set, the memory
// report (estimates next to exact oracle values) and, with --optimize, the
// best legal transformation found and the transformed loop.

#include <fstream>
#include <iostream>
#include <sstream>

#include "analysis/report.h"
#include "dependence/dependence.h"
#include "exact/oracle.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "support/cli.h"
#include "transform/minimizer.h"
#include "transform/transformed.h"

using namespace lmre;

int main(int argc, char** argv) {
  std::string file = "-";
  bool optimize = false;
  Cli cli("analyze_file");
  cli.flag("file", &file, "DSL file to analyze ('-' reads stdin)");
  cli.flag("optimize", &optimize, "also search for a window-minimizing transformation");
  if (auto rc = cli.parse_main(argc, argv)) return *rc;

  std::string source;
  if (file == "-") {
    std::ostringstream ss;
    ss << std::cin.rdbuf();
    source = ss.str();
  } else {
    std::ifstream in(file);
    if (!in) {
      std::cerr << "cannot open " << file << '\n';
      return 1;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    source = ss.str();
  }

  Program program = [&] {
    try {
      return parse_program(source);
    } catch (const ParseError& e) {
      std::cerr << e.what() << '\n';
      std::exit(1);
    }
  }();

  if (program.phase_count() > 1) {
    ProgramStats s = program.simulate();
    std::cout << "== Multi-phase program ==\n";
    for (size_t k = 0; k < program.phase_count(); ++k) {
      std::cout << "-- phase " << program.phase_name(k) << " --\n"
                << print_nest(program.phase_nest(k)) << '\n';
    }
    std::cout << "whole-program window: " << s.mws_total
              << "\ndistinct elements:    " << s.distinct_total << '\n';
    for (size_t k = 1; k < program.phase_count(); ++k) {
      std::cout << "handoff into " << program.phase_name(k) << ": "
                << s.handoff[k] << '\n';
    }
    return 0;
  }
  LoopNest nest = program.phase_nest(0);

  std::cout << "== Parsed nest ==\n" << print_nest(nest) << '\n';

  DependenceInfo info = analyze_dependences(nest);
  std::cout << "== Dependences ==\n";
  if (info.deps.empty()) std::cout << "  (none)\n";
  for (const auto& d : info.deps) {
    std::cout << "  " << to_string(d.kind) << ' ' << d.distance.str() << "  (level "
              << d.level() << ")\n";
  }
  if (info.has_nonuniform()) {
    std::cout << "  note: some references are non-uniformly generated;\n"
                 "  distinct counts use range bounds for those arrays.\n";
  }

  std::cout << "\n== Memory report ==\n" << render(analyze_memory(nest));

  if (optimize) {
    OptimizeResult opt = optimize_locality(nest);
    std::cout << "\n== Optimizer ==\nmethod: " << opt.method << "\nT = "
              << opt.transform.str() << '\n';
    TransformedNest tn(nest, opt.transform);
    std::cout << "\n== Transformed loop ==\n" << tn.print();
    std::cout << "\nexact MWS: " << simulate(nest).mws_total << " -> "
              << tn.simulate().mws_total << '\n';
  }
  return 0;
}
