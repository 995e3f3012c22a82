// Every payload object lists its keys in ascending byte order.
//
// The payload serializers stream through a JsonWriter, which does not sort:
// each one emits its keys in the order Json::dump gives a sorted tree.  This
// suite parses the payloads back and checks every object in them -- every
// section writer over the nest corpus (each handler, with the options that
// reach its optional keys), and every kind's whole session payload over the
// examples/loops kernels.

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "exact/trace_engine.h"
#include "golden_util.h"
#include "nest_corpus.h"
#include "runtime/handlers.h"
#include "runtime/session.h"
#include "server/wire.h"
#include "support/json_writer.h"
#include "verify/certificate.h"

namespace lmre {
namespace {

// Checks one parsed value and everything below it; returns the objects seen.
int expect_sorted_keys(const WireValue& v, const std::string& path) {
  int objects = 0;
  if (v.kind == WireValue::Kind::kObject) {
    ++objects;
    for (size_t i = 1; i < v.members.size(); ++i) {
      EXPECT_LT(v.members[i - 1].first, v.members[i].first) << "in " << path;
    }
    for (const auto& [key, member] : v.members) {
      objects += expect_sorted_keys(member, path + "." + key);
    }
  } else if (v.kind == WireValue::Kind::kArray) {
    for (size_t i = 0; i < v.elements.size(); ++i) {
      objects += expect_sorted_keys(v.elements[i], path + "[" + std::to_string(i) + "]");
    }
  }
  return objects;
}

int check_text(const std::string& text, const std::string& what) {
  std::string error;
  std::optional<WireValue> doc = parse_wire_json(text, &error);
  EXPECT_TRUE(doc.has_value()) << what << ": " << error;
  return doc ? expect_sorted_keys(*doc, what) : 0;
}

// Writes one section and checks it; a handler that declines the nest as
// asked (a Refusal, or an unsupported shape) writes nothing.
int check_section(const std::string& what,
                  const std::function<void(JsonWriter&)>& write) {
  std::string text;
  try {
    JsonWriter w(text);
    write(w);
  } catch (const Error&) {
    return 0;
  }
  return check_text(text, what);
}

// The reversal of the outermost loop: a plan the prover refutes with a
// witness on most nests that carry a dependence.
std::string reversal_plan(size_t depth) {
  std::string spec;
  for (size_t r = 0; r < depth; ++r) {
    if (r) spec += "; ";
    for (size_t c = 0; c < depth; ++c) {
      if (c) spec += ' ';
      spec += r != c ? "0" : r == 0 ? "-1" : "1";
    }
  }
  return spec;
}

TEST(PayloadOrder, EverySectionOverTheNestCorpus) {
  const std::vector<test::NamedNest> corpus = test::nest_corpus();
  ASSERT_GT(corpus.size(), 80u);
  const RunOptions run;
  int objects = 0;
  for (const auto& [name, nest] : corpus) {
    SCOPED_TRACE(name);
    Program program;
    program.add_phase("main", nest);
    TraceArena arena;
    Metrics metrics;
    objects += check_section(name + ":analysis", [&](JsonWriter& w) {
      analysis_json(w, program, run_analyze(program, run, arena, metrics));
    });
    for (const char* objective : {"", "miss-ratio:4"}) {
      objects += check_section(name + ":optimize " + objective, [&](JsonWriter& w) {
        optimize_json(w, run_optimize(program, objective, run, arena, metrics));
      });
    }
    objects += check_section(name + ":symbolic", [&](JsonWriter& w) {
      symbolic_json(w, run_symbolic(program, metrics));
    });
    for (const std::string& plan : {std::string(), reversal_plan(nest.depth())}) {
      objects += check_section(name + ":verify " + plan, [&](JsonWriter& w) {
        VerifyOutcome v = run_verify(program, plan, run, arena, metrics);
        certificate_json(w, nest, v.verdict);
      });
    }
    AnalysisRequest::Codegen cg;
    cg.plan = "auto";
    cg.run = true;
    cg.cc = "lmre-no-such-compiler";  // the run object's no-compiler form
    objects += check_section(name + ":codegen", [&](JsonWriter& w) {
      codegen_json(w, run_codegen(program, cg, run, arena, metrics));
    });
    for (double rate : {1.0, 0.5}) {
      AnalysisRequest::Mrc mrc;
      mrc.plan = "auto";
      mrc.sample_rate = rate;
      objects += check_section(name + ":mrc", [&](JsonWriter& w) {
        mrc_json(w, run_mrc(program, mrc, run, arena, metrics));
      });
    }
  }
  // Each nest contributes several objects per section.
  EXPECT_GT(objects, static_cast<int>(corpus.size()) * 20);
}

TEST(PayloadOrder, EveryKindsSessionPayload) {
  const std::string root = golden::source_root();
  if (root == "?") GTEST_SKIP() << "source tree not found from test cwd";
  std::vector<std::string> sources;
  for (const char* file : {"example8.loop", "fir.loop", "matmult.loop",
                           "pipeline.loop", "sor.loop", "jacobi.loop"}) {
    sources.push_back(test::read_text(root + "examples/loops/" + file));
  }
  sources.push_back("array A[4];\nfor i = 1 to 8\n  A[i] = A[i - 1];\n");  // lint error
  sources.push_back("for i = 1 to\n");                                    // parse error
  AnalysisSession session{SessionOptions{}};
  int objects = 0;
  for (const std::string& source : sources) {
    ASSERT_FALSE(source.empty());
    for (const AnalysisKindInfo& info : kAnalysisKinds) {
      const AnalysisResult res = session.run(AnalysisRequest(source, "f", info.kind));
      objects += check_text(res.payload, std::string(info.name) + ": " +
                                             source.substr(0, 40));
    }
  }
  EXPECT_GT(objects, 100);
}

}  // namespace
}  // namespace lmre
