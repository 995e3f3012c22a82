#include "verify/certificate.h"

namespace lmre {

namespace {

const char* status_str(DepStatus s) {
  switch (s) {
    case DepStatus::kPreserved: return "preserved";
    case DepStatus::kReversed: return "reversed";
    case DepStatus::kUnproven: return "unproven";
  }
  return "?";
}

const char* proof_str(ProofKind p) {
  switch (p) {
    case ProofKind::kNone: return "none";
    case ProofKind::kPivot: return "pivot";
    case ProofKind::kCone: return "cone";
    case ProofKind::kExhaustive: return "exhaustive";
  }
  return "?";
}

void witness_json(JsonWriter& w, const IterationWitness& wit) {
  w.begin_object();
  w.key("dst_iter").int_array(wit.dst_iter);
  w.key("dst_time").int_array(wit.dst_time);
  w.key("element").int_array(wit.element);
  w.key("src_iter").int_array(wit.src_iter);
  w.key("src_time").int_array(wit.src_time);
  w.field("tiled", wit.tiled).end_object();
}

void levels_json(JsonWriter& w, const std::vector<LevelClass>& levels) {
  w.begin_array();
  for (const LevelClass& lc : levels) {
    w.begin_object()
        .key("carriers")
        .int_array(lc.carriers)
        .field("doall", lc.doall)
        .field("exact", lc.exact)
        .field("level", static_cast<Int>(lc.level))
        .end_object();
  }
  w.end_array();
}

void dependence_json(JsonWriter& w, const LoopNest& nest, const DepVerdict& v) {
  const bool distance = v.basis == DepBasis::kDistance;
  w.begin_object()
      .field("array", nest.array(v.array).name)
      .field("basis", distance ? "distance" : "direction");
  if (distance) {
    w.key("distance").int_array(v.distance);
  } else {
    w.field("direction", direction_vector_string(v.directions));
  }
  w.field("dst_ref", static_cast<Int>(v.dst_ref)).field("kind", to_string(v.kind));
  if (!v.tileable) {
    w.field("negative_component", static_cast<Int>(v.negative_component));
  }
  if (v.status == DepStatus::kPreserved && v.proof != ProofKind::kNone) {
    w.key("proof").begin_object().field("kind", proof_str(v.proof));
    if (v.proof == ProofKind::kPivot) {
      w.field("level", static_cast<Int>(v.proof_level));
    }
    w.end_object();
  }
  w.field("src_ref", static_cast<Int>(v.src_ref)).field("status", status_str(v.status));
  if (!v.tileable && v.tile_witness.has_value()) {
    w.key("tile_witness");
    witness_json(w, *v.tile_witness);
  }
  w.field("tileable", v.tileable);
  if (distance) w.key("transformed").int_array(v.transformed);
  if (v.witness.has_value()) {
    w.key("witness");
    witness_json(w, *v.witness);
  }
  w.end_object();
}

}  // namespace

void certificate_json(JsonWriter& w, const LoopNest& nest, const VerifyResult& res) {
  const bool structural = res.structure_error.empty();
  w.begin_object().key("bounds").begin_array();
  for (size_t k = 0; k < nest.depth(); ++k) {
    w.begin_array()
        .value(nest.bounds().range(k).lo)
        .value(nest.bounds().range(k).hi)
        .end_array();
  }
  w.end_array().field("certified", structural && res.certified);
  if (structural) {
    w.key("counts")
        .begin_object()
        .field("memory", static_cast<Int>(res.memory_deps))
        .field("total", static_cast<Int>(res.total_deps))
        .end_object();
    w.key("dependences").begin_array();
    for (const DepVerdict& v : res.verdicts) dependence_json(w, nest, v);
    w.end_array();
  }
  w.field("depth", static_cast<Int>(nest.depth()));
  if (structural) {
    w.field("direction_only", res.direction_only)
        .field("exact", res.exact)
        .field("legal", res.legal)
        .key("levels")
        .begin_object()
        .key("original");
    levels_json(w, res.original_levels);
    w.key("transformed");
    levels_json(w, res.transformed_levels);
    w.end_object();
  }

  w.key("plan").begin_object();
  if (structural) w.key("combined").matrix(res.combined);
  w.field("spec", res.plan.str()).key("steps").begin_array();
  for (const IntMat& s : res.plan.steps) w.matrix(s);
  w.end_array();
  if (res.plan.has_tiling()) w.key("tile").int_array(res.plan.tile_sizes);
  w.end_object();

  if (!structural) {
    w.field("structure_error", res.structure_error).end_object();
    return;
  }
  w.field("tileable", res.tileable)
      .field("wavefront_race_free", res.wavefront_race_free)
      .end_object();
}

}  // namespace lmre
