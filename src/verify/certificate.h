#pragma once

// Machine-checkable JSON certificate of a verify_plan() result.
//
// The certificate carries everything the independent checker (checker.h)
// and the trace engine need to re-validate the verdict without re-running
// the prover: the plan (steps, tile sizes, combined matrix), one entry per
// dependence edge with its proof term or violation witness, the per-level
// DOALL classification with carrier references, and the wavefront race
// verdict.  DESIGN.md section 12 documents the format and the witness
// replay contract.

#include "ir/nest.h"
#include "support/json_writer.h"
#include "verify/verify.h"

namespace lmre {

/// Writes the certificate object (keys in ascending order).
void certificate_json(JsonWriter& w, const LoopNest& nest, const VerifyResult& res);

}  // namespace lmre
