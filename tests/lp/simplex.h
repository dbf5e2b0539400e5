// Bounded-variable two-phase primal simplex (test-only reference).
//
// This is the tableau-based reference path: every solve is from scratch.
// The warm-startable revised-simplex engine (lp/revised_simplex.h) is
// the library's LP engine — branch & bound included; this engine lives
// in tests/lp only, as the LP-level differential reference (the tests
// here cross-check the two on random models).
#pragma once

#include "lp/model.h"
#include "lp/solve.h"

namespace stx::lp {

/// Solves `m` with the bounded-variable two-phase tableau simplex method.
///
/// Upper/lower variable bounds are handled implicitly (nonbasic variables
/// rest at either bound), so models with thousands of 0-1 variables do not
/// pay for explicit bound rows. Equality rows are handled through phase-1
/// artificials; Bland's rule engages automatically under prolonged
/// degeneracy so the method always terminates.
solve_result solve_simplex(const model& m, const solve_options& opts = {});

}  // namespace stx::lp
