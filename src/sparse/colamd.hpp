#pragma once
// Column approximate minimum degree ordering (COLAMD-style, Davis et al.).
// Greedy minimum-degree elimination on the column intersection graph of
// A^T A performed symbolically on A itself via row merging: eliminating a
// column absorbs its rows into one new pivot row.
//
// A column's score is COLAMD's approximate external degree, the sum of
// (|r| - 1) over the alive rows r that contain it. Alive rows never contain
// an eliminated column, so |r| is fixed while r lives and the sum is kept
// exactly by increments: eliminating j subtracts each absorbed row from the
// scores of its columns and adds the new pivot row to the scores of its
// columns (the only scores that change). Columns sit in an indexed min-heap
// keyed on (score, column id), so the order is a pure function of the
// input. There is no supercolumn detection and no aggressive absorption.

#include "sparse/csc.hpp"
#include "sparse/permute.hpp"

namespace lra {

/// Fill-reducing column ordering: result[new] = old column.
Perm colamd_order(const CscMatrix& a);

/// The preprocessing used by LU_CRTP in the paper: COLAMD, then a postorder
/// traversal of the column elimination tree of the reordered matrix.
Perm colamd_postordered(const CscMatrix& a);

}  // namespace lra
