#pragma once
// Binary (de)serialization of factorization results, so a factorization
// computed once (e.g. by the CLI tool) can be stored and re-applied later.
// Layout (support/bytes.hpp): the magic "LRAFACT1", a kind tag ('L' or
// 'Q'), the i32 status, the i64 rank and iterations, the result's doubles,
// then the factors. A sparse factor is its i64 row and column counts and
// its CSC arrays (put_csc_arrays); a dense one its i64 row and column
// counts and its column-major entries. Files are not portable across
// endianness (documented limitation).
//
// A save encodes the whole file in memory and writes it once; a load reads
// it whole and decodes it. Every load error, corrupt contents included, is
// a std::runtime_error that names the file.

#include <string>

#include "core/lu_crtp.hpp"
#include "core/randqb_ei.hpp"

namespace lra {

void save_factorization(const std::string& path, const LuCrtpResult& r);
void save_factorization(const std::string& path, const RandQbResult& r);

/// Peek at the stored kind: "lu" or "qb"; throws on anything else.
std::string stored_factorization_kind(const std::string& path);

LuCrtpResult load_lu_factorization(const std::string& path);
RandQbResult load_qb_factorization(const std::string& path);

}  // namespace lra
