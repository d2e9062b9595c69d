#ifndef HATTRICK_TESTS_SSB_REFERENCE_H_
#define HATTRICK_TESTS_SSB_REFERENCE_H_

// Test-only reference for the 13 SSB queries: plain C++ loops over
// materialized table rows. It shares no code with the executor (no
// operators, expressions, hash tables or key encodings), so the tests can
// hold the batch executor's result rows against it.

#include <cstddef>
#include <string>
#include <vector>

#include "common/value.h"
#include "hattrick/datagen.h"
#include "storage/catalog.h"

namespace hattrick {

/// The five tables the SSB queries read, as materialized rows in the
/// logical HATtrick schema.
struct SsbTables {
  std::vector<Row> lineorder;
  std::vector<Row> customer;
  std::vector<Row> supplier;
  std::vector<Row> part;
  std::vector<Row> date;
};

/// The tables of a freshly generated dataset.
SsbTables SsbTablesOf(const Dataset& dataset);

/// The tables of `catalog` as visible at `snapshot`, read with
/// RowTable::Scan (storage only, no exec operators).
SsbTables SsbTablesAt(const Catalog& catalog, Ts snapshot);

/// One query's reference answer.
struct ReferenceResult {
  /// The result rows in the executor's layout (group-by values, then the
  /// SUM as a double), sorted by group key. A Q1 query (global aggregate)
  /// has exactly one row, even with no matching lineorder.
  std::vector<Row> rows;
  /// Lineorder rows that passed every predicate and join.
  size_t fact_rows = 0;
};

/// Evaluates query `query_id` (0..12, Q1.1..Q4.3) over `tables`. SUMs
/// accumulate in 1e-4 fixed point, the executor's DECIMAL(.,4) semantics.
ReferenceResult ReferenceQuery(int query_id, const SsbTables& tables);

/// A small dataset on which every one of the 13 queries has matching
/// lineorders (the generator's dimension attributes decide that; most
/// seeds leave the city-level Q3.3/Q3.4 empty).
DatagenConfig ReferenceDatasetConfig();

/// Cell-by-cell comparison of result rows including each cell's type
/// (Value's operator== compares ints and doubles numerically). Returns an
/// empty string when `got` equals `want`, else a description of the first
/// difference. Shared by every test that checks rows against a reference.
std::string DiffRows(const std::vector<Row>& got,
                     const std::vector<Row>& want);

}  // namespace hattrick

#endif  // HATTRICK_TESTS_SSB_REFERENCE_H_
