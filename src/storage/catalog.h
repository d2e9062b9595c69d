#ifndef HATTRICK_STORAGE_CATALOG_H_
#define HATTRICK_STORAGE_CATALOG_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/schema.h"
#include "common/status.h"
#include "storage/btree.h"
#include "storage/row_table.h"

namespace hattrick {

/// Numeric table identifier used by WAL records and replication.
using TableId = uint32_t;

/// Metadata and storage of one secondary or primary index.
struct IndexInfo {
  std::string name;
  TableId table_id = 0;
  std::vector<size_t> key_columns;  // ordinals within the table schema
  bool unique = false;
  std::unique_ptr<BTree> tree;

  /// Builds the encoded index key for `row` (rid appended when non-unique).
  std::string KeyFor(const Row& row, Rid rid) const;
};

/// Declarative description of the database: tables plus the physical
/// schema (indexes). The paper's physical-schema experiment (Figure 6b)
/// varies the index list: none / T-accelerating only ("semi") / all.
struct TableSpec {
  std::string name;
  Schema schema;
};

struct IndexSpec {
  std::string name;
  std::string table;
  std::vector<size_t> key_columns;
  bool unique = false;
};

struct DatabaseSpec {
  std::vector<TableSpec> tables;
  std::vector<IndexSpec> indexes;
};

/// Owns the row tables and indexes of one engine node (primary, replica).
///
/// A node's catalog is deterministic: table ids are assigned in creation
/// order, so a replica that creates the same tables in the same order can
/// replay WAL records by table id.
class Catalog {
 public:
  Catalog() = default;

  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  /// Creates a row table; the name must be unique.
  RowTable* CreateTable(const std::string& name, Schema schema);

  /// Creates an index over `table_name` keyed on `key_columns`.
  IndexInfo* CreateIndex(const std::string& index_name,
                         const std::string& table_name,
                         std::vector<size_t> key_columns, bool unique);

  /// Lookup helpers; return nullptr when absent.
  RowTable* GetTable(const std::string& name) const;
  RowTable* GetTable(TableId id) const;
  IndexInfo* GetIndex(const std::string& name) const;
  TableId GetTableId(const std::string& name) const;

  /// All indexes defined over table `id` (for write-path maintenance).
  const std::vector<IndexInfo*>& TableIndexes(TableId id) const;

  /// Every index in the catalog, in creation order (used to wire
  /// observability counters onto the trees).
  std::vector<IndexInfo*> AllIndexes() const;

  size_t num_tables() const { return tables_.size(); }
  const std::string& table_name(TableId id) const { return names_[id]; }

  /// Drops all indexes (used by the physical-schema experiments to switch
  /// between no/semi/all index configurations).
  void DropAllIndexes();

  /// Vacuums every table at `horizon` (see RowTable::Vacuum); returns
  /// total versions dropped.
  size_t VacuumAll(Ts horizon);

  /// Deep-copies all table contents and rebuilt indexes from `other`,
  /// which must have an identical layout (benchmark reset).
  void CopyContentsFrom(const Catalog& other);

 private:
  std::vector<std::unique_ptr<RowTable>> tables_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, TableId> by_name_;
  std::vector<std::unique_ptr<IndexInfo>> indexes_;
  std::unordered_map<std::string, IndexInfo*> indexes_by_name_;
  std::vector<std::vector<IndexInfo*>> indexes_by_table_;
};

/// Creates `spec`'s tables (and, with `with_indexes`, its indexes) in a
/// catalog. Every node of every engine builds its catalogs this way.
void BuildCatalog(const DatabaseSpec& spec, bool with_indexes,
                  Catalog* catalog);

/// Inserts `rows` into `table` at load timestamp 1 and maintains the
/// catalog's indexes.
Status BulkLoadInto(Catalog* catalog, const std::string& table,
                    const std::vector<Row>& rows);

}  // namespace hattrick

#endif  // HATTRICK_STORAGE_CATALOG_H_
