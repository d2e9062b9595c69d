#ifndef HATTRICK_EXEC_EXPRESSION_H_
#define HATTRICK_EXEC_EXPRESSION_H_

#include <memory>
#include <string>
#include <vector>

#include "common/value.h"
#include "exec/batch.h"

namespace hattrick {

/// A scalar expression evaluated against a row. Expression trees are
/// built by the hand-written HATtrick query plans (queries are defined
/// programmatically; there is no SQL parser in this reproduction).
///
/// Two evaluation forms:
///  - Eval: one row at a time. The fallback for nodes without a kernel
///    and for mixed-type inputs, and OrderBy's comparator; the tests
///    also check every kernel against it.
///  - EvalBatch: all physical rows of a Batch at once into a typed
///    ColumnVector. The built-in nodes override it with loop kernels
///    over the typed payloads (no per-cell variant dispatch, no virtual
///    call per row); the base implementation materializes each row and
///    defers to Eval, so any Expr is batch-callable.
///
/// EvalBatch evaluates every *physical* row, ignoring the batch's
/// selection: expressions are pure, so values computed at unselected
/// rows are simply never read. Column types are uniform within a vector,
/// which is what lets one typed kernel stand in for the per-row dynamic
/// dispatch bit-for-bit.
class Expr {
 public:
  virtual ~Expr() = default;
  virtual Value Eval(const Row& row) const = 0;
  virtual void EvalBatch(const Batch& batch, ColumnVector* out) const;
  virtual std::string ToString() const = 0;
};

using ExprPtr = std::shared_ptr<Expr>;

/// References column `index` of the input row.
ExprPtr Col(size_t index);

/// A literal constant.
ExprPtr Lit(Value v);

/// Arithmetic: numeric operands, numeric result (int if both ints).
ExprPtr Add(ExprPtr l, ExprPtr r);
ExprPtr Sub(ExprPtr l, ExprPtr r);
ExprPtr Mul(ExprPtr l, ExprPtr r);

/// Comparisons: int 1/0 result.
ExprPtr Eq(ExprPtr l, ExprPtr r);
ExprPtr Ne(ExprPtr l, ExprPtr r);
ExprPtr Lt(ExprPtr l, ExprPtr r);
ExprPtr Le(ExprPtr l, ExprPtr r);
ExprPtr Gt(ExprPtr l, ExprPtr r);
ExprPtr Ge(ExprPtr l, ExprPtr r);

/// Logical connectives over int operands.
ExprPtr And(ExprPtr l, ExprPtr r);
ExprPtr Or(ExprPtr l, ExprPtr r);
ExprPtr Not(ExprPtr e);

/// value BETWEEN lo AND hi (inclusive).
ExprPtr Between(ExprPtr e, Value lo, Value hi);

/// value IN (list).
ExprPtr InList(ExprPtr e, std::vector<Value> candidates);

}  // namespace hattrick

#endif  // HATTRICK_EXEC_EXPRESSION_H_
