#include "qif/ml/gemm.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "qif/exec/thread_pool.hpp"

namespace qif::ml {
namespace {

// Register tile: kMr C rows by kNr C columns of accumulators, with a
// narrower kNrSub tile and a scalar loop sweeping the column remainder.
// 32 columns is four cache lines of C per tile row — wide enough that the
// vectorizer emits full-width FMA chains on AVX-capable cores while the
// baseline SSE2 build keeps the accumulators hot in L1.  The j-lane
// vectorization this enables never reorders any single element's
// reduction — each acc[r][q] is still one scalar sum over ascending k —
// so the determinism contract is unaffected.
constexpr std::size_t kMr = 4;
constexpr std::size_t kNr = 32;
constexpr std::size_t kNrSub = 8;

// Below this many multiply-adds the pool's dispatch latency eats the win.
constexpr std::size_t kParallelMinMadds = std::size_t{1} << 17;

// Row-count invariance: every output row must get the same bits no matter
// how many other rows the call covers (the serving layer's batched-vs-sync
// identity rests on it).  A separate single-row remainder loop breaks that
// promise in practice — the compiler contracts mul+add into FMA
// differently for different loop shapes, so the same row's reduction
// rounds differently depending on which loop computed it.  Instead the
// final partial tile is padded to a full kMr-row micro-kernel: padded
// lanes re-read the tile's first row (any in-bounds row works — the lanes
// are value-independent) and write into this discarded scratch row.  Each
// logical row therefore always runs at tile lane (row % kMr) through the
// one compiled kernel body, at the cost of at most kMr-1 rows of wasted
// arithmetic on the tail.  The row belongs to the calling thread: row
// blocks are kMr-aligned, so only the block holding the last row can have
// a padded tile, and pool workers need no scratch of their own.
double* pad_row(std::size_t n) {
  thread_local std::vector<double> buf;
  if (buf.size() < n) buf.resize(n);
  return buf.data();
}

// NT runs on the NN kernel: B (n x k) is first transposed into this
// calling-thread scratch as Bᵀ (k x n); pool workers only read it while
// the caller waits in run_rows.  Like pad_row it only grows, so once the
// largest layer has been seen the backward pass allocates nothing.
double* transpose_into_scratch(MatView b) {
  thread_local std::vector<double> buf;
  if (buf.size() < b.size()) buf.resize(b.size());
  double* bt = buf.data();
  for (std::size_t j = 0; j < b.rows; ++j) {
    const double* src = b.row(j);
    for (std::size_t kk = 0; kk < b.cols; ++kk) bt[kk * b.rows + j] = src[kk];
  }
  return bt;
}

// The kernels are compiled once per x86-64 microarchitecture level and
// dispatched by runtime CPU probe, so a portable build still runs
// AVX2/AVX-512 FMA code on cores that have it.  Dispatch is an ordinary
// branch on a cached probe (no ifunc), which keeps sanitizer builds and
// non-GCC toolchains simple; the probe is per-process constant, so every
// GEMM in a run — serial or pooled — executes the same variant and
// results stay bit-identical across worker counts.
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__) && __GNUC__ >= 11
#define QIF_GEMM_MULTIARCH 1
#define QIF_GEMM_V3 __attribute__((target("arch=x86-64-v3")))
#define QIF_GEMM_V4 __attribute__((target("arch=x86-64-v4")))
#else
#define QIF_GEMM_MULTIARCH 0
#define QIF_GEMM_V3
#define QIF_GEMM_V4
#endif

enum class Isa { kBase, kV3, kV4 };

Isa isa_level() {
#if QIF_GEMM_MULTIARCH
  static const Isa level = [] {
    if (__builtin_cpu_supports("x86-64-v4")) return Isa::kV4;
    if (__builtin_cpu_supports("x86-64-v3")) return Isa::kV3;
    return Isa::kBase;
  }();
  return level;
#else
  return Isa::kBase;
#endif
}

// Shape guards must survive NDEBUG builds: an assert that compiles away
// turns a dimension bug into a silent out-of-bounds read.
void check_shapes(std::size_t lhs, std::size_t rhs, const char* what) {
  if (lhs != rhs) {
    throw std::invalid_argument(std::string("matmul shape mismatch (") + what + "): " +
                                std::to_string(lhs) + " vs " + std::to_string(rhs));
  }
}

void prepare_output(Matrix& c, std::size_t m, std::size_t n, bool accumulate, MatView a,
                    MatView b) {
  // Alias check must precede the resize: growing c can reallocate, which
  // would leave an aliasing input view dangling AND make the overlap
  // undetectable afterwards.
  if (!c.data().empty()) {
    const double* cp = c.data().data();
    if ((a.size() != 0 && cp == a.ptr) || (b.size() != 0 && cp == b.ptr)) {
      throw std::invalid_argument("gemm: output matrix aliases an input");
    }
  }
  if (accumulate) {
    if (c.rows() != m || c.cols() != n) {
      throw std::invalid_argument("gemm: accumulate output must already be shaped " +
                                  std::to_string(m) + "x" + std::to_string(n));
    }
  } else {
    c.resize(m, n);
  }
}

/// Runs fn(lo, hi) over row ranges covering [0, m).  Row blocks are
/// aligned to kMr so every worker runs the same micro-kernel sequence it
/// would serially (only the final block can end in a padded tail tile);
/// because each C row belongs to exactly one block and each element is
/// reduced by one accumulator over ascending k, the result is
/// bit-identical for any worker count or block size.
template <typename RowsFn>
void run_rows(std::size_t m, std::size_t madds, exec::ThreadPool* pool, const RowsFn& fn) {
  if (pool == nullptr || pool->size() <= 1 || madds < kParallelMinMadds || m < 2 * kMr) {
    fn(std::size_t{0}, m);
    return;
  }
  const auto workers = static_cast<std::size_t>(pool->size());
  std::size_t block = (m + workers - 1) / workers;
  block = ((block + kMr - 1) / kMr) * kMr;
  const std::size_t n_blocks = (m + block - 1) / block;
  // One captured reference fits std::function's inline buffer, so the
  // fan-out allocates nothing.
  const struct {
    std::size_t m, block;
    const RowsFn& fn;
  } part{m, block, fn};
  pool->for_each_index(n_blocks, [&part](std::size_t t) {
    const std::size_t lo = t * part.block;
    part.fn(lo, std::min(part.m, lo + part.block));
  });
}

// ---------------------------------------------------------------------------
// NN: c(i,j) = sum_k a(i,k) * b(k,j)
// TN: c(i,j) = sum_k a(k,i) * b(k,j)
//
// One body serves both: the two differ only in how the kMr operand values
// for step k are addressed (per-row streams for NN, one contiguous slice
// of a's row k for TN).  always_inline is load-bearing — the body must
// inline into each target-attributed wrapper to be compiled at that
// wrapper's ISA level.
// ---------------------------------------------------------------------------
template <bool kTransA>
__attribute__((always_inline)) inline void nn_tn_body(
    std::size_t i0, std::size_t i1, std::size_t n, std::size_t k, const double* __restrict a,
    std::size_t lda, const double* __restrict b, std::size_t ldb, double* __restrict c,
    std::size_t ldc, bool accumulate, double* __restrict pad) {
  const auto a_at = [&](std::size_t row, std::size_t kk) {
    return kTransA ? a[kk * lda + row] : a[row * lda + kk];
  };
  for (std::size_t i = i0; i < i1; i += kMr) {
    // Padded tail: lanes past the last real row re-read row i and write to
    // `pad`.  The FP loops below never branch on `rem`, so full and padded
    // tiles execute the identical instruction sequence.
    const std::size_t rem = i1 - i;
    std::size_t arow[kMr];
    double* crow[kMr];
    for (std::size_t r = 0; r < kMr; ++r) {
      arow[r] = r < rem ? i + r : i;
      crow[r] = r < rem ? c + (i + r) * ldc : pad;
    }
    std::size_t j = 0;
    for (; j + kNr <= n; j += kNr) {
      double acc[kMr][kNr];
      for (std::size_t r = 0; r < kMr; ++r) {
        for (std::size_t q = 0; q < kNr; ++q) acc[r][q] = accumulate ? crow[r][j + q] : 0.0;
      }
      for (std::size_t kk = 0; kk < k; ++kk) {
        const double* br = b + kk * ldb + j;
        for (std::size_t r = 0; r < kMr; ++r) {
          const double av = a_at(arow[r], kk);
          for (std::size_t q = 0; q < kNr; ++q) acc[r][q] += av * br[q];
        }
      }
      for (std::size_t r = 0; r < kMr; ++r) {
        for (std::size_t q = 0; q < kNr; ++q) crow[r][j + q] = acc[r][q];
      }
    }
    for (; j + kNrSub <= n; j += kNrSub) {
      double acc[kMr][kNrSub];
      for (std::size_t r = 0; r < kMr; ++r) {
        for (std::size_t q = 0; q < kNrSub; ++q) {
          acc[r][q] = accumulate ? crow[r][j + q] : 0.0;
        }
      }
      for (std::size_t kk = 0; kk < k; ++kk) {
        const double* br = b + kk * ldb + j;
        for (std::size_t r = 0; r < kMr; ++r) {
          const double av = a_at(arow[r], kk);
          for (std::size_t q = 0; q < kNrSub; ++q) acc[r][q] += av * br[q];
        }
      }
      for (std::size_t r = 0; r < kMr; ++r) {
        for (std::size_t q = 0; q < kNrSub; ++q) crow[r][j + q] = acc[r][q];
      }
    }
    for (; j < n; ++j) {
      double s[kMr];
      for (std::size_t r = 0; r < kMr; ++r) s[r] = accumulate ? crow[r][j] : 0.0;
      for (std::size_t kk = 0; kk < k; ++kk) {
        const double bv = b[kk * ldb + j];
        for (std::size_t r = 0; r < kMr; ++r) s[r] += a_at(arow[r], kk) * bv;
      }
      for (std::size_t r = 0; r < kMr; ++r) crow[r][j] = s[r];
    }
  }
}

// Per-ISA instantiations + dispatcher.  Args are bundled so the wrapper
// signatures stay readable.
struct RowsArgs {
  std::size_t i0, i1, n, k;
  const double* a;
  std::size_t lda;
  const double* b;
  std::size_t ldb;
  double* c;
  std::size_t ldc;
  bool accumulate;
  double* pad;
};

#define QIF_GEMM_DEFINE_VARIANTS(name, body_expr)                              \
  void name##_base(const RowsArgs& r) { body_expr; }                           \
  QIF_GEMM_V3 void name##_v3(const RowsArgs& r) { body_expr; }                 \
  QIF_GEMM_V4 void name##_v4(const RowsArgs& r) { body_expr; }                 \
  void name(const RowsArgs& r) {                                               \
    switch (isa_level()) {                                                     \
      case Isa::kV4: name##_v4(r); return;                                     \
      case Isa::kV3: name##_v3(r); return;                                     \
      case Isa::kBase: break;                                                  \
    }                                                                          \
    name##_base(r);                                                            \
  }

QIF_GEMM_DEFINE_VARIANTS(nn_rows,
                         (nn_tn_body<false>(r.i0, r.i1, r.n, r.k, r.a, r.lda, r.b, r.ldb, r.c,
                                            r.ldc, r.accumulate, r.pad)))
QIF_GEMM_DEFINE_VARIANTS(tn_rows,
                         (nn_tn_body<true>(r.i0, r.i1, r.n, r.k, r.a, r.lda, r.b, r.ldb, r.c,
                                           r.ldc, r.accumulate, r.pad)))

#undef QIF_GEMM_DEFINE_VARIANTS

}  // namespace

void gemm_nn(MatView a, MatView b, Matrix& c, bool accumulate, exec::ThreadPool* pool) {
  check_shapes(a.cols, b.rows, "A.cols vs B.rows");
  prepare_output(c, a.rows, b.cols, accumulate, a, b);
  if (a.rows == 0 || b.cols == 0) return;
  double* pad = pad_row(b.cols);
  run_rows(a.rows, a.rows * a.cols * b.cols, pool, [&](std::size_t lo, std::size_t hi) {
    nn_rows({lo, hi, b.cols, a.cols, a.ptr, a.cols, b.ptr, b.cols, c.data().data(), c.cols(),
             accumulate, pad});
  });
}

void gemm_tn(MatView a, MatView b, Matrix& c, bool accumulate, exec::ThreadPool* pool) {
  check_shapes(a.rows, b.rows, "A.rows vs B.rows");
  prepare_output(c, a.cols, b.cols, accumulate, a, b);
  if (a.cols == 0 || b.cols == 0) return;
  double* pad = pad_row(b.cols);
  run_rows(a.cols, a.rows * a.cols * b.cols, pool, [&](std::size_t lo, std::size_t hi) {
    tn_rows({lo, hi, b.cols, a.rows, a.ptr, a.cols, b.ptr, b.cols, c.data().data(), c.cols(),
             accumulate, pad});
  });
}

void gemm_nt(MatView a, MatView b, Matrix& c, bool accumulate, exec::ThreadPool* pool) {
  check_shapes(a.cols, b.cols, "A.cols vs B.cols");
  prepare_output(c, a.rows, b.rows, accumulate, a, b);
  if (a.rows == 0 || b.rows == 0) return;
  const double* bt = transpose_into_scratch(b);
  double* pad = pad_row(b.rows);
  run_rows(a.rows, a.rows * a.cols * b.rows, pool, [&](std::size_t lo, std::size_t hi) {
    nn_rows({lo, hi, b.rows, a.cols, a.ptr, a.cols, bt, b.rows, c.data().data(), c.cols(),
             accumulate, pad});
  });
}

}  // namespace qif::ml
