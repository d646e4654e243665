// Allocation-free type-erased closures for the event engine and the PFS op
// path.
//
// Every scheduled event used to carry a std::function<void()>, which heap-
// allocates for any capture larger than the library's tiny SSO buffer
// (16 bytes on libstdc++) — i.e. for essentially every closure the pfs
// layer schedules.  At millions of events per campaign that is a malloc
// and a free per event, on the system's permanent hot path.
//
// InlineFunction<R(Args...), N> stores the callable inline in a fixed
// N-byte buffer.  There is no heap fallback *by construction*: a closure
// that outgrows the buffer is a compile error, so the zero-allocation
// property cannot silently rot.  The type is move-only (closures own
// moved-in state) and relocation is a move-construct + destroy pair
// dispatched through a static ops table, never a heap round trip.
//
// emplace() builds a closure directly in an empty object's buffer, so a
// container that owns InlineFunction storage (the engine's event slots, a
// Pipe's ring, a FairLink's flows) can take a caller's lambda with a single
// move instead of constructing a temporary and relocating it.
//
// InlineTask is the event closure: void(), 128 bytes, sized for the
// largest closure scheduled today — the fabric's request hop, which
// carries the fabric, both endpoints, the by-value RpcRequest and the
// reply continuation in 120 bytes (128 with alignment; see DESIGN.md).
// Smaller instantiations carry continuations that must themselves ride
// inside an event closure: the PFS client's callbacks and the fabric's
// reply continuation.
#pragma once

#include <cassert>
#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace qif::sim {

template <typename Sig, std::size_t N>
class InlineFunction;

template <typename R, typename... Args, std::size_t N>
class InlineFunction<R(Args...), N> {
 public:
  /// Inline capture budget.  Shrinking it below any live closure is a
  /// compile error at the offending construction site.
  static constexpr std::size_t kStorageBytes = N;

  InlineFunction() noexcept = default;
  InlineFunction(std::nullptr_t) noexcept {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename Fn = std::remove_cvref_t<F>,
            typename = std::enable_if_t<!std::is_same_v<Fn, InlineFunction> &&
                                        !std::is_same_v<Fn, std::nullptr_t> &&
                                        std::is_invocable_r_v<R, Fn&, Args...>>>
  InlineFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    construct<Fn>(std::forward<F>(f));
  }

  InlineFunction(InlineFunction&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(other.storage_, storage_);
      other.ops_ = nullptr;
    }
  }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(other.storage_, storage_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { reset(); }

  /// Invokes the stored closure.  Precondition: non-empty.
  R operator()(Args... args) { return ops_->invoke(storage_, std::forward<Args>(args)...); }

  [[nodiscard]] explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// Destroys the stored closure (if any) and becomes empty.
  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  /// Builds `f` in place in this *empty* function: a callable is moved (or
  /// copied) straight into the buffer, an InlineFunction rvalue is
  /// relocated, and nullptr leaves this empty.  The precondition lets an
  /// owner of pooled cells (event slots, ring cells, flows — all emptied
  /// when their closure leaves) construct into a cold cell without first
  /// reading it.  If constructing the callable throws, this stays empty.
  template <typename F>
  void emplace(F&& f) {
    using Fn = std::remove_cvref_t<F>;
    assert(ops_ == nullptr && "emplace needs an empty InlineFunction");
    if constexpr (std::is_same_v<Fn, InlineFunction>) {
      static_assert(!std::is_lvalue_reference_v<F>, "InlineFunction is move-only");
      ops_ = f.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(f.storage_, storage_);
        f.ops_ = nullptr;
      }
    } else if constexpr (!std::is_same_v<Fn, std::nullptr_t>) {
      static_assert(std::is_invocable_r_v<R, Fn&, Args...>,
                    "emplace needs a callable of the stored signature");
      construct<Fn>(std::forward<F>(f));
    }
  }

 private:
  struct Ops {
    R (*invoke)(void*, Args&&...);
    void (*relocate)(void* src, void* dst) noexcept;  // move into dst, destroy src
    void (*destroy)(void*) noexcept;
  };

  template <typename Fn, typename F>
  void construct(F&& f) {
    static_assert(sizeof(Fn) <= kStorageBytes,
                  "closure exceeds the inline buffer; shrink its captures (or "
                  "box the large member) — there is deliberately no heap "
                  "fallback");
    static_assert(alignof(Fn) <= alignof(std::max_align_t),
                  "over-aligned closures are not supported");
    static_assert(std::is_nothrow_move_constructible_v<Fn>,
                  "closures must be nothrow-movable so event slots can be "
                  "relocated without a throwing state");
    ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
    ops_ = &kOpsFor<Fn>;
  }

  template <typename Fn>
  static R invoke_impl(void* p, Args&&... args) {
    return (*static_cast<Fn*>(p))(std::forward<Args>(args)...);
  }
  template <typename Fn>
  static void relocate_impl(void* src, void* dst) noexcept {
    Fn* s = static_cast<Fn*>(src);
    ::new (dst) Fn(std::move(*s));
    s->~Fn();
  }
  template <typename Fn>
  static void destroy_impl(void* p) noexcept {
    static_cast<Fn*>(p)->~Fn();
  }

  template <typename Fn>
  static constexpr Ops kOpsFor{&invoke_impl<Fn>, &relocate_impl<Fn>, &destroy_impl<Fn>};

  // Storage first: sizeof is N + 8 rounded to the alignment, so the small
  // continuation types stay small.
  alignas(std::max_align_t) std::byte storage_[kStorageBytes];
  const Ops* ops_ = nullptr;
};

/// The event closure type.
using InlineTask = InlineFunction<void(), 128>;

}  // namespace qif::sim
