/**
 * @file
 * A move-only type-erased callable with fixed in-place storage.
 *
 * The simulator's hot path (event callbacks, bank-op completions, read
 * completions, write-space waiters) used to carry std::function, which
 * heap-allocates every capture larger than two pointers. InlineFunction
 * stores the callable inside the object: a capture that does not fit
 * `Capacity` bytes is a compile error (static_assert), never a silent
 * heap fallback. Trivially copyable captures — the common case, a few
 * pointers and integers — relocate with a plain memcpy.
 */

#ifndef SDPCM_COMMON_INLINE_FUNCTION_HH
#define SDPCM_COMMON_INLINE_FUNCTION_HH

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace sdpcm {

template <typename Signature, std::size_t Capacity>
class InlineFunction;

template <typename R, typename... Args, std::size_t Capacity>
class InlineFunction<R(Args...), Capacity>
{
  public:
    InlineFunction() = default;

    template <typename F,
              typename D = std::decay_t<F>,
              typename = std::enable_if_t<
                  !std::is_same_v<D, InlineFunction> &&
                  std::is_invocable_r_v<R, D&, Args...>>>
    InlineFunction(F&& f)
    {
        static_assert(sizeof(D) <= Capacity,
                      "callable capture exceeds InlineFunction capacity");
        static_assert(alignof(D) <= alignof(std::max_align_t),
                      "callable is over-aligned for InlineFunction");
        static_assert(std::is_nothrow_move_constructible_v<D>,
                      "callable must be nothrow move constructible");
        ::new (static_cast<void*>(buf_)) D(std::forward<F>(f));
        ops_ = &kOps<D>;
    }

    InlineFunction(InlineFunction&& other) noexcept { take(other); }

    InlineFunction&
    operator=(InlineFunction&& other) noexcept
    {
        if (this != &other) {
            reset();
            take(other);
        }
        return *this;
    }

    InlineFunction(const InlineFunction&) = delete;
    InlineFunction& operator=(const InlineFunction&) = delete;

    ~InlineFunction() { reset(); }

    /** Destroy the held callable (if any); the object becomes empty. */
    void
    reset()
    {
        if (ops_ && ops_->destroy)
            ops_->destroy(buf_);
        ops_ = nullptr;
    }

    R
    operator()(Args... args)
    {
        return ops_->invoke(buf_, std::forward<Args>(args)...);
    }

  private:
    struct Ops
    {
        R (*invoke)(void*, Args&&...);
        /** Move-construct into dst and destroy src; null = memcpy. */
        void (*relocate)(void* dst, void* src);
        /** Null when the callable is trivially destructible. */
        void (*destroy)(void*);
    };

    template <typename D>
    static R
    invokeImpl(void* p, Args&&... args)
    {
        return (*static_cast<D*>(p))(std::forward<Args>(args)...);
    }

    template <typename D>
    static void
    relocateImpl(void* dst, void* src)
    {
        D* s = static_cast<D*>(src);
        ::new (dst) D(std::move(*s));
        s->~D();
    }

    template <typename D>
    static void
    destroyImpl(void* p)
    {
        static_cast<D*>(p)->~D();
    }

    template <typename D>
    static constexpr Ops kOps = {
        &invokeImpl<D>,
        std::is_trivially_copyable_v<D> ? nullptr : &relocateImpl<D>,
        std::is_trivially_destructible_v<D> ? nullptr : &destroyImpl<D>,
    };

    void
    take(InlineFunction& other) noexcept
    {
        ops_ = other.ops_;
        if (!ops_)
            return;
        if (ops_->relocate)
            ops_->relocate(buf_, other.buf_);
        else
            std::memcpy(buf_, other.buf_, Capacity);
        other.ops_ = nullptr;
    }

    alignas(std::max_align_t) unsigned char buf_[Capacity];
    const Ops* ops_ = nullptr;
};

} // namespace sdpcm

#endif // SDPCM_COMMON_INLINE_FUNCTION_HH
