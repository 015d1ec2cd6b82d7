/**
 * @file
 * Small-buffer-optimized move-only callable wrapper for the event-queue
 * hot path. Unlike std::function, callables whose state fits the inline
 * buffer are stored in place: scheduling an event performs no heap
 * allocation. Oversized callables transparently fall back to the heap so
 * no call site ever needs to care.
 */

#ifndef BPD_SIM_INLINE_FUNCTION_HPP
#define BPD_SIM_INLINE_FUNCTION_HPP

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace bpd::sim {

template <typename Sig, std::size_t InlineBytes = 48>
class InlineFunction;

/**
 * Move-only type-erased callable with @p InlineBytes of in-place storage.
 */
template <typename R, typename... Args, std::size_t InlineBytes>
class InlineFunction<R(Args...), InlineBytes>
{
  public:
    /** True when @p F is stored inline (no allocation on construction). */
    template <typename F>
    static constexpr bool fitsInline
        = sizeof(F) <= InlineBytes
          && alignof(F) <= alignof(std::max_align_t)
          && std::is_nothrow_move_constructible_v<F>;

    InlineFunction() = default;
    InlineFunction(std::nullptr_t) {}

    template <typename F,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<F>, InlineFunction>
                  && std::is_invocable_r_v<R, std::decay_t<F> &, Args...>>>
    InlineFunction(F &&f)
    {
        construct(std::forward<F>(f));
    }

    InlineFunction(InlineFunction &&other) noexcept { moveFrom(other); }

    InlineFunction &
    operator=(InlineFunction &&other) noexcept
    {
        if (this != &other) {
            reset();
            moveFrom(other);
        }
        return *this;
    }

    InlineFunction(const InlineFunction &) = delete;
    InlineFunction &operator=(const InlineFunction &) = delete;

    ~InlineFunction() { reset(); }

    explicit operator bool() const { return vt_ != nullptr; }

    R
    operator()(Args... args)
    {
        return vt_->invoke(buf_, std::forward<Args>(args)...);
    }

    void
    reset()
    {
        if (vt_) {
            vt_->destroy(buf_);
            vt_ = nullptr;
        }
    }

    /**
     * Fill this empty wrapper: a callable is built directly in the
     * buffer, another InlineFunction is relocated in once. Lets a
     * container construct its element in place instead of moving a
     * temporary wrapper into it.
     */
    template <typename F>
    void
    emplace(F &&f)
    {
        if constexpr (std::is_same_v<std::decay_t<F>, InlineFunction>) {
            static_assert(!std::is_lvalue_reference_v<F>,
                          "move an InlineFunction in; it cannot be copied");
            moveFrom(f);
        } else {
            construct(std::forward<F>(f));
        }
    }

  private:
    struct VTable
    {
        R (*invoke)(void *, Args &&...);
        void (*relocate)(void *dst, void *src); //!< move + destroy src
        void (*destroy)(void *);
    };

    template <typename F>
    void
    construct(F &&f)
    {
        using Fn = std::decay_t<F>;
        if constexpr (fitsInline<Fn>) {
            ::new (static_cast<void *>(buf_)) Fn(std::forward<F>(f));
            vt_ = &inlineVtable<Fn>;
        } else {
            *reinterpret_cast<Fn **>(buf_)
                = new Fn(std::forward<F>(f));
            vt_ = &heapVtable<Fn>;
        }
    }

    void
    moveFrom(InlineFunction &other) noexcept
    {
        vt_ = other.vt_;
        if (vt_) {
            vt_->relocate(buf_, other.buf_);
            other.vt_ = nullptr;
        }
    }

    template <typename Fn>
    static constexpr VTable inlineVtable = {
        [](void *p, Args &&...args) -> R {
            return (*std::launder(reinterpret_cast<Fn *>(p)))(
                std::forward<Args>(args)...);
        },
        [](void *dst, void *src) {
            Fn *s = std::launder(reinterpret_cast<Fn *>(src));
            ::new (dst) Fn(std::move(*s));
            s->~Fn();
        },
        [](void *p) { std::launder(reinterpret_cast<Fn *>(p))->~Fn(); },
    };

    template <typename Fn>
    static constexpr VTable heapVtable = {
        [](void *p, Args &&...args) -> R {
            return (**reinterpret_cast<Fn **>(p))(
                std::forward<Args>(args)...);
        },
        [](void *dst, void *src) {
            *reinterpret_cast<Fn **>(dst)
                = *reinterpret_cast<Fn **>(src);
        },
        [](void *p) { delete *reinterpret_cast<Fn **>(p); },
    };

    alignas(std::max_align_t) unsigned char buf_[InlineBytes];
    const VTable *vt_ = nullptr;
};

} // namespace bpd::sim

#endif // BPD_SIM_INLINE_FUNCTION_HPP
