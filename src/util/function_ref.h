#pragma once

/// \file function_ref.h
/// A non-owning reference to a callable, for parameters that are only
/// called during the call that receives them.
///
/// `std::function` owns a copy of its target and heap-allocates one larger
/// than its small buffer (16 bytes in libstdc++), so a lambda capturing a few
/// references costs an allocation per call of the function it is passed to.
/// A FunctionRef stores only the target's address and a trampoline: the
/// referenced callable must outlive every call through the reference, which
/// holds for a temporary lambda passed as an argument.

#include <functional>
#include <memory>
#include <type_traits>
#include <utility>

namespace tertio {

template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
             std::is_invocable_r_v<R, F&, Args...>)
  FunctionRef(F&& f) noexcept  // NOLINT(google-explicit-constructor)
      : target_(const_cast<void*>(static_cast<const void*>(std::addressof(f)))),
        call_(&Call<std::remove_reference_t<F>>) {}

  R operator()(Args... args) const { return call_(target_, std::forward<Args>(args)...); }

 private:
  template <typename F>
  static R Call(void* target, Args... args) {
    return std::invoke(*static_cast<F*>(target), std::forward<Args>(args)...);
  }

  void* target_;
  R (*call_)(void*, Args...);
};

}  // namespace tertio
