// Protocol errors that carry diagnostic context.
//
// A bare `std::logic_error("build_request: no block message")` tells an
// operator nothing about *which* run went wrong or what the sizing inputs
// were. ProtocolError snapshots the receiver's observed state (z, the
// Theorem-2/3 bounds, protocol position) at the throw site; the same fields
// are mirrored into an `error` trace span when a Registry is attached, so a
// failure in a Monte Carlo batch can be found in `runs.jsonl` by stage name.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>

namespace graphene::obs {
class Registry;
}  // namespace graphene::obs

namespace graphene::core {

/// Receiver-side state snapshot attached to protocol errors.
struct ErrorContext {
  bool have_block_msg = false;  ///< was receive_block() ever called
  std::uint64_t n = 0;          ///< block size from the grblk message
  std::uint64_t m = 0;          ///< receiver mempool size
  std::uint64_t z = 0;          ///< observed candidate-set size |Z|
  std::uint64_t x_star = 0;     ///< Theorem 2 bound from the last request
  std::uint64_t y_star = 0;     ///< Theorem 3 bound from the last request
  std::uint64_t b = 0;          ///< chosen Protocol 2 false-positive budget
};

/// std::logic_error subclass so existing `EXPECT_THROW(..., std::logic_error)`
/// call sites keep working; what() embeds the formatted context.
class ProtocolError : public std::logic_error {
 public:
  ProtocolError(const std::string& stage, const std::string& what, ErrorContext ctx)
      : std::logic_error(format(stage, what, ctx)), stage_(stage), ctx_(ctx) {}

  [[nodiscard]] const std::string& stage() const noexcept { return stage_; }
  [[nodiscard]] const ErrorContext& context() const noexcept { return ctx_; }

  [[nodiscard]] static std::string format(const std::string& stage,
                                          const std::string& what,
                                          const ErrorContext& ctx);

 private:
  std::string stage_;
  ErrorContext ctx_;
};

/// Records a host's rejection of an out-of-range request as an `error`
/// flight event labelled with the error's stage (no-op without a recorder).
void record_rejection(obs::Registry* reg, const ProtocolError& error);

}  // namespace graphene::core
