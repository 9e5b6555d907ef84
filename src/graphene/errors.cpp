#include "graphene/errors.hpp"

#include "obs/obs.hpp"

namespace graphene::core {

std::string ProtocolError::format(const std::string& stage, const std::string& what,
                                  const ErrorContext& ctx) {
  std::string out = "Receiver::" + stage + ": " + what;
  out += " [have_block_msg=";
  out += ctx.have_block_msg ? "true" : "false";
  out += " n=" + std::to_string(ctx.n);
  out += " m=" + std::to_string(ctx.m);
  out += " z=" + std::to_string(ctx.z);
  out += " x*=" + std::to_string(ctx.x_star);
  out += " y*=" + std::to_string(ctx.y_star);
  out += " b=" + std::to_string(ctx.b);
  out += "]";
  return out;
}

void record_rejection(obs::Registry* reg, const ProtocolError& error) {
  const ErrorContext& ctx = error.context();
  obs::record(reg, obs::FlightEventKind::kError, error.stage(),
              {{"n", static_cast<double>(ctx.n)},
               {"z", static_cast<double>(ctx.z)},
               {"y_star", static_cast<double>(ctx.y_star)},
               {"b", static_cast<double>(ctx.b)}});
}

}  // namespace graphene::core
