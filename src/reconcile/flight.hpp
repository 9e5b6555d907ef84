// Flight-recorder helper shared by the reconcile backends: the decode
// outcome of each client step, labelled by stage.
#pragma once

#include "obs/obs.hpp"
#include "reconcile/types.hpp"

namespace graphene::reconcile::detail {

inline void record_decode(obs::Registry* reg, const char* label, Outcome::Status status) {
  obs::record(reg, obs::FlightEventKind::kDecode, label,
              {{"status", static_cast<double>(static_cast<int>(status))}});
}

}  // namespace graphene::reconcile::detail
