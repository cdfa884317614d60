#include "common/error.hpp"

namespace ivory::detail {

void throw_invalid_parameter(std::string_view msg) { throw InvalidParameter(std::string(msg)); }

void throw_non_finite(double v, const char* site) {
  throw NonFiniteError(std::string(site) + ": non-finite value (" +
                       (std::isnan(v) ? "NaN" : "Inf") + ")");
}

}  // namespace ivory::detail
