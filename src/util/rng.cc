#include "src/util/rng.h"

namespace swdnn::util {

namespace {

// std::normal_distribution requires stddev > 0. Stddev 0 is the point
// mass at the mean: callers draw from N(0, 1) and discard the value, so
// the engine advances exactly as it does for a positive stddev and no
// later draw moves.
std::normal_distribution<double> normal_dist(double mean, double stddev) {
  return stddev == 0.0 ? std::normal_distribution<double>()
                       : std::normal_distribution<double>(mean, stddev);
}

}  // namespace

double Rng::uniform(double lo, double hi) {
  std::uniform_real_distribution<double> dist(lo, hi);
  return dist(engine_);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  std::uniform_int_distribution<std::int64_t> dist(lo, hi);
  return dist(engine_);
}

double Rng::normal(double mean, double stddev) {
  auto dist = normal_dist(mean, stddev);
  const double x = dist(engine_);
  return stddev == 0.0 ? mean : x;
}

void Rng::fill_uniform(std::span<double> out, double lo, double hi) {
  std::uniform_real_distribution<double> dist(lo, hi);
  for (double& v : out) v = dist(engine_);
}

void Rng::fill_normal(std::span<double> out, double mean, double stddev) {
  auto dist = normal_dist(mean, stddev);
  for (double& v : out) {
    const double x = dist(engine_);
    v = stddev == 0.0 ? mean : x;
  }
}

}  // namespace swdnn::util
