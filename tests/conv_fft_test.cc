// The frequency-domain substrate and the Section III-C rejection
// argument: FFT correctness, FFT-based convolution vs the reference,
// and the bandwidth roofline that rules the method out on SW26010.

#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <ostream>

#include "src/conv/fftconv.h"
#include "src/perf/chooser.h"
#include "src/conv/reference.h"
#include "src/util/rng.h"

namespace swdnn::conv {
namespace {

using Cplx = std::complex<double>;

TEST(Fft, ImpulseTransformsToAllOnes) {
  std::vector<Cplx> data(8, Cplx(0, 0));
  data[0] = Cplx(1, 0);
  fft_inplace(data, false);
  for (const Cplx& v : data) {
    EXPECT_NEAR(v.real(), 1.0, 1e-12);
    EXPECT_NEAR(v.imag(), 0.0, 1e-12);
  }
}

TEST(Fft, ConstantTransformsToDcBin) {
  std::vector<Cplx> data(8, Cplx(2.0, 0));
  fft_inplace(data, false);
  EXPECT_NEAR(data[0].real(), 16.0, 1e-12);
  for (std::size_t i = 1; i < data.size(); ++i) {
    EXPECT_NEAR(std::abs(data[i]), 0.0, 1e-12);
  }
}

TEST(Fft, RoundTripRestoresSignal) {
  util::Rng rng(21);
  for (std::size_t n : {2u, 8u, 64u, 256u}) {
    std::vector<Cplx> data(n);
    std::vector<Cplx> orig(n);
    for (std::size_t i = 0; i < n; ++i) {
      orig[i] = data[i] = Cplx(rng.uniform(-1, 1), rng.uniform(-1, 1));
    }
    fft_inplace(data, false);
    fft_inplace(data, true);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(std::abs(data[i] - orig[i]), 0.0, 1e-10) << "n=" << n;
    }
  }
}

TEST(Fft, ParsevalHolds) {
  util::Rng rng(22);
  std::vector<Cplx> data(64);
  double time_energy = 0;
  for (auto& v : data) {
    v = Cplx(rng.uniform(-1, 1), rng.uniform(-1, 1));
    time_energy += std::norm(v);
  }
  fft_inplace(data, false);
  double freq_energy = 0;
  for (const auto& v : data) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy, 64.0 * time_energy, 1e-8);
}

TEST(Fft, RejectsNonPowerOfTwo) {
  std::vector<Cplx> data(6);
  EXPECT_THROW(fft_inplace(data, false), std::invalid_argument);
  std::vector<Cplx> empty;
  EXPECT_THROW(fft_inplace(empty, false), std::invalid_argument);
}

TEST(Fft, TwoDimensionalRoundTrip) {
  util::Rng rng(23);
  const std::int64_t n = 16;
  std::vector<Cplx> grid(static_cast<std::size_t>(n * n));
  std::vector<Cplx> orig(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    orig[i] = grid[i] = Cplx(rng.uniform(-1, 1), 0);
  }
  fft2d_inplace(grid, n, false);
  fft2d_inplace(grid, n, true);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_NEAR(std::abs(grid[i] - orig[i]), 0.0, 1e-10);
  }
}

TEST(Fft, NextPow2) {
  EXPECT_EQ(next_pow2(1), 1);
  EXPECT_EQ(next_pow2(2), 2);
  EXPECT_EQ(next_pow2(3), 4);
  EXPECT_EQ(next_pow2(64), 64);
  EXPECT_EQ(next_pow2(65), 128);
}

struct FftShape {
  ConvShape shape;
  std::string label;
};

FftShape fs(std::int64_t b, std::int64_t ni, std::int64_t no,
            std::int64_t ro, std::int64_t co, std::int64_t k) {
  return {ConvShape::from_output(b, ni, no, ro, co, k, k),
          "B" + std::to_string(b) + "Ni" + std::to_string(ni) + "No" +
              std::to_string(no) + "o" + std::to_string(ro) + "x" +
              std::to_string(co) + "k" + std::to_string(k)};
}

// Prints the label, not the raw bytes, so discovered test names are
// stable across runs.
void PrintTo(const FftShape& c, std::ostream* os) { *os << c.label; }

class FftConv : public ::testing::TestWithParam<FftShape> {};

TEST_P(FftConv, MatchesReference) {
  const ConvShape& s = GetParam().shape;
  util::Rng rng(24);
  tensor::Tensor in = make_input(s), w = make_filter(s);
  rng.fill_uniform(in.data(), -1, 1);
  rng.fill_uniform(w.data(), -1, 1);
  tensor::Tensor expected = make_output(s), actual = make_output(s);
  reference_forward(in, w, expected, s);
  fft_conv_forward(in, w, actual, s);
  EXPECT_LE(expected.max_abs_diff(actual), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, FftConv,
    ::testing::Values(fs(1, 1, 1, 3, 3, 2), fs(2, 3, 2, 4, 4, 3),
                      fs(2, 2, 3, 6, 5, 3),  // non-pow2 image, padded
                      fs(1, 2, 2, 2, 2, 5), fs(3, 1, 4, 7, 3, 2)),
    [](const ::testing::TestParamInfo<FftShape>& info) {
      return info.param.label;
    });

TEST(FftRoofline, FrequencyDomainNeedsFarMoreBandwidthThanDmaDelivers) {
  // Section III-C: "the FFT ... has higher requirements for the memory
  // bandwidth". Quantified at the paper's standard configuration: the
  // frequency-domain method demands several times the DMA interface's
  // solid-streaming peak, and ~6x the ~22 GB/s achievable in-kernel.
  const auto& spec = arch::default_spec();
  const auto shape = ConvShape::from_output(128, 128, 128, 64, 64, 3, 3);
  const double rbw = fft_required_bandwidth_gbs(shape, spec);
  EXPECT_GT(rbw, 3.0 * spec.dma_peak_bandwidth_gbs);
  EXPECT_GT(rbw, 5.0 * 22.0);
}

TEST(FftRoofline, SpatialMethodBeatsFrequencyDomainEndToEnd) {
  // The decisive comparison: modeled layer time. The FFT path has
  // fewer flops at 3x3 (the transforms amortize over B=128), but its
  // bandwidth starvation — (22/RBW)^2 of peak, the same square rule —
  // makes it slower end to end than the spatial plan the chooser picks.
  const auto& spec = arch::default_spec();
  const auto shape = ConvShape::from_output(128, 128, 128, 64, 64, 3, 3);
  const double rbw = fft_required_bandwidth_gbs(shape, spec);
  const double ratio = std::min(1.0, 22.0 / rbw);
  const double fft_gflops = spec.peak_gflops_per_cg() * ratio * ratio;
  const double fft_seconds = fft_method_flops(shape) / (fft_gflops * 1e9);

  perf::PlanChooser chooser(spec);
  const auto choice = chooser.choose(shape);
  const double spatial_seconds =
      static_cast<double>(shape.flops()) /
      (choice.estimate.gflops_per_cg * 1e9);

  EXPECT_GT(fft_seconds, 3.0 * spatial_seconds);
}

TEST(FftRoofline, SmallFiltersMakeItWorse) {
  // The FFT cost is filter-size independent while the spatial method's
  // flops shrink with k — the smaller the filter, the worse the
  // frequency-domain trade. Bandwidth demand per *useful* spatial flop:
  const auto& spec = arch::default_spec();
  const auto k3 = ConvShape::from_output(128, 128, 128, 64, 64, 3, 3);
  const auto k9 = ConvShape::from_output(128, 128, 128, 64, 64, 9, 9);
  const double per_flop_k3 =
      fft_required_bandwidth_gbs(k3, spec) * fft_method_flops(k3) /
      static_cast<double>(k3.flops());
  const double per_flop_k9 =
      fft_required_bandwidth_gbs(k9, spec) * fft_method_flops(k9) /
      static_cast<double>(k9.flops());
  EXPECT_GT(per_flop_k3, per_flop_k9);
}

TEST(FftRoofline, FlopCountScalesWithChannels) {
  const auto& spec = arch::default_spec();
  (void)spec;
  const auto small = ConvShape::from_output(128, 64, 64, 64, 64, 3, 3);
  const auto big = ConvShape::from_output(128, 256, 256, 64, 64, 3, 3);
  EXPECT_GT(fft_method_flops(big), fft_method_flops(small));
}

}  // namespace
}  // namespace swdnn::conv
