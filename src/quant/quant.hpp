// Core W8A8 quantization primitives (SmoothQuant-style static quantization,
// per-channel weights, per-tensor activations — the scheme the paper uses on
// both LoopLynx and the torch-int A100 baseline).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "model/tensor.hpp"

namespace looplynx::quant {

/// Symmetric int8 scale for a given absolute maximum.
inline float scale_for_absmax(float absmax) {
  // Guard against dead channels: a zero scale would divide by zero.
  return absmax > 1e-12f ? absmax / 127.0f : 1e-12f / 127.0f;
}

/// Quantizes one value: round-to-nearest, clamped to [-127, 127].
std::int8_t quantize_value(float v, float scale);

/// Per-tensor quantization of a vector.
void quantize(std::span<const float> x, float scale, std::span<std::int8_t> q);

/// Dequantize.
void dequantize(std::span<const std::int8_t> q, float scale,
                std::span<float> x);

/// int8 x int8 -> int32 dot product (exact integer arithmetic; this is the
/// operation the MPU's MAC units perform).
std::int32_t dot_i8(std::span<const std::int8_t> a,
                    std::span<const std::int8_t> b);

/// A quantized linear layer y = W x + b with per-output-channel weight
/// scales and a static per-tensor input scale. Output is produced in fp32
/// (the accelerator's quantization unit re-quantizes it for the next kernel
/// when needed).
struct QuantizedLinear {
  model::Tensor8 weight;             // [out x in]
  std::vector<float> weight_scales;  // per output row
  std::vector<float> bias;           // fp32, per output row
  float input_scale = 1.0f;

  std::size_t out_features() const { return weight.rows(); }

  /// Builds from fp32 weights [out x in] with per-channel scales; the input
  /// scale comes from calibration.
  static QuantizedLinear from_float(const model::Tensor& w,
                                    std::span<const float> bias,
                                    float input_scale);

  /// y_fp = dequant(W_q x_q) + b over the full output range.
  void forward(std::span<const std::int8_t> x_q, std::span<float> y) const;

  /// Computes only output rows [row_begin, row_end) — the column-parallel
  /// partition a single LoopLynx node evaluates (paper Fig. 2(c)).
  void forward_rows(std::span<const std::int8_t> x_q, std::size_t row_begin,
                    std::size_t row_end, std::span<float> y) const;

  /// Weight bytes (int8) this layer streams from HBM per invocation.
  std::uint64_t weight_bytes() const { return weight.size(); }
};

/// Quantization error metrics between a reference and a test vector.
struct ErrorStats {
  double max_abs = 0.0;
  double mean_abs = 0.0;
  double rel_l2 = 0.0;  // ||a-b|| / ||a||
};
ErrorStats compare(std::span<const float> reference,
                   std::span<const float> test);

}  // namespace looplynx::quant
