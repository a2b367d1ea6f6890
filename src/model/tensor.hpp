// Minimal owning 2-D tensor types for the functional models.
//
// Row-major [rows x cols]; a vector is a 1-row tensor. Weight matrices are
// stored [out_features x in_features] to match the paper's W in
// Z^{l_embed/n x l_embed} convention (one row per output feature).
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace looplynx::model {

template <typename T>
class TensorT {
 public:
  TensorT() = default;
  TensorT(std::size_t rows, std::size_t cols, T fill = T{})
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  static TensorT vector(std::size_t n, T fill = T{}) {
    return TensorT(1, n, fill);
  }

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t size() const noexcept { return data_.size(); }
  bool empty() const noexcept { return data_.empty(); }

  T& at(std::size_t r, std::size_t c) {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  const T& at(std::size_t r, std::size_t c) const {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  T& operator[](std::size_t i) {
    assert(i < data_.size());
    return data_[i];
  }
  const T& operator[](std::size_t i) const {
    assert(i < data_.size());
    return data_[i];
  }

  std::span<T> row(std::size_t r) {
    assert(r < rows_);
    return std::span<T>(data_.data() + r * cols_, cols_);
  }
  std::span<const T> row(std::size_t r) const {
    assert(r < rows_);
    return std::span<const T>(data_.data() + r * cols_, cols_);
  }

  std::span<T> flat() { return std::span<T>(data_); }
  std::span<const T> flat() const { return std::span<const T>(data_); }

  T* data() noexcept { return data_.data(); }
  const T* data() const noexcept { return data_.data(); }

  void fill(T value) { data_.assign(data_.size(), value); }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<T> data_;
};

using Tensor = TensorT<float>;
using Tensor8 = TensorT<std::int8_t>;
using Tensor32 = TensorT<std::int32_t>;

}  // namespace looplynx::model
